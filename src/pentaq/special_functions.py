"""Scalar special functions shared by every identity evaluator.

Complex log-gamma, q-Pochhammer symbols, the second Bernoulli polynomial
B_{2,2}, the hyperbolic gamma function, the dilogarithm and Rogers'
dilogarithm.  Everything multiplicative is available in log-space so that
products of dozens of gamma-type factors never overflow double precision.

All functions accept numpy arrays where it makes sense (the identity
evaluators batch whole contour grids through single calls) and are pure:
no global state, safe to call from multiple threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import loggamma as _scipy_loggamma

__all__ = [
    "PoleError",
    "ConvergenceError",
    "ModularPair",
    "log_gamma",
    "gamma",
    "qpoch_inf",
    "log_qpoch_inf",
    "qpoch_ratio_regularized",
    "bernoulli_b22",
    "hyperbolic_gamma",
    "log_hyperbolic_gamma",
    "dilog",
    "rogers_L",
]

# Refuse hyperbolic-gamma evaluation when either nome gets this close to the
# unit circle: the products converge too slowly to retain double precision.
EPS_MODULAR = 1e-3

# (a; q)_inf is truncated where |a q^k| < _PRODUCT_TAIL_TOL (below 1.1e-16
# a factor 1 - a q^k rounds to 1): log_qpoch_inf keeps the factors above it,
# qpoch_inf the series terms.  Neither takes more than _MAX_FACTORS factors.
_PRODUCT_TAIL_TOL = 1e-16
_MAX_FACTORS = 200_000
# log_qpoch_inf multiplies _LOG_BLOCK factors before it takes one log (few
# enough that no block product over- or underflows), and holds at most
# _LOG_CHUNK factor columns in memory.
_LOG_BLOCK = 16
_LOG_CHUNK = 4096
# qpoch_inf holds at most _HEAD_CHUNK head factors (16 bytes each) at once.
_HEAD_CHUNK = 65536


class PoleError(ValueError):
    """An argument landed on (or too close to) a pole of the function."""


class ConvergenceError(RuntimeError):
    """An iterative evaluation failed to reach its tolerance."""


@dataclass(frozen=True)
class ModularPair:
    """A quasi-period pair (omega1, omega2) and the nome pair it induces.

    Requires Im(omega1/omega2) > 0 so that both the nome
    q = exp(2*pi*i*omega1/omega2) and the dual nome
    q_dual = exp(-2*pi*i*omega2/omega1) lie strictly inside the unit disc.
    """

    omega1: complex
    omega2: complex

    def __post_init__(self) -> None:
        w1 = complex(self.omega1)
        w2 = complex(self.omega2)
        if w1 == 0 or w2 == 0:
            raise ValueError("quasi-periods must be nonzero")
        if (w1 / w2).imag <= 0:
            raise ValueError(
                "ModularPair requires Im(omega1/omega2) > 0 "
                f"(got omega1={w1}, omega2={w2})"
            )
        object.__setattr__(self, "omega1", w1)
        object.__setattr__(self, "omega2", w2)

    @property
    def q(self) -> complex:
        return np.exp(2j * np.pi * self.omega1 / self.omega2)

    @property
    def q_dual(self) -> complex:
        return np.exp(-2j * np.pi * self.omega2 / self.omega1)

    @property
    def omega_sum(self) -> complex:
        return self.omega1 + self.omega2


# ---------------------------------------------------------------------------
# gamma function
# ---------------------------------------------------------------------------

def log_gamma(z):
    """Principal-branch log of Gamma(z) for complex z (array-capable).

    Raises PoleError for arguments within 1e-12 of a nonpositive integer.
    """
    arr = np.asarray(z, dtype=complex)
    near_real = np.abs(arr.imag) < 1e-12
    near_pole = near_real & (arr.real <= 1e-12) & (
        np.abs(arr.real - np.round(arr.real)) < 1e-12
    )
    if np.any(near_pole):
        raise PoleError(f"log_gamma pole at z = {arr[near_pole].flat[0]}")
    out = _scipy_loggamma(arr)
    if arr.ndim == 0:
        return complex(out)
    return out


def gamma(z):
    """Gamma(z) via the log-gamma routine."""
    return np.exp(log_gamma(z))


# ---------------------------------------------------------------------------
# q-Pochhammer
# ---------------------------------------------------------------------------

def _check_nome(q) -> complex:
    qv = complex(q)
    if abs(qv) >= 1:
        raise ValueError(f"(a;q)_inf requires |q| < 1, got |q| = {abs(qv)}")
    return qv


def _factor_count(target: float, q_abs: float) -> int:
    """The number of factors K so that |q|^K < target (target <= 1),
    at least 1 and at most _MAX_FACTORS."""
    if target >= 1.0:
        return 1
    k = int(math.ceil(math.log(target) / math.log(q_abs))) + 1
    return min(max(k, 1), _MAX_FACTORS)


def qpoch_inf(a, q):
    """The infinite q-Pochhammer symbol (a; q)_inf = prod_{k>=0} (1 - a q^k).

    `a` may be a scalar or a numpy array of any shape; `q` must satisfy
    |q| < 1.  The product is split after J factors into a direct head and
    Euler's series for the log of the rest (Gasper and Rahman, Basic
    Hypergeometric Series, section 1.3):

        (a; q)_inf = (a; q)_J * exp(-sum_{k>=1} y^k / (k (1 - q^k))),
        y = a q^J.

    With T = -log _PRODUCT_TAIL_TOL (36.8), L = -log|q| and
    h = ceil(sqrt(T / L)), the head has J = h + max(0, ceil(log|a|_max / L))
    factors, so that |y| <= |q|^h, and the series keeps N = ceil(T / (h L))
    terms, so that |y|^N <= |q|^{hN} <= 1e-16.  Head plus series cost about
    h + T / (h L) operations, least at this h: 6 + 6 at q = 0.35 and
    61 + 61 at q = 0.99, against about 40 and 3,700 factors of a direct
    product.  The series is summed by Horner's rule and leaves log space
    through one exp; the terms it drops add up to at most
    |y|^{N+1} / ((N+1) (1 - |q|^{N+1}) (1 - |y|)) < 1e-16 |y| / (1 - |y|).

    One head length per call: |a|_max is the largest finite |a| in the
    call, so that no element needs a mask, and an element's value can
    differ in its last bits between a batched call and a call of its own.
    For real q the powers q^k stay real and 1 - q^k is formed without
    cancellation as q^k -> 1.  A non-finite element gives nan and takes no
    part in J.  An exact zero factor (a = q^{-k}) gives an exact zero, and
    (a; 0)_inf = 1 - a exactly.  Raises ConvergenceError when J + N would
    exceed _MAX_FACTORS (L below about 4e-9, or |a| beyond |q|^{-200,000}).
    """
    qv = _check_nome(q)
    arr = np.asarray(a, dtype=complex)
    if qv == 0:
        out = 1.0 - arr
        return complex(out) if arr.ndim == 0 else out
    shape = arr.shape
    arr = arr.reshape(-1)   # scalars take the array path too
    finite = np.isfinite(arr)
    if not finite.all():
        arr = np.where(finite, arr, 0)
    T = -math.log(_PRODUCT_TAIL_TOL)
    L = -math.log(abs(qv))
    h = math.ceil(math.sqrt(T / L))
    n_terms = math.ceil(T / (h * L))
    a_max = float(np.abs(arr).max(initial=0.0))
    J = h + (math.ceil(math.log(a_max) / L) if a_max > 1 else 0)
    if J + n_terms > _MAX_FACTORS:
        raise ConvergenceError(
            f"(a;q)_inf needs {J} factors and {n_terms} series terms at "
            f"|q| = {abs(qv)}, |a| up to {a_max:.3g}: more than {_MAX_FACTORS}")
    # the head: factors 1 - a q^k along a leading axis, in chunks of at
    # most _HEAD_CHUNK values
    powers = (qv.real if qv.imag == 0 else qv) ** np.arange(J + 1)
    out = np.ones_like(arr)
    rows = max(1, _HEAD_CHUNK // max(arr.size, 1))
    for start in range(0, J, rows):
        factors = np.multiply.outer(powers[start:min(start + rows, J)], arr)
        np.subtract(1.0, factors, out=factors)
        out *= np.multiply.reduce(factors, axis=0)
    # the series coefficients 1 / (k (1 - q^k)), k = 1..N
    k = np.arange(1, n_terms + 1)
    if qv.imag == 0:
        q_k = qv.real ** k
        one_minus = np.where(q_k > 0, -np.expm1(-k * L), 1 - q_k)
    else:
        one_minus = -np.expm1(k * cmath.log(qv))
    coef = 1.0 / (k * one_minus)
    y = arr * powers[J]
    series = coef[-1] * y
    for c in coef[-2::-1]:
        series += c
        series *= y
    out *= np.exp(-series)
    if not finite.all():
        out[~finite] = complex(np.nan, np.nan)
    return complex(out[0]) if shape == () else out.reshape(shape)


def log_qpoch_inf(a, q):
    """log (a; q)_inf modulo 2 pi i (array-capable in `a`): not a sum of
    principal logs, so callers exponentiate.

    No factor 1 - x with |x| > 1 is formed.  Per element, let j be the
    number of factors with |a q^k| >= 1 and c = a q^j.  Each of those j
    factors is split as 1 - x = -x (1 - 1/x), and 1/(a q^k) = q^{j-k}/c
    runs through q/c, ..., q^j/c as k runs down from j - 1 to 0, so

        (a; q)_inf = (-a)^j q^{j(j-1)/2} (q/c; q)_j (c; q)_inf,

    with |c| < 1 and |q/c| <= 1 (summed over k, the split is the
    quasi-periodicity of (a; q)_inf; Faddeev and Kashaev, Quantum
    dilogarithm, 1994).  The monomial is closed form in log space,
    j (log a + i pi) + j (j-1)/2 log q.  Both products then fall below
    _PRODUCT_TAIL_TOL after the same K = ceil(log 1e-16 / log|q|) + 1
    factors, whatever |a| is (8 at |q| = 0.003), and the factors beyond K
    enter through their first-order tail, as in qpoch_inf.  K depends on q
    alone, so an element's value does not depend on the array it comes in.

    Factors are multiplied in blocks of _LOG_BLOCK and one log is taken per
    block; _LOG_CHUNK factor columns at most are held at once.  The
    monomial's rounding error grows like j^2 |log q| ulp, the same order as
    a sum of j principal logs.  An exact zero factor (a = q^{-k}) sends the
    result to -inf, and (a; 0)_inf = 1 - a exactly.
    """
    qv = _check_nome(q)
    arr = np.asarray(a, dtype=complex)
    if qv == 0:
        out = np.log(1.0 - arr)
        return complex(out) if arr.ndim == 0 else out
    shape = arr.shape
    arr = arr.reshape(-1)   # scalars take the array path too
    log_q = cmath.log(qv)
    K = _factor_count(_PRODUCT_TAIL_TOL, abs(qv))
    # a = 0 gives log|a| = -inf, j = 0 and q/c = inf, which no term uses; a
    # zero factor gives log(0) = -inf, which exponentiates to an exact zero
    with np.errstate(divide="ignore", invalid="ignore"):
        log_abs = np.log(np.abs(arr))
        j = np.fmax(log_abs // -log_q.real + 1, 0)
        q_j = qv**j
        c = arr * q_j
        # q/c as 1/(a q^{j-1}), exactly 1 where a q^{j-1} is
        inv = 1.0 / (arr * qv ** (j - 1))
        # first-order tails of the two products truncated at K factors
        out = (-c * qv**K - np.where(j > K, inv * (qv**K - q_j), 0)) / (1 - qv)
        # the factors 1 - c q^k and 1 - (q/c) q^k (1 where k >= j) of a
        # chunk of k along a leading axis, multiplied in blocks
        step = _LOG_CHUNK // 2
        for start in range(0, K, step):
            k = np.arange(start, min(start + step, K))
            q_k = qv**k
            f = [1.0 - np.multiply.outer(q_k, c),
                 np.where(np.less.outer(k, j),
                          1.0 - np.multiply.outer(q_k, inv), 1)]
            pad = -2 * len(k) % _LOG_BLOCK
            if pad:
                f.append(np.ones((pad, arr.size)))
            f = np.concatenate(f).reshape(_LOG_BLOCK, -1, arr.size)
            out = out + _fold(np.add, np.log(_fold(np.multiply, f, 1)), 0)
        # the monomial, zero where j = 0
        arg = np.angle(arr) + np.pi
        out = out + (j * (np.fmax(log_abs, 0) + 1j * arg)
                     + j * (j - 1) / 2 * log_q)
    return complex(out[0]) if shape == () else out.reshape(shape)


def _fold(op, x, unit):
    """Reduce the leading axis of x with the elementwise ufunc op, by halves
    (padded with unit).  Every element is rounded the same way whatever the
    trailing shape, which np.prod and np.sum do not promise."""
    while len(x) > 1:
        if len(x) % 2:
            x = np.concatenate([x, np.full_like(x[:1], unit)])
        x = op(x[:len(x) // 2], x[len(x) // 2:])
    return x[0]


def qpoch_ratio_regularized(alpha, beta, q):
    """(q^alpha; q)_inf / (q^beta; q)_inf * (1-q)^(alpha-beta), in log-space.

    As q -> 1 this tends to Gamma(beta)/Gamma(alpha); the regulator keeps the
    evaluation finite on the way.  Principal branches throughout.
    """
    qv = complex(q)
    a = complex(alpha)
    b = complex(beta)
    lq = np.log(qv)
    log_num = log_qpoch_inf(np.exp(a * lq), qv)
    log_den = log_qpoch_inf(np.exp(b * lq), qv)
    if not np.isfinite(log_den):
        raise PoleError(f"(q^beta;q)_inf vanished for beta = {beta}")
    return complex(np.exp(log_num - log_den + (a - b) * np.log(1.0 - qv)))


# ---------------------------------------------------------------------------
# Bernoulli polynomial and hyperbolic gamma
# ---------------------------------------------------------------------------

def bernoulli_b22(u, omega):
    """The second Bernoulli polynomial B_{2,2}(u; omega1, omega2).

    `omega` may be a ModularPair or any (omega1, omega2) pair of nonzero
    quasi-periods; the polynomial itself needs no modular constraint.
    """
    if isinstance(omega, ModularPair):
        w1, w2 = omega.omega1, omega.omega2
    else:
        w1, w2 = (complex(w) for w in omega)
    if w1 == 0 or w2 == 0:
        raise ValueError("quasi-periods must be nonzero")
    u = np.asarray(u, dtype=complex)
    out = (u * u / (w1 * w2) - u / w1 - u / w2
           + w1 / (6 * w2) + w2 / (6 * w1) + 0.5)
    return complex(out) if out.ndim == 0 else out


def log_hyperbolic_gamma(u, omega: ModularPair):
    """log of the hyperbolic gamma function gamma^(2)(u; omega1, omega2).

    Convention (validated by the inversion relation
    gamma^(2)(u) * gamma^(2)(omega1+omega2-u) = 1 and by the
    omega2 -> infinity limit): numerator exponent u/omega1 paired with the
    dual nome, denominator exponent u/omega2 paired with the nome:

        gamma^(2)(u) = exp(-i*pi*B22(u)/2)
                       * (exp(2*pi*i*u/omega1) q~; q~)_inf
                       / (exp(2*pi*i*u/omega2);    q)_inf

    u may be an array of any shape; every element is computed on its own
    (log_qpoch_inf takes a factor count that depends on the nome only), so
    one call on a stacked array returns exactly the values of separate
    calls, and callers batch.  The result is a log modulo 2 pi i; callers
    exponentiate.  Raises ConvergenceError when either nome modulus exceeds
    1 - EPS_MODULAR (near-degenerate pair) or when the numerator argument
    exp(2*pi*i*u/omega1) * q~ or the denominator argument
    exp(2*pi*i*u/omega2) leaves double range (a tiny dual nome against a
    large exponential, or |Im(u/omega2)| beyond about 113), and PoleError
    when a Pochhammer factor of the numerator or denominator vanishes.
    """
    qv = omega.q
    qd = omega.q_dual
    if abs(qv) > 1 - EPS_MODULAR or abs(qd) > 1 - EPS_MODULAR:
        raise ConvergenceError(
            "near-degenerate quasi-period pair: "
            f"|q| = {abs(qv):.6f}, |q~| = {abs(qd):.6f} exceed {1 - EPS_MODULAR}"
        )
    u = np.asarray(u, dtype=complex)
    shape = u.shape
    u = u.reshape(-1)   # scalars take the array path too
    b22 = bernoulli_b22(u, omega)
    with np.errstate(over="ignore", invalid="ignore"):
        num_arg = np.exp(2j * np.pi * u / omega.omega1) * qd
        den_arg = np.exp(2j * np.pi * u / omega.omega2)
    if not np.all(np.isfinite(num_arg)):
        raise ConvergenceError(
            f"dual nome |q~| = {abs(qd):.3g}: exp(2 pi i u / omega1) q~ "
            "is not finite in double precision")
    if not np.all(np.isfinite(den_arg)):
        raise ConvergenceError(
            "exp(2 pi i u / omega2) is not finite in double precision")
    log_num = log_qpoch_inf(num_arg, qd)
    log_den = log_qpoch_inf(den_arg, qv)
    if not np.all(np.isfinite(log_den)):
        raise PoleError("hyperbolic gamma pole: denominator factor vanished")
    if not np.all(np.isfinite(log_num)):
        raise PoleError("hyperbolic gamma zero: numerator factor vanished")
    out = -1j * np.pi * b22 / 2 + log_num - log_den
    return complex(out[0]) if shape == () else out.reshape(shape)


def hyperbolic_gamma(u, omega: ModularPair):
    """gamma^(2)(u; omega1, omega2); see log_hyperbolic_gamma."""
    return np.exp(log_hyperbolic_gamma(u, omega))


# ---------------------------------------------------------------------------
# dilogarithms
# ---------------------------------------------------------------------------

def _li2_series(x: float) -> float:
    """Li2 power series for 0 <= x <= 1/2 (converges geometrically)."""
    total = 0.0
    term = x
    k = 1
    while abs(term) > 1e-18 and k < 200:
        total += term / (k * k)
        term *= x
        k += 1
    return total


def dilog(x: float) -> float:
    """Li2(x) for x in [0, 1], to better than 1e-13 relative accuracy.

    Uses the power series on [0, 1/2] and Euler's reflection
    Li2(x) = pi^2/6 - log(x) log(1-x) - Li2(1-x) on (1/2, 1); the endpoint
    x = 1 is the limit pi^2/6.
    """
    if not 0 <= x <= 1:
        raise ValueError(f"dilog domain is [0, 1], got {x}")
    if x == 0:
        return 0.0
    if x == 1:
        return math.pi**2 / 6
    if x <= 0.5:
        return _li2_series(x)
    return math.pi**2 / 6 - math.log(x) * math.log1p(-x) - _li2_series(1 - x)


def rogers_L(x: float) -> float:
    """Rogers' dilogarithm L(x) = Li2(x) + (1/2) log(1-x) log(x) on [0, 1].

    Endpoints by their limits: L(0) = 0 and L(1) = pi^2/6.
    """
    if not 0 <= x <= 1:
        raise ValueError(f"rogers_L domain is [0, 1], got {x}")
    if x == 0:
        return 0.0
    if x == 1:
        return math.pi**2 / 6
    return dilog(x) + 0.5 * math.log1p(-x) * math.log(x)
