"""Scalar special functions shared by every identity evaluator.

Complex log-gamma, q-Pochhammer symbols, the second Bernoulli polynomial
B_{2,2}, the hyperbolic gamma function, the dilogarithm and Rogers'
dilogarithm.  Everything multiplicative is available in log-space so that
products of dozens of gamma-type factors never overflow double precision.

The identity evaluators batch whole contour grids through single calls,
so the functions of one array argument share one convention
(:func:`_flat_array_arg`): ``log_gamma``, ``qpoch_inf``, ``log_qpoch_inf``,
``bernoulli_b22`` and ``log_hyperbolic_gamma`` take their first argument
as a scalar or a numpy array of any shape and return a Python complex for
a scalar or 0-d argument, and otherwise an array of the argument's shape,
whose elements are those of the call on the same values as a flat array.
All functions are pure functions of their arguments, safe to call from
multiple threads.  The
module's one piece of state is a bounded cache of read-only per-nome
tables, the powers q^k and series coefficients of the q-Pochhammer core
(:func:`_nome_table`); a table is the same whether built or reused, so no
value depends on the cache.
"""

from __future__ import annotations

import cmath
import functools
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
# a factor 1 - a q^k rounds to 1), and refused where that takes more than
# _MAX_FACTORS head factors and series terms.
_PRODUCT_TAIL_TOL = 1e-16
_MAX_FACTORS = 200_000
_TAIL_LOG = -math.log(_PRODUCT_TAIL_TOL)
# heads longer than this build their _nome_table per call: a cached table
# then takes at most 1025 powers and 1025 coefficients
_MAX_CACHED_HEAD = 1024
# head factors are multiplied in blocks of _LOG_BLOCK, few enough that no
# block product over- or underflows
_LOG_BLOCK = 16


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


def _flat_array_arg(fn):
    """The array convention of the module docstring for ``fn``, which
    computes on its first argument as a flat complex array."""
    @functools.wraps(fn)
    def flat(x, *args, **kwargs):
        arr = np.asarray(x, dtype=complex)
        out = fn(arr.reshape(-1), *args, **kwargs)
        return complex(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    return flat


# ---------------------------------------------------------------------------
# gamma function
# ---------------------------------------------------------------------------

@_flat_array_arg
def log_gamma(z):
    """Principal-branch log of Gamma(z) for complex z (array-capable).

    Raises PoleError for arguments within 1e-12 of a nonpositive integer.
    """
    # only the near-real elements can be poles; they are few (the node
    # u = 0 of a quadrature level), so the rest of the test runs on them
    near_real = z[np.abs(z.imag) < 1e-12]
    x = near_real.real
    poles = near_real[(x <= 1e-12) & (np.abs(x - np.round(x)) < 1e-12)]
    if poles.size:
        raise PoleError(f"log_gamma pole at z = {poles[0]}")
    return _scipy_loggamma(z)


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


def _head_series(x, q: complex, a_max: float = 1.0):
    """The head and the series of (x; q)_inf for a flat array x whose finite
    elements have |x| <= max(a_max, 1):

        (x; q)_inf = prod(blocks) * exp(-S),

    where `blocks` yields the products of the head (x; q)_J, at most
    _LOG_BLOCK consecutive factors each, and S = sum_{k=1}^{N} y^k /
    (k (1 - q^k)) on y = x q^J is Euler's series for -log (y; q)_inf
    (Gasper and Rahman, Basic Hypergeometric Series, section 1.3).

    With T = -log _PRODUCT_TAIL_TOL (36.8), L = -log|q| and
    h = ceil(sqrt(T / L)), the head has J = h + max(0, ceil(log a_max / L))
    factors, so that |y| <= |q|^h, and the series keeps N = ceil(T / (h L))
    terms, so that |y|^N <= |q|^{hN} <= 1e-16.  Head plus series cost about
    h + T / (h L) operations, least at this h: 3 + 3 at |q| = 0.003,
    6 + 6 at q = 0.35 and 61 + 61 at q = 0.99, against about 8, 40 and
    3,700 factors of a direct product.  Since |1 - q^k| >= 1 - |q|^k, the
    terms the series drops add up to at most
    |y|^{N+1} / ((N+1) (1 - |q|^{N+1}) (1 - |y|)) < 1e-16 |y| / (1 - |y|).
    The series is summed by Horner's rule.  For real q the powers q^k stay
    real and 1 - q^k is formed without cancellation as q^k -> 1.  For
    complex q the n = max(J, N) + 1 powers come as exp(k log q), with
    1 - q^k = -expm1(k log q), where n |log q| < 2 log2(n), that is near
    q = 1, and by doubling elsewhere: at q = 0.99637 + 0.00195i the first
    gives a relative error of 2e-14 where doubling gives 1.3e-12.  For
    Re q < 0 the same test and route apply to p = -q, which is near 1
    where q is near -1: q^k = (-1)^k exp(k log p), 1 - q^k =
    -expm1(k log p) for even k and 1 + p^k, near 2, for odd k.  At
    q = -0.99871 + 1.2e-16i, a = e^i, doubling gave (a; q)_inf and its log
    to 2.7e-12 and this route gives 6e-14; at q = -0.99867, exp(k log q)
    gave 7.8e-12.  An element's value depends on J and q only, as long
    as x has two or more elements: numpy reduces the
    leading axis of a (rows, n) array row by row for n >= 2, but not for
    n = 1.  The powers and coefficients depend on q and J alone
    (:func:`_nome_table`), so a call that repeats a nome pays only the
    head and the series.  Raises ConvergenceError when J + N would exceed
    _MAX_FACTORS (L below about 4e-9, or a_max beyond |q|^{-200,000}).
    """
    L = -math.log(abs(q))
    J = _least_head(L) + (math.ceil(math.log(a_max) / L) if a_max > 1 else 0)
    # a long head builds its table for the call alone, so that the cache
    # holds short tables only (near q = 1 one table takes megabytes)
    table = _nome_table if J <= _MAX_CACHED_HEAD else _nome_table.__wrapped__
    powers, coef = table(q, J)

    def blocks():   # lazily: one block's factors in memory at a time
        for start in range(0, J, _LOG_BLOCK):
            factors = np.multiply.outer(
                powers[start:min(start + _LOG_BLOCK, J)], x)
            np.subtract(1.0, factors, out=factors)
            yield np.multiply.reduce(factors, axis=0)

    y = x * powers[J]
    series = coef[0] * y
    for c in coef[1:]:
        series += c
        series *= y
    return blocks(), series


def _least_head(L: float) -> int:
    """h = ceil(sqrt(T / L)), L = -log|q|: the head length at which head
    and series cost least (:func:`_head_series`)."""
    return math.ceil(math.sqrt(_TAIL_LOG / L))


@functools.lru_cache(maxsize=64)
def _nome_table(q: complex, J: int):
    """The parts of :func:`_head_series` that depend on the nome q and the
    head length J alone: the powers q^0 .. q^max(J, N) as a read-only
    array, and the series coefficients 1 / (k (1 - q^k)), k = N .. 1, in
    Horner order as a tuple.  At the sizes the identities use, building
    them costs about 25 small numpy operations, more than the head and
    the series themselves, so one bounded cache keeps the tables of the
    last 64 (q, J) pairs: a hyperbolic point uses two nomes, an index
    point one nome with a few head lengths.  The values do not depend on
    the cache: a table is the same whether built or reused."""
    L = -math.log(abs(q))
    n_terms = math.ceil(_TAIL_LOG / (_least_head(L) * L))
    if J + n_terms > _MAX_FACTORS:
        raise ConvergenceError(
            f"(a;q)_inf needs {J} factors and {n_terms} series terms at "
            f"|q| = {abs(q)}: more than {_MAX_FACTORS}")
    # q^0 .. q^max(J, N): N can exceed h by one through rounding
    n = max(J, n_terms) + 1
    log_q = cmath.log(q)
    # complex q: exp(k log q) carries k |log q| times the rounding of
    # log q, doubling about 2 log2(k) roundings; take the smaller bound.
    # Near q = -1 the same holds for p = -q, with q^k = (-1)^k p^k
    flip = q.imag != 0 and q.real < 0
    log_p = cmath.log(-q) if flip else log_q
    by_exp = q.imag != 0 and n * abs(log_p) < 2 * math.log2(n)
    if q.imag == 0:
        powers = q.real ** np.arange(n)
    elif by_exp:
        powers = np.exp(np.arange(n) * log_p)
        if flip:
            powers[1::2] *= -1
    else:
        # by doubling, q^{m+r} = q^m q^r (r < m), which keeps 1 - q^k
        # accurate where q^k is near 1 far from q = 1 (q near -1 or
        # another root of unity)
        powers = np.ones(n, dtype=complex)
        m, q_m = 1, q
        while m < n:
            powers[m:2 * m] = powers[:min(m, n - m)] * q_m
            m, q_m = 2 * m, q_m * q_m

    # the series coefficients 1 / (k (1 - q^k)), k = 1..N
    k = np.arange(1, n_terms + 1)
    q_k = powers[1:n_terms + 1]
    one_minus = 1 - q_k
    if q.imag == 0:
        one_minus = np.where(q_k > 0, -np.expm1(-k * L), one_minus)
    elif by_exp:
        # 1 - p^k without cancellation; for odd k under flip 1 + p^k ~ 2
        one_minus = -np.expm1(k * log_p)
        if flip:
            one_minus[::2] = 1 - q_k[::2]
    coef = 1.0 / (k * one_minus)
    powers.flags.writeable = False
    return powers, tuple(coef[::-1].tolist())


@_flat_array_arg
def qpoch_inf(a, q):
    """The infinite q-Pochhammer symbol (a; q)_inf = prod_{k>=0} (1 - a q^k).

    `a` may be a scalar or a numpy array of any shape; `q` must satisfy
    |q| < 1.  A direct head of J = h + max(0, ceil(log|a|_max / |log q|))
    factors, then Euler's series on y = a q^J, which leaves log space
    through one exp (_head_series derives h, the series length and the
    remainder bound).  One head length per call: |a|_max is the largest
    finite |a| in the call, so that no element needs a mask, and an
    element's value can differ in its last bits between a batched call and
    a call of its own.  A non-finite element gives nan and takes no part in
    J.  An exact zero factor (a = q^{-k}) gives an exact zero, and
    (a; 0)_inf = 1 - a exactly.  Raises ConvergenceError when the head and
    series would exceed _MAX_FACTORS.
    """
    qv = _check_nome(q)
    if qv == 0:
        return 1.0 - a
    finite = np.isfinite(a)
    if not finite.all():
        a = np.where(finite, a, 0)
    blocks, series = _head_series(a, qv, float(np.abs(a).max(initial=0.0)))
    out = math.prod(blocks) * np.exp(-series)
    if not finite.all():
        out[~finite] = complex(np.nan, np.nan)
    return out


@_flat_array_arg
def log_qpoch_inf(a, q):
    """log (a; q)_inf modulo 2 pi i (array-capable in `a`): not a sum of
    principal logs, so callers exponentiate.

    No factor 1 - x with |x| > 1 is formed.  Per element, let j be the
    number of factors with |a q^k| >= 1 and c = a q^j.  Each of those j
    factors is split as 1 - x = -x (1 - 1/x), and 1/(a q^k) = q^{j-k}/c
    runs through q/c, ..., q^j/c as k runs down from j - 1 to 0, so

        (a; q)_inf = (-a)^j q^{j(j-1)/2} (c; q)_inf
                     (q/c; q)_inf / (q^{j+1}/c; q)_inf,

    with |c| < 1, |q/c| <= 1 and |q^{j+1}/c| <= |q|^j (summed over k, the
    split is the quasi-periodicity of (a; q)_inf; Faddeev and Kashaev,
    Quantum dilogarithm, 1994).  Where j = 0 the last two products are 1
    and are not formed: on the hyperbolic integrand about half the
    elements have j = 0.  The monomial is closed form in log space,
    j (log a + i pi) + j (j-1)/2 log q, with its real and imaginary parts
    added separately, and the products go through _head_series in one
    stacked call at its shortest head, whatever |a| is.  Their blocks are
    combined as b_c b_{q/c} / b_{q^{j+1}/c} before one log per block
    (finite up to |q| = 0.9999995 for a within 1e-12 of a zero), and their
    series as +, +, -.  The block log is taken in real arithmetic
    (_complex_log), at about a third of the cost of numpy's complex log
    and as accurate: most block ratios lie near 1 (median |log| 7e-3 on
    the hyperbolic numerators, 0.1 on the denominators), where its log1p
    form keeps the relative accuracy of log|z|, which log(hypot) loses
    (over 3 x 1,216 hyperbolic points, the median relative residual
    5.8e-16 and the worst 1.96e-15 would become 6.0e-16 and 2.4e-15).
    The head length depends on q alone and the stacked call has at least
    two elements, so an element's value does not depend on the array it
    comes in.  The monomial's rounding error grows like j^2 |log q| ulp,
    the same order as a sum of j principal logs.  An exact zero factor
    (a = q^{-k}) sends the result to -inf, and (a; 0)_inf = 1 - a
    exactly.
    """
    qv = _check_nome(q)
    if qv == 0:
        return np.log(1.0 - a)
    log_q = cmath.log(qv)
    # a = 0 gives log|a| = -inf and j = -inf: nothing to split; a zero
    # factor gives log(0) = -inf, which exponentiates to an exact zero
    with np.errstate(divide="ignore", invalid="ignore"):
        log_abs = np.log(np.abs(a))
        j = np.floor(log_abs / -log_q.real) + 1
        # only elements with factors to split (j >= 1) take the two further
        # products and the monomial; elsewhere both products are 1
        split = np.flatnonzero(j > 0)
        j = j[split]
        a_split = a[split]
        q_j = qv**j
        c = a.copy()
        c[split] = a_split * q_j
        # q/c as 1/(a q^{j-1}), exactly 1 where a q^{j-1} is
        inv = 1.0 / (a_split * qv ** (j - 1))
        x = np.concatenate([c, inv, inv * q_j])
        n, m = a.size, split.size
        # two elements or more, so that the head is reduced row by row
        blocks, series = _head_series(np.append(x, 0) if x.size == 1 else x,
                                      qv)
        # (c; q) (q/c; q) / (q^{j+1}/c; q), block by block
        out = 0
        for block in blocks:
            z = block[:n]
            z[split] = z[split] * block[n:n + m] / block[n + m:n + 2 * m]
            out += _complex_log(z)
        s = series[:n]
        s[split] = s[split] + series[n:n + m] - series[n + m:n + 2 * m]
        out -= s
        # the monomial j (log|a| + i (arg a + pi)) + j (j-1)/2 log q, part
        # by part; log|a| >= 0 where j >= 1
        half = j * (j - 1) / 2
        mono = out[split]
        mono.real += j * log_abs[split]
        mono.imag += j * (np.angle(a_split) + np.pi)
        mono.real += half * log_q.real
        mono.imag += half * log_q.imag
        out[split] = mono
    return out


def _complex_log(z):
    """Principal log z of a complex array in real arithmetic, log|z| +
    i arctan2(Im z, Re z), at about a third of the cost of numpy's complex
    log.  Where |z|^2 is within 1/2 of 1, log|z| is
    log1p((m - 1)(m + 1) + n^2) / 2 with m = max(|x|, |y|) and
    n = min(|x|, |y|), as in CPython's cmath.log: m - 1 is exact, so a log
    of 1e-12 keeps its relative accuracy, where log(hypot(x, y)) has an
    absolute error of an ulp of 1.  Elsewhere log|z| is log(hypot(x, y)).
    z = 0 gives -inf + 0j (the caller silences the warning) and nan gives
    nan."""
    x, y = z.real, z.imag
    ax, ay = np.abs(x), np.abs(y)
    m, n = np.fmax(ax, ay), np.fmin(ax, ay)
    d = (m - 1) * (m + 1) + n * n
    out = np.empty_like(z)
    out.real = np.where(np.abs(d) < 0.5, 0.5 * np.log1p(d),
                        np.log(np.hypot(x, y)))
    out.imag = np.arctan2(y, x)
    return out


def qpoch_ratio_regularized(alpha, beta, q):
    """(q^alpha; q)_inf / (q^beta; q)_inf * (1-q)^(alpha-beta), in log-space.

    As q -> 1 this tends to Gamma(beta)/Gamma(alpha); the regulator keeps the
    evaluation finite on the way.  Principal branches for q^alpha, q^beta
    and (1-q)^(alpha-beta); the Pochhammer logs are taken modulo 2 pi i,
    which the final exp removes.
    """
    qv = complex(q)
    a = complex(alpha)
    b = complex(beta)
    lq = np.log(qv)
    log_num, log_den = log_qpoch_inf(np.exp(np.array([a, b]) * lq), qv)
    if not np.isfinite(log_den):
        raise PoleError(f"(q^beta;q)_inf vanished for beta = {beta}")
    return complex(np.exp(log_num - log_den + (a - b) * np.log(1.0 - qv)))


# ---------------------------------------------------------------------------
# Bernoulli polynomial and hyperbolic gamma
# ---------------------------------------------------------------------------

@_flat_array_arg
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
    # Horner's rule, u (u / (w1 w2) - (1/w1 + 1/w2)) + const, with the
    # coefficients formed once on scalars: four array operations where the
    # expanded form takes seven
    return (u * (u * (1 / (w1 * w2)) - (1 / w1 + 1 / w2))
            + (w1 / (6 * w2) + w2 / (6 * w1) + 0.5))


@_flat_array_arg
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
    (log_qpoch_inf takes a head length h and term count N that depend on
    the nome only), so one call on a stacked array returns exactly the
    values of separate calls, and callers batch.  The result is a log
    modulo 2 pi i; callers exponentiate.  Raises ConvergenceError when
    either nome modulus exceeds 1 - EPS_MODULAR (near-degenerate pair) or
    when the numerator argument
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
    b22 = bernoulli_b22(u, omega)
    with np.errstate(over="ignore", invalid="ignore"):
        num_arg = np.exp(2j * np.pi * u / omega.omega1) * qd
        den_arg = np.exp(2j * np.pi * u / omega.omega2)
    if not np.isfinite(num_arg).all():
        raise ConvergenceError(
            f"dual nome |q~| = {abs(qd):.3g}: exp(2 pi i u / omega1) q~ "
            "is not finite in double precision")
    if not np.isfinite(den_arg).all():
        raise ConvergenceError(
            "exp(2 pi i u / omega2) is not finite in double precision")
    log_num = log_qpoch_inf(num_arg, qd)
    log_den = log_qpoch_inf(den_arg, qv)
    if not np.isfinite(log_den).all():
        raise PoleError("hyperbolic gamma pole: denominator factor vanished")
    if not np.isfinite(log_num).all():
        raise PoleError("hyperbolic gamma zero: numerator factor vanished")
    return -1j * np.pi * b22 / 2 + log_num - log_den


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
