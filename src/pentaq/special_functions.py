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

# (a; q)_inf keeps its factors while |a q^k| >= _PRODUCT_TAIL_TOL, and at
# most _MAX_FACTORS of them: below 1.1e-16 a factor 1 - a q^k rounds to 1.
_PRODUCT_TAIL_TOL = 1e-16
_MAX_FACTORS = 200_000


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

def _qpoch_plan(a, q) -> tuple:
    """(q, a, K) for (a; q)_inf: q as a complex with |q| < 1, `a` as a
    complex array, and the number of factors K so that
    |a q^K| < _PRODUCT_TAIL_TOL, capped at _MAX_FACTORS (one factor, 1 - a,
    when a or q vanishes)."""
    qv = complex(q)
    if abs(qv) >= 1:
        raise ValueError(f"(a;q)_inf requires |q| < 1, got |q| = {abs(qv)}")
    arr = np.asarray(a, dtype=complex)
    a_max = float(np.max(np.abs(arr))) if arr.size else 0.0
    if a_max == 0 or qv == 0:
        return qv, arr, 1
    target = _PRODUCT_TAIL_TOL / max(a_max, _PRODUCT_TAIL_TOL)
    if target >= 1.0:
        k = 1
    else:
        k = int(math.ceil(math.log(target) / math.log(abs(qv)))) + 1
    return qv, arr, min(max(k, 1), _MAX_FACTORS)


def qpoch_inf(a, q):
    """The infinite q-Pochhammer symbol (a; q)_inf = prod_{k>=0} (1 - a q^k).

    `a` may be a scalar or a numpy array; `q` must satisfy |q| < 1.  The
    product is truncated once |a q^k| drops below ``_PRODUCT_TAIL_TOL``
    (1e-16), after at most ``_MAX_FACTORS`` (200,000) factors, and a
    first-order multiplicative tail bound exp(-a q^K / (1-q)) is
    applied, which is sharp for geometrically decaying factors.
    """
    qv, arr, K = _qpoch_plan(a, q)
    powers = qv ** np.arange(K)
    out = np.prod(1.0 - arr[..., None] * powers, axis=-1)
    # first-order tail: sum_{k>=K} log(1 - a q^k) ~ -a q^K / (1 - q)
    out = out * np.exp(-arr * qv**K / (1.0 - qv))
    return complex(out) if arr.ndim == 0 else out


def log_qpoch_inf(a, q):
    """log (a; q)_inf as a sum of principal logs (array-capable in `a`).

    The factor logs are accumulated in blocks so that q -> 1 evaluations
    (tens of thousands of factors) stay within memory.
    """
    qv, arr, K = _qpoch_plan(a, q)
    out = np.zeros(arr.shape, dtype=complex)
    block = 4096
    # a vanishing factor (a = q^{-k}) legitimately sends the log to -inf,
    # which downstream exponentiation turns into an exact zero
    with np.errstate(divide="ignore"):
        for start in range(0, K, block):
            powers = qv ** np.arange(start, min(start + block, K))
            out = out + np.sum(np.log(1.0 - arr[..., None] * powers),
                               axis=-1)
    out = out - arr * qv**K / (1.0 - qv)
    return complex(out) if arr.ndim == 0 else out


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

    Array-capable in u.  Raises ConvergenceError when either nome modulus
    exceeds 1 - EPS_MODULAR (near-degenerate pair) or when the numerator
    argument exp(2*pi*i*u/omega1) * q~ leaves double range (a tiny dual
    nome against a large exponential), and PoleError when the denominator
    Pochhammer factor vanishes within tolerance.
    """
    qv = omega.q
    qd = omega.q_dual
    if abs(qv) > 1 - EPS_MODULAR or abs(qd) > 1 - EPS_MODULAR:
        raise ConvergenceError(
            "near-degenerate quasi-period pair: "
            f"|q| = {abs(qv):.6f}, |q~| = {abs(qd):.6f} exceed {1 - EPS_MODULAR}"
        )
    u = np.asarray(u, dtype=complex)
    b22 = bernoulli_b22(u, omega)
    with np.errstate(over="ignore", invalid="ignore"):
        num_arg = np.exp(2j * np.pi * u / omega.omega1) * qd
    if not np.all(np.isfinite(num_arg)):
        raise ConvergenceError(
            f"dual nome |q~| = {abs(qd):.3g}: exp(2 pi i u / omega1) q~ "
            "is not finite in double precision")
    log_num = log_qpoch_inf(num_arg, qd)
    log_den = log_qpoch_inf(np.exp(2j * np.pi * u / omega.omega2), qv)
    if not np.all(np.isfinite(log_den)):
        raise PoleError("hyperbolic gamma pole: denominator factor vanished")
    if not np.all(np.isfinite(log_num)):
        raise PoleError("hyperbolic gamma zero: numerator factor vanished")
    out = -1j * np.pi * np.asarray(b22, dtype=complex) / 2 + log_num - log_den
    return complex(out) if out.ndim == 0 else out


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
