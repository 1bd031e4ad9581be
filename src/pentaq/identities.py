"""LHS/RHS evaluators and residual verification for the pentagon identities,
plus the two gamma-function limit studies, which pass by one rule, ``_gate``.

Conventions
-----------
The index, gamma and beta evaluators and verifiers accept
``convention="resolved"`` (default) or ``convention="printed"``; the
operator, classical and hyperbolic verifiers and the gamma product-side
equivalence check have a single form and take none.  The printed forms of
the index and gamma sum-integral identities are off by sign factors: the
resolved forms insert an alternating weight (-1)^m into the integer sum and
a global (-1)^{n_3} on the product side, and with those signs the
identities hold to quadrature accuracy at every balanced parameter point,
for all zero-sum spins.  The printed forms (no signs) exhibit a
parameter-dependent deficit at the percent level; verifying them is
supported so that the discrepancy can be reproduced and reported.  The
printed Euler-beta form differs from the resolved one (Barnes' second
lemma) by the reflection factor pi / sin pi(b_3 - s) inside the integral
and fails at every sampled point.

The gamma sum-integral is evaluated with the SPHERE kernel, the product of
the two reflected gamma blocks.  Multiplying in the third,
(u, m)-independent reflection ratio would only scale the whole side by the
diagonal reflection factor T of :func:`gamma_reflection_factor`, which the
gamma reports carry as ``reflection_factor``.  The two printed product sides
(nine-factor form and two-kernel form) are related by that same factor T
when all spins vanish; with nonzero spins only the two-kernel form matches
the sum-integral.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, partial

import numpy as np

from .integrators import (
    DEFAULT_POLICY,
    QuadratureResult,
    Tail,
    TermGrid,
    TruncationPolicy,
    integrate_real_line,
    integrate_unit_circle,
)
from .kernels import (
    BetaParams,
    GammaParams,
    HyperbolicParams,
    IndexParams,
    b_beta,
    b_gamma_disc,
    b_idx,
)
from .special_functions import (
    ConvergenceError,
    ModularPair,
    gamma as gamma_fn,
    log_gamma,
    log_hyperbolic_gamma,
    qpoch_inf,
    qpoch_ratio_regularized,
    rogers_L,
)

__all__ = [
    "IdentityId",
    "VerificationReport",
    "LimitStudyResult",
    "DEFAULT_TARGETS",
    "verify_operator_pentagon",
    "verify_classical_pentagon",
    "eval_hyperbolic_lhs",
    "eval_hyperbolic_rhs",
    "verify_pentagon_hyperbolic",
    "eval_index_lhs",
    "eval_index_rhs",
    "verify_pentagon_index",
    "eval_gamma_lhs",
    "eval_gamma_rhs",
    "gamma_reflection_factor",
    "verify_pentagon_gamma",
    "equivalence_check_gamma_rhs",
    "eval_beta_lhs",
    "eval_beta_rhs",
    "verify_pentagon_beta",
    "limit_study_q_to_1",
    "limit_study_omega",
]


class IdentityId(Enum):
    OPERATOR = "operator"
    CLASSICAL = "classical"
    HYPERBOLIC = "hyperbolic"
    INDEX = "index"
    GAMMA_SUM_INTEGRAL = "gamma"
    BETA_INTEGRAL = "beta"
    EQUIVALENCE = "equivalence"
    LIMIT_Q_TO_1 = "limit-q"
    LIMIT_OMEGA = "limit-omega"


# Default residual targets per identity (resolved conventions).
DEFAULT_TARGETS = {
    IdentityId.OPERATOR: 0.0,
    IdentityId.CLASSICAL: 1e-12,
    IdentityId.HYPERBOLIC: 1e-8,
    IdentityId.INDEX: 1e-7,
    IdentityId.GAMMA_SUM_INTEGRAL: 1e-6,
    IdentityId.BETA_INTEGRAL: 1e-8,
    IdentityId.EQUIVALENCE: 1e-10,
}

_RESIDUAL_FLOOR = 1e-300

# The nomes of the q -> 1 study and its contour probes z = q^{i u}, and the
# grid of the omega2 -> infinity study: points z, radii T and the phase of
# the ray omega2 = T e^{-i phase}.
Q_TO_1_SEQUENCE = (0.9, 0.95, 0.99)
Q_TO_1_U_PROBES = (0.1, 0.35)
OMEGA_Z_VALUES = (0.17, 0.3, 0.42)
OMEGA_T_SEQUENCE = (5.0, 10.0, 20.0)
OMEGA_PHASE = math.pi / 4
# The power A of the map u = delta sinh(A asinh t) of every gamma m-term
# (_pole_strip_map, eval_gamma_lhs): far out u grows like t^A.
_GAMMA_MAP_POWER = 4
# The parameter c of the circle map z = (w + c)/(1 + c w) of every index
# m-term, which clusters the nodes at z = 1 (_cluster_at_one,
# eval_index_lhs).
_INDEX_CLUSTER = 0.7


@dataclass(frozen=True)
class VerificationReport:
    """One identity verified at one parameter point.  It passes when the
    engine behind the LHS converged, the relative residual is within
    ``target`` and the engine's error estimate within ``target * |rhs|``;
    the record carries those engine fields in ``truncation_diagnostics``."""

    identity_id: IdentityId
    parameters: dict
    lhs: complex
    rhs: complex
    abs_residual: float
    rel_residual: float
    target: float
    rhs_alternate: complex | None = None
    constant_fit: float | None = None
    truncation_diagnostics: dict = field(default_factory=dict)
    wall_time: float = 0.0
    notes: str = ""
    converged: bool = True
    abs_error_estimate: float = 0.0

    @property
    def passed(self) -> bool:
        return (self.converged and self.rel_residual <= self.target
                and self.abs_error_estimate
                <= self.target * abs(complex(self.rhs)))

    def to_record(self) -> dict:
        rec = {
            "identity_id": self.identity_id.value,
            "parameters": self.parameters,
            "lhs": [complex(self.lhs).real, complex(self.lhs).imag],
            "rhs": [complex(self.rhs).real, complex(self.rhs).imag],
            "abs_residual": self.abs_residual,
            "rel_residual": self.rel_residual,
            "target": self.target,
            "passed": self.passed,
            "constant_fit": self.constant_fit,
            "truncation_diagnostics": self.truncation_diagnostics,
            "wall_time": self.wall_time,
            "notes": self.notes,
        }
        if self.rhs_alternate is not None:
            rec["rhs_alternate"] = [complex(self.rhs_alternate).real,
                                    complex(self.rhs_alternate).imag]
        return rec


def _make_report(identity_id: IdentityId, parameters: dict, lhs: complex,
                 rhs: complex, started: float,
                 engine: QuadratureResult | None = None,
                 **extra) -> VerificationReport:
    # Python floats: a numpy bool_ in ``passed`` would not serialize to JSON
    abs_res = float(abs(lhs - rhs))
    rel_res = float(abs_res / max(abs(lhs), abs(rhs), _RESIDUAL_FLOOR))
    if engine is not None:
        extra.update(constant_fit=float((lhs / rhs).real),
                     converged=engine.converged,
                     abs_error_estimate=engine.abs_error_estimate)
    return VerificationReport(
        identity_id=identity_id,
        parameters=parameters,
        lhs=lhs,
        rhs=rhs,
        abs_residual=abs_res,
        rel_residual=rel_res,
        target=DEFAULT_TARGETS[identity_id],
        wall_time=time.perf_counter() - started,
        **extra,
    )


# ---------------------------------------------------------------------------
# operator and classical pentagons
# ---------------------------------------------------------------------------

def verify_operator_pentagon(max_degree: int, q) -> VerificationReport:
    """Exact operator pentagon check wrapped into a report.

    The residual is the maximum coefficient magnitude of the truncated
    difference l(y) l(x) - l(x) l(-xy) l(y); it is expected to be exactly
    zero in rational arithmetic.  The exact series module, and the
    ``fractions`` module it needs, are imported here, so that importing
    this module for the numerical identities does not compile them.
    """
    from .weyl_series import check_operator_pentagon

    started = time.perf_counter()
    q, max_residual = check_operator_pentagon(max_degree, q)
    return _make_report(
        IdentityId.OPERATOR,
        {"identity": "operator", "q": str(q), "max_degree": max_degree},
        complex(max_residual), 0j, started,
        notes="max |coefficient| of LHS - RHS in exact arithmetic",
    )


def verify_classical_pentagon(x: float, y: float) -> VerificationReport:
    """Five-term relation for the Rogers dilogarithm at (x, y) in (0,1)^2."""
    if not (0 < x < 1 and 0 < y < 1):
        raise ValueError(f"(x, y) must lie in (0,1)^2, got ({x}, {y})")
    started = time.perf_counter()
    lhs = rogers_L(x) + rogers_L(y) - rogers_L(x * y)
    rhs = (rogers_L((x - x * y) / (1 - x * y))
           + rogers_L((y - x * y) / (1 - x * y)))
    return _make_report(
        IdentityId.CLASSICAL, {"identity": "classical", "x": x, "y": y},
        complex(lhs), complex(rhs), started,
    )


# ---------------------------------------------------------------------------
# hyperbolic pentagon
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _hyperbolic_scalars(p: HyperbolicParams) -> np.ndarray:
    """The logs of the nine hyperbolic gammas of a point that do not depend
    on u, from one log_hyperbolic_gamma call: the centre's three
    gamma^(2)(a_i + b_i), then the product side's x_1, x_2, y_1, y_2,
    x_1 + y_1 and x_2 + y_2, with x = (a_1 + b_2, a_2 + b_1) and
    y = (a_3 + b_1, a_3 + b_2).  At this size the call costs its fixed
    overhead, not its values, so the two sides share one: the first side
    evaluated makes it, and the other reads the cached result.
    verify_pentagon_hyperbolic clears the cache before its two sides, so
    that every verification makes exactly one call."""
    a, b = p.a, p.b
    x = [a[0] + b[1], a[1] + b[0]]
    y = [a[2] + b[0], a[2] + b[1]]
    args = np.array([a[0] + b[0], a[1] + b[1], a[2] + b[2], *x, *y,
                     x[0] + y[0], x[1] + y[1]])
    logs = log_hyperbolic_gamma(args, p.omega)
    logs.flags.writeable = False
    return logs


def _hyperbolic_integrand(p: HyperbolicParams, center: complex):
    """Vectorized integrand of the hyperbolic identity along u = i t;
    ``center`` is the log of the product of gamma^(2)(a_i + b_i)."""
    om = p.omega
    measure = 1.0 / np.sqrt(om.omega1 * om.omega2)
    a = np.asarray(p.a, dtype=complex)
    b = np.asarray(p.b, dtype=complex)
    # the six kernels a_0 + u, b_0 - u, a_1 + u, ... as rows of one call
    shift = np.stack([a, b], axis=1).reshape(6, 1)
    sign = np.tile([1.0, -1.0], 3).reshape(6, 1)

    def f(t):
        t = np.asarray(t, dtype=float)
        rows = log_hyperbolic_gamma(shift + sign * (1j * t.reshape(1, -1)),
                                    om).reshape((6,) + t.shape)
        return np.exp(sum(rows, -center)) * measure

    return f


def eval_hyperbolic_lhs(p: HyperbolicParams,
                        policy: TruncationPolicy = DEFAULT_POLICY,
                        ) -> QuadratureResult:
    """Contour integral of the three-kernel product along u = i t, t real,
    with measure dt / sqrt(omega1 omega2), over |t| <= 160 / kappa,
    kappa = 2 pi Re(1/omega1 + 1/omega2).

    The window follows from the decay of the integrand.  As t -> +-inf each
    gamma^(2) factor tends to exp(-+ i pi B22 / 2) (van de Bult, *Hyperbolic
    hypergeometric functions*, 2007), with the sign flipped between
    a_i + u and b_i - u, which run off in opposite directions.  With
    B22(z) = z^2/(omega1 omega2) - z s + const, s = 1/omega1 + 1/omega2,

        B22(a + u) - B22(b - u) = (a + b)(a - b + 2u)/(omega1 omega2)
                                  - (a - b + 2u) s,

    so the u^2 terms cancel in each pair, and balancing,
    sum (a_i + b_i) = omega1 + omega2 = omega1 omega2 s, leaves the linear
    term 2u s - 6u s = -4u s over the three pairs.  At u = i t the integrand
    is therefore C exp(-kappa |t|) far out, and the window edge t = 160/kappa
    lies at e^{-160} of that envelope.  Over 20 seeds each,
    log|f(t)/f(0)| + kappa |t| on the outer half of the window lies in
    [-2.5, -0.3] at omega1 = 0.4 + 0.9i, 0.3 + 0.7i, 0.6 + 1.3i with
    omega2 = 1, 1.1, 0.9 (kappa 8.8-9.0, window 18), and it rises to +36
    at omega1 = 0.015(1 + i), omega2 = 1; so the edge values stay below
    e^{-124} |f(0)|.  HyperbolicParams admits only kappa > 0, where the
    integral converges, and owns it as ``p.kappa``.  Beyond the window the
    exponentials of the integrand may overflow, so the nodes stay inside it.

    The centre's three hyperbolic gammas come from the point's one scalar
    call (:func:`_hyperbolic_scalars`), shared with the product side.
    """
    center = sum(_hyperbolic_scalars(p)[:3])
    return integrate_real_line(_hyperbolic_integrand(p, center), policy,
                               u_max=160 / p.kappa)


def eval_hyperbolic_rhs(p: HyperbolicParams) -> complex:
    """Two-kernel product side of the hyperbolic identity,
    B(x_1, y_1) B(x_2, y_2) with B(x, y) = gamma^(2)(x) gamma^(2)(y) /
    gamma^(2)(x + y) as in :func:`pentaq.kernels.b_hyp`, from the point's
    one scalar call (:func:`_hyperbolic_scalars`), shared with the
    integral side."""
    lx, ly, lxy = _hyperbolic_scalars(p)[3:].reshape(3, 2)
    k1, k2 = np.exp(lx + ly - lxy)
    return complex(k1 * k2)


def verify_pentagon_hyperbolic(p: HyperbolicParams,
                               policy: TruncationPolicy = DEFAULT_POLICY,
                               ) -> VerificationReport:
    started = time.perf_counter()
    _hyperbolic_scalars.cache_clear()
    lhs_result = eval_hyperbolic_lhs(p, policy)
    rhs = eval_hyperbolic_rhs(p)
    return _make_report(
        IdentityId.HYPERBOLIC, p.to_record(), lhs_result.value, rhs, started,
        engine=lhs_result,
        truncation_diagnostics={"integral": lhs_result.to_record()},
    )


# ---------------------------------------------------------------------------
# index pentagon
# ---------------------------------------------------------------------------

def _index_denominator(den, q: float):
    """``den``, a product of the index LHS's denominator Pochhammer
    symbols, refused by ConvergenceError where it is 0.  No pole lies on
    the contour, so a 0 is an underflow, which would make the term 0/0:
    at q = 0.99 each of the six factors is about e^{-160} where |x| is
    near 1."""
    if not np.all(den):
        raise ConvergenceError(
            f"index Pochhammer denominator underflows to 0 at q = {q}")
    return den


def _index_prefactor(p: IndexParams) -> float:
    """The m-independent Pochhammer ratio of every index m-term,
    prod_i (q^{T_i} a_i b_i; q)_inf / (q^{1+T_i} / (a_i b_i); q)_inf with
    T_i = (n_i + m_i)/2, from one qpoch_inf call on its six arguments."""
    q, a, b = p.q, np.array(p.a), np.array(p.b)
    tot = (np.array(p.n) + np.array(p.m)) / 2
    pref = qpoch_inf(np.concatenate([q**tot * a * b, q ** (1 + tot) / (a * b)]),
                     q)
    return np.prod(pref[:3]) / _index_denominator(np.prod(pref[3:]), q)


def _index_term_integrand(p: IndexParams, m_sum: int, signed: bool,
                          prefactor: float):
    """Integrand on the unit circle for one term of the integer sum.

    The monomial factors of the three kernels combine into the single-valued
    power z^{-3 m} once the balancing conditions are used, so the integrand
    below is analytic in an annulus around |z| = 1: the apparent poles of the
    denominator Pochhammer factors with shifted first arguments are cancelled
    by matching numerator zeros whenever the shift is negative, and the
    surviving genuine poles stay strictly off the circle because every stored
    exponent is positive.

    Each engine call's points (levels 0 and 1 together on the first) take
    one qpoch_inf call on a (12, n) array: rows 0-5 are the numerator
    arguments q^{1+k_i/2} / (a_i z) and q^{1+l_i/2} z / b_i, rows 6-11 the
    denominator arguments q^{k_i/2} a_i z and q^{l_i/2} b_i / z
    (k_i = n_i + m, l_i = m_i - m), and the integrand is the scalar
    prefactor times z^{-3m} prod(num rows) / prod(den rows), with the rows
    multiplied one at a time, so that a node's value does not depend on the
    other nodes of its call.  The Pochhammer ratio of the prefactor,
    :func:`_index_prefactor`, does not depend on m; eval_index_lhs forms
    it once and passes it to both direct terms.
    """
    q, a, b = p.q, np.array(p.a), np.array(p.b)
    n, m = np.array(p.n), np.array(p.m)
    e_n = (n + m_sum) / 2
    e_m = (m - m_sum) / 2
    weight = (-1.0) ** m_sum if signed else 1.0
    scalar = weight * prefactor * np.prod(a**e_m * b**e_n)
    # the twelve arguments are these coefficients times 1/z or z
    coef = np.concatenate([q ** (1 + e_n) / a, q ** (1 + e_m) / b,
                           q**e_n * a, q**e_m * b])[:, None]
    by_z = np.array([False] * 3 + [True] * 6 + [False] * 3)[:, None]

    def f(z):
        z = np.asarray(z, dtype=complex)
        vals = qpoch_inf(coef * np.where(by_z, z, 1 / z), q)
        # row by row, as np.prod does on two or more nodes but not on one
        return (scalar * z ** (-3 * m_sum) * math.prod(vals[:6])
                / _index_denominator(math.prod(vals[6:]), q))

    return f


def _index_step(p: IndexParams):
    """The step (ms, z) -> term m + 2 over term m at the nodes z, for each m
    of the array ``ms`` (see eval_index_lhs): a (K, n) array for K values
    of m and n nodes, from one broadcast over (K, 6, n).  The parameter
    arrays are built once.

    B_i and C_i are q^{k_i/2} a_i z and q^{l_i/2} z / b_i; z^{-6} goes into
    the denominators as z (1 - A_i) = z - q^{1+k_i/2} / a_i and
    z (1 - D_i) = z - q^{l_i/2-1} b_i.  The step is the product of the six
    ratios (1 - B_i) / (z - z A_i) and (1 - C_i) / (z - z D_i).
    """
    q = p.q
    a, b = np.array(p.a), np.array(p.b)
    half_spins = np.concatenate([p.n, p.m]) / 2
    # k_i/2 = n_i/2 + m/2 and l_i/2 = m_i/2 - m/2
    shift = np.repeat([0.5, -0.5], 3)
    num = np.concatenate([a, 1 / b])
    den = np.concatenate([q / a, b / q])
    ratio = np.prod(b) / np.prod(a)

    def step(ms: np.ndarray, z: np.ndarray) -> np.ndarray:
        # q^{k_i/2}, q^{l_i/2}: one row of six per m
        powers = q ** (half_spins + shift * ms[:, None])
        return ratio * np.prod((1 - (powers * num)[..., None] * z)
                               / (z - (powers * den)[..., None]), axis=1)

    return step


def _cluster_at_one(w):
    """The nodes w of the unit circle mapped to z = (w + c)/(1 + c w),
    c = _INDEX_CLUSTER, and the weight (1 - c^2) w / ((1 + c w)(w + c)),
    which is w M'(w) / M(w) for that map M: the mean over w of f(M(w))
    times the weight is the contour average (1/2 pi i) oint f(z) dz / z.

    M maps the unit circle onto itself, fixes z = +-1 and commutes with
    conjugation, so the nodes with Im w >= 0 map to Im z >= 0 and a
    conjugate-symmetric integrand stays conjugate-symmetric.  It crowds
    the nodes at z = 1, where dz/dw = (1 - c)/(1 + c) = 0.18 at c = 0.7,
    and spreads them at z = -1, where dz/dw = (1 + c)/(1 - c) = 5.7.  A
    pole at log-distance delta from the circle near z = 1 lies about
    5.7 delta from it in w, so the trapezoid rule's error e^{-n delta}
    falls 5.7 times faster in n.  A pole near z = -1 moves in by the same
    factor.  On the means of 1/(1 - a z) and 1/(1 - a/z), whose poles lie
    near z = 1, the mapped rule took a quarter of the plain rule's nodes at
    a = 0.95-0.995; on 1/(1 + a z) and 1/(1 + a/z), with poles near
    z = -1, it took 4 times as many at a = 0.5-0.95 and 8 times at
    a = 0.98-0.995 (tests).  So only the index sum-integral, whose poles
    all lie on the positive real axis (eval_index_lhs), uses the map.
    """
    c = _INDEX_CLUSTER
    return (w + c) / (1 + c * w), (1 - c * c) * w / ((1 + c * w) * (w + c))


def eval_index_lhs(p: IndexParams, policy: TruncationPolicy = DEFAULT_POLICY,
                   convention: str = "resolved") -> QuadratureResult:
    """Sum over m of unit-circle integrals of the three-kernel product.

    ``convention="resolved"`` weights term m by (-1)^m; ``"printed"`` uses
    weight +1 and reproduces the deficit of the unsigned form.

    The terms share the nodes of each call of :func:`integrate_unit_circle`
    in a :class:`TermGrid`, which stores them: the terms m = 0 and m = 1
    are evaluated directly, and every other term is built from its
    neighbour m -+ 2 by a step.  From m to m + 2 each Pochhammer argument
    moves by one power of q, and (xq; q)_inf = (x; q)_inf / (1 - x), so the
    step multiplies the integrand by

        z^{-6} prod_i (b_i / a_i)
               * prod_i (1 - B_i)(1 - C_i) / ((1 - A_i)(1 - D_i)),

    with A_i = q^{1+k_i/2} / (a_i z), B_i = q^{k_i/2} a_i z,
    C_i = q^{l_i/2} z / b_i, D_i = q^{l_i/2-1} b_i / z, k_i = n_i + m and
    l_i = m_i - m, all taken at m.  Balancing makes prod_i b_i / a_i = 1
    only to the 1e-12 that IndexParams allows, so the step keeps it.  The
    Pochhammer products are thus computed for two terms only (see
    _index_term_integrand), and at large |m|, where their ratios overflow
    to inf/inf, the terms stay finite.  Their m-independent prefactor is
    computed once per LHS (:func:`_index_prefactor`).

    q, a_i = q^{s_i} and b_i = q^{t_i} are real (IndexParams keeps
    0 < q < 1 and real exponents) and the spins are integers, so every
    Pochhammer argument and every step factor at conj z is the conjugate
    of its value at z: each term satisfies f(conj z) = conj f(z).  So
    :func:`integrate_unit_circle` evaluates only the roots with Im z >= 0
    (the grid passes ``conjugate_symmetric=True``), and the sum is real.

    The same reality puts every pole of every term on the positive real
    axis: at z = q^{-k_i/2-j} / a_i outside the circle and
    z = q^{l_i/2+j} b_i inside it (j >= 0), where a denominator Pochhammer
    vanishes.  The nearest lie near z = q^{-s_i} and q^{t_i}, at a
    log-distance delta = min(s_i, t_i) |ln q| from the circle, 0.035-0.21
    over 2,000 sample_index points (median 0.074); the trapezoid rule on n
    roots of unity converges only like e^{-n delta} (Trefethen and
    Weideman, SIAM Rev. 2014).  So the terms are integrated
    over w on the unit circle with z = (w + c)/(1 + c w), c =
    _INDEX_CLUSTER = 0.7, and the weight of :func:`_cluster_at_one`, which
    the grid applies once per engine call for every term.  The map pushes
    the images of the poles near z = 1 out by (1 + c)/(1 - c) = 5.7 (a
    conformal map that moves the nodes toward the singularities, as in
    Hale and Trefethen, SIAM J. Numer. Anal. 2008).  The terms' other
    singularities, at z = 0 and z = infinity (z^{-3m} and the arguments
    in 1/z), move only to w = -c and w = -1/c, at log-distance ln(1/c) =
    0.36.  A larger c would bring those in.  At the spinning point
    s = (0.1, 0.15, 0.25), t = (0.2, 0.12, 0.18), n = (1, 0, -1),
    m = (0, 1, -1) with q = 0.98, and on 60 sample_index points (seed 777),
    the LHS took these evaluations:

        c                                        q = 0.98   sampled mean
        0 (the plain roots of unity)              201,728          5,713
        0.6                                       122,112          4,320
        0.65                                      117,120          4,279
        0.7                                       116,736          4,233
        0.75                                      112,896          5,122
        0.8                                       165,120          7,277
        (1 - sqrt(1 - r^2)) / r, r = q^min(s, t)  364,800          4,358

    The last row sets c per point (0.94 at the spinning point, 0.56-0.76
    on the sample).  c = 0.7 is within 4% of the best at q = 0.98 and the
    best on the sample.
    """
    signed = _check_convention(convention)
    return TermGrid(partial(_index_term_integrand, p, signed=signed,
                            prefactor=_index_prefactor(p)),
                    _index_step(p), _cluster_at_one).sum_of_integrals(
        integrate_unit_circle, Tail(alternating=not signed), policy)


def eval_index_rhs(p: IndexParams, form: str = "TWO_B") -> complex:
    """Product side of the index identity.

    ``form="TWO_B"``: the two-kernel product
    B(a1 b2, n1+m2; a3 b1, n3+m1) * B(a2 b1, n2+m1; a3 b2, n3+m2).
    ``form="NINE_FACTOR"``: the printed nine-ratio form with its explicit
    prefactor 2 / prod_i a_i^{m_i} b_i^{n_i}.
    """
    a, b, n, m, q = p.a, p.b, p.n, p.m, p.q
    if form == "TWO_B":
        return (b_idx(a[0] * b[1], n[0] + m[1], a[2] * b[0], n[2] + m[0], q)
                * b_idx(a[1] * b[0], n[1] + m[0], a[2] * b[1], n[2] + m[1], q))
    if form == "NINE_FACTOR":
        pref = 2.0
        for i in range(3):
            pref /= a[i] ** m[i] * b[i] ** n[i]
        # (i, j) runs over the nine ratios; one call on their 18 arguments
        ab = np.multiply.outer(a, b).ravel()
        e = np.add.outer(m, n).ravel() / 2
        vals = qpoch_inf(np.concatenate([q ** (1 + e) / ab, q**e * ab]), q)
        return complex(pref * np.prod(vals[:9]) / np.prod(vals[9:]))
    raise ValueError(f"unknown form {form!r}")


def verify_pentagon_index(p: IndexParams,
                          policy: TruncationPolicy = DEFAULT_POLICY,
                          convention: str = "resolved") -> VerificationReport:
    """Verify the index identity.

    Resolved form: sum_m (-1)^m (circle integral) = (-1)^{n_3} * TWO_B.
    The printed nine-ratio form is evaluated alongside and exposed through
    ``rhs_alternate`` so its empirical relation to the sum can be reported.
    """
    started = time.perf_counter()
    signed = _check_convention(convention)
    lhs_result = eval_index_lhs(p, policy, convention)
    two_b = eval_index_rhs(p, "TWO_B")
    nine = eval_index_rhs(p, "NINE_FACTOR")
    sign = (-1.0) ** p.n[2] if signed else 1.0
    rhs = sign * two_b
    return _make_report(
        IdentityId.INDEX, p.to_record(), lhs_result.value, rhs, started,
        engine=lhs_result,
        rhs_alternate=nine,
        truncation_diagnostics={
            "sum_integral": lhs_result.to_record(),
            "lhs_over_nine_factor": [
                (lhs_result.value / nine).real, (lhs_result.value / nine).imag],
        },
        notes=("resolved: alternating m-weight, product side carries "
               "(-1)^{n_3}" if signed else
               "printed: unsigned form, expected parameter-dependent deficit"),
    )


# ---------------------------------------------------------------------------
# gamma sum-integral pentagon
# ---------------------------------------------------------------------------

def _check_convention(convention: str) -> bool:
    if convention not in ("resolved", "printed"):
        raise ValueError(f"unknown convention {convention!r}")
    return convention == "resolved"


def gamma_reflection_factor(p: GammaParams) -> float:
    """The diagonal reflection factor

        T = prod_i Gamma(1 - alpha_i - beta_i + (n_i + m_i)/2)
                  / Gamma(alpha_i + beta_i + (n_i + m_i)/2).

    It relates the two product sides (TWO_B = T * NINE_FACTOR when all
    spins vanish), and multiplying it into the SPHERE kernel would scale the
    sum-integral side by exactly T.
    """
    alpha, beta = np.array(p.alpha), np.array(p.beta)
    shift = (np.array(p.n) + np.array(p.m)) / 2
    lg = log_gamma(np.array([1 - alpha - beta + shift, alpha + beta + shift]))
    return float(np.exp(sum(lg[0] - lg[1])).real)


def _gamma_term_integrand(p: GammaParams, m_sum: int, signed: bool):
    """Vectorized real-line integrand (SPHERE kernels) for one m-term.

    Each call takes one log_gamma call on a (12, n) array: rows 0-2 are
    a_i + k_i, rows 3-5 b_i + l_i, rows 6-8 1 - b_i + l_i and rows 9-11
    1 - a_i + k_i (a_i = alpha_i + i u, b_i = beta_i - i u,
    k_i = (n_i + m)/2, l_i = (m_i - m)/2), and the integrand is the weight
    times exp of the sum of rows 0-5 minus rows 6-11.  Row r and row r + 6
    both move by +i u, or both by -i u, so their logs grow alike,
    -pi |u| / 2 + i (u log|u| - u) up to a sign, and their difference is
    O(log|u|): the rows are subtracted in these pairs first, then the six
    differences added one at a time.  Summing the six numerator logs first
    adds logs of magnitude |u| log|u|: at u = -1.6e16 the rounding of such
    a sum (an ulp of 1e17 is 16) left the real part tens too large, the
    value e^{45} times too large.  The order still matters on high
    refinements: eval_gamma_lhs's map puts the outermost nodes of a level
    of n nodes at |u| of about delta (2n/pi)^4 / 2, up to the 1e12 beyond
    which it gives nodes weight 0 (_pole_strip_map), from level 6 on.  At
    |u| = 1e12 the pairs kept three sampled terms to 0.02-0.4%, where
    summing first lost 0.5-1.6%; at 1e14, to 5-11% against 93-150%.  Each
    step is elementwise, so a node's value does not depend on the other
    nodes of its call (a matrix product's rounding depends on a node's
    column).
    """
    alpha, beta = np.array(p.alpha), np.array(p.beta)
    k = (np.array(p.n) + m_sum) / 2
    l = (np.array(p.m) - m_sum) / 2
    # each row is its constant plus its sign times i u
    const = np.concatenate([alpha + k, beta + l,
                            1 - beta + l, 1 - alpha + k])[:, None]
    sign = np.repeat([1.0, -1.0, 1.0, -1.0], 3)[:, None]
    weight = ((-1.0) ** m_sum if signed else 1.0) / (2 * np.pi)

    def f(u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        rows = log_gamma(const + sign * (1j * u))
        return weight * np.exp(sum(rows[:6] - rows[6:]))

    return f


def _gamma_step(p: GammaParams):
    """The step (ms, u) -> term m + 2 over term m at the nodes u, for each m
    of the array ``ms`` (see eval_gamma_lhs): a (K, n) array for K values
    of m and n nodes, from one broadcast over (K, 6, n).  The parameter
    arrays are built once.

    With a_i = alpha_i + i u and b_i = beta_i - i u, the factors a_i + k_i
    and l_i - b_i are constants plus i u, and 1 - a_i + k_i and
    b_i + l_i - 1 constants minus i u; the step is the product of their
    six ratios.
    """
    alpha, beta = np.array(p.alpha), np.array(p.beta)
    half_n, half_m = np.array(p.n) / 2, np.array(p.m) / 2
    num = np.concatenate([alpha + half_n, half_m - beta])
    den = np.concatenate([1 - alpha + half_n, beta + half_m - 1])
    shift = np.repeat([0.5, -0.5], 3)   # k_i = n_i/2 + m/2, l_i = m_i/2 - m/2

    def step(ms: np.ndarray, u: np.ndarray) -> np.ndarray:
        iu = 1j * u
        d = shift * ms[:, None]
        return np.prod(((num + d)[..., None] + iu)
                       / ((den + d)[..., None] - iu), axis=1)

    return step


def _pole_strip_map(t, delta: float):
    """The nodes t of the whole line mapped to u = delta sinh(A asinh t),
    A = _GAMMA_MAP_POWER, and the weight du/dt =
    delta A cosh(A asinh t) / sqrt(1 + t^2): the integral over t of f(u(t))
    times the weight is the integral of f over u.

    u = delta sinh s maps the strip |Im s| < pi/2 onto the u-plane cut
    along the imaginary axis beyond +-i delta, and s = A asinh t takes the
    tan rule's nodes t = tan theta onto the whole s-line; A = 1 with
    delta = L is the plain scale u = L t.  Far out u is about
    delta (2 t)^A / 2: on level j, of n = 64 * 2**j nodes, the outermost
    node but the endpoint has t = -cot(pi/n), about -n/pi, so |u| reaches
    about delta (2n/pi)^A / 2, 3.5e8 delta on level 2.

    A node with |u| > 1e12 gets weight 0, at u = 0.  A gamma term's logs
    are about pi |u| / 2 in size, and their rounding grows with them: the
    term (see _gamma_term_integrand) is good to 0.02-0.4% at |u| = 1e12,
    to 5-11% at 1e14, and from 1e17 on the pairwise differences of its
    logs are lost; at 1e18 it came out 1/(2 pi), 1e72 times too large,
    and level 11 of its quadrature summed to 1e18.  The line beyond
    |u| = 1e12 carries below |u|^{-3} / (3 pi) = 1e-37 of a term, which
    decays like |u|^{-4} / (2 pi).  Such nodes appear from level 6 on, and
    on level 0 the rule's endpoint t = tan(-pi/2), which rounds to -1.6e16
    and stands for u = -infinity: it adds exactly its limit 0.
    """
    s = _GAMMA_MAP_POWER * np.arcsinh(t)
    u = delta * np.sinh(s)
    kept = np.abs(u) <= 1e12
    return (np.where(kept, u, 0.0),
            np.where(kept, delta * _GAMMA_MAP_POWER * np.cosh(s)
                     / np.hypot(1.0, t), 0.0))


def eval_gamma_lhs(p: GammaParams, policy: TruncationPolicy = DEFAULT_POLICY,
                   convention: str = "resolved") -> QuadratureResult:
    """The sum-integral side: sum over m of real-line integrals du/(2 pi).

    Balancing, sum alpha + sum beta = 1, makes the 2-D integrand decay like
    (1/2 pi)(m^2/4 + u^2)^{-2}: like |u|^{-4} in u and, integrated over u,
    like 2|m|^{-3} in m.  So the rings (m and -m together) tend to 4/M^3, at
    any spins, and alternate in sign in the printed convention; the m-sum's
    tail model takes that exact leading term.

    Every pole of every term lies on the imaginary u-axis.  In the row pair
    Gamma(a_i + k_i) / Gamma(1 - a_i + k_i) the poles at
    u = i (alpha_i + k_i + j), j >= 0, that the zeros of the denominator
    do not cancel are those with Im u >= alpha_i + |k_i|; in
    Gamma(b_i + l_i) / Gamma(1 - b_i + l_i) they lie at
    Im u <= -(beta_i + |l_i|).  So with positive alpha, beta (enforced by
    GammaParams) every pole keeps at least delta = min(alpha, beta) from
    the real line, for any m and any zero-sum spins, and the straight
    contour is always correct.  delta is 0.05-0.4 on sample_gamma, and
    the trapezoid rule converges like e^{-2 n d} for poles at distance d
    from its real axis (Trefethen and Weideman, SIAM Rev. 2014).  So the
    terms are integrated over t of the whole line with
    u = delta sinh(A asinh t), A = _GAMMA_MAP_POWER = 4, and its weight
    (:func:`_pole_strip_map`), which the grid applies once per engine call
    for every term.  delta sinh s maps the strip |Im s| < pi/2 onto the
    plane cut along the imaginary axis beyond +-i delta, so every pole of
    every term lies on the strip's edge, whatever m is; s = A asinh t
    takes the line onto the tan rule, t = tan theta, without truncation
    (a conformal map that moves the nodes toward the singularities, as in
    Hale and Trefethen, SIAM J. Numer. Anal. 2008).  Near u = 0 the poles
    then lie about pi/(2A) = 0.39 from the real theta-axis, at any delta.
    The plain scale u = 1.4 t put the nearest pole atanh(delta / 1.4) =
    0.036 from it at delta = 0.05, and the terms near m = 0 took 256-512
    nodes.  On 200 points of sample_gamma (seed 777), per point, against
    4,527 evaluations and 419 ``log_gamma`` nodes of the direct terms with
    the plain scale, all at the same worst residual, 3.33e-12:

        ==================  ===========  ==================
        map                 evaluations  ``log_gamma`` nodes
        ==================  ===========  ==================
        A = 3               4,690        235
        A = 4               3,730        158
        A = 5               3,653        150
        A = 6               4,195        206
        A = 4, delta / 2    5,243        251
        A = 4, delta * 2    3,772        215
        ==================  ===========  ==================

    A = 4 and A = 5 are within 2%; the smaller power keeps the nodes
    nearer, |u| = delta (2n/pi)^A / 2 on a level of n nodes, so that the
    map gives weight 0 to nodes beyond |u| = 1e12 from level 6 on, not
    from level 4.  A pole at alpha_1 = 1e-4 took 12,032 evaluations with
    the map and 265,472 with the plain scale.

    The terms share the nodes of each call of :func:`integrate_real_line`,
    mapped once per call, in a :class:`TermGrid`, which stores them: the
    terms m = 0 and m = 1 are evaluated directly, and every other term is
    built from its neighbour m -+ 2 by a step.  From m to m + 2 every gamma
    argument moves by one, and Gamma(z + 1) = z Gamma(z), so the step
    multiplies the integrand by

        prod_i (a_i + k_i)(l_i - b_i) / ((1 - a_i + k_i)(b_i + l_i - 1)),

    with a_i = alpha_i + i u, b_i = beta_i - i u, k_i = (n_i + m)/2 and
    l_i = (m_i - m)/2, all taken at m; the weight (-1)^m does not change.
    So ``log_gamma`` runs for two terms only (see _gamma_term_integrand),
    every other term costs one rational step per node, and the terms near
    m = 0, which carry most of the sum, are exact to rounding.

    alpha_i and beta_i are real and the spins integers, so
    Gamma(conj w) = conj Gamma(w) turns u into -u as conjugation: each
    term, and each step, satisfies f(-u) = conj f(u).  So
    :func:`integrate_real_line` evaluates only u <= 0 (the grid passes
    ``conjugate_symmetric=True``), and the sum is real.
    """
    signed = _check_convention(convention)
    tail = Tail(power=3, leading=4.0, alternating=not signed)
    return TermGrid(partial(_gamma_term_integrand, p, signed=signed),
                    _gamma_step(p),
                    partial(_pole_strip_map, delta=min(p.alpha + p.beta)),
                    ).sum_of_integrals(integrate_real_line, tail, policy)


def eval_gamma_rhs(p: GammaParams, form: str = "TWO_B") -> complex:
    """Product side of the gamma identity.

    ``form="TWO_B"``: product of two discrete gamma kernels,
    B(alpha1+beta2, n1+m2; alpha3+beta1, n3+m1)
    * B(alpha2+beta1, n2+m1; alpha3+beta2, n3+m2).
    ``form="NINE_FACTOR"``: the nine-ratio product
    prod_{i,j} Gamma(alpha_i+beta_j+(n_i+m_j)/2)
             / Gamma(1-alpha_i-beta_j-(n_i+m_j)/2).
    """
    al, be, n, m = p.alpha, p.beta, p.n, p.m
    if form == "TWO_B":
        return complex(
            b_gamma_disc(al[0] + be[1], n[0] + m[1], al[2] + be[0], n[2] + m[0])
            * b_gamma_disc(al[1] + be[0], n[1] + m[0], al[2] + be[1],
                           n[2] + m[1]))
    if form == "NINE_FACTOR":
        # args[i, j] = alpha_i + beta_j + (n_i + m_j)/2, in one call
        args = (np.add.outer(al, be)
                + np.add.outer(n, m) / 2).reshape(-1)
        lg = log_gamma(np.array([args, 1 - args]))
        return complex(np.exp(sum(lg[0] - lg[1])))
    raise ValueError(f"unknown form {form!r}")


def verify_pentagon_gamma(p: GammaParams,
                          policy: TruncationPolicy = DEFAULT_POLICY,
                          convention: str = "resolved") -> VerificationReport:
    """Verify the gamma sum-integral identity (SPHERE kernel).

    Resolved form: the alternating sum-integral equals
    (-1)^{n_3} * TWO_B / T, which at zero spins coincides with
    (-1)^{n_3} * NINE_FACTOR; ``reflection_factor`` records T.  The printed
    convention drops all signs and is expected to show a percent-level
    deficit.
    """
    started = time.perf_counter()
    signed = _check_convention(convention)
    lhs_result = eval_gamma_lhs(p, policy, convention)
    two_b = eval_gamma_rhs(p, "TWO_B")
    nine = eval_gamma_rhs(p, "NINE_FACTOR")
    t_factor = gamma_reflection_factor(p)
    sign = (-1.0) ** p.n[2] if signed else 1.0
    rhs = sign * two_b / t_factor
    return _make_report(
        IdentityId.GAMMA_SUM_INTEGRAL, p.to_record(),
        lhs_result.value, rhs, started,
        engine=lhs_result,
        rhs_alternate=sign * nine,
        truncation_diagnostics={
            "sum_integral": lhs_result.to_record(),
            "reflection_factor": t_factor,
        },
        # the kernel_form prefix predates the single kernel; records keep it
        notes=("kernel_form=SPHERE; "
               + ("resolved: alternating m-weight, product side carries "
                  "(-1)^{n_3}" if signed else
                  "printed: unsigned form, expected deficit")),
    )


def equivalence_check_gamma_rhs(p: GammaParams) -> VerificationReport:
    """Compare the two product-side forms by pure scalar-gamma arithmetic.

    The corrected statement TWO_B = T * NINE_FACTOR holds exactly when all
    spins vanish (T is the diagonal reflection factor, reported through
    ``constant_fit``); with nonzero spins the two forms are genuinely
    different functions and the report shows the discrepancy.
    ``rhs_alternate`` carries the uncorrected nine-factor value.
    """
    started = time.perf_counter()
    two_b = eval_gamma_rhs(p, "TWO_B")
    nine = eval_gamma_rhs(p, "NINE_FACTOR")
    t_factor = gamma_reflection_factor(p)
    return _make_report(
        IdentityId.EQUIVALENCE, p.to_record(),
        two_b, nine * t_factor, started,
        rhs_alternate=nine,
        constant_fit=t_factor,
        notes="constant_fit is the reflection factor T relating the forms",
    )


# ---------------------------------------------------------------------------
# beta pentagon
# ---------------------------------------------------------------------------

def _beta_integrand(p: BetaParams, resolved: bool):
    a = np.array(p.a, dtype=complex)[:, None]
    b = np.array(p.b, dtype=complex)[:, None]
    center = sum(log_gamma(p.a[i] + p.b[i]) for i in range(3))

    def f(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        u = 1j * t[None, :]
        if resolved:
            s = (log_gamma(a + u).sum(axis=0)
                 + log_gamma(b[:2] - u).sum(axis=0)
                 - log_gamma(1 - p.b[2] + u[0]) - center)
        else:
            s = (log_gamma(a + u) + log_gamma(b - u)).sum(axis=0) - center
        return np.exp(s) / (2 * np.pi)

    return f


def eval_beta_lhs(p: BetaParams, policy: TruncationPolicy = DEFAULT_POLICY,
                  convention: str = "resolved") -> QuadratureResult:
    """Contour integral ds/(2 pi i) along s = i t, divided by the centre
    prod_i Gamma(a_i + b_i).

    ``convention="resolved"`` integrates Barnes' second lemma,
    Gamma(a_1+s) Gamma(a_2+s) Gamma(a_3+s) Gamma(b_1-s) Gamma(b_2-s)
    / Gamma(1-b_3+s), which decays like |t|^{-2} e^{-2 pi |t|}.
    ``"printed"`` integrates the three-beta-kernel product with Gamma(b_3-s)
    in the last slot, which decays like e^{-3 pi |t|}; under the balancing
    condition the two integrands differ by the factor pi / sin pi(b_3 - s).
    """
    resolved = _check_convention(convention)
    return integrate_real_line(_beta_integrand(p, resolved), policy)


def eval_beta_rhs(p: BetaParams, convention: str = "resolved") -> complex:
    """Product side of the beta identity.

    Resolved: prod_i Gamma(a_i+b_1) Gamma(a_i+b_2) / Gamma(1-a_i-b_3), over
    the centre prod_i Gamma(a_i + b_i).  Printed: the two-kernel product
    B(a_1+b_2, a_3+b_1) B(a_2+b_1, a_3+b_2), which is the resolved side
    divided by sin pi(a_3+b_3) / pi.
    """
    if not _check_convention(convention):
        return (b_beta(p.a[0] + p.b[1], p.a[2] + p.b[0])
                * b_beta(p.a[1] + p.b[0], p.a[2] + p.b[1]))
    a, b = p.a, p.b
    log_val = 0j
    for i in range(3):
        log_val += (log_gamma(a[i] + b[0]) + log_gamma(a[i] + b[1])
                    - log_gamma(1 - a[i] - b[2]) - log_gamma(a[i] + b[i]))
    return complex(np.exp(log_val))


def verify_pentagon_beta(p: BetaParams,
                         policy: TruncationPolicy = DEFAULT_POLICY,
                         convention: str = "resolved") -> VerificationReport:
    """Verify the Euler-beta identity.

    Resolved form: Barnes' second lemma (E. W. Barnes, 1910), the rational
    limit of the hyperbolic pentagon as omega2 -> infinity; it holds to
    quadrature accuracy at every balanced point.  Printed form: the 3+3
    Euler-beta statement, which the numerics do not support; the ratio of
    its two sides is parameter-dependent (roughly 0.9 to 2.1 over the
    sampling box), because its integrand carries Gamma(b_3-s) where the
    limit gives 1/Gamma(1-b_3+s), a factor pi / sin pi(b_3-s) that no sign
    or constant can absorb.  The printed report records that failure;
    ``constant_fit`` carries the ratio of the sides.
    """
    started = time.perf_counter()
    resolved = _check_convention(convention)
    lhs_result = eval_beta_lhs(p, policy, convention)
    rhs = eval_beta_rhs(p, convention)
    return _make_report(
        IdentityId.BETA_INTEGRAL, p.to_record(), lhs_result.value, rhs,
        started, engine=lhs_result,
        truncation_diagnostics={"integral": lhs_result.to_record()},
        notes=("resolved: Barnes' second lemma, 1/Gamma(1-b_3+s) in place "
               "of the printed Gamma(b_3-s)" if resolved else
               "printed form; no sign or constant correction is known to "
               "make this identity hold"),
    )


# ---------------------------------------------------------------------------
# limit studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitStudyResult:
    """One limit study: its rows, gate and (for the run header) its point."""

    kind: IdentityId
    parameters: dict
    rows: tuple
    monotone: bool
    passed: bool
    fitted_order: dict
    constant_fit: float | None = None
    wall_time: float = 0.0
    notes: str = ""

    def to_record(self) -> dict:
        return {
            "identity_id": self.kind.value,
            "rows": list(self.rows),
            "monotone": self.monotone,
            "passed": self.passed,
            "fitted_order": self.fitted_order,
            "constant_fit": self.constant_fit,
            "wall_time": self.wall_time,
            "notes": self.notes,
        }


def _gate(kind: IdentityId, parameters: dict, rows: list, groups: dict,
          started: float, ok: bool = True, **extra) -> LimitStudyResult:
    """The pass rule of every limit study.  ``groups`` maps a name to its
    (epsilon, distance) pairs, epsilon -> 0 in row order, and least order;
    its order is the slope of log distance on log epsilon, None if a
    distance is nan, inf or 0.  The study passes when ``ok`` holds, every
    group's distances fall strictly and every order reaches its least."""
    orders, monotone = {}, True
    for name, (pairs, least) in groups.items():
        eps, dists = zip(*pairs)
        monotone = monotone and all(b < a for a, b in zip(dists, dists[1:]))
        fits = all(math.isfinite(d) and d > 0 for d in dists)
        orders[name] = (float(np.polyfit(np.log(eps), np.log(dists), 1)[0])
                        if fits else None)
        ok = ok and fits and orders[name] >= least
    return LimitStudyResult(kind, parameters, tuple(rows), monotone,
                            ok and monotone, orders,
                            wall_time=time.perf_counter() - started, **extra)


def _regularized_kernel_distance(p: GammaParams, q: float) -> float:
    """Distance between the (1-q)-regularized index kernel and the discrete
    gamma kernel it degenerates to, maximized over kernel slots and contour
    probe points z = q^{i u}."""
    lq = math.log(q)
    worst = 0.0
    for i in range(3):
        for u in Q_TO_1_U_PROBES:
            a_arg = p.alpha[i] + 1j * u
            b_arg = p.beta[i] - 1j * u
            idx_val = (1 - q) * b_idx(np.exp(a_arg * lq), p.n[i],
                                      np.exp(b_arg * lq), p.m[i], q)
            gamma_val = complex(b_gamma_disc(a_arg, p.n[i], b_arg, p.m[i]))
            worst = max(worst, abs(idx_val - gamma_val)
                        / max(abs(gamma_val), _RESIDUAL_FLOOR))
    return worst


def limit_study_q_to_1(p_gamma: GammaParams) -> LimitStudyResult:
    """Degeneration of the index identity toward the gamma identity.

    Three layers per q: an exact telescoping probe of the regularized
    Pochhammer ratio (must equal 1 to 1e-12), a gamma-ratio probe whose
    value tends to Gamma(3/2)/Gamma(1/2) = 1/2, and the distance between
    the (1-q)-regularized index kernels and their discrete-gamma limits.
    Both distances must fall with an order in (1-q) of at least 1 (probe)
    and 0.9 (kernels).
    """
    started = time.perf_counter()
    rows = []
    for q in Q_TO_1_SEQUENCE:
        half = qpoch_ratio_regularized(0.5, 1.5, q)
        rows.append({
            "q": q,
            "probe_exact_deviation": abs(qpoch_ratio_regularized(1, 2, q) - 1),
            "probe_half_value": [half.real, half.imag],
            "probe_half_error": abs(half - 0.5),
            "kernel_distance": _regularized_kernel_distance(p_gamma, q),
        })
    # Q_TO_1_SEQUENCE ascends, so epsilon = 1 - q falls in row order
    groups = {name: ([(1 - row["q"], row[name]) for row in rows], least)
              for name, least in (("probe_half_error", 1.0),
                                  ("kernel_distance", 0.9))}
    return _gate(
        IdentityId.LIMIT_Q_TO_1, p_gamma.to_record(), rows, groups, started,
        ok=all(row["probe_exact_deviation"] < 1e-12 for row in rows),
        notes="kernel_distance compares (1-q) * regularized index kernels "
              "against their discrete-gamma limits at contour probe points",
    )


def limit_study_omega() -> LimitStudyResult:
    """Degeneration of the hyperbolic gamma toward the ordinary gamma.

    omega1 = 1 is fixed and omega2 = T e^{-i pi/4} runs along a ray to
    infinity (off the real axis, preserving Im(omega1/omega2) > 0).  The
    numerics support the limit

        gamma2(z; 1, omega2) -> (omega2 / (2 pi))^{1/2 - z} Gamma(z)
                                / sqrt(2 pi),

    i.e. the printed 1/(2 pi) normalization overshoots by sqrt(2 pi).  The
    study passes when ``constant_fit``, that ratio at the largest T, is within
    1e-6 of sqrt(2 pi) and each z's distance falls at order >= 1.8 in 1/T.
    """
    started = time.perf_counter()
    rows = []
    for z in OMEGA_Z_VALUES:
        for T in OMEGA_T_SEQUENCE:
            omega = ModularPair(1.0, T * np.exp(-1j * OMEGA_PHASE))
            g = np.exp(log_hyperbolic_gamma(z, omega))
            base = ((omega.omega2 / (2 * math.pi)) ** (0.5 - z)
                    * gamma_fn(z))
            ratio = complex(g / (base / (2 * math.pi)))
            corrected = base / math.sqrt(2 * math.pi)
            rows.append({
                "z": float(z),
                "T": T,
                "distance_corrected": float(abs(g / corrected - 1)),
                "ratio_vs_printed": [ratio.real, ratio.imag],
            })
    constant_fit = float(np.mean([abs(complex(*row["ratio_vs_printed"]))
                                  for row in rows
                                  if row["T"] == OMEGA_T_SEQUENCE[-1]]))
    groups = {f"z={z}": ([(1 / row["T"], row["distance_corrected"])
                          for row in rows if row["z"] == z], 1.8)
              for z in OMEGA_Z_VALUES}
    return _gate(
        IdentityId.LIMIT_OMEGA,
        {"omega1": 1.0, "z_values": list(OMEGA_Z_VALUES),
         "T_sequence": list(OMEGA_T_SEQUENCE)},
        rows, groups, started,
        ok=abs(constant_fit - math.sqrt(2 * math.pi)) < 1e-6,
        constant_fit=constant_fit,
        notes="constant_fit is the measured ratio against the 1/(2 pi)-"
              "normalized limit formula; it converges to sqrt(2 pi)",
    )
