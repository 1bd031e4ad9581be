"""Numerical engines: real-line quadrature, unit-circle quadrature, and
sums over all integers whose tail follows a model the caller names.

Both quadratures are one rule: the nested trapezoid rule in an angle
(:func:`_nested_trapezoid`), on z = exp(2 pi i x) for the circle and on
u = L tan theta for the real line.  The three engines share a result type
carrying the value, a conservative error estimate, evaluation counts, and
an explicit tail estimate.  Only the sum extrapolates; both quadratures
cover their whole contour and report a tail estimate of 0.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import zeta as _hurwitz_zeta

from .special_functions import ConvergenceError

__all__ = [
    "TruncationPolicy",
    "DEFAULT_POLICY",
    "QuadratureResult",
    "Tail",
    "integrate_real_line",
    "integrate_unit_circle",
    "sum_over_integers",
]

# Rings summed before sum_over_integers gives up and reports non-convergence.
_MAX_RINGS = 512
# First ring after which the tail model corrects the running sum.
_SUM_WINDOW_START = 8
# Radii at which _tune_scale looks for the integrand's loss of mass.
_SCALE_PROBES = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
# Nodes on the first level of both quadratures; each refinement doubles them.
_FIRST_NODES = 64


@dataclass(frozen=True)
class TruncationPolicy:
    """Tolerances and refinement budget of the quadrature and sum engines."""

    quadrature_abs_tol: float = 1e-12
    quadrature_rel_tol: float = 1e-10
    sum_tail_tol: float = 1e-10
    max_refinements: int = 12

    def __post_init__(self) -> None:
        for name in ("quadrature_abs_tol", "quadrature_rel_tol",
                     "sum_tail_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be at least 1")

    def doubled(self) -> "TruncationPolicy":
        """A strictly tighter policy for convergence self-checks."""
        return TruncationPolicy(
            quadrature_abs_tol=self.quadrature_abs_tol * 1e-2,
            quadrature_rel_tol=self.quadrature_rel_tol * 1e-2,
            sum_tail_tol=self.sum_tail_tol * 1e-2,
            max_refinements=self.max_refinements + 2,
        )


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of one quadrature or summation run."""

    value: complex
    abs_error_estimate: float
    evaluations: int
    refinements_used: int
    tail_estimate: float
    converged: bool = True

    def __post_init__(self) -> None:
        if self.abs_error_estimate < 0:
            raise ValueError("abs_error_estimate must be nonnegative")
        if self.evaluations < 1:
            raise ValueError("evaluations must be at least 1")

    def to_record(self) -> dict:
        rec = asdict(self)
        rec["value"] = [complex(self.value).real, complex(self.value).imag]
        return rec


def _tune_scale(f) -> float:
    """Pick the tan-map scale L near where the integrand has lost most of
    its mass, so nodes concentrate on the support."""
    center = abs(complex(np.asarray(f(np.array([0.0])), dtype=complex)[0]))
    if center == 0 or not math.isfinite(center):
        return 4.0
    for u in _SCALE_PROBES:
        vals = np.asarray(f(np.array([-u, u])), dtype=complex)
        if np.max(np.abs(vals)) < 0.1 * center:
            return max(u, 1.0)
    return _SCALE_PROBES[-1]


def _nested_trapezoid(g, offset: float,
                      policy: TruncationPolicy) -> QuadratureResult:
    """Mean of the 1-periodic ``g`` by the trapezoid rule on the nodes
    offset + k/n, n = 64, 128, 256, ...

    Level 0 evaluates all 64 nodes; each doubling to 2n evaluates only the
    n new odd nodes offset + (2k + 1)/2n and adds their sum to the running
    total, until two successive means agree to
    max(abs_tol, rel_tol * |value|) or ``policy.max_refinements`` doublings
    are spent.  So ``evaluations`` is the final node count
    64 * 2**refinements_used.  The error estimate is the last difference
    between levels.  A level that is not finite raises ConvergenceError.

    Call contract: on its j-th call (j = 0, 1, ...) ``g`` receives level j's
    new nodes, in that order, as one array.
    """
    # level 0 has no predecessor; its difference from nan never converges
    total, prev = 0j, math.nan
    for refinements in range(policy.max_refinements + 1):
        n = _FIRST_NODES << refinements
        k = np.arange(1, n, 2) if refinements else np.arange(n)
        total += complex(np.sum(g(offset + k / n)))
        value = total / n
        if not np.isfinite(value):
            raise ConvergenceError(f"quadrature level on {n} nodes is {value}")
        err = abs(value - prev)
        prev = value
        converged = err < max(policy.quadrature_abs_tol,
                              policy.quadrature_rel_tol * abs(value))
        if converged:
            break
    return QuadratureResult(
        value=value,
        abs_error_estimate=float(err),
        evaluations=n,
        refinements_used=refinements,
        tail_estimate=0.0,
        converged=converged,
    )


def integrate_real_line(integrand, policy: TruncationPolicy = DEFAULT_POLICY,
                        u_max: float = math.inf) -> QuadratureResult:
    """Integral of `integrand` over |u| < u_max, by default the whole line.

    u = L tan(theta) maps it to theta in (-theta_max, theta_max),
    theta_max = atan(u_max / L), which :func:`_nested_trapezoid` covers as
    theta = theta_max (2x - 1), x in [0, 1).  Its nodes sit a third of the
    first step off the dyadic grid, so no level reaches theta = +-theta_max,
    which is u = +-inf on the whole line.  There, decay like an even power
    |u|^{-2k} gives a smooth pi-periodic function of theta, on which the
    trapezoid rule converges exponentially (Trefethen and Weideman); so no
    tail model is needed and ``tail_estimate`` is 0.  Odd powers such as
    (1 + u^2)^{-3/2} leave a kink at theta = +-pi/2 and converge only
    algebraically (65,536 evaluations, error 3.2e-11).  A finite ``u_max``
    keeps the nodes on an integrand's support.  On its j-th call the engine
    passes ``integrand`` the images u of level j's new nodes as one array.
    """
    L = _tune_scale(integrand)
    theta_max = math.atan(u_max / L)

    def g(x):
        theta = theta_max * (2 * (x % 1.0) - 1)
        return (integrand(L * np.tan(theta))
                * (2 * theta_max * L / np.cos(theta) ** 2))

    return _nested_trapezoid(g, 1 / (3 * _FIRST_NODES), policy)


def integrate_unit_circle(integrand, policy: TruncationPolicy = DEFAULT_POLICY,
                          ) -> QuadratureResult:
    """Contour average (1/2 pi i) oint f(z) dz / z: the mean of f at the
    n-th roots of unity, n = 64, 128, ..., by :func:`_nested_trapezoid` on
    z = exp(2 pi i x).  The trapezoid rule in angle is spectrally accurate
    for integrands analytic in an annulus around |z| = 1 (Trefethen and
    Weideman, SIAM Rev. 2014).

    Call contract: on its j-th call (j = 0, 1, ...) the engine passes
    ``integrand`` level j's new nodes, the 64 roots of unity and then the n
    new odd roots exp(2 pi i (2k + 1) / 2n), in that order, as one array; a
    caller may build its values from its own values at level j.
    """
    return _nested_trapezoid(lambda x: integrand(np.exp(2j * np.pi * x)),
                             0.0, policy)


@dataclass(frozen=True)
class Tail:
    """How the rings r_M = term(M) + term(-M) of a bilateral sum behave far
    out, as the caller of :func:`sum_over_integers` knows it.

    ``power=None``: geometric decay, |r_{M+1}| = rho |r_M|, with rho the
    median ratio of the last six rings.  ``power=s``: r_M = leading M^{-s}
    + sum_{k=1..4} c_k M^{-s-2k}, with ``leading`` exact and the c_k fitted
    by least squares over rings M/2..M; the tail is a sum of Hurwitz zeta
    values.  ``alternating``: the rings carry a further sign (-1)^M.
    """

    power: int | None = None
    leading: float = 0.0
    alternating: bool = False

    def remainder(self, rings: list) -> tuple[complex, float]:
        """Predicted sum of the rings after ``rings[-1]``, and the error the
        geometric model owes to the drift of the ratio (0 for power laws)."""
        if self.power is None:
            mags = np.abs(np.array(rings[-6:], dtype=complex))
            ratios = mags[1:] / np.maximum(mags[:-1], 1e-300)
            rho = float(np.median(ratios))
            ratio = -rho if self.alternating else rho
            if ratio >= 1:  # rings that do not decay: no continuation
                return 0j, 0.0
            # the remainder, and its shift if the ratio drifts on as it did
            return (rings[-1] * ratio / (1 - ratio),
                    abs(rings[-1]) * float(np.ptp(ratios)) / (1 - ratio) ** 3)
        M = len(rings)
        j = np.arange(M // 2, M + 1)
        sign = (-1.0) ** j if self.alternating else 1.0
        excess = (sign * np.array(rings[M // 2 - 1:], dtype=complex)
                  - self.leading * j ** -float(self.power))
        powers = self.power + 2 * np.arange(5)
        # columns (M/j)^e, in [1, 2^e], keep the fit well conditioned
        scaled = np.linalg.lstsq((M / j)[:, None] ** powers[1:], excess,
                                 rcond=None)[0]
        weights = np.concatenate(([self.leading],
                                  scaled * float(M) ** powers[1:]))
        return complex(weights @ self._power_sums(powers, M)), 0.0

    def _power_sums(self, s, M: int):
        """sum_{m > M} m^{-s}, or sum_{m > M} (-1)^m m^{-s} if alternating."""
        if not self.alternating:
            return _hurwitz_zeta(s, M + 1)
        return ((-1.0) ** (M + 1) * 2.0 ** -s * (_hurwitz_zeta(s, (M + 1) / 2)
                                                - _hurwitz_zeta(s, (M + 2) / 2)))

    def error(self, estimates: list) -> float:
        """Error of the last estimate: the larger of the last two changes
        (geometric) or the change over four rings (power law)."""
        pairs = ((1, 2), (2, 3)) if self.power is None else ((1, 5),)
        if len(estimates) < pairs[-1][1]:
            return math.inf
        return max(abs(estimates[-a] - estimates[-b]) for a, b in pairs)


def sum_over_integers(term, tail: Tail = Tail(),
                      policy: TruncationPolicy = DEFAULT_POLICY,
                      ) -> QuadratureResult:
    """Sum of term(m) over all integers m.

    Symmetric rings r_M = term(M) + term(-M) are accumulated outward.  From
    ring 8 on, the running sum is corrected by the remainder that the
    caller's tail model predicts, until the model's error estimate is below
    max(sum_tail_tol, sum_tail_tol * |estimate|), or else ``converged`` is
    False after ``_MAX_RINGS`` rings.  Rings growing eight times in a row,
    or a running sum that is not finite, raise ConvergenceError.
    """
    total = complex(term(0))
    rings: list[complex] = []
    estimates: list[complex] = []
    grow_streak = 0

    for M in range(1, _MAX_RINGS + 1):
        r = complex(term(M)) + complex(term(-M))
        total += r
        if not np.isfinite(total):
            raise ConvergenceError(
                f"sum_over_integers: non-finite sum {total} at |m| = {M}")
        rings.append(r)

        grow_streak = (grow_streak + 1
                       if M >= 3 and abs(r) > abs(rings[-2]) > 0 else 0)
        if grow_streak >= 8:
            raise ConvergenceError(
                f"sum_over_integers: terms growing at |m| = {M}")

        if M < _SUM_WINDOW_START:
            continue
        correction, drift = tail.remainder(rings)
        estimates.append(total + correction)
        err = max(tail.error(estimates), drift)
        converged = err < max(policy.sum_tail_tol,
                              policy.sum_tail_tol * abs(estimates[-1]))
        if converged:
            break

    return QuadratureResult(
        value=estimates[-1],
        abs_error_estimate=float(err),
        evaluations=2 * M + 1,
        refinements_used=M,
        tail_estimate=float(abs(correction)),
        converged=converged,
    )
