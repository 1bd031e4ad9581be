"""Numerical engines: real-line quadrature, unit-circle quadrature, and
tail-controlled sums over all integers.

The three engines share a common result type carrying the value, a
conservative error estimate, evaluation counts, and an explicit tail
estimate, so that identity-level reports can expose exactly how much of the
answer came from extrapolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import zeta as _hurwitz_zeta

from .special_functions import DEFAULT_POLICY, ConvergenceError, TruncationPolicy

__all__ = [
    "QuadratureResult",
    "integrate_real_line",
    "integrate_unit_circle",
    "sum_over_integers",
]

# Rings summed before sum_over_integers gives up and reports non-convergence.
_MAX_RINGS = 512
# First ring at which a tail model is fitted; the fit reads the last six rings.
_SUM_WINDOW_START = 8


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
        return {
            "value": [complex(self.value).real, complex(self.value).imag],
            "abs_error_estimate": self.abs_error_estimate,
            "evaluations": self.evaluations,
            "refinements_used": self.refinements_used,
            "tail_estimate": self.tail_estimate,
            "converged": self.converged,
        }


def _tune_scale(f, probe=(0.5, 1.0, 2.0, 4.0, 8.0, 16.0)) -> float:
    """Pick the tan-map scale L near where the integrand has lost most of
    its mass, so nodes concentrate on the support."""
    center = abs(complex(np.asarray(f(np.array([0.0])), dtype=complex)[0]))
    if center == 0 or not math.isfinite(center):
        return 4.0
    for u in probe:
        vals = np.asarray(f(np.array([-u, u])), dtype=complex)
        if np.max(np.abs(vals)) < 0.1 * center:
            return max(float(u), 1.0)
    return float(probe[-1])


def _refine(level, n0: int, policy: TruncationPolicy) -> QuadratureResult:
    """Evaluate ``level(n)``, a quadrature rule on n nodes, at n = n0, 2 n0,
    4 n0, ... until two successive levels agree to
    max(abs_tol, rel_tol * |value|) or ``policy.max_refinements`` doublings
    are spent.  The error estimate is the last difference between levels."""
    n = n0
    prev = level(n)
    evaluations = n
    for refinements in range(1, policy.max_refinements + 1):
        n *= 2
        value = level(n)
        evaluations += n
        err = abs(value - prev)
        prev = value
        converged = err < max(policy.quadrature_abs_tol,
                              policy.quadrature_rel_tol * abs(value))
        if converged:
            break
    return QuadratureResult(
        value=value,
        abs_error_estimate=float(err),
        evaluations=evaluations,
        refinements_used=refinements,
        tail_estimate=0.0,
        converged=converged,
    )


def integrate_real_line(integrand, policy: TruncationPolicy = DEFAULT_POLICY,
                        u_max: float = 1e6) -> QuadratureResult:
    """Integral of `integrand` over the whole real line.

    Uses the compactifying change of variable u = L tan(theta) with the
    midpoint rule on theta, refined by doubling the node count until two
    successive levels agree to max(abs_tol, rel_tol * |value|).  The grid
    covers |u| <= u_max; the remainder is corrected by a power-law fit
    c |u|^{-p} anchored at the outermost nodes, and the correction size is
    reported as ``tail_estimate``.
    """
    L = _tune_scale(integrand)
    theta_max = math.atan(u_max / L)

    def level(num_points: int) -> complex:
        h = 2 * theta_max / num_points
        theta = -theta_max + (np.arange(num_points) + 0.5) * h
        u = L * np.tan(theta)
        w = L / np.cos(theta) ** 2 * h
        return complex(np.sum(np.asarray(integrand(u), dtype=complex) * w))

    grid = _refine(level, 64, policy)

    # power-law tail beyond |u| = u_max:  integral_{U}^{inf} c u^{-p} du
    # = f(U) * U / (p - 1), with p fitted from the outer decade of nodes
    tail = 0.0 + 0.0j
    for sign in (-1.0, 1.0):
        u_far = sign * np.array([u_max / 4, u_max / 2, u_max]) * 0.999
        vals = np.asarray(integrand(u_far), dtype=complex)
        mags = np.abs(vals)
        if mags[-1] == 0 or not np.all(np.isfinite(mags)) or np.any(mags == 0):
            continue
        p = -np.polyfit(np.log(np.abs(u_far)), np.log(mags), 1)[0]
        if p > 1.2:
            tail += vals[-1] * u_max / (p - 1)

    # The fitted power law is only accurate to a few percent, so a slice of
    # the tail correction is charged to the reported uncertainty.
    return replace(
        grid,
        value=grid.value + tail,
        abs_error_estimate=float(grid.abs_error_estimate + 0.05 * abs(tail)),
        evaluations=grid.evaluations + 6,  # three tail nodes per side
        tail_estimate=float(abs(tail)),
    )


def integrate_unit_circle(integrand, policy: TruncationPolicy = DEFAULT_POLICY,
                          ) -> QuadratureResult:
    """Contour average (1/2 pi i) oint f(z) dz / z = mean of f at the
    N-th roots of unity.

    The trapezoid rule in angle is spectrally accurate for integrands
    analytic in an annulus around |z| = 1; N starts at 64 and is doubled
    until successive values agree to tolerance.
    """
    def level(n: int) -> complex:
        z = np.exp(2j * np.pi * np.arange(n) / n)
        return complex(np.mean(np.asarray(integrand(z), dtype=complex)))

    return _refine(level, 64, policy)


def _averaged_partials(partials: list) -> complex:
    """Iterated averaging of the trailing partial sums; each level gains
    one power of 1/M for alternating algebraically decaying tails."""
    arr = np.array(partials[-14:], dtype=complex)
    while len(arr) > 1:
        arr = 0.5 * (arr[:-1] + arr[1:])
    return complex(arr[0])


def sum_over_integers(term, policy: TruncationPolicy = DEFAULT_POLICY,
                      ) -> QuadratureResult:
    """Sum of term(m) over all integers m.

    Symmetric rings r_M = term(M) + term(-M) are accumulated outward.  The
    running estimate is corrected by the tail model the data supports:
    geometric continuation for geometric decay, iterated averaging for
    alternating algebraic tails, and a fitted c |m|^{-p} Hurwitz-zeta tail
    otherwise.  Convergence is declared when the corrected estimate is
    stable across three consecutive rings.
    """
    total = complex(term(0))
    evaluations = 1
    rings: list[complex] = []
    partials: list[complex] = []
    estimates: list[complex] = []
    tail_size = 0.0
    grow_streak = 0
    error_factor = 1.0

    for M in range(1, _MAX_RINGS + 1):
        r = complex(term(M)) + complex(term(-M))
        evaluations += 2
        total += r
        rings.append(r)
        partials.append(total)

        if M >= 3 and abs(rings[-1]) > abs(rings[-2]) > 0:
            grow_streak += 1
            if grow_streak >= 8:
                raise ConvergenceError(
                    f"sum_over_integers: terms growing at |m| = {M}"
                )
        else:
            grow_streak = 0

        if M < _SUM_WINDOW_START:
            continue

        window = np.array(rings[-6:], dtype=complex)
        mags = np.abs(window)
        if np.all(mags == 0):
            estimate, tail_size = total, 0.0
            estimates.append(estimate)
        else:
            ratios = mags[1:] / np.maximum(mags[:-1], 1e-300)
            rho = float(np.median(ratios))
            alternating = bool(np.all(np.real(window[1:] * np.conj(window[:-1]))
                                      < 0))
            if alternating and len(partials) >= 14:
                estimate = _averaged_partials(partials)
                tail_size = abs(estimate - total)
                error_factor = 1.0
            elif rho < 0.8:
                correction = r * rho / (1 - rho)
                estimate = total + correction
                tail_size = abs(correction)
                error_factor = 1.0
            else:
                ms = np.arange(M - 5, M + 1, dtype=float)
                good = mags > 0
                if np.count_nonzero(good) >= 3:
                    p = -np.polyfit(np.log(ms[good]), np.log(mags[good]), 1)[0]
                else:
                    p = 2.0
                if p > 1.2:
                    correction = r * M ** p * float(_hurwitz_zeta(p, M + 1))
                    estimate = total + correction
                    tail_size = abs(correction)
                    # a fitted power-law tail carries a model bias that
                    # shrinks one power of M slower than the ring deltas do
                    error_factor = 2.0 * M
                else:
                    estimate, tail_size = total, abs(r) * M
                    error_factor = 2.0 * M
            estimates.append(estimate)

        if len(estimates) >= 3:
            deltas = [abs(estimates[-1] - estimates[-2]),
                      abs(estimates[-2] - estimates[-3])]
            err = max(deltas) * error_factor
            tol = max(policy.sum_tail_tol,
                      policy.sum_tail_tol * abs(estimates[-1]))
            if err < tol:
                return QuadratureResult(
                    value=estimates[-1],
                    abs_error_estimate=float(err),
                    evaluations=evaluations,
                    refinements_used=M,
                    tail_estimate=float(tail_size),
                )

    err = (abs(estimates[-1] - estimates[-2]) * error_factor
           if len(estimates) >= 2 else math.inf)
    return QuadratureResult(
        value=estimates[-1] if estimates else total,
        abs_error_estimate=float(err),
        evaluations=evaluations,
        refinements_used=_MAX_RINGS,
        tail_estimate=float(tail_size),
        converged=False,
    )
