"""Numerical engines: real-line quadrature, unit-circle quadrature, sums
over all integers whose tail follows a model the caller names, and the
term grid that sums contour integrals over m with both.

Both quadratures are one rule: the nested trapezoid rule in an angle
(:func:`_nested_trapezoid`) on the nodes x = k/n, on z = exp(2 pi i x) for
the circle and on u = tan theta for the real line.  That node set is its
own mirror image, z -> conj z and u -> -u, so a caller whose integrand is
conjugate-symmetric (real parameters) passes ``conjugate_symmetric=True``
and has only half the nodes evaluated.  The three engines share a result
type carrying the value, a conservative error estimate, evaluation counts,
and an explicit tail estimate.  Only the sum extrapolates; both quadratures
cover their whole contour and report a tail estimate of 0.

:class:`TermGrid` evaluates every m-term of a sum-integral on the nodes of
each quadrature call, and relies on two decisions made here: the rule's
call contract (:func:`_nested_trapezoid`) and the order in which
:func:`sum_over_integers` asks for its terms, 0, +-1, +-2, ...
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import asdict, dataclass, replace

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
    "TermGrid",
]

# Rings summed before sum_over_integers gives up and reports non-convergence.
_MAX_RINGS = 512
# First ring after which the tail model corrects the running sum.
_SUM_WINDOW_START = 8
# Nodes on the first level of both quadratures; each refinement doubles them.
_FIRST_NODES = 64
# Rows a half-chain of TermGrid grows past the term it was too short for on
# an engine's first call, where the m-sum asks for many terms: that step
# call covers the next 8 terms of that direction and parity.
_LOOK_AHEAD = 8
# The geometric stop of _nested_trapezoid.  On an analytic periodic
# integrand the trapezoid rule's error on n nodes is E ~ C rho**n, so
# doubling n squares it: E_j = E_{j-1}**2 / C.  The difference
# d_j = |I_j - I_{j-1}| is about E_{j-1}, so with r = d_j / d_{j-1},
# E_j is about d_j**3 / d_{j-1}**2 = d_j r**2.  Level j stops when that
# prediction is below _GEOMETRIC_MARGIN times the tolerance.  A margin of
# 1e-4 saved a few more evaluations but cost hyperbolic pentagons up to
# 0.22 digits.  The usual ratio bound, r < 1e-2, needs no constant: the
# test runs only where d_j >= tol, and there it forces r < 1e-3.
_GEOMETRIC_MARGIN = 1e-6


@dataclass(frozen=True)
class TruncationPolicy:
    """Tolerances and refinement budget of the quadrature and sum engines."""

    quadrature_abs_tol: float = 1e-12
    quadrature_rel_tol: float = 1e-10
    sum_tail_tol: float = 1e-10
    max_refinements: int = 12

    def __post_init__(self) -> None:
        # written so that nan fails them
        for name in ("quadrature_abs_tol", "quadrature_rel_tol",
                     "sum_tail_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        # _level keeps each call's nodes for the life of the process,
        # 64 * 2**c of them on call c, so the budget bounds that cache;
        # DEFAULT_POLICY.doubled() asks for 14
        if not (isinstance(self.max_refinements, int)
                and 1 <= self.max_refinements <= 16):
            raise ValueError("max_refinements must be an integer from 1 to 16")

    def doubled(self) -> "TruncationPolicy":
        """A strictly tighter policy for convergence self-checks: tolerances
        100 times smaller and two more refinements, up to 16."""
        return TruncationPolicy(
            quadrature_abs_tol=self.quadrature_abs_tol * 1e-2,
            quadrature_rel_tol=self.quadrature_rel_tol * 1e-2,
            sum_tail_tol=self.sum_tail_tol * 1e-2,
            max_refinements=min(self.max_refinements + 2, 16),
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


@functools.cache
def _level(call: int, conjugate_symmetric: bool):
    """The new nodes of :func:`_nested_trapezoid`'s ``call``-th integrand
    call, computed once and shared by every integrand: levels 0 and 1 on
    call 0, level call + 1 on every later call.  Returns the nodes x = k/n,
    their weights under ``conjugate_symmetric`` (None without it), their
    images on the unit circle, z = exp(2 pi i x), their
    :func:`_line_images` on the whole line (theta_max = pi/2), as read-only
    arrays, and the positions in x at which each level's nodes end.  A
    call number is below ``TruncationPolicy.max_refinements``, at most 16,
    so the cache holds at most 32 entries."""
    xs, ws = [], []
    for refinements in (0, 1) if call == 0 else (call + 1,):
        n = _FIRST_NODES << refinements
        k = np.arange(1, n, 2) if refinements else np.arange(n)
        if conjugate_symmetric:
            k = k[2 * k <= n]
            ws.append(np.where((k == 0) | (2 * k == n), 1.0, 2.0))
        xs.append(k / n)
    x = np.concatenate(xs)
    weights = np.concatenate(ws) if conjugate_symmetric else None
    z = np.exp(2j * np.pi * x)
    line = _line_images(x, math.atan(math.inf))
    for a in (x, z, *line):
        a.flags.writeable = False
    return x, weights, z, line, np.cumsum([len(a) for a in xs]).tolist()


def _line_images(x, theta_max: float):
    """The nodes u = tan theta, theta = theta_max (2x - 1), and their weights
    du/dx = 2 theta_max sec^2 theta."""
    theta = theta_max * (2 * x - 1)
    return np.tan(theta), 2 * theta_max / np.cos(theta) ** 2


def _nested_trapezoid(g, policy: TruncationPolicy,
                      conjugate_symmetric: bool = False) -> QuadratureResult:
    """Mean of a 1-periodic function by the trapezoid rule on the nodes k/n,
    n = 64, 128, 256, ...; ``g(c)`` returns its values at the new nodes of
    call c, ``_level(c, conjugate_symmetric)[0]``.

    Level 0 evaluates all 64 nodes; each doubling to 2n evaluates only the
    n new odd nodes (2k + 1)/2n and adds their sum to the running total,
    until a level passes one of two stops or ``policy.max_refinements``
    doublings are spent.  So ``evaluations`` is the final node count
    64 * 2**refinements_used.  With d_j = |I_j - I_{j-1}| the difference of
    level j's mean from the last and tol = max(abs_tol, rel_tol * |I_j|):

    - the difference stop: d_j < tol, and the error estimate is d_j;
    - the geometric stop, tested only when the first fails:
      d_j r**2 < _GEOMETRIC_MARGIN * tol (1e-6 tol) with r = d_j / d_{j-1},
      and the error estimate is d_j r**2.  That is the error of level j
      predicted from the last two differences, as tanh-sinh codes predict
      it (Bailey, Jeyabalan and Li, Exp. Math. 2005), under the geometric
      convergence of the trapezoid rule on analytic periodic integrands
      (Trefethen and Weideman, SIAM Rev. 2014); the derivation is at
      ``_GEOMETRIC_MARGIN``.  Level 1 has no d_0 (level 0 is compared with
      nan), so it acts from level 2 on.  It can only end a quadrature
      sooner than the difference stop alone would, never later.

    A level that is not finite raises ConvergenceError.

    The node set of every level maps onto itself under x -> 1 - x (mod 1).
    With ``conjugate_symmetric`` the caller promises g(1 - x) = conj g(x),
    and each level evaluates only its nodes in [0, 1/2]: the self-mirror
    nodes 0 and 1/2 (level 0 only) count Re g once, every other node
    2 Re g, and the value is real.  ``evaluations`` still counts the rule's
    nodes, mirrors included.

    Call contract, which both quadratures and :class:`TermGrid` follow:
    ``g`` is called with c = 0, 1, ... in turn.  Level 0 never stops the
    rule (there is no level to compare it with), and ``TruncationPolicy``
    allows at least one doubling, so call 0 covers levels 0 and 1
    together: the 64 nodes, then the 64 odd nodes of 128.  Call c >= 1
    covers level c + 1 alone.  Level j's new nodes are, in increasing
    order, the nodes of 64 * 2**j that level j - 1 lacks, or with
    ``conjugate_symmetric`` those of them in [0, 1/2] (33 + 32 nodes on
    call 0).  Node 0 is evaluated like any other.  The values are summed
    level by level, so the result is that of one call per level whenever
    ``g``'s value at a node does not depend on the other nodes of its
    call.  ``g`` is called no more after the call whose level stops the
    rule, by either stop: no call only confirms the level before.  Both
    quadratures pass their integrand one array per call, the images of the
    call's new nodes.  The circle's and the whole line's images are cached
    in :func:`_level`, so every term of a sum-integral gets the same array
    on its c-th call, and :class:`TermGrid` finds a term's rows by counting
    its calls.
    """
    # level 0 has no predecessor; its difference from nan never converges,
    # and level 1's ratio to that nan never stops the geometric test
    total, prev, prev_err = 0j, math.nan, math.nan
    levels = _level_values(g, policy, conjugate_symmetric)
    for refinements, values, weights in levels:
        n = _FIRST_NODES << refinements
        if conjugate_symmetric:
            total += float(weights @ values.real)
        else:
            total += complex(np.sum(values))
        value = total / n
        if not cmath.isfinite(value):
            raise ConvergenceError(f"quadrature level on {n} nodes is {value}")
        err = abs(value - prev)
        prev = value
        tol = max(policy.quadrature_abs_tol,
                  policy.quadrature_rel_tol * abs(value))
        converged = err < tol
        if converged:
            break
        # err >= tol > 0 on every level that reaches here, so the next
        # level's ratio never divides by 0; r * r overflows to inf, not
        # to the OverflowError of r ** 2
        r = err / prev_err
        predicted = err * r * r
        prev_err = err
        converged = predicted < _GEOMETRIC_MARGIN * tol
        if converged:
            err = predicted
            break
    return QuadratureResult(
        value=value,
        abs_error_estimate=float(err),
        evaluations=n,
        refinements_used=refinements,
        tail_estimate=0.0,
        converged=converged,
    )


def _level_values(g, policy: TruncationPolicy, conjugate_symmetric: bool):
    """Each level's number, values and weights in turn, for levels 0 to
    ``policy.max_refinements``: one ``g`` call on levels 0 and 1 together,
    then one per level."""
    refinements = 0
    for call in range(policy.max_refinements):
        values = g(call)
        _, weights, _, _, ends = _level(call, conjugate_symmetric)
        start = 0
        for end in ends:
            yield (refinements, values[start:end],
                   None if weights is None else weights[start:end])
            refinements += 1
            start = end


def integrate_real_line(integrand, policy: TruncationPolicy = DEFAULT_POLICY,
                        u_max: float = math.inf,
                        conjugate_symmetric: bool = False) -> QuadratureResult:
    """Integral of `integrand` over |u| <= u_max, by default the whole line.

    u = tan(theta) maps it to theta in [-theta_max, theta_max],
    theta_max = atan(u_max), which :func:`_nested_trapezoid` covers as
    theta = theta_max (2x - 1), x in [0, 1).  Level 0 holds u = 0 and the
    endpoint theta = -theta_max, which is u = -u_max, or on the whole line
    u = tan(-pi/2) = -1.6e16 in floating point.  The endpoint is evaluated
    like any other node: there the weight 2 theta_max sec^2 theta is about
    pi u^2, so the node carries pi times the limit of u^2 f(u), 0 for an
    integrand decaying faster than u^{-2} and pi for the Lorentzian
    1/(1 + u^2).  Decay like an even power |u|^{-2k} gives a smooth
    pi-periodic function of theta, on which the trapezoid rule converges
    exponentially (Trefethen and Weideman); so no tail model is needed and
    ``tail_estimate`` is 0.  Odd powers such as (1 + u^2)^{-3/2} leave a
    kink at theta = +-pi/2 and converge only algebraically (262,144
    evaluations, error 2.4e-11).  A finite ``u_max`` keeps the nodes on an
    integrand's support.  The map has scale 1: a caller whose integrand
    lives on another scale L integrates L f(L u) instead.

    ``conjugate_symmetric=True`` is the caller's promise that
    f(-u) = conj f(u), as for an integrand whose parameters are all real
    (Schwarz reflection).  Then only u <= 0 is evaluated, the mirror nodes
    u > 0 are taken as conjugates, and the value is real.

    ``integrand`` is called as :func:`_nested_trapezoid`'s call contract
    says, on the images u of each call's new nodes, which depend on
    ``u_max`` alone.
    """
    theta_max = math.atan(u_max)

    def g(call):
        x, _, _, line, _ = _level(call, conjugate_symmetric)
        # a finite window maps per call: a cache keyed by u_max would grow
        # with each point
        u, weight = line if u_max == math.inf else _line_images(x, theta_max)
        return integrand(u) * weight

    return _nested_trapezoid(g, policy, conjugate_symmetric)


def integrate_unit_circle(integrand, policy: TruncationPolicy = DEFAULT_POLICY,
                          conjugate_symmetric: bool = False,
                          ) -> QuadratureResult:
    """Contour average (1/2 pi i) oint f(z) dz / z: the mean of f at the
    n-th roots of unity, n = 64, 128, ..., by :func:`_nested_trapezoid` on
    z = exp(2 pi i x).  The trapezoid rule in angle is spectrally accurate
    for integrands analytic in an annulus around |z| = 1 (Trefethen and
    Weideman, SIAM Rev. 2014).

    ``conjugate_symmetric=True`` is the caller's promise that
    f(conj z) = conj f(z), as for an integrand whose parameters are all
    real.  Then only the roots with Im z >= 0 are evaluated, their mirrors
    are taken as conjugates, and the value is real.

    ``integrand`` is called as :func:`_nested_trapezoid`'s call contract
    says, on the images z of each call's new nodes.
    """
    return _nested_trapezoid(
        lambda call: integrand(_level(call, conjugate_symmetric)[2]),
        policy, conjugate_symmetric)


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
        geometric model owes to the drift of the ratio (0 for power laws).

        A power law's remainder is linear in the excess of rings M/2..M over
        the leading term; the map, least-squares fit and Hurwitz zeta sums
        together, depends on (power, alternating, M) alone and is cached
        (:func:`_power_law_fit`), so that a ring costs one dot product."""
        if self.power is None:
            # numpy's |r| (Python's abs can differ in the last bit), then
            # plain floats: np.median and np.ptp cost more than the sort
            mags = np.abs(np.array(rings[-6:], dtype=complex)).tolist()
            ratios = sorted(b / max(a, 1e-300) for a, b in zip(mags, mags[1:]))
            rho = ratios[len(ratios) // 2]   # the median of an odd count
            ratio = -rho if self.alternating else rho
            if ratio >= 1:  # rings that do not decay: no continuation
                return 0j, 0.0
            # the remainder, and its shift if the ratio drifts on as it did
            return (rings[-1] * ratio / (1 - ratio),
                    abs(rings[-1]) * (ratios[-1] - ratios[0])
                    / (1 - ratio) ** 3)
        M = len(rings)
        j = np.arange(M // 2, M + 1)
        sign = (-1.0) ** j if self.alternating else 1.0
        excess = (sign * np.array(rings[M // 2 - 1:], dtype=complex)
                  - self.leading * j ** -float(self.power))
        head, projection = _power_law_fit(self.power, self.alternating, M)
        return complex(self.leading * head + projection @ excess), 0.0

    def error(self, estimates: list) -> float:
        """Error of the last estimate: the larger of the last two changes
        (geometric) or the change over four rings (power law)."""
        pairs = ((1, 2), (2, 3)) if self.power is None else ((1, 5),)
        if len(estimates) < pairs[-1][1]:
            return math.inf
        return max(abs(estimates[-a] - estimates[-b]) for a, b in pairs)


def _power_sums(s, M: int, alternating: bool):
    """sum_{m > M} m^{-s}, or sum_{m > M} (-1)^m m^{-s} if alternating."""
    if not alternating:
        return _hurwitz_zeta(s, M + 1)
    return ((-1.0) ** (M + 1) * 2.0 ** -s * (_hurwitz_zeta(s, (M + 1) / 2)
                                            - _hurwitz_zeta(s, (M + 2) / 2)))


@functools.cache
def _power_law_fit(power: int, alternating: bool, M: int):
    """The parts of the power-law remainder that do not depend on the rings:
    the leading term's tail sum_{m > M} (+-1)^m m^{-power}, and the vector
    that takes the excess of rings M/2..M over the leading term to the
    tail of its fitted corrections, sum_k c_k sum_{m > M} (+-1)^m
    m^{-power-2k}.  The c_k are the least-squares solution on the columns
    (M/j)^e, which lie in [1, 2^e] and keep the fit well conditioned, so
    the vector is that solution's projection (the pseudo-inverse) applied
    to the scaled tail sums.  At most 2 x _MAX_RINGS keys per power."""
    j = np.arange(M // 2, M + 1)
    powers = power + 2 * np.arange(5)
    sums = _power_sums(powers, M, alternating)
    pinv = np.linalg.lstsq((M / j)[:, None] ** powers[1:],
                           np.eye(len(j)), rcond=None)[0]
    projection = (sums[1:] * float(M) ** powers[1:]) @ pinv
    projection.setflags(write=False)   # one array for every caller
    return sums[0], projection


def sum_over_integers(term, tail: Tail = Tail(),
                      policy: TruncationPolicy = DEFAULT_POLICY,
                      ) -> QuadratureResult:
    """Sum of term(m) over all integers m.

    Symmetric rings r_M = term(M) + term(-M) are accumulated outward.  From
    ring 8 on, the running sum is corrected by the remainder that the
    caller's tail model predicts, until the model's error estimate, never
    below an ulp of |estimate|, is below
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
        if not cmath.isfinite(total):
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
        # estimates that repeat bit for bit show no change, not no error:
        # the estimate is known to its rounding at best
        err = max(tail.error(estimates), drift, math.ulp(abs(estimates[-1])))
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


class TermGrid:
    """Every m-term of a sum-integral's integrand on the nodes of each
    quadrature call, for one sum of integrals.

    A family of terms is given by its mathematics alone: ``direct(m)``, the
    integrand of term m = 0 or m = 1; ``step(ms, points)``, which takes an
    array of K values of m and returns the (K, n) array of term m + 2 over
    term m at the points; and ``node_map(nodes)``, which turns a call's
    nodes into the points at which the terms are evaluated and a weight by
    which each term's values are multiplied: a change of variables, such as
    a scale u = L t with weight L on the real line, or a map of the circle
    onto itself with its Jacobian.

    Every term gets the same nodes on an engine call (the call contract of
    :func:`_nested_trapezoid`), so the grid maps them once per call and
    builds the terms on them from two seeds.  Only the terms m = 0 and
    m = 1 are evaluated directly: they seed the even and the odd chain.
    Term m > 1 is term m - 2 times step(m - 2), and term m < 0 is term
    m + 2 divided by step(m).  So the seeds and the chains of the first two
    levels are built once, on their points together.

    Each call keeps its points, its weight and, per seed, one row list per
    direction: both start at the seed row, so term m is row |m - seed| / 2
    of the list on its side of the seed (term -(2k + 1) is row k + 1 of the
    odd downward list).  A list too short for a term grows through that
    row, and on call 0 _LOOK_AHEAD rows beyond, in one step call and one
    ``np.multiply.accumulate`` (upward) or ``np.divide.accumulate``
    (downward).  Both keep the left-to-right order of the one-step
    recurrence; only the last bit of a complex product can differ from an
    elementwise ``v * step``, which numpy rounds in another loop, and
    numpy takes that loop for a block of one new row, so a block has two
    at least.  On call 0 :func:`sum_over_integers` asks for every term in
    turn, 0, +-1, +-2, ..., and the look-ahead rows cost rational
    arithmetic only, on a call whose seed is evaluated anyway.  Later calls
    refine only the few terms whose quadrature has not yet converged, near
    m = 0, so there a list grows to the term asked for, or one row beyond
    it, and no further.  Rows the m-sum never asks for change no other row.
    """

    def __init__(self, direct, step, node_map):
        self._direct = (direct(0), direct(1))
        self._step = step
        self._node_map = node_map
        # per call: its points, its weight and {seed: (upward rows,
        # downward rows)}
        self._calls: list[tuple[np.ndarray, object, dict]] = []

    def integrand(self, m_sum: int):
        """Term ``m_sum`` as an integrand for an engine: on the engine's
        c-th call, the weight times the term at the mapped points of
        call c."""
        calls = itertools.count()

        def f(nodes):
            call = next(calls)
            if call == len(self._calls):
                self._calls.append((*self._node_map(nodes), {}))
            return self._calls[call][1] * self._term(m_sum, call)

        return f

    def sum_of_integrals(self, engine, tail: Tail,
                         policy: TruncationPolicy) -> QuadratureResult:
        """Sum over integers m of the inner integrals
        ``engine(self.integrand(m), policy, conjugate_symmetric=True)``,
        with ``engine`` one of the quadratures: the sum-integrals' terms
        have real parameters, so each is conjugate-symmetric.

        The result is the outer sum's, except that it counts the
        evaluations of the inner integrals, adds their error estimates to
        its own, and is converged only if they all converged too.  The
        inner integrals cover their whole contour, so the tail estimate is
        the outer sum's alone.
        """
        inner: list[QuadratureResult] = []

        def term(m_sum: int) -> complex:
            inner.append(engine(self.integrand(m_sum), policy,
                                conjugate_symmetric=True))
            return inner[-1].value

        outer = sum_over_integers(term, tail, policy)
        return replace(
            outer, evaluations=sum(res.evaluations for res in inner),
            abs_error_estimate=outer.abs_error_estimate + sum(
                res.abs_error_estimate for res in inner),
            converged=outer.converged and all(res.converged
                                              for res in inner))

    def _term(self, m_sum: int, call: int) -> np.ndarray:
        points, _, chains = self._calls[call]
        seed = m_sum % 2
        if seed not in chains:
            row = self._direct[seed](points)
            chains[seed] = ([row], [row])
        stride = 2 if m_sum >= seed else -2
        rows = chains[seed][stride < 0]
        k = (m_sum - seed) // stride
        if k >= len(rows):
            # at least two new rows: numpy accumulates a block of one new
            # row by its elementwise loop, whose last bit can differ from
            # that of longer blocks, and a row must not depend on how its
            # list grew
            last = k + _LOOK_AHEAD if call == 0 else max(k, len(rows) + 1)
            ms = seed + stride * np.arange(len(rows), last + 1)
            block = np.empty((len(ms) + 1, len(points)), dtype=complex)
            block[0] = rows[-1]
            # term m is term m - 2 times step(m - 2) upward, and term
            # m + 2 over step(m) downward
            block[1:] = self._step(ms - 2 if stride > 0 else ms, points)
            (np.multiply if stride > 0 else np.divide).accumulate(
                block, axis=0, out=block)
            rows.extend(block[1:])
        return rows[k]
