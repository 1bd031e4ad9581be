"""Adaptive real-line, unit-circle, and bilateral-sum engines."""

import math
from dataclasses import asdict

import numpy as np
import pytest

import pentaq.integrators as integrators
from pentaq.identities import (
    eval_gamma_lhs,
    eval_hyperbolic_lhs,
    eval_index_lhs,
)
from pentaq.integrators import (
    _FIRST_NODES,
    _level,
    _level_values,
    _nested_trapezoid,
    _power_sums,
    QuadratureResult,
    Tail,
    TermGrid,
    TruncationPolicy,
    integrate_real_line,
    integrate_unit_circle,
    sum_over_integers,
)
from pentaq.kernels import sample_gamma, sample_hyperbolic, sample_index
from pentaq.special_functions import ConvergenceError, ModularPair


class TestPolicy:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(sum_tail_tol=-1)
        with pytest.raises(ValueError):
            TruncationPolicy(max_refinements=0)
        with pytest.raises(ValueError):
            TruncationPolicy(quadrature_abs_tol=float("nan"))
        with pytest.raises(ValueError):
            TruncationPolicy(max_refinements=2.5)
        # the budget bounds _level's cache, and an infinite tolerance
        # would call a level-1 integral converged
        with pytest.raises(ValueError):
            TruncationPolicy(max_refinements=17)
        for name in ("quadrature_abs_tol", "quadrature_rel_tol",
                     "sum_tail_tol"):
            with pytest.raises(ValueError):
                TruncationPolicy(**{name: math.inf})

    def test_policy_doubled_is_tighter(self):
        base = TruncationPolicy()
        tight = base.doubled()
        assert tight.quadrature_rel_tol < base.quadrature_rel_tol

    def test_policy_doubled_stays_within_budget(self):
        # the largest budget doubles to itself, not to a refused policy
        assert TruncationPolicy(max_refinements=15).doubled() \
            .max_refinements == 16


class TestRealLine:
    def test_gaussian(self):
        res = integrate_real_line(lambda u: np.exp(-(u**2)))
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-11)
        assert res.converged

    def test_lorentzian(self):
        res = integrate_real_line(lambda u: 1 / (1 + u**2))
        assert res.value == pytest.approx(math.pi, rel=1e-8)

    def test_lorentzian_squared(self):
        res = integrate_real_line(lambda u: 1 / (1 + u**2) ** 2)
        assert res.value == pytest.approx(math.pi / 2, rel=1e-10)

    def test_shifted_center(self):
        res = integrate_real_line(lambda u: np.exp(-((u - 7.5) ** 2)))
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-10)

    def test_complex_valued(self):
        res = integrate_real_line(lambda u: np.exp(-(u**2)) * (1 + 2j))
        assert res.value == pytest.approx((1 + 2j) * math.sqrt(math.pi),
                                          rel=1e-10)

    def test_error_estimate_is_conservative(self):
        res = integrate_real_line(lambda u: 1 / (1 + u**2))
        true_err = abs(res.value - math.pi)
        assert true_err <= 3 * max(res.abs_error_estimate, 1e-15)

    def test_record_shape(self):
        rec = integrate_real_line(lambda u: np.exp(-(u**2))).to_record()
        for key in ("value", "abs_error_estimate", "evaluations",
                    "refinements_used", "tail_estimate", "converged"):
            assert key in rec

    @pytest.mark.parametrize("f, expected", [
        (lambda u: 1 / (1 + u**2), math.pi),
        (lambda u: 1 / (1 + (u - 3) ** 2), math.pi),
        (lambda u: 1 / (1 + u**2) ** 2, math.pi / 2),
    ], ids=["lorentzian", "shifted", "squared"])
    def test_algebraic_decay_needs_no_tail(self, f, expected):
        # even-power decay is smooth and periodic in theta on the whole
        # line, so the trapezoid rule converges exponentially with no tail
        res = integrate_real_line(f)
        assert res.value == pytest.approx(expected, rel=1e-13)
        assert res.tail_estimate == 0

    @pytest.mark.parametrize("u_max", [8.0, math.inf])
    def test_levels_nest(self, u_max):
        # each doubling evaluates only the new odd nodes, and the first
        # call covers levels 0 and 1; level 0 holds u = 0 and the endpoint
        # u = -u_max (tan(-pi/2) on the whole line)
        seen = []

        def f(u):
            seen.append(u)
            return np.exp(-(u**2))

        res = integrate_real_line(f, u_max=u_max)
        r = res.refinements_used
        N = _FIRST_NODES
        assert res.evaluations == N * 2**r
        # call 0 passes levels 0 and 1, N + N nodes, and call c level
        # c + 1's new nodes, 2N, 4N, ...; the integrand sees no other value
        assert [lv.size for lv in seen] == [2 * N] + [N // 2 * 2**j
                                                      for j in range(2, r + 1)]
        nodes = np.concatenate(seen)
        assert nodes.size == res.evaluations
        assert np.all(np.isfinite(nodes)) and np.all(np.abs(nodes) <= u_max)
        assert np.unique(nodes).size == nodes.size
        assert seen[0][N // 2] == 0
        assert seen[0][0] == np.tan(-math.atan(u_max)) == nodes.min()
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=0,
                                          abs=1e-13)

    def test_tighter_policy_does_not_hurt(self):
        loose = integrate_real_line(lambda u: 1 / (1 + u**2))
        tight = integrate_real_line(lambda u: 1 / (1 + u**2),
                                    policy=TruncationPolicy().doubled())
        assert abs(tight.value - math.pi) <= 10 * max(
            abs(loose.value - math.pi), 1e-14)


class TestUnitCircle:
    def test_constant(self):
        res = integrate_unit_circle(lambda z: np.ones_like(z))
        assert res.value == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 5, -3])
    def test_pure_powers_vanish(self, k):
        res = integrate_unit_circle(lambda z: z**k)
        assert abs(res.value) < 1e-13

    def test_geometric_kernel(self):
        a = 0.45 + 0.2j
        res = integrate_unit_circle(lambda z: 1 / (1 - a * z))
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(ConvergenceError, match="nan"):
            integrate_unit_circle(lambda z: np.full(z.shape, np.nan))

    def test_doubling_detects_convergence(self):
        res = integrate_unit_circle(lambda z: np.exp(z))
        assert res.value == pytest.approx(1.0, abs=1e-13)
        assert res.converged

    def test_levels_nest(self):
        # each doubling evaluates only the new odd roots; the first call
        # covers levels 0 and 1, the 64 roots and the 64 odd roots of 128
        a = 0.45 + 0.2j
        seen = []

        def f(z):
            seen.append(z)
            return 1 / (1 - a * z)

        res = integrate_unit_circle(f)
        r = res.refinements_used
        n = _FIRST_NODES * 2**r
        assert res.evaluations == n
        assert [lv.size for lv in seen] == [2 * _FIRST_NODES] + [
            _FIRST_NODES // 2 * 2**j for j in range(2, r + 1)]
        assert np.allclose(seen[0][:_FIRST_NODES]**_FIRST_NODES, 1,
                           rtol=0, atol=1e-13)
        roots = np.exp(2j * np.pi * np.arange(n) / n)
        nodes = np.concatenate(seen)
        assert nodes.size == n
        assert np.allclose(np.sort_complex(nodes), np.sort_complex(roots),
                           rtol=0, atol=1e-15)
        assert abs(res.value - np.mean(1 / (1 - a * roots))) <= 1e-15


def _recording(f, seen):
    def g(x):
        seen.append(x)
        return f(x)
    return g


# conjugate-symmetric integrands, f(conj x) = conj f(x), with their values
SYMMETRIC = {
    integrate_real_line: (lambda u: np.exp(-u**2 + 1j * u),
                          math.sqrt(math.pi) * math.exp(-0.25)),
    integrate_unit_circle: (lambda z: np.exp(z) / (1 - 0.4 * z), 1.0),
}


@pytest.mark.parametrize("engine", list(SYMMETRIC),
                         ids=lambda e: e.__name__)
class TestConjugateSymmetric:
    def test_half_nodes_match_full_rule(self, engine):
        # same levels and value as the full-node rule, to rounding, from
        # the closed half of the nodes: u <= 0, or Im z >= 0
        f, expected = SYMMETRIC[engine]
        half_seen = []
        full = engine(f)
        half = engine(_recording(f, half_seen), conjugate_symmetric=True)
        assert half.value.imag == 0
        assert half.value == pytest.approx(full.value, rel=0, abs=4e-16)
        assert half.value == pytest.approx(expected, rel=1e-13)
        assert half.refinements_used == full.refinements_used
        r = half.refinements_used
        N = _FIRST_NODES
        assert half.evaluations == full.evaluations == N * 2**r
        # call 0 covers levels 0 and 1: 33 + 32 nodes
        sizes = [lv.size for lv in half_seen]
        assert sizes == [N // 2 + 1 + N // 2] + [N // 4 * 2**j
                                                 for j in range(2, r + 1)]
        nodes = np.concatenate(half_seen)
        if engine is integrate_real_line:
            assert np.all(nodes <= 0) and nodes.max() == 0
        else:
            assert np.all(nodes.imag >= 0)
            assert nodes[0] == 1
            assert nodes[N // 2] == pytest.approx(-1, abs=1e-15)

    def test_non_symmetric_integrand_gets_every_node(self, engine):
        # (1 + 2i) f is not conjugate-symmetric; without the keyword the
        # engine evaluates every node k/n of the rule, mirrors included
        f, expected = SYMMETRIC[engine]
        seen = []
        res = engine(_recording(lambda x: (1 + 2j) * f(x), seen))
        nodes = np.concatenate(seen)
        if engine is integrate_real_line:
            x = np.arctan(nodes) / np.pi + 0.5
        else:
            x = np.angle(nodes) / (2 * np.pi) % 1
        n = res.evaluations
        assert np.sort(x) == pytest.approx(np.arange(n) / n, rel=0,
                                           abs=1e-15)
        assert res.value == pytest.approx((1 + 2j) * expected, rel=1e-13)


def _stops(levels, policy, geometric=True):
    """The nested trapezoid rule's running sum and stopping tests over
    ``levels``, which yields each level's number, values and weights (None
    for the full rule) in turn: the reference for the engine.  Without
    ``geometric`` it has the difference stop d_j < tol alone, the rule
    that the geometric stop may only shorten."""
    total, prev, prev_err = 0j, math.nan, math.nan
    for r, values, weights in levels:
        n = _FIRST_NODES << r
        if weights is None:
            total += complex(np.sum(values))
        else:
            total += float(weights @ values.real)
        value = total / n
        err = abs(value - prev)
        prev = value
        tol = max(policy.quadrature_abs_tol,
                  policy.quadrature_rel_tol * abs(value))
        converged = err < tol
        if converged:
            break
        if geometric and r >= 2:
            r_ratio = err / prev_err
            if err * r_ratio * r_ratio < 1e-6 * tol:
                err = err * r_ratio * r_ratio
                converged = True
                break
        prev_err = err
    return QuadratureResult(value, float(err), n, r, 0.0, converged)


def _one_call_per_level(h, policy, conjugate_symmetric):
    """The nested trapezoid rule as one integrand call per level: the
    reference for the engine's first call on levels 0 and 1 together."""
    def levels():
        for r in range(policy.max_refinements + 1):
            n = _FIRST_NODES << r
            k = np.arange(1, n, 2) if r else np.arange(n)
            weights = None
            if conjugate_symmetric:
                k = k[2 * k <= n]
                weights = np.where((k == 0) | (2 * k == n), 1.0, 2.0)
            yield r, h(k / n), weights

    return _stops(levels(), policy)


def _difference_stop(g, policy, conjugate_symmetric=False):
    """``_nested_trapezoid`` with the difference stop alone, on the same
    integrand calls."""
    return _stops(_level_values(g, policy, conjugate_symmetric), policy,
                  geometric=False)


class TestFirstCall:
    # 1 / (1 - rho e^{2 pi i x}) has mean 1 and aliasing error rho^n: it
    # stops at level 1 (rho = 0.1), at level 3 (rho = 0.9), at level 2 by
    # the geometric stop (rho = 0.85: d_2 = 9e-10, predicted error 9e-19),
    # or runs out of its three doublings (rho = 0.999)
    @pytest.mark.parametrize("rho, max_refinements, stop", [
        (0.1, 12, 1), (0.9, 12, 3), (0.85, 12, 2), (0.999, 3, None)],
        ids=["level-1", "deeper", "geometric", "exhausted"])
    @pytest.mark.parametrize("conjugate_symmetric", [False, True],
                             ids=["full", "half"])
    def test_matches_one_call_per_level(self, rho, max_refinements, stop,
                                        conjugate_symmetric):
        # every result field, bit for bit
        policy = TruncationPolicy(max_refinements=max_refinements)

        def h(x):
            return 1 / (1 - rho * np.exp(2j * np.pi * x))

        calls = []

        def g(call):
            calls.append(call)
            return h(_level(call, conjugate_symmetric)[0])

        res = _nested_trapezoid(g, policy, conjugate_symmetric)
        assert asdict(res) == asdict(
            _one_call_per_level(h, policy, conjugate_symmetric))
        if stop is None:
            assert not res.converged
            assert res.refinements_used == max_refinements
        else:
            assert res.converged and res.refinements_used == stop
        # levels 0 and 1 share call 0; each later level has a call
        assert calls == list(range(res.refinements_used))


def _both_rules(monkeypatch, compute):
    """``compute()`` under the engine's rule and under the difference stop
    alone, with every quadrature result of each run in call order."""
    runs = []
    for rule in (_nested_trapezoid, _difference_stop):
        results = []

        def recording(g, policy, conjugate_symmetric=False, rule=rule):
            results.append(rule(g, policy, conjugate_symmetric))
            return results[-1]

        monkeypatch.setattr(integrators, "_nested_trapezoid", recording)
        runs.append((compute(), results))
    return runs


def _lorentzian(a, c):
    return lambda u: a / np.pi / ((u - c) ** 2 + a**2)


def _narrow_features():
    """Unit-mass bumps of width 1 to 1e-3 at six centres: Gaussians,
    Lorentzians and squared Lorentzians, 126 cases."""
    for w in (1, 0.3, 0.1, 0.03, 0.01, 0.003, 0.001):
        for c in (0, 0.37, 1.3, 5, -2.2, 40):
            yield lambda u, w=w, c=c: (np.exp(-((u - c) / w) ** 2)
                                       / (w * math.sqrt(math.pi)))
            yield _lorentzian(w, c)
            yield lambda u, w=w, c=c: (2 * w**3 / np.pi
                                       / ((u - c) ** 2 + w**2) ** 2)


class TestGeometricStop:
    """The geometric stop against the difference stop alone, on integrals
    of known value 1 (tol = 1e-10)."""

    def _compare(self, monkeypatch, engine, integrands):
        """The levels of both rules on each integrand, and the actual error
        of every quadrature that the geometric stop ended sooner."""
        sooner = []
        for f in integrands:
            (new, _), (old, _) = _both_rules(monkeypatch,
                                             lambda: engine(f))
            assert new.refinements_used <= old.refinements_used
            if new.refinements_used < old.refinements_used:
                assert new.converged
                sooner.append(abs(new.value - 1))
        return sooner

    def test_geometric_convergence_stops_sooner_within_tol(self,
                                                           monkeypatch):
        # a circle pole at 1/rho or a line pole at distance a from the real
        # axis: the error falls geometrically in n; 42 cases
        circle = [lambda z, p=rho * np.exp(1j * phi): 1 / (1 - p * z)
                  for rho in (0.5, 0.8, 0.9, 0.95, 0.97, 0.98, 0.99, 0.995)
                  for phi in (0, 0.7, 2)]
        line = [_lorentzian(a, c) for a in (1, 0.3, 0.1, 0.05, 0.02, 0.01)
                for c in (0, 0.4, 3)]
        sooner = (self._compare(monkeypatch, integrate_unit_circle, circle)
                  + self._compare(monkeypatch, integrate_real_line, line))
        assert len(sooner) == 16
        assert max(sooner) < 1e-10

    def test_algebraic_decay_keeps_every_level(self, monkeypatch):
        # (1 + u^2)^{-3/2} converges algebraically: the ratio of successive
        # differences stays at 1/4, and the rule needs all 12 doublings
        (new, _), (old, _) = _both_rules(monkeypatch, lambda: (
            integrate_real_line(lambda u: (1 + u**2) ** -1.5)))
        assert new == old
        assert new.evaluations == 262_144

    def test_narrow_features_never_stop_on_a_wrong_value(self, monkeypatch):
        # a stop the geometric test makes is within tol; the difference
        # stop's own early stops at level 1, where levels 0 and 1 miss the
        # bump, are unchanged
        sooner = self._compare(monkeypatch, integrate_real_line,
                               _narrow_features())
        assert len(sooner) == 27
        assert max(sooner) < 1e-10

    def test_pentagon_integrals_never_refine_deeper(self, monkeypatch):
        # every inner integral of 20 gamma, 20 index and 30 hyperbolic
        # left-hand sides stops at or before the difference stop's level
        rng = np.random.default_rng(7)
        points = ([(eval_gamma_lhs, sample_gamma(rng)) for _ in range(20)]
                  + [(eval_index_lhs, sample_index(rng)) for _ in range(20)]
                  + [(eval_hyperbolic_lhs, sample_hyperbolic(rng, omega))
                     for omega in (ModularPair(0.4 + 0.9j, 1.0),
                                   ModularPair(0.3 + 0.7j, 1.1),
                                   ModularPair(0.6 + 1.3j, 0.9))
                     for _ in range(10)])
        sooner = 0
        for lhs, p in points:
            (_, new), (_, old) = _both_rules(monkeypatch, lambda: lhs(p))
            # the m-sums may stop at different rings; the i-th quadrature
            # of both runs is the same m-term
            for a, b in zip(new, old):
                assert a.refinements_used <= b.refinements_used
                sooner += a.refinements_used < b.refinements_used
        assert sooner > 0


def _numpy_geometric_remainder(rings, alternating):
    """The geometric Tail.remainder as a numpy expression: the reference
    for the plain-float version."""
    mags = np.abs(np.array(rings[-6:], dtype=complex))
    ratios = mags[1:] / np.maximum(mags[:-1], 1e-300)
    rho = float(np.median(ratios))
    ratio = -rho if alternating else rho
    if ratio >= 1:
        return 0j, 0.0
    return (rings[-1] * ratio / (1 - ratio),
            abs(rings[-1]) * float(np.ptp(ratios)) / (1 - ratio) ** 3)


class TestBilateralSum:
    @pytest.mark.parametrize("alternating", [False, True],
                             ids=["plain", "alternating"])
    def test_geometric_remainder_matches_numpy(self, alternating):
        # bit for bit, on random decaying rings, rings holding an exact
        # zero (the 1e-300 guard, before and as the last ring), rings whose
        # ratio drifts upward, and rings that grow (no continuation)
        rng = np.random.default_rng(17)
        cases = []
        for _ in range(300):
            n = int(rng.integers(8, 40))
            rho = rng.uniform(0.02, 0.999)
            cases.append(rho ** np.arange(n) * (rng.normal(size=n)
                                                + 1j * rng.normal(size=n)))
        decaying = 0.5 ** np.arange(12) * (1 + 0.5j)
        for k in (-1, -3):
            zeroed = decaying.copy()
            zeroed[k] = 0
            cases.append(zeroed)
        cases.append(np.cumprod(np.linspace(0.2, 0.95, 12)) * (1 - 2j))
        cases.append(1.1 ** np.arange(12) + 0j)
        tail = Tail(alternating=alternating)
        for rings in cases:
            rings = [complex(r) for r in rings]
            assert tail.remainder(rings) == \
                _numpy_geometric_remainder(rings, alternating)

    def test_two_sided_geometric(self):
        res = sum_over_integers(lambda m: 2.0 ** (-abs(m)))
        assert res.value == pytest.approx(3.0, rel=1e-12)

    def test_kronecker_delta(self):
        res = sum_over_integers(lambda m: 1.0 if m == 0 else 0.0)
        assert res.value == pytest.approx(1.0)

    def test_error_estimate_floored_at_rounding(self):
        # the estimates repeat bit for bit, but a repeat shows no change,
        # not an error below the estimate's own rounding: no sum reaches a
        # tolerance below an ulp of its value
        res = sum_over_integers(lambda m: 1.0 if m == 0 else 0.0,
                                policy=TruncationPolicy(sum_tail_tol=1e-30))
        assert res.value == 1.0
        assert not res.converged
        assert res.abs_error_estimate >= math.ulp(1.0)

    def test_algebraic_tail_coth(self):
        # sum 1/(1+m^2) = pi coth(pi); algebraic decay stresses the tail fit
        res = sum_over_integers(
            lambda m: 1 / (1 + m**2), Tail(power=2, leading=2.0),
            policy=TruncationPolicy(sum_tail_tol=1e-6),
        )
        expected = math.pi / math.tanh(math.pi)
        assert res.value == pytest.approx(expected, rel=1e-5)
        assert abs(res.value - expected) <= 3 * res.abs_error_estimate

    def test_alternating_algebraic(self):
        # sum_{m>=1} (-1)^m / m^3 twice (symmetric term), eta(3) = 3 zeta(3)/4
        from scipy.special import zeta

        res = sum_over_integers(
            lambda m: (-1) ** abs(m) / abs(m) ** 3 if m != 0 else 0.0,
            Tail(power=3, leading=2.0, alternating=True))
        expected = -2 * 0.75 * zeta(3)
        assert res.value == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("s", [3, 5, 11])
    @pytest.mark.parametrize("M", [8, 13, 64])
    def test_alternating_hurwitz_tail(self, s, M):
        # sum_{m>M} (-1)^m m^{-s} in closed form against a direct partial
        # sum; halving its last term leaves an error of order s N^{-s-1}
        m = np.arange(M + 1, 1_000_002, dtype=float)
        terms = (-1.0) ** m * m ** -float(s)
        terms[-1] *= 0.5
        closed = _power_sums(s, M, alternating=True)
        assert closed == pytest.approx(math.fsum(terms), rel=1e-14, abs=0)

    def test_linearity(self):
        f = lambda m: 2.0 ** (-abs(m))
        g = lambda m: 3.0 ** (-abs(m)) * (1 + 1j)
        combined = sum_over_integers(lambda m: 2 * f(m) + g(m))
        separate = 2 * sum_over_integers(f).value + sum_over_integers(g).value
        assert combined.value == pytest.approx(separate, rel=1e-9)

    def test_divergent_series_detected(self):
        with pytest.raises(ConvergenceError):
            sum_over_integers(lambda m: float(1 + m**2))

    def test_non_finite_ring_raises(self):
        with pytest.raises(ConvergenceError, match=r"\|m\| = 10"):
            sum_over_integers(
                lambda m: math.nan if abs(m) == 10 else 2.0 ** (-abs(m)))

    def test_result_fields(self):
        res = sum_over_integers(lambda m: 2.0 ** (-abs(m)))
        assert isinstance(res, QuadratureResult)
        assert res.evaluations > 0
        assert res.converged


def _geometric_family(rho: float, a: float):
    """Term m of a toy sum-integral: rho^|m| / (1 - a z) on the unit
    circle, whose mean is rho^|m| for 0 < a < 1 (1/(1 - a^n) times that on
    n roots of unity), and its step rho^(|m + 2| - |m|)."""
    def direct(m):
        return lambda z: rho ** abs(m) / (1 - a * z)

    def step(ms, z):
        return rho ** (np.abs(ms + 2) - np.abs(ms))[:, None] + 0 * z

    return direct, step


class TestTermGrid:
    # how sum_of_integrals merges the inner integrals into the m-sum's
    # result, on sums of closed form: (1 + rho)/(1 - rho), or 1025 terms
    # of 1 when rho = 1
    @pytest.mark.parametrize("rho, a, policy, value, converged", [
        (0.5, 0.5, TruncationPolicy(), 3.0, True),
        # two levels cannot resolve the pole at 1/0.95, so every inner
        # integral is unconverged, at 1/(1 - 0.95^128) times its mean
        (0.5, 0.95, TruncationPolicy(max_refinements=1),
         3.0 / (1 - 0.95**128), False),
        # rings that do not decay: the m-sum gives up after 512 rings
        (1.0, 0.5, TruncationPolicy(), 1025.0, False),
    ], ids=["converged", "inner-unconverged", "outer-unconverged"])
    def test_sum_of_integrals_merges_inner_results(
            self, monkeypatch, rho, a, policy, value, converged):
        inner, outer = [], []

        def engine(f, policy, conjugate_symmetric):
            assert conjugate_symmetric is True
            inner.append(integrate_unit_circle(f, policy,
                                               conjugate_symmetric))
            return inner[-1]

        def recording_sum(term, tail, policy):
            outer.append(sum_over_integers(term, tail, policy))
            return outer[-1]

        # the grid reaches the m-sum through the module global
        monkeypatch.setattr(integrators, "sum_over_integers", recording_sum)
        direct, step = _geometric_family(rho, a)
        res = TermGrid(direct, step, lambda z: (z, 1.0)).sum_of_integrals(
            engine, Tail(), policy)

        [out] = outer
        assert len(inner) == 2 * out.refinements_used + 1
        assert res.value == out.value
        assert res.value == pytest.approx(value, rel=1e-10)
        assert res.evaluations == sum(r.evaluations for r in inner)
        assert res.abs_error_estimate == out.abs_error_estimate + sum(
            r.abs_error_estimate for r in inner)
        assert res.converged is converged
        assert res.converged == (out.converged
                                 and all(r.converged for r in inner))
        assert res.refinements_used == out.refinements_used
        assert res.tail_estimate == out.tail_estimate
