"""Adaptive real-line, unit-circle, and bilateral-sum engines."""

import math

import numpy as np
import pytest

from pentaq.integrators import (
    QuadratureResult,
    Tail,
    TruncationPolicy,
    integrate_real_line,
    integrate_unit_circle,
    sum_over_integers,
)
from pentaq.special_functions import ConvergenceError


class TestPolicy:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(sum_tail_tol=-1)
        with pytest.raises(ValueError):
            TruncationPolicy(max_refinements=0)

    def test_policy_doubled_is_tighter(self):
        base = TruncationPolicy()
        tight = base.doubled()
        assert tight.quadrature_rel_tol < base.quadrature_rel_tol


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
        # each doubling evaluates only the new odd nodes, none at |u| = u_max
        seen = []

        def f(u):
            seen.append(u)
            return np.exp(-(u**2))

        res = integrate_real_line(f, u_max=u_max)
        r = res.refinements_used
        assert res.evaluations == 64 * 2**r
        # _tune_scale's probes (at most two points each) come first; then
        # call j passes level j's new nodes: 64, 64, 128, 256, ...
        probes, levels = seen[:-r - 1], seen[-r - 1:]
        assert all(p.size <= 2 for p in probes)
        assert [lv.size for lv in levels] == [64] + [32 * 2**j
                                                     for j in range(1, r + 1)]
        nodes = np.concatenate(levels)
        assert nodes.size == res.evaluations
        assert np.all(np.isfinite(nodes)) and np.all(np.abs(nodes) < u_max)
        assert np.unique(nodes).size == nodes.size
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
        # each doubling evaluates only the new odd roots
        a = 0.45 + 0.2j
        seen = []

        def f(z):
            seen.append(z)
            return 1 / (1 - a * z)

        res = integrate_unit_circle(f)
        n = 64 * 2**res.refinements_used
        assert res.evaluations == n
        roots = np.exp(2j * np.pi * np.arange(n) / n)
        nodes = np.concatenate(seen)
        assert nodes.size == n
        assert np.allclose(np.sort_complex(nodes), np.sort_complex(roots),
                           rtol=0, atol=1e-15)
        assert abs(res.value - np.mean(1 / (1 - a * roots))) <= 1e-15


class TestBilateralSum:
    def test_two_sided_geometric(self):
        res = sum_over_integers(lambda m: 2.0 ** (-abs(m)))
        assert res.value == pytest.approx(3.0, rel=1e-12)

    def test_kronecker_delta(self):
        res = sum_over_integers(lambda m: 1.0 if m == 0 else 0.0)
        assert res.value == pytest.approx(1.0)

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
        closed = Tail(power=s, alternating=True)._power_sums(s, M)
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
