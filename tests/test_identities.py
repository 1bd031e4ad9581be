"""Identity evaluators: resolved conventions pass, printed ones show deficits."""

import json
import time
import warnings
from dataclasses import replace
from functools import partial

import mpmath as mp
import numpy as np
import pytest

from pentaq.identities import (
    DEFAULT_TARGETS,
    IdentityId,
    _beta_integrand,
    _cluster_at_one,
    _gamma_term_integrand,
    _gate,
    _gamma_step,
    _hyperbolic_integrand,
    _index_prefactor,
    _index_step,
    _index_term_integrand,
    _pole_strip_map,
    equivalence_check_gamma_rhs,
    eval_beta_lhs,
    eval_beta_rhs,
    eval_gamma_lhs,
    eval_gamma_rhs,
    eval_hyperbolic_rhs,
    eval_index_lhs,
    eval_index_rhs,
    gamma_reflection_factor,
    limit_study_omega,
    limit_study_q_to_1,
    verify_classical_pentagon,
    verify_operator_pentagon,
    verify_pentagon_beta,
    verify_pentagon_gamma,
    verify_pentagon_hyperbolic,
    verify_pentagon_index,
)
from pentaq.kernels import (
    BetaParams,
    GammaParams,
    IndexParams,
    b_hyp,
    sample_beta,
    sample_gamma,
    sample_hyperbolic,
    sample_index,
)
from pentaq.integrators import (
    _FIRST_NODES,
    _level,
    DEFAULT_POLICY,
    TermGrid,
    TruncationPolicy,
    integrate_real_line,
    integrate_unit_circle,
)
from pentaq.special_functions import ConvergenceError, ModularPair, log_gamma


INDEX_POINT = IndexParams.balanced(0.12, 0.21, 0.17, 0.08,
                                   1, -2, 0, 1, 0.35)
GAMMA_POINT = GammaParams.balanced(0.12, 0.21, 0.17, 0.08,
                                   1, -2, 0, 1)

# the points of acceptance criteria 3, 4 and 7, drawn in the same order
CRITERION_3_PAIRS = (ModularPair(0.4 + 0.9j, 1.0),
                     ModularPair(0.3 + 0.7j, 1.1),
                     ModularPair(0.6 + 1.3j, 0.9))


def _circle_levels(count: int) -> list:
    """The new nodes of integrate_unit_circle's first ``count`` levels: all
    64 roots, then the odd roots of 128, 256, ..."""
    levels = [np.exp(2j * np.pi * np.arange(64) / 64)]
    for j in range(1, count):
        n = 64 * 2**j
        levels.append(np.exp(2j * np.pi * np.arange(1, n, 2) / n))
    return levels


def _line_levels(count: int) -> list:
    """The new nodes of integrate_real_line's first ``count`` levels on the
    whole line, mapped as eval_gamma_lhs maps them at delta = min(alpha,
    beta) = 0.4, the top of sample_gamma's box, so as far out as for any
    sampled point: u = _pole_strip_map(tan(theta), 0.4), x = k/n, all 64 of
    them and then the odd k of 128, 256, ...  Level 2 reaches
    |u| = 1.4e8; level 0 holds u = 0 twice, as the centre and as the image
    of the endpoint tan(-pi/2) = -1.6e16."""
    levels = []
    for j in range(count):
        n = 64 * 2**j
        x = (np.arange(1, n, 2) if j else np.arange(n)) / n
        levels.append(_pole_strip_map(np.tan(np.pi * (x - 0.5)), 0.4)[0])
    return levels


def _index_term(p, m_sum, signed):
    """An index term integrand with the prefactor eval_index_lhs passes."""
    return _index_term_integrand(p, m_sum, signed, _index_prefactor(p))


def _identity_map(nodes):
    """A term grid's node map that evaluates the terms at the nodes."""
    return nodes, 1.0


def _index_grid(p, signed):
    return TermGrid(partial(_index_term, p, signed=signed),
                    _index_step(p), _identity_map)


def _gamma_grid(p, signed):
    return TermGrid(partial(_gamma_term_integrand, p, signed=signed),
                    _gamma_step(p), _identity_map)


class TestOperatorAndClassical:
    def test_operator_report_exact(self):
        from fractions import Fraction

        rep = verify_operator_pentagon(6, Fraction(1, 2))
        assert rep.identity_id is IdentityId.OPERATOR
        assert rep.passed
        assert rep.abs_residual == 0.0

    def test_classical_random_points(self, rng):
        for _ in range(50):
            x = rng.uniform(0.05, 0.9)
            y = rng.uniform(0.05, 1 - x - 0.02)
            rep = verify_classical_pentagon(x, y)
            assert rep.passed
            assert rep.abs_residual < 1e-12

    def test_classical_point_outside_unit_square_rejected(self):
        with pytest.raises(ValueError, match=r"\(0,1\)\^2"):
            verify_classical_pentagon(1.5, 0.2)


class TestHyperbolic:
    def test_sampled_point(self, rng, omega):
        p = sample_hyperbolic(rng, omega)
        rep = verify_pentagon_hyperbolic(p)
        assert rep.passed
        assert rep.rel_residual < DEFAULT_TARGETS[IdentityId.HYPERBOLIC]

    def test_residual_stable_under_tighter_policy(self, rng, omega):
        p = sample_hyperbolic(rng, omega)
        base = verify_pentagon_hyperbolic(p)
        tight = verify_pentagon_hyperbolic(p, policy=DEFAULT_POLICY.doubled())
        assert abs(tight.lhs - base.lhs) <= 10 * max(
            base.rel_residual * abs(base.rhs), 1e-13)

    def test_one_gamma_call_per_batch(self, monkeypatch):
        # log_hyperbolic_gamma takes one call per integrand call, and the
        # first, on levels 0 to 2, also carries the nine values that do not
        # depend on u, the centre's three and the product side's six: one
        # call on a point that stops at level 2, two at level 3.  Each call
        # reaches log_qpoch_inf through its module binding: the
        # benchmark's tracing rebinds the names, as done here
        import pentaq.identities as identities
        import pentaq.integrators as integrators
        import pentaq.kernels as kernels
        import pentaq.special_functions as special_functions

        modules = (special_functions, integrators, kernels, identities)
        context = ["alone"]
        gamma_calls, qpoch_calls, integrand_calls = [], [], []

        def rebind(original, wrapper):
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        monkeypatch.setattr(mod, attr, wrapper)

        def within(label, fn):
            def wrapped(*args):
                context.append(label)
                try:
                    return fn(*args)
                finally:
                    context.pop()
            return wrapped

        log_qpoch_inf = special_functions.log_qpoch_inf
        log_hyperbolic_gamma = special_functions.log_hyperbolic_gamma
        integrand = identities._hyperbolic_integrand

        def counting_qpoch(a, q):
            qpoch_calls.append(np.size(a))
            return log_qpoch_inf(a, q)

        def counting_gamma(u, omega):
            before = len(qpoch_calls)
            out = log_hyperbolic_gamma(u, omega)
            gamma_calls.append((context[-1], np.size(u),
                                len(qpoch_calls) - before))
            return out

        def counting_integrand(p, scalars):
            f = within("integrand", integrand(p, scalars))

            def g(t):
                integrand_calls.append(np.size(t))
                return f(t)
            return g

        def clear():
            for calls in (gamma_calls, qpoch_calls, integrand_calls):
                calls.clear()

        rebind(log_qpoch_inf, counting_qpoch)
        rebind(log_hyperbolic_gamma, counting_gamma)
        monkeypatch.setattr(identities, "_hyperbolic_integrand",
                            counting_integrand)
        for seed, levels in ((0, 2), (25, 3)):
            p = sample_hyperbolic(np.random.default_rng(seed),
                                  CRITERION_3_PAIRS[0])
            # a second verification of the same point makes the same calls
            for _ in range(2):
                clear()
                rep = verify_pentagon_hyperbolic(p)
                engine = rep.truncation_diagnostics["integral"]
                assert engine["refinements_used"] == levels
                assert [(label, n) for label, _, n in gamma_calls] == [
                    ("integrand", 2)] * (levels - 1)
                # six values per node, and the nine on the first call
                assert [size for _, size, _ in gamma_calls] == [
                    6 * n + 9 * (i == 0) for i, n in enumerate(integrand_calls)]
                assert sum(qpoch_calls) == 2 * (6 * sum(integrand_calls) + 9)
                # the engine's nodes and nothing else
                assert sum(integrand_calls) == engine["evaluations"]
        # each side alone: the product side makes its own call on the nine
        # values, and the integral side its integrand calls only
        clear()
        assert eval_hyperbolic_rhs(p) == rep.rhs
        assert gamma_calls == [("alone", 9, 2)]
        clear()
        assert identities.eval_hyperbolic_lhs(p).value == rep.lhs
        assert [label for label, _, _ in gamma_calls] == ["integrand"] * 2

    def test_sides_called_through_module_bindings(self, monkeypatch):
        # benchmarks/tracing.py times each side by rebinding its name in
        # the identities module; a verification must call both rebound
        # sides, once each, and give the same report
        import pentaq.identities as identities

        p = sample_hyperbolic(np.random.default_rng(0), CRITERION_3_PAIRS[0])
        plain = verify_pentagon_hyperbolic(p).to_record()
        calls = []
        for name in ("eval_hyperbolic_lhs", "eval_hyperbolic_rhs"):
            def counted(*args, name=name, side=getattr(identities, name)):
                calls.append(name)
                return side(*args)
            monkeypatch.setattr(identities, name, counted)
        traced = verify_pentagon_hyperbolic(p).to_record()
        assert calls == ["eval_hyperbolic_lhs", "eval_hyperbolic_rhs"]
        plain.pop("wall_time"), traced.pop("wall_time")
        assert traced == plain

    def test_product_side_equals_two_b_hyp_kernels(self, rng, omega):
        # the product side read off the point's shared scalar call is the
        # two b_hyp kernels' product, bit for bit
        p = sample_hyperbolic(rng, omega)
        a, b = p.a, p.b
        k1, k2 = b_hyp(np.array([a[0] + b[1], a[1] + b[0]]),
                       np.array([a[2] + b[0], a[2] + b[1]]), omega)
        assert eval_hyperbolic_rhs(p) == complex(k1 * k2)

    @pytest.mark.parametrize("omega", CRITERION_3_PAIRS + tuple(
        ModularPair(s * (1 + 1j), 1.0) for s in (0.05, 0.02, 0.015)))
    def test_window_edge_is_negligible(self, monkeypatch, omega):
        # the integrand falls like exp(-kappa |t|), so at the window edge
        # 160/kappa it is far below its centre value
        import pentaq.identities as identities

        seen = []
        monkeypatch.setattr(
            identities, "integrate_real_line",
            lambda f, policy, u_max, first_levels: seen.append((f, u_max)))
        for seed in range(3):
            p = sample_hyperbolic(np.random.default_rng(seed), omega)
            identities.eval_hyperbolic_lhs(p)
            f, u_max = seen[-1]
            centre, left, right = np.abs(f(np.array([0.0, -u_max, u_max])))
            assert max(left, right) <= np.exp(-100) * centre

    @pytest.mark.parametrize("w", [0.02 + 0.02j, 0.015 + 0.015j])
    def test_small_dual_nome_verifies(self, w):
        # the window 160/kappa shrinks like omega1, which keeps
        # exp(2 pi i u / omega1) q~ inside double range on the contour
        p = sample_hyperbolic(np.random.default_rng(0), ModularPair(w, 1.0))
        rep = verify_pentagon_hyperbolic(p)
        assert rep.passed
        assert rep.rel_residual < 1e-12

    @pytest.mark.parametrize("w", [0.0005 + 0.0005j])
    def test_tiny_dual_nome_is_refused(self, w):
        # q~ underflows to 0, and exp(2 pi i u / omega1) already overflows
        # at the parameters themselves: inf * 0 = nan
        p = sample_hyperbolic(np.random.default_rng(0), ModularPair(w, 1.0))
        with pytest.raises(ConvergenceError, match="dual nome"):
            verify_pentagon_hyperbolic(p)


class TestIndex:
    def test_resolved_convention_passes(self):
        rep = verify_pentagon_index(INDEX_POINT)
        assert rep.passed
        assert rep.rel_residual < DEFAULT_TARGETS[IdentityId.INDEX]
        assert rep.constant_fit == pytest.approx(1.0, abs=1e-7)

    def test_printed_convention_shows_deficit(self):
        rep = verify_pentagon_index(INDEX_POINT, convention="printed")
        assert not rep.passed
        assert rep.rel_residual > 1e-3

    def test_rhs_alternate_is_nine_factor(self):
        rep = verify_pentagon_index(INDEX_POINT)
        assert rep.rhs_alternate == pytest.approx(
            eval_index_rhs(INDEX_POINT, "NINE_FACTOR"), rel=1e-12)

    def test_bad_convention_rejected(self):
        with pytest.raises(ValueError):
            verify_pentagon_index(INDEX_POINT, convention="mystery")

    @pytest.mark.parametrize("eval_rhs, point", [
        (eval_index_rhs, INDEX_POINT), (eval_gamma_rhs, GAMMA_POINT),
    ], ids=["index", "gamma"])
    def test_unknown_rhs_form_rejected(self, eval_rhs, point):
        with pytest.raises(ValueError, match="unknown form 'SPHERE'"):
            eval_rhs(point, "SPHERE")

    def test_random_points(self, rng):
        for _ in range(5):
            p = sample_index(rng)
            rep = verify_pentagon_index(p)
            assert rep.passed, rep.rel_residual

    @pytest.mark.parametrize("q", [0.85, 0.95])
    def test_near_q_to_1(self, q):
        # ring ratios approach q from below, so a geometric tail that takes
        # the current ratio for the final one falls short
        p = IndexParams((0.1, 0.2, 0.2), (0.15, 0.15, 0.2), (1, 0, -1),
                        (0, 1, -1), q)
        rep = verify_pentagon_index(p)
        diag = rep.truncation_diagnostics["sum_integral"]
        assert diag["converged"]
        assert rep.passed and rep.rel_residual <= 1e-8
        assert diag["abs_error_estimate"] >= rep.abs_residual

    @pytest.mark.parametrize("q", [0.99, 0.995])
    def test_denominator_underflow_refused_by_name(self, q):
        # near q = 1 a product of the six denominator Pochhammer symbols
        # underflows to 0 (of the term integrand at q = 0.99, of the
        # prefactor at q = 0.995), which would make a term 0/0
        p = IndexParams((0.1, 0.15, 0.25), (0.2, 0.12, 0.18), (1, 0, -1),
                        (0, 1, -1), q)
        with pytest.raises(ConvergenceError, match=f"underflow.*q = {q}"):
            eval_index_lhs(p)

    def test_one_qpoch_call_per_batch(self, monkeypatch):
        # qpoch_inf takes one call on 12 rows per direct-term integrand
        # level, one for the prefactor that both direct terms share, one
        # for the nine-factor RHS and one per b_idx, each through its
        # module binding: the benchmark's tracing rebinds the names, as
        # done here
        import pentaq.identities as identities
        import pentaq.integrators as integrators
        import pentaq.kernels as kernels
        import pentaq.special_functions as special_functions

        modules = (special_functions, integrators, kernels, identities)
        context = ["other"]
        qpoch_calls, levels, kernel_calls = [], [], []

        def rebind(original, wrapper):
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        monkeypatch.setattr(mod, attr, wrapper)

        def within(label, fn):
            def wrapped(*args, **kwargs):
                context.append(label)
                try:
                    return fn(*args, **kwargs)
                finally:
                    context.pop()
            return wrapped

        qpoch_inf = special_functions.qpoch_inf
        b_idx = kernels.b_idx
        term_integrand = identities._index_term_integrand
        prefactor = identities._index_prefactor
        eval_index_rhs = identities.eval_index_rhs

        def counting_qpoch(a, q):
            qpoch_calls.append((context[-1], np.shape(a)))
            return qpoch_inf(a, q)

        def counting_term_integrand(*args, **kwargs):
            f = within("prefactor", term_integrand)(*args, **kwargs)
            f = within("integrand", f)

            def g(z):
                levels.append(np.shape(z))
                return f(z)
            return g

        def counting_b_idx(*args):
            kernel_calls.append(args)
            return within("b_idx", b_idx)(*args)

        def labelled_rhs(p, form="TWO_B"):
            return within(form, eval_index_rhs)(p, form)

        rebind(qpoch_inf, counting_qpoch)
        rebind(b_idx, counting_b_idx)
        monkeypatch.setattr(identities, "_index_term_integrand",
                            counting_term_integrand)
        monkeypatch.setattr(identities, "_index_prefactor",
                            within("prefactor", prefactor))
        monkeypatch.setattr(identities, "eval_index_rhs", labelled_rhs)
        verify_pentagon_index(INDEX_POINT)
        labels = [label for label, _ in qpoch_calls]
        assert [shape for label, shape in qpoch_calls
                if label == "integrand"] == [(12,) + n for n in levels]
        assert [shape for label, shape in qpoch_calls
                if label == "prefactor"] == [(6,)]   # shared by m = 0, 1
        assert [shape for label, shape in qpoch_calls
                if label == "NINE_FACTOR"] == [(18,)]
        assert len(kernel_calls) == 2
        assert [shape for label, shape in qpoch_calls
                if label == "b_idx"] == [(6,)] * 2
        assert len(labels) == len(levels) + 1 + 1 + 2

    @pytest.mark.parametrize("signed", [True, False],
                             ids=["resolved", "printed"])
    def test_grid_terms_match_direct_evaluation(self, signed):
        # terms |m| > 1 come from the m -+ 2 recurrence; over 24 steps its
        # drift stays at rounding level (criterion 4's points, 256 roots)
        rng = np.random.default_rng(4)
        levels = _circle_levels(3)
        z = np.concatenate(levels)
        for _ in range(25):
            p = sample_index(rng)
            grid = _index_grid(p, signed)
            for m in range(-25, 26):
                f = grid.integrand(m)
                got = np.concatenate([f(nodes) for nodes in levels])
                want = _index_term(p, m, signed)(z)
                assert np.max(np.abs(got - want)) <= \
                    1e-12 * np.max(np.abs(want)), (p, m)

    def test_grid_terms_finite_at_large_m(self):
        # direct evaluation gives nan here: its Pochhammer ratios are inf/inf
        p = IndexParams((0.1, 0.2, 0.2), (0.15, 0.15, 0.2), (1, 0, -1),
                        (0, 1, -1), 0.85)
        z = _circle_levels(1)[0]
        grid = _index_grid(p, True)
        for m in (200, -200):
            assert np.all(np.isfinite(grid.integrand(m)(z))), m


class TestClusteredCircle:
    # the map of the index m-terms, z = (w + c)/(1 + c w) with its weight
    def test_map_keeps_the_circle_and_conjugate_symmetry(self):
        w = np.concatenate(_circle_levels(3))
        z, weight = _cluster_at_one(w)
        zc, weight_c = _cluster_at_one(w.conj())
        assert np.allclose(np.abs(z), 1, rtol=0, atol=1e-15)
        assert np.allclose(zc, z.conj(), rtol=0, atol=1e-15)
        assert np.allclose(weight_c, weight.conj(), rtol=0, atol=1e-15)
        # nodes with Im w >= 0 map to Im z >= 0, and +-1 stay fixed
        assert np.all(z[w.imag >= 0].imag >= -1e-15)
        assert np.allclose(_cluster_at_one(np.array([1.0, -1.0]))[0],
                           [1, -1], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("a", [0.5, 0.8, 0.9, 0.95, 0.98, 0.99, 0.995])
    @pytest.mark.parametrize("side", [1, -1], ids=["near+1", "near-1"])
    @pytest.mark.parametrize("inverse", [False, True], ids=["z", "1/z"])
    def test_mapped_rule_keeps_the_mean(self, a, side, inverse):
        # 1/(1 - side a z^{+-1}) has mean 1 on the circle and one pole near
        # z = side; the map crowds the nodes at +1 and spreads them at -1
        def g(z):
            return 1 / (1 - side * a * (1 / z if inverse else z))

        def mapped(w):
            z, weight = _cluster_at_one(w)
            return g(z) * weight

        res = integrate_unit_circle(mapped, conjugate_symmetric=True)
        plain = integrate_unit_circle(g, conjugate_symmetric=True)
        assert res.converged and plain.converged
        assert abs(res.value - 1) < DEFAULT_POLICY.quadrature_abs_tol
        assert res.evaluations <= plain.evaluations * (1 if side > 0 and
                                                       a >= 0.8 else 8)

    def test_spinning_point_near_q_to_1_takes_fewer_evaluations(self):
        # the spinning point of the index-to-gamma limit at q = 0.95: 79,616
        # evaluations on the plain roots of unity
        p = IndexParams((0.1, 0.15, 0.25), (0.2, 0.12, 0.18), (1, 0, -1),
                        (0, 1, -1), 0.95)
        assert eval_index_lhs(p).evaluations < 79_616

    def test_work_counter_on_sampled_points(self):
        # a deterministic guard on the map: over 20 sample_index points at
        # seed 11 the mean evaluations per LHS read 5,402 on the plain
        # roots of unity and 4,096 on the mapped ones
        rng = np.random.default_rng(11)
        evaluations = [eval_index_lhs(sample_index(rng)).evaluations
                       for _ in range(20)]
        assert np.mean(evaluations) < 4_400


class TestGamma:
    def test_sphere_resolved_passes(self):
        rep = verify_pentagon_gamma(GAMMA_POINT)
        assert rep.passed
        assert rep.rel_residual < DEFAULT_TARGETS[IdentityId.GAMMA_SUM_INTEGRAL]

    def test_printed_convention_shows_deficit(self):
        rep = verify_pentagon_gamma(GAMMA_POINT, convention="printed")
        assert not rep.passed
        assert rep.rel_residual > 1e-3

    def test_lhs_invariant_under_label_swap(self):
        # (alpha, n) <-> (beta, m) with u -> -u and m-sum reflection
        swapped = GammaParams(GAMMA_POINT.beta, GAMMA_POINT.alpha,
                              GAMMA_POINT.m, GAMMA_POINT.n)
        a = eval_gamma_lhs(GAMMA_POINT)
        b = eval_gamma_lhs(swapped)
        assert b.value == pytest.approx(a.value, rel=1e-8)

    @pytest.mark.parametrize("p", [
        GammaParams.symmetric_point(),
        GammaParams.balanced(0.12, 0.21, 0.17, 0.08, 1, 0, 0, 0),
    ], ids=["symmetric", "spinning"])
    def test_rings_follow_inverse_cube_law(self, p):
        # sum(alpha + beta) = 1 gives r_M = 4 M^{-3} (1 + O(M^{-2})), the
        # law behind the m-sum's tail model; printed rings are (-1)^M times
        # the resolved ones
        def ring(M, signed):
            return sum(integrate_real_line(
                _gamma_term_integrand(p, m, signed)).value for m in (M, -M))

        assert abs(32**3 * ring(32, True) - 4) <= 1e-3
        for M in (31, 32):
            assert ring(M, False) == pytest.approx((-1) ** M * ring(M, True),
                                                   rel=1e-12)

    @pytest.mark.parametrize("signed", [True, False],
                             ids=["resolved", "printed"])
    def test_grid_terms_match_direct_evaluation(self, signed):
        # terms |m| > 1 come from the m -+ 2 recurrence Gamma(z+1) = z
        # Gamma(z); over 12 steps its drift stays at rounding level
        # (criterion 5's points, 256 nodes)
        rng = np.random.default_rng(5)
        levels = _line_levels(3)
        u = np.concatenate(levels)
        for _ in range(25):
            p = sample_gamma(rng)
            grid = _gamma_grid(p, signed)
            for m in range(-25, 26):
                f = grid.integrand(m)
                got = np.concatenate([f(nodes) for nodes in levels])
                want = _gamma_term_integrand(p, m, signed)(u)
                assert np.max(np.abs(got - want)) <= \
                    1e-12 * np.max(np.abs(want)), (p, m)

    def test_log_gamma_only_in_direct_terms(self, monkeypatch):
        # only the terms m = 0, 1 call log_gamma, one (12, n) array per
        # engine call on the u <= 0 half of its nodes: levels 0 and 1
        # together on the first call (N/2 + 1 + N/2 for N first nodes),
        # then N/4 * 2**j for level j; each call's nodes are evaluated
        # once, whichever term needs them first
        import pentaq.identities as identities

        direct_levels, calls = {}, []

        def counting_term(p, m_sum, signed):
            g = _gamma_term_integrand(p, m_sum, signed)

            def f(u):
                direct_levels.setdefault(m_sum, []).append(u.size)
                return g(u)

            return f

        def counting_log_gamma(z):
            calls.append(np.shape(z))
            return log_gamma(z)

        monkeypatch.setattr(identities, "_gamma_term_integrand",
                            counting_term)
        monkeypatch.setattr(identities, "log_gamma", counting_log_gamma)
        eval_gamma_lhs(GAMMA_POINT)
        assert set(direct_levels) == {0, 1}
        N = _FIRST_NODES
        for sizes in direct_levels.values():
            assert sizes == [N // 2 + 1 + N // 2] + [
                N // 4 * 2**j for j in range(2, len(sizes) + 1)]
        assert sorted(calls) == sorted((12, n) for sizes in
                                       direct_levels.values() for n in sizes)

    def test_node_map_contract(self):
        # every node of levels 0-2 maps to a finite u with a finite weight;
        # the endpoint tan(-pi/2) = -1.6e16 has weight exactly 0, and at the
        # outermost other node, t = -81.5 on level 2, u = -3.5e8 delta, the
        # weighted term is about 1e-24 at delta = 0.05 (|u|^{-4} / 2 pi
        # times du/dt), and rounding of the logs would show far above it
        t = np.concatenate([_level(call, False)[3][0] for call in (0, 1)])
        assert t[0] == np.tan(-np.pi / 2)
        outer = 1 + np.argmax(np.abs(t[1:]))
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = sample_gamma(rng)
            u, weight = _pole_strip_map(t, min(p.alpha + p.beta))
            assert np.all(np.isfinite(u)) and np.all(np.isfinite(weight)), p
            assert weight[0] == 0.0, p
            for m in range(-3, 4):
                value = _gamma_term_integrand(p, m, True)(u[outer:outer + 1])
                assert abs(value[0] * weight[outer]) < 1e-20, (p, m)

    def test_deepest_level_stays_on_the_integral(self):
        # level 12's nodes reach |u| = 2e19, where a term's logs lose their
        # pairwise differences and the term came out 1e72 times too large;
        # the map gives every node beyond |u| = 1e12 weight 0, so the rule
        # on all 2**18 nodes keeps the converged value
        p = sample_gamma(np.random.default_rng(1))
        f = _gamma_term_integrand(p, 0, True)

        def weighted(t):
            u, weight = _pole_strip_map(t, min(p.alpha + p.beta))
            return f(u) * weight

        total = 0.0
        for call in range(DEFAULT_POLICY.max_refinements):
            _, weights, _, (t, dt), _ = _level(call, True)
            total += weights @ (weighted(t) * dt).real
        deepest = total / (_FIRST_NODES << DEFAULT_POLICY.max_refinements)
        converged = integrate_real_line(weighted, conjugate_symmetric=True)
        assert deepest == pytest.approx(converged.value, rel=1e-14)

    def test_product_side_in_one_call_per_factor(self, monkeypatch):
        # outside the sum-integral, one log_gamma call for each kernel of
        # TWO_B, one for the nine-factor form and one for T
        import pentaq.identities as identities
        import pentaq.kernels as kernels

        lhs = eval_gamma_lhs(GAMMA_POINT)
        calls = []

        def counting_log_gamma(z):
            calls.append(np.shape(z))
            return log_gamma(z)

        for module in (identities, kernels):
            monkeypatch.setattr(module, "log_gamma", counting_log_gamma)
        monkeypatch.setattr(identities, "eval_gamma_lhs", lambda *args: lhs)
        assert verify_pentagon_gamma(GAMMA_POINT).passed
        assert sorted(calls) == [(2, 3), (2, 9), (6,), (6,)]

    def test_criterion_points_converge_cheaply(self):
        rng = np.random.default_rng(5)
        points = [GammaParams.symmetric_point()]
        points += [sample_gamma(rng) for _ in range(25)]
        for p in points:
            diag = verify_pentagon_gamma(p).truncation_diagnostics
            assert diag["sum_integral"]["converged"], p
            assert diag["sum_integral"]["evaluations"] <= 25_000, p

    @pytest.mark.parametrize("alpha1, budget", [(1e-3, 8_000),
                                                (1e-4, 12_500)])
    def test_pole_near_real_line_converges_cheaply(self, alpha1, budget):
        # the nearest poles lie at u = +-i alpha1; the map puts them on the
        # edge of its strip however close they come, so the node count
        # grows slowly (7,936 and 12,032 evaluations), where the scale
        # u = 1.4 t took 36,096 and 265,472
        p = GammaParams((alpha1, 0.3 - alpha1, 0.2), (0.2, 0.17, 0.13),
                        (1, -1, 0), (0, 1, -1))
        rep = verify_pentagon_gamma(p)
        assert rep.passed
        assert rep.truncation_diagnostics["sum_integral"][
            "evaluations"] <= budget

    def test_error_estimate_covers_residual(self):
        # the sum-integral's estimate, which counts the inner integrals'
        # errors too, bounds the actual error up to a rounding floor
        rng = np.random.default_rng(5)
        points = [GammaParams.symmetric_point()]
        points += [sample_gamma(rng) for _ in range(25)]
        floor = 100 * np.finfo(float).eps
        for p in points:
            rep = verify_pentagon_gamma(p)
            estimate = rep.truncation_diagnostics["sum_integral"][
                "abs_error_estimate"]
            assert estimate + floor * abs(rep.rhs) >= rep.abs_residual, p

    def test_unconverged_inner_integral_is_unconverged(self):
        # the outer sum converges, but some inner integrals run out of
        # refinements at this policy
        policy = TruncationPolicy(max_refinements=1, quadrature_rel_tol=1e-14,
                                  quadrature_abs_tol=1e-16)
        rep = verify_pentagon_gamma(sample_gamma(np.random.default_rng(0)),
                                    policy)
        assert not rep.converged
        assert not rep.truncation_diagnostics["sum_integral"]["converged"]
        assert not rep.passed

    def test_symmetric_point_closed_form(self):
        from scipy.special import gamma as sgamma

        p = GammaParams.symmetric_point()
        rep = verify_pentagon_gamma(p)
        closed = (sgamma(1 / 3) / sgamma(2 / 3)) ** 9
        assert rep.rhs == pytest.approx(closed, rel=1e-12)
        assert rep.passed


def _counting(step, calls):
    """``step`` recording the array of m of each call in ``calls``."""
    def counted(ms, nodes):
        calls.append(ms)
        return step(ms, nodes)
    return counted


class TestTermGrid:
    # the parity chains that both sum-integrals build their m-terms from
    @pytest.mark.parametrize("make_step, eval_lhs, point", [
        ("_gamma_step", eval_gamma_lhs, GAMMA_POINT),
        ("_index_step", eval_index_lhs, INDEX_POINT),
    ], ids=["gamma", "index"])
    def test_few_step_calls_per_lhs(self, monkeypatch, make_step, eval_lhs,
                                    point):
        # each chain extension is one step call on all the terms it fills;
        # measured 11 calls (99 rows) on both LHS, where one call per term
        # and level made 45 (gamma) and 57 (index)
        import pentaq.identities as identities

        build, calls = getattr(identities, make_step), []
        monkeypatch.setattr(identities, make_step,
                            lambda p: _counting(build(p), calls))
        eval_lhs(point)
        assert 0 < len(calls) <= 16

    @pytest.mark.parametrize("term_integrand, make_step, point, levels", [
        (_gamma_term_integrand, _gamma_step, GAMMA_POINT, _line_levels),
        # the point of test_grid_terms_finite_at_large_m
        (_index_term, _index_step,
         IndexParams((0.1, 0.2, 0.2), (0.15, 0.15, 0.2), (1, 0, -1),
                     (0, 1, -1), 0.85), _circle_levels),
    ], ids=["gamma", "index"])
    def test_chains_reach_far_in_one_call(self, term_integrand, make_step,
                                          point, levels):
        # one step call per chain reaches m = +-200 or +-201 and the 8
        # look-ahead rows beyond, with no RuntimeWarning and finite values
        calls = []
        grid = TermGrid(partial(term_integrand, point, signed=True),
                        _counting(make_step(point), calls), _identity_map)
        nodes = levels(1)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for m in (200, -200, 201, -201):
                assert np.all(np.isfinite(grid.integrand(m)(nodes))), m
            for m in range(-217, 218):   # the look-ahead rows
                assert np.all(np.isfinite(grid.integrand(m)(nodes))), m
            assert len(calls) == 4


    @pytest.mark.parametrize("term_integrand, make_step, point, levels", [
        (_gamma_term_integrand, _gamma_step, GAMMA_POINT, _line_levels),
        (_index_term, _index_step, INDEX_POINT, _circle_levels),
    ], ids=["gamma", "index"])
    @pytest.mark.parametrize("near, far", [(2, 8), (-2, -8)],
                             ids=["upward", "downward"])
    def test_row_does_not_depend_on_how_its_list_grew(
            self, term_integrand, make_step, point, levels, near, far):
        # on a later engine call a list grows to the term asked for; term
        # `near` must come out the same bits whether its list grew for it
        # alone or for a farther term first
        nodes = levels(3)
        calls = (np.concatenate(nodes[:2]), nodes[2])
        got = []
        for order in ((near,), (far, near)):
            grid = TermGrid(partial(term_integrand, point, signed=True),
                            make_step(point), _identity_map)
            for m in order:
                f = grid.integrand(m)
                values = [f(c) for c in calls]
            got.append(values[1])
        assert np.array_equal(*got)


def _hyperbolic_point_integrand(seed):
    """A hyperbolic integrand whose first call, the test's full array, also
    evaluates the nine values that do not depend on u, as in a
    verification."""
    p = sample_hyperbolic(np.random.default_rng(seed),
                          CRITERION_3_PAIRS[seed % 3])
    return _hyperbolic_integrand(p, [])


class TestNodeIndependence:
    # an integrand's value at a node does not depend on the other nodes of
    # its call, so the engines' first call, on levels 0 and 1 (or 0 to 2)
    # together, gives the values of one call per level
    @pytest.mark.parametrize("make, nodes", [
        (lambda seed: _gamma_term_integrand(
            sample_gamma(np.random.default_rng(seed)), seed - 1, True),
         np.concatenate(_line_levels(3))),
        (lambda seed: _index_term(
            sample_index(np.random.default_rng(seed)), seed - 1, True),
         np.concatenate(_circle_levels(3))),
        (_hyperbolic_point_integrand, np.linspace(-18, 18, 145)),
    ], ids=["gamma", "index", "hyperbolic"])
    def test_node_alone_equals_node_in_array(self, make, nodes):
        rng = np.random.default_rng(8)
        for seed in range(3):
            f = make(seed)
            full = f(nodes)
            alone = np.concatenate([f(nodes[i:i + 1])
                                    for i in range(nodes.size)])
            assert np.array_equal(full, alone), seed
            for _ in range(4):   # shuffled subsets of any size
                pick = rng.permutation(nodes.size)[
                    :rng.integers(2, nodes.size + 1)]
                assert np.array_equal(f(nodes[pick]), full[pick]), seed


class TestEquivalence:
    def test_exact_at_zero_spins(self, rng):
        for _ in range(10):
            p = sample_gamma(rng, with_spins=False)
            rep = equivalence_check_gamma_rhs(p)
            assert rep.rel_residual < 1e-12
            assert rep.constant_fit == pytest.approx(
                gamma_reflection_factor(p), rel=1e-12)

    def test_fails_with_spins(self):
        rep = equivalence_check_gamma_rhs(GAMMA_POINT)
        assert rep.rel_residual > 1e-3

    def test_zero_spin_reflection_factor_relates_forms(self, rng):
        p = sample_gamma(rng, with_spins=False)
        two_b = eval_gamma_rhs(p, "TWO_B")
        nine = eval_gamma_rhs(p, "NINE_FACTOR")
        assert two_b == pytest.approx(nine * gamma_reflection_factor(p),
                                      rel=1e-12)


class TestBeta:
    POINT = BetaParams.balanced(0.1, 0.12, 0.09, 0.11, 0.13)

    def test_printed_identity_fails_honestly(self, rng):
        # the ratio of the sides is parameter-dependent, not a constant
        ratios = []
        for _ in range(4):
            p = sample_beta(rng)
            rep = verify_pentagon_beta(p, convention="printed")
            assert not rep.passed
            ratios.append(rep.constant_fit)
        assert np.std(ratios) > 1e-3

    def test_report_notes_mention_no_correction(self):
        p = BetaParams.balanced(0.1, 0.12, 0.09, 0.11, 0.13)
        rep = verify_pentagon_beta(p, convention="printed")
        assert "no sign or constant correction" in rep.notes

    def test_bad_convention_rejected(self):
        with pytest.raises(ValueError):
            verify_pentagon_beta(self.POINT, convention="signed")

    def test_forms_differ_by_reflection_factor(self):
        # Gamma(b3 - s) Gamma(1 - b3 + s) = pi / sin pi(b3 - s): the printed
        # integrand times sin pi(b3 - s) / pi is the resolved one, and the
        # product sides differ by the same factor at s = -a3
        p = self.POINT
        t = np.array([-2.0, -0.4, 0.0, 0.7, 1.5])
        printed = _beta_integrand(p, resolved=False)(t)
        resolved = _beta_integrand(p, resolved=True)(t)
        factor = np.sin(np.pi * (p.b[2] - 1j * t)) / np.pi
        np.testing.assert_allclose(printed * factor, resolved,
                                   rtol=1e-12, atol=0)
        reflection = np.sin(np.pi * (p.a[2] + p.b[2])) / np.pi
        assert eval_beta_rhs(p) == pytest.approx(
            eval_beta_rhs(p, "printed") * reflection, rel=1e-12)

    def test_one_log_gamma_call_per_side(self, monkeypatch):
        # the integrand's centre and the resolved product side each take
        # one log_gamma call on an array
        import pentaq.identities as identities

        calls = []

        def counting_log_gamma(z):
            calls.append(np.shape(z))
            return log_gamma(z)

        monkeypatch.setattr(identities, "log_gamma", counting_log_gamma)
        _beta_integrand(self.POINT, resolved=True)
        assert calls == [(3,)]
        calls.clear()
        eval_beta_rhs(self.POINT)
        assert calls == [(4, 3)]

    def test_resolved_lhs_matches_mpmath(self):
        p = self.POINT
        a, b = p.a, p.b

        def f(t):
            s = 1j * t
            return (mp.gamma(a[0] + s) * mp.gamma(a[1] + s)
                    * mp.gamma(a[2] + s) * mp.gamma(b[0] - s)
                    * mp.gamma(b[1] - s) / mp.gamma(1 - b[2] + s))

        center = mp.gamma(a[0] + b[0]) * mp.gamma(a[1] + b[1]) \
            * mp.gamma(a[2] + b[2])
        oracle = complex(mp.quad(f, [-mp.inf, 0, mp.inf])
                         / (2 * mp.pi * center))
        assert eval_beta_lhs(p).value == pytest.approx(oracle, rel=1e-12)


class TestLimitStudies:
    def test_q_to_1_monotone_and_passes(self):
        p = GammaParams.symmetric_point()
        study = limit_study_q_to_1(p)
        assert study.passed and study.monotone
        dists = [row["kernel_distance"] for row in study.rows]
        assert dists == sorted(dists, reverse=True)
        assert study.fitted_order["probe_half_error"] >= 1.0

    def test_omega_constant_is_sqrt_two_pi(self):
        study = limit_study_omega()
        assert study.passed and study.monotone
        assert study.constant_fit == pytest.approx(np.sqrt(2 * np.pi),
                                                   rel=1e-6)


class TestGate:
    EPS = (0.1, 0.05, 0.01)

    @staticmethod
    def gate(dists, least=1.8, ok=True):
        pairs = list(zip(TestGate.EPS, dists))
        return _gate(IdentityId.LIMIT_OMEGA, {}, [], {"g": (pairs, least)},
                     time.perf_counter(), ok=ok)

    def test_exact_square_law_has_order_two(self):
        study = self.gate([e**2 for e in self.EPS])
        assert study.monotone and study.passed
        assert study.fitted_order["g"] == pytest.approx(2.0, abs=1e-12)

    def test_rising_group_is_not_monotone(self):
        study = self.gate([1e-3, 2e-3, 1e-4], least=-10.0)
        assert not study.monotone and not study.passed

    def test_order_below_least_fails(self):
        study = self.gate([e**2 for e in self.EPS], least=2.5)
        assert study.monotone and not study.passed

    def test_ok_false_fails(self):
        assert not self.gate([e**2 for e in self.EPS], ok=False).passed

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_degenerate_distance_has_no_order(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            study = self.gate([1e-2, 1e-3, bad])
            json.dumps(study.to_record(), allow_nan=False)   # no NaN
        assert study.fitted_order == {"g": None} and not study.passed


class TestReportRecords:
    def test_verification_record_shape(self):
        rec = verify_pentagon_index(INDEX_POINT).to_record()
        for key in ("identity_id", "parameters", "lhs", "rhs",
                    "abs_residual", "rel_residual", "target", "passed",
                    "wall_time"):
            assert key in rec

    def test_limit_record_shape(self):
        rec = limit_study_omega().to_record()
        for key in ("identity_id", "rows", "monotone", "passed"):
            assert key in rec

    def test_passed_needs_convergence_and_credible_estimate(self):
        rep = verify_pentagon_index(INDEX_POINT)
        diag = rep.truncation_diagnostics["sum_integral"]
        assert rep.passed
        assert rep.converged == diag["converged"]
        assert rep.abs_error_estimate == diag["abs_error_estimate"]
        assert not replace(rep, converged=False).passed
        assert not replace(rep, abs_error_estimate=2 * rep.target
                           * abs(rep.rhs)).passed


@pytest.mark.parametrize("verify, sample, seed", [
    (verify_pentagon_hyperbolic,
     lambda rng, k: sample_hyperbolic(rng, CRITERION_3_PAIRS[k % 3]), 3),
    (verify_pentagon_index, lambda rng, k: sample_index(rng), 4),
    (verify_pentagon_beta, lambda rng, k: sample_beta(rng), 7),
], ids=["hyperbolic", "index", "beta"])
def test_error_estimate_covers_residual(verify, sample, seed):
    # the engine's estimate bounds the actual error up to a rounding floor,
    # as TestGamma checks for the sum-integral
    rng = np.random.default_rng(seed)
    floor = 100 * np.finfo(float).eps
    for k in range(25):
        rep = verify(sample(rng, k))
        assert rep.abs_error_estimate + floor * abs(rep.rhs) \
            >= rep.abs_residual, rep.parameters
