"""Identity evaluators: resolved conventions pass, printed ones show deficits."""

from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from pentaq.identities import (
    DEFAULT_TARGETS,
    IdentityId,
    _beta_integrand,
    _gamma_term_integrand,
    _index_term_integrand,
    _IndexGrid,
    equivalence_check_gamma_rhs,
    eval_beta_lhs,
    eval_beta_rhs,
    eval_gamma_lhs,
    eval_gamma_rhs,
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
    sample_beta,
    sample_gamma,
    sample_hyperbolic,
    sample_index,
)
from pentaq.integrators import (
    DEFAULT_POLICY,
    TruncationPolicy,
    integrate_real_line,
)
from pentaq.special_functions import ConvergenceError, ModularPair


INDEX_POINT = IndexParams.balanced(0.12, 0.21, 0.17, 0.08,
                                   1, -2, 0, 1, 0.35)
GAMMA_POINT = GammaParams.balanced(0.12, 0.21, 0.17, 0.08,
                                   1, -2, 0, 1)


def _circle_levels(count: int) -> list:
    """The new nodes of integrate_unit_circle's first ``count`` levels: all
    64 roots, then the odd roots of 128, 256, ..."""
    levels = [np.exp(2j * np.pi * np.arange(64) / 64)]
    for j in range(1, count):
        n = 64 * 2**j
        levels.append(np.exp(2j * np.pi * np.arange(1, n, 2) / n))
    return levels


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

    @pytest.mark.parametrize("w", [0.02 + 0.02j, 0.0005 + 0.0005j])
    def test_tiny_dual_nome_is_refused(self, w):
        # exp(2 pi i u / omega1) overflows on the contour; times q~ it is
        # inf (q~ ~ 6e-69) or inf * 0 = nan (q~ underflows to 0)
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
            grid = _IndexGrid(p, signed)
            for m in range(-25, 26):
                f = grid.integrand(m)
                got = np.concatenate([f(nodes) for nodes in levels])
                want = _index_term_integrand(p, m, signed)(z)
                assert np.max(np.abs(got - want)) <= \
                    1e-12 * np.max(np.abs(want)), (p, m)

    def test_grid_terms_finite_at_large_m(self):
        # direct evaluation gives nan here: its Pochhammer ratios are inf/inf
        p = IndexParams((0.1, 0.2, 0.2), (0.15, 0.15, 0.2), (1, 0, -1),
                        (0, 1, -1), 0.85)
        z = _circle_levels(1)[0]
        grid = _IndexGrid(p, True)
        for m in (200, -200):
            assert np.all(np.isfinite(grid.integrand(m)(z))), m


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

    def test_criterion_points_converge_cheaply(self):
        rng = np.random.default_rng(5)
        points = [GammaParams.symmetric_point()]
        points += [sample_gamma(rng) for _ in range(25)]
        for p in points:
            diag = verify_pentagon_gamma(p).truncation_diagnostics
            assert diag["sum_integral"]["converged"], p
            assert diag["sum_integral"]["evaluations"] <= 25_000, p

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
        assert study.fitted_order >= 1.0

    def test_omega_constant_is_sqrt_two_pi(self):
        study = limit_study_omega()
        assert study.passed and study.monotone
        assert study.constant_fit == pytest.approx(np.sqrt(2 * np.pi),
                                                   rel=1e-6)


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


# the points of acceptance criteria 3, 4 and 7, drawn in the same order
CRITERION_3_PAIRS = (ModularPair(0.4 + 0.9j, 1.0),
                     ModularPair(0.3 + 0.7j, 1.1),
                     ModularPair(0.6 + 1.3j, 0.9))


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
