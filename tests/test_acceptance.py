"""End-to-end acceptance gate.

Ten numbered criteria, each emitting one [PASS]/[FAIL] line into the
terminal summary.  Criterion 7 checks the Euler-beta pentagon in the
resolved form that the omega2 -> infinity limit of the hyperbolic pentagon
yields (Barnes' second lemma); the printed 3+3 form differs from it by a
factor pi / sin pi(b_3 - s) inside the integral and stays reported as
failing through ``convention="printed"``.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gamma as scalar_gamma

from conftest import ACCEPTANCE_LINES
from pentaq.identities import (
    equivalence_check_gamma_rhs,
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
from pentaq.integrators import DEFAULT_POLICY
from pentaq.kernels import (
    GammaParams,
    b_beta,
    sample_beta,
    sample_gamma,
    sample_hyperbolic,
    sample_index,
)
from pentaq.special_functions import (
    ModularPair,
    hyperbolic_gamma,
    qpoch_inf,
)


def _criterion(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_01_operator_pentagon_exact():
    start = time.perf_counter()
    reports = [verify_operator_pentagon(10, q)
               for q in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))]
    ok = all(rep.passed and rep.abs_residual == 0.0 for rep in reports)
    elapsed = time.perf_counter() - start
    _criterion(1, "operator pentagon exact to degree 10 at three rational q",
               ok and elapsed < 10, f"{elapsed:.2f}s")


def test_criterion_02_classical_pentagon():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(0.01, 0.95)
        y = rng.uniform(0.01, min(0.95, 0.99 - x))
        worst = max(worst, verify_classical_pentagon(x, y).abs_residual)
    elapsed = time.perf_counter() - start
    _criterion(2, "classical five-term relation, 1000 points below 1e-12",
               worst < 1e-12 and elapsed < 5,
               f"worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_hyperbolic_pentagon():
    rng = np.random.default_rng(3)
    pairs = [ModularPair(0.4 + 0.9j, 1.0), ModularPair(0.3 + 0.7j, 1.1),
             ModularPair(0.6 + 1.3j, 0.9)]
    start = time.perf_counter()
    worst = 0.0
    stable = True
    for k in range(25):
        p = sample_hyperbolic(rng, pairs[k % len(pairs)])
        rep = verify_pentagon_hyperbolic(p)
        tight = verify_pentagon_hyperbolic(p, policy=DEFAULT_POLICY.doubled())
        worst = max(worst, rep.rel_residual)
        both_tiny = (rep.rel_residual < rep.target / 10
                     and tight.rel_residual < rep.target / 10)
        within = tight.rel_residual <= 2 * rep.rel_residual or \
            rep.rel_residual <= 2 * tight.rel_residual
        stable = stable and (both_tiny or within)
    elapsed = time.perf_counter() - start
    _criterion(3, "hyperbolic pentagon, 25 points below 1e-8 and "
               "refinement-stable",
               worst < 1e-8 and stable and elapsed < 300,
               f"worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_index_pentagon():
    rng = np.random.default_rng(4)
    start = time.perf_counter()
    worst = 0.0
    fits = []
    nine_ratios = []
    for _ in range(25):
        p = sample_index(rng)
        rep = verify_pentagon_index(p)
        worst = max(worst, rep.rel_residual)
        fits.append(rep.constant_fit)
        nine_ratios.append(rep.truncation_diagnostics
                           ["lhs_over_nine_factor"][0])
    elapsed = time.perf_counter() - start
    fit_std = float(np.std(fits))
    print(f"    index sum over nine-ratio product form: ratio spans "
          f"[{min(nine_ratios):.3f}, {max(nine_ratios):.3f}] — not a "
          "universal constant; the two-kernel product side is the one "
          "the sum reproduces")
    _criterion(4, "index pentagon with spins, 25 points below 1e-7 with "
               "unit constant fit",
               worst < 1e-7 and fit_std < 1e-6,
               f"worst {worst:.2e}, fit std {fit_std:.2e}, {elapsed:.1f}s")


def test_criterion_05_gamma_pentagon():
    start = time.perf_counter()
    p0 = GammaParams.symmetric_point()
    rep0 = verify_pentagon_gamma(p0)
    closed = (scalar_gamma(1 / 3) / scalar_gamma(2 / 3)) ** 9
    sym_err = abs(rep0.lhs - closed) / abs(closed)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(25):
        rep = verify_pentagon_gamma(sample_gamma(rng))
        worst = max(worst, rep.rel_residual)
    elapsed = time.perf_counter() - start
    _criterion(5, "gamma sum-integral pentagon, symmetric closed form and "
               "25 spinning points below 1e-6",
               sym_err < 1e-6 and worst < 1e-6 and elapsed < 600,
               f"symmetric {sym_err:.2e}, worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_06_product_side_equivalence():
    rng = np.random.default_rng(6)
    worst = 0.0
    t_values = []
    for _ in range(25):
        p = sample_gamma(rng, with_spins=False)
        rep = equivalence_check_gamma_rhs(p)
        worst = max(worst, rep.rel_residual)
        t_values.append(rep.constant_fit)
    _criterion(6, "two-kernel form equals reflection factor times "
               "nine-ratio form at zero spins, 25 points below 1e-10",
               worst < 1e-10,
               f"worst {worst:.2e}, T in [{min(t_values):.3f}, "
               f"{max(t_values):.3f}]")


def test_criterion_07_beta_pentagon():
    # Euler-beta five-term identity in the resolved (Barnes) form, the
    # verifier's default.  The printed form fails with a parameter-dependent
    # ratio between the sides; see the verifier docstring for the analysis.
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(25):
        rep = verify_pentagon_beta(sample_beta(rng))
        worst = max(worst, rep.rel_residual)
    _criterion(7, "beta-integral pentagon, 25 points below 1e-8",
               worst < 1e-8, f"worst {worst:.2e}")


def test_criterion_08_limit_q_to_1():
    study = limit_study_q_to_1(GammaParams.symmetric_point())
    dists = [row["kernel_distance"] for row in study.rows]
    orders = study.fitted_order
    _criterion(8, "q->1 degeneration of the index kernel is monotone with "
               "first-order rate",
               study.passed,
               f"distances {['%.3e' % d for d in dists]}, kernel order "
               f"{orders['kernel_distance']:.3f}, probe order "
               f"{orders['probe_half_error']:.3f}")


def test_criterion_09_limit_omega():
    study = limit_study_omega()
    _criterion(9, "large-omega2 limit of the hyperbolic gamma matches the "
               "sqrt(2 pi)-normalized gamma asymptotic",
               study.passed,
               f"fitted constant {study.constant_fit:.9f} vs "
               f"sqrt(2 pi) = {np.sqrt(2 * np.pi):.9f}, gap "
               f"{abs(study.constant_fit - np.sqrt(2 * np.pi)):.1e}, orders "
               + ", ".join(f"{name} {order:.3f}" for name, order
                           in study.fitted_order.items()))


def test_criterion_10_invariant_suite():
    rng = np.random.default_rng(10)
    om = ModularPair(0.4 + 0.9j, 1.0)
    ok = True
    # hyperbolic gamma inversion
    for _ in range(20):
        u = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.1, 0.1)) \
            * om.omega_sum
        prod = hyperbolic_gamma(u, om) * hyperbolic_gamma(om.omega_sum - u,
                                                          om)
        ok = ok and abs(prod - 1) < 1e-10
    # q-Pochhammer recurrence
    for _ in range(20):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        q = rng.uniform(0.05, 0.9)
        ok = ok and abs(qpoch_inf(a, q) - (1 - a) * qpoch_inf(a * q, q)) \
            < 1e-12 * max(1, abs(qpoch_inf(a, q)))
    # beta kernel recurrence
    for _ in range(20):
        x = complex(rng.uniform(0.2, 3), rng.uniform(-1, 1))
        y = complex(rng.uniform(0.2, 3), rng.uniform(-1, 1))
        ok = ok and abs(b_beta(x, y) - b_beta(x + 1, y) * (x + y) / x) \
            < 1e-12 * abs(b_beta(x, y))
    _criterion(10, "function-level invariants: inversion, recurrences",
               ok)
