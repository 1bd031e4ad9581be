"""The four B kernels and the balanced parameter containers."""

import hashlib
import json
import math

import mpmath as mp
import numpy as np
import pytest

from pentaq.kernels import (
    BetaParams,
    GammaParams,
    HyperbolicParams,
    IndexParams,
    b_beta,
    b_gamma_disc,
    b_hyp,
    b_idx,
    sample_beta,
    sample_gamma,
    sample_hyperbolic,
    sample_index,
)
from pentaq.special_functions import ModularPair, PoleError

mp.mp.dps = 30


class TestKernelValues:
    def test_b_hyp_symmetry(self, omega):
        x, y = 0.31 + 0.05j, 0.44 - 0.08j
        assert b_hyp(x, y, omega) == pytest.approx(b_hyp(y, x, omega),
                                                   rel=1e-13)

    @pytest.mark.parametrize("omega", [ModularPair(0.4 + 0.9j, 1.0),
                                       ModularPair(0.3 + 0.7j, 1.1),
                                       ModularPair(0.6 + 1.3j, 0.9)])
    def test_b_hyp_array_equals_scalars(self, omega):
        # the product side's two kernels in one call, as the hyperbolic
        # right-hand side takes them, and a (2, 3) batch
        p = sample_hyperbolic(np.random.default_rng(3), omega)
        x = np.array([[p.a[0] + p.b[1], p.a[1] + p.b[0], 0.31 + 0.05j],
                      [p.a[2] + p.b[0], 0.2 - 0.1j, p.a[0] + p.b[0]]])
        y = np.array([[p.a[2] + p.b[0], p.a[2] + p.b[1], 0.44 - 0.08j],
                      [p.a[1] + p.b[1], 0.3 + 0.4j, p.a[1] + p.b[2]]])
        batch = b_hyp(x, y, omega)
        assert batch.shape == x.shape
        scalars = [[b_hyp(complex(xi), complex(yi), omega)
                    for xi, yi in zip(xr, yr)] for xr, yr in zip(x, y)]
        assert all(type(v) is complex for row in scalars for v in row)
        assert np.array_equal(batch, np.array(scalars))
        assert np.array_equal(b_hyp(x[0, :2], y[0, :2], omega), batch[0, :2])

    def test_b_idx_symmetry(self):
        q = 0.35
        a, b = q**0.2, q**0.15
        assert b_idx(a, 1, b, -2, q) == pytest.approx(b_idx(b, -2, a, 1, q),
                                                      rel=1e-13)

    def test_b_idx_zero_spin_reduction(self):
        q = 0.4
        a, b = q**0.3, q**0.1
        expected = (mp.qp(q / a, q) * mp.qp(q / b, q) * mp.qp(a * b, q)
                    / (mp.qp(a, q) * mp.qp(b, q) * mp.qp(q / (a * b), q)))
        assert b_idx(a, 0, b, 0, q) == pytest.approx(complex(expected),
                                                     rel=1e-13)

    def test_b_gamma_disc_symmetry(self):
        assert b_gamma_disc(0.2, 1, 0.3, -1) == pytest.approx(
            b_gamma_disc(0.3, -1, 0.2, 1), rel=1e-13)

    def test_b_gamma_disc_quarter_point(self):
        expected = float((mp.gamma(mp.mpf("0.25")) / mp.gamma(mp.mpf("0.75")))
                         ** 2)
        assert b_gamma_disc(0.25, 0, 0.25, 0) == pytest.approx(expected,
                                                               rel=1e-12)
        assert expected == pytest.approx(8.754, abs=5e-3)

    def test_b_gamma_disc_matches_beta_composite(self, rng):
        for _ in range(20):
            a, b = rng.uniform(0.05, 0.45, 2)
            composite = float(mp.gamma(a) / mp.gamma(1 - a) * mp.gamma(b)
                              / mp.gamma(1 - b) * mp.gamma(1 - a - b)
                              / mp.gamma(a + b))
            assert b_gamma_disc(a, 0, b, 0) == pytest.approx(composite,
                                                             rel=1e-12)

    def test_b_gamma_disc_pole_named(self):
        with pytest.raises(PoleError, match="Gamma"):
            b_gamma_disc(0.25, 0, 0.75, -2)

    def test_b_idx_pole_named(self):
        # (q^{n/2} a; q)_inf = (1; q)_inf = 0: a true pole, not underflow
        with pytest.raises(PoleError, match="vanishing Pochhammer factor"):
            b_idx(1.0, 0, 0.3, 0, 0.5)

    def test_b_beta_classical_values(self):
        assert b_beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)
        assert b_beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-13)
        assert b_beta(2.0, 3.0) == pytest.approx(1 / 12, rel=1e-13)

    def test_b_beta_recurrence(self, rng):
        for _ in range(50):
            x = complex(rng.uniform(0.2, 3), rng.uniform(-1, 1))
            y = complex(rng.uniform(0.2, 3), rng.uniform(-1, 1))
            lhs = b_beta(x, y)
            rhs = b_beta(x + 1, y) * (x + y) / x
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


class TestParamContainers:
    def test_hyperbolic_balancing_enforced(self, omega):
        ws = omega.omega_sum
        with pytest.raises(ValueError, match="balancing"):
            HyperbolicParams((0.1 * ws, 0.1 * ws, 0.1 * ws),
                             (0.1 * ws, 0.1 * ws, 0.1 * ws), omega)

    def test_hyperbolic_balanced_constructor(self, omega):
        ws = omega.omega_sum
        p = HyperbolicParams.balanced(0.1 * ws, 0.12 * ws, 0.09 * ws,
                                      0.11 * ws, 0.13 * ws, omega)
        assert sum(p.a) + sum(p.b) == pytest.approx(ws, rel=1e-14)

    def test_hyperbolic_rejects_non_decaying_pair(self):
        # Re(1/w1 + 1/w2) = -0.47: the integrand grows along u = i t
        omega = ModularPair(-0.5 + 0.3j, 1.0)
        ws = omega.omega_sum
        with pytest.raises(ValueError, match="does not decay"):
            HyperbolicParams.balanced(0.1 * ws, 0.1 * ws, 0.1 * ws,
                                      0.1 * ws, 0.1 * ws, omega)

    def test_index_balancing_exact_by_construction(self):
        p = IndexParams.balanced(0.1, 0.2, 0.15, 0.25, 1, -2, 0, 1, 0.3)
        assert sum(p.s) == pytest.approx(0.5, abs=1e-15)
        assert sum(p.n) == 0 and sum(p.m) == 0
        assert np.prod(p.a) == pytest.approx(p.q**0.5, rel=1e-13)

    def test_index_rejects_unbalanced_spins(self):
        with pytest.raises(ValueError, match="sum to zero"):
            IndexParams((0.1, 0.2, 0.2), (0.1, 0.2, 0.2), (1, 1, 1),
                        (0, 0, 0), 0.3)

    @pytest.mark.parametrize("q", [0.0, 1.0, 1.5, math.nan])
    def test_index_rejects_q_outside_unit_interval(self, q):
        with pytest.raises(ValueError, match="0 < q < 1"):
            IndexParams((0.1, 0.2, 0.2), (0.1, 0.2, 0.2), (0, 0, 0),
                        (0, 0, 0), q)

    def test_index_rejects_nonpositive_exponents(self):
        # the unit circle is no longer the contour once an exponent is <= 0
        with pytest.raises(ValueError, match="positive"):
            IndexParams((-0.05, 0.3, 0.25), (0.2, 0.2, 0.1), (0, 0, 0),
                        (0, 0, 0), 0.3)

    def test_gamma_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError, match="positive"):
            GammaParams.balanced(0.3, 0.3, 0.1, 0.1)  # alpha3 = -0.1

    def test_gamma_rejects_degenerate_pairwise_sum(self):
        with pytest.raises(ValueError, match="degenerate"):
            GammaParams((0.25, 0.1, 0.15), (0.25, 0.1, 0.15),
                        (0, 0, 0), (0, 0, 0))

    def test_beta_balancing(self):
        p = BetaParams.balanced(0.1, 0.12, 0.09, 0.11, 0.13)
        assert sum(p.a) + sum(p.b) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("make", [
        lambda nan: IndexParams((nan, 0.2, 0.3), (0.1, 0.2, 0.2),
                                (0, 0, 0), (0, 0, 0), 0.3),
        lambda nan: GammaParams((0.1, 0.2, 0.2), (0.1, nan, 0.2),
                                (0, 0, 0), (0, 0, 0)),
        lambda nan: HyperbolicParams((0.1, 0.2, nan), (0.1, 0.2, 0.3),
                                     ModularPair(0.4 + 0.9j, 1.0)),
        lambda nan: BetaParams((nan, 0.1, 0.1), (0.1, 0.1, 0.5)),
    ], ids=["index", "gamma", "hyperbolic", "beta"])
    def test_nan_fails_balancing(self, make):
        with pytest.raises(ValueError, match="balancing violated"):
            make(math.nan)

    # Re(a_1 + b_1) = 1.2 times the balancing total, the rest balanced
    @pytest.mark.parametrize("make", [
        lambda: HyperbolicParams(
            tuple(v * (1.4 + 0.9j) for v in (0.6, 0.1, 0.1)),
            tuple(v * (1.4 + 0.9j) for v in (0.6, -0.3, -0.1)),
            ModularPair(0.4 + 0.9j, 1.0)),
        lambda: BetaParams((0.6, 0.1, 0.1), (0.6, -0.3, -0.1)),
    ], ids=["hyperbolic", "beta"])
    def test_pole_separation_enforced(self, make):
        with pytest.raises(ValueError, match="pole separation violated"):
            make()

    @pytest.mark.parametrize("make, match", [
        (lambda: IndexParams((0.25, 0.25), (0.1, 0.2, 0.2), (0, 0, 0),
                             (0, 0, 0), 0.3), "s must have exactly 3"),
        (lambda: IndexParams((0.1, 0.2, 0.2), (0.1, 0.2, 0.2),
                             (1, -1, 0, 0), (0, 0, 0), 0.3),
         "n must have exactly 3"),
        (lambda: GammaParams((0.1, 0.2, 0.2), (0.25, 0.25), (0, 0, 0),
                             (0, 0, 0)), "beta must have exactly 3"),
        (lambda: GammaParams((0.1, 0.2, 0.2), (0.1, 0.2, 0.2), (0, 0, 0),
                             (0, 0)), "m must have exactly 3"),
        (lambda: HyperbolicParams((0, 0), (0, 0, 0),
                                  ModularPair(0.4 + 0.9j, 1.0)),
         "need exactly 3 a's and 3 b's"),
        (lambda: BetaParams((0.2, 0.2, 0.2), (0.1, 0.1, 0.1, 0.1)),
         "need exactly 3 a's and 3 b's"),
    ], ids=["index-exponents", "index-spins", "gamma-parameters",
            "gamma-spins", "hyperbolic", "beta"])
    def test_three_entries_required(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    @pytest.mark.parametrize("spins", [(1.5, -1.5, 0), (math.nan, 0, 0)])
    def test_non_integer_spins_rejected(self, spins):
        # int() would truncate 1.5 to 1 and verify another point
        with pytest.raises(ValueError, match="must be integers"):
            GammaParams.balanced(0.12, 0.21, 0.17, 0.08, *spins[:2])
        with pytest.raises(ValueError, match="must be integers"):
            IndexParams((0.1, 0.2, 0.2), (0.1, 0.2, 0.2), (0, 0, 0), spins,
                        0.3)

    def test_hyperbolic_kappa_is_the_decay_rate(self, omega):
        s = 1 / omega.omega1 + 1 / omega.omega2
        p = sample_hyperbolic(np.random.default_rng(0), omega)
        assert p.kappa == 2 * math.pi * s.real

    def test_round_trip_serialization(self, rng, omega):
        for sampler, cls in ((sample_index, IndexParams),
                             (sample_gamma, GammaParams),
                             (sample_beta, BetaParams)):
            p = sampler(rng)
            assert cls.from_record(p.to_record()) == p
        p = sample_hyperbolic(rng, omega)
        q = HyperbolicParams.from_record(p.to_record())
        assert q.a == pytest.approx(p.a) and q.b == pytest.approx(p.b)


class TestSamplers:
    def test_gamma_sampler_respects_box_and_balance(self, rng):
        for _ in range(50):
            p = sample_gamma(rng)
            assert all(0.05 <= v <= 0.4 for v in p.alpha + p.beta)
            assert sum(p.alpha) == pytest.approx(0.5, abs=1e-14)
            assert all(-2 <= v <= 2 for v in p.n + p.m)
            assert sum(p.n) == 0 and sum(p.m) == 0

    def test_index_sampler_positive_exponents(self, rng):
        for _ in range(50):
            p = sample_index(rng)
            assert min(p.s + p.t) > 0
            assert 0.2 <= p.q <= 0.5

    def test_hyperbolic_sampler_pole_separation(self, rng, omega):
        for _ in range(25):
            p = sample_hyperbolic(rng, omega)
            ws = omega.omega_sum
            for ai in p.a:
                for bj in p.b:
                    assert 0 < ((ai + bj) / ws).real < 1

    def test_samplers_deterministic_for_seed(self):
        p1 = sample_gamma(np.random.default_rng(99))
        p2 = sample_gamma(np.random.default_rng(99))
        assert p1 == p2

    def test_sampler_streams_pinned(self):
        # the benchmark compares two source trees on the points these
        # samplers draw, so the first 10 records at seed 0 of every sampler
        # (hyperbolic on each pair of acceptance criterion 3) are pinned
        pairs = (ModularPair(0.4 + 0.9j, 1.0), ModularPair(0.3 + 0.7j, 1.1),
                 ModularPair(0.6 + 1.3j, 0.9))
        samplers = [sample_gamma, lambda rng: sample_gamma(rng, False),
                    sample_index, sample_beta]
        samplers += [lambda rng, w=w: sample_hyperbolic(rng, w)
                     for w in pairs]
        digest = hashlib.sha256()
        for sampler in samplers:
            rng = np.random.default_rng(0)
            for _ in range(10):
                digest.update(json.dumps(sampler(rng).to_record(),
                                         sort_keys=True).encode())
        assert digest.hexdigest() == ("92e01e1f5d2877a5f9a6386c91ba5001"
                                      "e7668f597a1e9d34b1de4e4c81376515")
