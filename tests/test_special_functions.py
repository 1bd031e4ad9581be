"""Scalar special functions against independent oracles and invariants."""

import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pentaq.kernels import sample_hyperbolic, sample_index
from pentaq.special_functions import (
    ConvergenceError,
    ModularPair,
    PoleError,
    bernoulli_b22,
    dilog,
    gamma,
    hyperbolic_gamma,
    log_gamma,
    log_hyperbolic_gamma,
    log_qpoch_inf,
    qpoch_inf,
    qpoch_ratio_regularized,
    rogers_L,
)
from pentaq.special_functions import (
    _MAX_CACHED_HEAD,
    _complex_log,
    _nome_table,
)

mp.mp.dps = 30

# the quasi-period pairs of acceptance criterion 3
CRITERION_3_PAIRS = (ModularPair(0.4 + 0.9j, 1.0),
                     ModularPair(0.3 + 0.7j, 1.1),
                     ModularPair(0.6 + 1.3j, 0.9))

PHASES = st.floats(-math.pi, math.pi)
# nomes with 1e-4 <= |q| <= 0.999: real, negative or complex, half of them
# with |q| >= 0.9
NOMES_TO_UNIT = st.builds(
    lambda abs_q, phase: abs_q * cmath.exp(1j * phase),
    st.one_of(st.floats(-4.0, math.log10(0.9)).map(lambda lg: 10**lg),
              st.floats(1.0, 3.0).map(lambda d: 1 - 10**-d)),
    st.one_of(st.sampled_from([0.0, math.pi]), PHASES))


def direct_product(a, q):
    """The factors x_k = a q^k down to |x_k| < 1e-20, in double precision
    (powers of a real q kept real), and their product prod (1 - x_k) in
    30-digit arithmetic: the oracle of both Pochhammer functions, which
    also holds at |q| near 1, where mpmath's qp does not converge."""
    a, q = complex(a), complex(q)
    count = math.ceil(math.log(1e-20 / abs(a)) / math.log(abs(q))) + 1
    k = np.arange(max(count, 1))
    x = a * (q.real if q.imag == 0 else q) ** k
    oracle, x_mp, q_mp = mp.mpc(1), mp.mpc(a.real, a.imag), mp.mpc(q.real,
                                                                   q.imag)
    for _ in k:
        oracle *= 1 - x_mp
        x_mp *= q_mp
    return x, oracle


def assert_log_qpoch_matches_oracle(a, q):
    """exp(log_qpoch_inf(a, q) - log(oracle)) = 1 up to the rounding of the
    log-space terms: the closed-form monomial j (log a + i pi)
    + j (j-1)/2 log q over the j factors with |a q^k| >= 1, and the
    conditioning sum of |a q^k| / |1 - a q^k| near a zero."""
    a, q = complex(a), complex(q)
    x, oracle = direct_product(a, q)
    if np.any(x == 1):
        # an exact zero of the product
        assert log_qpoch_inf(a, q).real == -np.inf
        return
    j = int(np.sum(np.abs(x) >= 1))
    with np.errstate(over="ignore"):
        # infinite within rounding of a zero
        conditioning = float(np.sum(np.abs(x) / np.abs(1 - x)))
    scale = (1 + j * (abs(cmath.log(a)) + math.pi)
             + j * (j - 1) / 2 * abs(cmath.log(q)) + conditioning)
    got = mp.mpc(log_qpoch_inf(a, q))
    deviation = abs(mp.exp(got - mp.log(oracle)) - 1)
    assert deviation <= 16 * np.finfo(float).eps * scale, (a, q)


def largest_test_modulus(q) -> float:
    """10, or less where |q| -> 1: the partial products of (a; q)_inf peak
    near exp(log(|a|)^2 / (2 |log q|)), kept below exp(300)."""
    return min(10.0, math.exp(math.sqrt(600 * -math.log(abs(q)))))


def assert_qpoch_matches_direct_product(a, q):
    """qpoch_inf(a, q) against the direct product of the factors 1 - a q^k
    in 30-digit arithmetic, down to |a q^k| < 1e-20.

    qpoch_inf multiplies a head of J = h + max(0, ceil(log|a| / |log q|))
    factors, h = ceil(sqrt(T / |log q|)) with T = -log 1e-16, and sums
    N = ceil(T / (h |log q|)) terms of Euler's series for the rest.  The
    relative deviation may be 16 ulp times J + N plus the condition of
    the sum of logs, sum_k |x_k| / |1 - x_k| over x_k = a q^k: an ulp of
    a or of one factor moves the product by that much.  For complex q the
    powers q^k carry a phase rounding that grows like k, an ulp of q, and
    the condition takes sum_k k |x_k| / |1 - x_k| as well; real q stays
    real."""
    a, q = complex(a), complex(q)
    log_q = -math.log(abs(q))
    h = math.ceil(math.sqrt(-math.log(1e-16) / log_q))
    n_terms = math.ceil(-math.log(1e-16) / (h * log_q))
    head = h + max(0, math.ceil(math.log(abs(a)) / log_q))
    x, oracle = direct_product(a, q)
    weight = 1 if q.imag == 0 else 1 + np.arange(len(x))
    with np.errstate(divide="ignore", over="ignore"):
        # infinite within rounding of a zero
        condition = float(np.sum(weight * np.abs(x) / np.abs(1 - x)))
    assume(1e-280 < abs(oracle) < 1e280)
    deviation = abs(mp.mpc(qpoch_inf(a, q)) / oracle - 1)
    assert deviation <= 16 * np.finfo(float).eps * (head + n_terms
                                                     + condition), (a, q)


def hyperbolic_kernel_arguments(omega, n=17):
    """The six (6, n) arguments a_i + u, b_i - u of the hyperbolic integrand
    of a sampled point, u = i t for t in [-32, 32]."""
    p = sample_hyperbolic(np.random.default_rng(1), omega)
    u = 1j * np.linspace(-32, 32, n)
    return np.array([x + s * u for x, s in zip(p.a + p.b, [1] * 3 + [-1] * 3)])


class TestTypes:
    def test_modular_pair_nomes_inside_disc(self, omega):
        assert abs(omega.q) < 1
        assert abs(omega.q_dual) < 1

    def test_modular_pair_rejects_real_ratio(self):
        with pytest.raises(ValueError):
            ModularPair(1.0, 2.0)

    def test_modular_pair_rejects_zero_period(self):
        with pytest.raises(ValueError):
            ModularPair(0.0, 1.0)


# the functions of the module's array convention, each with the arguments
# that follow its array argument
ARRAY_CONVENTION = [
    pytest.param(fn, args, id=fn.__name__) for fn, args in (
        (log_gamma, ()),
        (qpoch_inf, (0.35,)),
        (log_qpoch_inf, (0.35,)),
        (bernoulli_b22, ((0.4 + 0.9j, 1.0),)),
        (log_hyperbolic_gamma, (CRITERION_3_PAIRS[0],)))]


class TestArrayConvention:
    @pytest.mark.parametrize("fn, args", ARRAY_CONVENTION)
    def test_scalar_gives_complex_and_array_keeps_shape(self, fn, args):
        x = np.array([[0.3 + 0.1j, 0.45, 1.7 - 0.2j],
                      [0.2 + 0.3j, 0.9 - 0.4j, 2.5]])
        for scalar in (0.45, np.array(0.45)):
            got = fn(scalar, *args)
            assert type(got) is complex
            assert got == fn(np.array([0.45]), *args)[0]
        # bit-equal to the flat call on the same values, not to calls per
        # element: qpoch_inf's head length depends on the largest |a|
        got = fn(x, *args)
        assert got.shape == (2, 3)
        assert np.array_equal(got, fn(x.reshape(-1), *args).reshape(2, 3))


class TestLogGamma:
    def test_identity_points(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(0.5).real == pytest.approx(math.log(math.sqrt(math.pi)),
                                                    rel=1e-14)

    def test_third_against_oracle(self):
        expected = float(mp.loggamma(mp.mpf(1) / 3))
        assert log_gamma(1 / 3).real == pytest.approx(expected, rel=1e-13)

    def test_complex_strip_against_oracle(self, rng):
        for _ in range(50):
            z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
            if abs(z.imag) < 0.1 and z.real < 0.5:
                continue
            expected = mp.loggamma(mp.mpc(z.real, z.imag))
            got = log_gamma(z)
            assert abs(got - complex(expected)) <= 1e-13 * max(1, abs(expected))

    def test_pole_detection(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                log_gamma(z)

    def test_pole_in_a_batch_is_named(self, rng):
        # a (12, 65) batch like a gamma integrand's: its near-real column
        # holds half-integers, which are no poles, until one element is -2
        z = rng.uniform(-3, 3, (12, 65)) + 1j * rng.uniform(-50, 50, (12, 65))
        z[:, 32] = np.arange(12) - 6.5
        assert np.all(np.isfinite(log_gamma(z)))
        z[7, 40] = -2
        with pytest.raises(PoleError, match=r"pole at z = \(-2\+0j\)$"):
            log_gamma(z)

    def test_recurrence(self, rng):
        count = 0
        while count < 1000:
            z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
            if abs(z.imag) < 1e-3 and z.real <= 0.5:
                continue
            count += 1
            ratio = np.exp(log_gamma(z + 1) - log_gamma(z))
            assert abs(ratio - z) <= 1e-12 * abs(z)

    def test_reflection(self, rng):
        for _ in range(200):
            z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if abs(z.imag) < 1e-3:
                continue
            val = gamma(z) * gamma(1 - z) * np.sin(np.pi * z) / np.pi
            assert abs(val - 1) <= 1e-11


class TestQPochhammer:
    def test_trivial_cases(self):
        assert qpoch_inf(0.0, 0.7) == pytest.approx(1.0)
        assert qpoch_inf(0.3, 0.0) == pytest.approx(0.7)

    def test_zero_nome_is_one_factor(self):
        # (a; 0)_inf = 1 - a, in both the product and the log-space form
        assert log_qpoch_inf(0.3 - 0.2j, 0.0) == np.log(1 - (0.3 - 0.2j))
        a = np.array([0.3, -0.5 + 1j, 0.0])
        assert np.array_equal(log_qpoch_inf(a, 0j), np.log(1 - a))
        assert np.array_equal(qpoch_inf(a, 0.0), 1 - a)

    def test_euler_function_half(self):
        expected = float(mp.qp(mp.mpf("0.5"), mp.mpf("0.5")))
        assert qpoch_inf(0.5, 0.5).real == pytest.approx(expected, rel=1e-14)

    def test_against_oracle_complex(self, rng):
        for _ in range(25):
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            q = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            if abs(q) < 1e-3:
                continue
            expected = complex(mp.qp(mp.mpc(a.real, a.imag),
                                     mp.mpc(q.real, q.imag)))
            assert abs(qpoch_inf(a, q) - expected) <= 1e-12 * max(1, abs(expected))

    def test_recurrence(self, rng):
        for _ in range(100):
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            q = rng.uniform(0.05, 0.9)
            lhs = qpoch_inf(a, q)
            rhs = (1 - a) * qpoch_inf(a * q, q)
            assert abs(lhs - rhs) <= 1e-12 * max(1, abs(lhs))

    def test_rejects_bad_nome(self):
        with pytest.raises(ValueError):
            qpoch_inf(0.5, 1.1)

    # log_qpoch_inf's head does not grow with |a|, so only the nome can
    # make it refuse
    @pytest.mark.parametrize(
        "function, a, q",
        [(qpoch_inf, 0.5, 1 - 1e-10), (qpoch_inf, 1e300, 0.9999),
         (log_qpoch_inf, 0.5, 1 - 1e-10)],
        ids=["0.5-0.9999999999", "1e+300-0.9999", "log-0.5-0.9999999999"])
    def test_refuses_more_than_max_factors(self, function, a, q):
        with pytest.raises(ConvergenceError, match="factors"):
            function(a, q)

    def test_log_near_unit_nome_is_semiclassical(self):
        # log (x; q)_inf = -Li2(x)/eps + log(1 - x)/2 + O(eps), q = e^{-eps}
        # (Faddeev and Kashaev, Quantum dilogarithm, 1994); the next term,
        # -eps x / (12 (1 - x)), is 1.4e-13 of the value here.  A direct
        # product cut at 200,000 factors gives -530,320, 9% off
        q = 1 - 1e-6
        eps = -math.log(q)
        li2_half = math.pi**2 / 12 - math.log(2) ** 2 / 2
        expected = -li2_half / eps + 0.5 * math.log(0.5)
        got = log_qpoch_inf(0.5, q)
        assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_log_variant_matches(self, rng):
        for _ in range(20):
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            q = rng.uniform(0.1, 0.8)
            assert np.exp(log_qpoch_inf(a, q)) == pytest.approx(
                qpoch_inf(a, q), rel=1e-12)

    def test_vectorized_matches_scalar(self, rng):
        a = rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)
        got = qpoch_inf(a, 0.3)
        for i in range(8):
            assert got[i] == pytest.approx(qpoch_inf(complex(a[i]), 0.3))

    @given(st.floats(0.05, 0.8), st.floats(-1.5, 1.5))
    @settings(max_examples=30, deadline=None)
    def test_recurrence_property(self, q, a):
        lhs = qpoch_inf(a, q)
        rhs = (1 - a) * qpoch_inf(a * q, q)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    # qpoch_inf is a direct head plus Euler's series; these compare it with
    # the direct product up to |q| = 0.999, across |a| = 1 and near zeros

    @given(NOMES_TO_UNIT, st.floats(-1.0, 1.0), PHASES)
    @example(-0.99, 0.9, 0.0)   # powers of a real q kept real
    @example(-0.999, 0.5, 1.0)
    @settings(max_examples=25, deadline=None)
    def test_head_series_against_direct_product(self, q, u, phase):
        a = largest_test_modulus(q) ** u * cmath.exp(1j * phase)
        assert_qpoch_matches_direct_product(a, q)

    @given(NOMES_TO_UNIT, st.floats(-0.1, 0.1), PHASES)
    @settings(max_examples=20, deadline=None)
    def test_head_series_near_unit_modulus(self, q, log10_abs, phase):
        assert_qpoch_matches_direct_product(
            10**log10_abs * cmath.exp(1j * phase), q)

    @given(NOMES_TO_UNIT, st.integers(0, 6), st.floats(-12.0, -8.0), PHASES)
    @settings(max_examples=20, deadline=None)
    def test_head_series_near_a_zero(self, q, k, log10_dist, phase):
        # a within a relative 1e-8 of the zero a = q^{-k}
        if abs(q) ** -k > largest_test_modulus(q):
            k = 0
        a = q**-k * (1 + 10**log10_dist * cmath.exp(1j * phase))
        assert_qpoch_matches_direct_product(a, q)

    @pytest.mark.parametrize("q", [0.5, -0.25, 0.5j, 0.125])
    def test_exact_zero_factor(self, q):
        # binary-exact nomes, so a = q^{-k} is an exact zero of the product
        for k in range(5):
            a = complex(q) ** -k
            assert qpoch_inf(a, q) == 0
            got = qpoch_inf(np.array([0.3, a, 40.0]), q)
            assert (got == 0).tolist() == [False, True, False]

    def test_non_finite_element_is_nan(self):
        # as in log_qpoch_inf: nan for that element, and the rest as if it
        # were not there (its head length comes from the finite elements)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = qpoch_inf(np.array([np.inf, 0.5, complex(np.nan, 1)]), 0.3)
            logs = log_qpoch_inf(np.array([np.inf, 0.5]), 0.3)
            assert np.isnan(qpoch_inf(complex(1, -np.inf), 0.3))
        assert np.isnan(got[[0, 2]]).all() and np.isnan(logs[0])
        assert got[1] == qpoch_inf(0.5, 0.3)

    def test_batch_equals_rows(self, monkeypatch):
        # the (12, n) arguments of one index integrand level: one call, one
        # head length for all rows, equals its per-row calls to rounding
        import pentaq.identities as identities

        captured = []

        def capture(a, q):
            captured.append(np.array(a))
            return qpoch_inf(a, q)

        monkeypatch.setattr(identities, "qpoch_inf", capture)
        p = sample_index(np.random.default_rng(3))
        identities._index_term_integrand(p, 1, True,
                                         identities._index_prefactor(p))(
            np.exp(2j * np.pi * np.arange(64) / 64))
        rows = captured[-1]
        assert rows.shape == (12, 64)
        batch = qpoch_inf(rows, p.q)
        np.testing.assert_allclose(
            batch, np.array([qpoch_inf(row, p.q) for row in rows]),
            rtol=64 * np.finfo(float).eps, atol=0)

    # log_qpoch_inf splits every factor with |a q^k| >= 1; these compare it
    # with the oracle across that boundary, for |a| far beyond it and near
    # its zeros

    @given(NOMES_TO_UNIT, st.floats(-0.1, 0.1), PHASES)
    # q one rounding off the negative axis: powers q^k taken as
    # exp(k log q) miss the tolerance there by 3x
    @example(-0.9986664785678366 + 1.22301370639386e-16j, 0.0, 1.0)
    # q near +1: powers q^k by doubling miss the tolerance here
    @example(0.9963659266555661 + 0.0019460296750044752j, 0.0, 1.0)
    @settings(max_examples=40, deadline=None)
    def test_log_split_near_unit_modulus(self, q, log10_abs, phase):
        assert_log_qpoch_matches_oracle(10**log10_abs * cmath.exp(1j * phase),
                                        q)

    @pytest.mark.parametrize("q", [
        -0.9987136030550631 + 1.2230714172463032e-16j,
        -0.9986664785678366 + 1.22301370639386e-16j,
        -0.999 * cmath.exp(1e-3j),
        -0.95 * cmath.exp(-0.2j),
    ])
    @pytest.mark.parametrize("phase", [1.0, -2.5])
    def test_log_near_minus_one(self, q, phase):
        # complex q next to -1 takes its powers as (-1)^k exp(k log(-q));
        # by doubling, the first q missed the bound (2.7e-12 against
        # 2.6e-12 at phase 1), a case random search of the test above found
        assert_log_qpoch_matches_oracle(cmath.exp(1j * phase), q)

    @given(NOMES_TO_UNIT, st.floats(1.0, 12.0), PHASES)
    @settings(max_examples=40, deadline=None)
    def test_log_split_large_modulus(self, q, log10_abs, phase):
        assert_log_qpoch_matches_oracle(10**log10_abs * cmath.exp(1j * phase),
                                        q)

    @given(NOMES_TO_UNIT, st.integers(0, 6), st.floats(-12.0, -8.0), PHASES)
    @settings(max_examples=40, deadline=None)
    def test_log_split_near_a_zero(self, q, k, log10_dist, phase):
        # a within a relative 1e-8 of the zero a = q^{-k}
        if abs(q) ** -k > 1e12:
            k = 0
        a = q**-k * (1 + 10**log10_dist * cmath.exp(1j * phase))
        assert_log_qpoch_matches_oracle(a, q)

    @pytest.mark.parametrize("q", [0.5, -0.25, 0.5j, 0.125])
    def test_log_exact_zero_is_minus_infinity(self, q):
        # binary-exact nomes, so a = q^{-k} is an exact zero of the product
        for k in range(5):
            a = complex(q) ** -k
            assert log_qpoch_inf(a, q).real == -np.inf
            got = log_qpoch_inf(np.array([0.3, a, 40.0]), q)
            assert np.isneginf(got.real).tolist() == [False, True, False]

    @pytest.mark.parametrize("omega", CRITERION_3_PAIRS)
    def test_log_batch_equals_rows_and_scalars(self, omega):
        # the hyperbolic integrand's six kernel arguments over |Im u| <= 32
        u = hyperbolic_kernel_arguments(omega)
        for a, q in ((np.exp(2j * np.pi * u / omega.omega2), omega.q),
                     (np.exp(2j * np.pi * u / omega.omega1) * omega.q_dual,
                      omega.q_dual)):
            batch = log_qpoch_inf(a, q)
            assert np.array_equal(
                batch, np.array([log_qpoch_inf(row, q) for row in a]))
            assert np.array_equal(batch, np.array(
                [[log_qpoch_inf(complex(x), q) for x in row] for row in a]))

    @pytest.mark.parametrize("omega", CRITERION_3_PAIRS)
    @pytest.mark.parametrize("side", ["denominator", "numerator"])
    def test_log_on_hyperbolic_arguments(self, omega, side):
        # the arguments log_hyperbolic_gamma passes, exp(2 pi i u / omega2)
        # at q and exp(2 pi i u / omega1) q~ at q~, over |Im u| <= 32: |a|
        # from e^-228 to e^223, up to 46 split factors at |q| from 1e-4
        # to 0.03
        u = hyperbolic_kernel_arguments(omega, n=9)
        if side == "denominator":
            a, q = np.exp(2j * np.pi * u / omega.omega2), omega.q
        else:
            a = np.exp(2j * np.pi * u / omega.omega1) * omega.q_dual
            q = omega.q_dual
        for x in a.ravel():
            assert_log_qpoch_matches_oracle(x, q)


class TestNomeCache:
    # the powers and series coefficients of each (q, J) are built once
    NOMES = [0.35, 0.35 + 0.2j, -0.6 + 0.1j, -0.5, 0.999,
             0.9963659266555661 + 0.0019460296750044752j]

    @pytest.mark.parametrize("q", NOMES, ids=str)
    def test_values_do_not_depend_on_the_cache(self, q):
        # bit for bit after cache_clear() and on a warm cache, for |a|
        # below and above 1 (head lengths J = h and J > h)
        rng = np.random.default_rng(6)
        a = rng.uniform(0.2, 1.2, 16) * np.exp(1j * rng.uniform(-3, 3, 16))

        def both():
            return qpoch_inf(a, q), log_qpoch_inf(a, q)

        _nome_table.cache_clear()
        cold = both()
        assert _nome_table.cache_info().currsize > 0
        warm = both()
        for c, w in zip(cold, warm):
            assert c.tobytes() == w.tobytes()

    def test_tables_are_read_only(self):
        qpoch_inf(0.3, 0.35 + 0.2j)
        _nome_table.cache_clear()
        powers, coef = _nome_table(0.35 + 0.2j, 6)
        assert not powers.flags.writeable
        with pytest.raises(ValueError):
            powers[0] = 2
        assert isinstance(coef, tuple)
        assert _nome_table(0.35 + 0.2j, 6)[0] is powers

    def test_cache_is_bounded(self):
        # index-spins draws a new q for every point
        maxsize = _nome_table.cache_info().maxsize
        assert isinstance(maxsize, int)
        _nome_table.cache_clear()
        rng = np.random.default_rng(0)
        for _ in range(3 * maxsize):
            qpoch_inf(np.array([0.3, 0.7j]), sample_index(rng).q)
        assert _nome_table.cache_info().currsize == maxsize

    def test_long_heads_are_not_cached(self):
        # near q = 1 a table takes megabytes; it is built per call
        _nome_table.cache_clear()
        q = 1 - 1e-5
        assert math.ceil(math.sqrt(-math.log(1e-16) / -math.log(q))) > \
            _MAX_CACHED_HEAD
        first = qpoch_inf(0.5, q)
        assert _nome_table.cache_info().currsize == 0
        assert qpoch_inf(0.5, q) == first


class TestComplexLog:
    """The block log of log_qpoch_inf against cmath.log."""

    @staticmethod
    def assert_matches_cmath(z):
        got = _complex_log(np.array([z, z]))[0]
        want = cmath.log(z)
        eps = np.finfo(float).eps
        assert got.real == pytest.approx(want.real, rel=4 * eps, abs=0), z
        assert got.imag == pytest.approx(want.imag, rel=4 * eps, abs=0), z

    @pytest.mark.parametrize("phase", [0.0, 0.3, math.pi / 4, 1.5,
                                       math.pi / 2, -1.6, 3.0, math.pi])
    @pytest.mark.parametrize("distance", [1e-12, -3e-13, 1e-15])
    def test_relative_accuracy_near_unit_modulus(self, phase, distance):
        # log|z| of order 1e-12 to its last bits, at every phase: with
        # (x - 1)(x + 1) + y^2 in place of max/min of |x|, |y| the real
        # part is off by 1e-4 relative near z = i
        self.assert_matches_cmath((1 + distance) * cmath.exp(1j * phase))

    @pytest.mark.parametrize("modulus", [0.1, 2.0**16])
    @pytest.mark.parametrize("phase", [0.0, 2.0, -math.pi / 2])
    def test_away_from_unit_modulus(self, modulus, phase):
        self.assert_matches_cmath(modulus * cmath.exp(1j * phase))

    def test_zero_and_nan(self):
        with np.errstate(divide="ignore"):
            got = _complex_log(np.array([0j, complex(np.nan, 0.0)]))
        assert got[0].real == -np.inf and got[0].imag == 0
        assert np.isnan(got[1].real) and np.isnan(got[1].imag)


class TestRegularizedRatio:
    def test_telescoping(self):
        for q in (0.3, 0.7, 0.95, 0.999):
            assert qpoch_ratio_regularized(1, 2, q) == pytest.approx(1.0,
                                                                     abs=1e-12)

    def test_equal_exponents(self):
        assert qpoch_ratio_regularized(0.37, 0.37, 0.6) == pytest.approx(1.0)

    def test_gamma_ratio_limit(self):
        # tends to Gamma(3/2)/Gamma(1/2) = 1/2 as q -> 1
        val = qpoch_ratio_regularized(0.5, 1.5, 0.999)
        assert abs(val - 0.5) < 1e-2

    def test_pole_when_denominator_vanishes(self):
        with pytest.raises(PoleError):
            qpoch_ratio_regularized(1.0, 0.0, 0.5)


class TestBernoulli:
    def test_direct_substitution(self):
        assert bernoulli_b22(0.0, (1.0, 1.0)) == pytest.approx(5 / 6)

    def test_midpoint_closed_form(self, omega):
        w1, w2 = omega.omega1, omega.omega2
        got = bernoulli_b22((w1 + w2) / 2, omega)
        expected = -(w1**2 + w2**2) / (12 * w1 * w2)
        assert got == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("omega", CRITERION_3_PAIRS)
    def test_horner_form_matches_expanded_form(self, omega):
        u = hyperbolic_kernel_arguments(omega)
        w1, w2 = omega.omega1, omega.omega2
        expanded = (u * u / (w1 * w2) - u / w1 - u / w2
                    + w1 / (6 * w2) + w2 / (6 * w1) + 0.5)
        assert np.all(np.abs(bernoulli_b22(u, omega) - expanded)
                      <= 1e-14 * np.abs(expanded))

    def test_swap_symmetry(self, rng):
        for _ in range(20):
            w1 = complex(rng.uniform(0.1, 1), rng.uniform(0.1, 1))
            w2 = complex(rng.uniform(0.1, 1), rng.uniform(-1, -0.1))
            u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert bernoulli_b22(u, (w1, w2)) == pytest.approx(
                bernoulli_b22(u, (w2, w1)), rel=1e-13)

    @pytest.mark.parametrize("omega", [(0.0, 1.0), (0.4 + 0.9j, 0j)])
    def test_zero_quasi_period_rejected(self, omega):
        with pytest.raises(ValueError, match="quasi-periods must be nonzero"):
            bernoulli_b22(0.3, omega)


class TestHyperbolicGamma:
    def test_self_dual_point(self, omega):
        val = hyperbolic_gamma(omega.omega_sum / 2, omega)
        assert abs(val - 1) <= 1e-10

    def test_inversion_relation(self, rng):
        # the convention-pinning test: gamma2(u) gamma2(w1+w2-u) = 1
        pairs = [ModularPair(0.4 + 0.9j, 1.0),
                 ModularPair(0.3 + 0.7j, 1.1),
                 ModularPair(0.6 + 1.3j, 0.9)]
        for k in range(100):
            om = pairs[k % len(pairs)]
            u = (complex(rng.uniform(0.1, 0.9), rng.uniform(-0.1, 0.1))
                 * om.omega_sum)
            prod = hyperbolic_gamma(u, om) * hyperbolic_gamma(
                om.omega_sum - u, om)
            assert abs(prod - 1) <= 1e-10

    def test_difference_equation_exponent_is_plus_one(self, omega, rng):
        # gamma2(u + omega1)/gamma2(u) = (2 sin(pi u / omega2))^{+1}
        for _ in range(20):
            u = complex(rng.uniform(0.05, 0.3), rng.uniform(-0.1, 0.1))
            ratio = (hyperbolic_gamma(u + omega.omega1, omega)
                     / hyperbolic_gamma(u, omega))
            target = 2 * np.sin(np.pi * u / omega.omega2)
            assert abs(ratio - target) <= 1e-10 * abs(target)

    def test_refuses_near_degenerate_pair(self):
        # omega1/omega2 nearly real pushes |q| toward the unit circle
        with pytest.raises(ConvergenceError):
            log_hyperbolic_gamma(0.3, ModularPair(1.0 + 1e-6j, 1.0))

    def test_vectorized_matches_scalar(self, omega, rng):
        u = rng.uniform(0.1, 0.5, 5) + 1j * rng.uniform(-0.1, 0.1, 5)
        got = np.exp(log_hyperbolic_gamma(u, omega))
        for i in range(5):
            assert got[i] == pytest.approx(
                hyperbolic_gamma(complex(u[i]), omega), rel=1e-12)

    @pytest.mark.parametrize("omega", CRITERION_3_PAIRS)
    def test_batch_equals_rows_and_scalars(self, omega):
        # batching changes no value, which lets the integrand take one call
        u = hyperbolic_kernel_arguments(omega)
        batch = log_hyperbolic_gamma(u, omega)
        assert batch.shape == u.shape
        assert np.array_equal(
            batch, np.array([log_hyperbolic_gamma(row, omega) for row in u]))
        assert np.array_equal(batch, np.array(
            [[log_hyperbolic_gamma(complex(x), omega) for x in row]
             for row in u]))

    def test_refuses_denominator_argument_out_of_range(self):
        # |exp(2 pi i u / omega2)| = e^{754} overflows; not a pole
        with pytest.raises(ConvergenceError, match="omega2"):
            log_hyperbolic_gamma(np.array([0.3, 0.3 - 60j]),
                                 ModularPair(0.4 + 0.9j, 0.5))

    def test_pole_raises_alone_and_in_a_batch(self, omega):
        # u = 0 makes the denominator's first factor 1 - exp(0) exactly 0
        for u in (0.0, np.array([0.3, 0.0, 0.2 + 0.1j])):
            with pytest.raises(PoleError):
                log_hyperbolic_gamma(u, omega)


class TestDilogarithms:
    def test_endpoints(self):
        assert dilog(0.0) == 0.0
        assert dilog(1.0) == pytest.approx(math.pi**2 / 6, rel=1e-14)
        assert rogers_L(0.0) == 0.0
        assert rogers_L(1.0) == pytest.approx(math.pi**2 / 6, rel=1e-14)

    def test_half_values(self):
        assert dilog(0.5) == pytest.approx(
            math.pi**2 / 12 - math.log(2) ** 2 / 2, rel=1e-14)
        assert rogers_L(0.5) == pytest.approx(math.pi**2 / 12, rel=1e-14)

    def test_against_series_oracle(self, rng):
        for _ in range(30):
            x = rng.uniform(0.01, 0.99)
            expected = float(mp.polylog(2, mp.mpf(x)))
            assert dilog(x) == pytest.approx(expected, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            dilog(-0.1)
        with pytest.raises(ValueError):
            rogers_L(1.5)

    @given(st.floats(1e-6, 1 - 1e-6))
    @settings(max_examples=50, deadline=None)
    def test_rogers_reflection(self, x):
        assert rogers_L(x) + rogers_L(1 - x) == pytest.approx(
            math.pi**2 / 6, abs=1e-12)
