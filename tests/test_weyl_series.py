"""Exact series algebra in two q-commuting variables."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentaq.weyl_series import (
    Generator,
    check_operator_pentagon,
    quantum_dilog_series,
    series_difference,
    series_multiply,
)

Q = Fraction(1, 2)


def mono(a, b, coeff=1):
    return {(a, b): Fraction(coeff)}


def add(lhs, rhs):
    """lhs + rhs, without its zero coefficients."""
    total = {key: lhs.get(key, 0) + rhs.get(key, 0)
             for key in lhs.keys() | rhs.keys()}
    return {key: c for key, c in total.items() if c}


def drop_y(series):
    """The specialization y = 0: the monomials with b = 0."""
    return {(a, b): c for (a, b), c in series.items() if b == 0}


class TestSeriesAlgebra:
    def test_xy_already_normal_ordered(self):
        prod = series_multiply(mono(1, 0), mono(0, 1), 6, Q)
        assert prod == {(1, 1): 1}

    def test_yx_picks_up_inverse_q(self):
        prod = series_multiply(mono(0, 1), mono(1, 0), 6, Q)
        assert prod == {(1, 1): 1 / Q}

    def test_xy_squared(self):
        xy = mono(1, 1)
        prod = series_multiply(xy, xy, 6, Q)
        assert prod == {(2, 2): 1 / Q}

    def test_general_rewrite_rule(self, rng):
        for _ in range(30):
            a, b, c, d = (int(v) for v in rng.integers(0, 4, 4))
            deg = a + b + c + d
            if deg == 0:
                continue
            prod = series_multiply(mono(a, b), mono(c, d), deg, Q)
            assert prod == {(a + c, b + d): Q ** (-b * c)}

    def test_truncation_drops_overflow(self):
        assert series_multiply(mono(2, 0), mono(0, 2), 3, Q) == {}

    def test_cancelled_coefficients_are_not_stored(self):
        # x y - q y x = 0 in the algebra
        lhs = add(mono(1, 0), mono(0, 1, -Q))
        rhs = add(mono(0, 1), mono(1, 0))
        assert series_multiply(lhs, rhs, 2, Q) == add(
            mono(2, 0), mono(0, 2, -Q))

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_associativity(self, a, b, c):
        deg = 8
        s1 = mono(a, b % 2)
        s2 = mono(b, c % 2)
        s3 = mono(c, a % 2)
        left = series_multiply(series_multiply(s1, s2, deg, Q), s3, deg, Q)
        right = series_multiply(s1, series_multiply(s2, s3, deg, Q), deg, Q)
        assert left == right

    def test_distributivity(self):
        s1 = add(mono(1, 0), mono(0, 2, Fraction(3, 7)))
        s2 = mono(1, 1)
        s3 = mono(2, 0, Fraction(-2, 5))
        left = series_multiply(s1, add(s2, s3), 6, Q)
        right = add(series_multiply(s1, s2, 6, Q),
                    series_multiply(s1, s3, 6, Q))
        assert left == right

    def test_difference_drops_equal_coefficients(self):
        lhs = add(mono(1, 0), mono(0, 1, 3))
        rhs = add(mono(0, 1, 3), mono(2, 0))
        assert series_difference(lhs, rhs) == add(mono(1, 0), mono(2, 0, -1))
        assert series_difference(lhs, lhs) == {}


class TestQuantumDilogSeries:
    def test_degree_zero_is_one(self):
        s = quantum_dilog_series(Generator.X, 0, Q)
        assert s == {(0, 0): 1}

    def test_first_coefficient(self):
        # expansion of prod (1 - x q^i) to first order: -q/(1-q)
        s = quantum_dilog_series(Generator.X, 4, Q)
        assert s[(1, 0)] == -Q / (1 - Q)

    def test_neg_xy_degree_two(self):
        s = quantum_dilog_series(Generator.NEG_XY, 4, Q)
        assert s[(1, 1)] == Q / (1 - Q)

    def test_neg_xy_degree_four(self):
        # (xy)^2 = q^{-1} x^2 y^2, so the x^2 y^2 coefficient is
        # q^3 q^{-1} / ((1 - q)(1 - q^2)); nothing above degree 5
        s = quantum_dilog_series(Generator.NEG_XY, 5, Q)
        assert s[(2, 2)] == Q**2 / ((1 - Q) * (1 - Q**2))
        assert set(s) == {(0, 0), (1, 1), (2, 2)}

    @pytest.mark.parametrize("generator", list(Generator))
    def test_functional_equation(self, generator):
        # l(G) = (1 - q G) l(q G), with G = sign x^a y^b
        sign, a, b = generator.value
        deg = 9
        lg = quantum_dilog_series(generator, deg, Q)
        lqg = {key: c * Q ** (sum(key) // (a + b)) for key, c in lg.items()}
        one_minus_qg = add(mono(0, 0), mono(a, b, -sign * Q))
        assert series_multiply(one_minus_qg, lqg, deg, Q) == lg

    def test_exact_rationals(self):
        s = quantum_dilog_series(Generator.Y, 6, Fraction(2, 5))
        assert all(isinstance(c, Fraction) for c in s.values())

    def test_q_zero_stores_no_zero_coefficient(self):
        assert quantum_dilog_series(Generator.NEG_XY, 6, 0) == {(0, 0): 1}

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            quantum_dilog_series(Generator.X, -1, Q)


class TestOperatorPentagon:
    def test_degree_one_by_hand(self):
        _, residual = check_operator_pentagon(1, Q)
        assert residual == 0

    def test_degree_two_xy_coefficient(self):
        # both sides carry q/(1-q)^2 on the xy monomial
        lx = quantum_dilog_series(Generator.X, 2, Q)
        ly = quantum_dilog_series(Generator.Y, 2, Q)
        lxy = quantum_dilog_series(Generator.NEG_XY, 2, Q)
        lhs = series_multiply(ly, lx, 2, Q)
        rhs = series_multiply(series_multiply(lx, lxy, 2, Q), ly, 2, Q)
        assert lhs[(1, 1)] == Q / (1 - Q) ** 2
        assert rhs[(1, 1)] == Q / (1 - Q) ** 2

    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(1, 3),
                                   Fraction(2, 5)])
    def test_exact_zero_to_degree_ten(self, q):
        _, residual = check_operator_pentagon(10, q)
        assert residual == 0

    def test_y_zero_specialization_reduces_to_lx(self):
        lx = quantum_dilog_series(Generator.X, 8, Q)
        ly = quantum_dilog_series(Generator.Y, 8, Q)
        lxy = quantum_dilog_series(Generator.NEG_XY, 8, Q)
        lhs = drop_y(series_multiply(ly, lx, 8, Q))
        rhs = drop_y(series_multiply(series_multiply(lx, lxy, 8, Q), ly,
                                     8, Q))
        assert lhs == lx
        assert rhs == lx

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            check_operator_pentagon(0, Q)

    def test_float_q_is_its_exact_binary_rational(self):
        q, residual = check_operator_pentagon(4, 0.3)
        assert q == Fraction(0.3) and residual == 0

    @pytest.mark.parametrize("q, error", [(1.5, ValueError),
                                          (Fraction(3, 2), ValueError),
                                          (0.5 + 0.1j, TypeError)])
    def test_rejects_q_outside_the_unit_interval(self, q, error):
        with pytest.raises(error):
            check_operator_pentagon(2, q)
