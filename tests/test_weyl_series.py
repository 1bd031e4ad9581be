"""Exact series algebra in two q-commuting variables."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentaq.weyl_series import (
    Generator,
    NormalOrderedSeries,
    check_operator_pentagon,
    quantum_dilog_series,
    series_multiply,
)

Q = Fraction(1, 2)


def mono(a, b, deg=6, q=Q, coeff=Fraction(1)):
    return NormalOrderedSeries.monomial(a, b, deg, q, coeff)


class TestSeriesAlgebra:
    def test_xy_already_normal_ordered(self):
        prod = series_multiply(mono(1, 0), mono(0, 1))
        assert prod.coefficient(1, 1) == 1

    def test_yx_picks_up_inverse_q(self):
        prod = series_multiply(mono(0, 1), mono(1, 0))
        assert prod.coefficient(1, 1) == 1 / Q

    def test_xy_squared(self):
        xy = mono(1, 1)
        prod = series_multiply(xy, xy)
        assert prod.coefficient(2, 2) == 1 / Q

    def test_general_rewrite_rule(self, rng):
        for _ in range(30):
            a, b, c, d = (int(v) for v in rng.integers(0, 4, 4))
            deg = a + b + c + d
            if deg == 0:
                continue
            prod = series_multiply(mono(a, b, deg), mono(c, d, deg))
            assert prod.coefficient(a + c, b + d) == Q ** (-b * c)

    def test_mismatched_q_rejected(self):
        with pytest.raises(ValueError):
            series_multiply(mono(1, 0, q=Fraction(1, 2)),
                            mono(0, 1, q=Fraction(1, 3)))

    def test_truncation_drops_overflow(self):
        prod = series_multiply(mono(2, 0, deg=3), mono(0, 2, deg=3))
        assert prod.coefficients == {}

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_associativity(self, a, b, c):
        deg = 8
        s1 = mono(a, b % 2, deg)
        s2 = mono(b, c % 2, deg)
        s3 = mono(c, a % 2, deg)
        left = series_multiply(series_multiply(s1, s2), s3)
        right = series_multiply(s1, series_multiply(s2, s3))
        assert left.coefficients == right.coefficients

    def test_distributivity(self):
        s1 = mono(1, 0) + mono(0, 2, coeff=Fraction(3, 7))
        s2 = mono(1, 1)
        s3 = mono(2, 0, coeff=Fraction(-2, 5))
        left = series_multiply(s1, s2 + s3)
        right = series_multiply(s1, s2) + series_multiply(s1, s3)
        assert left.coefficients == right.coefficients


class TestQuantumDilogSeries:
    def test_degree_zero_is_one(self):
        s = quantum_dilog_series(Generator.X, 0, Q)
        assert s.coefficients == {(0, 0): 1}

    def test_first_coefficient(self):
        # expansion of prod (1 - x q^i) to first order: -q/(1-q)
        s = quantum_dilog_series(Generator.X, 4, Q)
        assert s.coefficient(1, 0) == -Q / (1 - Q)

    def test_neg_xy_degree_two(self):
        s = quantum_dilog_series(Generator.NEG_XY, 4, Q)
        assert s.coefficient(1, 1) == Q / (1 - Q)

    def test_exact_rationals(self):
        s = quantum_dilog_series(Generator.Y, 6, Fraction(2, 5))
        assert all(isinstance(c, Fraction) for c in s.coefficients.values())


class TestOperatorPentagon:
    def test_degree_one_by_hand(self):
        _, residual = check_operator_pentagon(1, Q)
        assert residual == 0

    def test_degree_two_xy_coefficient(self):
        # both sides carry q/(1-q)^2 on the xy monomial
        lx = quantum_dilog_series(Generator.X, 2, Q)
        ly = quantum_dilog_series(Generator.Y, 2, Q)
        lxy = quantum_dilog_series(Generator.NEG_XY, 2, Q)
        lhs = series_multiply(ly, lx)
        rhs = series_multiply(series_multiply(lx, lxy), ly)
        assert lhs.coefficient(1, 1) == Q / (1 - Q) ** 2
        assert rhs.coefficient(1, 1) == Q / (1 - Q) ** 2

    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(1, 3),
                                   Fraction(2, 5)])
    def test_exact_zero_to_degree_ten(self, q):
        _, residual = check_operator_pentagon(10, q)
        assert residual == 0

    def test_y_zero_specialization_reduces_to_lx(self):
        lx = quantum_dilog_series(Generator.X, 8, Q)
        ly = quantum_dilog_series(Generator.Y, 8, Q)
        lxy = quantum_dilog_series(Generator.NEG_XY, 8, Q)
        lhs = series_multiply(ly, lx).drop_y()
        rhs = series_multiply(series_multiply(lx, lxy), ly).drop_y()
        assert lhs.coefficients == lx.coefficients
        assert rhs.coefficients == lx.coefficients

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
