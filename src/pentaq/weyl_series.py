"""Exact truncated series algebra in two q-commuting variables.

The variables satisfy xy = q yx.  A truncated series is a plain dict
``{(a, b): Fraction}`` of normal-ordered monomials x^a y^b with no zero
coefficient; the truncation degree and q are arguments of each product, not
properties of a series.  q is taken as ``Fraction(q)``, so a float becomes
its exact binary rational and a complex is refused.  The operator pentagon
check below is therefore an exact computation with no tolerance at all.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

__all__ = [
    "Generator",
    "series_multiply",
    "series_difference",
    "quantum_dilog_series",
    "operator_pentagon_sides",
    "check_operator_pentagon",
]


class Generator(Enum):
    """Argument G = sign x^a y^b of the quantum dilogarithm, as
    (sign, a, b)."""

    X = (1, 1, 0)
    Y = (1, 0, 1)
    NEG_XY = (-1, 1, 1)


def series_multiply(lhs: dict, rhs: dict, max_degree: int, q) -> dict:
    """Product of two normal-ordered series, truncated to total degree
    max_degree.

    Uses y^b x^c = q^{-b c} x^c y^b, the iterated form of y x = q^{-1} x y.
    """
    q = Fraction(q)
    out: dict[tuple[int, int], Fraction] = {}
    for (a, b), cl in lhs.items():
        for (c, d), cr in rhs.items():
            if a + b + c + d <= max_degree:
                key = (a + c, b + d)
                out[key] = out.get(key, 0) + cl * cr * q ** (-b * c)
    return {key: c for key, c in out.items() if c}


def series_difference(lhs: dict, rhs: dict) -> dict:
    """lhs - rhs, without its zero coefficients."""
    diff = {key: lhs.get(key, 0) - rhs.get(key, 0)
            for key in lhs.keys() | rhs.keys()}
    return {key: c for key, c in diff.items() if c}


def quantum_dilog_series(generator: Generator, max_degree: int, q) -> dict:
    """Expansion of l(G) = prod_{i>=1} (1 - G q^i) as a normal-ordered series.

    Euler's identity gives l(G) = sum_{n>=0} (-1)^n q^{n(n+1)/2} G^n / (q; q)_n,
    and for G = sign x^a y^b normal ordering gives
    G^n = sign^n q^{-ab n(n-1)/2} x^{an} y^{bn}.  (q; q)_n gains one factor
    per term.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    q = Fraction(q)
    sign, a, b = generator.value
    series, qpoch = {}, Fraction(1)
    for n in range(max_degree // (a + b) + 1):
        c = (-sign) ** n * q ** ((n * (n + 1) - a * b * n * (n - 1)) // 2)
        if c:
            series[(a * n, b * n)] = c / qpoch
        qpoch *= 1 - q ** (n + 1)
    return series


def operator_pentagon_sides(max_degree: int, q) -> tuple[dict, dict]:
    """Both sides of the operator pentagon, l(y) l(x) and l(x) l(-xy) l(y),
    truncated to total degree max_degree."""
    lx, ly, lxy = (quantum_dilog_series(g, max_degree, q)
                   for g in (Generator.X, Generator.Y, Generator.NEG_XY))
    return (series_multiply(ly, lx, max_degree, q),
            series_multiply(series_multiply(lx, lxy, max_degree, q), ly,
                            max_degree, q))


def check_operator_pentagon(max_degree: int, q) -> tuple:
    """Exact check of l(y) l(x) = l(x) l(-xy) l(y) up to total degree.

    Returns q as a Fraction and the maximum residual coefficient
    magnitude, which is exactly zero.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    q = Fraction(q)
    if not 0 < q < 1:
        raise ValueError(f"need 0 < q < 1, got {q}")
    diff = series_difference(*operator_pentagon_sides(max_degree, q))
    return q, max(map(abs, diff.values()), default=Fraction(0))
