"""Exact truncated series algebra in two q-commuting variables.

The variables satisfy xy = q yx.  Every series is kept normal-ordered:
a monomial with key (a, b) stands for x^a y^b.  q and the coefficients are
exact rationals: each is taken as ``Fraction(value)``, so a float becomes
its exact binary rational and a complex is refused.  The operator pentagon
check below is therefore an exact computation with no tolerance at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping

__all__ = [
    "Generator",
    "NormalOrderedSeries",
    "series_multiply",
    "quantum_dilog_series",
    "operator_pentagon_sides",
    "check_operator_pentagon",
]


class Generator(Enum):
    """Argument choices for the quantum dilogarithm expansion."""

    X = "x"
    Y = "y"
    NEG_XY = "-xy"


@dataclass(frozen=True)
class NormalOrderedSeries:
    """A truncated formal series sum_{a+b <= max_degree} c_{ab} x^a y^b.

    Immutable.  Zero coefficients are never stored; keys outside the degree
    cap are dropped at construction.
    """

    coefficients: Mapping[tuple[int, int], Fraction]
    max_degree: int
    q: Fraction

    def __post_init__(self) -> None:
        if self.max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        q = Fraction(self.q)
        clean = {}
        for (a, b), c in self.coefficients.items():
            if a < 0 or b < 0:
                raise ValueError(f"exponents must be nonnegative, got {(a, b)}")
            if a + b > self.max_degree:
                continue
            c = Fraction(c)
            if c != 0:
                clean[(a, b)] = c
        object.__setattr__(self, "coefficients", clean)
        object.__setattr__(self, "q", q)

    @classmethod
    def monomial(cls, a: int, b: int, max_degree: int, q,
                 coeff=Fraction(1)) -> "NormalOrderedSeries":
        return cls({(a, b): coeff}, max_degree, q)

    def coefficient(self, a: int, b: int) -> Fraction:
        return self.coefficients.get((a, b), Fraction(0))

    def __add__(self, other: "NormalOrderedSeries") -> "NormalOrderedSeries":
        self._check_compatible(other)
        out = dict(self.coefficients)
        for key, c in other.coefficients.items():
            out[key] = out.get(key, Fraction(0)) + c
        return NormalOrderedSeries(out, self.max_degree, self.q)

    def __sub__(self, other: "NormalOrderedSeries") -> "NormalOrderedSeries":
        self._check_compatible(other)
        out = dict(self.coefficients)
        for key, c in other.coefficients.items():
            out[key] = out.get(key, Fraction(0)) - c
        return NormalOrderedSeries(out, self.max_degree, self.q)

    def drop_y(self) -> "NormalOrderedSeries":
        """Specialize y = 0: keep only monomials with b = 0."""
        kept = {k: c for k, c in self.coefficients.items() if k[1] == 0}
        return NormalOrderedSeries(kept, self.max_degree, self.q)

    def max_abs_coefficient(self) -> Fraction:
        """Largest coefficient magnitude."""
        if not self.coefficients:
            return Fraction(0)
        return max(abs(c) for c in self.coefficients.values())

    def table(self) -> list[tuple[int, int, Fraction]]:
        """Sorted (a, b, coefficient) rows for display."""
        return [(a, b, c) for (a, b), c in
                sorted(self.coefficients.items(), key=lambda kv: (sum(kv[0]), kv[0]))]

    def _check_compatible(self, other: "NormalOrderedSeries") -> None:
        if self.q != other.q:
            raise ValueError(f"mismatched q: {self.q} vs {other.q}")
        if self.max_degree != other.max_degree:
            raise ValueError("mismatched max_degree")


def series_multiply(lhs: NormalOrderedSeries,
                    rhs: NormalOrderedSeries) -> NormalOrderedSeries:
    """Product of two normal-ordered series, truncated to max_degree.

    Uses y^b x^c = q^{-b c} x^c y^b, the iterated form of y x = q^{-1} x y.
    """
    lhs._check_compatible(rhs)
    deg = lhs.max_degree
    q = lhs.q
    out: dict[tuple[int, int], Fraction] = {}
    for (a, b), cl in lhs.coefficients.items():
        for (c, d), cr in rhs.coefficients.items():
            if a + c + b + d > deg:
                continue
            key = (a + c, b + d)
            coeff = cl * cr * q ** (-b * c)
            out[key] = out.get(key, Fraction(0)) + coeff
    return NormalOrderedSeries(out, deg, q)


def _qfact(q: Fraction, n: int) -> Fraction:
    """(q; q)_n by finite recurrence."""
    prod = Fraction(1)
    for k in range(1, n + 1):
        prod = prod * (1 - q ** k)
    return prod


def quantum_dilog_series(generator: Generator, max_degree: int,
                         q) -> NormalOrderedSeries:
    """Expansion of l(G) = prod_{i>=1} (1 - G q^i) as a normal-ordered series.

    Euler's identity gives l(G) = sum_{n>=0} c_n G^n with
    c_n = (-1)^n q^{n(n+1)/2} / (q; q)_n.  For G = -xy each power is
    normal-ordered via (xy)^n = q^{-n(n-1)/2} x^n y^n.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    q = Fraction(q)
    coeffs: dict[tuple[int, int], Fraction] = {}
    for n in range(max_degree + 1):
        c = (-1) ** n * q ** (n * (n + 1) // 2) / _qfact(q, n)
        if generator is Generator.X:
            key = (n, 0)
        elif generator is Generator.Y:
            key = (0, n)
        elif generator is Generator.NEG_XY:
            if 2 * n > max_degree:
                break
            key = (n, n)
            c = c * (-1) ** n * q ** -(n * (n - 1) // 2)
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unknown generator {generator}")
        coeffs[key] = c
    return NormalOrderedSeries(coeffs, max_degree, q)


def operator_pentagon_sides(max_degree: int, q) -> tuple[
        NormalOrderedSeries, NormalOrderedSeries]:
    """Both sides of the operator pentagon, l(y) l(x) and l(x) l(-xy) l(y),
    truncated to total degree max_degree."""
    lx = quantum_dilog_series(Generator.X, max_degree, q)
    ly = quantum_dilog_series(Generator.Y, max_degree, q)
    lxy = quantum_dilog_series(Generator.NEG_XY, max_degree, q)
    return (series_multiply(ly, lx),
            series_multiply(series_multiply(lx, lxy), ly))


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
    lhs, rhs = operator_pentagon_sides(max_degree, q)
    return q, (lhs - rhs).max_abs_coefficient()
