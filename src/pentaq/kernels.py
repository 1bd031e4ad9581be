"""The four B building blocks of the pentagon identities, plus balanced
parameter containers.

Each identity couples three kernel factors on its left side to two on its
right, under a balancing constraint on the continuous parameters and a
zero-sum constraint on the integer spins.  The containers here enforce those
constraints by construction (the last component is solved for), carry the
pole-separation invariants, and serialize to plain dictionaries so that
verification runs are reproducible from record files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special_functions import (
    ModularPair,
    PoleError,
    log_gamma,
    log_hyperbolic_gamma,
    qpoch_inf,
)

__all__ = [
    "b_hyp",
    "b_idx",
    "b_gamma_disc",
    "b_beta",
    "HyperbolicParams",
    "IndexParams",
    "GammaParams",
    "BetaParams",
    "sample_hyperbolic",
    "sample_index",
    "sample_gamma",
    "sample_beta",
]

_INDEX_Q_RANGE = (0.2, 0.5)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def b_hyp(x, y, omega: ModularPair):
    """Hyperbolic kernel gamma2(x) gamma2(y) / gamma2(x + y), in log-space.

    x and y may be arrays of one shape: all their kernels take one
    log_hyperbolic_gamma call, which gives each element the value of a
    call of its own.  Scalars give a complex.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    lx, ly, lxy = log_hyperbolic_gamma(np.stack([x, y, x + y]), omega)
    out = np.exp(lx + ly - lxy)
    return complex(out) if out.ndim == 0 else out


def b_idx(a, n: int, b, m: int, q) -> complex:
    """Index kernel: three q-Pochhammer ratios times a^{m/2} b^{n/2}.

        (q^{1+n/2}/a; q)   (q^{1+m/2}/b; q)   (q^{(n+m)/2} ab; q)
        ---------------- * ---------------- * --------------------- a^{m/2} b^{n/2}
        (q^{n/2} a;  q)    (q^{m/2} b;  q)    (q^{1+(n+m)/2}/(ab); q)

    Fractional powers use the principal branch; sampled parameters live near
    the positive real axis where the branch is unambiguous.
    """
    qv = complex(q)
    a = complex(a)
    b = complex(b)
    ab = a * b
    # numerators then denominators of the three ratios, in one call
    args = np.array([qv ** (1 + n / 2) / a, qv ** (1 + m / 2) / b,
                     qv ** ((n + m) / 2) * ab,
                     qv ** (n / 2) * a, qv ** (m / 2) * b,
                     qv ** (1 + (n + m) / 2) / ab])
    vals = qpoch_inf(args, qv)
    small = np.abs(vals[3:]) < 1e-280
    if np.any(small):
        raise PoleError(
            f"vanishing Pochhammer factor at {args[3:][small][0]}")
    val = np.prod(vals[:3]) / np.prod(vals[3:])
    return complex(val * a ** (m / 2) * b ** (n / 2))


def b_gamma_disc(a, n: int, b, m: int):
    """Discrete gamma kernel

        Gamma(a+n/2) Gamma(b+m/2) Gamma(1-a-b+(n+m)/2)
        -----------------------------------------------
        Gamma(1-a+n/2) Gamma(1-b+m/2) Gamma(a+b+(n+m)/2)

    Raises PoleError, with the offending argument, when any gamma argument
    is a nonpositive integer.
    """
    k, l, kl = n / 2, m / 2, (n + m) / 2
    try:
        # numerators and denominators of the three ratios, in one call
        lg = log_gamma(np.array([a + k, 1 - a + k, b + l, 1 - b + l,
                                 1 - a - b + kl, a + b + kl], dtype=complex))
    except PoleError as exc:
        raise PoleError(f"Gamma factor of b_gamma_disc: {exc}") from exc
    out = complex(np.exp(lg[0] - lg[1] + lg[2] - lg[3] + lg[4] - lg[5]))
    return out.real if abs(out.imag) < 1e-12 * max(1.0, abs(out.real)) else out


def b_beta(x, y) -> complex:
    """Euler beta kernel Gamma(x) Gamma(y) / Gamma(x + y), via log-gamma."""
    return complex(np.exp(log_gamma(x) + log_gamma(y) - log_gamma(x + y)))


# ---------------------------------------------------------------------------
# balanced parameter containers
# ---------------------------------------------------------------------------

def _set_fields(params, **fields) -> None:
    """Store the normalized ``fields`` on the frozen container ``params``."""
    for name, value in fields.items():
        object.__setattr__(params, name, value)


def _pairs(values) -> list:
    """Complex ``values`` as the [re, im] pairs of a record."""
    return [[v.real, v.imag] for v in values]


def _complexes(pairs) -> tuple:
    """A record's [re, im] pairs as complex numbers."""
    return tuple(complex(re, im) for re, im in pairs)


def _check_zero_sum(values, label: str) -> tuple:
    vals = tuple(values)
    if len(vals) != 3:
        raise ValueError(f"{label} must have exactly 3 entries")
    # v % 1 is nan for nan and inf, so only whole numbers pass
    if not all(v % 1 == 0 for v in vals):
        raise ValueError(f"{label} must be integers, got {vals}")
    vals = tuple(int(v) for v in vals)
    if sum(vals) != 0:
        raise ValueError(f"{label} must sum to zero, got {vals}")
    return vals


def _positive_half_triple(values, label: str) -> tuple:
    """``values`` as three positive floats summing to 1/2, the balancing of
    the index exponents and of the gamma parameters.  Both checks are
    written so that nan fails them."""
    vals = tuple(float(v) for v in values)
    if len(vals) != 3:
        raise ValueError(f"{label} must have exactly 3 entries")
    if not abs(sum(vals) - 0.5) <= 1e-12:
        raise ValueError(f"balancing violated: sum({label}) = {sum(vals)}")
    if not min(vals) > 0:
        raise ValueError(f"{label} must be positive, got {vals}")
    return vals


def _separated_pairs(a, b, total) -> tuple:
    """``a`` and ``b`` as two complex triples with sum(a) + sum(b) = total
    and every pair separating the poles, 0 < Re((a_i + b_j) / total) < 1:
    the balancing of the hyperbolic (total w1 + w2) and beta (total 1)
    identities.  A nan anywhere fails the balancing."""
    a = tuple(complex(v) for v in a)
    b = tuple(complex(v) for v in b)
    if len(a) != 3 or len(b) != 3:
        raise ValueError("need exactly 3 a's and 3 b's")
    got = sum(a) + sum(b)
    if not abs(got - total) <= 1e-12 * max(1.0, abs(total)):
        raise ValueError(
            f"balancing violated: sum(a)+sum(b) = {got}, expected {total}")
    for ai in a:
        for bj in b:
            r = ((ai + bj) / total).real
            if not 0 < r < 1:
                raise ValueError(
                    f"pole separation violated: Re((a+b)/{total}) = {r}")
    return a, b


@dataclass(frozen=True)
class HyperbolicParams:
    """Parameters of the hyperbolic identity: sum_i (a_i + b_i) = w1 + w2."""

    a: tuple
    b: tuple
    omega: ModularPair

    def __post_init__(self) -> None:
        a, b = _separated_pairs(self.a, self.b, self.omega.omega_sum)
        # without decay the integral diverges
        if not self.kappa > 0:
            raise ValueError(f"integrand does not decay: "
                             f"kappa = 2 pi Re(1/w1 + 1/w2) = {self.kappa}")
        _set_fields(self, a=a, b=b)

    @property
    def kappa(self) -> float:
        """Decay rate of the integrand along u = i t, which falls like
        exp(-kappa |t|) (:func:`pentaq.identities.eval_hyperbolic_lhs`):
        kappa = 2 pi Re(1/omega1 + 1/omega2)."""
        s = 1 / self.omega.omega1 + 1 / self.omega.omega2
        return 2 * math.pi * s.real

    @classmethod
    def balanced(cls, a1, a2, a3, b1, b2, omega: ModularPair) -> "HyperbolicParams":
        """Solve the balancing constraint for b3."""
        b3 = omega.omega_sum - (a1 + a2 + a3 + b1 + b2)
        return cls((a1, a2, a3), (b1, b2, b3), omega)

    def to_record(self) -> dict:
        omega1, omega2 = _pairs((self.omega.omega1, self.omega.omega2))
        return {"identity": "hyperbolic", "a": _pairs(self.a),
                "b": _pairs(self.b), "omega1": omega1, "omega2": omega2}

    @classmethod
    def from_record(cls, rec: dict) -> "HyperbolicParams":
        omega = ModularPair(*_complexes((rec["omega1"], rec["omega2"])))
        return cls(_complexes(rec["a"]), _complexes(rec["b"]), omega)


@dataclass(frozen=True)
class IndexParams:
    """Parameters of the index identity.

    Continuous parameters are stored through their real exponents:
    a_i = q^{s_i}, b_i = q^{t_i} with sum s_i = sum t_i = 1/2, which makes
    the balancing prod a_i = prod b_i = q^{1/2} exact by construction.
    Every exponent must be positive, so that the unit circle separates the
    poles of every term and is the right contour.  Integer spins satisfy
    sum n_i = sum m_i = 0.
    """

    s: tuple
    t: tuple
    n: tuple
    m: tuple
    q: float

    def __post_init__(self) -> None:
        _set_fields(self, s=_positive_half_triple(self.s, "s"),
                    t=_positive_half_triple(self.t, "t"),
                    n=_check_zero_sum(self.n, "n"),
                    m=_check_zero_sum(self.m, "m"), q=float(self.q))
        if not 0 < self.q < 1:
            raise ValueError(f"need 0 < q < 1, got {self.q}")

    @classmethod
    def balanced(cls, s1, s2, t1, t2, n1, n2, m1, m2, q) -> "IndexParams":
        """Solve every constraint for the third component."""
        return cls((s1, s2, 0.5 - s1 - s2), (t1, t2, 0.5 - t1 - t2),
                   (n1, n2, -n1 - n2), (m1, m2, -m1 - m2), q)

    @property
    def a(self) -> tuple:
        return tuple(self.q ** e for e in self.s)

    @property
    def b(self) -> tuple:
        return tuple(self.q ** e for e in self.t)

    def to_record(self) -> dict:
        return {
            "identity": "index",
            "s": list(self.s), "t": list(self.t),
            "n": list(self.n), "m": list(self.m),
            "q": self.q,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "IndexParams":
        return cls(rec["s"], rec["t"], rec["n"], rec["m"], rec["q"])


@dataclass(frozen=True)
class GammaParams:
    """Parameters of the gamma sum-integral identity.

    sum alpha_i = sum beta_i = 1/2, sum n_i = sum m_i = 0, and no gamma
    argument alpha_i + beta_j + (n_i + m_j)/2 may hit a nonpositive integer.
    """

    alpha: tuple
    beta: tuple
    n: tuple
    m: tuple

    def __post_init__(self) -> None:
        _set_fields(self, alpha=_positive_half_triple(self.alpha, "alpha"),
                    beta=_positive_half_triple(self.beta, "beta"),
                    n=_check_zero_sum(self.n, "n"),
                    m=_check_zero_sum(self.m, "m"))
        for i in range(3):
            for j in range(3):
                arg = self.alpha[i] + self.beta[j] + (self.n[i] + self.m[j]) / 2
                if abs(2 * arg - round(2 * arg)) < 1e-9:
                    raise ValueError(
                        "degenerate pairwise sum (integer or half-integer): "
                        f"alpha_{i}+beta_{j}+(n+m)/2 = {arg}"
                    )

    @classmethod
    def balanced(cls, a1, a2, b1, b2, n1=0, n2=0, m1=0, m2=0) -> "GammaParams":
        return cls((a1, a2, 0.5 - a1 - a2), (b1, b2, 0.5 - b1 - b2),
                   (n1, n2, -n1 - n2), (m1, m2, -m1 - m2))

    @classmethod
    def symmetric_point(cls) -> "GammaParams":
        return cls((1 / 6, 1 / 6, 1 / 6), (1 / 6, 1 / 6, 1 / 6),
                   (0, 0, 0), (0, 0, 0))

    def to_record(self) -> dict:
        return {
            "identity": "gamma",
            "alpha": list(self.alpha), "beta": list(self.beta),
            "n": list(self.n), "m": list(self.m),
        }

    @classmethod
    def from_record(cls, rec: dict) -> "GammaParams":
        return cls(rec["alpha"], rec["beta"], rec["n"], rec["m"])


@dataclass(frozen=True)
class BetaParams:
    """Parameters of the Euler-beta identity: sum_i (a_i + b_i) = 1."""

    a: tuple
    b: tuple

    def __post_init__(self) -> None:
        a, b = _separated_pairs(self.a, self.b, 1)
        _set_fields(self, a=a, b=b)

    @classmethod
    def balanced(cls, a1, a2, a3, b1, b2) -> "BetaParams":
        return cls((a1, a2, a3), (b1, b2, 1 - (a1 + a2 + a3 + b1 + b2)))

    def to_record(self) -> dict:
        return {"identity": "beta", "a": _pairs(self.a), "b": _pairs(self.b)}

    @classmethod
    def from_record(cls, rec: dict) -> "BetaParams":
        return cls(_complexes(rec["a"]), _complexes(rec["b"]))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _balanced_triple(rng: np.random.Generator, lo: float, hi: float,
                     total: float) -> tuple:
    """Draw (v1, v2) from [lo, hi]^2 and solve v3 = total - v1 - v2,
    rejecting until v3 also lies in [lo, hi]."""
    for _ in range(10_000):
        v1, v2 = rng.uniform(lo, hi, 2)
        v3 = total - v1 - v2
        if lo <= v3 <= hi:
            return (float(v1), float(v2), float(v3))
    raise RuntimeError("balanced-triple sampling failed")  # pragma: no cover


def _zero_sum_spins(rng: np.random.Generator) -> tuple:
    """Two spins from {-2..2}, third solved; rejected if it leaves the box."""
    for _ in range(10_000):
        n1, n2 = (int(v) for v in rng.integers(-2, 3, 2))
        n3 = -n1 - n2
        if -2 <= n3 <= 2:
            return (n1, n2, n3)
    raise RuntimeError("spin sampling failed")  # pragma: no cover


def sample_gamma(rng: np.random.Generator, with_spins: bool = True) -> GammaParams:
    """A balanced gamma parameter point from the safe box [0.05, 0.4]."""
    alpha = _balanced_triple(rng, 0.05, 0.4, 0.5)
    beta = _balanced_triple(rng, 0.05, 0.4, 0.5)
    n = _zero_sum_spins(rng) if with_spins else (0, 0, 0)
    m = _zero_sum_spins(rng) if with_spins else (0, 0, 0)
    return GammaParams(alpha, beta, n, m)


def sample_index(rng: np.random.Generator) -> IndexParams:
    """A balanced index parameter point with q in (0.2, 0.5) and spins."""
    q = float(rng.uniform(*_INDEX_Q_RANGE))
    s = _balanced_triple(rng, 0.05, 0.4, 0.5)
    t = _balanced_triple(rng, 0.05, 0.4, 0.5)
    n = _zero_sum_spins(rng)
    m = _zero_sum_spins(rng)
    return IndexParams(s, t, n, m, q)


def _separated_draw(rng: np.random.Generator, total) -> tuple:
    """a1, a2, a3, b1, b2 of a complex family with balancing total
    ``total``: real multiples of it from [0.05, 0.15], a box that keeps
    every pair separation Re((a_i + b_j) / total) inside (0, 1)."""
    x = rng.uniform(0.05, 0.15, 3)
    y12 = rng.uniform(0.05, 0.15, 2)
    return tuple(float(v) * total for v in (*x, *y12))


def sample_hyperbolic(rng: np.random.Generator,
                      omega: ModularPair | None = None) -> HyperbolicParams:
    """A balanced hyperbolic point, pairs separated
    (:func:`_separated_draw`)."""
    if omega is None:
        omega = ModularPair(0.4 + 0.9j, 1.0)
    return HyperbolicParams.balanced(
        *_separated_draw(rng, omega.omega_sum), omega)


def sample_beta(rng: np.random.Generator) -> BetaParams:
    """A balanced beta point, pairs separated (:func:`_separated_draw`)."""
    return BetaParams.balanced(*_separated_draw(rng, 1))
