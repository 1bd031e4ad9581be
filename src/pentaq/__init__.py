"""Special-function library and verification harness for a family of
pentagon identities (five-term relations) and two gamma-function limits.

Layers:

- :mod:`pentaq.special_functions` — gamma, q-Pochhammer, hyperbolic gamma
  and dilogarithms.
- :mod:`pentaq.weyl_series` — exact series algebra in two q-commuting
  variables for the operator pentagon identity.
- :mod:`pentaq.kernels` — the four B kernels and balanced parameter sets.
- :mod:`pentaq.integrators` — real-line quadrature, unit-circle quadrature,
  integer sums whose tail model the caller names, the truncation policy
  they share, and the term grid that sums contour integrals over m.
- :mod:`pentaq.identities` — LHS/RHS evaluators, verification reports, and
  the two limit studies.
- :mod:`pentaq.cli` — the ``pentaq`` command-line front end.
"""

from .special_functions import ModularPair, PoleError, ConvergenceError
from .integrators import TruncationPolicy, DEFAULT_POLICY
from .kernels import (
    BetaParams,
    GammaParams,
    HyperbolicParams,
    IndexParams,
)
from .identities import (
    IdentityId,
    LimitStudyResult,
    VerificationReport,
)

__version__ = "0.1.0"

__all__ = [
    "ModularPair",
    "TruncationPolicy",
    "DEFAULT_POLICY",
    "PoleError",
    "ConvergenceError",
    "BetaParams",
    "GammaParams",
    "HyperbolicParams",
    "IndexParams",
    "IdentityId",
    "LimitStudyResult",
    "VerificationReport",
    "__version__",
]
