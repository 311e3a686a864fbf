"""proplimit: deep linear Bayesian networks across width/depth regimes.

Samples, computes, and statistically verifies the prior and posterior laws
of deep linear Bayesian neural networks in three regimes: the exact finite
network, the infinite-width Gaussian limit, and the proportional
depth/width limit where outputs become a nontrivial mixture of Gaussians.
"""

from .errors import (
    EmptyMixing,
    EmptySample,
    InvalidParameter,
    NotPositiveDefinite,
    ProplimitError,
    ShapeMismatch,
)
from .montecarlo import make_stream

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "make_stream",
    "ProplimitError",
    "ShapeMismatch",
    "NotPositiveDefinite",
    "InvalidParameter",
    "EmptySample",
    "EmptyMixing",
]
