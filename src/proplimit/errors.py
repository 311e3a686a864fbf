"""Exception types shared across the package."""


class ProplimitError(ValueError):
    """Base class for all errors raised by proplimit."""


class ShapeMismatch(ProplimitError):
    """Operands have incompatible shapes."""


class NotPositiveDefinite(ProplimitError):
    """A matrix required to be positive definite is not (pivot below tolerance)."""


class InvalidParameter(ProplimitError):
    """A scalar or structural parameter is outside its admissible range."""


class EmptySample(ProplimitError):
    """A statistical routine received an empty sample."""


class EmptyMixing(ProplimitError):
    """A mixture has no weighting: no mixing draws, or none with a finite Psi."""
