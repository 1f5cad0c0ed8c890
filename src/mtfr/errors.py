"""Exception types shared across the library."""


class MtfrError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(MtfrError):
    pass


class NotSymmetric(MtfrError):
    pass


class NotUnitary(MtfrError):
    pass


class NotSymplectic(MtfrError):
    pass


class Singular(MtfrError):
    pass


class NotFree(MtfrError):
    """Imaginary part of the unitary is singular; the four-factor split fails."""


class NoTauFound(MtfrError):
    """Every scanned unit-modulus rotation left the imaginary part singular."""


class NumericalFailure(MtfrError):
    pass


class NotBlockDiagonal(MtfrError):
    pass


class RealnessFailure(MtfrError):
    """A matrix that must be real at exact arithmetic kept a large imaginary part."""


class RankZero(MtfrError):
    pass


class RealMatrix(MtfrError):
    pass


class TrailingNotReal(MtfrError):
    pass


class UnsupportedDilation(MtfrError):
    """Grid dilations beyond 1-D require a monomial (permutation x diagonal) matrix."""


class GridTooLarge(MtfrError):
    pass


class RadiusExceedsGrid(MtfrError):
    pass


class UnsupportedShape(MtfrError):
    pass


class DegenerateFit(MtfrError):
    pass


class ChirpAliasingWarning(UserWarning):
    """Chirp phase advances by more than pi between adjacent grid samples."""
