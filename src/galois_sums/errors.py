"""Exception types shared across the package."""


class GaloisSumsError(Exception):
    """Base class for all package errors."""


class InvalidModulus(GaloisSumsError):
    """The supplied modulus polynomial fails a structural requirement."""


class SizeLimit(GaloisSumsError):
    """The requested ring exceeds the configured element cap."""


class NotAUnit(GaloisSumsError):
    """A unit was required but the element lies in the maximal ideal."""


class NotInBaseRing(GaloisSumsError):
    """A trace landed outside the base ring, indicating an arithmetic bug."""


class BadLevel(GaloisSumsError):
    """Reduction level out of range."""


class RingMismatch(GaloisSumsError):
    """Operands belong to different rings."""


class TooLarge(GaloisSumsError):
    """A brute-force computation exceeds the configured term cap."""


class DegenerateDimensions(GaloisSumsError):
    """Codebook dimensions do not satisfy N > K >= 1."""


class NotPrimePower(GaloisSumsError):
    """The given alphabet size is not a prime power."""


class CodebookError(GaloisSumsError):
    """A codebook or its export is inconsistent with its own parameters."""


class BrokenInvariant(GaloisSumsError):
    """An identity the algebra guarantees failed, indicating an arithmetic bug."""

