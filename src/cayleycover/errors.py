"""Exception types shared across the package."""


class CayleyCoverError(Exception):
    """Base class for all package-specific errors."""


class SingularBasis(CayleyCoverError):
    """The given generators do not span a full-rank sublattice of Z^n."""


class DimensionMismatch(CayleyCoverError):
    """A vector or matrix has the wrong length for the ambient dimension."""


class SingularAfterRounding(CayleyCoverError):
    """Rounding a scaled real basis produced linearly dependent rows."""


class NotACovering(CayleyCoverError):
    """An operation required a lattice covering but the input is not one.

    ``witness`` holds a coset representative whose Manhattan norm exceeds the
    requested radius, i.e. a coset that no simplex translate reaches.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class MultipleMinimalNotches(CayleyCoverError):
    """More than one minimal notch candidate was found.

    Tiles built from lattices admit at most one notch, so this error always
    signals an implementation bug; it is surfaced, never resolved silently.
    """


class CapTooSmall(CayleyCoverError):
    """The requested search cap leaves no indices to scan."""


class SearchTooLarge(CayleyCoverError):
    """A degree-diameter search reached lattices whose fit test could
    overflow int64."""


class BadSampleCount(CayleyCoverError):
    """A Monte-Carlo estimate was requested with fewer than one sample."""


class BadBatteryInput(CayleyCoverError, ValueError):
    """The verification battery was given a d*, v or seed it cannot decide
    its checks at."""
