"""Exception types shared across the package."""


class LnlabError(Exception):
    """Base class for package errors."""


class InvalidArgumentError(LnlabError, ValueError):
    """A parameter is outside its documented range."""


class ConeDomainError(LnlabError, ValueError):
    """An eigenvalue vector lies outside the cone where f is defined.

    Carries the (normalized) membership margin of the offending point.
    """

    def __init__(self, message, margin=None):
        super().__init__(message)
        self.margin = margin


class InvalidProfileError(LnlabError, ValueError):
    """A conformal factor is not finite, or not positive where it must be."""


class CriticalPointError(LnlabError, ValueError):
    """The auxiliary function has a vanishing gradient at some node."""


class NoCertificateError(LnlabError, RuntimeError):
    """The admissibility scan exhausted its range without a valid certificate."""

    def __init__(self, message, worst_node=None):
        super().__init__(message)
        self.worst_node = worst_node


class InadmissibleIterateError(LnlabError, ValueError):
    """A solver iterate left the ellipticity cone.

    Carries the index of the node with the worst margin.
    """

    def __init__(self, message, worst_node=None, margin=None):
        super().__init__(message)
        self.worst_node = worst_node
        self.margin = margin


class GridMismatchError(LnlabError, ValueError):
    """Two profiles that must share a grid do not."""


class ContinuationStallError(LnlabError, RuntimeError):
    """A continuation step underflowed the minimum step size."""
