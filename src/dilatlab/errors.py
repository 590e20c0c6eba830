"""Typed failure modes shared across the package."""


class DilatlabError(Exception):
    """Base class for all structured failures."""


class SamplingExhausted(DilatlabError):
    """Candidate budget ran out before enough ball points were accepted."""


class SizeLimitExceeded(DilatlabError):
    """Exact search requested on a finite space above the size cap."""


class TriangleViolation(DilatlabError, ValueError):
    """A distance matrix breaks the triangle inequality beyond its slack."""


class ChartEscape(DilatlabError):
    """A flow or dilatation left the declared chart box."""


class DomainViolation(DilatlabError):
    """Intermediate points of a construction left the declared domain."""


class NoConvergence(DilatlabError):
    """Newton iteration for chart coordinates did not reach tolerance."""


class NoFeasiblePath(DilatlabError):
    """No horizontal path reached the target within the endpoint tolerance."""


class NotBracketGenerating(DilatlabError):
    """Iterated brackets fail to span the tangent space at a probe point."""


class NonRegular(DilatlabError):
    """Bracket-layer dimensions differ between probe points."""
