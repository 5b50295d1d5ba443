"""Exception types shared across the library.

Every failure mode raised by this package derives from :class:`DgpError`,
so callers can catch one base class at the CLI boundary.
"""


class DgpError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(DgpError):
    """Vector/matrix operands do not conform."""


class NotSymmetric(DgpError):
    """Matrix handed to a symmetric factorization is not symmetric."""


class NotPositiveDefinite(DgpError):
    """Factorization failed even after the maximum diagonal jitter."""


class NonFiniteRecursion(DgpError):
    """Kernel-depth recursion produced a non-positive radicand."""


class EmptyDataset(DgpError):
    """An operation requiring at least one image received none."""


class EmptyBank(DgpError):
    """Neighbor lookup against a feature bank with no entries."""


class ShapeMismatch(DgpError):
    """Image or score tensor has an unexpected shape."""


class CacheMismatch(DgpError):
    """Backward pass received a cache from a different network."""


class MalformedFile(DgpError):
    """Binary or text artifact on disk does not match its documented layout."""


class TooSmall(DgpError):
    """Image smaller than the metric's local window."""


class ConfigError(DgpError):
    """Run configuration is missing a key, has an unknown key, or a bad value."""


class NonFiniteLoss(DgpError):
    """A training step produced a NaN or infinite loss term."""


class NonFiniteGradient(DgpError):
    """A training step produced a parameter gradient whose squared norm is not finite."""
