"""Exception types shared across the package."""


class InvariantError(ValueError):
    """Raised when an input violates a documented precondition or invariant."""


class ResourceCapError(RuntimeError):
    """Raised when a scan or enumeration would exceed its configured cap."""


class UsageError(Exception):
    """Raised when command-line input or settings cannot be parsed."""


class LabelError(UsageError, InvariantError):
    """A malformed type label: a usage error to `qlap`, an invariant violation to the library."""
