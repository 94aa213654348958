"""Exception types shared across the package."""


class MixdomError(Exception):
    """Base class for all package errors."""


class InvalidSpec(MixdomError):
    """The (n, k) pair does not describe a supported P(n,k) instance."""


class InvalidBudget(MixdomError, ValueError):
    """A solver limit is not positive."""


class UnknownElement(MixdomError):
    """Canonical element id or index is outside the graph's universe."""


class OutOfRange(MixdomError):
    """Construction or formula asked for parameters outside its domain."""


class NoSolutionWithin(MixdomError):
    """Exhaustive search found no dominating set up to the size cap."""

    def __init__(self, max_size):
        super().__init__(f"no mixed dominating set of size <= {max_size}")
        self.max_size = max_size


class SetFileError(MixdomError):
    """Malformed structured-set file."""
