"""Exception types shared across the package."""


class JetformError(Exception):
    """Base class for all package-specific errors."""


class RingMismatchError(JetformError, ValueError):
    """Operands live in different polynomial rings."""


class ParseError(JetformError, ValueError):
    """Input text does not conform to the polynomial / permutation grammar."""


class BudgetExceededError(JetformError, RuntimeError):
    """A memory budget was exhausted before the computation finished.

    `partial` is a dict of what was proved before aborting (the minimal
    degree search sets the degrees it refused), or None when nothing was.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class CapExceededError(JetformError, RuntimeError):
    """A bounded search ran out of its degree cap.

    `lower_bound` is the largest degree that was certified *not* to work,
    plus one.
    """

    def __init__(self, message, lower_bound):
        super().__init__(message)
        self.lower_bound = lower_bound


class InvariantViolationError(JetformError, AssertionError):
    """An internal consistency check failed; indicates a bug, not bad input."""
