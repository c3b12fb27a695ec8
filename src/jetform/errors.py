"""Exception types shared across the package, and the four checks that
raise them for every module: `_size` for sizes and indices, `_in_ring`
for polynomial arguments and ring identity, `_instance` for the
package's value types and `_sequence` for sequence arguments.  No other
code compares a polynomial's ring."""

from operator import index

__all__ = [
    "JetformError", "DomainError", "RingMismatchError", "ParseError",
    "BudgetExceededError", "CapExceededError", "InvariantViolationError",
]


class JetformError(Exception):
    """Base class for all package-specific errors."""


class DomainError(JetformError, ValueError):
    """An argument is outside the domain of the computation: a size, index,
    degree or polynomial the operation is not defined for."""


class RingMismatchError(DomainError):
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


def _size(value, what: str, least: int | None = 0, most: int | None = None) -> int:
    """`value` as an int in least..most, or of at least `least` if `most` is
    None: the one check of every size and index argument in the package,
    and of an integer entry, which passes `least` and `most` both None.
    A float or a string is refused by `operator.index`, not truncated, and
    every refusal, of the type or of either bound, is a DomainError."""
    try:
        value = index(value)
    except TypeError:
        raise DomainError("%s must be an integer: %r" % (what, value)) from None
    if least is None:
        return value
    if value < least or most is not None and value > most:
        bounds = "at least %d" % least if most is None else "in %d..%d" % (least, most)
        raise DomainError("%s must be %s, got %d" % (what, bounds, value))
    return value


class _Polynomial:
    """The base of `polyring.Poly`, which imports this module: what lets
    `_in_ring` tell a polynomial from another value with a `ring`."""

    __slots__ = ()


def _in_ring(poly, ring, what: str):
    """`poly` if it is a Poly of `ring`, or of any ring if `ring` is None:
    the one check of a polynomial argument and of ring identity.  Anything
    but a Poly, a value with a `ring` of its own included, is a DomainError
    naming `what`; a Poly of another ring, a RingMismatchError naming
    `what`, the ring wanted and the ring given."""
    if not isinstance(poly, _Polynomial):
        raise DomainError("%s must be a Poly, not %s" % (what, type(poly).__name__))
    given = poly.ring
    if given is not ring and ring is not None and given != ring:  # mostly the same Ring
        raise RingMismatchError("%s must be in %r, not in %r" % (what, ring, given))
    return poly


def _sequence(value, what: str) -> tuple:
    """`value` as a tuple: the one check of a sequence argument.  A value
    that cannot be iterated, such as a number, None or a polynomial, is a
    DomainError naming `what`."""
    try:
        return tuple(value)
    except TypeError:
        raise DomainError("%s must be a sequence: %r" % (what, value)) from None


def _instance(value, cls: type, what: str):
    """`value` if it is a `cls`: the one check of a Composition, JetRingDesc,
    Permutation, Ring, Budget or mapping argument.  Anything else, a tuple
    that spells one included, is a DomainError naming `what`, the type wanted
    and the type given, where reading its attributes would raise AttributeError."""
    if not isinstance(value, cls):
        raise DomainError("%s must be a %s, not %s" % (what, cls.__name__, type(value).__name__))
    return value
