"""Exception types shared across the package."""


class CentextError(Exception):
    """Base class for all errors raised by this package."""


class CompositeModulus(CentextError):
    """A prime field was requested with a modulus that is not prime."""


class ModulusTooLarge(CentextError):
    """A prime field was requested with a modulus too large to certify
    as prime."""


class DivisionByZero(CentextError, ZeroDivisionError):
    """Multiplicative inverse of zero was requested."""


class FieldMismatch(CentextError):
    """Arithmetic attempted between scalars of different fields."""


class DimMismatch(CentextError):
    """Vector or matrix dimensions are incompatible."""


class InvalidDim(CentextError):
    """A construction was requested with a nonsensical dimension."""


class CharTooSmall(CentextError):
    """The field characteristic is too small for a non-multilinear
    identity to be replaced by its multilinearization."""


class NotInVariety(CentextError):
    """The base algebra does not satisfy the defining identities."""


class IdentitySyntaxError(CentextError):
    """Identity text failed to parse; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DegreeError(CentextError):
    """An identity contains a monomial of degree below two."""


class UnknownVariety(CentextError):
    """No built-in variety with the requested name."""


class NotACocycle(CentextError):
    """A bilinear form violates the cocycle equations, or does not lie
    in the computed cocycle space."""


class CohomologyMismatch(CentextError):
    """A cohomology space was passed with an algebra or variety other
    than the one it was computed for."""


class IndexOutOfRange(CentextError):
    """A named bilinear form was requested with indices outside 1..n."""


class NotInvertible(CentextError):
    """The data does not define an invertible map."""


class BudgetExceeded(CentextError):
    """An enumeration would exceed the configured budget."""


class UnsupportedVariety(CentextError):
    """Closed-field representatives are only tabulated for some varieties."""


class TableMismatch(CentextError):
    """A constructed extension does not match its expected product pattern."""


class InvariantError(CentextError):
    """A computed object broke an invariant that holds by construction,
    such as a group action leaving its domain."""


class MalformedInput(CentextError, ValueError, TypeError):
    """An input from outside cannot be read: a malformed number or scalar
    entry, or a JSON document lacking a key or holding a wrong type."""
