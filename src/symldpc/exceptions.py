"""Exception types shared across the package, and the integer check that raises one."""

from numbers import Integral


class SymLdpcError(Exception):
    """Base class for all symldpc errors."""


class NotPrimeError(SymLdpcError, ValueError):
    """Field characteristic is not a prime."""


class TooLargeError(SymLdpcError, ValueError):
    """Requested instance exceeds a documented size cap."""


class DivideByZeroError(SymLdpcError, ZeroDivisionError):
    """Multiplicative inverse of the zero element."""


class DimensionMismatchError(SymLdpcError, ValueError):
    """Operands live in different spaces or have incompatible shapes."""


class NotAdjacentError(SymLdpcError, ValueError):
    """Two points do not differ by a rank-1 matrix."""


class NotInvertibleError(SymLdpcError, ValueError):
    """Square matrix over the field is singular."""


class EmptyInputError(SymLdpcError, ValueError):
    """An operation requiring a nonempty collection received an empty one."""


class StructureViolationError(SymLdpcError, ValueError):
    """A parity-check matrix fails a regular-LDPC structure check or a certificate check."""


class UnsupportedGirthError(SymLdpcError, ValueError):
    """Girth value outside the range the distance bound covers."""


class BadCharacteristicError(SymLdpcError, ValueError):
    """Construction requires a field of characteristic 2."""


class BadParametersError(SymLdpcError, ValueError):
    """Inconsistent or out-of-range construction parameters."""


class LengthMismatchError(SymLdpcError, ValueError):
    """Vector length does not match the code length."""


class InconsistentError(SymLdpcError, ValueError):
    """A fully known parity check fails during erasure decoding."""


def check_integer(name: str, value, least: int | None = None) -> int:
    """value as a plain int, refused unless it is an integer (bool is not) >= least."""
    if (
        not isinstance(value, Integral)
        or isinstance(value, bool)
        or (least is not None and value < least)
    ):
        bound = "" if least is None else f" >= {least}"
        raise BadParametersError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)
