"""Exception hierarchy shared by all modules, the integer- and
rational-field checks shared by the loaders, and the cap check shared by
every exponential path.

Exit-code mapping used by the CLI:
  VerificationError -> 1, InputError -> 2, ResourceCapError -> 3.
"""

from fractions import Fraction
from numbers import Integral


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


def require_int(value, what):
    """``value`` as an int when it is an integer and not a bool; an integer
    field given as a string, a float or ``true`` is an InputError, not
    coerced."""
    # An int returns at once: the element and mask rules call this once per
    # element, and isinstance(value, Integral) costs about twenty times the
    # type test (0.7 against 0.03 us, Python 3.11 on a 2-vCPU Xeon).
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return int(value)


def require_rational(value, what):
    """``value`` as a Fraction when ``Fraction`` reads it and it is not a
    bool; ``true``, ``"abc"``, ``"1/0"`` or an infinity is an InputError."""
    if not isinstance(value, bool):
        try:
            return Fraction(value)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            pass
    raise InputError(f"{what} must be a rational number, got {value!r}")


def check_cap(size, cap, default, what):
    """``size`` when it is at most the limit, ``cap`` or ``default`` when
    ``cap`` is None; above it a ResourceCapError carrying the limit."""
    limit = default if cap is None else cap
    if size > limit:
        raise ResourceCapError(f"{what} = {size} exceeds cap {limit}", cap=limit)
    return size
