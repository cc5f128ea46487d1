"""Exception hierarchy shared by all modules, the integer rule that reads
every integer parameter and field and its bulk form for many entries, the
collection rule that reads every container of members, the JSON rules that
read an object's fields and an array, the rational-field check shared by the
loaders and its inverse that writes a rational as text, the probability
rule, and the cap check shared by every exponential path.

Exit-code mapping, applied by ``cli.main`` alone (its commands only raise):
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


def require_ints(entries, what, low=None):
    """Check every entry of ``entries()`` as ``require_int`` reads it, with
    the bound ``low`` (None for none).  ``entries`` returns a fresh iterable
    on each call: the entries' types are scanned once, in C, and one entry
    of each type but int goes through ``require_int``, which reads a value
    by its type alone; a ``low`` bound reads their minimum in one more pass.
    Nothing is collected, so a generator of entries costs no list."""
    for kind in set(map(type, entries())) - {int}:
        require_int(next(v for v in entries() if type(v) is kind), what, low)
    if low is not None:
        require_int(min(entries(), default=low), what, low)


def require_iterable(value, what):
    """An iterator over ``value``; a value that cannot be iterated, such as
    an int or None, is an InputError, not a TypeError."""
    try:
        return iter(value)
    except TypeError:
        raise InputError(f"expected a collection of {what}, got {value!r}") from None


def require_list(value, what):
    """``value`` when it is a list, as a JSON array loads; anything else is
    an InputError."""
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list, got {value!r}")
    return value


class reading:
    """A block that reads the fields of a JSON object ``what``: the KeyError
    of a missing field or the TypeError of a value of the wrong kind (an
    object that is no dict, a field that is no container) becomes
    ``InputError("malformed <what>: ...")``.  An InputError of a field's own
    rule passes through as it is.  A class, like ``contextlib.suppress``:
    an error leaves it at about half the cost of a generator's
    ``contextmanager`` (1.5 against 2.6 us, Python 3.11 on a 2-vCPU Xeon)."""

    def __init__(self, what):
        self.what = what

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, (KeyError, TypeError)):
            raise InputError(f"malformed {self.what}: {exc}") from exc


def require_rational(value, what):
    """``value`` as a Fraction when ``Fraction`` reads it and it is not a
    bool; ``true``, ``"abc"``, ``"1/0"`` or an infinity is an InputError.
    A ``Fraction`` itself, which is immutable, is returned as it is."""
    if type(value) is Fraction:
        return value
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
