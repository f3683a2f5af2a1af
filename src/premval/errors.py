"""Exception types shared across the package, the one reader of input files and
splitter of their lines, the checks that a state, period or count is an integer
and that an amount, rate or share is a real number, the allocation of an array
sized by an argument, and the read-only view that keeps a checked array as it
was checked."""

import numbers
import operator

import numpy as np

#: The array kinds that hold real numbers: booleans, integers and floats.
_REAL_KINDS = "biuf"


class PremvalError(Exception):
    """Base class for every error raised by this package."""


class ParseError(PremvalError):
    """A file or text input could not be parsed."""


class ValidationError(PremvalError):
    """Input parsed fine but violates a semantic requirement."""


def read_text(path, what: str) -> str:
    """The text of a UTF-8 file; a ParseError naming ``what`` file it is and its
    path if the path is invalid or the file cannot be opened, read or decoded."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read {what} file {path}: {exc}") from exc


def _fields(text: str):
    """(number from 1, whitespace-separated fields) of each line with anything before its ``#`` comment."""
    return [(line_no, fields) for line_no, line in enumerate(text.splitlines(), start=1)
            if (fields := line.partition("#")[0].split())]


def _integer(name: str, value) -> int:
    """``value`` as an int (numpy integers included); a ValidationError naming it if it is not one."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {type(value).__name__} {value}") from None


def _real(name: str, value) -> float:
    """``value`` as a float, a Python float as it is and any other real number widened;
    a ValidationError naming it if it is not a real number (a string or a complex
    number, say) or too large for a float."""
    if isinstance(value, (float, numbers.Real)):  # float first: the abstract check is slower
        try:
            return float(value)
        except OverflowError:
            raise ValidationError(f"{name} {value!r} is too large for a float") from None
    raise ValidationError(f"{name} must be a real number, got {type(value).__name__} {value!r}")


def _allocate(shape, what: str, dtype=float, make=np.zeros) -> np.ndarray:
    """``make(shape, dtype=dtype)`` for a shape of nonnegative sizes; a ValidationError naming
    ``what`` and the shape if numpy cannot make an array that large."""
    try:
        return make(shape, dtype=dtype)
    except (ValueError, MemoryError):  # past numpy's largest array, or past the memory to be had
        raise ValidationError(f"{what} of shape {shape} does not fit in memory") from None


def _read_only(array, what: str, dtype=None):
    """A read-only view of ``array`` as ``dtype`` (its own if None), the array itself as writeable
    as it was; a ValidationError naming ``what`` unless it holds booleans, integers or floats."""
    array = np.asarray(array)
    if array.dtype.kind not in _REAL_KINDS:
        raise ValidationError(f"{what} must hold numbers, got dtype {array.dtype}")
    view = np.asarray(array, dtype).view()
    view.setflags(write=False)
    return view
