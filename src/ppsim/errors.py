"""Exception hierarchy shared by all ppsim modules.

The command-line layer maps these onto exit codes, so every error raised by
library code should be one of the classes below (or a subclass).
"""

import math
import sys

import numpy as np

_FLOAT_MAX = sys.float_info.max
_INTEGERS = (int, np.integer)
_FLOATS = (float, np.floating)


def clipped(value) -> str:
    """value for a message, text quoted as repr quotes it; past 32 characters its first 32, '...' and its length.

    An int too long for Python to write in decimal is given by its bit count.
    """
    show = repr if isinstance(value, str) else str
    try:
        text = str(value)
    except ValueError:
        return f"<{'negative ' if value < 0 else ''}integer of {abs(value).bit_length()} bits>"
    return show(text) if len(text) <= 32 else f"{show(text[:32])}... ({len(text)} characters)"


def checked(value, what: str, kind: type, lo=-math.inf, hi=math.inf):
    """value as a Python int, or a finite float, as kind asks, if it lies in lo..hi; else InputError, quoting it through clipped.

    A bool is no number, though isinstance(True, int) holds; numpy integers and floats are.
    """
    # numpy scalars become Python numbers first: a float32 compared with a bound would cast the bound
    number = (float(value) if kind is float and isinstance(value, _FLOATS)
              else int(value) if isinstance(value, _INTEGERS) and not isinstance(value, bool) else None)
    if number is None or kind is float and not -_FLOAT_MAX <= number <= _FLOAT_MAX:
        raise InputError(f"{what} must be {'an integer' if kind is int else 'a finite float'}, got {clipped(value)}")
    if not lo <= number <= hi:
        raise InputError(f"{what} {clipped(value)} out of range {lo}..{hi}")
    return kind(number)


class PpsimError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PpsimError, ValueError):
    """Invalid caller input: bad level index, malformed file, dim mismatch."""


class ParseError(InputError):
    """Pulse-program text rejected by the parser."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


class CompileError(InputError):
    """Pulse program parsed but cannot be lowered for the given spin system."""


class NoSolutionError(PpsimError, RuntimeError):
    """Angle solver exhausted all starts without converging on a root."""


class ContractError(PpsimError, ValueError):
    """A documented precondition was violated (non-Hermitian generator, ...)."""


class NotPseudoPureError(ContractError):
    """Diagonal does not decompose as uniform background plus one basis state."""
