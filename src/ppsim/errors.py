"""Exception hierarchy shared by all ppsim modules.

The command-line layer maps these onto exit codes, so every error raised by
library code should be one of the classes below (or a subclass).
"""


def clipped(value, show=str) -> str:
    """show(str(value)) for a message, or past 32 characters show of its first 32, '...' and its length."""
    text = str(value)
    return show(text) if len(text) <= 32 else f"{show(text[:32])}... ({len(text)} characters)"


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
