"""A small pulse-program language and its compiler.

Grammar (whitespace-insensitive, '#' starts a comment to end of line):

    program   := { statement }
    statement := block | sel | hard | crush
    block     := "block" "{" sel { ";" sel } "}"
    sel       := "sel" INT INT axis ANGLE
    hard      := "hard" ( "all" | INT ) axis ANGLE
    crush     := "crush" [ "ideal" | "order" ]
    axis      := "x" | "y" | "z"        ANGLE := decimal degrees

A block applies its selective pulses simultaneously: one generator, one
exponential.  A bare sel statement is shorthand for a one-pulse block.
Sequential statements are separate unitaries, which is a physically
different program from putting the pulses in one block.
"""

import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import SpinSystem, crush, evolve, expm_unitary, flipped_spin, generator, transitions_of_spin
from .errors import CompileError, InputError, ParseError, clipped

CRUSH_KEYWORDS = {"ideal": "all_off_diagonal", "order": "coherence_order"}
_CRUSH_WORDS = {v: k for k, v in CRUSH_KEYWORDS.items()}


@dataclass(frozen=True)
class SelPulse:
    m: int
    k: int
    axis: str
    angle_deg: float


@dataclass(frozen=True)
class Block:
    pulses: tuple[SelPulse, ...]


@dataclass(frozen=True)
class HardPulse:
    spin: int | None  # None means all spins
    axis: str
    angle_deg: float


@dataclass(frozen=True)
class Crush:
    mode: str = "all_off_diagonal"


Statement = Block | HardPulse | Crush


@dataclass(frozen=True)
class PulseProgram:
    statements: tuple[Statement, ...]
    lines: tuple[int, ...] = field(default=(), compare=False)


@dataclass(frozen=True, eq=False)
class ChannelSequence:
    events: tuple[np.ndarray | Crush, ...]
    dim: int


# ---------------------------------------------------------------------------
# parsing

class _Token(NamedTuple):
    text: str
    line: int
    col: int


_TOKEN = re.compile(r"[{};]|[^\s{};]+")


def _tokenize(text: str) -> list[_Token]:
    return [
        _Token(m.group(), lineno, m.start() + 1)
        for lineno, raw in enumerate(text.splitlines(), start=1)
        for m in _TOKEN.finditer(raw.split("#", 1)[0])
    ]


# the typed token kinds, each a converter and the message for a token it
# rejects by raising ValueError or returning None
_LEVEL = (int, "expected a level number, got {}")
_SPIN = (int, "expected a spin number or 'all', got {}")
_AXIS = (lambda text: text if text in ("x", "y", "z") else None, "axis must be x, y or z, got {}")
_ANGLE = (lambda text: v if np.isfinite(v := float(text)) else None, "malformed angle {}")


def _take(tokens: list[_Token], expect: str | None = None) -> _Token:
    """Pop the next token off the stack, which must read expect if that is given."""
    if not tokens:
        raise ParseError(f"unexpected end of program, expected {expect or 'a token'}")
    tok = tokens.pop()
    if expect is not None and tok.text != expect:
        raise ParseError(f"expected {expect!r}, got {clipped(tok.text, repr)}", tok.line, tok.col)
    return tok


def _read(tokens: list[_Token], kind: tuple):
    """Pop the next token and convert it as a level, spin, axis or angle."""
    convert, message = kind
    tok = _take(tokens)
    try:
        value = convert(tok.text)
    except ValueError:
        value = None
    if value is None:
        raise ParseError(message.format(clipped(tok.text, repr)), tok.line, tok.col)
    return value


def _sel(tokens: list[_Token]) -> SelPulse:
    tok = _take(tokens, "sel")
    m, k, axis, angle = (_read(tokens, kind) for kind in (_LEVEL, _LEVEL, _AXIS, _ANGLE))
    if m == k:
        raise ParseError(f"degenerate transition ({clipped(m)}, {clipped(k)})", tok.line, tok.col)
    return SelPulse(m, k, axis, angle)


def parse(text: str) -> PulseProgram:
    tokens = _tokenize(text)[::-1]  # a stack: pop() reads the next token, [-1] peeks
    statements: list[Statement] = []
    lines: list[int] = []
    while tokens:
        tok = tokens[-1]
        if tok.text == "block":
            tokens.pop()
            _take(tokens, "{")
            pulses = [_sel(tokens)]
            while tokens and tokens[-1].text == ";":
                tokens.pop()
                pulses.append(_sel(tokens))
            _take(tokens, "}")
            seen = set()
            for p in pulses:
                key = frozenset((p.m, p.k))
                if key in seen:
                    raise ParseError(
                        f"transition ({clipped(p.m)}, {clipped(p.k)}) appears twice in one block",
                        tok.line, tok.col,
                    )
                seen.add(key)
            stmt = Block(tuple(pulses))
        elif tok.text == "sel":
            stmt = Block((_sel(tokens),))
        elif tok.text == "hard":
            tokens.pop()
            if not tokens:
                raise ParseError("unexpected end of program in hard pulse")
            if tokens[-1].text == "all":
                tokens.pop()
                spin = None
            else:
                spin = _read(tokens, _SPIN)
            stmt = HardPulse(spin, _read(tokens, _AXIS), _read(tokens, _ANGLE))
        elif tok.text == "crush":
            tokens.pop()
            if tokens and tokens[-1].text in CRUSH_KEYWORDS:
                stmt = Crush(CRUSH_KEYWORDS[tokens.pop().text])
            else:
                stmt = Crush()
        else:
            raise ParseError(f"unknown keyword {clipped(tok.text, repr)}", tok.line, tok.col)
        statements.append(stmt)
        lines.append(tok.line)
    return PulseProgram(tuple(statements), tuple(lines))


def _fmt_angle(value: float) -> str:
    out = repr(float(value))
    return out[:-2] if out.endswith(".0") else out


def pretty(program: PulseProgram) -> str:
    """Render a program back to source (inverse of parse up to layout)."""
    out = []
    for stmt in program.statements:
        if isinstance(stmt, Block):
            body = " ; ".join(
                f"sel {p.m} {p.k} {p.axis} {_fmt_angle(p.angle_deg)}" for p in stmt.pulses
            )
            out.append(f"block {{ {body} }}")
        elif isinstance(stmt, HardPulse):
            who = "all" if stmt.spin is None else str(stmt.spin)
            out.append(f"hard {who} {stmt.axis} {_fmt_angle(stmt.angle_deg)}")
        elif isinstance(stmt, Crush):
            word = _CRUSH_WORDS[stmt.mode]
            out.append("crush" if word == "ideal" else f"crush {word}")
        else:
            raise InputError(f"unknown statement type {type(stmt).__name__}")
    return "\n".join(out) + ("\n" if out else "")


# ---------------------------------------------------------------------------
# compilation

def _pulses(stmt: Block | HardPulse, n: int) -> list:
    """The ((m, k), axis, angle_rad) pulses of a rotating statement on n spins."""
    if isinstance(stmt, HardPulse):
        spins = range(1, n + 1) if stmt.spin is None else (stmt.spin,)
        lines = [t for i in spins for t in transitions_of_spin(i, n)]
        return [(t, stmt.axis, np.radians(stmt.angle_deg)) for t in lines]
    for p in stmt.pulses:
        flipped_spin(p.m, p.k, n)  # selective pulses need resolvable lines
    return [((p.m, p.k), p.axis, np.radians(p.angle_deg)) for p in stmt.pulses]


def compile(program: PulseProgram, system: SpinSystem) -> ChannelSequence:
    """Lower a program to an ordered list of propagators and Crush statements.

    Input errors raised while lowering a statement come back as CompileError
    naming the statement and its source line.
    """
    events = []
    for idx, stmt in enumerate(program.statements):
        try:
            if isinstance(stmt, (Block, HardPulse)):
                H = generator(_pulses(stmt, system.n_spins), system.n_spins)
                events.append(expm_unitary(H))
            elif isinstance(stmt, Crush):
                events.append(stmt)
            else:
                raise InputError(f"unknown statement type {type(stmt).__name__}")
        except InputError as exc:
            line = f" (line {program.lines[idx]})" if idx < len(program.lines) else ""
            raise CompileError(f"statement {idx + 1}{line}: {exc}") from exc
    return ChannelSequence(tuple(events), system.dim)


def run(seq: ChannelSequence, rho0: np.ndarray) -> np.ndarray:
    """Fold a channel sequence over an initial matrix."""
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != (seq.dim, seq.dim):
        raise InputError(f"state shape {rho.shape} does not match sequence dim {seq.dim}")
    for event in seq.events:
        rho = crush(rho, event.mode) if isinstance(event, Crush) else evolve(rho, event)
    return rho
