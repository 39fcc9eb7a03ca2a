"""One-step quantum search for maximally constrained 1-SAT, as a hard-pulse program.

T. Hogg, Phys. Rev. Lett. 80 (1998) 2473: for a formula with exactly one
literal on each of n variables, the circuit M R W maps |0...0> to the
unique satisfying assignment with probability 1, where W is the Walsh
transform, R[s, s] = i ** (clauses s violates) and M = W D W with
D[r, r] = i ** (weight(r) - 1), weight being the Hamming weight.  Each
factor acts on one spin at a time, so the search is four layers of hard
pulses that equal those factors up to a global phase:

    1. hard all y 90                                  W, with layer 2
    2. hard all x 180
    3. hard j z -90 for a clause Vj, +90 for !Vj      R
    4. hard all x 90                                  M

:func:`search_program` writes that program and :func:`hogg_run` runs it
through ``dsl.compile`` on a pseudo-pure |0...0> state, so a single run
read from the pure part answers the problem.

Bit value 1 means the variable is true, and variable 1 is the most
significant bit, so the assignment for V1 and V2 both true is |11>.
"""

import re
from dataclasses import dataclass

import numpy as np

from . import dsl, prep
# evolve and pure_part are not called here, but perfbench/tracing.py patches them by name
from .core import SpinSystem, evolve, pure_part  # noqa: F401
from .errors import ContractError, InputError

_LITERAL = re.compile(r"^(!?)[Vv](\d+)$")


@dataclass(frozen=True)
class OneSatFormula:
    """Clauses are (variable index 1-based, negated flag); one literal each."""

    clauses: tuple[tuple[int, bool], ...]

    def __post_init__(self):
        seen = set()
        for var, negated in self.clauses:
            if var < 1:
                raise InputError(f"variable V{var} out of range, variables start at V1")
            if var in seen:
                raise InputError(f"variable V{var} appears in more than one clause")
            if not isinstance(negated, bool):
                raise InputError("negated flag must be a bool")
            seen.add(var)


def parse_formula(text: str) -> OneSatFormula:
    """Parse literals V<k> or !V<k> joined by '&', e.g. 'V1&!V2'."""
    parts = [p.strip() for p in text.split("&")]
    if parts == [""]:
        return OneSatFormula(clauses=())
    clauses = []
    for part in parts:
        m = _LITERAL.match(part)
        if m is None:
            raise InputError(f"bad literal {part!r}; expected V<k> or !V<k>")
        clauses.append((int(m.group(2)), m.group(1) == "!"))
    return OneSatFormula(clauses=tuple(clauses))


def formula_text(formula: OneSatFormula) -> str:
    return "&".join(("!" if neg else "") + f"V{var}" for var, neg in formula.clauses)


def satisfying_assignment(formula: OneSatFormula) -> str:
    """The unique solution of a formula with one literal on each of V1..Vn, n = clause count."""
    bits = {var: "0" if negated else "1" for var, negated in formula.clauses}
    if not bits or set(bits) != set(range(1, len(bits) + 1)):
        raise InputError(
            "formula is not maximally constrained: it needs one literal on each of V1..Vn"
        )
    return "".join(bits[v] for v in range(1, len(bits) + 1))


def search_program(formula: OneSatFormula, n_spins: int) -> dsl.PulseProgram:
    """The search as hard pulses on n_spins spins; the formula must have n_spins variables."""
    n_vars = len(satisfying_assignment(formula))
    if n_vars != n_spins:
        raise InputError(
            f"the formula fixes {n_vars} variables but the system has {n_spins} spins"
        )
    oracle = [dsl.HardPulse(var, "z", 90.0 if neg else -90.0) for var, neg in formula.clauses]
    walsh = [dsl.HardPulse(None, "y", 90.0), dsl.HardPulse(None, "x", 180.0)]
    return dsl.PulseProgram((*walsh, *oracle, dsl.HardPulse(None, "x", 90.0)))


def hogg_run(
    rho_pp: np.ndarray, formula: OneSatFormula, system: SpinSystem
) -> tuple[np.ndarray, np.ndarray]:
    """Run the search on a pseudo-pure |00..0> deviation matrix.

    Returns the final deviation matrix and the per-assignment weights read
    from the pure part: (diagonal - uniform background) / pure coefficient.
    The uniform background is invariant under the circuit, so the weights
    are exactly the pure state's populations and sum to 1.  The pure part
    is read on the solver's scale, :func:`prep.pure_part_at_scale`.
    """
    program = search_program(formula, system.n_spins)
    part = prep.pure_part_at_scale(rho_pp, system)
    if part.target != 1:
        raise ContractError(
            f"input must be pseudo-pure at level 1, found target level {part.target}"
        )
    rho_final = dsl.run(dsl.compile(program, system), rho_pp)
    weights = (np.real(np.diagonal(rho_final)) - part.uniform_coeff) / part.pure_coeff
    return rho_final, weights
