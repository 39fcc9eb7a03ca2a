"""Single-step quantum search for maximally constrained 1-SAT on two variables.

The circuit is W, then a diagonal phase R encoding clause conflicts, then a
mixing operator M = W D W:

    R[s, s] = i ** conflicts(s)        D[r, r] = i ** (weight(r) - 1)

with W the two-spin Walsh transform and weight the Hamming weight.  For any
formula with exactly one clause per variable, M R W maps |00> to the unique
satisfying assignment with probability 1, so a single run read from the
pseudo-pure |00> state answers the problem.

Bit value 1 means the variable is true, and variable 1 is the most
significant bit, so the assignment for V1 and V2 both true is |11>.
"""

import re
from dataclasses import dataclass

import numpy as np

from .core import bits_of, evolve, pure_part
from .errors import ContractError, InputError

_LITERAL = re.compile(r"^(!?)[Vv](\d+)$")

#: Number of variables; the mixing phases are specific to two.
N_VARS = 2


@dataclass(frozen=True)
class OneSatFormula:
    """Clauses are (variable index 1-based, negated flag); one literal each."""

    clauses: tuple[tuple[int, bool], ...]

    def __post_init__(self):
        seen = set()
        for var, negated in self.clauses:
            if not 1 <= var <= N_VARS:
                raise InputError(f"variable V{var} out of range 1..{N_VARS}")
            if var in seen:
                raise InputError(f"variable V{var} appears in more than one clause")
            if not isinstance(negated, bool):
                raise InputError("negated flag must be a bool")
            seen.add(var)

    @property
    def maximally_constrained(self) -> bool:
        return len(self.clauses) == N_VARS


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


def conflicts(assignment: str, formula: OneSatFormula) -> int:
    """Number of clauses violated by a bitstring assignment (1 = true)."""
    if len(assignment) != N_VARS or any(c not in "01" for c in assignment):
        raise InputError(f"assignment must be {N_VARS} bits, got {assignment!r}")
    count = 0
    for var, negated in formula.clauses:
        value = assignment[var - 1] == "1"
        if value == negated:
            count += 1
    return count


def satisfying_assignment(formula: OneSatFormula) -> str:
    if not formula.maximally_constrained:
        raise InputError("formula is not maximally constrained; no unique solution")
    bits = {var: "0" if negated else "1" for var, negated in formula.clauses}
    return "".join(bits[v] for v in range(1, N_VARS + 1))


def walsh(n_spins: int) -> np.ndarray:
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    out = np.array([[1]], dtype=complex)
    for _ in range(n_spins):
        out = np.kron(out, h)
    return out


def phase_oracle(formula: OneSatFormula) -> np.ndarray:
    phases = [1j ** conflicts(bits_of(lev, N_VARS), formula) for lev in range(1, 2**N_VARS + 1)]
    return np.diag(np.array(phases, dtype=complex))


def mixing() -> np.ndarray:
    w = walsh(N_VARS)
    weight = np.array([lev.bit_count() for lev in range(2**N_VARS)])
    d = np.diag(1j ** (weight - 1)).astype(complex)
    return w @ d @ w


def search_unitary(formula: OneSatFormula) -> np.ndarray:
    """The full one-step circuit: superpose, phase, mix."""
    return mixing() @ phase_oracle(formula) @ walsh(N_VARS)


def hogg_run(rho_pp: np.ndarray, formula: OneSatFormula) -> tuple[np.ndarray, np.ndarray]:
    """Run the search on a pseudo-pure |00..0> deviation matrix.

    Returns the final deviation matrix and the per-assignment weights read
    from the pure part: (diagonal - uniform background) / pure coefficient.
    The uniform background is invariant under the circuit, so the weights
    are exactly the pure state's populations and sum to 1.
    """
    if not formula.maximally_constrained:
        raise InputError("search needs a maximally constrained formula (one clause per variable)")
    part = pure_part(np.asarray(rho_pp, dtype=complex))
    if part.target != 1:
        raise ContractError(
            f"input must be pseudo-pure at level 1, found target level {part.target}"
        )
    rho_final = evolve(rho_pp, search_unitary(formula))
    weights = (np.real(np.diagonal(rho_final)) - part.uniform_coeff) / part.pure_coeff
    return rho_final, weights
