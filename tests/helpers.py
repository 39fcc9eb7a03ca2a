"""Operator checks shared by the test modules; the package does not need them."""

import numpy as np

from ppsim import core


def spin_op(i: int, axis: str, n_spins: int) -> np.ndarray:
    """Spin operator sigma_axis/2 on spin i (1-based), identity elsewhere, by Kronecker products."""
    op = np.kron(np.eye(2 ** (i - 1), dtype=complex), core.PAULI[axis] / 2)
    return np.kron(op, np.eye(2 ** (n_spins - i), dtype=complex))


def projector(i: int, sign: str, n_spins: int) -> np.ndarray:
    """Projector onto spin i up ('+', bit 0) or down ('-', bit 1)."""
    s = {"+": 1.0, "-": -1.0}[sign]
    return 0.5 * (np.eye(2**n_spins, dtype=complex) + 2 * s * spin_op(i, "z", n_spins))


def thermal_reference(system: core.SpinSystem) -> np.ndarray:
    """sum_i 2 gamma_i * spin_op(i, "z"), the thermal deviation built operator by operator."""
    out = np.zeros((system.dim, system.dim), dtype=complex)
    for i, g in enumerate(system.gamma, start=1):
        out += 2 * g * spin_op(i, "z", system.n_spins)
    return out


def is_unitary(U: np.ndarray, tol: float = 1e-12) -> bool:
    U = np.asarray(U)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        return False
    return bool(np.max(np.abs(U @ U.conj().T - np.eye(U.shape[0]))) <= tol)


def walsh(n_spins: int) -> np.ndarray:
    """The n-spin Walsh transform, a Kronecker power of the Hadamard matrix."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    out = np.eye(1, dtype=complex)
    for _ in range(n_spins):
        out = np.kron(out, h)
    return out


def conflicts(bits: str, clauses) -> int:
    """Number of (variable, negated) clauses that a bit string (1 = true) violates."""
    return sum((bits[var - 1] == "1") == negated for var, negated in clauses)


def phase_oracle(clauses, n_spins: int) -> np.ndarray:
    """diag(i ** conflicts) over the basis states."""
    labels = [core.bits_of(lev, n_spins) for lev in range(1, 2**n_spins + 1)]
    return np.diag([1j ** conflicts(bits, clauses) for bits in labels])


def mixing(n_spins: int) -> np.ndarray:
    """W diag(i ** (weight - 1)) W, with weight the Hamming weight of a basis state."""
    w = walsh(n_spins)
    weight = np.array([lev.bit_count() for lev in range(2**n_spins)])
    return w @ np.diag(1j ** (weight - 1)) @ w


def search_unitary(clauses, n_spins: int) -> np.ndarray:
    """Hogg's one-step search circuit as dense matrices: mix . phase . Walsh."""
    return mixing(n_spins) @ phase_oracle(clauses, n_spins) @ walsh(n_spins)
