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
