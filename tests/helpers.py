"""Operator checks shared by the test modules; the package does not need them."""

import numpy as np

import ppsim as pp


def projector(i: int, sign: str, n_spins: int) -> np.ndarray:
    """Projector onto spin i up ('+', bit 0) or down ('-', bit 1)."""
    s = {"+": 1.0, "-": -1.0}[sign]
    return 0.5 * (np.eye(2**n_spins, dtype=complex) + 2 * s * pp.spin_op(i, "z", n_spins))


def is_unitary(U: np.ndarray, tol: float = 1e-12) -> bool:
    U = np.asarray(U)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        return False
    return bool(np.max(np.abs(U @ U.conj().T - np.eye(U.shape[0]))) <= tol)
