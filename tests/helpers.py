"""Operator checks and reference implementations shared by the test modules; the package does not need them."""

import numpy as np

from ppsim import core, prep


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


def dense_residual(angles_deg, system: core.SpinSystem, spec: prep.CascadeSpec) -> np.ndarray:
    """prep.residual one root at a time, from one generator call over every pulse of the cascade."""
    pulses = [((s.m, s.k), "x", a) for s, a in zip(spec.steps, np.radians(angles_deg))]
    U = core.expm_unitary(core.generator(pulses, spec.n_spins))
    d_eq = np.real(np.diagonal(core.thermal_deviation(system)))
    p = (np.abs(U) ** 2) @ d_eq
    others = [lev for lev in range(1, len(d_eq) + 1) if lev != spec.target]
    return np.array([p[lev - 1] - p[others[0] - 1] for lev in others[1:]])


def mask_newton_block(fun, x0: np.ndarray, tol: float):
    """prep._newton_block as a boolean mask over the rows, rescanned every iteration.

    Every floating-point operation is the one prep._newton_block makes, on
    the same rows in the same order, so the two return the same bits and
    make the same kernel calls.
    """
    x = np.array(x0, dtype=float)
    k = x.shape[1]
    r = fun.evaluate(x)
    ok = np.zeros(len(x), dtype=bool)
    live = np.isfinite(r).all(axis=1)
    slow = np.zeros(len(x), dtype=int)
    for _ in range(prep.MAX_ITER):
        i = live.nonzero()[0]
        done = np.abs(r[i]).max(axis=1) < tol
        ok[i[done]] = True
        live[i] = ~done & (slow[i] < prep.SLOW_ITERS)
        i = i[live[i]]
        if not i.size:
            break
        step, solved = prep._newton_steps(fun.jacobian(x[i]), r[i])
        live[i[~solved]] = False
        i, step = i[solved], step[solved]
        norm = np.sqrt(np.square(r[i]).sum(axis=1))
        tried = 0
        while i.size and tried < len(prep._STEP_SCALES):
            lams = prep._STEP_SCALES[tried : tried + max(1, len(x) // i.size)]
            tried += len(lams)
            trial = x[i, None] + lams[:, None] * step[:, None]
            r_trial = fun.evaluate(trial.reshape(-1, k)).reshape(trial.shape)
            finite = np.isfinite(r_trial).all(axis=2)
            trial_norm = np.sqrt(np.square(r_trial).sum(axis=2))
            better = finite & (trial_norm < norm[:, None])
            stop = better | ~finite
            hit = stop.any(axis=1)
            rows = hit.nonzero()[0]
            first = np.argmax(stop[rows], axis=1)
            take = better[rows, first]
            moved, best = i[rows[take]], (rows[take], first[take])
            x[moved], r[moved] = trial[best], r_trial[best]
            cut = 1 - (trial_norm[best] / norm[rows[take]]) ** 2
            slow[moved] = np.where(cut < prep.SLOW_CUT, slow[moved] + 1, 0)
            live[i[rows[~take]]] = False
            i, step, norm = i[~hit], step[~hit], norm[~hit]
        live[i] = False
    ok |= live & (np.abs(r).max(axis=1) < tol)
    return x, r, ok
