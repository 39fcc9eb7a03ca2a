"""Operator algebra for small ensembles of spin-1/2 nuclei.

Conventions used throughout the package:

- Basis states are labeled by bit strings with spin 1 as the most
  significant bit.  Energy levels are numbered from 1, so for two spins
  |00> -> 1, |01> -> 2, |10> -> 3, |11> -> 4.
- :func:`generator` builds cascade and program pulses: angle a on the line
  (m, k) adds a * sigma_axis/2 into the 2x2 block of levels m and k, and a
  hard pulse on a spin is that sum over every line of the spin.
- A deviation matrix is the traceless part of a density matrix, in the
  units where thermal equilibrium reads sum_i gamma_i * sigma_z(spin i).
  The uniform background is invisible to every readout modeled here and
  is dropped everywhere.
- Angles are radians inside the package; degrees appear only at file and
  command-line boundaries.
- File formats, system files included, belong to :mod:`ppsim.cli`.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError, InputError, NotPseudoPureError

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: Supported crusher idealizations, see :func:`crush`.
CRUSH_MODES = ("all_off_diagonal", "coherence_order")

HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class SpinSystem:
    """A static description of the spin ensemble.

    gamma: relative gyromagnetic ratio per spin (dimensionless, nonzero).
    j_hz: symmetric scalar-coupling matrix with zero diagonal.
    """

    gamma: tuple[float, ...]
    j_hz: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))
        n = len(self.gamma)
        if n < 1:
            raise InputError("a spin system needs at least one spin")
        if not all(np.isfinite(g) and g != 0 for g in self.gamma):
            raise InputError(f"gamma must be finite and nonzero, got {self.gamma}")
        # a thermal population is a sum of +-gamma_i, so a difference of two
        # populations is bounded by 2 * sum |gamma_i|
        if not np.isfinite(2 * sum(abs(g) for g in self.gamma)):
            raise InputError(f"gamma too large, the thermal deviation overflows: {self.gamma}")
        if self.j_hz is not None:
            j = tuple(tuple(float(v) for v in row) for row in self.j_hz)
            object.__setattr__(self, "j_hz", j)
            if len(j) != n or any(len(row) != n for row in j):
                raise InputError("j_hz must be an n x n matrix")
            if not np.all(np.isfinite(j)):
                raise InputError(f"j_hz must be finite, got {j}")
            for a in range(n):
                if j[a][a] != 0:
                    raise InputError("j_hz diagonal must be zero")
                for b in range(n):
                    if j[a][b] != j[b][a]:
                        raise InputError("j_hz must be symmetric")

    @property
    def n_spins(self) -> int:
        return len(self.gamma)

    @property
    def dim(self) -> int:
        return 2**self.n_spins


# ---------------------------------------------------------------------------
# level bookkeeping

def level_of(bits: str) -> int:
    """1-based energy level for a basis label, e.g. '01' -> 2."""
    if not bits or any(c not in "01" for c in bits):
        raise InputError(f"basis label must be a nonempty bit string, got {bits!r}")
    return 1 + int(bits, 2)


def bits_of(level: int, n_spins: int) -> str:
    """Basis label for a 1-based level, e.g. (2, 2) -> '01'."""
    return format(_check_level(level, n_spins) - 1, f"0{n_spins}b")


def _check_level(level: int, n_spins: int) -> int:
    # isinstance(True, int) holds, but a flag is not a level
    if isinstance(level, bool) or not isinstance(level, (int, np.integer)):
        raise InputError(f"level must be an integer, got {level!r}")
    if not 1 <= level <= 2**n_spins:
        raise InputError(f"level {level} out of range 1..{2**n_spins}")
    return level


def flipped_spin(m: int, k: int, n_spins: int) -> int:
    """Spin (1-based) flipped by the single-quantum transition between levels m and k.

    Raises InputError unless both levels are in range and differ in exactly
    one bit, the condition for a resolvable line.
    """
    _check_level(m, n_spins)
    _check_level(k, n_spins)
    d = (m - 1) ^ (k - 1)
    if d == 0 or d & (d - 1):
        raise InputError(
            f"transition ({m}, {k}) does not flip exactly one bit, not a resolvable line"
        )
    return n_spins - int(d).bit_length() + 1  # d may be a numpy integer


def transitions_of_spin(spin: int, n_spins: int) -> list[tuple[int, int]]:
    """All single-quantum transitions (m, k) that flip the given spin.

    m runs over levels with the spin in state 0; k is the partner level.
    """
    if isinstance(spin, bool) or not isinstance(spin, (int, np.integer)):
        raise InputError(f"spin index must be an integer, got {spin!r}")
    if not 1 <= spin <= n_spins:
        raise InputError(f"spin index {spin} out of range 1..{n_spins}")
    stride = 2 ** (n_spins - spin)
    return [(m0 + 1, m0 + stride + 1) for m0 in range(2**n_spins) if not m0 & stride]


# ---------------------------------------------------------------------------
# operators

def thermal_deviation(system: SpinSystem) -> np.ndarray:
    """High-temperature equilibrium deviation, sum_i gamma_i * sigma_z(i)."""
    n = system.n_spins
    levels = np.arange(system.dim)
    d = np.zeros(system.dim)
    for i, g in enumerate(system.gamma, start=1):
        # +gamma_i on the levels where spin i's bit is 0, -gamma_i where it is 1
        d += np.where((levels >> (n - i)) & 1, -g, g)
    return np.diag(d).astype(complex)


def generator(pulses, n_spins: int) -> np.ndarray:
    """Hermitian generator of simultaneous single-transition pulses, for :func:`expm_unitary`.

    pulses: iterable of ((m, k), axis, angle_rad).  In turn, each adds
    angle * sigma_axis/2 into the 2x2 block of distinct 1-based levels
    (m, k), rows in that order; selection rules are the caller's concern.
    Finite angles whose sum overflows an entry raise InputError.
    """
    out = np.zeros((2**n_spins, 2**n_spins), dtype=complex)
    try:
        # only the sums into out can overflow: each angle is finite and halved
        with np.errstate(over="raise"):
            for (m, k), axis, angle in pulses:
                _check_level(m, n_spins)
                _check_level(k, n_spins)
                if m == k:
                    raise InputError(f"transition needs two distinct levels, got ({m}, {k})")
                if axis not in PAULI:
                    raise InputError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
                angle = float(angle)
                if not math.isfinite(angle):
                    raise InputError(f"pulse angle must be finite, got {angle}")
                a, b = m - 1, k - 1
                h = angle * (PAULI[axis] / 2)
                out[a, a] += h[0, 0]
                out[a, b] += h[0, 1]
                out[b, a] += h[1, 0]
                out[b, b] += h[1, 1]
    except FloatingPointError:
        raise InputError("summed pulse angles overflow the generator") from None
    return out


def expm_unitary(hermitian: np.ndarray) -> np.ndarray:
    """exp(-i H) for Hermitian H, via the spectral decomposition; H may be a stack.

    Each H is diagonalized once with eigh, so the result is unitary to
    machine precision regardless of the norm of H.  A stack is checked and
    diagonalized member by member, so each exponential has the same bits as
    a call on that member alone.
    """
    H = np.asarray(hermitian, dtype=complex)
    if H.ndim < 2 or H.shape[-1] != H.shape[-2]:
        raise InputError(f"generator must be a square matrix, got shape {H.shape}")
    if not np.all(np.isfinite(H)):
        raise InputError("generator entries must be finite")
    if not is_hermitian(H, tol=HERMITICITY_TOL):
        raise ContractError("generator is not Hermitian to 1e-10")
    w, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * w)[..., None, :]) @ V.conj().swapaxes(-1, -2)


def evolve(rho: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Conjugate rho -> U rho U+; states and propagators may be stacks, broadcast as in matmul."""
    rho = np.asarray(rho, dtype=complex)
    U = np.asarray(U, dtype=complex)
    if U.ndim < 2 or U.shape[-1] != U.shape[-2] or rho.shape[-2:] != U.shape[-2:]:
        raise InputError(f"shape mismatch: state {rho.shape} vs propagator {U.shape}")
    return U @ rho @ U.conj().swapaxes(-1, -2)


def crush(rho: np.ndarray, mode: str = "all_off_diagonal") -> np.ndarray:
    """Idealized crusher gradient.

    'all_off_diagonal' keeps only populations.  'coherence_order' keeps
    every element whose coherence order is zero, which also preserves
    zero-quantum terms; gradients cannot dephase those.
    """
    rho = np.asarray(rho, dtype=complex)
    if mode not in CRUSH_MODES:
        raise InputError(f"crush mode must be one of {CRUSH_MODES}, got {mode!r}")
    if mode == "all_off_diagonal":
        return np.diag(np.diagonal(rho)).astype(complex)
    pc = np.array([lev.bit_count() for lev in range(rho.shape[0])])
    keep = pc[:, None] == pc[None, :]
    return np.where(keep, rho, 0.0)


# ---------------------------------------------------------------------------
# diagnostics

class PurePart(NamedTuple):
    uniform_coeff: float
    pure_coeff: float
    target: int


def pure_part(rho: np.ndarray, tol: float = 1e-6) -> PurePart:
    """Split a diagonal state into uniform background plus one basis state.

    Succeeds when all but one diagonal entry agree within tol; returns the
    repeated value, the excess at the distinct level, and that level.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    off = rho - np.diag(np.diagonal(rho))
    worst_off = float(np.max(np.abs(off))) if dim > 1 else 0.0
    if worst_off > tol:
        raise NotPseudoPureError(
            f"state has off-diagonal content {worst_off:.3e} beyond tol {tol:.1e}"
        )
    d = np.real(np.diagonal(rho))
    # The lone distinct entry is the farthest from the median, which always
    # lies in the repeated group for dim >= 3.
    target_idx = int(np.argmax(np.abs(d - np.median(d))))
    rest = np.delete(d, target_idx)
    spread = float(rest.max() - rest.min())
    if spread > tol:
        raise NotPseudoPureError(
            f"non-target populations spread {spread:.3e} beyond tol {tol:.1e}"
        )
    uniform = float(rest.mean())
    pure = float(d[target_idx] - uniform)
    if abs(pure) <= tol:
        raise NotPseudoPureError("no level stands out from the uniform background")
    return PurePart(uniform, pure, target_idx + 1)


def max_rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| over entries, normalized by the largest magnitude in b."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise InputError(f"shape mismatch: {a.shape} vs {b.shape}")
    scale = float(np.abs(b).max())
    if scale == 0.0:
        raise ContractError("relative error undefined: reference matrix is zero")
    return float(np.abs(a - b).max()) / scale


def is_hermitian(A: np.ndarray, tol: float = 1e-12) -> bool:
    """Whether A, or every matrix of a stack A, is within tol of its conjugate transpose."""
    A = np.asarray(A)
    return A.ndim >= 2 and A.shape[-1] == A.shape[-2] and bool(
        np.all(np.abs(A - A.conj().swapaxes(-1, -2)) <= tol)
    )
