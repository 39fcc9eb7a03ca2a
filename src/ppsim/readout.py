"""Simulated readout: stick spectra, tomography, and noise injection.

Reading pulses are ideal hard rotations.  A line amplitude for the
transition (m, k) is twice the single-quantum coherence rho[k, m] after
the pulse; for a two-spin weakly coupled system each spin shows a doublet
at +-J/2 around its carrier, with the +J/2 line belonging to the partner
spin in state 0 (a labeling convention, nothing downstream depends on it).

Every amplitude comes from one forward model, :func:`_line_amplitudes`.
Spectra and measurements apply it to the state; tomography applies it to
the product-operator basis and inverts the resulting real linear map by
least squares over every per-spin combination of {none, x90, y90} pulses.

The fixed parts of that chain are built once and cached as read-only
arrays: the propagator of each readout setting, the product-operator basis
of each register size, and one SVD of each measurement protocol's design.
A reconstruction is then a few matrix-vector products.
"""

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import PAULI, SpinSystem, evolve, expm_unitary, max_rel_error, spin_op
from .errors import ContractError, InputError

READOUT_PULSES = ("none", "x90", "y90")
_PULSE_AXIS = {"x90": "x", "y90": "y"}
MAX_TOMOGRAPHY_SPINS = 4

# Cache sizes, in entries.  A propagator takes 16*4**n bytes; 120 entries
# hold every tomography setting of 1 to 4 spins (0.36 MB), or 120 MiB if
# all of them are 8-spin propagators (the CLI's cap).  The bases of 1 to
# 4 spins take 1.1 MB together.  A protocol of R records on n spins takes
# at most 8*(2R + 4**n)*(4**n - 1) bytes: 0.36 MB for the full 3-spin
# protocol, 11 MB for the full 4-spin one, so 44 MB for four of those.
_PROPAGATOR_CACHE = 3 + 9 + 27 + 81
_PROTOCOL_CACHE = 4


class SpectralLine(NamedTuple):
    freq_hz: float | None
    amplitude: complex
    transition: tuple[int, int]


@dataclass(frozen=True)
class StickSpectrum:
    spin: int
    lines: tuple[SpectralLine, ...]


class Measurement(NamedTuple):
    setting: tuple[str, ...]
    transition: tuple[int, int]
    amplitude: complex


@dataclass(frozen=True)
class MeasurementSet:
    records: tuple[Measurement, ...]
    noise_sigma: float
    seed: int | None


@dataclass(frozen=True, eq=False)
class TomographyResult:
    """A reconstruction; rank and condition_number describe the design."""

    reconstructed: np.ndarray
    residual_norm: float
    settings_used: int
    rank: int
    condition_number: float
    max_rel_error: float | None = None


class _Protocol(NamedTuple):
    """Thin SVD factors of one protocol's design A = U diag(s) Vt.

    u is U and w is Vt.T / s, both cut to the numerical rank, so the least
    squares solution is w @ (u.T @ y).
    """

    u: np.ndarray
    w: np.ndarray
    rank: int
    condition_number: float


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_tomography_size(n_spins: int) -> None:
    if not 1 <= n_spins <= MAX_TOMOGRAPHY_SPINS:
        raise InputError(
            f"tomography supports 1 to {MAX_TOMOGRAPHY_SPINS} spins, got {n_spins}"
        )


def transitions_of_spin(spin: int, n_spins: int) -> list[tuple[int, int]]:
    """All single-quantum transitions (m, k) that flip the given spin.

    m runs over levels with the spin in state 0; k is the partner level.
    """
    if not 1 <= spin <= n_spins:
        raise InputError(f"spin index {spin} out of range 1..{n_spins}")
    stride = 2 ** (n_spins - spin)
    out = []
    for m0 in range(2**n_spins):
        if not m0 & stride:
            out.append((m0 + 1, m0 + stride + 1))
    return out


def setting_unitary(setting, n_spins: int) -> np.ndarray:
    """Propagator for simultaneous hard readout pulses, one entry per spin.

    The result is cached per setting and read-only.
    """
    setting = tuple(setting)
    if len(setting) != n_spins:
        raise InputError(f"expected {n_spins} pulse entries, got {len(setting)}")
    for pulse in setting:
        if pulse not in READOUT_PULSES:
            raise InputError(f"readout pulse must be one of {READOUT_PULSES}, got {pulse!r}")
    return _propagator(setting, n_spins)


@functools.lru_cache(maxsize=_PROPAGATOR_CACHE)
def _propagator(setting: tuple[str, ...], n_spins: int) -> np.ndarray:
    H = np.zeros((2**n_spins, 2**n_spins), dtype=complex)
    for i, pulse in enumerate(setting, start=1):
        if pulse != "none":
            H += (np.pi / 2) * spin_op(i, _PULSE_AXIS[pulse], n_spins)
    return _read_only(expm_unitary(H))


def _line_amplitudes(states, keys, n_spins: int) -> np.ndarray:
    """Line amplitudes 2 (U rho U+)[k-1, m-1], one per (setting, (m, k)) key.

    states is one density matrix or a stack of them; the key axis is
    appended last.  Each distinct setting's state is evolved once.
    """
    dim = 2**n_spins
    m, k = np.array([t for _, t in keys], dtype=int).reshape(-1, 2).T
    if np.any((m < 1) | (m > dim) | (k < 1) | (k > dim)):
        raise InputError(f"transition levels must lie in 1..{dim}")
    index: dict[tuple[str, ...], int] = {}
    which = np.array([index.setdefault(tuple(s), len(index)) for s, _ in keys], dtype=int)
    states = np.asarray(states, dtype=complex)
    out = np.empty(states.shape[:-2] + (len(keys),), dtype=complex)
    for setting, j in index.items():
        idx = which == j
        after = evolve(states, setting_unitary(setting, n_spins))
        out[..., idx] = 2 * after[..., k[idx] - 1, m[idx] - 1]
    return out


def _line_freqs(spin: int, system: SpinSystem) -> dict[tuple[int, int], float] | None:
    # doublet positions exist only for the weakly coupled two-spin case
    if system.n_spins != 2 or system.j_hz is None:
        return None
    j = system.j_hz[0][1]
    partner = 2 if spin == 1 else 1
    out = {}
    for m, k in transitions_of_spin(spin, 2):
        partner_bit = format(m - 1, "02b")[partner - 1]
        out[(m, k)] = j / 2 if partner_bit == "0" else -j / 2
    return out


def readout_spectrum(rho: np.ndarray, spin: int, system: SpinSystem, pulse: str = "x90") -> StickSpectrum:
    """Stick spectrum of one spin after a hard pulse on that spin only.

    pulse is one of 'none', 'x90', 'y90'.  Frequencies are offsets from the
    spin's carrier and are only filled in for two-spin systems with a
    J coupling; otherwise they are None.
    """
    n = system.n_spins
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (system.dim, system.dim):
        raise InputError(f"state shape {rho.shape} does not match system dim {system.dim}")
    setting = tuple(pulse if i == spin else "none" for i in range(1, n + 1))
    transitions = transitions_of_spin(spin, n)
    amps = _line_amplitudes(rho, [(setting, t) for t in transitions], n)
    freqs = _line_freqs(spin, system)
    lines = tuple(
        SpectralLine(freqs[t] if freqs else None, complex(a), t) for t, a in zip(transitions, amps)
    )
    return StickSpectrum(spin=spin, lines=lines)


def tomography_settings(n_spins: int) -> list[tuple[str, ...]]:
    """Every per-spin combination of readout pulses, 3**n settings, n <= 4."""
    _check_tomography_size(n_spins)
    return list(itertools.product(READOUT_PULSES, repeat=n_spins))


def simulate_measurements(
    rho: np.ndarray,
    system: SpinSystem,
    noise_sigma: float = 0.0,
    seed: int | None = None,
) -> MeasurementSet:
    """Record every line amplitude of every spin under each tomography setting.

    With noise_sigma > 0, independent Gaussian noise of standard deviation
    noise_sigma times the largest thermal line amplitude (2 max |gamma|) is
    added to the real and imaginary part of each amplitude.  The seed used
    is recorded; when omitted, a fresh one is drawn so reruns can be
    reproduced from the result.  A given seed must be a nonnegative integer.
    """
    if not np.isfinite(noise_sigma) or noise_sigma < 0:
        raise InputError(f"noise_sigma must be finite and nonnegative, got {noise_sigma}")
    if seed is not None and not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise InputError(f"seed must be a nonnegative integer, got {seed!r}")
    n = system.n_spins
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (system.dim, system.dim):
        raise InputError(f"state shape {rho.shape} does not match system dim {system.dim}")
    lines = [
        (setting, t)
        for setting in tomography_settings(n)
        for spin in range(1, n + 1)
        for t in transitions_of_spin(spin, n)
    ]
    amps = _line_amplitudes(rho, lines, n)
    if noise_sigma > 0:
        if seed is None:
            seed = int(np.random.SeedSequence().entropy) % 2**32
        # one (real, imag) pair per line, drawn in record order
        z = np.random.default_rng(seed).standard_normal((len(lines), 2))
        amps += noise_sigma * 2 * max(abs(g) for g in system.gamma) * (z[:, 0] + 1j * z[:, 1])
    records = tuple(Measurement(setting, t, complex(a)) for (setting, t), a in zip(lines, amps))
    return MeasurementSet(records, float(noise_sigma), seed)


def basis_operators(n_spins: int) -> list[np.ndarray]:
    """Traceless Hermitian product-operator basis, 4**n - 1 matrices, n <= 4.

    Kronecker products of {identity, sigma_x, sigma_y, sigma_z} per spin,
    excluding the all-identity term.  Orthogonal under the trace inner
    product with norm 2**n, so real coefficients are unique.  The matrices
    are read-only views of one cached stack.
    """
    return list(_basis(n_spins))


@functools.lru_cache(maxsize=MAX_TOMOGRAPHY_SPINS)
def _basis(n_spins: int) -> np.ndarray:
    _check_tomography_size(n_spins)
    eye = np.eye(2, dtype=complex)
    ops = []
    for combo in itertools.product("ixyz", repeat=n_spins):
        if all(c == "i" for c in combo):
            continue
        op = np.array([[1]], dtype=complex)
        for c in combo:
            op = np.kron(op, eye if c == "i" else PAULI[c])
        ops.append(op)
    return _read_only(np.array(ops))


@functools.lru_cache(maxsize=_PROTOCOL_CACHE)
def _protocol(n_spins: int, keys: tuple) -> _Protocol:
    """Factor the design of the records keyed (setting, transition), in order.

    The forward model applied to the basis gives each amplitude as a real
    linear functional of the deviation matrix's coordinates; real parts and
    imaginary parts give two rows per record.  The rank cut is lstsq's.
    """
    A = _line_amplitudes(_basis(n_spins), keys, n_spins)
    design = np.concatenate((A.real, A.imag), axis=1).T
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    rank = int(np.sum(s > s[0] * max(design.shape) * np.finfo(float).eps))
    return _Protocol(
        u=_read_only(u[:, :rank]),
        w=_read_only(vt[:rank].T / s[:rank]),
        rank=rank,
        condition_number=float(s[0] / s[rank - 1]),
    )


def reconstruct(measurements: MeasurementSet, system: SpinSystem, reference=None) -> TomographyResult:
    """Least-squares inversion of recorded line amplitudes.

    The design of each distinct protocol (spin count and the records'
    settings and transitions, in order) is factored once and cached.  Its
    rank is checked, so an incomplete protocol fails loudly instead of
    silently projecting.
    """
    records = measurements.records
    if not records:
        raise InputError("no measurements to reconstruct from")
    n = system.n_spins
    basis = _basis(n)
    protocol = _protocol(n, tuple((tuple(rec.setting), tuple(rec.transition)) for rec in records))
    if protocol.rank < len(basis):
        raise ContractError(
            f"measurement protocol incomplete: design rank {protocol.rank} < {len(basis)}"
        )
    amps = np.array([rec.amplitude for rec in records], dtype=complex)
    y = np.concatenate((amps.real, amps.imag))
    c = protocol.u.T @ y
    rho = np.tensordot(protocol.w @ c, basis, axes=1)
    misfit = float(np.linalg.norm(protocol.u @ c - y))
    err = None
    if reference is not None:
        err = max_rel_error(rho, np.asarray(reference, dtype=complex))
    return TomographyResult(
        reconstructed=rho,
        residual_norm=misfit,
        settings_used=len({tuple(rec.setting) for rec in records}),
        rank=protocol.rank,
        condition_number=protocol.condition_number,
        max_rel_error=err,
    )


def render_stick_svg(spectra) -> str:
    """A minimal SVG stick plot, one panel per spectrum."""
    spectra = list(spectra)
    if not spectra:
        raise InputError("nothing to plot")
    width, panel_height, pad = 640, 160, 40.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{panel_height * len(spectra)}" font-family="sans-serif" font-size="11">'
    ]
    amp_max = max(
        (abs(line.amplitude) for sp in spectra for line in sp.lines), default=0.0
    )
    amp_max = amp_max or 1.0
    for row, sp in enumerate(spectra):
        top = row * panel_height
        base = top + panel_height - 30.0
        parts.append(
            f'<line x1="{pad}" y1="{base}" x2="{width - pad}" y2="{base}" stroke="black"/>'
        )
        parts.append(f'<text x="{pad}" y="{top + 16}">spin {sp.spin}</text>')
        freqs = [line.freq_hz for line in sp.lines]
        have_freqs = all(f is not None for f in freqs) and len(freqs) > 0
        span = max(abs(f) for f in freqs) * 2.4 if have_freqs else 0.0
        span = span or 1.0
        for idx, line in enumerate(sp.lines):
            if have_freqs:
                x = pad + (width - 2 * pad) * (0.5 + line.freq_hz / span)
            else:
                x = pad + (width - 2 * pad) * (idx + 1) / (len(sp.lines) + 1)
            h = (panel_height - 50.0) * abs(line.amplitude) / amp_max
            parts.append(
                f'<line x1="{x:.2f}" y1="{base}" x2="{x:.2f}" y2="{base - h:.2f}" '
                'stroke="steelblue" stroke-width="2"/>'
            )
            label = f"{line.transition[0]}-{line.transition[1]}"
            parts.append(f'<text x="{x - 10:.2f}" y="{base + 14}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
