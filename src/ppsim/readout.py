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
"""

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import PAULI, SpinSystem, evolve, expm_unitary, max_rel_error, spin_op
from .errors import ContractError, InputError

READOUT_PULSES = ("none", "x90", "y90")
_PULSE_AXIS = {"x90": "x", "y90": "y"}


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
    spin: int
    transition: tuple[int, int]
    amplitude: complex


@dataclass(frozen=True)
class MeasurementSet:
    records: tuple[Measurement, ...]
    noise_sigma: float
    seed: int | None


@dataclass(frozen=True, eq=False)
class TomographyResult:
    reconstructed: np.ndarray
    residual_norm: float
    settings_used: int
    max_rel_error: float | None = None


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
    """Propagator for simultaneous hard readout pulses, one entry per spin."""
    setting = tuple(setting)
    if len(setting) != n_spins:
        raise InputError(f"expected {n_spins} pulse entries, got {len(setting)}")
    H = np.zeros((2**n_spins, 2**n_spins), dtype=complex)
    for i, pulse in enumerate(setting, start=1):
        if pulse == "none":
            continue
        axis = _PULSE_AXIS.get(pulse)
        if axis is None:
            raise InputError(f"readout pulse must be one of {READOUT_PULSES}, got {pulse!r}")
        H += (np.pi / 2) * spin_op(i, axis, n_spins)
    return expm_unitary(H)


def _line_amplitudes(states, keys, n_spins: int) -> np.ndarray:
    """Line amplitudes 2 (U rho U+)[k-1, m-1], one per (setting, (m, k)) key.

    states is one density matrix or a stack of them; the key axis is
    appended last.  Each distinct setting's propagator U is built once.
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
    """Every per-spin combination of readout pulses, 3**n settings."""
    if not 1 <= n_spins <= 3:
        raise InputError(f"tomography supports 1 to 3 spins, got {n_spins}")
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
    reproduced from the result.
    """
    if not np.isfinite(noise_sigma) or noise_sigma < 0:
        raise InputError(f"noise_sigma must be finite and nonnegative, got {noise_sigma}")
    n = system.n_spins
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (system.dim, system.dim):
        raise InputError(f"state shape {rho.shape} does not match system dim {system.dim}")
    lines = [
        (setting, spin, t)
        for setting in tomography_settings(n)
        for spin in range(1, n + 1)
        for t in transitions_of_spin(spin, n)
    ]
    amps = _line_amplitudes(rho, [(setting, t) for setting, _, t in lines], n)
    if noise_sigma > 0:
        if seed is None:
            seed = int(np.random.SeedSequence().entropy) % 2**32
        # one (real, imag) pair per line, drawn in record order
        z = np.random.default_rng(seed).standard_normal((len(lines), 2))
        amps += noise_sigma * 2 * max(abs(g) for g in system.gamma) * (z[:, 0] + 1j * z[:, 1])
    records = tuple(
        Measurement(setting, spin, t, complex(a)) for (setting, spin, t), a in zip(lines, amps)
    )
    return MeasurementSet(records, float(noise_sigma), seed)


def basis_operators(n_spins: int) -> list[np.ndarray]:
    """Traceless Hermitian product-operator basis, 4**n - 1 matrices.

    Kronecker products of {identity, sigma_x, sigma_y, sigma_z} per spin,
    excluding the all-identity term.  Orthogonal under the trace inner
    product with norm 2**n, so real coefficients are unique.
    """
    eye = np.eye(2, dtype=complex)
    ops = []
    for combo in itertools.product("ixyz", repeat=n_spins):
        if all(c == "i" for c in combo):
            continue
        op = np.array([[1]], dtype=complex)
        for c in combo:
            op = np.kron(op, eye if c == "i" else PAULI[c])
        ops.append(op)
    return ops


def reconstruct(measurements: MeasurementSet, system: SpinSystem, reference=None) -> TomographyResult:
    """Least-squares inversion of recorded line amplitudes.

    The forward model applied to the product-operator basis gives each
    amplitude as a real-linear functional of the deviation matrix's
    coordinates; real parts and imaginary parts give two equations per
    line.  Solved with lstsq, whose rank is checked so an incomplete
    protocol fails loudly instead of silently projecting.
    """
    records = measurements.records
    if not records:
        raise InputError("no measurements to reconstruct from")
    basis = basis_operators(system.n_spins)
    keys = [(rec.setting, rec.transition) for rec in records]
    A = _line_amplitudes(np.array(basis), keys, system.n_spins)
    design = np.concatenate((A.real, A.imag), axis=1).T
    amps = np.array([rec.amplitude for rec in records], dtype=complex)
    y = np.concatenate((amps.real, amps.imag))
    x, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < len(basis):
        raise ContractError(f"measurement protocol incomplete: design rank {rank} < {len(basis)}")
    rho = sum(c * B for c, B in zip(x, basis))
    misfit = float(np.linalg.norm(design @ x - y))
    err = None
    if reference is not None:
        err = max_rel_error(rho, np.asarray(reference, dtype=complex))
    return TomographyResult(
        reconstructed=rho,
        residual_norm=misfit,
        settings_used=len({tuple(rec.setting) for rec in records}),
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
