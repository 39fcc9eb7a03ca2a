"""Simulated readout: stick spectra, tomography, and noise injection.

Reading pulses are ideal hard rotations, one :func:`core.generator` pulse
on each line of the pulsed spin.  A line amplitude for the transition
(m, k) is twice the single-quantum coherence rho[k, m] after the pulse;
for a two-spin weakly coupled system each spin shows a doublet at +-J/2
around its carrier, with the +J/2 line belonging to the partner spin in
state 0 (a labeling convention, nothing downstream depends on it).

Every amplitude comes from one forward model, :func:`_line_amplitudes`.
Spectra and measurements apply it to the state; tomography applies it to
the product-operator basis and inverts the resulting real linear map by
least squares over every per-spin combination of {none, x90, y90} pulses.

A protocol reads every line of every spin under each setting of a list.
A record is a row product, row k-1 of U times rho dotted with row m-1 of
U*, so a protocol holds just those rows, left and right, of shape
(settings, lines, dim).  It factors its design by SVD only when first
reconstructed, with the basis folded in, so a reconstruction gives rho
from two matrix-vector products.  Each register size's basis and full
tomography protocol are built once and cached as read-only arrays; a
spectrum builds its one-setting protocol on each call and cuts it to one
spin's lines.  A MeasurementSet is its protocol and one amplitude per
record, so a reconstruction looks nothing up.
"""

import functools
import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# evolve is not called here, but perfbench/tracing.py patches it by name
from .core import PAULI, SpinSystem, evolve, expm_unitary, generator, max_rel_error, transitions_of_spin  # noqa: F401
from .errors import ContractError, InputError

READOUT_PULSES = ("none", "x90", "y90")
MAX_TOMOGRAPHY_SPINS = 4


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


@dataclass(frozen=True, eq=False)
class TomographyResult:
    """A reconstruction; rank and condition_number describe the design."""

    reconstructed: np.ndarray
    residual_norm: float
    settings_used: int
    rank: int
    condition_number: float
    max_rel_error: float | None = None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _in_range(value, types, hi) -> bool:
    # isinstance(True, int) holds, but a flag is not a count or a scale
    return isinstance(value, types) and not isinstance(value, bool) and 0 <= value <= hi


def _check_tomography_size(n_spins: int) -> None:
    if not 1 <= n_spins <= MAX_TOMOGRAPHY_SPINS:
        raise InputError(
            f"tomography supports 1 to {MAX_TOMOGRAPHY_SPINS} spins, got {n_spins}"
        )


def setting_unitary(setting, n_spins: int) -> np.ndarray:
    """Propagator for simultaneous hard readout pulses, one entry per spin."""
    setting = tuple(setting)
    if len(setting) != n_spins:
        raise InputError(f"expected {n_spins} pulse entries, got {len(setting)}")
    pulses = []
    for i, pulse in enumerate(setting, start=1):
        if pulse not in READOUT_PULSES:
            raise InputError(f"readout pulse must be one of {READOUT_PULSES}, got {pulse!r}")
        if pulse != "none":
            # "x90" and "y90" rotate about the axis their name starts with
            pulses += [(t, pulse[0], np.pi / 2) for t in transitions_of_spin(i, n_spins)]
    return expm_unitary(generator(pulses, n_spins))


class _Protocol:
    """The state-independent part of reading every line under each setting.

    Compared by identity.  Records run over settings, then spins, then
    transitions_of_spin order.
    """

    def __init__(self, n_spins: int, settings: tuple):
        self.n_spins, self.settings = n_spins, settings
        lines = [transitions_of_spin(spin, n_spins) for spin in range(1, n_spins + 1)]
        self.transitions = tuple(itertools.chain(*lines))
        # a line reads (U rho U+)[k - 1, m - 1], row k - 1 of U rho dotted with row m - 1 of U*
        m, k = np.array(self.transitions).T
        propagators = np.array([setting_unitary(s, n_spins) for s in settings])
        self.left = _read_only(propagators[:, k - 1])
        self.right = _read_only(propagators[:, m - 1].conj())

    @functools.cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray, int, float]:
        """Thin SVD factors (u, w, rank, condition_number) of the design A.

        Each record's amplitude applied to the basis gives two rows of A, its
        real and imaginary parts.  With A = U diag(s) Vt cut to lstsq's rank,
        u is U and lstsq(A, y) = Vt.T / s @ (u.T @ y).  w is the basis times
        Vt.T / s, one row per entry of a dim x dim state, so w @ (u.T @ y)
        is the least-squares state, flattened.
        """
        basis = _basis(self.n_spins)
        A = np.array([_line_amplitudes(B, self) for B in basis])
        design = np.concatenate((A.real, A.imag), axis=1).T
        u, s, vt = np.linalg.svd(design, full_matrices=False)
        rank = int(np.sum(s > s[0] * max(design.shape) * np.finfo(float).eps))
        w = basis.reshape(len(basis), -1).T @ (vt[:rank].T / s[:rank])
        return _read_only(u[:, :rank]), _read_only(w), rank, float(s[0] / s[rank - 1])


@functools.lru_cache(maxsize=MAX_TOMOGRAPHY_SPINS)
def _protocol(n_spins: int) -> _Protocol:
    """The full tomography protocol of a register size, 3**n settings."""
    return _Protocol(n_spins, tuple(tomography_settings(n_spins)))


@dataclass(frozen=True)
class MeasurementSet:
    """Line amplitudes, amplitudes[i] of the protocol's record i, as columns."""

    protocol: _Protocol
    amplitudes: tuple[complex, ...]
    noise_sigma: float
    seed: int | None

    @property
    def records(self) -> tuple[Measurement, ...]:
        keys = itertools.product(self.protocol.settings, self.protocol.transitions)
        return tuple(Measurement(s, t, a) for (s, t), a in zip(keys, self.amplitudes))


def _line_amplitudes(rho: np.ndarray, protocol: _Protocol) -> np.ndarray:
    """Line amplitudes 2 (U rho U+)[k-1, m-1] of one state, one per record of the protocol.

    Each is 2 (left @ rho) . right, row by row.  left @ rho runs in real
    arithmetic, with rho's entries as 2x2 blocks [[re, im], [-im, re]]
    acting on left's interleaved real view, one setting at a time, so a
    spectrum's product has a tomography setting's shape and equal bits.
    """
    dim = len(rho)
    blocks = np.stack((rho, 1j * rho), axis=1).view(float).reshape(2 * dim, 2 * dim)
    rows = (protocol.left.view(float) @ blocks).view(complex)
    return 2 * np.einsum("slb,slb->sl", rows, protocol.right).ravel()


def _state(rho, system: SpinSystem) -> np.ndarray:
    """rho as a complex array, checked against the system before it is read out."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (system.dim, system.dim):
        raise InputError(f"state shape {rho.shape} does not match system dim {system.dim}")
    if not np.isfinite(rho).all():
        raise InputError("state has a non-finite entry")
    return rho


def _line_freqs(system: SpinSystem) -> tuple[float, float] | None:
    # doublet positions exist only for the weakly coupled two-spin case; a
    # spin's first line in transitions_of_spin order has its partner in state 0
    if system.n_spins != 2 or system.j_hz is None:
        return None
    j = system.j_hz[0][1]
    return j / 2, -j / 2


def readout_spectrum(rho: np.ndarray, spin: int, system: SpinSystem, pulse: str = "x90") -> StickSpectrum:
    """Stick spectrum of one spin after a hard pulse on that spin only.

    pulse is one of 'none', 'x90', 'y90'.  Frequencies are offsets from the
    spin's carrier and are only filled in for two-spin systems with a
    J coupling; otherwise they are None.  A state with a non-finite entry
    raises InputError.
    """
    n = system.n_spins
    rho = _state(rho, system)
    setting = tuple(pulse if i == spin else "none" for i in range(1, n + 1))
    transitions = transitions_of_spin(spin, n)
    # the protocol reads each spin's 2**(n-1) lines in turn
    amps = _line_amplitudes(rho, _Protocol(n, (setting,))).reshape(n, -1)[spin - 1]
    freqs = _line_freqs(system) or [None] * len(transitions)
    lines = tuple(SpectralLine(f, complex(a), t) for t, a, f in zip(transitions, amps, freqs))
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
    A state with a non-finite entry, and noise that leaves any amplitude
    non-finite, raise InputError.
    """
    if not _in_range(noise_sigma, numbers.Real, sys.float_info.max):
        raise InputError(f"noise_sigma must be a finite nonnegative number, got {noise_sigma!r}")
    if seed is not None and not _in_range(seed, (int, np.integer), math.inf):
        raise InputError(f"seed must be a nonnegative integer, got {seed!r}")
    rho = _state(rho, system)
    protocol = _protocol(system.n_spins)
    amps = _line_amplitudes(rho, protocol)
    if noise_sigma > 0:
        if seed is None:
            seed = int(np.random.SeedSequence().entropy) % 2**32
        # one (real, imag) pair per line, drawn in record order
        z = np.random.default_rng(seed).standard_normal((len(amps), 2))
        with np.errstate(over="ignore", invalid="ignore"):
            amps += noise_sigma * 2 * max(abs(g) for g in system.gamma) * (z[:, 0] + 1j * z[:, 1])
        if not np.isfinite(amps).all():
            raise InputError(f"noise_sigma {noise_sigma!r} overflows the noisy amplitudes")
    return MeasurementSet(protocol, tuple(amps.tolist()), float(noise_sigma), seed)


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
    factors = {"i": np.eye(2, dtype=complex), **PAULI}
    combos = list(itertools.product("ixyz", repeat=n_spins))[1:]  # all but the identity
    ops = [functools.reduce(np.kron, [factors[c] for c in combo]) for combo in combos]
    return _read_only(np.array(ops))


def reconstruct(measurements: MeasurementSet, system: SpinSystem, reference=None) -> TomographyResult:
    """Least-squares inversion of recorded line amplitudes.

    The protocol's design is factored on its first reconstruction and kept.
    Its rank is checked, so an incomplete protocol fails loudly instead of
    silently projecting.  Records of another spin count, and amplitudes that
    are not finite or whose sum of squares overflows, raise InputError.
    """
    protocol = measurements.protocol
    if protocol.n_spins != system.n_spins:
        raise InputError(f"records are of {protocol.n_spins} spins, the system has {system.n_spins}")
    basis = _basis(system.n_spins)
    u, w, rank, condition_number = protocol.factors
    if rank < len(basis):
        raise ContractError(f"measurement protocol incomplete: design rank {rank} < {len(basis)}")
    amps = np.array(measurements.amplitudes, dtype=complex)
    y = np.concatenate((amps.real, amps.imag))
    # the misfit ||U c - y|| is at most ||y||, so a finite y.y keeps it finite
    with np.errstate(over="ignore"):
        if not np.isfinite(y @ y):
            raise InputError("measured amplitudes must be finite with a finite sum of squares")
    c = u.T @ y
    rho = (w @ c).reshape(system.dim, system.dim)
    misfit = float(np.linalg.norm(u @ c - y))
    err = None if reference is None else max_rel_error(rho, np.asarray(reference, dtype=complex))
    return TomographyResult(
        reconstructed=rho,
        residual_norm=misfit,
        settings_used=len(protocol.settings),
        rank=rank,
        condition_number=condition_number,
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
