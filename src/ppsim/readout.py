"""Simulated readout: stick spectra, tomography, and noise injection.

Reading pulses are ideal hard rotations, a Kronecker product of one 2x2
rotation per spin.  A line amplitude for the transition
(m, k) is twice the single-quantum coherence rho[k, m] after the pulse;
for a two-spin weakly coupled system each spin shows a doublet at +-J/2
around its carrier, with the +J/2 line belonging to the partner spin in
state 0 (a labeling convention, nothing downstream depends on it).

Every amplitude comes from one forward model, :func:`_line_amplitudes`.
Spectra and measurements apply it to the state; tomography applies it to
the product-operator basis to get a real linear map, under every per-spin
combination of {none, x90, y90} pulses.  Those 3**n settings make the
map's columns orthogonal, so tomography inverts it by back-projection
(Chuang, Gershenfeld, Kubinec & Leung, Proc. R. Soc. Lond. A 454 (1998) 447).

A protocol reads every line of the spins it is built for under each
setting of a list.  A record is a row product, row k-1 of U times rho
dotted with row m-1 of U*, so a protocol holds just those rows, left and
right, of shape (settings, lines, dim).  Each register size's full
tomography protocol, over every spin, is cached as read-only arrays with
its design, built when first reconstructed; a spectrum builds its
one-setting protocol over its own spin's lines on each call.  A
MeasurementSet is a register size and one amplitude per record of that
size's full protocol, the only one tomography records or reconstructs.
"""

import functools
import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# evolve and expm_unitary are not called here, but perfbench/tracing.py patches them by name
from .core import PAULI, SpinSystem, evolve, expm_unitary, max_rel_error, transitions_of_spin  # noqa: F401
from .errors import InputError

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
    reconstructed: np.ndarray
    residual_norm: float
    settings_used: int
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
    """Propagator for simultaneous hard readout pulses, one entry per spin, as a fresh array."""
    setting = tuple(setting)
    if len(setting) != n_spins:
        raise InputError(f"expected {n_spins} pulse entries, got {len(setting)}")
    factors = [np.ones((1, 1), dtype=complex)]
    for pulse in setting:
        if pulse not in READOUT_PULSES:
            raise InputError(f"readout pulse must be one of {READOUT_PULSES}, got {pulse!r}")
        # exp(-i (pi/4) sigma) = (I - i sigma) / sqrt(2) turns the spin 90 degrees about sigma's axis
        factors.append(np.eye(2) if pulse == "none" else (np.eye(2) - 1j * PAULI[pulse[0]]) / math.sqrt(2))
    # spin 1 is the most significant bit, so its factor is the leftmost
    return functools.reduce(np.kron, factors)


class _Protocol:
    """The state-independent part of reading the given spins' lines under each setting.

    Records run over settings, then the given spins in turn, then
    transitions_of_spin order.
    """

    def __init__(self, n_spins: int, settings: tuple, spins):
        self.n_spins, self.settings = n_spins, settings
        self.transitions = tuple(t for spin in spins for t in transitions_of_spin(spin, n_spins))
        # a line reads (U rho U+)[k - 1, m - 1], row k - 1 of U rho dotted with row m - 1 of U*
        m, k = np.array(self.transitions).T
        propagators = np.array([setting_unitary(s, n_spins) for s in settings])
        self.left = _read_only(propagators[:, k - 1])
        self.right = _read_only(propagators[:, m - 1].conj())

    @functools.cached_property
    def design(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The design A, its squared column norms g and the basis.

        Each record's amplitude applied to the basis gives two rows of A, its
        real and imaginary parts.  Only the full protocol's A is read: its
        columns are orthogonal, so lstsq(A, y) = (A.T @ y) / g, and the basis,
        one row per entry of a dim x dim state, turns that into the state.
        """
        basis = np.array(basis_operators(self.n_spins))
        amps = np.array([_line_amplitudes(B, self) for B in basis])
        A = np.concatenate((amps.real, amps.imag), axis=1).T.copy()
        g = np.einsum("rk,rk->k", A, A)
        flat = basis.reshape(len(basis), -1).T.copy()
        return _read_only(A), _read_only(g), _read_only(flat)


@functools.lru_cache(maxsize=MAX_TOMOGRAPHY_SPINS)
def _protocol(n_spins: int) -> _Protocol:
    """The full tomography protocol of a register size, 3**n settings."""
    return _Protocol(n_spins, tuple(tomography_settings(n_spins)), range(1, n_spins + 1))


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Line amplitudes, amplitudes[i] of record i of the full protocol of n_spins, as columns; compared by identity."""

    n_spins: int
    amplitudes: np.ndarray
    noise_sigma: float
    seed: int | None

    def _checked_protocol(self) -> _Protocol:
        """The full protocol of n_spins, once the amplitudes are found to be one per record."""
        protocol = _protocol(self.n_spins)
        n_records = len(protocol.settings) * len(protocol.transitions)
        if np.shape(self.amplitudes) != (n_records,):
            raise InputError(f"expected {n_records} amplitudes, one per record, "
                             f"got {np.size(self.amplitudes)} in shape {np.shape(self.amplitudes)}")
        return protocol

    @property
    def records(self) -> tuple[Measurement, ...]:
        protocol = self._checked_protocol()
        keys = itertools.product(protocol.settings, protocol.transitions)
        return tuple(Measurement(s, t, a) for (s, t), a in zip(keys, self.amplitudes))


def _line_amplitudes(rho: np.ndarray, protocol: _Protocol) -> np.ndarray:
    """Line amplitudes 2 (U rho U+)[k-1, m-1] of one state, one per record of the protocol.

    Each is 2 (left @ rho) . right, row by row.  left @ rho runs in real
    arithmetic, with rho's entries as 2x2 blocks [[re, im], [-im, re]]
    acting on left's interleaved real view, one setting at a time.  Each
    row's bits depend only on that row, whatever the row count, so a
    spectrum's lines equal the tomography records of its setting.
    """
    dim = len(rho)
    # real row 2i holds row i of rho as (re, im) pairs and row 2i + 1 that of 1j rho, (-im, re)
    blocks = np.empty((dim, 2, dim), dtype=complex)
    blocks[:, 0] = rho
    np.multiply(1j, rho, out=blocks[:, 1])
    rows = (protocol.left.view(float) @ blocks.view(float).reshape(2 * dim, 2 * dim)).view(complex)
    return 2 * np.einsum("slb,slb->sl", rows, protocol.right).ravel()


def _state(rho, system: SpinSystem) -> tuple[np.ndarray, float]:
    """rho as a complex array, checked against the system before it is read out, and its largest real or imaginary part."""
    rho = np.ascontiguousarray(rho, dtype=complex)
    if rho.shape != (system.dim, system.dim):
        raise InputError(f"state shape {rho.shape} does not match system dim {system.dim}")
    # every partial sum of an amplitude, products of rho's real and imaginary
    # parts with unit rows, is at most 8 dim**2 times the largest part, so
    # under this bound none overflows; a nan part makes the max nan and fails
    size = np.abs(rho.view(float)).max()
    if not size <= sys.float_info.max / (8 * system.dim**2):
        raise InputError("state has a non-finite entry" if not math.isfinite(size)
                         else f"state has a real or imaginary part of size {size:.3e}, so its line amplitudes would overflow")
    return rho, size


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
    J coupling; otherwise they are None.  A state with a non-finite entry,
    or one so large that an amplitude would overflow, raises InputError.
    """
    n = system.n_spins
    rho, _ = _state(rho, system)
    setting = tuple(pulse if i == spin else "none" for i in range(1, n + 1))
    protocol = _Protocol(n, (setting,), (spin,))
    amps = _line_amplitudes(rho, protocol)
    freqs = _line_freqs(system) or [None] * len(amps)
    lines = tuple(SpectralLine(f, complex(a), t) for t, a, f in zip(protocol.transitions, amps, freqs))
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
    A state with a non-finite entry or too large for its records to stay
    finite, and noise that leaves any amplitude non-finite, raise InputError.
    """
    if not _in_range(noise_sigma, numbers.Real, sys.float_info.max):
        raise InputError(f"noise_sigma must be a finite nonnegative number, got {noise_sigma!r}")
    if seed is not None and not _in_range(seed, (int, np.integer), math.inf):
        raise InputError(f"seed must be a nonnegative integer, got {seed!r}")
    rho, size = _state(rho, system)
    protocol = _protocol(system.n_spins)
    # a setting's records are 2 (U rho U+)[k-1, m-1] over distinct level pairs, so the squares
    # of all S settings' records, which reconstruct sums, total at most 2 S ||rho||_F**2; the
    # bound leaves a factor 2 for round-off.  ||rho||_F <= sqrt(2) dim size, so only a state
    # near the bound has its norm taken, scaled by size so that it cannot overflow
    bound = math.sqrt(sys.float_info.max / (4 * len(protocol.settings)))
    if size > bound / (math.sqrt(2) * len(rho)) and not size * np.linalg.norm(rho / size) <= bound:
        raise InputError(f"state has a Frobenius norm over {bound:.3e}, so its tomography records' sum of squares could overflow")
    amps = _line_amplitudes(rho, protocol)
    if noise_sigma > 0:
        if seed is None:
            seed = int(np.random.SeedSequence().entropy) % 2**32
        # one (real, imag) pair per line, drawn in record order
        z = np.random.default_rng(seed).standard_normal((len(amps), 2))
        with np.errstate(over="ignore", invalid="ignore"):
            amps += noise_sigma * 2 * max(abs(g) for g in system.gamma) * z.view(complex)[:, 0]
        if not np.isfinite(amps).all():
            raise InputError(f"noise_sigma {noise_sigma!r} overflows the noisy amplitudes")
    return MeasurementSet(system.n_spins, _read_only(amps), float(noise_sigma), seed)


def basis_operators(n_spins: int) -> list[np.ndarray]:
    """Traceless Hermitian product-operator basis, 4**n - 1 matrices, n <= 4.

    Kronecker products of {identity, sigma_x, sigma_y, sigma_z} per spin,
    excluding the all-identity term.  Orthogonal under the trace inner
    product with norm 2**n, so real coefficients are unique.  Each call
    builds fresh, writable matrices; a protocol's design reads them once.
    """
    _check_tomography_size(n_spins)
    factors = {"i": np.eye(2, dtype=complex), **PAULI}
    combos = list(itertools.product("ixyz", repeat=n_spins))[1:]  # all but the identity
    return [functools.reduce(np.kron, [factors[c] for c in combo]) for combo in combos]


def reconstruct(measurements: MeasurementSet, system: SpinSystem, reference=None) -> TomographyResult:
    """Least-squares inversion of recorded line amplitudes, by back-projection.

    The full protocol's design is built on first use.  Its 4**n - 1
    columns are orthogonal, with condition number sqrt(3**(n-1) / n).
    Records of another spin count, and amplitudes not one per record, not
    finite or whose sum of squares overflows, raise InputError.
    """
    if measurements.n_spins != system.n_spins:
        raise InputError(f"records are of {measurements.n_spins} spins, the system has {system.n_spins}")
    protocol = measurements._checked_protocol()
    amps = np.asarray(measurements.amplitudes, dtype=complex)
    A, g, basis = protocol.design
    y = np.concatenate((amps.real, amps.imag))
    # A c is y's orthogonal projection, so a finite y.y keeps the misfit ||A c - y|| finite
    with np.errstate(over="ignore"):
        if not np.isfinite(y @ y):
            raise InputError("measured amplitudes must be finite with a finite sum of squares")
    c = (y @ A) / g
    rho = (basis @ c).reshape(system.dim, system.dim)
    # what np.linalg.norm computes for a real vector: its dot and a correctly rounded sqrt
    r = A @ c - y
    misfit = math.sqrt(r @ r)
    err = None if reference is None else max_rel_error(rho, np.asarray(reference, dtype=complex))
    return TomographyResult(
        reconstructed=rho,
        residual_norm=misfit,
        settings_used=len(protocol.settings),
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
            # the ratio first, so an amplitude near the float limit cannot overflow
            h = (panel_height - 50.0) * (abs(line.amplitude) / amp_max)
            parts.append(
                f'<line x1="{x:.2f}" y1="{base}" x2="{x:.2f}" y2="{base - h:.2f}" '
                'stroke="steelblue" stroke-width="2"/>'
            )
            label = f"{line.transition[0]}-{line.transition[1]}"
            parts.append(f'<text x="{x - 10:.2f}" y="{base + 14}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
