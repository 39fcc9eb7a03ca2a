import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ppsim as pp
from ppsim.errors import ContractError, InputError
from ppsim.readout import basis_operators, render_stick_svg, setting_unitary


def random_deviation(rng, n_spins):
    dim = 2**n_spins
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (a + a.conj().T) / 2
    return h - np.trace(h) / dim * np.eye(dim)


def amplitudes(spectrum):
    return {line.transition: line.amplitude for line in spectrum.lines}


# ---------------------------------------------------------------------------
# lines and settings

def test_transitions_of_spin():
    assert pp.transitions_of_spin(1, 2) == [(1, 3), (2, 4)]
    assert pp.transitions_of_spin(2, 2) == [(1, 2), (3, 4)]
    assert pp.transitions_of_spin(1, 3) == [(1, 5), (2, 6), (3, 7), (4, 8)]
    with pytest.raises(InputError):
        pp.transitions_of_spin(3, 2)


def test_setting_unitary():
    np.testing.assert_allclose(setting_unitary(("none", "none"), 2), np.eye(4), atol=1e-15)
    single = pp.expm_unitary((np.pi / 2) * pp.spin_op(1, "x", 1))
    np.testing.assert_allclose(
        setting_unitary(("x90", "x90"), 2), np.kron(single, single), atol=1e-12
    )
    with pytest.raises(InputError):
        setting_unitary(("x90",), 2)
    with pytest.raises(InputError):
        setting_unitary(("x45", "none"), 2)


def test_spectrum_of_prepared_state_has_one_line_per_spin():
    system = pp.get_preset("chloroform")
    rho, _ = pp.prepare_pseudo_pure(system, 1)
    d = np.real(np.diagonal(rho))
    for spin in (1, 2):
        spectrum = pp.readout_spectrum(rho, spin, system, "x90")
        amp = amplitudes(spectrum)
        live = [t for t, a in amp.items() if abs(a) > 1e-9]
        assert len(live) == 1
        m, k = live[0]
        assert 1 in (m, k)  # the surviving line touches the target level
        # a hard x90 turns a population difference into 1j * (d_k - d_m)
        assert amp[(m, k)] == pytest.approx(1j * (d[k - 1] - d[m - 1]), abs=1e-10)


def test_spectrum_amplitude_conventions():
    system = pp.get_preset("chloroform")
    rho = pp.thermal_deviation(system)
    d = np.real(np.diagonal(rho))
    for spin, gamma in ((1, 1.4048), (2, 5.5857)):
        for pulse in ("x90", "y90"):
            spectrum = pp.readout_spectrum(rho, spin, system, pulse)
            for line in spectrum.lines:
                m, k = line.transition
                want = 1j * (d[k - 1] - d[m - 1]) if pulse == "x90" else d[m - 1] - d[k - 1]
                assert line.amplitude == pytest.approx(want, abs=1e-12)
                assert abs(line.amplitude) == pytest.approx(2 * gamma, abs=1e-12)


def test_spectrum_frequencies_follow_partner_state():
    system = pp.get_preset("chloroform")
    rho = pp.thermal_deviation(system)
    spectrum = pp.readout_spectrum(rho, 1, system, "x90")
    by_transition = {line.transition: line.freq_hz for line in spectrum.lines}
    assert by_transition[(1, 3)] == pytest.approx(214.95 / 2)  # partner H in 0
    assert by_transition[(2, 4)] == pytest.approx(-214.95 / 2)
    # no coupling information means no line positions
    bare = pp.readout_spectrum(
        pp.thermal_deviation(pp.get_preset("homonuclear-2")),
        1,
        pp.get_preset("homonuclear-2"),
        "x90",
    )
    assert all(line.freq_hz is None for line in bare.lines)


def test_spectrum_without_pulse_shows_nothing_for_diagonal_states():
    system = pp.get_preset("chloroform")
    rho, _ = pp.prepare_pseudo_pure(system, 1)
    spectrum = pp.readout_spectrum(rho, 1, system, "none")
    assert all(line.amplitude == 0 for line in spectrum.lines)


def test_readout_preserves_total_population():
    system = pp.get_preset("chloroform")
    rng = np.random.default_rng(9)
    rho = random_deviation(rng, 2)
    for pulse in ("none", "x90", "y90"):
        after = pp.evolve(rho, setting_unitary((pulse, "none"), 2))
        assert np.sum(np.diagonal(after)) == pytest.approx(np.sum(np.diagonal(rho)), abs=1e-12)


def test_readout_input_checks():
    system = pp.get_preset("chloroform")
    with pytest.raises(InputError):
        pp.readout_spectrum(np.eye(4), 1, system, "x180")
    with pytest.raises(InputError):
        pp.readout_spectrum(np.eye(8), 1, system, "x90")
    rho = pp.thermal_deviation(system)
    for sigma in (0.0, 0.1):
        for seed in (-1, 1.5, "7"):
            with pytest.raises(InputError):
                pp.simulate_measurements(rho, system, noise_sigma=sigma, seed=seed)


def test_tomography_settings_counts():
    assert len(pp.tomography_settings(1)) == 3
    assert len(pp.tomography_settings(2)) == 9
    assert len(pp.tomography_settings(3)) == 27
    assert len(pp.tomography_settings(4)) == 81
    for bad in (0, 5):
        with pytest.raises(InputError):
            pp.tomography_settings(bad)


# ---------------------------------------------------------------------------
# measurement simulation

def test_noiseless_measurements_match_spectra():
    system = pp.get_preset("chloroform")
    rho, _ = pp.prepare_pseudo_pure(system, 1)
    measured = pp.simulate_measurements(rho, system)
    assert len(measured.records) == 9 * 2 * 2
    assert measured.seed is None
    for rec in measured.records:
        if all(p == "none" for p in rec.setting):
            assert rec.amplitude == 0
    one_spin = [
        r for r in measured.records
        if r.setting == ("x90", "none") and pp.flipped_spin(*r.transition, 2) == 1
    ]
    spectrum = pp.readout_spectrum(rho, 1, system, "x90")
    for rec, line in zip(one_spin, spectrum.lines):
        assert rec.transition == line.transition
        assert rec.amplitude == pytest.approx(line.amplitude, abs=1e-12)


def test_measurement_noise_is_reproducible():
    system = pp.get_preset("chloroform")
    rho, _ = pp.prepare_pseudo_pure(system, 1)
    a = pp.simulate_measurements(rho, system, noise_sigma=0.01, seed=31)
    b = pp.simulate_measurements(rho, system, noise_sigma=0.01, seed=31)
    assert a.records == b.records
    c = pp.simulate_measurements(rho, system, noise_sigma=0.01)
    assert c.seed is not None
    d = pp.simulate_measurements(rho, system, noise_sigma=0.01, seed=c.seed)
    assert c.records == d.records
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(InputError):
            pp.simulate_measurements(rho, system, noise_sigma=bad)


def test_seeded_noise_is_pinned():
    # exact seeded amplitudes; a change in noise draw order or scaling moves them
    system = pp.get_preset("chloroform")
    rho, _ = pp.prepare_pseudo_pure(system, 1)
    records = pp.simulate_measurements(rho, system, noise_sigma=0.01, seed=31).records
    pinned = {
        0: (-0.044160688153160085 + 0.029482987464647215j),
        1: (0.06782472742022805 - 0.1086038598667247j),
        17: (0.10463692243223713 - 4.658316911604157j),
        35: (4.887079037698047 + 0.049497680886872834j),
    }
    for i, amp in pinned.items():
        assert records[i].amplitude == pytest.approx(amp, rel=1e-12, abs=1e-15)


def test_measurements_are_linear_in_the_state():
    for preset in ("chloroform", "hetero-3"):
        system = pp.get_preset(preset)
        rng = np.random.default_rng(21)
        rho1, rho2 = random_deviation(rng, system.n_spins), random_deviation(rng, system.n_spins)
        mixed = pp.simulate_measurements(0.3 * rho1 + 1.7 * rho2, system)
        m1 = pp.simulate_measurements(rho1, system)
        m2 = pp.simulate_measurements(rho2, system)
        assert len(mixed.records) == 3**system.n_spins * system.n_spins * system.dim // 2
        for rec, r1, r2 in zip(mixed.records, m1.records, m2.records):
            assert rec.amplitude == pytest.approx(
                0.3 * r1.amplitude + 1.7 * r2.amplitude, abs=1e-10
            )


# ---------------------------------------------------------------------------
# reconstruction

def test_round_trip_reconstruction_is_exact():
    system = pp.get_preset("chloroform")
    rng = np.random.default_rng(13)
    for _ in range(25):
        rho = random_deviation(rng, 2)
        measured = pp.simulate_measurements(rho, system)
        result = pp.reconstruct(measured, system, reference=rho)
        assert result.max_rel_error < 1e-10
        assert result.settings_used == 9
        assert result.residual_norm < 1e-9
        assert np.max(np.abs(result.reconstructed - result.reconstructed.conj().T)) < 1e-12


def test_round_trip_single_spin():
    system = pp.SpinSystem(gamma=(1.0,))
    rng = np.random.default_rng(17)
    rho = random_deviation(rng, 1)
    measured = pp.simulate_measurements(rho, system)
    result = pp.reconstruct(measured, system, reference=rho)
    assert result.max_rel_error < 1e-12


def test_reconstruct_rejects_incomplete_protocols():
    system = pp.get_preset("chloroform")
    rho, _ = pp.prepare_pseudo_pure(system, 1)
    # populations alone cannot pin down coherences, even right after the
    # full protocol has been reconstructed and its design cached
    full = pp.simulate_measurements(rho, system)
    assert pp.reconstruct(full, system, reference=rho).max_rel_error < 1e-10
    plain = tuple(rec for rec in full.records if rec.setting == ("none", "none"))
    only_plain = pp.MeasurementSet(plain, full.noise_sigma, full.seed)
    with pytest.raises(ContractError):
        pp.reconstruct(only_plain, system)
    with pytest.raises(InputError):
        pp.reconstruct(pp.MeasurementSet((), 0.0, None), system)


def test_cached_arrays_are_read_only():
    system = pp.get_preset("chloroform")
    rho = random_deviation(np.random.default_rng(37), 2)
    measured = pp.simulate_measurements(rho, system)
    pp.reconstruct(measured, system)
    for cached in (basis_operators(2)[14], setting_unitary(("x90", "none"), 2)):
        with pytest.raises(ValueError):
            cached[0, 0] = 7.0
    assert pp.reconstruct(measured, system, reference=rho).max_rel_error < 1e-10


def test_reconstruct_matches_an_independent_lstsq():
    # the design's column j is the noiseless record of basis operator j
    for system in (pp.get_preset("chloroform"), pp.get_preset("hetero-3")):
        rho = random_deviation(np.random.default_rng(41), system.n_spins)
        measured = pp.simulate_measurements(rho, system, noise_sigma=0.05, seed=3)
        basis = basis_operators(system.n_spins)
        columns = [
            [rec.amplitude for rec in pp.simulate_measurements(B, system).records]
            for B in basis
        ]
        A = np.array(columns).T
        design = np.concatenate((A.real, A.imag))
        amps = np.array([rec.amplitude for rec in measured.records])
        y = np.concatenate((amps.real, amps.imag))
        x, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        result = pp.reconstruct(measured, system)
        assert result.rank == rank == len(basis)
        np.testing.assert_allclose(
            result.reconstructed, np.tensordot(x, np.array(basis), axes=1), rtol=0, atol=1e-12
        )
        assert result.residual_norm == pytest.approx(np.linalg.norm(design @ x - y), abs=1e-12)
        s = np.linalg.svd(design, compute_uv=False)
        assert result.condition_number == pytest.approx(s[0] / s[-1], rel=1e-12)


def test_reconstruct_rejects_levels_out_of_range():
    system = pp.get_preset("chloroform")
    rho, _ = pp.prepare_pseudo_pure(system, 1)
    measured = pp.simulate_measurements(rho, system)
    for bad in ((0, 3), (2, 5)):
        records = (measured.records[0]._replace(transition=bad),) + measured.records[1:]
        with pytest.raises(InputError):
            pp.reconstruct(pp.MeasurementSet(records, 0.0, None), system)


SYSTEMS_BY_SIZE = {
    1: pp.SpinSystem(gamma=(1.0,)),
    2: pp.get_preset("chloroform"),
    3: pp.get_preset("hetero-3"),
    4: pp.SpinSystem(gamma=(1.4048, 1.4048, 5.5857, 5.5857)),  # CCHH analogue
}


def test_full_protocols_round_trip_at_full_rank():
    # 1 to 4 spins; the condition numbers are those of the full 3**n protocols
    rng = np.random.default_rng(29)
    for n, cond in ((1, 1.0), (2, 1.5**0.5), (3, 3**0.5), (4, 6.75**0.5)):
        system = SYSTEMS_BY_SIZE[n]
        rho = random_deviation(rng, n)
        result = pp.reconstruct(pp.simulate_measurements(rho, system), system, reference=rho)
        assert result.max_rel_error < 1e-10
        assert result.settings_used == 3**n
        assert result.rank == 4**n - 1
        assert result.condition_number == pytest.approx(cond, rel=1e-9)


@st.composite
def deviations(draw):
    n = draw(st.integers(1, 4))
    dim = 2**n
    parts = st.floats(-1.0, 1.0, allow_subnormal=False)
    a = draw(arrays(float, (dim, dim), elements=parts))
    b = draw(arrays(float, (dim, dim), elements=parts))
    h = (a + 1j * b + (a + 1j * b).conj().T) / 2
    h -= np.trace(h) / dim * np.eye(dim)
    return n, h


@settings(max_examples=40, deadline=None)
@given(deviations())
def test_reconstruct_inverts_simulate(case):
    n, rho = case
    assume(np.max(np.abs(rho)) > 1e-3)  # the relative error needs a nonzero reference
    system = SYSTEMS_BY_SIZE[n]
    result = pp.reconstruct(pp.simulate_measurements(rho, system), system, reference=rho)
    assert result.max_rel_error < 1e-10
    assert result.settings_used == 3**n


def test_reconstruction_error_grows_with_noise():
    system = pp.get_preset("chloroform")
    rho, _ = pp.prepare_pseudo_pure(system, 1)
    means = []
    for sigma in (0.0, 0.005, 0.01, 0.02):
        errs = []
        for seed in range(25):
            measured = pp.simulate_measurements(rho, system, noise_sigma=sigma, seed=seed)
            errs.append(pp.reconstruct(measured, system, reference=rho).max_rel_error)
        means.append(np.mean(errs))
    assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))


def test_basis_operators_are_orthogonal():
    ops = basis_operators(2)
    assert len(ops) == 15
    for i, a in enumerate(ops):
        assert abs(np.trace(a)) < 1e-12
        for j, b in enumerate(ops):
            want = 4.0 if i == j else 0.0
            assert np.trace(a @ b) == pytest.approx(want, abs=1e-12)


def test_render_stick_svg():
    system = pp.get_preset("chloroform")
    rho, _ = pp.prepare_pseudo_pure(system, 1)
    spectra = [pp.readout_spectrum(rho, spin, system, "x90") for spin in (1, 2)]
    svg = render_stick_svg(spectra)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("spin") >= 2
    with pytest.raises(InputError):
        render_stick_svg([])
