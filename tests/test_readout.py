import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ppsim import core, prep, presets, readout
from ppsim.errors import InputError
from ppsim.readout import basis_operators, render_stick_svg, setting_unitary

from helpers import reference_setting_unitary, spin_op


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
    assert core.transitions_of_spin(1, 2) == [(1, 3), (2, 4)]
    assert core.transitions_of_spin(2, 2) == [(1, 2), (3, 4)]
    assert core.transitions_of_spin(1, 3) == [(1, 5), (2, 6), (3, 7), (4, 8)]
    with pytest.raises(InputError):
        core.transitions_of_spin(3, 2)


def test_setting_unitary():
    np.testing.assert_allclose(setting_unitary(("none", "none"), 2), np.eye(4), atol=1e-15)
    single = core.expm_unitary((np.pi / 2) * spin_op(1, "x", 1))
    np.testing.assert_allclose(
        setting_unitary(("x90", "x90"), 2), np.kron(single, single), atol=1e-12
    )
    with pytest.raises(InputError):
        setting_unitary(("x90",), 2)
    with pytest.raises(InputError):
        setting_unitary(("x45", "none"), 2)


def test_setting_unitaries_match_the_dense_generator_reference():
    # every setting of 1-4 spins, and a seeded sample of 5-8-spin settings
    rng = np.random.default_rng(41)
    cases = [(s, n) for n in range(1, 5) for s in itertools.product(readout.READOUT_PULSES, repeat=n)]
    cases += [(tuple(rng.choice(readout.READOUT_PULSES, n)), n) for n in range(5, 9) for _ in range(4)]
    for setting, n in cases:
        U = setting_unitary(setting, n)
        assert np.abs(U - reference_setting_unitary(setting, n)).max() <= 1e-14, setting
        assert np.abs(U @ U.conj().T - np.eye(2**n)).max() <= 1e-14, setting
        # a fresh, writable array on each call
        U[0, 0] = 7
        assert setting_unitary(setting, n)[0, 0] != 7


def test_spectrum_of_prepared_state_has_one_line_per_spin():
    system = presets.get_preset("chloroform")
    rho, _ = prep.prepare_pseudo_pure(system, 1)
    d = np.real(np.diagonal(rho))
    for spin in (1, 2):
        spectrum = readout.readout_spectrum(rho, spin, system, "x90")
        amp = amplitudes(spectrum)
        live = [t for t, a in amp.items() if abs(a) > 1e-9]
        assert len(live) == 1
        m, k = live[0]
        assert 1 in (m, k)  # the surviving line touches the target level
        # a hard x90 turns a population difference into 1j * (d_k - d_m)
        assert amp[(m, k)] == pytest.approx(1j * (d[k - 1] - d[m - 1]), abs=1e-10)


def test_spectrum_amplitude_conventions():
    system = presets.get_preset("chloroform")
    rho = core.thermal_deviation(system)
    d = np.real(np.diagonal(rho))
    for spin, gamma in ((1, 1.4048), (2, 5.5857)):
        for pulse in ("x90", "y90"):
            spectrum = readout.readout_spectrum(rho, spin, system, pulse)
            for line in spectrum.lines:
                m, k = line.transition
                want = 1j * (d[k - 1] - d[m - 1]) if pulse == "x90" else d[m - 1] - d[k - 1]
                assert line.amplitude == pytest.approx(want, abs=1e-12)
                assert abs(line.amplitude) == pytest.approx(2 * gamma, abs=1e-12)


def test_spectrum_frequencies_follow_partner_state():
    system = presets.get_preset("chloroform")
    rho = core.thermal_deviation(system)
    spectrum = readout.readout_spectrum(rho, 1, system, "x90")
    by_transition = {line.transition: line.freq_hz for line in spectrum.lines}
    assert by_transition[(1, 3)] == pytest.approx(214.95 / 2)  # partner H in 0
    assert by_transition[(2, 4)] == pytest.approx(-214.95 / 2)
    # no coupling information means no line positions
    bare = readout.readout_spectrum(
        core.thermal_deviation(presets.get_preset("homonuclear-2")),
        1,
        presets.get_preset("homonuclear-2"),
        "x90",
    )
    assert all(line.freq_hz is None for line in bare.lines)


def test_spectrum_without_pulse_shows_nothing_for_diagonal_states():
    system = presets.get_preset("chloroform")
    rho, _ = prep.prepare_pseudo_pure(system, 1)
    spectrum = readout.readout_spectrum(rho, 1, system, "none")
    assert all(line.amplitude == 0 for line in spectrum.lines)


def test_readout_preserves_total_population():
    system = presets.get_preset("chloroform")
    rng = np.random.default_rng(9)
    rho = random_deviation(rng, 2)
    for pulse in ("none", "x90", "y90"):
        after = core.evolve(rho, setting_unitary((pulse, "none"), 2))
        assert np.sum(np.diagonal(after)) == pytest.approx(np.sum(np.diagonal(rho)), abs=1e-12)


def test_readout_input_checks():
    system = presets.get_preset("chloroform")
    with pytest.raises(InputError):
        readout.readout_spectrum(np.eye(4), 1, system, "x180")
    with pytest.raises(InputError):
        readout.readout_spectrum(np.eye(8), 1, system, "x90")
    with pytest.raises(InputError):
        readout.simulate_measurements(np.eye(8), system)
    rho = core.thermal_deviation(system)
    for sigma in (0.0, 0.1):
        for seed in (-1, 1.5, "7", True, False):
            with pytest.raises(InputError):
                readout.simulate_measurements(rho, system, noise_sigma=sigma, seed=seed)
    for sigma in ("0.1", True, False, 0.1j, None, 10**400):
        with pytest.raises(InputError):
            readout.simulate_measurements(rho, system, noise_sigma=sigma, seed=7)


def test_non_finite_states_are_rejected_before_readout():
    # without the check, a NaN state gives NaN records and noise takes the blame
    system = presets.get_preset("chloroform")
    for bad in (float("nan"), float("inf"), complex(0.0, -float("inf"))):
        rho = core.thermal_deviation(system).astype(complex)
        rho[1, 2] = bad
        with pytest.raises(InputError, match="state has a non-finite entry"):
            readout.simulate_measurements(rho, system)
        with pytest.raises(InputError, match="state has a non-finite entry"):
            readout.simulate_measurements(rho, system, noise_sigma=0.1, seed=1)
        with pytest.raises(InputError, match="state has a non-finite entry"):
            readout.readout_spectrum(rho, 1, system, "x90")


def test_states_whose_amplitudes_would_overflow_are_rejected():
    # finite entries can still overflow the line amplitudes; the bound on the
    # largest real or imaginary part keeps every amplitude finite below it
    for n, system in SYSTEMS_BY_SIZE.items():
        limit = np.finfo(float).max / (8 * system.dim**2)
        for scale in (limit, np.nextafter(limit, np.inf)):
            for part in (1, 1j):
                rho = np.full((system.dim, system.dim), scale * part)
                if scale > limit:
                    with pytest.raises(InputError, match="line amplitudes would overflow"):
                        readout.readout_spectrum(rho, 1, system, "x90")
                    with pytest.raises(InputError, match="line amplitudes would overflow"):
                        readout.simulate_measurements(rho, system)
                    continue
                spectra = [readout.readout_spectrum(rho, spin, system, pulse)
                           for spin in range(1, n + 1) for pulse in readout.READOUT_PULSES]
                assert all(np.isfinite(line.amplitude) for sp in spectra for line in sp.lines)
                svg = render_stick_svg(spectra)
                assert "inf" not in svg and "nan" not in svg
                # its records' sum of squares would overflow, which tomography's own bound catches
                with pytest.raises(InputError, match="state has a Frobenius norm over"):
                    readout.simulate_measurements(rho, system)


def test_states_too_large_for_tomography_are_rejected():
    # under the bound on the Frobenius norm the records' sum of squares, which
    # reconstruct reads, stays finite; just over it the state is rejected
    for n, system in SYSTEMS_BY_SIZE.items():
        bound = math.sqrt(np.finfo(float).max / (4 * 3**n))
        for seed in range(3):
            rho = random_deviation(np.random.default_rng(120 + seed), n)
            rho *= bound * (1 - 1e-12) / np.linalg.norm(rho)
            measured = readout.simulate_measurements(rho, system)
            y = measured.amplitudes.view(float)
            assert np.isfinite(y @ y)
            result = readout.reconstruct(measured, system)
            assert np.isfinite(result.residual_norm)
            assert np.abs(result.reconstructed - rho).max() <= 1e-12 * np.abs(rho).max()
            with pytest.raises(InputError, match="state has a Frobenius norm over"):
                readout.simulate_measurements(rho * (1 + 1e-11), system)


def test_tomography_settings_counts():
    assert len(readout.tomography_settings(1)) == 3
    assert len(readout.tomography_settings(2)) == 9
    assert len(readout.tomography_settings(3)) == 27
    assert len(readout.tomography_settings(4)) == 81
    for bad in (0, 5):
        with pytest.raises(InputError):
            readout.tomography_settings(bad)


# ---------------------------------------------------------------------------
# measurement simulation

def test_noiseless_measurements_match_spectra():
    system = presets.get_preset("chloroform")
    rho, _ = prep.prepare_pseudo_pure(system, 1)
    measured = readout.simulate_measurements(rho, system)
    assert len(measured.records) == 9 * 2 * 2
    assert measured.seed is None
    for rec in measured.records:
        if all(p == "none" for p in rec.setting):
            assert rec.amplitude == 0
    one_spin = [
        r for r in measured.records
        if r.setting == ("x90", "none") and core.flipped_spin(*r.transition, 2) == 1
    ]
    spectrum = readout.readout_spectrum(rho, 1, system, "x90")
    for rec, line in zip(one_spin, spectrum.lines):
        assert rec.transition == line.transition
        assert rec.amplitude == pytest.approx(line.amplitude, abs=1e-12)


def test_spectra_are_slices_of_the_tomography_records():
    # a spectrum reads the same lines under the same setting as tomography does
    for n, system in SYSTEMS_BY_SIZE.items():
        rho = random_deviation(np.random.default_rng(70 + n), n)
        records = {(r.setting, r.transition): r.amplitude
                   for r in readout.simulate_measurements(rho, system).records}
        for spin in range(1, n + 1):
            for pulse in readout.READOUT_PULSES:
                setting = tuple(pulse if i == spin else "none" for i in range(1, n + 1))
                lines = readout.readout_spectrum(rho, spin, system, pulse).lines
                assert [line.transition for line in lines] == core.transitions_of_spin(spin, n)
                for line in lines:
                    assert line.amplitude == records[(setting, line.transition)]


def test_spectra_above_the_tomography_cap_are_conjugated_coherences():
    # no tomography records exist beyond 4 spins to compare with, so each
    # line is held to 2 (U rho U+)[k - 1, m - 1] from a dense conjugation,
    # with U from a dense generator
    for n in range(5, 9):
        system = core.SpinSystem(gamma=tuple(range(1, n + 1)))
        rho = random_deviation(np.random.default_rng(90 + n), n)
        for spin in range(1, n + 1):
            for pulse in readout.READOUT_PULSES:
                setting = tuple(pulse if i == spin else "none" for i in range(1, n + 1))
                want = core.evolve(rho, reference_setting_unitary(setting, n))
                lines = readout.readout_spectrum(rho, spin, system, pulse).lines
                assert [line.transition for line in lines] == core.transitions_of_spin(spin, n)
                for line in lines:
                    m, k = line.transition
                    assert abs(line.amplitude - 2 * want[k - 1, m - 1]) <= 1e-12 * np.abs(rho).max()


def test_one_cached_protocol_per_register_size(monkeypatch):
    # tomography caches one full protocol per register size, and a measurement
    # set's records and its reconstruction read it; a spectrum builds its own
    # one-setting protocol and leaves the cache alone
    cached, read = readout._protocol, []
    monkeypatch.setattr(readout, "_protocol", lambda n: read.append(n) or cached(n))
    for n, system in SYSTEMS_BY_SIZE.items():
        measured = readout.simulate_measurements(core.thermal_deviation(system), system)
        assert measured.n_spins == n
        protocol = cached(n)
        assert len(protocol.settings) == 3**n
        read.clear()
        keys = [(r.setting, r.transition) for r in measured.records]
        assert read == [n]
        assert keys == list(itertools.product(protocol.settings, protocol.transitions))
        read.clear()
        assert readout.reconstruct(measured, system).settings_used == 3**n
        assert read == [n]
    info = cached.cache_info()
    assert (info.maxsize, info.currsize) == (readout.MAX_TOMOGRAPHY_SPINS, 4)
    system = presets.get_preset("hetero-3")
    rho = core.thermal_deviation(system)
    read.clear()
    for spin in (1, 2, 3):
        for pulse in readout.READOUT_PULSES:
            readout.readout_spectrum(rho, spin, system, pulse)
    assert cached.cache_info() == info and not read


def test_measurement_noise_is_reproducible():
    system = presets.get_preset("chloroform")
    rho, _ = prep.prepare_pseudo_pure(system, 1)
    a = readout.simulate_measurements(rho, system, noise_sigma=0.01, seed=31)
    b = readout.simulate_measurements(rho, system, noise_sigma=0.01, seed=31)
    assert a.records == b.records
    c = readout.simulate_measurements(rho, system, noise_sigma=0.01)
    assert c.seed is not None
    d = readout.simulate_measurements(rho, system, noise_sigma=0.01, seed=c.seed)
    assert c.records == d.records
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(InputError):
            readout.simulate_measurements(rho, system, noise_sigma=bad)


def test_noise_that_overflows_an_amplitude_is_rejected():
    system = presets.get_preset("chloroform")
    rho, _ = prep.prepare_pseudo_pure(system, 1)
    for sigma in (1e308, 1.5e307):
        with pytest.raises(InputError, match="overflows"):
            readout.simulate_measurements(rho, system, noise_sigma=sigma, seed=1)
    amps = readout.simulate_measurements(rho, system, noise_sigma=1e300, seed=1).amplitudes
    assert len(amps) == 36 and np.all(np.isfinite(amps))


def test_seeded_noise_is_pinned():
    # exact seeded amplitudes; a change in noise draw order or scaling moves them
    system = presets.get_preset("chloroform")
    rho, _ = prep.prepare_pseudo_pure(system, 1)
    records = readout.simulate_measurements(rho, system, noise_sigma=0.01, seed=31).records
    pinned = {
        0: (-0.044160688153160085 + 0.029482987464647215j),
        1: (0.06782472742022805 - 0.1086038598667247j),
        17: (0.10463692243223713 - 4.658316911604157j),
        35: (4.887079037698047 + 0.049497680886872834j),
    }
    for i, amp in pinned.items():
        assert records[i].amplitude == pytest.approx(amp, rel=1e-12, abs=1e-15)


def test_noise_is_the_seeded_draw_added_to_the_clean_amplitudes():
    # the contract behind the pinned values: one (real, imag) standard normal
    # pair per record, in record order, scaled by noise_sigma times the largest
    # thermal line amplitude 2 max|gamma|, bit for bit
    for n, system in SYSTEMS_BY_SIZE.items():
        rho = random_deviation(np.random.default_rng(200 + n), n)
        clean = readout.simulate_measurements(rho, system).amplitudes
        for sigma, seed in ((0.01, 0), (0.01, 31), (0.3, 2**32 + 5), (1e-9, 77)):
            noisy = readout.simulate_measurements(rho, system, noise_sigma=sigma, seed=seed)
            z = np.random.default_rng(seed).standard_normal((len(clean), 2))
            scale = sigma * 2 * max(abs(g) for g in system.gamma)
            want = clean + scale * (z[:, 0] + 1j * z[:, 1])
            assert noisy.amplitudes.tobytes() == want.tobytes(), (n, sigma, seed)


def test_records_match_an_independent_forward_model():
    # 2 (U rho U+)[k-1, m-1] with U built from spin operators, not the cached stack
    for n, system in SYSTEMS_BY_SIZE.items():
        rho = random_deviation(np.random.default_rng(100 + n), n)
        records = readout.simulate_measurements(rho, system).records
        keys = []
        for setting in itertools.product(("none", "x90", "y90"), repeat=n):
            H = sum(
                ((np.pi / 2) * spin_op(i, pulse[0], n)
                 for i, pulse in enumerate(setting, start=1) if pulse != "none"),
                np.zeros((2**n, 2**n)),
            )
            U = core.expm_unitary(H)
            after = U @ rho @ U.conj().T
            for spin in range(1, n + 1):
                for m, k in core.transitions_of_spin(spin, n):
                    keys.append((setting, (m, k), 2 * after[k - 1, m - 1]))
        assert [(r.setting, r.transition) for r in records] == [key[:2] for key in keys]
        got = np.array([r.amplitude for r in records])
        want = np.array([key[2] for key in keys])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_measurements_are_linear_in_the_state():
    for preset in ("chloroform", "hetero-3"):
        system = presets.get_preset(preset)
        rng = np.random.default_rng(21)
        rho1, rho2 = random_deviation(rng, system.n_spins), random_deviation(rng, system.n_spins)
        mixed = readout.simulate_measurements(0.3 * rho1 + 1.7 * rho2, system)
        m1 = readout.simulate_measurements(rho1, system)
        m2 = readout.simulate_measurements(rho2, system)
        assert len(mixed.records) == 3**system.n_spins * system.n_spins * system.dim // 2
        for rec, r1, r2 in zip(mixed.records, m1.records, m2.records):
            assert rec.amplitude == pytest.approx(
                0.3 * r1.amplitude + 1.7 * r2.amplitude, abs=1e-10
            )


# ---------------------------------------------------------------------------
# reconstruction

def test_round_trip_reconstruction_is_exact():
    system = presets.get_preset("chloroform")
    rng = np.random.default_rng(13)
    for _ in range(25):
        rho = random_deviation(rng, 2)
        measured = readout.simulate_measurements(rho, system)
        result = readout.reconstruct(measured, system, reference=rho)
        assert result.max_rel_error < 1e-10
        assert result.settings_used == 9
        assert result.residual_norm < 1e-9
        assert np.max(np.abs(result.reconstructed - result.reconstructed.conj().T)) < 1e-12


def test_round_trip_single_spin():
    system = core.SpinSystem(gamma=(1.0,))
    rng = np.random.default_rng(17)
    rho = random_deviation(rng, 1)
    measured = readout.simulate_measurements(rho, system)
    result = readout.reconstruct(measured, system, reference=rho)
    assert result.max_rel_error < 1e-12


def test_reconstruct_rejects_amplitudes_without_a_finite_norm():
    # tier-1 turns a numpy overflow warning into a failure, so none may be raised
    system = presets.get_preset("chloroform")
    full = readout.simulate_measurements(core.thermal_deviation(system), system)
    for bad in (float("nan"), complex(0.0, float("inf")), 1e160):
        amplitudes = np.concatenate([[bad], full.amplitudes[1:]])
        with pytest.raises(InputError):
            readout.reconstruct(dataclasses.replace(full, amplitudes=amplitudes), system)
    # squares near the top of the float range still sum to a finite norm
    scaled = tuple(1e150 * a for a in full.amplitudes)
    result = readout.reconstruct(dataclasses.replace(full, amplitudes=scaled), system)
    assert np.isfinite(result.residual_norm)


def test_reconstruct_rejects_amplitudes_that_are_not_one_per_record():
    system = presets.get_preset("chloroform")
    full = readout.simulate_measurements(core.thermal_deviation(system), system)
    assert len(full.amplitudes) == 36
    for bad in (full.amplitudes[:-1], np.asarray(full.amplitudes)[:, None]):
        with pytest.raises(InputError, match="expected 36 amplitudes"):
            readout.reconstruct(dataclasses.replace(full, amplitudes=bad), system)


def test_reconstruct_rejects_incomplete_protocols():
    # a measurement set holds one amplitude per record of its register size's
    # full protocol: populations alone cannot pin down coherences, and records
    # and reconstruct reject them alike, even right after the full protocol has
    # been reconstructed and its design cached; a register past the tomography
    # cap has no full protocol at all
    system = presets.get_preset("chloroform")
    rho, _ = prep.prepare_pseudo_pure(system, 1)
    full = readout.simulate_measurements(rho, system)
    assert readout.reconstruct(full, system, reference=rho).max_rel_error < 1e-10
    five = core.SpinSystem(gamma=(1.0,) * 5)
    cases = (
        # the ("none", "none") setting comes first, with its 4 lines
        (full.amplitudes[:4], 2, system, "expected 36 amplitudes, one per record, got 4"),
        (np.zeros(3**5 * 5 * 2**4, dtype=complex), 5, five, "tomography supports 1 to 4 spins, got 5"),
    )
    for amplitudes, n, system, message in cases:
        measured = readout.MeasurementSet(n, amplitudes, 0.0, None)
        with pytest.raises(InputError, match=re.escape(message)):
            measured.records
        with pytest.raises(InputError, match=re.escape(message)):
            readout.reconstruct(measured, system)


def test_cached_arrays_are_read_only():
    system = presets.get_preset("chloroform")
    rho = random_deviation(np.random.default_rng(37), 2)
    measured = readout.simulate_measurements(rho, system)
    readout.reconstruct(measured, system)
    protocol = readout._protocol(2)
    A, g, basis = protocol.design
    for cached in (protocol.left, protocol.right, A, g, basis, measured.amplitudes):
        with pytest.raises(ValueError):
            cached[0] = 1
    assert readout.reconstruct(measured, system, reference=rho).max_rel_error < 1e-10
    assert readout.simulate_measurements(rho, system).records == measured.records


def test_reconstruct_matches_an_independent_lstsq():
    # the design's column j is the noiseless record of basis operator j
    for system in (presets.get_preset("chloroform"), presets.get_preset("hetero-3")):
        rho = random_deviation(np.random.default_rng(41), system.n_spins)
        measured = readout.simulate_measurements(rho, system, noise_sigma=0.05, seed=3)
        basis = basis_operators(system.n_spins)
        columns = [
            [rec.amplitude for rec in readout.simulate_measurements(B, system).records]
            for B in basis
        ]
        A = np.array(columns).T
        design = np.concatenate((A.real, A.imag))
        amps = np.array([rec.amplitude for rec in measured.records])
        y = np.concatenate((amps.real, amps.imag))
        x, sum_sq, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        result = readout.reconstruct(measured, system)
        assert rank == len(basis)
        np.testing.assert_allclose(
            result.reconstructed, np.tensordot(x, np.array(basis), axes=1), rtol=0, atol=1e-12
        )
        assert result.residual_norm == pytest.approx(np.linalg.norm(design @ x - y), abs=1e-12)
        # and it is lstsq's own misfit, to round-off relative to its size
        assert result.residual_norm == pytest.approx(np.sqrt(sum_sq[0]), rel=1e-12, abs=0)
        # the cached design's squared column norms give its condition number
        s = np.linalg.svd(design, compute_uv=False)
        _, g, _ = readout._protocol(system.n_spins).design
        assert math.sqrt(g.max() / g.min()) == pytest.approx(s[0] / s[-1], rel=1e-12)


def test_reconstruct_rejects_records_of_another_spin_count():
    for made_on, read_as in (("chloroform", "hetero-3"), ("hetero-3", "chloroform")):
        system = presets.get_preset(made_on)
        measured = readout.simulate_measurements(core.thermal_deviation(system), system)
        with pytest.raises(InputError):
            readout.reconstruct(measured, presets.get_preset(read_as))


SYSTEMS_BY_SIZE = {
    1: core.SpinSystem(gamma=(1.0,)),
    2: presets.get_preset("chloroform"),
    3: presets.get_preset("hetero-3"),
    4: core.SpinSystem(gamma=(1.4048, 1.4048, 5.5857, 5.5857)),  # CCHH analogue
}


def test_full_protocols_round_trip_at_full_rank():
    # 1 to 4 spins; the designs' rank and condition number are checked on g below
    rng = np.random.default_rng(29)
    for n, system in SYSTEMS_BY_SIZE.items():
        rho = random_deviation(rng, n)
        result = readout.reconstruct(readout.simulate_measurements(rho, system), system, reference=rho)
        assert result.max_rel_error < 1e-10
        assert result.settings_used == 3**n


def test_reconstructions_are_exactly_hermitian():
    # each entry and its transpose are read off conjugate rows of w, so they
    # come out exact conjugates and the diagonal exactly real
    for n, system in SYSTEMS_BY_SIZE.items():
        rho = random_deviation(np.random.default_rng(80 + n), n)
        for sigma in (0.0, 0.05):
            measured = readout.simulate_measurements(rho, system, noise_sigma=sigma, seed=5)
            r = readout.reconstruct(measured, system).reconstructed
            assert np.array_equal(r, r.conj().T)
            assert not np.diagonal(r).imag.any()


def test_settings_subsets_raise_a_contract_error():
    # back-projection inverts the full protocol only; a subset of its settings,
    # even one that pins down every product operator, is not reconstructed. A
    # measurement set holds no protocol of its own, so the subset's amplitudes
    # break the one-per-record contract and records and reconstruct reject
    # them with InputError
    cases = (
        (1, (("none",), ("x90",))),
        (2, (("none", "none"), ("x90", "x90"), ("x90", "y90"), ("y90", "none"))),
    )
    for n, subset in cases:
        system = SYSTEMS_BY_SIZE[n]
        rho = random_deviation(np.random.default_rng(61 + n), n)
        full = readout.simulate_measurements(rho, system)
        amplitudes = tuple(r.amplitude for s in subset for r in full.records if r.setting == s)
        total, lines = 3**n * n * 2 ** (n - 1), len(subset) * n * 2 ** (n - 1)
        assert len(full.amplitudes) == total and len(amplitudes) == lines
        message = f"expected {total} amplitudes, one per record, got {lines}"
        measured = readout.MeasurementSet(n, amplitudes, 0.0, None)
        with pytest.raises(InputError, match=re.escape(message)):
            measured.records
        with pytest.raises(InputError, match=re.escape(message)):
            readout.reconstruct(measured, system)


def test_full_designs_are_orthogonal_with_closed_form_norms():
    # under {none, x90, y90} a spin's diagonal readout has Gram diag(6, 2, 2, 2)
    # over (I, X, Y, Z) and the read spin's coherence diag(0, 2, 2, 2), so the
    # Pauli product P has g_P = 4 sum_{j: P_j != I} 2 prod_{i != j} (6 if P_i = I else 2)
    for n in SYSTEMS_BY_SIZE:
        A, g, _ = readout._protocol(n).design
        gram = A.T @ A
        off = gram - np.diag(np.diagonal(gram))
        assert np.abs(off).max() <= 1e-14 * np.diagonal(gram).max()
        # in basis_operators order, every Pauli product but the identity
        want = [4 * sum(2 * math.prod(6 if p[i] == "i" else 2 for i in range(n) if i != j)
                        for j in range(n) if p[j] != "i")
                for p in list(itertools.product("ixyz", repeat=n))[1:]]
        np.testing.assert_allclose(np.diagonal(gram), want, rtol=1e-13)
        np.testing.assert_allclose(g, want, rtol=1e-13)
        # so A has full rank 4**n - 1, its columns nonzero and orthogonal, and
        # condition number sqrt(max g / min g) = sqrt(3**(n-1) / n)
        assert len(g) == 4**n - 1 and g.min() > 0
        assert math.sqrt(g.max() / g.min()) == pytest.approx((3 ** (n - 1) / n) ** 0.5, rel=1e-12)


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
    result = readout.reconstruct(readout.simulate_measurements(rho, system), system, reference=rho)
    assert result.max_rel_error < 1e-10
    assert result.settings_used == 3**n


def test_reconstruction_error_grows_with_noise():
    system = presets.get_preset("chloroform")
    rho, _ = prep.prepare_pseudo_pure(system, 1)
    means = []
    for sigma in (0.0, 0.005, 0.01, 0.02):
        errs = []
        for seed in range(25):
            measured = readout.simulate_measurements(rho, system, noise_sigma=sigma, seed=seed)
            errs.append(readout.reconstruct(measured, system, reference=rho).max_rel_error)
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
    system = presets.get_preset("chloroform")
    rho, _ = prep.prepare_pseudo_pure(system, 1)
    spectra = [readout.readout_spectrum(rho, spin, system, "x90") for spin in (1, 2)]
    svg = render_stick_svg(spectra)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("spin") >= 2
    with pytest.raises(InputError):
        render_stick_svg([])
    # without line frequencies the sticks are spaced evenly across the panel
    system = presets.get_preset("hetero-3")
    spectrum = readout.readout_spectrum(core.thermal_deviation(system), 3, system, "x90")
    assert all(line.freq_hz is None for line in spectrum.lines)
    svg = render_stick_svg([spectrum])
    xs = [float(x) for x in re.findall(r'<line x1="([0-9.]+)"[^>]*stroke="steelblue"', svg)]
    np.testing.assert_allclose(xs, [40 + 560 * i / 5 for i in range(1, 5)], atol=0.01)
