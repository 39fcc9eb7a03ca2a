import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppsim import cli, core, dsl, hogg, prep, presets, readout
from ppsim.core import is_hermitian
from ppsim.errors import ContractError, InputError, NotPseudoPureError

from helpers import is_unitary, projector, spin_op, thermal_reference


def random_hermitian(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (a + a.conj().T) / 2
    return h * scale / max(np.linalg.norm(h, 2), 1e-12)


# ---------------------------------------------------------------------------
# bookkeeping

@pytest.mark.parametrize("bits,level", [("00", 1), ("01", 2), ("10", 3), ("11", 4), ("101", 6)])
def test_level_of(bits, level):
    assert core.level_of(bits) == level
    assert core.bits_of(level, len(bits)) == bits


@pytest.mark.parametrize("bad", ["", "2", "0a", "x1"])
def test_level_of_rejects_bad_labels(bad):
    with pytest.raises(InputError):
        core.level_of(bad)


def test_bits_of_range_check():
    with pytest.raises(InputError):
        core.bits_of(5, 2)
    with pytest.raises(InputError):
        core.bits_of(0, 2)


def test_flipped_spin():
    # spin 1 is the most significant bit
    assert [core.flipped_spin(1, k, 3) for k in (5, 3, 2)] == [1, 2, 3]
    assert core.flipped_spin(8, 4, 3) == 1
    for m, k, problem in [(1, 4, "not a resolvable line"), (2, 2, "not a resolvable line"),
                          (0, 1, "out of range"), (4, 8, "out of range")]:
        with pytest.raises(InputError, match=problem):
            core.flipped_spin(m, k, 2)


def test_levels_and_spins_must_be_integers():
    # a float that compares equal to a valid index is still no level or spin;
    # numpy integers are, and give the results Python integers give
    system = presets.get_preset("chloroform")
    for call in (lambda: core.flipped_spin(1.0, 2.0, 2), lambda: core.bits_of(np.float64(2), 2),
                 lambda: core.generator([((1, 2.0), "x", 1.0)], 2),
                 # True == 1, but a flag is no level either
                 lambda: core.flipped_spin(True, 2, 2), lambda: core.bits_of(True, 2),
                 lambda: core.generator([((True, 2), "x", 1.0)], 2)):
        with pytest.raises(InputError, match="level must be an integer, got"):
            call()
    for bad in (1.0, True):
        for call in (lambda: core.transitions_of_spin(bad, 2),
                     lambda: readout.readout_spectrum(core.thermal_deviation(system), bad, system),
                     lambda: prep.default_cascade(2, bad)):
            with pytest.raises(InputError, match=f"(spin index|level) must be an integer, got {bad}"):
                call()
    assert core.flipped_spin(np.int64(1), np.int32(2), 2) == core.flipped_spin(1, 2, 2) == 2
    assert core.transitions_of_spin(np.int64(1), 2) == core.transitions_of_spin(1, 2)
    assert core.bits_of(np.int64(2), 2) == "01"


def test_every_number_a_caller_passes_is_read_as_one():
    # a flag, text, non-finite floats, or an int past the float range or the digits
    # Python writes out: an InputError with a short message at each entry point, never
    # a bare ValueError, OverflowError or TypeError, nor a message quoting the whole value
    system = presets.get_preset("chloroform")
    spec = prep.default_cascade(2, 1)
    rho = core.thermal_deviation(system)
    ints = (True, "x" * 5000, 10**5000, -10**5000)
    reals = (*ints, np.nan, np.inf, -np.inf)
    unbounded = (True, "x" * 5000, -10**5000)  # 10**5000 is a valid variable index or seed
    cases = {
        "transitions_of_spin": (ints, lambda v: core.transitions_of_spin(v, 2)),
        "bits_of": (ints, lambda v: core.bits_of(v, 2)),
        "flipped_spin": (ints, lambda v: core.flipped_spin(1, v, 2)),
        "readout_spectrum spin": (ints, lambda v: readout.readout_spectrum(rho, v, system)),
        "grid_per_dim": (ints, lambda v: prep.solve_angles(system, spec, grid_per_dim=v)),
        "default_cascade target": (ints, lambda v: prep.default_cascade(2, v)),
        # the stock path of 2**n levels was built before the spin count was read
        "default_cascade spin count": (ints, lambda v: prep.default_cascade(v, 1)),
        "cascade spin count": (ints, lambda v: prep.CascadeSpec(1, spec.steps, v)),
        "variable index": (unbounded, lambda v: hogg.OneSatFormula(((v, False),))),
        "seed": (unbounded, lambda v: readout.simulate_measurements(rho, system, seed=v)),
        "newton_tol": (reals, lambda v: prep.solve_angles(system, spec, newton_tol=v)),
        "noise_sigma": (reals, lambda v: readout.simulate_measurements(rho, system, noise_sigma=v)),
        "gamma": (reals, lambda v: core.SpinSystem((v, 1.0))),
        "j_hz": (reals, lambda v: core.SpinSystem((1.0, 1.0), ((0.0, v), (v, 0.0)))),
        "preparation_unitary": (reals, lambda v: prep.preparation_unitary(spec, [v, 1.0])),
        "residual": (reals, lambda v: prep.residual([v, 1.0], system, spec)),
        "prepare_pseudo_pure": (reals, lambda v: prep.prepare_pseudo_pure(system, 1, [v, 1.0])),
        "pure_part tol": (reals, lambda v: core.pure_part(rho, tol=v)),
        "generator angle": (reals, lambda v: core.generator([((1, 2), "x", v)], 1)),
        "hard pulse angle": (reals, lambda v: dsl.compile(dsl.PulseProgram((dsl.HardPulse(1, "x", v),)), system)),
        "sel pulse angle": (reals, lambda v: dsl.compile(dsl.PulseProgram((dsl.Block((dsl.SelPulse(1, 2, "x", v),)),)), system)),
        "crush mode": (ints, lambda v: core.crush(rho, v)),
        "generator axis": (ints, lambda v: core.generator([((1, 2), v, 1.0)], 1)),
        "setting_unitary pulse": (ints, lambda v: readout.setting_unitary((v, "none"), 2)),
        "readout_spectrum pulse": (ints, lambda v: readout.readout_spectrum(rho, 1, system, v)),
    }
    for name, (values, call) in cases.items():
        for value in values:
            with pytest.raises(InputError) as err:
                call(value)
            assert len(str(err.value)) < 200, (name, str(err.value)[:100], len(str(err.value)))


def test_every_state_a_caller_passes_is_read_as_one():
    # a non-finite entry, text, flags, ragged nesting or a matrix of the wrong shape:
    # an InputError with a short message at each entry point, never a NaN result,
    # a bare ValueError or a NotPseudoPureError
    system = presets.get_preset("chloroform")
    rho = core.thermal_deviation(system)
    one_inf = rho.copy()
    one_inf[2, 1] = np.inf
    bad = {"all nan": np.full((4, 4), np.nan), "one inf": one_inf, "text": "abc",
           "bools": np.eye(4, dtype=bool), "ragged": [[1.0, 2.0], [3.0]], "1-D": np.ones(4),
           "3-D": np.ones((2, 4, 4)), "4 x 3": np.ones((4, 3)), "wrong size": np.eye(8)}
    seq = dsl.compile(dsl.parse("hard all x 90\ncrush\n"), system)
    measured = readout.simulate_measurements(rho, system)
    formula = hogg.parse_formula("V1&V2")
    calls = {
        "crush": lambda r: core.crush(r),
        "pure_part": lambda r: core.pure_part(r),
        "pure_part_at_scale": lambda r: prep.pure_part_at_scale(r, system),
        "hogg_run": lambda r: hogg.hogg_run(r, formula, system),
        "dsl.run": lambda r: dsl.run(seq, r),
        "readout_spectrum": lambda r: readout.readout_spectrum(r, 1, system),
        "simulate_measurements": lambda r: readout.simulate_measurements(r, system),
        "reconstruct reference": lambda r: readout.reconstruct(measured, system, reference=r),
    }
    for name, call in calls.items():
        for kind, state in bad.items():
            if kind == "wrong size" and name in ("crush", "pure_part"):
                continue  # they take a square matrix of any size
            with pytest.raises(InputError) as err:
                call(state)
            assert len(str(err.value)) < 200, (name, kind, str(err.value)[:100])
    assert core.checked_state([[1, 2], [3, 4]], 2).dtype == complex
    assert core.checked_state(np.eye(4)[:, ::-1]).flags.c_contiguous


def test_spin_system_validation():
    with pytest.raises(InputError):
        core.SpinSystem(gamma=())
    with pytest.raises(InputError):
        core.SpinSystem(gamma=(1.0, 0.0))
    with pytest.raises(InputError):
        core.SpinSystem(gamma=(1.0, 2.0), j_hz=((0.0, 1.0), (2.0, 0.0)))
    with pytest.raises(InputError):
        core.SpinSystem(gamma=(1.0, 2.0), j_hz=((1.0, 0.0), (0.0, 0.0)))
    for bad in (float("inf"), float("nan")):
        with pytest.raises(InputError):
            core.SpinSystem(gamma=(1.0, 2.0), j_hz=((0.0, bad), (bad, 0.0)))
    with pytest.raises(InputError):
        core.SpinSystem(gamma=(1e308, 1e308))
    # system files must hold JSON numbers (see cli.load_system); Python callers pass any reals
    assert core.SpinSystem((1, np.float32(2))).gamma == (1.0, 2.0)


def test_spin_system_from_dict_ignores_extra_keys(tmp_path):
    # system files are parsed by cli.load_system; keys other than gamma and
    # j_hz are ignored, whatever they hold, and an object without gamma is refused
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"gamma": [1.4048, 5.5857], "j_hz": [[0, 214.95], [214.95, 0]],
                                "labels": ["C"], "larmor_mhz": [float("nan")],
                                "note": "chloroform"}))
    assert cli.load_system(str(path)) == presets.get_preset("chloroform")
    path.write_text(json.dumps({"labels": ["C"]}))
    with pytest.raises(InputError, match="must be an object with a 'gamma' array"):
        cli.load_system(str(path))


def test_get_preset_names_the_known_presets():
    with pytest.raises(InputError, match="unknown preset 'nope'; known presets: chloroform"):
        presets.get_preset("nope")


# ---------------------------------------------------------------------------
# operators

def test_spin_op_is_half_pauli():
    # the reference spin operators of tests/helpers.py
    for axis in "xyz":
        op = spin_op(1, axis, 1)
        np.testing.assert_allclose(op, core.PAULI[axis] / 2)
    # commutator [Ix, Iy] = i Iz on either spin of a pair
    for i in (1, 2):
        ix, iy, iz = (spin_op(i, a, 2) for a in "xyz")
        np.testing.assert_allclose(ix @ iy - iy @ ix, 1j * iz, atol=1e-15)


def test_generator_single_pulse_explicit():
    want = np.zeros((4, 4), dtype=complex)
    want[2, 3] = want[3, 2] = 0.5
    np.testing.assert_allclose(core.generator([((3, 4), "x", 1.0)], 2), want)
    want = np.zeros((4, 4), dtype=complex)
    want[3, 1] = want[1, 3] = 0.5
    np.testing.assert_allclose(core.generator([((4, 2), "x", 1.0)], 2), want)
    for bad in ([((3, 3), "x", 1.0)], [((0, 2), "x", 1.0)], [((1, 5), "x", 1.0)], [((1, 2), "w", 1.0)]):
        with pytest.raises(InputError):
            core.generator(bad, 2)


def test_single_pulses_factor_through_projectors():
    # the (3,4) line is the spin-2 flip inside the spin-1 down manifold,
    # and the (4,2) line is the spin-1 flip inside the spin-2 down manifold
    lhs = projector(1, "-", 2) @ spin_op(2, "x", 2)
    np.testing.assert_allclose(core.generator([((3, 4), "x", 1.0)], 2), lhs, atol=1e-15)
    lhs = spin_op(1, "x", 2) @ projector(2, "-", 2)
    np.testing.assert_allclose(core.generator([((4, 2), "x", 1.0)], 2), lhs, atol=1e-15)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.sampled_from("xyz"),
    st.floats(-1e300, 1e300, allow_nan=False),
)
def test_hard_pulse_is_the_sum_over_a_spins_lines(size_and_spin, axis, theta):
    # the identity every hard pulse rests on: theta * I_axis(spin) is the sum
    # of single-transition pulses over transitions_of_spin, entry for entry
    n, i = size_and_spin
    lines = core.transitions_of_spin(i, n)
    got = core.generator([(t, axis, theta) for t in lines], n)
    assert np.array_equal(got, theta * spin_op(i, axis, n))


def test_generator_rejects_non_finite_angles():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(InputError, match="finite"):
            core.generator([((1, 2), "x", bad)], 1)
        with pytest.raises(InputError, match="finite"):
            core.expm_unitary(np.array([[0.0, bad], [bad, 0.0]]))
    # a huge but finite angle is not mistaken for a non-finite one
    assert np.all(np.isfinite(core.expm_unitary(core.generator([((1, 2), "x", 1e300)], 1))))


def test_generator_rejects_angles_that_sum_past_the_float_range():
    # tier-1 turns a numpy overflow warning into a failure, so none may be raised
    overflowing = (
        ([((1, 2), "z", 1.7e308)] * 3, 1),
        ([((1, 2), "x", 1.7e308)] * 3, 1),
        ([((2, 4), "y", -1.7e308)] * 3, 2),
        # three lines share level 1's diagonal entry
        ([((1, 2), "z", 1.7e308), ((1, 3), "z", 1.7e308), ((1, 5), "z", 1.7e308)], 3),
    )
    for pulses, n in overflowing:
        with pytest.raises(InputError, match="overflow"):
            core.generator(pulses, n)
    # two pulses on one line whose sum stays finite add up as usual
    H = core.generator([((1, 2), "z", 8e307)] * 2, 1)
    assert np.array_equal(H, np.diag([8e307, -8e307]).astype(complex))


def test_thermal_deviation_diagonals():
    np.testing.assert_allclose(
        np.diagonal(core.thermal_deviation(presets.get_preset("homonuclear-2"))),
        [2, 0, 0, -2],
        atol=1e-15,
    )
    g1, g2 = 1.4048, 5.5857
    np.testing.assert_allclose(
        np.diagonal(core.thermal_deviation(presets.get_preset("chloroform"))),
        [g1 + g2, g1 - g2, -g1 + g2, -g1 - g2],
        atol=1e-12,
    )
    assert abs(np.trace(core.thermal_deviation(presets.get_preset("hetero-3")))) < 1e-12
    # the diagonal is summed spin by spin, as the operator sum is, so the bytes agree
    rng = np.random.default_rng(107)
    systems = list(presets.PRESETS.values())
    for n in range(1, 7):
        for scale in (1.0, 1e-150, 6.7e7):
            mixed = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n) * scale
            systems.append(core.SpinSystem(gamma=tuple(mixed)))
    for system in systems:
        want = thermal_reference(system)
        assert core.thermal_deviation(system).tobytes() == want.tobytes(), system.gamma


def test_expm_unitary_is_unitary():
    rng = np.random.default_rng(101)
    for _ in range(50):
        H = random_hermitian(rng, 4, scale=rng.uniform(0.1, 10.0))
        U = core.expm_unitary(H)
        assert is_unitary(U, tol=1e-12)


def test_expm_unitary_single_spin_closed_form():
    beta = 0.7345
    U = core.expm_unitary(beta * spin_op(1, "x", 1))
    want = np.array(
        [
            [np.cos(beta / 2), -1j * np.sin(beta / 2)],
            [-1j * np.sin(beta / 2), np.cos(beta / 2)],
        ]
    )
    np.testing.assert_allclose(U, want, atol=1e-14)


def test_expm_unitary_rejects_non_hermitian():
    with pytest.raises(ContractError):
        core.expm_unitary(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InputError):
        core.expm_unitary(np.zeros((2, 3)))


def test_expm_unitary_of_a_stack_is_each_single_call_bit_for_bit():
    rng = np.random.default_rng(11)
    for dim in (2, 4, 8):
        H = np.array([random_hermitian(rng, dim, scale=3.0) for _ in range(5)])
        U = core.expm_unitary(H)
        assert U.shape == H.shape
        for one, h in zip(U, H):
            assert one.tobytes() == core.expm_unitary(h).tobytes()
        assert core.expm_unitary(H.reshape(5, 1, dim, dim)).tobytes() == U.tobytes()
    # one bad member fails the whole stack, as a call on it alone would
    skew = H.copy()
    skew[3, 0, 1] += 1e-6
    with pytest.raises(ContractError):
        core.expm_unitary(skew)
    broken = H.copy()
    broken[1, 2, 2] = np.nan
    with pytest.raises(InputError):
        core.expm_unitary(broken)
    for shape in ((3, 2, 4), (8,)):
        with pytest.raises(InputError):
            core.expm_unitary(np.zeros(shape))


def test_evolve_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rho = random_hermitian(rng, 4, scale=3.0)
        U = core.expm_unitary(random_hermitian(rng, 4, scale=2.0))
        out = core.evolve(rho, U)
        assert abs(np.trace(out) - np.trace(rho)) < 1e-12
        assert is_hermitian(out, tol=1e-12)
    # a stack of propagators conjugates each state by each propagator
    rhos = np.array([random_hermitian(rng, 4, scale=3.0) for _ in range(2)])
    Us = np.array([core.expm_unitary(random_hermitian(rng, 4, scale=2.0)) for _ in range(3)])
    out = core.evolve(rhos[:, None], Us)
    assert out.shape == (2, 3, 4, 4)
    for i, rho in enumerate(rhos):
        for j, U in enumerate(Us):
            np.testing.assert_array_equal(out[i, j], core.evolve(rho, U))
    for bad in (np.eye(2), np.ones(4), np.ones((3, 4, 2))):
        with pytest.raises(InputError):
            core.evolve(np.eye(4), bad)


def test_two_level_rotation_closed_form():
    # one pulse on a diagonal matrix mixes exactly two populations
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        dim = 2**n
        m, k = sorted(rng.choice(dim, size=2, replace=False) + 1)
        beta = float(rng.uniform(0, 4 * np.pi))
        d = rng.standard_normal(dim)
        rho = np.diag(d).astype(complex)
        U = core.expm_unitary(core.generator([((int(m), int(k)), "x", beta)], n))
        out = np.real(np.diagonal(core.evolve(rho, U)))
        c2, s2 = np.cos(beta / 2) ** 2, np.sin(beta / 2) ** 2
        want = d.copy()
        want[m - 1] = c2 * d[m - 1] + s2 * d[k - 1]
        want[k - 1] = s2 * d[m - 1] + c2 * d[k - 1]
        np.testing.assert_allclose(out, want, atol=1e-12)


def test_crush_modes():
    rng = np.random.default_rng(11)
    rho = random_hermitian(rng, 4, scale=2.0)
    flat = core.crush(rho)
    assert np.count_nonzero(flat - np.diag(np.diagonal(flat))) == 0
    assert np.trace(flat) == pytest.approx(np.real(np.trace(rho)), abs=0)
    np.testing.assert_allclose(core.crush(flat), flat)

    kept = core.crush(rho, "coherence_order")
    np.testing.assert_allclose(core.crush(kept, "coherence_order"), kept)
    for j in range(4):
        for k in range(4):
            # coherence order: the net number of spins flipped from level j to k
            if j.bit_count() == k.bit_count():
                assert kept[j, k] == rho[j, k]
            else:
                assert kept[j, k] == 0
    with pytest.raises(InputError):
        core.crush(rho, "hard")


def test_crush_commutes_with_diagonal_conjugation():
    rng = np.random.default_rng(3)
    rho = random_hermitian(rng, 4, scale=1.5)
    D = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=4)))
    for mode in ("all_off_diagonal", "coherence_order"):
        a = core.crush(core.evolve(rho, D), mode)
        b = core.evolve(core.crush(rho, mode), D)
        np.testing.assert_allclose(a, b, atol=1e-14)


def test_coupled_three_level_spectrum():
    # equal angles on the (3,4) and (4,2) lines couple levels 2, 3 and 4
    # through level 4; the block eigenvalues are 0 and +-beta/sqrt(2)
    beta = 1.2345
    H = core.generator([((3, 4), "x", beta), ((4, 2), "x", beta)], 2)
    eig = np.sort(np.linalg.eigvalsh(H))
    np.testing.assert_allclose(eig, [-beta / np.sqrt(2), 0, 0, beta / np.sqrt(2)], atol=1e-12)
    U = core.expm_unitary(H)
    assert abs(U[3, 3]) ** 2 == pytest.approx(np.cos(beta / np.sqrt(2)) ** 2, abs=1e-12)
    # the root of 3 cos^2(theta) = 1 is where the shared level equalizes
    beta_root = np.sqrt(2) * np.arccos(1 / np.sqrt(3))
    H = core.generator([((3, 4), "x", beta_root), ((4, 2), "x", beta_root)], 2)
    U = core.expm_unitary(H)
    assert abs(U[3, 3]) ** 2 == pytest.approx(1 / 3, abs=1e-14)


# ---------------------------------------------------------------------------
# pseudo-pure decomposition and error metric

def test_pure_part_examples():
    part = core.pure_part(np.diag([2, -2 / 3, -2 / 3, -2 / 3]).astype(complex))
    assert part.target == 1
    assert part.uniform_coeff == pytest.approx(-2 / 3, abs=1e-12)
    assert part.pure_coeff == pytest.approx(8 / 3, abs=1e-12)

    part = core.pure_part(np.diag([6.9905, -2.3303, -2.3303, -2.3303]).astype(complex))
    assert part.target == 1
    assert part.uniform_coeff == pytest.approx(-2.3303, abs=1e-12)
    assert part.pure_coeff == pytest.approx(9.3208, abs=1e-12)


def test_pure_part_distinct_level_anywhere():
    part = core.pure_part(np.diag([0.5, 0.5, -3.0, 0.5]).astype(complex))
    assert part.target == 3
    assert part.pure_coeff == pytest.approx(-3.5, abs=1e-12)


def test_pure_part_rejects_degenerate_and_messy_states():
    with pytest.raises(NotPseudoPureError):
        core.pure_part(np.eye(4, dtype=complex) * 0.7)
    with pytest.raises(NotPseudoPureError):
        core.pure_part(np.diag([2.0, 1.0, -1.0, -2.0]).astype(complex))
    rho = np.diag([2.0, -2 / 3, -2 / 3, -2 / 3]).astype(complex)
    rho[0, 1] = rho[1, 0] = 0.5
    with pytest.raises(NotPseudoPureError):
        core.pure_part(rho)


def test_max_rel_error():
    rng = np.random.default_rng(5)
    b = random_hermitian(rng, 4, scale=2.0)
    assert core.max_rel_error(b, b) == 0.0
    a = b.copy()
    bump = 0.03 * np.max(np.abs(b))
    a[0, 0] += bump
    assert core.max_rel_error(a, b) == pytest.approx(0.03, rel=1e-9)
    with pytest.raises(ContractError):
        core.max_rel_error(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(InputError):
        core.max_rel_error(np.eye(2), np.eye(3))
