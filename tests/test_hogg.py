import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppsim import core, dsl, hogg, prep, presets, readout
from ppsim.errors import ContractError, InputError

from helpers import conflicts, is_unitary, mixing, phase_oracle, search_unitary, walsh

ALL_PATTERNS = ("V1&V2", "V1&!V2", "!V1&V2", "!V1&!V2")


def pseudo_pure_00():
    rho, _ = prep.prepare_pseudo_pure(presets.get_preset("chloroform"), 1)
    return rho


@pytest.fixture(scope="module")
def hetero3_000():
    system = presets.get_preset("hetero-3")
    rho, _ = prep.prepare_pseudo_pure(system, 1)
    return system, rho


def formula_of(signs) -> hogg.OneSatFormula:
    """V1..Vn with the clauses negated where signs is True."""
    return hogg.OneSatFormula(tuple((var, neg) for var, neg in enumerate(signs, start=1)))


def program_unitary(formula: hogg.OneSatFormula, n_spins: int) -> np.ndarray:
    """Product of the compiled search program's unitaries, first statement rightmost."""
    seq = dsl.compile(hogg.search_program(formula, n_spins), core.SpinSystem((1.0,) * n_spins))
    U = np.eye(2**n_spins, dtype=complex)
    for event in seq.events:
        U = event @ U
    return U


def test_parse_formula():
    f = hogg.parse_formula("V1&!V2")
    assert f.clauses == ((1, False), (2, True))
    assert hogg.parse_formula(" v1 & V2 ").clauses == ((1, False), (2, False))
    assert hogg.parse_formula("").clauses == ()
    # the variable count is the system's business, not the parser's
    assert hogg.parse_formula("V3").clauses == ((3, False),)
    with pytest.raises(InputError):
        hogg.parse_formula("V1|V2")
    with pytest.raises(InputError):
        hogg.parse_formula("V0")
    with pytest.raises(InputError):
        hogg.parse_formula("V1&V1")
    with pytest.raises(InputError):
        hogg.OneSatFormula(clauses=((1, 0),))


def test_formula_messages_cut_long_text():
    # an index at Python's 4300-digit limit, or a long bad literal, is quoted by its first 32 characters
    cases = (
        ("V1&V1", "variable V1 appears in more than one clause"),
        (f"V{'1' * 4300}&V{'1' * 4300}",
         f"variable V{'1' * 32}... (4300 characters) appears in more than one clause"),
        ("V1|V2", "bad literal 'V1|V2'; expected V<k> or !V<k>"),
        ("x" * 100, f"bad literal '{'x' * 32}'... (100 characters); expected V<k> or !V<k>"),
    )
    for text, message in cases:
        with pytest.raises(InputError) as err:
            hogg.parse_formula(text)
        assert str(err.value) == message


@settings(max_examples=300, deadline=None)
@given(st.text() | st.from_regex(r"!?[Vv][0-9]+(&!?[Vv][0-9]+)*", fullmatch=True))
@example("V" + "1" * 5000)
@example("V1&!V" + "2" * 5000)
def test_parse_formula_reads_a_formula_or_raises_input_error(text):
    # an index past Python's limit on int digits is an InputError, not a ValueError
    try:
        formula = hogg.parse_formula(text)
    except InputError:
        return
    assert isinstance(formula, hogg.OneSatFormula)


def test_conflicts():
    clauses = hogg.parse_formula("V1&V2").clauses
    assert conflicts("11", clauses) == 0
    assert conflicts("00", clauses) == 2
    assert conflicts("01", clauses) == 1
    assert conflicts("01", hogg.parse_formula("V1&!V2").clauses) == 2
    assert conflicts("10", ()) == 0


def test_satisfying_assignment():
    assert hogg.satisfying_assignment(hogg.parse_formula("V1&V2")) == "11"
    assert hogg.satisfying_assignment(hogg.parse_formula("!V1&V2")) == "01"
    assert hogg.satisfying_assignment(hogg.parse_formula("V2&!V1")) == "01"
    assert hogg.satisfying_assignment(hogg.parse_formula("!V1")) == "0"
    assert hogg.satisfying_assignment(hogg.parse_formula("V1&!V2&V3")) == "101"
    for text in ("", "V2", "V1&V3"):
        with pytest.raises(InputError):
            hogg.satisfying_assignment(hogg.parse_formula(text))


def test_search_program_statements():
    program = hogg.search_program(hogg.parse_formula("V1&!V2"), 2)
    assert dsl.pretty(program) == (
        "hard all y 90\nhard all x 180\nhard 1 z -90\nhard 2 z 90\nhard all x 90\n"
    )
    assert dsl.parse(dsl.pretty(program)) == program
    with pytest.raises(InputError, match="fixes 2 variables but the system has 3"):
        hogg.search_program(hogg.parse_formula("V1&V2"), 3)


def test_phase_oracle_diagonals():
    np.testing.assert_allclose(
        np.diagonal(phase_oracle(hogg.parse_formula("V1&V2").clauses, 2)), [-1, 1j, 1j, 1]
    )
    np.testing.assert_allclose(
        np.diagonal(phase_oracle(hogg.parse_formula("!V1&!V2").clauses, 2)), [1, 1j, 1j, -1]
    )
    np.testing.assert_allclose(phase_oracle((), 2), np.eye(4))


def test_mixing_operator():
    m = mixing(2)
    assert is_unitary(m, tol=1e-12)
    w = walsh(2)
    np.testing.assert_allclose(w @ w, np.eye(4), atol=1e-12)
    d = np.diag([-1j, 1, 1, 1j])
    np.testing.assert_allclose(m, w @ d @ w, atol=1e-12)


@pytest.mark.parametrize("text", ALL_PATTERNS)
def test_search_unitary_maps_start_to_solution(text):
    formula = hogg.parse_formula(text)
    U = search_unitary(formula.clauses, 2)
    assert is_unitary(U, tol=1e-12)
    amplitude_profile = np.abs(U[:, 0]) ** 2
    solution = core.level_of(hogg.satisfying_assignment(formula))
    assert amplitude_profile[solution - 1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_program_is_the_reference_circuit_up_to_phase(n, data):
    # every sign pattern, with the clauses listed in a drawn order
    order = data.draw(st.permutations(range(n)))
    for signs in itertools.product((False, True), repeat=n):
        formula = formula_of(signs)
        shuffled = hogg.OneSatFormula(tuple(formula.clauses[i] for i in order))
        U = program_unitary(shuffled, n)
        ref = search_unitary(formula.clauses, n)
        phase = np.vdot(ref, U) / 2**n
        assert abs(abs(phase) - 1) < 1e-12
        assert np.max(np.abs(U - phase * ref)) < 1e-12
        answer = core.level_of(hogg.satisfying_assignment(formula))
        assert abs(abs(U[answer - 1, 0]) - 1) < 1e-12


@pytest.mark.parametrize("text", ALL_PATTERNS)
def test_run_concentrates_weight_on_the_solution(text):
    formula = hogg.parse_formula(text)
    rho = pseudo_pure_00()
    rho_final, weights = hogg.hogg_run(rho, formula, presets.get_preset("chloroform"))
    solution = core.level_of(hogg.satisfying_assignment(formula))
    assert weights[solution - 1] == pytest.approx(1.0, abs=1e-10)
    assert np.sum(weights) == pytest.approx(1.0, abs=1e-10)
    # the uniform background never moves
    part = core.pure_part(rho)
    np.testing.assert_allclose(
        np.real(np.diagonal(rho_final)) - part.uniform_coeff,
        part.pure_coeff * weights,
        atol=1e-10,
    )


def test_run_preserves_trace_and_spectrum():
    rho = pseudo_pure_00()
    system = presets.get_preset("chloroform")
    rho_final, _ = hogg.hogg_run(rho, hogg.parse_formula("V1&V2"), system)
    assert abs(np.trace(rho_final) - np.trace(rho)) < 1e-12
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(rho_final)), np.sort(np.linalg.eigvalsh(rho)), atol=1e-10
    )


def test_run_is_insensitive_to_oracle_global_phase():
    # the program matches the reference circuit only up to phases per factor
    formula = hogg.parse_formula("V1&!V2")
    rho = pseudo_pure_00()
    base, _ = hogg.hogg_run(rho, formula, presets.get_preset("chloroform"))
    phased = np.exp(1j * 0.8371) * phase_oracle(formula.clauses, 2)
    U = mixing(2) @ phased @ walsh(2)
    np.testing.assert_allclose(core.evolve(rho, U), base, atol=1e-12)


def test_run_preconditions():
    system = presets.get_preset("chloroform")
    formula = hogg.parse_formula("V1&V2")
    with pytest.raises(ContractError):
        hogg.hogg_run(core.thermal_deviation(system), formula, system)
    with pytest.raises(ContractError):
        hogg.hogg_run(np.eye(4, dtype=complex) * 0.2, formula, system)
    rho, _ = prep.prepare_pseudo_pure(system, 4)
    with pytest.raises(ContractError):
        hogg.hogg_run(rho, formula, system)
    for text in ("V1", "V1&V3", "V1&V2&V3"):
        with pytest.raises(InputError):
            hogg.hogg_run(pseudo_pure_00(), hogg.parse_formula(text), system)


@pytest.mark.parametrize("signs", list(itertools.product((False, True), repeat=3)))
def test_spectra_read_the_answer(hetero3_000, signs):
    """Each spin's x90 spectrum shows one line: where it sits and its sign spell the answer."""
    system, rho = hetero3_000
    formula = formula_of(signs)
    pure = core.pure_part(rho).pure_coeff
    rho_final, weights = hogg.hogg_run(rho, formula, system)
    answer = core.bits_of(int(np.argmax(weights)) + 1, 3)
    assert answer == hogg.satisfying_assignment(formula)
    for spin in range(1, 4):
        lines = readout.readout_spectrum(rho_final, spin, system, "x90").lines
        strong = [ln for ln in lines if abs(ln.amplitude) > 1e-9 * pure]
        assert len(strong) == 1
        (m, k), amplitude = strong[0].transition, strong[0].amplitude
        assert abs(amplitude) == pytest.approx(pure, abs=1e-9)
        other = [i for i in range(3) if i != spin - 1]
        assert [core.bits_of(m, 3)[i] for i in other] == [answer[i] for i in other]
        # the line's sign says which of its two levels holds the population
        read = core.bits_of(k if amplitude.imag > 0 else m, 3)
        assert read == answer
