import numpy as np
import pytest

from ppsim import core, hogg, prep, presets
from ppsim.errors import ContractError, InputError

from helpers import is_unitary

ALL_PATTERNS = ("V1&V2", "V1&!V2", "!V1&V2", "!V1&!V2")


def pseudo_pure_00():
    rho, _ = prep.prepare_pseudo_pure(presets.get_preset("chloroform"), 1)
    return rho


def test_parse_formula():
    f = hogg.parse_formula("V1&!V2")
    assert f.clauses == ((1, False), (2, True))
    assert hogg.parse_formula(" v1 & V2 ").clauses == ((1, False), (2, False))
    assert hogg.parse_formula("").clauses == ()
    with pytest.raises(InputError):
        hogg.parse_formula("V1|V2")
    with pytest.raises(InputError):
        hogg.parse_formula("V3")
    with pytest.raises(InputError):
        hogg.parse_formula("V1&V1")


def test_conflicts():
    f = hogg.parse_formula("V1&V2")
    assert hogg.conflicts("11", f) == 0
    assert hogg.conflicts("00", f) == 2
    assert hogg.conflicts("01", f) == 1
    assert hogg.conflicts("01", hogg.parse_formula("V1&!V2")) == 2
    assert hogg.conflicts("10", hogg.parse_formula("")) == 0
    with pytest.raises(InputError):
        hogg.conflicts("1", f)


def test_satisfying_assignment():
    assert hogg.satisfying_assignment(hogg.parse_formula("V1&V2")) == "11"
    assert hogg.satisfying_assignment(hogg.parse_formula("!V1&V2")) == "01"
    with pytest.raises(InputError):
        hogg.satisfying_assignment(hogg.parse_formula("V1"))


def test_phase_oracle_diagonals():
    np.testing.assert_allclose(
        np.diagonal(hogg.phase_oracle(hogg.parse_formula("V1&V2"))), [-1, 1j, 1j, 1]
    )
    np.testing.assert_allclose(
        np.diagonal(hogg.phase_oracle(hogg.parse_formula("!V1&!V2"))), [1, 1j, 1j, -1]
    )
    np.testing.assert_allclose(hogg.phase_oracle(hogg.parse_formula("")), np.eye(4))


def test_mixing_operator():
    m = hogg.mixing()
    assert is_unitary(m, tol=1e-12)
    w = hogg.walsh(2)
    np.testing.assert_allclose(w @ w, np.eye(4), atol=1e-12)
    d = np.diag([-1j, 1, 1, 1j])
    np.testing.assert_allclose(m, w @ d @ w, atol=1e-12)


@pytest.mark.parametrize("text", ALL_PATTERNS)
def test_search_unitary_maps_start_to_solution(text):
    formula = hogg.parse_formula(text)
    U = hogg.search_unitary(formula)
    assert is_unitary(U, tol=1e-12)
    amplitude_profile = np.abs(U[:, 0]) ** 2
    solution = core.level_of(hogg.satisfying_assignment(formula))
    assert amplitude_profile[solution - 1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("text", ALL_PATTERNS)
def test_run_concentrates_weight_on_the_solution(text):
    formula = hogg.parse_formula(text)
    rho = pseudo_pure_00()
    rho_final, weights = hogg.hogg_run(rho, formula)
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
    rho_final, _ = hogg.hogg_run(rho, hogg.parse_formula("V1&V2"))
    assert abs(np.trace(rho_final) - np.trace(rho)) < 1e-12
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(rho_final)), np.sort(np.linalg.eigvalsh(rho)), atol=1e-10
    )


def test_run_is_insensitive_to_oracle_global_phase():
    formula = hogg.parse_formula("V1&!V2")
    rho = pseudo_pure_00()
    base, _ = hogg.hogg_run(rho, formula)
    phased = np.exp(1j * 0.8371) * hogg.phase_oracle(formula)
    U = hogg.mixing() @ phased @ hogg.walsh(2)
    np.testing.assert_allclose(core.evolve(rho, U), base, atol=1e-12)


def test_run_preconditions():
    system = presets.get_preset("chloroform")
    with pytest.raises(ContractError):
        hogg.hogg_run(core.thermal_deviation(system), hogg.parse_formula("V1&V2"))
    with pytest.raises(ContractError):
        hogg.hogg_run(np.eye(4, dtype=complex) * 0.2, hogg.parse_formula("V1&V2"))
    rho, _ = prep.prepare_pseudo_pure(system, 4)
    with pytest.raises(ContractError):
        hogg.hogg_run(rho, hogg.parse_formula("V1&V2"))
    with pytest.raises(InputError):
        hogg.hogg_run(pseudo_pure_00(), hogg.parse_formula("V1"))
