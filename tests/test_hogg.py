import numpy as np
import pytest

import ppsim as pp
from ppsim.errors import ContractError, InputError

from helpers import is_unitary

ALL_PATTERNS = ("V1&V2", "V1&!V2", "!V1&V2", "!V1&!V2")


def pseudo_pure_00():
    rho, _ = pp.prepare_pseudo_pure(pp.get_preset("chloroform"), 1)
    return rho


def test_parse_formula():
    f = pp.parse_formula("V1&!V2")
    assert f.clauses == ((1, False), (2, True))
    assert pp.parse_formula(" v1 & V2 ").clauses == ((1, False), (2, False))
    assert pp.parse_formula("").clauses == ()
    with pytest.raises(InputError):
        pp.parse_formula("V1|V2")
    with pytest.raises(InputError):
        pp.parse_formula("V3")
    with pytest.raises(InputError):
        pp.parse_formula("V1&V1")


def test_conflicts():
    f = pp.parse_formula("V1&V2")
    assert pp.conflicts("11", f) == 0
    assert pp.conflicts("00", f) == 2
    assert pp.conflicts("01", f) == 1
    assert pp.conflicts("01", pp.parse_formula("V1&!V2")) == 2
    assert pp.conflicts("10", pp.parse_formula("")) == 0
    with pytest.raises(InputError):
        pp.conflicts("1", f)


def test_satisfying_assignment():
    assert pp.satisfying_assignment(pp.parse_formula("V1&V2")) == "11"
    assert pp.satisfying_assignment(pp.parse_formula("!V1&V2")) == "01"
    with pytest.raises(InputError):
        pp.satisfying_assignment(pp.parse_formula("V1"))


def test_phase_oracle_diagonals():
    np.testing.assert_allclose(
        np.diagonal(pp.phase_oracle(pp.parse_formula("V1&V2"))), [-1, 1j, 1j, 1]
    )
    np.testing.assert_allclose(
        np.diagonal(pp.phase_oracle(pp.parse_formula("!V1&!V2"))), [1, 1j, 1j, -1]
    )
    np.testing.assert_allclose(pp.phase_oracle(pp.parse_formula("")), np.eye(4))


def test_mixing_operator():
    m = pp.mixing()
    assert is_unitary(m, tol=1e-12)
    w = pp.walsh(2)
    np.testing.assert_allclose(w @ w, np.eye(4), atol=1e-12)
    d = np.diag([-1j, 1, 1, 1j])
    np.testing.assert_allclose(m, w @ d @ w, atol=1e-12)


@pytest.mark.parametrize("text", ALL_PATTERNS)
def test_search_unitary_maps_start_to_solution(text):
    formula = pp.parse_formula(text)
    U = pp.search_unitary(formula)
    assert is_unitary(U, tol=1e-12)
    amplitude_profile = np.abs(U[:, 0]) ** 2
    solution = pp.level_of(pp.satisfying_assignment(formula))
    assert amplitude_profile[solution - 1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("text", ALL_PATTERNS)
def test_run_concentrates_weight_on_the_solution(text):
    formula = pp.parse_formula(text)
    rho = pseudo_pure_00()
    rho_final, weights = pp.hogg_run(rho, formula)
    solution = pp.level_of(pp.satisfying_assignment(formula))
    assert weights[solution - 1] == pytest.approx(1.0, abs=1e-10)
    assert np.sum(weights) == pytest.approx(1.0, abs=1e-10)
    # the uniform background never moves
    part = pp.pure_part(rho)
    np.testing.assert_allclose(
        np.real(np.diagonal(rho_final)) - part.uniform_coeff,
        part.pure_coeff * weights,
        atol=1e-10,
    )


def test_run_preserves_trace_and_spectrum():
    rho = pseudo_pure_00()
    rho_final, _ = pp.hogg_run(rho, pp.parse_formula("V1&V2"))
    assert abs(np.trace(rho_final) - np.trace(rho)) < 1e-12
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(rho_final)), np.sort(np.linalg.eigvalsh(rho)), atol=1e-10
    )


def test_run_is_insensitive_to_oracle_global_phase():
    formula = pp.parse_formula("V1&!V2")
    rho = pseudo_pure_00()
    base, _ = pp.hogg_run(rho, formula)
    phased = np.exp(1j * 0.8371) * pp.phase_oracle(formula)
    U = pp.mixing() @ phased @ pp.walsh(2)
    np.testing.assert_allclose(pp.evolve(rho, U), base, atol=1e-12)


def test_run_preconditions():
    system = pp.get_preset("chloroform")
    with pytest.raises(ContractError):
        pp.hogg_run(pp.thermal_deviation(system), pp.parse_formula("V1&V2"))
    with pytest.raises(ContractError):
        pp.hogg_run(np.eye(4, dtype=complex) * 0.2, pp.parse_formula("V1&V2"))
    rho, _ = pp.prepare_pseudo_pure(system, 4)
    with pytest.raises(ContractError):
        pp.hogg_run(rho, pp.parse_formula("V1&V2"))
    with pytest.raises(InputError):
        pp.hogg_run(pseudo_pure_00(), pp.parse_formula("V1"))
