import numpy as np
import pytest

import ppsim as pp
from ppsim.core import is_hermitian, is_unitary
from ppsim.errors import ContractError, InputError, NotPseudoPureError


def random_hermitian(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (a + a.conj().T) / 2
    return h * scale / max(np.linalg.norm(h, 2), 1e-12)


# ---------------------------------------------------------------------------
# bookkeeping

@pytest.mark.parametrize("bits,level", [("00", 1), ("01", 2), ("10", 3), ("11", 4), ("101", 6)])
def test_level_of(bits, level):
    assert pp.level_of(bits) == level
    assert pp.bits_of(level, len(bits)) == bits


@pytest.mark.parametrize("bad", ["", "2", "0a", "x1"])
def test_level_of_rejects_bad_labels(bad):
    with pytest.raises(InputError):
        pp.level_of(bad)


def test_bits_of_range_check():
    with pytest.raises(InputError):
        pp.bits_of(5, 2)
    with pytest.raises(InputError):
        pp.bits_of(0, 2)


def test_flipped_spin():
    # spin 1 is the most significant bit
    assert [pp.flipped_spin(1, k, 3) for k in (5, 3, 2)] == [1, 2, 3]
    assert pp.flipped_spin(8, 4, 3) == 1
    for m, k, problem in [(1, 4, "not a resolvable line"), (2, 2, "not a resolvable line"),
                          (0, 1, "out of range"), (4, 8, "out of range")]:
        with pytest.raises(InputError, match=problem):
            pp.flipped_spin(m, k, 2)


def test_spin_system_validation():
    with pytest.raises(InputError):
        pp.SpinSystem(gamma=())
    with pytest.raises(InputError):
        pp.SpinSystem(gamma=(1.0, 0.0))
    with pytest.raises(InputError):
        pp.SpinSystem(gamma=(1.0, 2.0), j_hz=((0.0, 1.0), (2.0, 0.0)))
    with pytest.raises(InputError):
        pp.SpinSystem(gamma=(1.0, 2.0), j_hz=((1.0, 0.0), (0.0, 0.0)))
    for bad in (float("inf"), float("nan")):
        with pytest.raises(InputError):
            pp.SpinSystem(gamma=(1.0, 2.0), j_hz=((0.0, bad), (bad, 0.0)))
    with pytest.raises(InputError):
        pp.SpinSystem(gamma=(1e308, 1e308))
    # files must hold JSON numbers (see from_dict); Python callers pass any reals
    assert pp.SpinSystem((1, np.float32(2))).gamma == (1.0, 2.0)


def test_spin_system_from_dict_ignores_extra_keys():
    data = {"gamma": [1.4048, 5.5857], "j_hz": [[0, 214.95], [214.95, 0]],
            "labels": ["C"], "larmor_mhz": [float("nan")], "note": "chloroform"}
    assert pp.SpinSystem.from_dict(data) == pp.get_preset("chloroform")
    with pytest.raises(InputError):
        pp.SpinSystem.from_dict({"labels": ["C"]})


# ---------------------------------------------------------------------------
# operators

def test_spin_op_is_half_pauli():
    for axis in "xyz":
        op = pp.spin_op(1, axis, 1)
        np.testing.assert_allclose(op, pp.PAULI[axis] / 2)
    # commutator [Ix, Iy] = i Iz on either spin of a pair
    for i in (1, 2):
        ix, iy, iz = (pp.spin_op(i, a, 2) for a in "xyz")
        np.testing.assert_allclose(ix @ iy - iy @ ix, 1j * iz, atol=1e-15)


def test_projector_resolution():
    for i in (1, 2):
        plus = pp.projector(i, "+", 2)
        minus = pp.projector(i, "-", 2)
        np.testing.assert_allclose(plus + minus, np.eye(4), atol=1e-15)
        np.testing.assert_allclose(plus @ plus, plus, atol=1e-15)
    with pytest.raises(InputError):
        pp.projector(1, "up", 2)


def test_transition_op_explicit():
    want = np.zeros((4, 4), dtype=complex)
    want[2, 3] = want[3, 2] = 0.5
    np.testing.assert_allclose(pp.transition_op(3, 4, "x", 2), want)
    want = np.zeros((4, 4), dtype=complex)
    want[3, 1] = want[1, 3] = 0.5
    np.testing.assert_allclose(pp.transition_op(4, 2, "x", 2), want)
    with pytest.raises(InputError):
        pp.transition_op(3, 3, "x", 2)


def test_transition_ops_factor_through_projectors():
    # the (3,4) line is the spin-2 flip inside the spin-1 down manifold,
    # and the (4,2) line is the spin-1 flip inside the spin-2 down manifold
    lhs = pp.projector(1, "-", 2) @ pp.spin_op(2, "x", 2)
    np.testing.assert_allclose(pp.transition_op(3, 4, "x", 2), lhs, atol=1e-15)
    lhs = pp.spin_op(1, "x", 2) @ pp.projector(2, "-", 2)
    np.testing.assert_allclose(pp.transition_op(4, 2, "x", 2), lhs, atol=1e-15)


def test_thermal_deviation_diagonals():
    np.testing.assert_allclose(
        np.diagonal(pp.thermal_deviation(pp.get_preset("homonuclear-2"))),
        [2, 0, 0, -2],
        atol=1e-15,
    )
    g1, g2 = 1.4048, 5.5857
    np.testing.assert_allclose(
        np.diagonal(pp.thermal_deviation(pp.get_preset("chloroform"))),
        [g1 + g2, g1 - g2, -g1 + g2, -g1 - g2],
        atol=1e-12,
    )
    assert abs(np.trace(pp.thermal_deviation(pp.get_preset("hetero-3")))) < 1e-12


def test_expm_unitary_is_unitary():
    rng = np.random.default_rng(101)
    for _ in range(50):
        H = random_hermitian(rng, 4, scale=rng.uniform(0.1, 10.0))
        U = pp.expm_unitary(H)
        assert is_unitary(U, tol=1e-12)


def test_expm_unitary_single_spin_closed_form():
    beta = 0.7345
    U = pp.expm_unitary(beta * pp.spin_op(1, "x", 1))
    want = np.array(
        [
            [np.cos(beta / 2), -1j * np.sin(beta / 2)],
            [-1j * np.sin(beta / 2), np.cos(beta / 2)],
        ]
    )
    np.testing.assert_allclose(U, want, atol=1e-14)


def test_expm_unitary_rejects_non_hermitian():
    with pytest.raises(ContractError):
        pp.expm_unitary(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InputError):
        pp.expm_unitary(np.zeros((2, 3)))


def test_evolve_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rho = random_hermitian(rng, 4, scale=3.0)
        U = pp.expm_unitary(random_hermitian(rng, 4, scale=2.0))
        out = pp.evolve(rho, U)
        assert abs(np.trace(out) - np.trace(rho)) < 1e-12
        assert is_hermitian(out, tol=1e-12)
    with pytest.raises(InputError):
        pp.evolve(np.eye(4), np.eye(2))


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
        U = pp.expm_unitary(beta * pp.transition_op(int(m), int(k), "x", n))
        out = np.real(np.diagonal(pp.evolve(rho, U)))
        c2, s2 = np.cos(beta / 2) ** 2, np.sin(beta / 2) ** 2
        want = d.copy()
        want[m - 1] = c2 * d[m - 1] + s2 * d[k - 1]
        want[k - 1] = s2 * d[m - 1] + c2 * d[k - 1]
        np.testing.assert_allclose(out, want, atol=1e-12)


def test_coherence_order():
    assert pp.coherence_order(1, 4, 2) == 2
    assert pp.coherence_order(2, 3, 2) == 0
    for j in range(1, 5):
        for k in range(1, 5):
            assert pp.coherence_order(j, k, 2) == -pp.coherence_order(k, j, 2)


def test_crush_modes():
    rng = np.random.default_rng(11)
    rho = random_hermitian(rng, 4, scale=2.0)
    flat = pp.crush(rho)
    assert np.count_nonzero(flat - np.diag(np.diagonal(flat))) == 0
    assert np.trace(flat) == pytest.approx(np.real(np.trace(rho)), abs=0)
    np.testing.assert_allclose(pp.crush(flat), flat)

    kept = pp.crush(rho, "coherence_order")
    np.testing.assert_allclose(pp.crush(kept, "coherence_order"), kept)
    for j in range(4):
        for k in range(4):
            order = pp.coherence_order(j + 1, k + 1, 2)
            if order == 0:
                assert kept[j, k] == rho[j, k]
            else:
                assert kept[j, k] == 0
    with pytest.raises(InputError):
        pp.crush(rho, "hard")


def test_crush_commutes_with_diagonal_conjugation():
    rng = np.random.default_rng(3)
    rho = random_hermitian(rng, 4, scale=1.5)
    D = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=4)))
    for mode in ("all_off_diagonal", "coherence_order"):
        a = pp.crush(pp.evolve(rho, D), mode)
        b = pp.evolve(pp.crush(rho, mode), D)
        np.testing.assert_allclose(a, b, atol=1e-14)


def test_coupled_three_level_spectrum():
    # equal angles on the (3,4) and (4,2) lines couple levels 2, 3 and 4
    # through level 4; the block eigenvalues are 0 and +-beta/sqrt(2)
    beta = 1.2345
    H = beta * (pp.transition_op(3, 4, "x", 2) + pp.transition_op(4, 2, "x", 2))
    eig = np.sort(np.linalg.eigvalsh(H))
    np.testing.assert_allclose(eig, [-beta / np.sqrt(2), 0, 0, beta / np.sqrt(2)], atol=1e-12)
    U = pp.expm_unitary(H)
    assert abs(U[3, 3]) ** 2 == pytest.approx(np.cos(beta / np.sqrt(2)) ** 2, abs=1e-12)
    # the root of 3 cos^2(theta) = 1 is where the shared level equalizes
    beta_root = np.sqrt(2) * np.arccos(1 / np.sqrt(3))
    H = beta_root * (pp.transition_op(3, 4, "x", 2) + pp.transition_op(4, 2, "x", 2))
    U = pp.expm_unitary(H)
    assert abs(U[3, 3]) ** 2 == pytest.approx(1 / 3, abs=1e-14)


# ---------------------------------------------------------------------------
# pseudo-pure decomposition and error metric

def test_pure_part_examples():
    part = pp.pure_part(np.diag([2, -2 / 3, -2 / 3, -2 / 3]).astype(complex))
    assert part.target == 1
    assert part.uniform_coeff == pytest.approx(-2 / 3, abs=1e-12)
    assert part.pure_coeff == pytest.approx(8 / 3, abs=1e-12)

    part = pp.pure_part(np.diag([6.9905, -2.3303, -2.3303, -2.3303]).astype(complex))
    assert part.target == 1
    assert part.uniform_coeff == pytest.approx(-2.3303, abs=1e-12)
    assert part.pure_coeff == pytest.approx(9.3208, abs=1e-12)


def test_pure_part_distinct_level_anywhere():
    part = pp.pure_part(np.diag([0.5, 0.5, -3.0, 0.5]).astype(complex))
    assert part.target == 3
    assert part.pure_coeff == pytest.approx(-3.5, abs=1e-12)


def test_pure_part_rejects_degenerate_and_messy_states():
    with pytest.raises(NotPseudoPureError):
        pp.pure_part(np.eye(4, dtype=complex) * 0.7)
    with pytest.raises(NotPseudoPureError):
        pp.pure_part(np.diag([2.0, 1.0, -1.0, -2.0]).astype(complex))
    rho = np.diag([2.0, -2 / 3, -2 / 3, -2 / 3]).astype(complex)
    rho[0, 1] = rho[1, 0] = 0.5
    with pytest.raises(NotPseudoPureError):
        pp.pure_part(rho)


def test_max_rel_error():
    rng = np.random.default_rng(5)
    b = random_hermitian(rng, 4, scale=2.0)
    assert pp.max_rel_error(b, b) == 0.0
    a = b.copy()
    bump = 0.03 * np.max(np.abs(b))
    a[0, 0] += bump
    assert pp.max_rel_error(a, b) == pytest.approx(0.03, rel=1e-9)
    with pytest.raises(ContractError):
        pp.max_rel_error(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(InputError):
        pp.max_rel_error(np.eye(2), np.eye(3))
