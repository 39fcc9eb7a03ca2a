import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ppsim as pp
from ppsim import prep
from ppsim.errors import InputError, NoSolutionError, NotPseudoPureError
from ppsim.prep import CascadeSpec, CascadeStep

HOMO2_ROOT = float(np.degrees(np.sqrt(2) * np.arccos(1 / np.sqrt(3))))

REFERENCE_ANGLES_3SPIN = {
    "homonuclear-3": (182.02, 179.04, 229.38, 193.46, 200.28, 105.75),
    "hetero-3": (201.89, 258.83, 313.40, 364.31, 295.37, 234.18),
}


#: A 3-spin target-1 cascade that is a spanning tree but not a path: level 4
#: has three neighbours.
TREE_3_STEPS = (
    CascadeStep(4, 2),
    CascadeStep(4, 3),
    CascadeStep(4, 8),
    CascadeStep(8, 6),
    CascadeStep(8, 7),
    CascadeStep(6, 5),
)


def cascade_for(system, target):
    """The stock cascade for a target level, or the 3-spin tree for 'tree'."""
    if target == "tree":
        return CascadeSpec(1, TREE_3_STEPS, 3)
    return pp.default_cascade(system.n_spins, target)


def spread_of(residual_vec):
    # populations relative to the reference level, which contributes 0
    values = np.concatenate([[0.0], np.asarray(residual_vec)])
    return float(values.max() - values.min())


# ---------------------------------------------------------------------------
# cascades

@pytest.mark.parametrize(
    "target,steps",
    [
        (1, ((3, 4, 2), (4, 2, 1))),
        (2, ((1, 3, 1), (3, 4, 2))),
        (3, ((4, 2, 1), (2, 1, 2))),
        (4, ((3, 1, 1), (1, 2, 2))),
    ],
)
def test_default_cascade_two_spins(target, steps):
    spec = pp.default_cascade(2, target)
    assert tuple((s.m, s.k, pp.flipped_spin(s.m, s.k, 2)) for s in spec.steps) == steps


def test_default_cascade_three_spins_target_one():
    spec = pp.default_cascade(3, 1)
    assert tuple((s.m, s.k) for s in spec.steps) == ((3, 7), (7, 5), (5, 6), (6, 8), (8, 4), (4, 2))


@pytest.mark.parametrize("n,target", [(3, 5), (4, 7), (5, 32)])
def test_default_cascade_validates_for_any_target(n, target):
    # CascadeSpec checks the spanning tree when it is built
    spec = pp.default_cascade(n, target)
    assert (spec.target, spec.n_spins, len(spec.steps)) == (target, n, 2**n - 2)


def test_default_cascade_range_checks():
    with pytest.raises(InputError):
        pp.default_cascade(2, 5)
    with pytest.raises(InputError):
        pp.default_cascade(1, 1)


def test_cascade_spec_rejects_non_trees():
    # a six-cycle over levels 2..7 of a 3-spin system, leaving level 8 out
    ring = ((2, 4), (4, 3), (3, 7), (7, 5), (5, 6), (6, 2))
    cases = [
        ("not a resolvable line", 1, ((3, 2), (2, 4)), 2),
        ("not a resolvable line", 1, ((1, 4), (4, 2)), 2),
        ("touches the target", 4, ((3, 4), (4, 2)), 2),
        ("closes a cycle", 1, ((3, 4), (4, 3)), 2),
        ("expected 2 steps", 1, ((3, 4),), 2),
        ("out of range", 1, ((3, 4), (4, 6)), 2),
        ("closes a cycle", 1, ring, 3),
        ("out of range", 5, ((3, 4), (4, 2)), 2),
        ("at least two spins", 1, (), 1),
    ]
    for problem, target, steps, n in cases:
        with pytest.raises(InputError, match=problem):
            CascadeSpec(target, tuple(CascadeStep(*s) for s in steps), n)


# ---------------------------------------------------------------------------
# residual

def test_residual_identity_pulse_homonuclear():
    spec = pp.default_cascade(2, 1)
    r = pp.residual((0.0, 0.0), pp.get_preset("homonuclear-2"), spec)
    np.testing.assert_allclose(r, [0.0, -2.0], atol=1e-15)


def test_residual_at_homonuclear_root():
    spec = pp.default_cascade(2, 1)
    r = pp.residual((HOMO2_ROOT, HOMO2_ROOT), pp.get_preset("homonuclear-2"), spec)
    assert np.max(np.abs(r)) < 1e-12


def test_residual_at_tabulated_heteronuclear_angles():
    spec = pp.default_cascade(2, 1)
    r = pp.residual((127.13, 186.01), pp.get_preset("chloroform"), spec)
    assert np.max(np.abs(r)) < 5e-3


def test_residual_input_checks():
    spec = pp.default_cascade(2, 1)
    with pytest.raises(InputError):
        pp.residual((1.0,), pp.get_preset("homonuclear-2"), spec)
    with pytest.raises(InputError):
        pp.residual((1.0, 2.0), pp.get_preset("homonuclear-3"), spec)
    with pytest.raises(InputError):
        pp.residual((float("nan"), 2.0), pp.get_preset("homonuclear-2"), spec)


# ---------------------------------------------------------------------------
# solver

def batched_residual(system, target):
    spec = cascade_for(system, target)
    d_eq = np.real(np.diagonal(pp.thermal_deviation(system)))
    return prep._BatchedResidual(spec, d_eq), spec


@pytest.mark.parametrize(
    "gamma,target",
    [((1.4048, 5.5857), 1), ((1.0, 1.0), 3), ((1.4048, 1.4048, 5.5857), 1),
     ((1.0, 1.0, 1.0), 6), ((1.0, 2.0, 3.0, 4.0), 1), ((1.0, 1.0, 1.0, 1.0), 11),
     ((1.4048, 1.4048, 5.5857), "tree")],
)
def test_batched_jacobian_matches_central_differences(gamma, target):
    fun, spec = batched_residual(pp.SpinSystem(gamma=gamma), target)
    k = len(spec.steps)
    rng = np.random.default_rng(len(gamma) * 10 + spec.target)
    # theta = 0 and equal angles give degenerate eigenvalues
    theta = np.vstack([np.zeros(k), np.full(k, 1.3), rng.uniform(-8.0, 8.0, (4, k))])
    _, J = fun(theta, jacobian=True)
    h = 1e-5
    central = np.stack(
        [(fun(theta + h * e) - fun(theta - h * e)) / (2 * h) for e in np.eye(k)], axis=2
    )
    np.testing.assert_allclose(J, central, rtol=0, atol=1e-7)


@pytest.mark.parametrize("name", ["chloroform", "homonuclear-2", "homonuclear-3", "hetero-3"])
def test_batched_residual_matches_residual(name):
    system = pp.get_preset(name)
    rng = np.random.default_rng(7)
    extra = ["tree"] if system.n_spins == 3 else []
    for target in [*range(1, system.dim + 1), *extra]:
        fun, spec = batched_residual(system, target)
        theta = rng.uniform(-12.0, 12.0, (5, len(spec.steps)))
        want = [pp.residual(np.degrees(t), system, spec) for t in theta]
        np.testing.assert_allclose(fun(theta), want, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([("chloroform", 2), ("homonuclear-2", 4), ("hetero-3", 1), ("homonuclear-3", 5),
                     ("hetero-3", "tree")]),
    st.lists(st.floats(-720.0, 720.0), min_size=6, max_size=6),
    st.lists(st.sampled_from([-1.0, 1.0]), min_size=6, max_size=6),
)
def test_residual_is_invariant_under_angle_sign_flips(case, angles, signs):
    # a cascade is a tree, so a diagonal +-1 similarity flips any angle's sign
    name, target = case
    system = pp.get_preset(name)
    spec = cascade_for(system, target)
    k = len(spec.steps)
    theta = np.array(angles[:k])
    flipped = np.array(signs[:k]) * theta
    np.testing.assert_allclose(
        pp.residual(flipped, system, spec), pp.residual(theta, system, spec), rtol=0, atol=1e-12
    )


def test_newton_block_failures_stay_in_their_own_start():
    fun, _ = batched_residual(pp.get_preset("chloroform"), 1)
    good = np.radians([[120.0, 180.0], [60.0, 240.0]])
    # the Jacobian at theta = 0 is exactly zero; an infinite start has no residual
    x0 = np.vstack([good[0], [0.0, 0.0], good[1], [np.inf, 0.0]])
    x, r, ok = prep._newton_block(fun, x0, 1e-10)
    assert ok.tolist() == [True, False, True, False]
    np.testing.assert_array_equal(x[1], [0.0, 0.0])
    alone = np.array([prep._newton_block(fun, g[None], 1e-10)[0][0] for g in good])
    np.testing.assert_allclose(x[[0, 2]], alone, rtol=0, atol=1e-12)


def test_solver_result_does_not_depend_on_the_block_size(monkeypatch):
    # every start follows its own iteration, whichever starts share its block
    system, spec = pp.get_preset("chloroform"), pp.default_cascade(2, 3)
    default = pp.solve_angles(system, spec)
    monkeypatch.setattr(prep, "NEWTON_BLOCK", 5)
    small = pp.solve_angles(system, spec)
    assert small.converged == default.converged
    np.testing.assert_allclose(small.roots, default.roots, rtol=0, atol=1e-9)


#: roots[0] of the default solve: folded onto |theta|, smallest largest angle.
FIRST_ROOTS = {
    ("chloroform", 1): (127.1329076, 186.0093389),
    ("chloroform", 2): (146.4297642, 119.9678108),
    ("chloroform", 3): (146.4297642, 119.9678108),
    ("chloroform", 4): (186.0093389, 127.1329076),
    ("homonuclear-2", 1): (77.4078425, 77.4078425),
    ("homonuclear-2", 2): (127.2792206, 127.2792206),
    ("homonuclear-2", 3): (127.2792206, 127.2792206),
    ("homonuclear-2", 4): (77.4078425, 77.4078425),
    ("homonuclear-3", 1): (211.9282222, 176.5484085, 228.5522819, 127.3781795, 95.3118972, 107.2473189),
    # the published CCH vector, with its fourth entry read as 364.31
    ("hetero-3", 1): (201.8887011, 258.8275596, 313.4021048, 364.3077460, 295.3639269, 234.1764998),
}


@pytest.mark.parametrize("case", sorted(FIRST_ROOTS))
def test_first_root_is_pinned(case):
    name, target = case
    system = pp.get_preset(name)
    spec = pp.default_cascade(system.n_spins, target)
    first = pp.solve_angles(system, spec).roots[0]
    np.testing.assert_allclose(first, FIRST_ROOTS[case], rtol=0, atol=1e-6)


def test_solver_finds_homonuclear_root():
    result = pp.solve_angles(pp.get_preset("homonuclear-2"), pp.default_cascade(2, 1))
    best = min(result.roots, key=lambda r: max(abs(v - HOMO2_ROOT) for v in r))
    assert max(abs(v - HOMO2_ROOT) for v in best) < 1e-6
    assert result.starts_tried == 25  # the 5x5 grid
    assert len(result.converged) == result.starts_tried


# the pinned first roots, then every 3-spin target with a root from a 2**6 grid
TEMPORAL_CASES = [(name, target, True) for name, target in sorted(FIRST_ROOTS)] + [
    (name, target, False) for name in ("homonuclear-3", "hetero-3") for target in range(1, 9)
]


@pytest.mark.parametrize("case", TEMPORAL_CASES)
def test_signal_equals_temporal_averaging(case):
    # the cascade keeps the target population d_t and the state stays
    # traceless, so the pseudo-pure excess is N/(N-1) d_t, the signal that
    # temporal averaging gives (Knill, Chuang & Laflamme, PRA 57 (1998) 3348)
    name, target, pinned = case
    system = pp.get_preset(name)
    if pinned:
        angles = FIRST_ROOTS[(name, target)]
    else:
        spec = pp.default_cascade(system.n_spins, target)
        angles = pp.solve_angles(system, spec, grid_per_dim=2).roots[0]
    rho, _ = pp.prepare_pseudo_pure(system, target, angles_deg=angles)
    d_t = np.real(pp.thermal_deviation(system)[target - 1, target - 1])
    if d_t == 0:
        with pytest.raises(NotPseudoPureError):
            pp.pure_part(rho)
        return
    part = pp.pure_part(rho)
    assert part.target == target
    assert part.pure_coeff == pytest.approx(system.dim / (system.dim - 1) * d_t, rel=0, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(0.2, 10.0), min_size=2, max_size=2),
    st.lists(st.sampled_from([-1.0, 1.0]), min_size=2, max_size=2),
    st.integers(1, 4),
)
def test_every_root_prepares_a_pseudo_pure_state(magnitudes, signs, target):
    # a zero residual equalizes the non-target populations, so every root the
    # solver reports must pass pure_part with the temporal-averaging signal
    system = pp.SpinSystem(gamma=tuple(g * s for g, s in zip(magnitudes, signs)))
    d = np.real(np.diagonal(pp.thermal_deviation(system)))
    scale = np.max(np.abs(d))
    assume(abs(d[target - 1]) >= 0.1 * scale)
    result = pp.solve_angles(system, pp.default_cascade(2, target))
    for root in result.roots:
        rho, _ = pp.prepare_pseudo_pure(system, target, angles_deg=root)
        part = pp.pure_part(rho)
        assert part.target == target
        assert abs(part.pure_coeff - 4 / 3 * d[target - 1]) <= 1e-9 * scale


def test_solver_finds_heteronuclear_root():
    result = pp.solve_angles(pp.get_preset("chloroform"), pp.default_cascade(2, 1))
    best = min(
        result.roots,
        key=lambda r: max(abs(a - b) for a, b in zip(r, (127.13, 186.01))),
    )
    assert max(abs(a - b) for a, b in zip(best, (127.13, 186.01))) < 0.5


def test_solver_soundness_and_dedup():
    tol = 1e-10
    result = pp.solve_angles(
        pp.get_preset("chloroform"), pp.default_cascade(2, 1), newton_tol=tol
    )
    spec = pp.default_cascade(2, 1)
    for root, norm in zip(result.roots, result.residual_norms):
        assert norm < tol
        r = pp.residual(root, pp.get_preset("chloroform"), spec)
        assert np.max(np.abs(r)) < tol * 10
    for i, a in enumerate(result.roots):
        for b in result.roots[i + 1 :]:
            assert max(abs(x - y) for x, y in zip(a, b)) >= 0.01


def test_solver_orders_in_box_roots_first():
    result = pp.solve_angles(pp.get_preset("homonuclear-2"), pp.default_cascade(2, 1))
    boxed = [all(0 <= v < 360 for v in r) for r in result.roots]
    assert boxed == sorted(boxed, reverse=True)
    assert boxed[0]


def test_solver_reports_failure():
    with pytest.raises(NoSolutionError):
        pp.solve_angles(
            pp.get_preset("homonuclear-2"), pp.default_cascade(2, 1), newton_tol=0.0
        )


@pytest.mark.parametrize("name", ["homonuclear-3", "hetero-3"])
def test_solver_handles_a_tree_that_is_not_a_path(name):
    system = pp.get_preset(name)
    spec = cascade_for(system, "tree")
    result = pp.solve_angles(system, spec, grid_per_dim=2)
    assert result.roots
    for root in result.roots:
        assert np.max(np.abs(pp.residual(root, system, spec))) < 1e-10
    U = pp.preparation_unitary(spec, result.roots[0])
    rho = pp.crush(pp.evolve(pp.thermal_deviation(system), U))
    assert pp.pure_part(rho).target == 1


def test_homonuclear_target_relabeling_preserves_roots():
    # flipping both bits maps the target-1 cascade onto the target-4 one
    # with the step order reversed, so every solved angle vector, read
    # backwards, must also be a root of the relabeled problem
    system = pp.get_preset("homonuclear-2")
    spec4 = pp.default_cascade(2, 4)
    roots1 = pp.solve_angles(system, pp.default_cascade(2, 1)).roots
    for root in roots1:
        r = pp.residual(tuple(reversed(root)), system, spec4)
        assert np.max(np.abs(r)) < 1e-8


# ---------------------------------------------------------------------------
# preparation

def test_prepare_homonuclear_golden():
    rho, solution = pp.prepare_pseudo_pure(pp.get_preset("homonuclear-2"), 1)
    assert solution is not None
    np.testing.assert_allclose(
        np.real(np.diagonal(rho)), [2, -2 / 3, -2 / 3, -2 / 3], atol=1e-6
    )
    assert abs(np.trace(rho)) < 1e-10


def test_prepare_heteronuclear_golden():
    system = pp.get_preset("chloroform")
    rho, _ = pp.prepare_pseudo_pure(system, 1)
    np.testing.assert_allclose(
        np.real(np.diagonal(rho)), [6.9905, -2.3303, -2.3303, -2.3303], atol=1e-3
    )
    part = pp.pure_part(rho)
    assert part.pure_coeff == pytest.approx((4 / 3) * sum(system.gamma), abs=1e-3)


def test_prepare_keeps_target_population_thermal():
    system = pp.get_preset("chloroform")
    d_eq = np.real(np.diagonal(pp.thermal_deviation(system)))
    for target in range(1, 5):
        rho, _ = pp.prepare_pseudo_pure(system, target)
        d = np.real(np.diagonal(rho))
        assert d[target - 1] == pytest.approx(d_eq[target - 1], abs=1e-12)
        part = pp.pure_part(rho)
        assert part.target == target
        rest = np.delete(d, target - 1)
        assert rest.max() - rest.min() < 1e-6


def test_prepare_explicit_angles_skips_solver():
    system = pp.get_preset("chloroform")
    rho, solution = pp.prepare_pseudo_pure(system, 1, angles_deg=(127.13, 186.01))
    assert solution is None
    part = pp.pure_part(rho, tol=5e-3)
    assert part.target == 1
    # deliberately bad angles still produce a state, just not a useful one
    rho, _ = pp.prepare_pseudo_pure(system, 1, angles_deg=(10.0, 20.0))
    with pytest.raises(NotPseudoPureError):
        pp.pure_part(rho)


def test_prepare_homonuclear_odd_parity_targets_vanish():
    # levels 2 and 3 of an equal-gamma pair carry zero thermal population,
    # so equalizing the rest leaves nothing above the uniform background
    system = pp.get_preset("homonuclear-2")
    for target in (2, 3):
        with pytest.raises(NotPseudoPureError):
            pp.prepare_pseudo_pure(system, target)


def test_prepare_heteronuclear_last_level():
    rho, _ = pp.prepare_pseudo_pure(pp.get_preset("chloroform"), 4)
    d = np.real(np.diagonal(rho))
    rest = np.delete(d, 3)
    assert rest.max() - rest.min() < 5e-3
    assert abs(d[3] - rest.mean()) > 1.0


def test_prepare_three_spin_system():
    rho, solution = pp.prepare_pseudo_pure(pp.get_preset("homonuclear-3"), 1)
    d = np.real(np.diagonal(rho))
    np.testing.assert_allclose(d, [3] + [-3 / 7] * 7, atol=1e-8)
    assert all(0 <= v < 360 for v in solution.roots[0])
