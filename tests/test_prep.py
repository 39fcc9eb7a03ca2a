import functools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ppsim import core, prep, presets
from ppsim.errors import InputError, NoSolutionError, NotPseudoPureError
from ppsim.prep import CascadeSpec, CascadeStep

from helpers import dense_residual, mask_newton_block

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
    return prep.default_cascade(system.n_spins, target)


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
    spec = prep.default_cascade(2, target)
    assert tuple((s.m, s.k, core.flipped_spin(s.m, s.k, 2)) for s in spec.steps) == steps


def test_default_cascade_three_spins_target_one():
    spec = prep.default_cascade(3, 1)
    assert tuple((s.m, s.k) for s in spec.steps) == ((3, 7), (7, 5), (5, 6), (6, 8), (8, 4), (4, 2))


@pytest.mark.parametrize("n,target", [(3, 5), (4, 7), (5, 32)])
def test_default_cascade_validates_for_any_target(n, target):
    # CascadeSpec checks the spanning tree when it is built
    spec = prep.default_cascade(n, target)
    assert (spec.target, spec.n_spins, len(spec.steps)) == (target, n, 2**n - 2)


def test_default_cascade_range_checks():
    with pytest.raises(InputError):
        prep.default_cascade(2, 5)
    with pytest.raises(InputError):
        prep.default_cascade(1, 1)


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
    spec = prep.default_cascade(2, 1)
    r = prep.residual((0.0, 0.0), presets.get_preset("homonuclear-2"), spec)
    np.testing.assert_allclose(r, [0.0, -2.0], atol=1e-15)


def test_residual_at_homonuclear_root():
    spec = prep.default_cascade(2, 1)
    r = prep.residual((HOMO2_ROOT, HOMO2_ROOT), presets.get_preset("homonuclear-2"), spec)
    assert np.max(np.abs(r)) < 1e-12


def test_residual_at_tabulated_heteronuclear_angles():
    spec = prep.default_cascade(2, 1)
    r = prep.residual((127.13, 186.01), presets.get_preset("chloroform"), spec)
    assert np.max(np.abs(r)) < 5e-3


def test_residual_input_checks():
    spec = prep.default_cascade(2, 1)
    with pytest.raises(InputError):
        prep.residual((1.0,), presets.get_preset("homonuclear-2"), spec)
    with pytest.raises(InputError):
        prep.residual((1.0, 2.0), presets.get_preset("homonuclear-3"), spec)
    with pytest.raises(InputError):
        prep.residual((float("nan"), 2.0), presets.get_preset("homonuclear-2"), spec)
    with pytest.raises(InputError):
        prep.solve_angles(presets.get_preset("homonuclear-3"), spec)


# ---------------------------------------------------------------------------
# solver

def batched_residual(system, target):
    spec = cascade_for(system, target)
    d_eq = np.real(np.diagonal(core.thermal_deviation(system)))
    return prep._BatchedResidual(spec, d_eq), spec


@pytest.mark.parametrize(
    "gamma,target",
    [((1.4048, 5.5857), 1), ((1.0, 1.0), 3), ((1.4048, 1.4048, 5.5857), 1),
     ((1.0, 1.0, 1.0), 6), ((1.0, 2.0, 3.0, 4.0), 1), ((1.0, 1.0, 1.0, 1.0), 11),
     ((1.4048, 1.4048, 5.5857), "tree")],
)
def test_batched_jacobian_matches_central_differences(gamma, target):
    fun, spec = batched_residual(core.SpinSystem(gamma=gamma), target)
    k = len(spec.steps)
    rng = np.random.default_rng(len(gamma) * 10 + spec.target)
    # theta = 0 and equal angles give degenerate eigenvalues
    theta = np.vstack([np.zeros(k), np.full(k, 1.3), rng.uniform(-8.0, 8.0, (4, k))])
    J = fun.jacobian(theta)
    h = 1e-5
    central = np.stack(
        [(fun.evaluate(theta + h * e) - fun.evaluate(theta - h * e)) / (2 * h)
         for e in np.eye(k)],
        axis=2,
    )
    np.testing.assert_allclose(J, central, rtol=0, atol=1e-7)


@pytest.mark.parametrize("name", ["chloroform", "homonuclear-2", "homonuclear-3", "hetero-3"])
def test_batched_residual_matches_residual(name):
    system = presets.get_preset(name)
    rng = np.random.default_rng(7)
    extra = ["tree"] if system.n_spins == 3 else []
    for target in [*range(1, system.dim + 1), *extra]:
        fun, spec = batched_residual(system, target)
        theta = rng.uniform(-12.0, 12.0, (5, len(spec.steps)))
        want = [prep.residual(np.degrees(t), system, spec) for t in theta]
        np.testing.assert_allclose(fun.evaluate(theta), want, rtol=0, atol=1e-12)


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
    system = presets.get_preset(name)
    spec = cascade_for(system, target)
    k = len(spec.steps)
    theta = np.array(angles[:k])
    flipped = np.array(signs[:k]) * theta
    np.testing.assert_allclose(
        prep.residual(flipped, system, spec), prep.residual(theta, system, spec), rtol=0, atol=1e-12
    )


@st.composite
def kernel_cases(draw):
    """A random cascade tree at 2-4 spins, signed gammas over six decades, and angles."""
    n = draw(st.integers(2, 4))
    target = draw(st.sampled_from(range(1, 2**n + 1)))
    lines = [(lev, ((lev - 1) ^ (1 << b)) + 1) for lev in range(1, 2**n + 1) for b in range(n)]
    lines = [(m, k) for m, k in lines if m < k and target not in (m, k)]
    # Kruskal over shuffled lines: a uniform choice among orders, not among trees
    parent = list(range(2**n + 1))

    def root(lev):
        while parent[lev] != lev:
            lev = parent[lev]
        return lev

    steps = []
    for m, k in draw(st.permutations(lines)):
        if root(m) != root(k):
            parent[root(m)] = root(k)
            steps.append(CascadeStep(*((m, k) if draw(st.booleans()) else (k, m))))
    spec = CascadeSpec(target, tuple(steps), n)
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    decades = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    system = core.SpinSystem(gamma=tuple(s * 10.0**e for s, e in zip(signs, decades)))
    k = len(steps)
    base = np.array(draw(st.lists(st.floats(-np.pi, np.pi), min_size=k, max_size=k)))
    kind = draw(st.sampled_from(["zero", "equal", "random", "some zero", "1e-9", "1e3"]))
    theta = {
        "zero": np.zeros(k),
        "equal": np.full(k, base[0]),
        "random": base,
        "some zero": np.where(np.arange(k) % 2 == 0, 0.0, base),
        "1e-9": 1e-9 * base,
        "1e3": 1e3 * base,
    }[kind]
    return system, spec, theta


#: A 3-spin target-1 spider: three two-step legs from level 8.  At equal
#: angles theta its B has the singular values theta/2 * (2, 1, 1).
SPIDER_3_STEPS = tuple(
    CascadeStep(m, k) for m, k in ((8, 4), (4, 3), (8, 6), (6, 2), (8, 7), (7, 5))
)


def block_degeneracies(spec, theta):
    """Which of 'rank-deficient' and 'repeated' the singular values of B show.

    They are the largest 2**(n-1) - 1 eigenvalues of the x-pulse generator on
    the non-target levels, taken here through core.generator, not the kernel.
    """
    pulses = [((s.m, s.k), "x", a) for s, a in zip(spec.steps, theta)]
    keep = [lev for lev in range(2**spec.n_spins) if lev != spec.target - 1]
    H = core.generator(pulses, spec.n_spins)[np.ix_(keep, keep)]
    sigma = np.linalg.eigvalsh(H)[-(2 ** (spec.n_spins - 1) - 1):]
    tol = 1e-12 * max(1.0, sigma[-1])
    found = set()
    if sigma[0] <= tol:
        found.add("rank-deficient")
    if np.any((np.diff(sigma) <= tol) & (sigma[1:] > tol)):
        found.add("repeated")
    return found


def test_batched_kernel_matches_residual_on_any_tree():
    hetero3 = presets.get_preset("hetero-3")
    seen = set()

    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    # B = 0 is rank-deficient; equal angles on the spider repeat a singular value
    @example((hetero3, prep.default_cascade(3, 1), np.zeros(6)))
    @example((hetero3, CascadeSpec(1, SPIDER_3_STEPS, 3), np.full(6, 1.3)))
    def check(case):
        system, spec, theta = case
        seen.update(block_degeneracies(spec, theta))
        d_eq = np.real(np.diagonal(core.thermal_deviation(system)))
        scale = np.max(np.abs(d_eq))
        fun = prep._BatchedResidual(spec, d_eq)
        # the Gram route squares B, so its round-off grows as eps * |theta|**2
        # against eps * |theta| for residual's eigh; up to |theta| of about 17
        # radians the bound is the flat 1e-12 * max|d|
        tol = scale * max(1e-12, 16 * np.finfo(float).eps * np.max(np.abs(theta)) ** 2)
        np.testing.assert_allclose(
            fun.evaluate(theta[None])[0], prep.residual(np.degrees(theta), system, spec),
            rtol=0, atol=tol,
        )
        # central differences of the independent residual, whose round-off over h
        # stays below about 4e-8 * max|d| even at 1e3-scaled angles
        h = 1e-4
        central = np.stack(
            [(prep.residual(np.degrees(theta + h * e), system, spec)
              - prep.residual(np.degrees(theta - h * e), system, spec)) / (2 * h)
             for e in np.eye(len(theta))],
            axis=1,
        )
        np.testing.assert_allclose(fun.jacobian(theta[None])[0], central, rtol=0, atol=1e-7 * scale)

    check()
    # the Jacobian builds H's eigenbasis from an SVD of B, whose null space
    # and repeated singular values are where a wrong basis would show
    assert seen >= {"rank-deficient", "repeated"}


def test_newton_block_failures_stay_in_their_own_start():
    fun, _ = batched_residual(presets.get_preset("chloroform"), 1)
    good = np.radians([[120.0, 180.0], [60.0, 240.0]])
    # the Jacobian at theta = 0 is exactly zero; an infinite start has no residual
    x0 = np.vstack([good[0], [0.0, 0.0], good[1], [np.inf, 0.0]])
    x, r, ok = prep._newton_block(fun, x0, 1e-10)
    assert ok.tolist() == [True, False, True, False]
    np.testing.assert_array_equal(x[1], [0.0, 0.0])
    alone = np.array([prep._newton_block(fun, g[None], 1e-10)[0][0] for g in good])
    np.testing.assert_allclose(x[[0, 2]], alone, rtol=0, atol=1e-12)


@functools.cache
def lockstep_grid(name):
    """Kernel, 64 grid starts and their one-block run, for name at target 1."""
    fun, spec = batched_residual(presets.get_preset(name), 1)
    x0 = np.radians(np.array(prep._grid_starts(len(spec.steps), 2), dtype=float))
    return fun, x0, prep._newton_block(fun, x0, 1e-10)


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(["homonuclear-3", "hetero-3"]),
    st.lists(st.integers(0, 63), min_size=1, max_size=64, unique=True),
)
def test_a_start_follows_the_same_path_whichever_starts_share_its_block(name, rows):
    # a start's Newton path does not depend on the other starts in the lockstep,
    # so one block over every start stands in for any split of them
    fun, x0, full = lockstep_grid(name)
    alone = prep._newton_block(fun, x0[rows], 1e-10)
    for whole, part in zip(full, alone):
        assert whole[rows].tobytes() == part.tobytes()


def test_newton_block_decomposes_each_point_once(monkeypatch):
    fun, spec = batched_residual(presets.get_preset("hetero-3"), 1)
    # hetero-3 target 1 has 3 non-target levels of the target's parity and 4 of the other
    shapes, evaluated, jacobians = {"eigh": [], "svd": []}, [], []
    real_evaluate, real_jacobian = fun.evaluate, fun.jacobian

    def counted(name, want):
        real = getattr(np.linalg, name)

        def decompose(a, *args, **kwargs):
            assert a.shape[1:] == want, f"{name} of a {a.shape[1:]} matrix"
            shapes[name].append(len(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, decompose)

    counted("eigh", (3, 3))
    counted("svd", (3, 4))
    monkeypatch.setattr(fun, "evaluate", lambda t: evaluated.append(len(t)) or real_evaluate(t))
    monkeypatch.setattr(fun, "jacobian", lambda t: jacobians.append(len(t)) or real_jacobian(t))
    # the 2**6 and the full 3**6 default grids
    for per_dim in (2, 3):
        x0 = np.radians(np.array(prep._grid_starts(len(spec.steps), per_dim), dtype=float))
        for calls in (shapes["eigh"], shapes["svd"], evaluated, jacobians):
            calls.clear()
        prep._newton_block(fun, x0, 1e-10)
        # the first evaluation holds the starts, every later one trial points
        assert evaluated[0] == len(x0) and len(evaluated) > 1 and jacobians
        # each evaluated row costs one 3x3 Gram eigh, each Jacobian row one 3x4 svd of B,
        # and no other decomposition runs
        assert sum(shapes["eigh"]) == sum(evaluated)
        assert sum(shapes["svd"]) == sum(jacobians)
        # a line-search call holds at most as many trial points as there are starts
        assert max(evaluated[1:]) <= len(x0)


class Linear:
    """r(x) = x with a constant Jacobian, so a full Newton step scales r by 1 - 1/slope."""

    def __init__(self, slope):
        self.slope, self.jacobians = slope, 0

    def evaluate(self, x):
        return np.array(x, dtype=float)

    def jacobian(self, x):
        self.jacobians += 1
        return np.full((len(x), 1, 1), self.slope)


class Halving(Linear):
    """r(x) = x with the Jacobian 2, so each Newton step halves |r| exactly."""

    def __init__(self):
        super().__init__(2.0)


def test_a_start_live_after_max_iter_converges_only_below_tol():
    # both starts are still above tol when the last iteration begins, so both
    # are live after MAX_ITER iterations; 1 then ends at 2**-MAX_ITER, below
    # tol, and 2 at twice that, above it
    fun, tol = Halving(), 1.5 * 0.5**prep.MAX_ITER
    x, r, ok = prep._newton_block(fun, np.array([[1.0], [2.0]]), tol)
    assert fun.jacobians == prep.MAX_ITER
    assert x[:, 0].tolist() == [0.5**prep.MAX_ITER, 2 * 0.5**prep.MAX_ITER]
    assert ok.tolist() == [True, False]


def test_a_start_ends_after_slow_iterations():
    # each full step leaves 0.95 r, so it cuts ||r||**2 by 9.75%, under SLOW_CUT
    fun = Linear(20.0)
    x, r, ok = prep._newton_block(fun, np.array([[1.0]]), 1e-3)
    assert fun.jacobians == prep.SLOW_ITERS
    np.testing.assert_allclose(x[0, 0], 0.95**prep.SLOW_ITERS, rtol=1e-12)
    assert not ok[0]


def test_a_start_that_keeps_cutting_enough_runs_to_max_iter():
    # each full step leaves 0.9 r, a cut of 19% in ||r||**2
    fun = Linear(10.0)
    x, r, ok = prep._newton_block(fun, np.array([[1.0]]), 1e-3)
    assert fun.jacobians == prep.MAX_ITER
    assert not ok[0] and x[0, 0] > 1e-3


class FastEveryFifth(Linear):
    """Slow steps (a 9.75% cut) with every fifth one fast (a 19% cut)."""

    def __init__(self):
        super().__init__(20.0)

    def jacobian(self, x):
        self.slope = 10.0 if self.jacobians % 5 == 4 else 20.0
        return super().jacobian(x)


def test_a_fast_step_resets_the_slow_count():
    # four slow steps take the count to SLOW_ITERS - 1, and the fifth resets it
    fun = FastEveryFifth()
    x, r, ok = prep._newton_block(fun, np.array([[1.0]]), 1e-6)
    assert fun.jacobians == prep.MAX_ITER
    np.testing.assert_allclose(x[0, 0], (0.95**4 * 0.9) ** (prep.MAX_ITER // 5), rtol=1e-12)
    assert not ok[0]


def test_the_slow_step_that_reaches_tol_converges():
    # both starts take SLOW_ITERS slow steps; 1 ends at 0.95**5 = 0.774, below
    # tol, and 1.02 at 0.789, above it, so only the first is a root
    fun = Linear(20.0)
    x, r, ok = prep._newton_block(fun, np.array([[1.0], [1.02]]), 0.78)
    assert fun.jacobians == prep.SLOW_ITERS
    assert ok.tolist() == [True, False]


DEFAULT_CASES = [
    (name, target)
    for name in ("chloroform", "homonuclear-2", "homonuclear-3", "hetero-3")
    for target in range(1, presets.get_preset(name).dim + 1)
]


@functools.cache
def default_solve(name, target):
    """The default solve of a preset at a target, and its number of Jacobian calls."""
    system = presets.get_preset(name)
    calls, real = [], prep._BatchedResidual.jacobian
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prep._BatchedResidual, "jacobian",
                      lambda fun, theta: calls.append(len(theta)) or real(fun, theta))
        result = prep.solve_angles(system, prep.default_cascade(system.n_spins, target))
    return result, len(calls)


@pytest.mark.parametrize("case", DEFAULT_CASES)
def test_default_solve_makes_at_most_max_iter_jacobian_calls(case):
    # one Jacobian call per lockstep iteration, over whichever starts are live
    result, jacobians = default_solve(*case)
    assert result.roots and 0 < jacobians <= prep.MAX_ITER


def test_solve_angles_drops_a_root_that_residual_rejects(monkeypatch):
    system, spec = presets.get_preset("chloroform"), prep.default_cascade(2, 1)
    honest = prep.solve_angles(system, spec)
    bogus = (10.0, 20.0)
    assert np.max(np.abs(prep.residual(bogus, system, spec))) >= 1e-10
    real_block = prep._newton_block

    def lenient(fun, x0, tol):
        # the batched path accepts one more point, with a zero residual
        x, r, ok = real_block(fun, x0, tol)
        return (np.vstack([x, np.radians(bogus)]), np.vstack([r, np.zeros(r.shape[1])]),
                np.append(ok, True))

    monkeypatch.setattr(prep, "_newton_block", lenient)
    # without the re-check (10, 20) would be one more root
    assert prep.solve_angles(system, spec).roots == honest.roots


def test_mirror_roots_keep_one_order_under_round_off(monkeypatch):
    # homonuclear-2 target 10's two roots are mirror images, so their largest
    # angles tie in exact arithmetic; round-off of either sign, and either
    # order out of Newton, must give the same root list
    system, spec = presets.get_preset("homonuclear-2"), prep.default_cascade(2, 3)
    low, high = 137.76583056821565, 332.5961365893801
    for eps in (1e-9, -1e-9):
        pair = [(low, high), (high + eps, low)]
        for fed in (pair, pair[::-1]):
            monkeypatch.setattr(prep, "_newton_block", lambda fun, x0, tol, fed=fed: (
                np.radians(fed), np.zeros((2, 2)), np.ones(2, dtype=bool)))
            # the re-check through residual still runs; 1e-8 clears the perturbation
            roots = prep.solve_angles(system, spec, newton_tol=1e-8).roots
            assert [r[0] < r[1] for r in roots] == [True, False], (eps, fed)


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
    first = default_solve(*case)[0].roots[0]
    np.testing.assert_allclose(first, FIRST_ROOTS[case], rtol=0, atol=1e-6)


def scaled(system, c):
    return core.SpinSystem(gamma=tuple(c * g for g in system.gamma), j_hz=system.j_hz)


@pytest.mark.parametrize("target", [1, 8])
def test_first_root_survives_scaled_gammas(target):
    # scaling every gamma scales the residual and leaves its roots alone
    system = presets.get_preset("hetero-3")
    spec = prep.default_cascade(system.n_spins, target)
    first = default_solve("hetero-3", target)[0].roots[0]
    for k in (1e-100, 1e2, 1e3, 1e100):
        np.testing.assert_allclose(
            prep.solve_angles(scaled(system, k), spec).roots[0], first, rtol=0, atol=1e-8
        )


TWO_SPIN_CASES = [case for case in DEFAULT_CASES if presets.get_preset(case[0]).n_spins == 2]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(TWO_SPIN_CASES), st.integers(-600, 600))
def test_a_power_of_two_gamma_scale_changes_no_bit(case, j):
    # the solver scales the thermal populations by a power of two, which is
    # exact, so only the residual norms, reported in gamma units, move, by 2**j
    system, spec = presets.get_preset(case[0]), prep.default_cascade(2, case[1])
    want = default_solve(*case)[0]
    got = prep.solve_angles(scaled(system, 2.0**j), spec)
    assert np.array(got.roots).tobytes() == np.array(want.roots).tobytes()
    assert np.array(got.residual_norms).tobytes() == np.ldexp(want.residual_norms, j).tobytes()
    assert (got.converged, got.starts_tried) == (want.converged, want.starts_tried)


def in_box(roots):
    return np.array([r for r in roots if max(r) < 360], dtype=float)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(TWO_SPIN_CASES), st.floats(-200, 200))
def test_any_gamma_scale_keeps_the_roots_in_the_box(case, log_c):
    # any other scale changes the round-off of every Newton path; roots inside
    # [0, 360) keep their number and place, but a start that creeps at about
    # 1e7 degrees can land on a point within round-off of the bound, so the
    # count of roots far outside the box is not pinned
    system, spec = presets.get_preset(case[0]), prep.default_cascade(2, case[1])
    want = default_solve(*case)[0]
    got = prep.solve_angles(scaled(system, 10.0**log_c), spec)
    np.testing.assert_allclose(got.roots[0], want.roots[0], rtol=0, atol=1e-6)
    boxed = in_box(got.roots)
    assert boxed.shape == in_box(want.roots).shape
    np.testing.assert_allclose(boxed, in_box(want.roots), rtol=0, atol=1e-6)


@pytest.mark.parametrize("name", ["chloroform", "hetero-3"])
def test_residual_of_a_stack_is_each_single_call_bit_for_bit(name):
    # solve_angles re-checks every root in one stack; each row must be what
    # residual, and one dense generator over the cascade's pulses, give alone
    system = presets.get_preset(name)
    spec = prep.default_cascade(system.n_spins, 1)
    roots = np.array(default_solve(name, 1)[0].roots)
    stacked = prep.residual(roots, system, spec)
    assert stacked.shape == (len(roots), system.dim - 2)
    for root, row in zip(roots, stacked):
        assert row.tobytes() == prep.residual(root, system, spec).tobytes()
        assert row.tobytes() == dense_residual(root, system, spec).tobytes()
    for bad in (roots[:, :-1], roots[None]):
        with pytest.raises(InputError):
            prep.residual(bad, system, spec)
    with pytest.raises(InputError):
        prep.residual(np.vstack([roots[:1], [np.nan] * roots.shape[1]]), system, spec)


class Counted:
    """A kernel that records the size of every evaluate and jacobian call."""

    def __init__(self, fun):
        self.fun, self.calls = fun, []

    def evaluate(self, theta):
        self.calls.append(("evaluate", len(theta)))
        return self.fun.evaluate(theta)

    def jacobian(self, theta):
        self.calls.append(("jacobian", len(theta)))
        return self.fun.jacobian(theta)


NEWTON_CASES = [*TWO_SPIN_CASES, ("hetero-3", 1), ("hetero-3", 8), "failures"]


@pytest.mark.parametrize("case", NEWTON_CASES)
def test_newton_block_matches_the_mask_reference(case):
    # the live set is an index array; the reference rescans a mask, and the
    # two must make the same kernel calls and return the same bits
    if case == "failures":
        # a zero Jacobian at theta = 0 and an infinite start beside two good ones
        system, spec = presets.get_preset("chloroform"), prep.default_cascade(2, 1)
        x0 = np.array([[2.0, 3.0], [0.0, 0.0], [1.0, 4.0], [np.inf, 0.0]])
    else:
        system = presets.get_preset(case[0])
        spec = prep.default_cascade(system.n_spins, case[1])
        per_dim = 5 if len(spec.steps) <= 2 else 3
        x0 = np.radians(np.array(prep._grid_starts(len(spec.steps), per_dim), dtype=float))
    d = np.real(np.diagonal(core.thermal_deviation(system)))
    d = np.ldexp(d, -prep._thermal_exponent(d))
    runs = []
    for block in (prep._newton_block, mask_newton_block):
        fun = Counted(prep._BatchedResidual(spec, d))
        runs.append((block(fun, x0, 1e-11 * np.max(np.abs(d))), fun.calls))
    (got, got_calls), (want, want_calls) = runs
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    assert got_calls == want_calls


def test_pure_part_at_scale_has_the_bits_of_pure_part():
    system = presets.get_preset("chloroform")
    rho, _ = prep.prepare_pseudo_pure(system, 1)
    assert prep.pure_part_at_scale(rho, system) == core.pure_part(rho)


@pytest.mark.parametrize("gamma", [(1e-9, 2e-9), (1e150, 2.0), (1e300, 2.0)])
def test_prepare_judges_the_state_on_the_thermal_scale(gamma):
    # pure_part's absolute tol saw no pure part at 1e-9 and a spread of
    # round-off far beyond it at 1e150; on the solver's scale both pass
    system = core.SpinSystem(gamma=gamma)
    d = np.real(np.diagonal(core.thermal_deviation(system)))
    for target in range(1, 5):
        rho, _ = prep.prepare_pseudo_pure(system, target)
        part = prep.pure_part_at_scale(rho, system)
        assert part.target == target
        assert part.pure_coeff == pytest.approx(4 / 3 * d[target - 1], rel=1e-9)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 4), st.integers(-600, 600))
def test_a_power_of_two_gamma_scale_scales_the_pure_part_exactly(target, j):
    system = presets.get_preset("chloroform")
    want = prep.pure_part_at_scale(prep.prepare_pseudo_pure(system, target)[0], system)
    big = scaled(system, 2.0**j)
    got = prep.pure_part_at_scale(prep.prepare_pseudo_pure(big, target)[0], big)
    assert got == (np.ldexp(want.uniform_coeff, j), np.ldexp(want.pure_coeff, j), target)


def test_solver_finds_homonuclear_root():
    result = prep.solve_angles(presets.get_preset("homonuclear-2"), prep.default_cascade(2, 1))
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
    system = presets.get_preset(name)
    if pinned:
        angles = FIRST_ROOTS[(name, target)]
    else:
        spec = prep.default_cascade(system.n_spins, target)
        angles = prep.solve_angles(system, spec, grid_per_dim=2).roots[0]
    rho, _ = prep.prepare_pseudo_pure(system, target, angles_deg=angles)
    d_t = np.real(core.thermal_deviation(system)[target - 1, target - 1])
    if d_t == 0:
        with pytest.raises(NotPseudoPureError):
            core.pure_part(rho)
        return
    part = core.pure_part(rho)
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
    system = core.SpinSystem(gamma=tuple(g * s for g, s in zip(magnitudes, signs)))
    d = np.real(np.diagonal(core.thermal_deviation(system)))
    scale = np.max(np.abs(d))
    assume(abs(d[target - 1]) >= 0.1 * scale)
    result = prep.solve_angles(system, prep.default_cascade(2, target))
    for root in result.roots:
        rho, _ = prep.prepare_pseudo_pure(system, target, angles_deg=root)
        part = core.pure_part(rho)
        assert part.target == target
        assert abs(part.pure_coeff - 4 / 3 * d[target - 1]) <= 1e-9 * scale


def test_solver_finds_heteronuclear_root():
    result = prep.solve_angles(presets.get_preset("chloroform"), prep.default_cascade(2, 1))
    best = min(
        result.roots,
        key=lambda r: max(abs(a - b) for a, b in zip(r, (127.13, 186.01))),
    )
    assert max(abs(a - b) for a, b in zip(best, (127.13, 186.01))) < 0.5


def test_solver_soundness_and_dedup():
    tol = 1e-10
    result = prep.solve_angles(
        presets.get_preset("chloroform"), prep.default_cascade(2, 1), newton_tol=tol
    )
    spec = prep.default_cascade(2, 1)
    for root, norm in zip(result.roots, result.residual_norms):
        assert norm < tol
        r = prep.residual(root, presets.get_preset("chloroform"), spec)
        assert np.max(np.abs(r)) < tol * 10
    for i, a in enumerate(result.roots):
        for b in result.roots[i + 1 :]:
            assert max(abs(x - y) for x, y in zip(a, b)) >= 0.01


def test_solver_orders_in_box_roots_first():
    result = prep.solve_angles(presets.get_preset("homonuclear-2"), prep.default_cascade(2, 1))
    boxed = [all(0 <= v < 360 for v in r) for r in result.roots]
    assert boxed == sorted(boxed, reverse=True)
    assert boxed[0]


def test_solver_reports_failure():
    with pytest.raises(NoSolutionError):
        prep.solve_angles(
            presets.get_preset("homonuclear-2"), prep.default_cascade(2, 1), newton_tol=0.0
        )


@pytest.mark.parametrize("name", ["homonuclear-3", "hetero-3"])
def test_solver_handles_a_tree_that_is_not_a_path(name):
    system = presets.get_preset(name)
    spec = cascade_for(system, "tree")
    result = prep.solve_angles(system, spec, grid_per_dim=2)
    assert result.roots
    for root in result.roots:
        assert np.max(np.abs(prep.residual(root, system, spec))) < 1e-10
    U = prep.preparation_unitary(spec, result.roots[0])
    rho = core.crush(core.evolve(core.thermal_deviation(system), U))
    assert core.pure_part(rho).target == 1


def test_homonuclear_target_relabeling_preserves_roots():
    # flipping both bits maps the target-1 cascade onto the target-4 one
    # with the step order reversed, so every solved angle vector, read
    # backwards, must also be a root of the relabeled problem
    system = presets.get_preset("homonuclear-2")
    spec4 = prep.default_cascade(2, 4)
    roots1 = prep.solve_angles(system, prep.default_cascade(2, 1)).roots
    for root in roots1:
        r = prep.residual(tuple(reversed(root)), system, spec4)
        assert np.max(np.abs(r)) < 1e-8


# ---------------------------------------------------------------------------
# preparation

def test_prepare_homonuclear_golden():
    rho, solution = prep.prepare_pseudo_pure(presets.get_preset("homonuclear-2"), 1)
    assert solution is not None
    np.testing.assert_allclose(
        np.real(np.diagonal(rho)), [2, -2 / 3, -2 / 3, -2 / 3], atol=1e-6
    )
    assert abs(np.trace(rho)) < 1e-10


def test_prepare_heteronuclear_golden():
    system = presets.get_preset("chloroform")
    rho, _ = prep.prepare_pseudo_pure(system, 1)
    np.testing.assert_allclose(
        np.real(np.diagonal(rho)), [6.9905, -2.3303, -2.3303, -2.3303], atol=1e-3
    )
    part = core.pure_part(rho)
    assert part.pure_coeff == pytest.approx((4 / 3) * sum(system.gamma), abs=1e-3)


def test_prepare_keeps_target_population_thermal():
    system = presets.get_preset("chloroform")
    d_eq = np.real(np.diagonal(core.thermal_deviation(system)))
    for target in range(1, 5):
        rho, _ = prep.prepare_pseudo_pure(system, target)
        d = np.real(np.diagonal(rho))
        assert d[target - 1] == pytest.approx(d_eq[target - 1], abs=1e-12)
        part = core.pure_part(rho)
        assert part.target == target
        rest = np.delete(d, target - 1)
        assert rest.max() - rest.min() < 1e-6


def test_prepare_explicit_angles_skips_solver():
    system = presets.get_preset("chloroform")
    rho, solution = prep.prepare_pseudo_pure(system, 1, angles_deg=(127.13, 186.01))
    assert solution is None
    part = core.pure_part(rho, tol=5e-3)
    assert part.target == 1
    # deliberately bad angles still produce a state, just not a useful one
    rho, _ = prep.prepare_pseudo_pure(system, 1, angles_deg=(10.0, 20.0))
    with pytest.raises(NotPseudoPureError):
        core.pure_part(rho)


def test_prepare_homonuclear_odd_parity_targets_vanish():
    # levels 2 and 3 of an equal-gamma pair carry zero thermal population,
    # so equalizing the rest leaves nothing above the uniform background
    system = presets.get_preset("homonuclear-2")
    for target in (2, 3):
        with pytest.raises(NotPseudoPureError):
            prep.prepare_pseudo_pure(system, target)


def test_prepare_heteronuclear_last_level():
    rho, _ = prep.prepare_pseudo_pure(presets.get_preset("chloroform"), 4)
    d = np.real(np.diagonal(rho))
    rest = np.delete(d, 3)
    assert rest.max() - rest.min() < 5e-3
    assert abs(d[3] - rest.mean()) > 1.0


def test_prepare_three_spin_system():
    rho, solution = prep.prepare_pseudo_pure(presets.get_preset("homonuclear-3"), 1)
    d = np.real(np.diagonal(rho))
    np.testing.assert_allclose(d, [3] + [-3 / 7] * 7, atol=1e-8)
    assert all(0 <= v < 360 for v in solution.roots[0])
