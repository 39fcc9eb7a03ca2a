"""Pseudo-pure state preparation by simultaneous line-selective pulses.

A cascade joins every non-target level in a tree of single-quantum
transitions.  One x-phase pulse per transition, all applied simultaneously
(a single generator, a single exponential), followed by an ideal crusher,
leaves the non-target populations equal and the target population at its
thermal value.  The pulse angles are roots of the population-equalization
residual, found by a damped Newton iteration from a grid of starting points.
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    SpinSystem,
    _check_level,
    crush,
    evolve,
    expm_unitary,
    flipped_spin,
    generator,
    pure_part,
    thermal_deviation,
)
from .errors import InputError, NoSolutionError, NotPseudoPureError

DEDUP_TOL_DEG = 0.01
#: Newton iterations per start.
MAX_ITER = 60
#: Starts that one lockstep Newton block advances together; bounds its memory.
NEWTON_BLOCK = 64
#: Line-search scales of a Newton step: 1, 1/2, ..., the last one above 1e-6.
_STEP_SCALES = 0.5 ** np.arange(20)
#: Largest number of grid starts solve_angles will build.
MAX_GRID_STARTS = 10**5


class CascadeStep(NamedTuple):
    m: int
    k: int


@dataclass(frozen=True)
class CascadeSpec:
    """Single-quantum transitions joining the non-target levels in a tree.

    Checked when built: 2**n - 2 steps, each flipping exactly one spin,
    none touching the target and none closing a cycle, so the steps span
    every non-target level.  On those levels any such tree gives a real
    symmetric x-pulse generator, and a diagonal +-1 similarity flips the
    sign of any one angle, which is all the solver relies on.
    """

    target: int
    steps: tuple[CascadeStep, ...]
    n_spins: int

    def __post_init__(self):
        n = self.n_spins
        if n < 2:
            raise InputError("cascades need at least two spins")
        _check_level(self.target, n)
        if len(self.steps) != 2**n - 2:
            raise InputError(f"expected {2**n - 2} steps, got {len(self.steps)}")
        parent = list(range(2**n + 1))  # union-find over the levels

        def root(lev: int) -> int:
            while parent[lev] != lev:
                parent[lev] = parent[parent[lev]]
                lev = parent[lev]
            return lev

        for step in self.steps:
            flipped_spin(step.m, step.k, n)  # raises unless a resolvable line
            if self.target in (step.m, step.k):
                raise InputError(f"step {step} touches the target level")
            a, b = root(step.m), root(step.k)
            if a == b:
                raise InputError(f"step {step} closes a cycle")
            parent[a] = b


@dataclass(frozen=True)
class SolverResult:
    roots: tuple[tuple[float, ...], ...]
    residual_norms: tuple[float, ...]
    starts_tried: int
    converged: tuple[bool, ...]


def _target1_path(n_spins: int) -> tuple[int, ...]:
    # Chains for the target-at-level-1 case.  The 2- and 3-spin routes are
    # the standard published ones; larger systems use a reflected Gray code
    # cycle with level 1 removed, whose endpoints are both adjacent to it.
    if n_spins == 2:
        return (3, 4, 2)
    if n_spins == 3:
        return (3, 7, 5, 6, 8, 4, 2)
    return tuple((j ^ (j >> 1)) + 1 for j in range(1, 2**n_spins))


def default_cascade(n_spins: int, target: int) -> CascadeSpec:
    """The stock cascade for a target level (1-based).

    The stock routes are Hamiltonian paths, a special case of the trees a
    :class:`CascadeSpec` accepts.  The target-1 route is relabeled for other
    targets by XORing every level with the target's bit pattern, which keeps
    the spin each step flips, then reversing the walk; this reproduces the
    usual tabulated 2-spin routes for all four targets.
    """
    path = _target1_path(n_spins)
    steps = [CascadeStep(m, k) for m, k in zip(path, path[1:])]
    if target != 1:
        flip_bits = lambda lev: ((lev - 1) ^ (target - 1)) + 1
        steps = [CascadeStep(flip_bits(s.k), flip_bits(s.m)) for s in reversed(steps)]
    return CascadeSpec(target=target, steps=tuple(steps), n_spins=n_spins)


def _angles_deg(angles_deg, spec: CascadeSpec) -> np.ndarray:
    angles = np.atleast_1d(np.asarray(angles_deg, dtype=float))
    if angles.shape != (len(spec.steps),):
        raise InputError(f"expected {len(spec.steps)} angles, got shape {angles.shape}")
    if not np.all(np.isfinite(angles)):
        raise InputError(f"angles must be finite, got {angles.tolist()}")
    return angles


def _propagator(angles_rad: np.ndarray, spec: CascadeSpec) -> np.ndarray:
    H = generator(
        [((s.m, s.k), "x", a) for s, a in zip(spec.steps, angles_rad)], spec.n_spins
    )
    return expm_unitary(H)


def residual(angles_deg, system: SpinSystem, spec: CascadeSpec) -> np.ndarray:
    """Population differences p_l - p_l0 over non-target levels l != l0.

    l0 is the first non-target level in index order.  The zero vector means
    every non-target population is equal, which is the preparation
    condition.  Angles are degrees, one per cascade step.
    """
    angles = _angles_deg(angles_deg, spec)
    if system.n_spins != spec.n_spins:
        raise InputError("system and cascade disagree on the spin count")
    d_eq = np.real(np.diagonal(thermal_deviation(system)))
    # diag(U rho U+) for diagonal rho needs only |U|^2
    p = (np.abs(_propagator(np.radians(angles), spec)) ** 2) @ d_eq
    others = [lev for lev in range(1, len(d_eq) + 1) if lev != spec.target]
    return np.array([p[lev - 1] - p[others[0] - 1] for lev in others[1:]])


class _BatchedResidual:
    """Residuals of one cascade at a stack of angle vectors, with exact Jacobians.

    Only the non-target levels take part; the target keeps its population.
    On them the x-pulse generator H = sum_j theta_j E_j is real symmetric,
    with E_j the sigma_x/2 block of step j, so one batched real eigh
    H = V diag(w) V^T gives every propagator.  The same (w, V) give the exact
    derivative dU/dtheta_j = V (G o V^T E_j V) V^T, where G holds the divided
    differences of exp(-i w) (Najfeld & Havel, Adv. Appl. Math. 16 (1995)
    321), written as G_pq = -i exp(-i (w_p + w_q)/2) sinc((w_p - w_q)/2) so
    that it stays exact at degenerate eigenvalues.  Rows whose angles are not
    finite come back as NaN.  This path is the solver's own; :func:`residual`
    stays on ``core.generator`` and ``core.expm_unitary`` to check its roots.
    """

    def __init__(self, spec: CascadeSpec, d_eq: np.ndarray):
        # non-target levels in index order, so the residual's reference is row 0
        others = [lev for lev in range(1, len(d_eq) + 1) if lev != spec.target]
        row = {lev: i for i, lev in enumerate(others)}
        self.m = np.array([row[s.m] for s in spec.steps])
        self.k = np.array([row[s.k] for s in spec.steps])
        self.d = d_eq[np.array(others) - 1]

    def __call__(self, theta: np.ndarray, jacobian: bool = False):
        """(B, k) residuals at (B, k) angles in radians; with jacobian, also (B, k, k)."""
        bad = ~np.all(np.isfinite(theta), axis=1)
        # eigh may raise LinAlgError on non-finite input, which would end the
        # whole block: evaluate those rows at 0, then blank them
        theta = np.where(bad[:, None], 0.0, theta)
        H = np.zeros((len(theta), len(self.d), len(self.d)))
        H[:, self.m, self.k] = H[:, self.k, self.m] = 0.5 * theta
        w, V = np.linalg.eigh(H)
        U = (V * np.exp(-1j * w)[:, None, :]) @ V.transpose(0, 2, 1)
        # diag(U D U+) for the diagonal thermal state D needs only |U|^2
        p = (np.abs(U) ** 2) @ self.d
        r = p[:, 1:] - p[:, :1]
        r[bad] = np.nan
        if not jacobian:
            return r
        G = -1j * np.exp(-0.5j * (w[:, :, None] + w[:, None, :])) * np.sinc(
            (w[:, :, None] - w[:, None, :]) / (2 * np.pi)
        )
        # dp_a/dtheta_j = 2 Re (dU_j D U+)_aa = 2 Re (V (G o V^T E_j V) Y)_aa with
        # Y = V^T D U+, where 2 V^T E_j V = C + C^T for C = outer(V[m_j], V[k_j])
        Y = V.transpose(0, 2, 1) @ (self.d[:, None] * U.conj())
        dp = np.empty((len(theta), len(self.m), len(self.d)))
        for j, (m, k) in enumerate(zip(self.m, self.k)):
            C = V[:, m, :, None] * V[:, k, None, :]
            dp[:, j] = np.einsum("baq,bqa->ba", V, (G * (C + C.transpose(0, 2, 1))) @ Y).real
        J = (dp[:, :, 1:] - dp[:, :, :1]).transpose(0, 2, 1)
        J[bad] = np.nan
        return r, J


def _newton_steps(J: np.ndarray, r: np.ndarray):
    """Newton steps -J^-1 r for a stack; a singular J fails only its own row."""
    # slogdet and solve factor with the same LAPACK getrf, so the sign is 0
    # exactly where solve would raise LinAlgError
    solved = np.linalg.slogdet(J)[0] != 0
    steps = np.zeros_like(r)
    steps[solved] = np.linalg.solve(J[solved], -r[solved][..., None])[..., 0]
    return steps, solved


def _newton_block(fun: _BatchedResidual, x0: np.ndarray, tol: float):
    """Damped Newton from every row of x0 in lockstep. Returns (x, r, ok) per row.

    Each row follows the single-start rule: converge once max|r| < tol, take
    the Newton step scaled by the first of 1, 1/2, ... (down to 1e-6) that
    lowers ||r||, and stop on a singular Jacobian, a stalled line search, a
    trial point without a finite residual, or after MAX_ITER iterations.
    """
    x = np.array(x0, dtype=float)
    k = x.shape[1]
    r = fun(x)
    ok = np.zeros(len(x), dtype=bool)
    live = np.all(np.isfinite(r), axis=1)
    for _ in range(MAX_ITER):
        i = np.flatnonzero(live)
        done = np.max(np.abs(r[i]), axis=1) < tol
        ok[i[done]] = True
        live[i[done]] = False
        i = i[~done]
        if not i.size:
            break
        r[i], J = fun(x[i], jacobian=True)
        step, solved = _newton_steps(J, r[i])
        live[i[~solved]] = False
        i, step = i[solved], step[solved]
        norm = np.linalg.norm(r[i], axis=1)
        # try the scales in order, several per call while few rows remain,
        # so that one call never holds more than NEWTON_BLOCK trial points
        tried = 0
        while i.size and tried < len(_STEP_SCALES):
            lams = _STEP_SCALES[tried : tried + max(1, NEWTON_BLOCK // i.size)]
            tried += len(lams)
            trial = x[i, None] + lams[:, None] * step[:, None]
            r_trial = fun(trial.reshape(-1, k)).reshape(trial.shape)
            finite = np.all(np.isfinite(r_trial), axis=2)
            better = finite & (np.linalg.norm(r_trial, axis=2) < norm[:, None])
            # each row stops at its first scale that helps or is not finite
            stop = better | ~finite
            hit = stop.any(axis=1)
            rows = np.flatnonzero(hit)
            first = np.argmax(stop[rows], axis=1)
            take = better[rows, first]
            x[i[rows[take]]] = trial[rows[take], first[take]]
            r[i[rows[take]]] = r_trial[rows[take], first[take]]
            live[i[rows[~take]]] = False
            i, step, norm = i[~hit], step[~hit], norm[~hit]
        live[i] = False
    ok |= live & (np.max(np.abs(r), axis=1) < tol)
    return x, r, ok


def _grid_starts(k: int, per_dim: int) -> list[tuple[float, ...]]:
    pts = [i * 360.0 / (per_dim + 1) for i in range(1, per_dim + 1)]
    return list(itertools.product(pts, repeat=k))


def solve_angles(
    system: SpinSystem,
    spec: CascadeSpec,
    grid_per_dim: int | None = None,
    newton_tol: float = 1e-10,
) -> SolverResult:
    """Find pulse-angle vectors equalizing the non-target populations.

    Multi-start damped Newton on :func:`residual`, with exact Jacobians,
    advancing NEWTON_BLOCK starts at a time in lockstep.  Starts are a
    uniform grid interior to (0, 360) degrees per dimension (5 points per
    dimension up to 2 steps, 3 up to 6, then 1; at most MAX_GRID_STARTS in
    all).  Flipping the sign of any angle leaves the residual unchanged, so
    converged roots are reported as |theta|, deduplicated at 0.01 degrees
    componentwise, and sorted by largest component, then lexicographically;
    each satisfies max |residual| < newton_tol.  Components are reported
    wherever Newton lands them, so some may exceed 360.
    """
    if system.n_spins != spec.n_spins:
        raise InputError("system and cascade disagree on the spin count")
    if not math.isfinite(newton_tol) or newton_tol < 0:
        raise InputError(f"newton_tol must be finite and nonnegative, got {newton_tol}")
    k = len(spec.steps)
    if grid_per_dim is None:
        grid_per_dim = 5 if k <= 2 else (3 if k <= 6 else 1)
    if grid_per_dim < 1:
        raise InputError(f"grid_per_dim must be at least 1, got {grid_per_dim}")
    if grid_per_dim**k > MAX_GRID_STARTS:
        raise InputError(
            f"grid of {grid_per_dim}**{k} starts exceeds the cap of {MAX_GRID_STARTS}"
        )
    starts = _grid_starts(k, grid_per_dim)

    fun = _BatchedResidual(spec, np.real(np.diagonal(thermal_deviation(system))))
    x0 = np.radians(np.array(starts, dtype=float))
    blocks = [
        _newton_block(fun, x0[b : b + NEWTON_BLOCK], newton_tol)
        for b in range(0, len(x0), NEWTON_BLOCK)
    ]
    x, r, ok = (np.concatenate(parts) for parts in zip(*blocks))
    worst = np.max(np.abs(r), axis=1)

    # a diagonal +-1 similarity flips the sign of any angle of a cascade,
    # which is a tree, and leaves |U|^2 alone, so roots are folded onto |theta|
    folded, folded_norms = np.abs(np.degrees(x[ok])), worst[ok]
    kept: list[int] = []
    for i, deg in enumerate(folded):
        if not kept or np.min(np.max(np.abs(folded[kept] - deg), axis=1)) >= DEDUP_TOL_DEG:
            kept.append(i)
    if not kept:
        raise NoSolutionError(
            f"no root found from {len(starts)} starts; best residual {np.min(worst):.3e}"
        )
    roots = [tuple(float(v) for v in folded[i]) for i in kept]
    norms = [float(folded_norms[i]) for i in kept]
    # smallest largest angle first, so prepare_pseudo_pure picks a tame
    # vector and every root inside [0, 360) comes before the rest
    order = sorted(range(len(roots)), key=lambda i: (max(roots[i]), roots[i]))
    return SolverResult(
        roots=tuple(roots[i] for i in order),
        residual_norms=tuple(norms[i] for i in order),
        starts_tried=len(starts),
        converged=tuple(bool(v) for v in ok),
    )


def preparation_unitary(spec: CascadeSpec, angles_deg) -> np.ndarray:
    """Propagator of the simultaneous selective pulses at the given angles."""
    return _propagator(np.radians(_angles_deg(angles_deg, spec)), spec)


def prepare_pseudo_pure(
    system: SpinSystem,
    target: int,
    angles_deg=None,
) -> tuple[np.ndarray, SolverResult | None]:
    """Thermal state -> simultaneous selective pulses -> ideal crusher.

    With angles omitted, the stock cascade is solved and the first root is
    used; the result is then required to decompose as uniform background
    plus the target basis state.  Explicit angles skip both the solver and
    that check, so callers can inspect imperfect pulse sets.
    """
    spec = default_cascade(system.n_spins, target)
    solution = None
    if angles_deg is None:
        solution = solve_angles(system, spec)
        angles_deg = solution.roots[0]
    U = preparation_unitary(spec, angles_deg)
    rho = crush(evolve(thermal_deviation(system), U), "all_off_diagonal")
    if solution is not None:
        part = pure_part(rho)
        if part.target != target:
            raise NotPseudoPureError(
                f"prepared state is pseudo-pure at level {part.target}, not {target}"
            )
    return rho, solution
