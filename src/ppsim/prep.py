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
    PurePart,
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
#: Newton iterations per start.  Over the 16 three-spin default solves with a
#: cap of 60, starts that converge need a median of 9 iterations and 38 at the
#: 99th percentile; 40 keeps those.  Most starts that cannot converge end
#: sooner, on the progress test below.
MAX_ITER = 40
#: MINPACK hybrj's progress test (More, Garbow & Hillstrom, User Guide for
#: MINPACK-1, ANL-80-74, 1980, info = 4): a start ends unconverged after
#: SLOW_ITERS consecutive iterations that each cut ||r||**2 by less than the
#: fraction SLOW_CUT.
SLOW_CUT = 0.1
SLOW_ITERS = 5
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
    if angles.ndim > 2 or angles.shape[-1:] != (len(spec.steps),):
        raise InputError(f"expected {len(spec.steps)} angles, got shape {angles.shape}")
    if not np.all(np.isfinite(angles)):
        raise InputError(f"angles must be finite, got {angles.tolist()}")
    return angles


def preparation_unitary(spec: CascadeSpec, angles_deg) -> np.ndarray:
    """Propagator of the simultaneous selective pulses at the given angles.

    angles_deg is one angle per step, or an (R, k) stack of such vectors for
    R propagators from one ``expm_unitary`` call.  The generator is the
    angle-weighted sum of the steps' unit pulses, taken from one
    ``generator`` call at angle 1: each step owns its two entries, so adding
    angle * entry into zeros makes the operations ``generator`` makes for
    the pulses themselves, bit for bit.
    """
    angles = np.radians(_angles_deg(angles_deg, spec))
    unit = generator([((s.m, s.k), "x", 1.0) for s in spec.steps], spec.n_spins)
    m, k = (np.array(spec.steps) - 1).T
    H = np.zeros(angles.shape[:-1] + unit.shape, dtype=complex)
    H[..., m, k] += angles * unit[m, k]
    H[..., k, m] += angles * unit[k, m]
    return expm_unitary(H)


def _population_differences(U: np.ndarray, d_eq: np.ndarray, target: int) -> np.ndarray:
    # diag(U rho U+) for diagonal rho needs only |U|^2
    p = (np.abs(U) ** 2) @ d_eq
    others = [lev - 1 for lev in range(1, len(d_eq) + 1) if lev != target]
    return p[..., others[1:]] - p[..., others[:1]]


def residual(angles_deg, system: SpinSystem, spec: CascadeSpec) -> np.ndarray:
    """Population differences p_l - p_l0 over non-target levels l != l0.

    l0 is the first non-target level in index order.  The zero vector means
    every non-target population is equal, which is the preparation
    condition.  Angles are degrees, one per cascade step; an (R, k) stack
    of angle vectors gives (R, 2**n - 2) residuals, each with the bits of
    its own single call.
    """
    U = preparation_unitary(spec, angles_deg)
    if system.n_spins != spec.n_spins:
        raise InputError("system and cascade disagree on the spin count")
    return _population_differences(U, np.real(np.diagonal(thermal_deviation(system))), spec.target)


class _BatchedResidual:
    """Residuals of one cascade at a stack of angle vectors, with exact Jacobians.

    Only the non-target levels take part; the target keeps its population.
    Every step flips one spin, so it joins a level of the target's bit-count
    parity (side a, 2**(n-1) - 1 levels) to one of the other parity (side b,
    2**(n-1) levels), and the x-pulse generator is H = [[0, B], [B^T, 0]]
    with B real, B_ab = theta_j / 2 for step j.  Residuals take one batched
    eigh of the Gram matrix B B^T = u diag(s**2) u^T, which is 3 x 3 at 3
    spins.  With W = u^T B the propagator is [[C1, -i S], [-i S^T, C2]] with
    C1 = u cos(s) u^T, S = u (sin(s)/s) W and C2 = I - W^T ((1 - cos s)/s**2) W,
    all real, so the populations are sums of their squares.  Jacobians take
    one full SVD B = u diag(s) v^T, 3 x 4 at 3 spins.  In side order (side
    a's levels, then side b's) H has the eigenpairs (+-s_i, (u_i, +-v_i)/sqrt 2)
    and (0, (0, v_0)), with v_0 the last column of v: side b has one level
    more than side a, so B always has that null vector (Golub & Van Loan,
    Matrix Computations, 8.6).  From that eigenbasis H = V diag(w) V^T comes
    the exact derivative dU/dtheta_j = V (G o V^T E_j V) V^T, with E_j the
    sigma_x/2 block of step j and G the divided differences of exp(-i w)
    (Najfeld & Havel, Adv. Appl. Math. 16 (1995) 321),
    G_pq = -i exp(-i (w_p + w_q)/2) sinc((w_p - w_q)/2), exact at degenerate
    eigenvalues and taken in real arithmetic; any orthonormal eigenbasis
    serves, so zero and repeated s need no care.  The Gram route squares B,
    so its round-off grows as eps * |theta|**2, against eps * |theta| for
    the SVD.  Residual rows whose angles are not finite come back as NaN.
    This path is the solver's own;
    :func:`residual` stays on ``core.generator`` and ``core.expm_unitary``
    to check its roots.
    """

    def __init__(self, spec: CascadeSpec, d_eq: np.ndarray):
        # non-target levels in index order, so the residual's reference is row 0
        others = [lev for lev in range(1, len(d_eq) + 1) if lev != spec.target]
        row = {lev: i for i, lev in enumerate(others)}
        m = np.array([row[s.m] for s in spec.steps])
        k = np.array([row[s.k] for s in spec.steps])
        self.d = d_eq[np.array(others) - 1]
        parity = lambda lev: (lev - 1).bit_count() % 2
        on_b = np.array([parity(lev) != parity(spec.target) for lev in others])
        self.rows_a, self.rows_b = np.flatnonzero(~on_b), np.flatnonzero(on_b)
        # each step's two ends, as positions within their own side
        pos = np.empty(len(others), dtype=int)
        pos[self.rows_a], pos[self.rows_b] = np.arange(len(self.rows_a)), np.arange(len(self.rows_b))
        self.a = pos[np.where(on_b[m], k, m)]
        self.b = pos[np.where(on_b[m], m, k)]
        self.d_a, self.d_b = self.d[self.rows_a], self.d[self.rows_b]
        # the Jacobian works in side order, side a's levels first: there
        # V = diag(u, v) @ basis and w = s @ spectrum give H's eigenpairs from
        # B = u diag(s) v^T, columns (u_i, v_i)/sqrt 2, (u_i, -v_i)/sqrt 2, (0, v_0)
        na = len(self.rows_a)
        e, o = np.sqrt(0.5) * np.eye(na), np.zeros((na, 1))
        self.basis = np.block([[e, e, o], [e, -e, o], [o.T, o.T, np.ones((1, 1))]])
        self.spectrum = np.hstack([np.eye(na), -np.eye(na), o])
        self.d_side = np.concatenate([self.d_a, self.d_b])
        # side-ordered population derivatives to the residual's p_l - p_l0
        side = pos + na * on_b
        self.diff = np.zeros((len(others), len(others) - 1))
        self.diff[side[1:], np.arange(len(others) - 1)] = 1.0
        self.diff[side[0]] = -1.0
        # per-call constants of evaluate
        self.eye_b = np.eye(len(self.d_b))
        self.half_turns = np.array([np.pi, 2 * np.pi])

    def evaluate(self, theta: np.ndarray) -> np.ndarray:
        """(N, k) residuals at (N, k) angles in radians."""
        bad = ~np.isfinite(theta).all(axis=1)
        any_bad = bad.any()
        if any_bad:
            # eigh may raise LinAlgError on non-finite input, which would end
            # the whole block: evaluate those rows at 0, then blank them
            theta = np.where(bad[:, None], 0.0, theta)
        B = np.zeros((len(theta), len(self.d_a), len(self.d_b)))
        B[:, self.a, self.b] = 0.5 * theta
        lam, u = np.linalg.eigh(B @ B.transpose(0, 2, 1))
        s = np.sqrt(np.maximum(lam, 0.0))[:, :, None]
        ut = u.transpose(0, 2, 1)
        W = ut @ B
        # np.sinc(x) = sin(pi x)/(pi x), so s = 0 needs no special case:
        # sin(s)/s = sinc(s/pi) and (1 - cos s)/s**2 = sinc(s/(2 pi))**2 / 2
        sinc = np.sinc(s / self.half_turns)
        # side a's rows of |U|: [C1 | S], in one product
        top = u @ np.concatenate([np.cos(s) * ut, sinc[:, :, :1] * W], axis=2)
        C2 = self.eye_b - W.transpose(0, 2, 1) @ (0.5 * sinc[:, :, 1:] ** 2 * W)
        # diag(U D U+) for the diagonal thermal state D needs only |U|^2
        top *= top
        C1_2, S_2 = top[:, :, : len(self.d_a)], top[:, :, len(self.d_a) :]
        p = np.empty((len(theta), len(self.d)))
        p[:, self.rows_a] = C1_2 @ self.d_a + S_2 @ self.d_b
        p[:, self.rows_b] = self.d_a @ S_2 + (C2 * C2) @ self.d_b
        r = p[:, 1:] - p[:, :1]
        if any_bad:
            r[bad] = np.nan
        return r

    def jacobian(self, theta: np.ndarray) -> np.ndarray:
        """(N, k, k) exact Jacobians at (N, k) finite angles in radians."""
        na, n = len(self.d_a), len(self.d)
        # P = diag(u, v) in side order, with B in its upper right block until
        # the SVD has read it
        P = np.zeros((len(theta), n, n))
        B = P[:, :na, na:]
        B[:, self.a, self.b] = 0.5 * theta
        u, s, vt = np.linalg.svd(B)
        P[:, :na, :na], B[...], P[:, na:, na:] = u, 0.0, vt.transpose(0, 2, 1)
        # H = [[0, B], [B^T, 0]] has eigenpairs (+-s_i, (u_i, +-v_i)/sqrt 2) and
        # (0, (0, v_0)) for B's null vector v_0, v's last column; the products
        # only copy, scale and negate entries, so they add no round-off
        V, w = P @ self.basis, s @ self.spectrum
        # the first Jacobian over every start is a solve's memory peak, so
        # dead dim x dim temporaries are freed as soon as they are used
        del P, B, u, vt
        Vt = V.transpose(0, 2, 1)
        # dp_a/dtheta_j = 2 Re (dU_j D U+)_aa
        #   = sum_pqs V_ap K_pq Q_qs V_as sinc_pq sin(w_s - (w_p + w_q)/2)
        # with K = 2 V^T E_j V = C + C^T for C = outer(V[m_j], V[k_j]) and
        # Q = V^T D V; splitting the sine leaves two real products per step
        # cos and sin of (w_p + w_q)/2, and then of w, from n exponentials
        # rather than n**2 sines and cosines
        z = np.exp(0.5j * w)
        half = z[:, :, None] * z[:, None, :]
        sinc = np.sinc((w[:, :, None] - w[:, None, :]) / (2 * np.pi))
        Gc, Gs = sinc * half.real, sinc * half.imag
        del half, sinc
        Q = Vt @ (self.d_side[:, None] * V)
        z *= z
        Ys = Q @ (z.imag[:, :, None] * Vt)
        Yc = Q @ (z.real[:, :, None] * Vt)
        del Q, z
        dp = np.empty((len(w), len(self.a), n))
        for j, (m, k) in enumerate(zip(self.a, na + self.b)):
            C = V[:, m, :, None] * V[:, k, None, :]
            K = C + C.transpose(0, 2, 1)
            dp[:, j] = np.einsum("baq,bqa->ba", V, (K * Gc) @ Ys - (K * Gs) @ Yc)
        return (dp @ self.diff).transpose(0, 2, 1)


def _newton_steps(J: np.ndarray, r: np.ndarray):
    """Newton steps -J^-1 r for a stack; a singular J fails only its own row."""
    try:
        return np.linalg.solve(J, -r[..., None])[..., 0], np.ones(len(r), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    # slogdet and solve factor with the same LAPACK getrf, so the sign is 0
    # exactly where solve raised LinAlgError
    solved = np.linalg.slogdet(J)[0] != 0
    steps = np.zeros_like(r)
    steps[solved] = np.linalg.solve(J[solved], -r[solved][..., None])[..., 0]
    return steps, solved


def _newton_block(fun: _BatchedResidual, x0: np.ndarray, tol: float):
    """Damped Newton from every row of x0 in lockstep. Returns (x, r, ok) per row.

    Each row follows the single-start rule: converge once max|r| < tol, take
    the Newton step scaled by the first of 1, 1/2, ... (down to 1e-6) that
    lowers ||r||, and stop on a singular Jacobian, a stalled line search, a
    trial point without a finite residual, SLOW_ITERS consecutive accepted
    steps that each cut ||r||**2 by less than SLOW_CUT, or after MAX_ITER
    iterations.  The convergence test comes first, so a row whose slow step
    took it below tol converges, and a row still live after MAX_ITER
    iterations converges only if its last max|r| < tol.  Each iteration
    makes one Jacobian call over the live rows, so a block makes at most
    MAX_ITER.
    """
    x = np.array(x0, dtype=float)
    n, k = x.shape
    r = fun.evaluate(x)
    ok = np.zeros(n, dtype=bool)
    # the live rows in index order, with their x, r and counts of slow steps;
    # a row's x and r are written back to the full arrays when it ends.  go
    # marks the live rows that took a step in the last iteration (all of
    # them before the first)
    live = np.flatnonzero(np.isfinite(r).all(axis=1))
    xl, rl, slow = x[live], r[live], np.zeros(len(live), dtype=int)
    go = np.ones(len(live), dtype=bool)
    for _ in range(MAX_ITER):
        done = np.abs(rl).max(axis=1) < tol
        ok[live[go & done]] = True
        go &= ~done & (slow < SLOW_ITERS)
        if not go.all():
            end = ~go
            x[live[end]], r[live[end]] = xl[end], rl[end]
            live, xl, rl, slow, go = live[go], xl[go], rl[go], slow[go], go[go]
        if not live.size:
            break
        step, solved = _newton_steps(fun.jacobian(xl), rl)
        norm = np.sqrt(np.square(rl).sum(axis=1))
        go = np.zeros(len(live), dtype=bool)
        # try the scales in order, several per call while few rows remain, so
        # that one call holds at most as many trial points as there are
        # starts; j holds the rows still searching, as positions in live
        j = np.flatnonzero(solved)
        tried = 0
        while j.size and tried < len(_STEP_SCALES):
            lams = _STEP_SCALES[tried : tried + max(1, n // j.size)]
            tried += len(lams)
            trial = xl[j, None] + lams[:, None] * step[j, None]
            r_trial = fun.evaluate(trial.reshape(-1, k)).reshape(trial.shape)
            trial_norm = np.sqrt(np.square(r_trial).sum(axis=2))
            # a finite norm needs a finite residual
            better = trial_norm < norm[j, None]
            # each row stops at its first scale that helps or is not finite
            stop = better | ~np.isfinite(r_trial).all(axis=2)
            hit = stop.any(axis=1)
            rows = hit.nonzero()[0]
            first = np.argmax(stop[rows], axis=1)
            take = better[rows, first]
            acc, best = j[rows[take]], (rows[take], first[take])
            xl[acc], rl[acc] = trial[best], r_trial[best]
            # hybrj's actual reduction 1 - (||r_new|| / ||r||)**2
            cut = 1 - (trial_norm[best] / norm[acc]) ** 2
            slow[acc] = np.where(cut < SLOW_CUT, slow[acc] + 1, 0)
            go[acc] = True
            j = j[~hit]
    # rows still live after MAX_ITER iterations converge only below tol
    ok[live[go & (np.abs(rl).max(axis=1) < tol)]] = True
    x[live], r[live] = xl, rl
    return x, r, ok


def _thermal_exponent(d_eq: np.ndarray) -> int:
    """The e with max|d_eq| in [2**(e-1), 2**e), so d_eq / 2**e is exact and at most 1."""
    return int(np.frexp(np.max(np.abs(d_eq)))[1])


def pure_part_at_scale(rho: np.ndarray, system: SpinSystem) -> PurePart:
    """``core.pure_part`` of rho / 2**e, with its coefficients scaled back by 2**e.

    2**e is the power of two that solve_angles divides the thermal
    populations by.  pure_part's tol is absolute; on that scale it is
    relative to the largest thermal population, so a state of tiny or huge
    gammas is judged as one of gammas near 1.  Scaling by a power of two is
    exact, so the coefficients are rho's bit for bit, barring entries below
    the normal float range.
    """
    e = _thermal_exponent(np.diagonal(thermal_deviation(system)))
    part = pure_part(np.ldexp(np.ascontiguousarray(rho, dtype=complex).view(float), -e).view(complex))
    return part._replace(
        uniform_coeff=math.ldexp(part.uniform_coeff, e), pure_coeff=math.ldexp(part.pure_coeff, e)
    )


def _grid_starts(k: int, per_dim: int) -> list[tuple[float, ...]]:
    pts = [i * 360.0 / (per_dim + 1) for i in range(1, per_dim + 1)]
    return list(itertools.product(pts, repeat=k))


def solve_angles(
    system: SpinSystem,
    spec: CascadeSpec,
    grid_per_dim: int | None = None,
    newton_tol: float = 1e-11,
) -> SolverResult:
    """Find pulse-angle vectors equalizing the non-target populations.

    Multi-start damped Newton on :func:`residual`, with exact Jacobians,
    advancing every start in one lockstep block through
    :class:`_BatchedResidual`'s real kernels; no kernel call holds more
    rows than there are starts, so MAX_GRID_STARTS also bounds memory.
    Starts are a uniform grid interior to
    (0, 360) degrees per dimension (5 points per dimension up to 2 steps, 3
    up to 6, then 1; at most MAX_GRID_STARTS in all).  ``newton_tol`` is
    relative: a root may leave no |population difference| as large as
    newton_tol * max|d|, d the thermal populations, and the bound is strict,
    so 0 accepts no root.  The solver works on d scaled by a power of two to
    max|d| in [1/2, 1), which is exact, so scaling every gamma by 2**j returns
    the same result bit for bit.  Flipping the sign of
    any angle leaves the residual unchanged, so converged roots are reported
    as |theta|, deduplicated at 0.01 degrees componentwise, and sorted by
    largest component, then lexicographically, both rounded to 1e-6
    degrees.  Each returned root is checked once more on
    :func:`residual`'s dense path, all of them in one stack, against the
    same bound; ``residual_norms`` are the
    solver's own, in the units of the gammas.  When that check rejects every
    candidate, the NoSolutionError says how many and gives the smallest.
    Components are reported wherever Newton lands them, so some may exceed
    360.
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

    d_eq = np.real(np.diagonal(thermal_deviation(system)))
    # residuals are linear in d and their roots do not depend on its scale;
    # a power-of-two scale is exact and keeps the kernel's norms far from
    # overflow and underflow
    e = _thermal_exponent(d_eq)
    d = np.ldexp(d_eq, -e)
    tol = newton_tol * np.max(np.abs(d))
    fun = _BatchedResidual(spec, d)
    x0 = np.radians(np.array(starts, dtype=float))
    x, r, ok = _newton_block(fun, x0, tol)
    worst = np.ldexp(np.max(np.abs(r), axis=1), e)
    # a newton_tol above 1 at gammas near the float range can take the bound
    # to inf, which accepts every point, as such a tolerance asks
    with np.errstate(over="ignore"):
        bound = np.ldexp(tol, e)

    # a diagonal +-1 similarity flips the sign of any angle of a cascade,
    # which is a tree, and leaves |U|^2 alone, so roots are folded onto |theta|
    folded, folded_norms = np.abs(np.degrees(x[ok])), worst[ok]
    # each root is compared with the distinct ones before it, held in order
    # at the top of distinct
    kept: list[int] = []
    distinct = np.empty_like(folded)
    for i, deg in enumerate(folded):
        if not kept or np.abs(distinct[: len(kept)] - deg).max(axis=1).min() >= DEDUP_TOL_DEG:
            distinct[len(kept)] = deg
            kept.append(i)
    # the batched path is the solver's own; hold each root to residual's
    # promise, all of them in one stack through the dense exponential
    U = preparation_unitary(spec, distinct[: len(kept)])
    checks = np.abs(_population_differences(U, d_eq, spec.target)).max(axis=1)
    passed = checks < bound
    if not passed.any():
        why = (
            f"residual rejected {len(checks)} candidate(s), smallest max|residual| "
            f"{np.min(checks):.3e}" if len(checks)
            else f"best residual {np.min(worst):.3e} is not below the tolerance {bound:.3e}"
        )
        raise NoSolutionError(f"no root found from {len(starts)} starts; {why}")
    kept = [i for i, good in zip(kept, passed) if good]
    roots = [tuple(float(v) for v in folded[i]) for i in kept]
    norms = [float(folded_norms[i]) for i in kept]
    # smallest largest angle first, so prepare_pseudo_pure picks a tame
    # vector and every root inside [0, 360) comes before the rest; mirror
    # roots tie on the largest angle up to round-off, so compare at 1e-6 deg
    order = sorted(
        range(len(roots)), key=lambda i: [round(v, 6) for v in (max(roots[i]), *roots[i])]
    )
    return SolverResult(
        roots=tuple(roots[i] for i in order),
        residual_norms=tuple(norms[i] for i in order),
        starts_tried=len(starts),
        converged=tuple(bool(v) for v in ok),
    )


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
        part = pure_part_at_scale(rho, system)
        if part.target != target:
            raise NotPseudoPureError(
                f"prepared state is pseudo-pure at level {part.target}, not {target}"
            )
    return rho, solution
