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
import numbers
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
#: Line-search scales of a Newton step: 1, 1/2, ..., 1/128; a step that lowers
#: ||r|| at none of them is a stalled line search (Dennis & Schnabel,
#: Numerical Methods for Unconstrained Optimization and Nonlinear Equations,
#: SIAM 1996, A6.3.1).  Over the 24 default solves, a floor of 1/64 changes
#: roots[0] in 2 cases; 1/128 keeps all 24 and every root inside [0, 360),
#: and 1/256 keeps them too but evaluates 13% more residual rows on
#: homonuclear-3 and hetero-3 at target 000 (49.9k against 44.2k, and 81.8k
#: with halving down to 1e-6).
_STEP_SCALES = 0.5 ** np.arange(8)
#: Largest number of grid starts solve_angles will build.  A solve is one
#: Newton block, so this also bounds its memory: the largest grids under it
#: grow peak RSS by about 58 MB at 2 spins (--grid 316), 154 MB at 3
#: (--grid 6) and 323 MB at 4 (--grid 2), the first Jacobian being the peak.
MAX_GRID_STARTS = 10**5
#: solve_angles' default bound on a root's |population differences|, relative
#: to the largest thermal population.
NEWTON_TOL = 1e-11


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


def residual(angles_deg, system: SpinSystem, spec: CascadeSpec) -> np.ndarray:
    """Population differences p_l - p_l0 over non-target levels l != l0.

    l0 is the first non-target level in index order.  The zero vector means
    every non-target population is equal, which is the preparation
    condition.  Angles are degrees, one per cascade step; an (R, k) stack
    of angle vectors gives (R, 2**n - 2) residuals, each with the bits of
    its own single call.
    """
    if system.n_spins != spec.n_spins:
        raise InputError("system and cascade disagree on the spin count")
    U = preparation_unitary(spec, angles_deg)
    d_eq = np.real(np.diagonal(thermal_deviation(system)))
    # diag(U rho U+) for diagonal rho needs only |U|^2
    p = (np.abs(U) ** 2) @ d_eq
    others = [lev - 1 for lev in range(1, len(d_eq) + 1) if lev != spec.target]
    return p[..., others[1:]] - p[..., others[:1]]


#: (-1)**j / (2j + 1)! and (-1)**j / (2j + 2)!, j = 1..7: the Taylor coefficients
#: of sin(s)/s and (1 - cos s)/s**2 in lambda = s**2 past the constant; at
#: lambda < 1/4 the first term dropped is below 2e-18
_SERIES = np.array([[(-1) ** j / math.factorial(2 * j + m) for j in range(1, 8)] for m in (1, 2)])


def _gram_divided_differences(s: np.ndarray, f1: np.ndarray, f2: np.ndarray):
    """Divided differences over lambda = s**2 of cos s, f1 = sin(s)/s and f2 = (1 - cos s)/s**2.

    s is (N, na), nonnegative, and f1 and f2 are (N, na, 1) values at s; each
    result is (N, na, na), with f'(lambda_p) on the diagonal, and its
    round-off is a few eps wherever s is.  For cos s the divided difference is
    -sinc((s_p + s_q)/2) sinc((s_p - s_q)/2) / 2 at any pair.  The other two
    come from it and from the divided difference of s sin s = lambda f1,
    (cos h sinc d + sinc h cos d) / 2 with h and d the half sum and half
    difference, through DD[lambda f] = lambda_p DD[f] + f(lambda_q) solved
    with lambda_p the larger.  That divides by it, so pairs with both
    lambda < 1/4 sum the Taylor series instead, whose divided differences are
    those of the powers, DD[lambda**j] = sum_{i<j} lambda_p**i lambda_q**(j-1-i).
    """
    sp, sq = s[:, :, None], s[:, None, :]
    half = 0.5 * np.stack([sp + sq, sp - sq])
    sinc, cos = np.sinc(half / np.pi), np.cos(half)
    F0 = -0.5 * sinc[0] * sinc[1]
    p_hi = sp >= sq
    hi2 = np.where(p_hi, sp * sp, sq * sq)
    small = hi2 < 0.25
    # small pairs are overwritten below; 1 keeps their quotient finite
    hi2[small] = 1.0
    F1 = (0.5 * (cos[0] * sinc[1] + sinc[0] * cos[1]) - np.where(p_hi, f1.transpose(0, 2, 1), f1)) / hi2
    F2 = -(F0 + np.where(p_hi, f2.transpose(0, 2, 1), f2)) / hi2
    if small.any():
        x, y = (np.broadcast_to(v * v, small.shape)[small] for v in (sp, sq))
        power, y_pow = np.ones_like(x), np.ones_like(x)
        series = np.zeros((2, len(x)))
        # elementwise, so that a pair's bits do not depend on the other pairs
        for c in _SERIES.T:
            # power is DD[lambda**j]; the next is x power + y**j
            series += c[:, None] * power
            y_pow *= y
            power = x * power + y_pow
        F1[small], F2[small] = series
    return F0, F1, F2


#: The six entries of a symmetric 3 x 3, diagonal first (00 11 22 01 02 12),
#: as flat row-major indices; the 3 x 3 again from those six; and its
#: adjugate's six as x[i] * x[j] - x[k] * x[l] over the columns (i, j, k, l)
_SYM3 = np.array([0, 4, 8, 1, 2, 5])
_SYM3_FULL = np.array([0, 3, 4, 3, 1, 5, 4, 5, 2])
_SYM3_ADJ = np.array([[1, 0, 0, 5, 3, 3], [2, 2, 1, 4, 5, 4], [5, 4, 3, 3, 1, 0], [5, 4, 3, 2, 4, 5]])


def _gram_eigh(M: np.ndarray):
    """Eigenpairs (lam, u) of a stack of Gram matrices, as ``np.linalg.eigh`` gives them.

    A 3 x 3 M takes Eberly's robust closed form instead (D. Eberly, A Robust
    Eigensolver for 3 x 3 Symmetric Matrices, Geometric Tools, 2014), and
    each row's bits are its own.  M is divided by a power of two near its
    largest entry, which is exact.  With q = tr M / 3 and p**2 =
    |M - q I|_F**2 / 6, Cardano's trigonometric roots beta of the traceless
    h = (M - q I) / p give the extreme eigenvalue farther from the middle
    one, and its eigenvector is the longest row of adj(h - beta I), which
    has rank one.  One exact Jacobi rotation of M restricted to that
    vector's orthonormal complement (Duff et al., J. Comput. Graph. Tech. 6
    (2017) 1) gives the other two eigenpairs, so a nearly repeated pair
    costs no accuracy.  lam comes unsorted, the extreme eigenvalue first.
    p is clamped to the normal range, so a multiple of I (M = 0 at theta =
    0, say) has h = 0 and takes the first unit vector and no rotation.
    """
    if M.shape[1] != 3:
        return np.linalg.eigh(M)
    n = len(M)
    # M is positive semidefinite, so its largest entry is on the diagonal
    x = M.reshape(n, 9).T[_SYM3]
    e = np.frexp(x[:3].max(axis=0))[1]
    np.ldexp(x, -e, out=x)
    q = (x[0] + x[1] + x[2]) / 3
    h = x.copy()
    h[:3] -= q
    h2 = h * h
    p2 = (h2[0] + h2[1] + h2[2] + 2 * (h2[3] + h2[4] + h2[5])) / 6
    h /= np.sqrt(np.maximum(p2, np.finfo(float).tiny))
    adj = h[_SYM3_ADJ[0]] * h[_SYM3_ADJ[1]] - h[_SYM3_ADJ[2]] * h[_SYM3_ADJ[3]]
    half_det = np.clip(0.5 * (h[0] * adj[0] + h[3] * adj[3] + h[4] * adj[4]), -1.0, 1.0)
    # h's eigenvalues are 2 cos(phi + 2 pi j / 3); the largest (j = 0) is the
    # farther from the middle one when det h >= 0, the smallest (j = 1) otherwise
    beta = 2 * np.cos(np.arccos(half_det) / 3 + np.where(half_det >= 0, 0.0, 2 * np.pi / 3))
    # adj(h - beta I) = adj(h) + beta (h + beta I), h being traceless
    adj += beta * h
    adj[:3] += beta * beta
    rows = adj[_SYM3_FULL].reshape(3, 3, n)
    norms = rows * rows
    norms = norms[:, 0] + norms[:, 1] + norms[:, 2]
    v = np.where(
        (norms[0] >= norms[1]) & (norms[0] >= norms[2]),
        rows[0],
        np.where(norms[1] >= norms[2], rows[1], rows[2]),
    )
    v /= np.sqrt(norms.max(axis=0))
    # Q holds v and an orthonormal basis of its complement, one vector per row
    Q = np.empty((3, 3, n))
    Q[0] = v
    sign = np.copysign(1.0, v[2])
    c = -1.0 / (sign + v[2])
    d = v[0] * v[1] * c
    Q[1] = 1.0 + sign * v[0] * v[0] * c, sign * d, -sign * v[0]
    Q[2] = d, sign + v[1] * v[1] * c, -v[1]
    # sums of three products, written out so that a row's bits do not depend
    # on how many rows share the call
    full = x[_SYM3_FULL].reshape(3, 3, n)
    MQ = full[:, 0] * Q[:, None, 0]
    MQ += full[:, 1] * Q[:, None, 1]
    MQ += full[:, 2] * Q[:, None, 2]
    QMQ = Q * MQ
    lam = QMQ[:, 0] + QMQ[:, 1] + QMQ[:, 2]
    # the rotation by atan(t) that zeroes the complement's off-diagonal entry,
    # in a form that neither overflows nor divides by zero
    off = Q[1, 0] * MQ[2, 0] + Q[1, 1] * MQ[2, 1] + Q[1, 2] * MQ[2, 2]
    gap = lam[2] - lam[1]
    den = np.abs(gap) + np.hypot(gap, 2 * off)
    t = np.divide(np.copysign(2.0, -gap) * off, den, out=np.zeros(n), where=den > 0)
    cos = 1 / np.sqrt(1 + t * t)
    sin = t * cos
    lam[1] += t * off
    lam[2] -= t * off
    Q[1], Q[2] = cos * Q[1] + sin * Q[2], cos * Q[2] - sin * Q[1]
    lam = np.ascontiguousarray(np.ldexp(lam, e).T)
    return lam, np.ascontiguousarray(Q.transpose(2, 1, 0))


class _BatchedResidual:
    """Residuals of one cascade at a stack of angle vectors, with exact Jacobians.

    Only the non-target levels take part; the target keeps its population.
    Every step flips one spin, so it joins a level of the target's bit-count
    parity (side a, 2**(n-1) - 1 levels) to one of the other parity (side b,
    2**(n-1) levels), and the x-pulse generator is H = [[0, B], [B^T, 0]]
    with B real, B_ab = theta_j / 2 for step j.  Residuals take the
    eigenpairs of the Gram matrix M = B B^T = u diag(s**2) u^T from
    :func:`_gram_eigh`: a closed form for every 3 x 3 M, at 3 spins, and
    one batched eigh at other sizes.  With W = u^T B the propagator is
    [[C1, -i S], [-i S^T, C2]] with C1 = u cos(s) u^T, S = u (sin(s)/s) W
    and C2 = I - W^T ((1 - cos s)/s**2) W, all real, so the populations are
    sums of their squares.  Both kernels keep one side order, side a's
    levels then side b's, each in index order, and ``diff`` maps populations
    in it to the residual's p_l - p_l0.
    ``evaluate`` hands back each row's (s**2, u), and Jacobians differentiate
    those functions of M in that eigenbasis, with no decomposition of their
    own: step j moves M by u X_j u^T, X_j the symmetric part of
    outer(u[a_j], W[:, b_j]), so it moves f(M) by u (F o X_j) u^T, F the
    divided differences of f over s**2 (Higham, Functions of Matrices, SIAM
    2008, 3.2), which :func:`_gram_divided_differences` takes exactly at
    repeated and zero s; B's own move enters S and C2 once more.  One
    batched product gives every step.  The Gram route squares B, so the
    round-off of residuals and Jacobians alike grows as eps * |theta|**2,
    against eps * |theta| for an SVD of B.  At 2 spins side a is one level
    and M is 1 x 1: its one eigenvalue is also its largest, so round-off
    there stays eps * |theta|.  Rows whose angles are not finite come back
    as NaN, factors included.  This path is the solver's own;
    :func:`residual` stays on ``core.generator`` and ``core.expm_unitary``
    to check its roots.
    """

    def __init__(self, spec: CascadeSpec, d_eq: np.ndarray):
        # non-target levels in index order, so the residual's reference is the first
        others = [lev for lev in range(1, len(d_eq) + 1) if lev != spec.target]
        # the one side order of both kernels, from a stable sort: side a's
        # levels, then side b's, which differ from the target in an odd
        # number of bits; side a has 2**(n-1) - 1 of the 2**n - 1 levels
        order = np.array(sorted(others, key=lambda lev: ((lev - 1) ^ (spec.target - 1)).bit_count() % 2))
        na = len(order) // 2
        at = np.empty(len(d_eq) + 1, dtype=int)
        at[order] = np.arange(len(order))
        # every step joins one level of each side, and side a comes first
        ends = at[np.array(spec.steps)]
        self.a, self.b = ends.min(axis=1), ends.max(axis=1) - na
        self.d_side = d_eq[order - 1]
        self.d_a, self.d_b = self.d_side[:na], self.d_side[na:]
        # side-ordered populations to the residual's p_l - p_l0
        self.diff = np.zeros((len(order), len(order) - 1))
        self.diff[at[others[1:]], np.arange(len(order) - 1)] = 1.0
        self.diff[at[others[0]]] = -1.0
        # per-call constants of evaluate
        self.eye_b = np.eye(len(self.d_b))
        self.half_turns = np.array([np.pi, 2 * np.pi])

    def _block(self, theta: np.ndarray) -> np.ndarray:
        B = np.zeros((len(theta), len(self.d_a), len(self.d_b)))
        B[:, self.a, self.b] = 0.5 * theta
        return B

    def _propagator(self, B: np.ndarray, lam: np.ndarray, u: np.ndarray):
        """s, W, f1 = sin(s)/s, f2 = (1 - cos s)/s**2, [C1 | S] and C2 from B's Gram eigenpairs."""
        s = np.sqrt(np.maximum(lam, 0.0))[:, :, None]
        ut = u.transpose(0, 2, 1)
        W = ut @ B
        # np.sinc(x) = sin(pi x)/(pi x), so s = 0 needs no special case:
        # sin(s)/s = sinc(s/pi) and (1 - cos s)/s**2 = sinc(s/(2 pi))**2 / 2
        sinc = np.sinc(s / self.half_turns)
        f1, f2 = sinc[:, :, :1], 0.5 * sinc[:, :, 1:] ** 2
        # side a's rows of U: [C1 | S], in one product
        top = u @ np.concatenate([np.cos(s) * ut, f1 * W], axis=2)
        C2 = self.eye_b - W.transpose(0, 2, 1) @ (f2 * W)
        return s[:, :, 0], W, f1, f2, top, C2

    def evaluate(self, theta: np.ndarray):
        """(N, k) residuals at (N, k) angles in radians, and the factors ``jacobian`` reads there.

        The factors are lam (N, na) and u (N, na, na), the eigenpairs of each
        row's Gram matrix.
        """
        bad = ~np.isfinite(theta).all(axis=1)
        any_bad = bad.any()
        if any_bad:
            # on non-finite input eigh may raise LinAlgError, which would end
            # the whole block, and the closed form would warn: evaluate
            # those rows at 0, then blank them
            theta = np.where(bad[:, None], 0.0, theta)
        B = self._block(theta)
        lam, u = _gram_eigh(B @ np.ascontiguousarray(B.transpose(0, 2, 1)))
        _, _, _, _, top, C2 = self._propagator(B, lam, u)
        # diag(U D U+) for the diagonal thermal state D needs only |U|^2
        top *= top
        C1_2, S_2 = top[:, :, : len(self.d_a)], top[:, :, len(self.d_a) :]
        # populations in side order, then their differences in index order
        p = np.concatenate([C1_2 @ self.d_a + S_2 @ self.d_b, self.d_a @ S_2 + (C2 * C2) @ self.d_b], axis=1)
        r = p @ self.diff
        if any_bad:
            r[bad] = lam[bad] = u[bad] = np.nan
        return r, (lam, u)

    def jacobian(self, theta: np.ndarray, lam: np.ndarray, u: np.ndarray) -> np.ndarray:
        """(N, k, k) exact Jacobians at (N, k) finite angles in radians, from ``evaluate``'s factors there."""
        B = self._block(theta)
        s, W, f1, f2, top, C2 = self._propagator(B, lam, u)
        # the first Jacobian over every start is a solve's memory peak, so
        # dead temporaries are freed as soon as they are used
        del B
        na, a, b = len(self.d_a), self.a, self.b
        C1, S = top[:, :, :na], top[:, :, na:]
        F0, F1, F2 = _gram_divided_differences(s, f1, f2)
        # dp_l = sum_pq T_lpq Y_jpq over the steps j, with Y_j = outer(u[a_j], W[:, b_j]);
        # the Gram part of T, from dC1 = u (F0 o X) u^T, dS = u (F1 o X) W and
        # dC2 = -W^T (F2 o X) W with X = (Y + Y^T)/2, and dp = 2 (U o dU) d
        # a contiguous W^T makes T's products faster; it is freed with them
        Wt = np.ascontiguousarray(W.transpose(0, 2, 1))
        G, Hs = (C1 * self.d_a) @ u, (S * self.d_b) @ Wt
        P, R = (S.transpose(0, 2, 1) * self.d_a) @ u, (C2 * self.d_b) @ Wt
        F0, F1, F2 = F0[:, None], F1[:, None], F2[:, None]
        T = np.concatenate([
            u[:, :, :, None] * (G[:, :, None] * F0 + Hs[:, :, None] * F1),
            P[:, :, :, None] * Wt[:, :, None] * F1 - Wt[:, :, :, None] * R[:, :, None] * F2,
        ], axis=1)
        del F0, F1, F2, G, Hs, P, R, Wt
        T += T.transpose(0, 1, 3, 2)
        ua = u[:, a].transpose(0, 2, 1)
        Y = ua[:, :, None] * W[:, None, :, b]
        dp = T.reshape(*T.shape[:2], -1) @ Y.reshape(len(Y), -1, len(a))
        del T, Y
        # dB_j = E_j / 2 itself enters S = g1(M) B and C2 = I - B^T g2(M) B,
        # g1 = sin(s)/s and g2 = (1 - cos s)/s**2, through g1(M)[:, a_j] and
        # (g2(M) B)[a_j], which meet column b_j of S and of C2 (sign folded in)
        g = np.concatenate([u * f1.transpose(0, 2, 1), (W * f2).transpose(0, 2, 1)], axis=1) @ ua
        rank1 = np.concatenate([S, -C2], axis=1)[:, :, b] * g
        dp += rank1 * self.d_b[b]
        # and, on level b_j itself, the other factor of (U o dU) d
        dp[:, na + b, np.arange(len(b))] += self.d_side @ rank1
        return self.diff.T @ dp


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
    the Newton step scaled by the first of 1, 1/2, ..., 1/128 that
    lowers ||r||, and stop on a singular Jacobian, a stalled line search, a
    trial point without a finite residual, SLOW_ITERS consecutive accepted
    steps that each cut ||r||**2 by less than SLOW_CUT, or after MAX_ITER
    iterations.  The convergence test comes first, so a row whose slow step
    took it below tol converges, and a row still live after MAX_ITER
    iterations converges only if its last max|r| < tol.  One boolean mask
    over all rows says which are live; x, r, the factors ``evaluate`` hands
    back beside r and the slow-step counts are full-length and updated in
    place.  Each iteration makes one Jacobian call over the live rows, with
    their factors, so a block makes at most MAX_ITER.
    """
    x = np.array(x0, dtype=float)
    n, k = x.shape
    r, factors = fun.evaluate(x)
    ok = np.zeros(n, dtype=bool)
    live = np.isfinite(r).all(axis=1)
    slow = np.zeros(n, dtype=int)
    for _ in range(MAX_ITER):
        i = live.nonzero()[0]
        done = np.abs(r[i]).max(axis=1) < tol
        ok[i[done]] = True
        live[i] = ~done & (slow[i] < SLOW_ITERS)
        i = i[live[i]]
        if not i.size:
            break
        step, solved = _newton_steps(fun.jacobian(x[i], *(f[i] for f in factors)), r[i])
        live[i[~solved]] = False
        i, step = i[solved], step[solved]
        norm = np.sqrt(np.square(r[i]).sum(axis=1))
        # try the scales in order, several per call while few rows remain, so
        # that one call holds at most as many trial points as there are
        # starts; i holds the rows still searching
        tried = 0
        while i.size and tried < len(_STEP_SCALES):
            lams = _STEP_SCALES[tried : tried + max(1, n // i.size)]
            tried += len(lams)
            trial = x[i, None] + lams[:, None] * step[:, None]
            r_trial, f_trial = fun.evaluate(trial.reshape(-1, k))
            r_trial = r_trial.reshape(trial.shape)
            trial_norm = np.sqrt(np.square(r_trial).sum(axis=2))
            # a finite norm needs a finite residual
            better = trial_norm < norm[:, None]
            # each row stops at its first scale that helps or is not finite
            stop = better | ~np.isfinite(r_trial).all(axis=2)
            hit = stop.any(axis=1)
            rows = hit.nonzero()[0]
            first = np.argmax(stop[rows], axis=1)
            take = better[rows, first]
            acc, best = i[rows[take]], (rows[take], first[take])
            x[acc], r[acc] = trial[best], r_trial[best]
            for f, f_new in zip(factors, f_trial):
                f[acc] = f_new.reshape(trial.shape[:2] + f_new.shape[1:])[best]
            # hybrj's actual reduction 1 - (||r_new|| / ||r||)**2
            cut = 1 - (trial_norm[best] / norm[rows[take]]) ** 2
            slow[acc] = np.where(cut < SLOW_CUT, slow[acc] + 1, 0)
            live[i[rows[~take]]] = False
            i, step, norm = i[~hit], step[~hit], norm[~hit]
        # a stalled line search ends the rows still searching
        live[i] = False
    # rows still live after MAX_ITER iterations converge only below tol
    ok |= live & (np.abs(r).max(axis=1) < tol)
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
    newton_tol: float = NEWTON_TOL,
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

    Measured limits at 2 spins: Newton stops about 2.7e-4 degrees short of
    a double root (homonuclear-2 targets 01 and 10, |theta| = 360), and the
    default 5 x 5 grid can miss an in-box root that grid_per_dim=6 finds.
    """
    if system.n_spins != spec.n_spins:
        raise InputError("system and cascade disagree on the spin count")
    # isinstance(True, int) holds, but a flag is not a count or a scale
    if isinstance(newton_tol, bool) or not isinstance(newton_tol, numbers.Real):
        raise InputError(f"newton_tol must be a real number, got {newton_tol!r}")
    if not math.isfinite(newton_tol) or newton_tol < 0:
        raise InputError(f"newton_tol must be finite and nonnegative, got {newton_tol}")
    newton_tol = abs(newton_tol)  # -0.0 is 0, and the no-root message says so
    k = len(spec.steps)
    if grid_per_dim is None:
        grid_per_dim = 5 if k <= 2 else (3 if k <= 6 else 1)
    if isinstance(grid_per_dim, bool) or not isinstance(grid_per_dim, (int, np.integer)):
        raise InputError(f"grid_per_dim must be an integer, got {grid_per_dim!r}")
    grid_per_dim = int(grid_per_dim)  # a numpy integer's power below would wrap
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
    # a root is kept unless a kept root before it lies within DEDUP_TOL_DEG;
    # each kept root drops the later ones it covers in one pass, so rest
    # holds the roots no kept root covers, in order
    kept: list[int] = []
    rest = np.arange(len(folded))
    while rest.size:
        kept.append(rest[0])
        rest = rest[np.abs(folded[rest] - folded[rest[0]]).max(axis=1) >= DEDUP_TOL_DEG]
    # the batched path is the solver's own; hold each root to residual's
    # promise, all of them in one stack through the dense exponential
    checks = np.abs(residual(folded[kept], system, spec)).max(axis=1)
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
