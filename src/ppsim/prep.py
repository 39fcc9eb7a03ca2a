"""Pseudo-pure state preparation by simultaneous line-selective pulses.

A cascade chains every non-target level through single-quantum transitions.
One x-phase pulse per transition, all applied simultaneously (a single
generator, a single exponential), followed by an ideal crusher, leaves the
non-target populations equal and the target population at its thermal
value.  The pulse angles are roots of the population-equalization residual,
found by a damped Newton iteration from a grid of starting points.
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    SpinSystem,
    crush,
    evolve,
    expm_unitary,
    generator,
    pure_part,
    thermal_deviation,
)
from .errors import InputError, NoSolutionError, NotPseudoPureError

JACOBIAN_STEP_RAD = 1e-6
DEDUP_TOL_DEG = 0.01
#: Newton iterations per start.
MAX_ITER = 60
#: Largest number of grid starts solve_angles will build.
MAX_GRID_STARTS = 10**5

#: Known angle vectors for common systems, used only as extra solver starts.
_SEED_STARTS = {
    2: ((77.40, 77.40), (127.13, 186.01)),
    6: (
        (182.02, 179.04, 229.38, 193.46, 200.28, 105.75),
        (201.89, 258.83, 313.40, 364.31, 295.37, 234.18),
    ),
}


class CascadeStep(NamedTuple):
    m: int
    k: int
    spin: int


class ValidationReport(NamedTuple):
    ok: bool
    problem: str | None


@dataclass(frozen=True)
class CascadeSpec:
    """An ordered chain of single-quantum transitions avoiding the target."""

    target: int
    steps: tuple[CascadeStep, ...]
    n_spins: int


@dataclass(frozen=True)
class SolverResult:
    roots: tuple[tuple[float, ...], ...]
    residual_norms: tuple[float, ...]
    starts_tried: int
    converged: tuple[bool, ...]


def _flipped_spin(m: int, k: int, n_spins: int) -> int:
    d = (m - 1) ^ (k - 1)
    if d == 0 or d & (d - 1):
        raise InputError(f"transition ({m}, {k}) does not flip exactly one bit")
    return n_spins - d.bit_length() + 1


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

    The target-1 route is relabeled for other targets by XORing every level
    with the target's bit pattern, then reversing the walk; this reproduces
    the usual tabulated 2-spin routes for all four targets.
    """
    if n_spins < 2:
        raise InputError("cascades need at least two spins")
    dim = 2**n_spins
    if not 1 <= target <= dim:
        raise InputError(f"target level {target} out of range 1..{dim}")
    path = _target1_path(n_spins)
    steps1 = list(zip(path, path[1:]))
    if target == 1:
        pairs = steps1
    else:
        t = target - 1
        relabel = lambda lev: ((lev - 1) ^ t) + 1
        pairs = [(relabel(k), relabel(m)) for m, k in reversed(steps1)]
    steps = tuple(CascadeStep(m, k, _flipped_spin(m, k, n_spins)) for m, k in pairs)
    return CascadeSpec(target=target, steps=steps, n_spins=n_spins)


def validate_cascade(spec: CascadeSpec) -> ValidationReport:
    """Check the chain constraints; reports the first violation, never raises."""
    dim = 2**spec.n_spins
    want = dim - 2
    if len(spec.steps) != want:
        return ValidationReport(False, f"expected {want} steps, got {len(spec.steps)}")
    degree: dict[int, int] = {}
    for step in spec.steps:
        for lev in (step.m, step.k):
            if not 1 <= lev <= dim:
                return ValidationReport(False, f"level {lev} out of range 1..{dim}")
            if lev == spec.target:
                return ValidationReport(False, f"step {step} touches the target level")
            degree[lev] = degree.get(lev, 0) + 1
        d = (step.m - 1) ^ (step.k - 1)
        if d == 0 or d & (d - 1):
            return ValidationReport(False, f"step ({step.m}, {step.k}) flips more than one bit")
        if _flipped_spin(step.m, step.k, spec.n_spins) != step.spin:
            return ValidationReport(False, f"step {step} labels the wrong spin")
    if len(degree) != dim - 1:
        missing = sorted(set(range(1, dim + 1)) - {spec.target} - set(degree))
        return ValidationReport(False, f"levels not covered: {missing}")
    ends = sorted(lev for lev, d in degree.items() if d == 1)
    if any(d > 2 for d in degree.values()) or len(ends) != 2:
        return ValidationReport(False, "steps do not form a simple path")
    # acyclic + degrees <= 2 + two endpoints + full coverage with dim-2 edges
    # over dim-1 vertices implies a connected Hamiltonian path
    return ValidationReport(True, None)


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


def _populations(angles_rad: np.ndarray, d_eq: np.ndarray, spec: CascadeSpec) -> np.ndarray:
    # diag(U rho U+) for diagonal rho needs only |U|^2
    return (np.abs(_propagator(angles_rad, spec)) ** 2) @ d_eq


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
    return _residual_from_rad(np.radians(angles), d_eq, spec)


def _residual_from_rad(angles_rad: np.ndarray, d_eq: np.ndarray, spec: CascadeSpec) -> np.ndarray:
    p = _populations(angles_rad, d_eq, spec)
    others = [lev for lev in range(1, len(d_eq) + 1) if lev != spec.target]
    ref = others[0]
    return np.array([p[lev - 1] - p[ref - 1] for lev in others[1:]])


def _newton(fun, x0: np.ndarray, tol: float):
    """Damped Newton with a forward-difference Jacobian. Returns (x, r, ok)."""
    x = np.array(x0, dtype=float)
    r = fun(x)
    for _ in range(MAX_ITER):
        if np.max(np.abs(r)) < tol:
            return x, r, True
        J = np.empty((r.size, x.size))
        for j in range(x.size):
            xh = x.copy()
            xh[j] += JACOBIAN_STEP_RAD
            J[:, j] = (fun(xh) - r) / JACOBIAN_STEP_RAD
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            return x, r, False
        norm = np.linalg.norm(r)
        lam = 1.0
        while lam > 1e-6:
            x_new = x + lam * step
            r_new = fun(x_new)
            if np.linalg.norm(r_new) < norm:
                x, r = x_new, r_new
                break
            lam *= 0.5
        else:
            return x, r, False
    return x, r, bool(np.max(np.abs(r)) < tol)


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

    Multi-start damped Newton on :func:`residual`.  Starts are a uniform
    grid interior to (0, 360) degrees per dimension (5 points per dimension
    up to 2 steps, 3 up to 6, then 1; at most MAX_GRID_STARTS in all) plus
    known reference vectors when the step count matches.  Converged roots
    are deduplicated at 0.01 degrees componentwise and sorted; each
    satisfies max |residual| < newton_tol.
    Roots are reported wherever Newton lands them, so components slightly
    outside the start box are kept.
    """
    report = validate_cascade(spec)
    if not report.ok:
        raise InputError(f"invalid cascade: {report.problem}")
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
    starts.extend(_SEED_STARTS.get(k, ()))

    d_eq = np.real(np.diagonal(thermal_deviation(system)))
    fun = lambda x: _residual_from_rad(x, d_eq, spec)

    roots: list[tuple[float, ...]] = []
    norms: list[float] = []
    converged: list[bool] = []
    best = math.inf
    for start in starts:
        x, r, ok = _newton(fun, np.radians(start), newton_tol)
        converged.append(ok)
        if not ok:
            best = min(best, float(np.max(np.abs(r))))
            continue
        deg = tuple(float(v) for v in np.degrees(x))
        if any(max(abs(a - b) for a, b in zip(deg, seen)) < DEDUP_TOL_DEG for seen in roots):
            continue
        roots.append(deg)
        norms.append(float(np.max(np.abs(r))))
    if not roots:
        raise NoSolutionError(
            f"no root found from {len(starts)} starts; best residual {best:.3e}"
        )
    # roots inside [0, 360) per component first, then stragglers, each
    # group lexicographic, so prepare_pseudo_pure picks a tame vector
    in_box = lambda r: all(0.0 <= v < 360.0 for v in r)
    order = sorted(range(len(roots)), key=lambda i: (not in_box(roots[i]), roots[i]))
    return SolverResult(
        roots=tuple(roots[i] for i in order),
        residual_norms=tuple(norms[i] for i in order),
        starts_tried=len(starts),
        converged=tuple(converged),
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
