"""Operator checks and reference implementations shared by the test modules; the package does not need them."""

import numpy as np

from ppsim import core, prep


def spin_op(i: int, axis: str, n_spins: int) -> np.ndarray:
    """Spin operator sigma_axis/2 on spin i (1-based), identity elsewhere, by Kronecker products."""
    op = np.kron(np.eye(2 ** (i - 1), dtype=complex), core.PAULI[axis] / 2)
    return np.kron(op, np.eye(2 ** (n_spins - i), dtype=complex))


def projector(i: int, sign: str, n_spins: int) -> np.ndarray:
    """Projector onto spin i up ('+', bit 0) or down ('-', bit 1)."""
    s = {"+": 1.0, "-": -1.0}[sign]
    return 0.5 * (np.eye(2**n_spins, dtype=complex) + 2 * s * spin_op(i, "z", n_spins))


def thermal_reference(system: core.SpinSystem) -> np.ndarray:
    """sum_i 2 gamma_i * spin_op(i, "z"), the thermal deviation built operator by operator."""
    out = np.zeros((system.dim, system.dim), dtype=complex)
    for i, g in enumerate(system.gamma, start=1):
        out += 2 * g * spin_op(i, "z", system.n_spins)
    return out


def is_unitary(U: np.ndarray, tol: float = 1e-12) -> bool:
    U = np.asarray(U)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        return False
    return bool(np.max(np.abs(U @ U.conj().T - np.eye(U.shape[0]))) <= tol)


def reference_setting_unitary(setting, n_spins: int) -> np.ndarray:
    """A readout setting's propagator from a dense generator: one core.generator pulse per line of each pulsed spin."""
    pulses = [(t, pulse[0], np.pi / 2)
              for i, pulse in enumerate(setting, start=1) if pulse != "none"
              for t in core.transitions_of_spin(i, n_spins)]
    return core.expm_unitary(core.generator(pulses, n_spins))


def walsh(n_spins: int) -> np.ndarray:
    """The n-spin Walsh transform, a Kronecker power of the Hadamard matrix."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    out = np.eye(1, dtype=complex)
    for _ in range(n_spins):
        out = np.kron(out, h)
    return out


def conflicts(bits: str, clauses) -> int:
    """Number of (variable, negated) clauses that a bit string (1 = true) violates."""
    return sum((bits[var - 1] == "1") == negated for var, negated in clauses)


def phase_oracle(clauses, n_spins: int) -> np.ndarray:
    """diag(i ** conflicts) over the basis states."""
    labels = [core.bits_of(lev, n_spins) for lev in range(1, 2**n_spins + 1)]
    return np.diag([1j ** conflicts(bits, clauses) for bits in labels])


def mixing(n_spins: int) -> np.ndarray:
    """W diag(i ** (weight - 1)) W, with weight the Hamming weight of a basis state."""
    w = walsh(n_spins)
    weight = np.array([lev.bit_count() for lev in range(2**n_spins)])
    return w @ np.diag(1j ** (weight - 1)) @ w


def search_unitary(clauses, n_spins: int) -> np.ndarray:
    """Hogg's one-step search circuit as dense matrices: mix . phase . Walsh."""
    return mixing(n_spins) @ phase_oracle(clauses, n_spins) @ walsh(n_spins)


def dense_residual(angles_deg, system: core.SpinSystem, spec: prep.CascadeSpec) -> np.ndarray:
    """prep.residual one root at a time, from one generator call over every pulse of the cascade."""
    pulses = [((s.m, s.k), "x", a) for s, a in zip(spec.steps, np.radians(angles_deg))]
    U = core.expm_unitary(core.generator(pulses, spec.n_spins))
    d_eq = np.real(np.diagonal(core.thermal_deviation(system)))
    p = (np.abs(U) ** 2) @ d_eq
    others = [lev for lev in range(1, len(d_eq) + 1) if lev != spec.target]
    return np.array([p[lev - 1] - p[others[0] - 1] for lev in others[1:]])


def two_spin_roots(system: core.SpinSystem, target: int) -> np.ndarray:
    """Roots of the default 2-spin cascade with both angles below 360 degrees, from a closed form.

    On the three non-target levels the pulse block is B = (b1, b2) = theta / 2.
    With s = |B| and x = b1**2 / s**2 the side-a population and that of the
    side-b level step 1 joins are
    p_a = cos(s)**2 d_a + sin(s)**2 (x d_1 + (1 - x) d_2) and
    p_b1 = sin(s)**2 x d_a + (1 - (1 - cos s) x)**2 d_1 + (1 - cos s)**2 x (1 - x) d_2,
    d the thermal populations.  The three sum to D = d_a + d_1 + d_2, so a
    root has p_a = p_b1 = D/3.  The first condition is linear in x, which
    leaves one equation in s: it is bracketed on 4e5 points of (0, pi sqrt 2]
    and each bracket bisected, keeping x in [0, 1].  The linear step needs
    d_1 != d_2 and sin s != 0 at every root.  With d_1 = d_2 = c instead, as
    at homonuclear-2's targets 00 and 11, p_a = D/3 fixes
    cos(s)**2 = (D/3 - c) / (d_a - c), and p_b1 = c + x sin(s)**2 (d_a - c)
    is linear in x, so x = (D/3 - c) / (d_a - D/3) at every root.  Where
    sin s = 0, x drops out of p_a = d_a, so with d_a = D/3, as at
    homonuclear-2's targets 01 and 10, s = pi adds the roots of the quadratic
    p_b1 = (1 - 2x)**2 d_1 + 4x(1 - x) d_2 = D/3; larger multiples of pi
    leave the box, and s = 0 is a root only if every population is D/3.
    Returns (R, 2) angles in degrees, in no particular order.
    """
    spec = prep.default_cascade(2, target)
    d = np.real(np.diagonal(core.thermal_deviation(system)))
    parity = lambda lev: (lev - 1).bit_count() % 2
    b1, b2 = (s.m if parity(s.m) != parity(target) else s.k for s in spec.steps)
    (a,) = {lev for s in spec.steps for lev in (s.m, s.k)} - {b1, b2}
    d_a, d_1, d_2 = d[a - 1], d[b1 - 1], d[b2 - 1]
    third = (d_a + d_1 + d_2) / 3

    def x_of(s):
        return (third - np.cos(s) ** 2 * d_a - np.sin(s) ** 2 * d_2) / (np.sin(s) ** 2 * (d_1 - d_2))

    def f(s):
        x, c = x_of(s), 1 - np.cos(s)
        return np.sin(s) ** 2 * x * d_a + (1 - c * x) ** 2 * d_1 + c**2 * x * (1 - x) * d_2 - third

    if d_1 == d_2:
        # every s in [0, 2 pi) with that cos(s)**2; the box below drops the angles too large
        s0 = np.arccos(np.sqrt((third - d_1) / (d_a - d_1)))
        s = np.array([s0, np.pi - s0, np.pi + s0, 2 * np.pi - s0])
        x = np.full_like(s, (third - d_1) / (d_a - third))
    else:
        s = np.linspace(0, np.pi * np.sqrt(2), 400_001)[1:]
        sign = np.sign(f(s))
        i = np.flatnonzero(sign[:-1] != sign[1:])
        lo, hi, sign_lo = s[i], s[i + 1], sign[i]
        # 60 halvings take a bracket of width pi sqrt 2 / 4e5 below one ulp
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            left = np.sign(f(mid)) == sign_lo
            lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
        # a bracket around a pole of x, where sin s = 0, ends with x far outside [0, 1]
        s = 0.5 * (lo + hi)
        x = x_of(s)
        # the quadratic is 4 (d_1 - d_2) (x**2 - x) + d_1 - D/3 = 0
        disc = 1 - (d_1 - third) / (d_1 - d_2)
        if d_a == third and disc >= 0:
            s = np.append(s, [np.pi, np.pi])
            x = np.append(x, 0.5 + np.array([0.5, -0.5]) * np.sqrt(disc))
    s, x = s[(x >= 0) & (x <= 1)], x[(x >= 0) & (x <= 1)]
    theta = np.degrees(2 * s[:, None] * np.sqrt(np.stack([x, 1 - x], axis=1)))
    return theta[theta.max(axis=1) < 360]
