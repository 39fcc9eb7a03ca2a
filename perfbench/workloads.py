"""The benchmark's workloads.

A workload turns a seed into inputs, warms up, and hands out one pass (its
fixed batch of operations) at a time.  An operation is one public ppsim call
whose output is checked after the pass.  Calls go through module attributes
looked up at call time (``prep.solve_angles``, ``cli.main``, ...) so that a
traced run sees them.
"""

import random
from typing import Callable, NamedTuple

import numpy as np

import checks
from ppsim import cli, core, prep, presets, readout

#: Published cascade angles (degrees) for target 000; the hetero-3 vector
#: is reproduced as printed, including its suspected typo in entry four.
PUBLISHED_ANGLES = {
    "homonuclear-3": (182.02, 179.04, 229.38, 193.46, 200.28, 105.75),
    "hetero-3": (201.89, 258.83, 313.40, 346.31, 295.37, 234.18),
}
TOMO_SIGMA = 0.01
FORMULAS = ("V1&V2", "V1&!V2", "!V1&V2", "!V1&!V2")


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


def random_state(rng: np.random.Generator, system) -> np.ndarray:
    """Traceless Hermitian matrix with entries of thermal size."""
    a = rng.standard_normal((system.dim, system.dim)) + 1j * rng.standard_normal((system.dim, system.dim))
    h = (a + a.conj().T) * (checks.noise_scale(system) / 4)
    return h - np.trace(h) / system.dim * np.eye(system.dim)


class Solve3Spin:
    """Multi-start solves on the two 3-spin presets, returning every root.

    Both presets are solved at target 000, the published case.  Solve time
    depends strongly on the target (7.5 s to 19.5 s per solve on one core of
    a 2-vCPU x86-64 virtual machine), so a seed-chosen target would make the
    pass time vary more across seeds than any useful regression bound; the
    seed sets the order of the solves.
    """

    name = "solve-3spin"

    def __init__(self, seed: int, workdir: str):
        cases = [(presets.get_preset(p), 1) for p in ("homonuclear-3", "hetero-3")]
        random.Random(seed).shuffle(cases)
        self.cases = [(system, prep.default_cascade(system.n_spins, t)) for system, t in cases]

    def warm_up(self) -> None:
        system = presets.get_preset("chloroform")
        spec = prep.default_cascade(2, 1)
        checks.check_roots(prep.solve_angles(system, spec).roots, system, spec)

    def batch(self, index: int) -> list[Op]:
        return [
            Op("solve", lambda s=system, c=spec: prep.solve_angles(s, c),
               lambda out, s=system, c=spec: checks.check_roots(out.roots, s, c))
            for system, spec in self.cases
        ]


class Tomo3Spin:
    """3-spin tomography round trips: noiseless and noisy readout, then reconstruct.

    Each pass reconstructs the two published-angle pseudo-pure states and one
    fresh seeded random state per preset.
    """

    name = "tomo-3spin"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.systems = [presets.get_preset(p) for p in PUBLISHED_ANGLES]
        self.published = [
            prep.prepare_pseudo_pure(system, 1, angles_deg=PUBLISHED_ANGLES[name])[0]
            for name, system in zip(PUBLISHED_ANGLES, self.systems)
        ]

    @staticmethod
    def round_trip(rho, system, noise_seed):
        clean = readout.simulate_measurements(rho, system)
        noisy = readout.simulate_measurements(rho, system, noise_sigma=TOMO_SIGMA, seed=noise_seed)
        return (readout.reconstruct(clean, system, reference=rho),
                readout.reconstruct(noisy, system, reference=rho))

    @staticmethod
    def check(out, rho, system) -> None:
        clean, noisy = out
        checks.check_tomography(clean.reconstructed, rho, 0.0, system)
        checks.check_tomography(noisy.reconstructed, rho, TOMO_SIGMA, system)

    def warm_up(self) -> None:
        rho, system = self.published[0], self.systems[0]
        self.check(self.round_trip(rho, system, 0), rho, system)

    def batch(self, index: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, index + 1])
        states = list(zip(self.published, self.systems))
        states += [(random_state(rng, system), system) for system in self.systems]
        return [
            Op("round_trip",
               lambda r=rho, s=system, k=int(rng.integers(2**31)): self.round_trip(r, s, k),
               lambda out, r=rho, s=system: self.check(out, r, s))
            for rho, system in states
        ]


class Cli2Spin:
    """Every ppsim subcommand on the two 2-spin presets, run in-process.

    prepare covers every target that has a pseudo-pure state: on
    homonuclear-2 the thermal populations of 01 and 10 equal the mean of the
    other three levels, so prepare rightly refuses those two targets.
    """

    name = "cli-2spin"
    SYSTEMS = {"chloroform": (1, 2, 3, 4), "homonuclear-2": (1, 4)}

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = random.Random(seed)
        self.cases = []
        for name, pp_targets in self.SYSTEMS.items():
            system = presets.get_preset(name)
            rho, _ = prep.prepare_pseudo_pure(system, 1)
            noise = random_state(np.random.default_rng([seed, len(self.cases)]), system)
            states = []
            for tag, state in (("00", rho), ("random", noise)):
                path = f"{workdir}/{name}-{tag}.json"
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(cli.canonical_json({"matrix": cli.matrix_to_json(state)}))
                states.append((path, cli.load_state(path, system)))
            target = rng.choice(pp_targets)
            spec = prep.default_cascade(system.n_spins, target)
            angles = prep.solve_angles(system, spec).roots[0]
            program = f"{workdir}/{name}.pp"
            with open(program, "w", encoding="utf-8") as fh:
                body = " ; ".join(f"sel {s.m} {s.k} x {a!r}" for s, a in zip(spec.steps, angles))
                fh.write(f"block {{ {body} }}\ncrush\n")
            self.cases.append((name, system, pp_targets, states, program, target))

    def warm_up(self) -> None:
        """One command of each kind."""
        seen = set()
        for op in self.batch(-1):
            if op.kind not in seen:
                seen.add(op.kind)
                op.check(op.run())

    def batch(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.seed}/{index}")
        ops = []
        for name, system, pp_targets, states, program, run_target in self.cases:
            n = system.n_spins
            base = ["--system", name]
            for level in range(1, system.dim + 1):
                argv = ["solve", *base, "--target", core.bits_of(level, n)]
                ops.append(self._op(argv, lambda o, lv=level, s=system: checks.check_cli_solve(o, s, lv)))
            for level in pp_targets:
                argv = ["prepare", *base, "--target", core.bits_of(level, n)]
                ops.append(self._op(argv, lambda o, lv=level: checks.check_cli_state(o, lv)))
            for formula in FORMULAS:
                argv = ["hogg", *base, "--formula", formula]
                ops.append(self._op(argv, lambda o, f=formula: checks.check_cli_hogg(o, f)))
            for path, rho in states:
                argv = ["tomo", *base, "--state", path, "--noise", str(TOMO_SIGMA),
                        "--seed", str(rng.randrange(2**31))]
                ops.append(self._op(argv, lambda o, r=rho, s=system: checks.check_cli_tomo(o, r, TOMO_SIGMA, s)))
            path, rho = states[0]
            for spin in range(1, n + 1):
                for pulse in readout.READOUT_PULSES:
                    argv = ["spectrum", *base, "--state", path, "--spin", str(spin), "--pulse", pulse]
                    ops.append(self._op(
                        argv, lambda o, r=rho, sp=spin, p=pulse, s=system:
                        checks.check_cli_spectrum(o, r, sp, s, p)))
            ops.append(self._op(["plot", *base, "--state", path],
                                lambda o, s=system: checks.check_cli_plot(o, s)))
            ops.append(self._op(["run", *base, "--program", program],
                                lambda o, lv=run_target: checks.check_cli_state(o, lv)))
        return ops

    @staticmethod
    def _op(argv, check) -> Op:
        return Op(argv[0], lambda: checks.run_cli(argv), check)


WORKLOADS = {w.name: w for w in (Solve3Spin, Tomo3Spin, Cli2Spin)}
