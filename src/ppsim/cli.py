"""Command-line front end.

Exit codes: 0 success, 1 invalid input or parse failure, 2 the angle solver
found no root, 3 a contract violation (non-pseudo-pure input and friends).
Errors are printed to stderr as single-line JSON {code, message, context}.

This module owns every file format: it reads system, state and program
files, and main prints each command's payload, a dict as canonical JSON
or text as is.  Canonical JSON has keys sorted, floats at 10 significant
digits, no whitespace variation, so identical inputs, seeds and BLAS thread
count give byte identical output.  Across thread counts only some outputs
are checked, noiseless 4-spin tomo among them; none is known to differ.
Matrices are nested arrays of [re, im] pairs.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import dsl, hogg, prep, readout
from .core import (
    SpinSystem,
    bits_of,
    flipped_spin,
    level_of,
    pure_part,  # noqa: F401 -- not called here, but perfbench/tracing.py patches it by name
    thermal_deviation,
)
from .errors import (
    ContractError,
    InputError,
    NoSolutionError,
    PpsimError,
)
from .presets import PRESETS, get_preset

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_SOLUTION = 2
EXIT_CONTRACT = 3

#: Largest spin count a system file may request: operators are 2**n x 2**n
#: and the solver's work grows faster still, so larger systems never finish.
MAX_SPINS = 8


# ---------------------------------------------------------------------------
# canonical serialization

def _fmt_float(value: float) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        raise ContractError(f"non-finite value {value} in output")
    out = f"{value:.10g}"
    return "0" if out in ("-0", "-0.0") else out


def canonical_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items())
        body = ",".join(f"{json.dumps(str(k))}:{canonical_json(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    raise ContractError(f"cannot serialize {type(obj).__name__}")


def matrix_to_json(M) -> list:
    M = np.asarray(M, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in M]


def _json_numbers(value, ndim: int, what: str) -> np.ndarray:
    """A float array from JSON arrays nested ndim deep whose leaves are JSON numbers.

    Bools and strings are not numbers here, although float() would take them.
    """
    arr = np.asarray(value, dtype=object) if isinstance(value, list) else None
    if arr is None or arr.ndim != ndim or not all(type(v) in (int, float) for v in arr.flat):
        raise InputError(f"malformed {what}: expected numbers in JSON arrays nested {ndim} deep")
    try:
        return arr.astype(float)
    except OverflowError as exc:  # an integer literal beyond the float range
        raise InputError(f"{what} holds a number beyond the float range") from exc


def matrix_from_json(data) -> np.ndarray:
    arr = _json_numbers(data, 3, "matrix")
    if arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        raise InputError(f"matrix must be square with [re, im] entries, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


# ---------------------------------------------------------------------------
# input loading

def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc


def _read_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, an over-long integer, deep nesting
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def load_system(name_or_path: str) -> SpinSystem:
    if name_or_path in PRESETS:
        return get_preset(name_or_path)
    if not os.path.exists(name_or_path):
        raise InputError(
            f"{name_or_path!r} is neither a preset ({', '.join(sorted(PRESETS))}) "
            "nor a readable file"
        )
    # a system file's object: 'gamma' and optional 'j_hz'; other keys are ignored
    data = _read_json(name_or_path)
    if not isinstance(data, dict) or "gamma" not in data:
        raise InputError("spin system JSON must be an object with a 'gamma' array")
    j_hz = data.get("j_hz")
    system = SpinSystem(_json_numbers(data["gamma"], 1, "gamma"),
                        None if j_hz is None else _json_numbers(j_hz, 2, "j_hz"))
    if system.n_spins > MAX_SPINS:
        raise InputError(f"system has {system.n_spins} spins, the limit is {MAX_SPINS}")
    return system


def load_state(path: str, system: SpinSystem) -> np.ndarray:
    data = _read_json(path)
    if isinstance(data, dict) and "matrix" in data:
        data = data["matrix"]
    rho = matrix_from_json(data)
    if not np.all(np.isfinite(rho)):
        raise InputError(f"state in {path} has non-finite entries")
    if rho.shape != (system.dim, system.dim):
        raise InputError(
            f"state dimension {rho.shape[0]} does not match the {system.n_spins}-spin system"
        )
    return rho


def _target_level(bits: str, system: SpinSystem) -> int:
    if len(bits) != system.n_spins:
        raise InputError(
            f"target {bits!r} has {len(bits)} bits, system has {system.n_spins} spins"
        )
    return level_of(bits)


def _parse_angles(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad angle list {text!r}: {exc}") from exc


def _emit(text: str, out_path: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {out_path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# subcommands

def _cmd_solve(args, system: SpinSystem) -> dict:
    target = _target_level(args.target, system)
    spec = prep.default_cascade(system.n_spins, target)
    result = prep.solve_angles(
        system, spec, grid_per_dim=args.grid, newton_tol=args.tol
    )
    return {
        "target_level": target,
        "steps": [[s.m, s.k, flipped_spin(s.m, s.k, system.n_spins)] for s in spec.steps],
        "roots_deg": [list(r) for r in result.roots],
        "residual_norms": list(result.residual_norms),
        "starts_tried": result.starts_tried,
        "converged": [bool(c) for c in result.converged],
    }


def _cmd_prepare(args, system: SpinSystem) -> dict:
    target = _target_level(args.target, system)
    angles = _parse_angles(args.angles) if args.angles is not None else None
    rho, solution = prep.prepare_pseudo_pure(system, target, angles)
    try:
        part = prep.pure_part_at_scale(rho, system)._asdict()
    except PpsimError:
        part = None
    return {
        "target_level": target,
        "target_bits": args.target,
        "angles_deg": list(solution.roots[0]) if solution else list(map(float, angles)),
        "matrix": matrix_to_json(rho),
        "pure_part": part,
    }


def _initial_state(text: str, system: SpinSystem) -> np.ndarray:
    if text == "thermal":
        return thermal_deviation(system)
    if len(text) == system.n_spins and all(c in "01" for c in text):
        rho = np.zeros((system.dim, system.dim), dtype=complex)
        rho[level_of(text) - 1, level_of(text) - 1] = 1.0
        return rho
    raise InputError(f"initial state must be 'thermal' or {system.n_spins} bits, got {text!r}")


def _cmd_run(args, system: SpinSystem) -> dict:
    program = dsl.parse(_read_text(args.program))
    seq = dsl.compile(program, system)
    rho = dsl.run(seq, _initial_state(args.initial, system))
    return {
        "initial": args.initial,
        "events": len(seq.events),
        "matrix": matrix_to_json(rho),
    }


def _cmd_spectrum(args, system: SpinSystem) -> str:
    rho = load_state(args.state, system)
    spectrum = readout.readout_spectrum(rho, args.spin, system, args.pulse)
    lines = ["freq_hz,re,im,transition"]
    for line in spectrum.lines:
        freq = "" if line.freq_hz is None else _fmt_float(line.freq_hz)
        lines.append(
            f"{freq},{_fmt_float(line.amplitude.real)},"
            f"{_fmt_float(line.amplitude.imag)},{line.transition[0]}-{line.transition[1]}"
        )
    return "\n".join(lines)


def _cmd_tomo(args, system: SpinSystem) -> dict:
    rho = load_state(args.state, system)
    measured = readout.simulate_measurements(
        rho, system, noise_sigma=args.noise, seed=args.seed
    )
    # the maximally mixed state has no relative error; it is reported as null
    result = readout.reconstruct(measured, system, reference=rho if rho.any() else None)
    return {
        "matrix": matrix_to_json(result.reconstructed),
        "residual_norm": result.residual_norm,
        "settings_used": result.settings_used,
        "max_rel_error": result.max_rel_error,
        "noise_sigma": measured.noise_sigma,
        "seed": measured.seed,
    }


def _cmd_hogg(args, system: SpinSystem) -> dict:
    formula = hogg.parse_formula(args.formula)
    hogg.search_program(formula, system.n_spins)  # check the formula before any solve
    if args.state is not None:
        rho = load_state(args.state, system)
    else:
        rho, _ = prep.prepare_pseudo_pure(system, target=1)
    rho_final, weights = hogg.hogg_run(rho, formula, system)
    n = system.n_spins
    return {
        "formula": hogg.formula_text(formula),
        "solution": hogg.satisfying_assignment(formula),
        "probabilities": {
            bits_of(lev, n): float(w) for lev, w in enumerate(weights, start=1)
        },
        "matrix": matrix_to_json(rho_final),
    }


def _cmd_plot(args, system: SpinSystem) -> str:
    rho = load_state(args.state, system)
    spectra = [
        readout.readout_spectrum(rho, spin, system, args.pulse)
        for spin in range(1, system.n_spins + 1)
    ]
    return readout.render_stick_svg(spectra)


# ---------------------------------------------------------------------------
# argument parsing and dispatch

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for the solver
        raise InputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ppsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--system", required=True, help="preset name or JSON file")
        p.add_argument("--out", default=None, help="write output here instead of stdout")
        return p

    p = add("solve", _cmd_solve, "find pulse angles equalizing non-target populations")
    p.add_argument("--target", required=True, help="target basis state, e.g. 00")
    p.add_argument("--grid", type=int, default=None, help="grid starts per dimension")
    p.add_argument("--tol", type=float, default=prep.NEWTON_TOL,
                   help="bound on a root's |population differences|, relative to the largest thermal population")

    p = add("prepare", _cmd_prepare, "prepare a pseudo-pure deviation matrix")
    p.add_argument("--target", required=True, help="target basis state, e.g. 00")
    p.add_argument("--angles", default=None, help="comma-separated degrees, skips the solver")

    p = add("run", _cmd_run, "parse, compile and run a pulse program")
    p.add_argument("--program", required=True, help="pulse program file")
    p.add_argument("--initial", default="thermal", help="'thermal' or a bitstring")

    p = add("spectrum", _cmd_spectrum, "stick spectrum of one spin as CSV")
    p.add_argument("--state", required=True, help="deviation matrix JSON file")
    p.add_argument("--spin", type=int, required=True, help="observed spin, 1-based")
    p.add_argument("--pulse", default="x90", choices=readout.READOUT_PULSES)

    p = add("tomo", _cmd_tomo, "simulate tomography and reconstruct")
    p.add_argument("--state", required=True, help="deviation matrix JSON file")
    p.add_argument("--noise", type=float, default=0.0, help="amplitude noise sigma")
    p.add_argument("--seed", type=int, default=None, help="noise seed")

    p = add("hogg", _cmd_hogg, "one-step 1-SAT search on a pseudo-pure state")
    p.add_argument("--formula", required=True, help="e.g. 'V1&V2' or '!V1&V2'")
    p.add_argument("--state", default=None, help="prepared state file; default: solve and prepare")

    p = add("plot", _cmd_plot, "SVG stick plot, one panel per spin")
    p.add_argument("--state", required=True, help="deviation matrix JSON file")
    p.add_argument("--pulse", default="x90", choices=readout.READOUT_PULSES)

    return parser


def _fail(code: int, exc: Exception, command: str | None) -> int:
    payload = {
        "code": code,
        "message": str(exc),
        "context": {"command": command, "error": type(exc).__name__},
    }
    sys.stderr.write(canonical_json(payload) + "\n")
    return code


def main(argv=None) -> int:
    command = None
    try:
        args = build_parser().parse_args(argv)
        command = args.command
        payload = args.fn(args, load_system(args.system))
        _emit(payload if isinstance(payload, str) else canonical_json(payload), args.out)
        return EXIT_OK
    except NoSolutionError as exc:
        return _fail(EXIT_NO_SOLUTION, exc, command)
    except ContractError as exc:
        return _fail(EXIT_CONTRACT, exc, command)
    except PpsimError as exc:
        return _fail(EXIT_INPUT, exc, command)


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
