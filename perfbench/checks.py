"""Output checks, written against ppsim's public API.

Each check raises CheckError when an output is wrong and returns None
otherwise.  ``self_test`` shows that every check accepts a good output and
rejects a deliberately corrupted one.
"""

import contextlib
import csv
import io
import json
import xml.etree.ElementTree as ET

import numpy as np

from ppsim import cli, core, hogg, prep, presets, readout
from ppsim.errors import NotPseudoPureError

SOLVER_TOL = 1e-10  # solve_angles' default newton_tol
PRINTED_REL_PRECISION = 5e-10  # canonical JSON keeps 10 significant digits
NOISELESS_REL_TOL = 1e-8
#: A noisy reconstruction may miss by this many noise scales (sigma times
#: the largest thermal line amplitude) in any entry; 2- and 3-spin runs over
#: thousands of noise seeds stay below 1.1.
NOISE_SCALES = 2.0
PURE_PART_TOL = 1e-6
WEIGHT_TOL = 1e-6
SPECTRUM_REL_TOL = 1e-8


class CheckError(Exception):
    """An output failed its correctness check."""


def check_roots(roots, system, spec, tol=SOLVER_TOL) -> None:
    """Every root drives the population residual below tol.

    tol=None allows for roots printed to 10 significant digits.
    """
    if not roots:
        raise CheckError("no roots returned")
    for root in roots:
        worst = float(np.max(np.abs(prep.residual(root, system, spec))))
        limit = printed_root_tol(root, system, spec) if tol is None else tol
        if not worst < limit:
            raise CheckError(f"root {root} has residual {worst:.3e} >= {limit:.1e}")


def check_pseudo_pure(rho, level) -> None:
    try:
        part = core.pure_part(rho, tol=PURE_PART_TOL)
    except NotPseudoPureError as exc:
        raise CheckError(f"not pseudo-pure: {exc}") from None
    if part.target != level:
        raise CheckError(f"pseudo-pure at level {part.target}, expected {level}")


def noise_scale(system) -> float:
    return 2 * max(abs(g) for g in system.gamma)


def check_tomography(reconstructed, reference, sigma, system) -> None:
    err = core.max_rel_error(reconstructed, reference)
    if sigma == 0:
        bound = NOISELESS_REL_TOL
    else:
        bound = NOISE_SCALES * sigma * noise_scale(system) / float(np.max(np.abs(reference)))
    if not err <= bound:
        raise CheckError(f"tomography error {err:.3e} above bound {bound:.3e} at sigma {sigma}")


# ---------------------------------------------------------------------------
# command-line outputs: (exit code, stdout, stderr) triples


def run_cli(argv):
    """Run the ppsim command in-process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_text(output) -> str:
    code, text, err = output
    if code != 0:
        raise CheckError(f"exit code {code}: {err.strip()}")
    return text


def cli_payload(output):
    text = _cli_text(output)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None


def printed_root_tol(root, system, spec) -> float:
    """Solver tolerance plus what rounding a root to 10 digits can add.

    Each population moves by at most dim * max|d| per radian of any angle,
    where d is the thermal deviation's diagonal, and a residual entry is a
    difference of two populations.
    """
    step = np.radians(PRINTED_REL_PRECISION * max(abs(v) for v in root))
    slope = 2 * system.dim * sum(abs(g) for g in system.gamma)
    return SOLVER_TOL + slope * len(spec.steps) * step


def check_cli_solve(output, system, level) -> None:
    payload = cli_payload(output)
    spec = prep.default_cascade(system.n_spins, level)
    check_roots(payload["roots_deg"], system, spec, None)


def check_cli_state(output, level) -> None:
    """prepare and run print a matrix that must be pseudo-pure at level."""
    check_pseudo_pure(cli.matrix_from_json(cli_payload(output)["matrix"]), level)


def check_cli_hogg(output, formula_text) -> None:
    payload = cli_payload(output)
    want = hogg.satisfying_assignment(hogg.parse_formula(formula_text))
    if payload["solution"] != want:
        raise CheckError(f"solution {payload['solution']}, expected {want}")
    for bits, weight in payload["probabilities"].items():
        if abs(weight - (bits == want)) > WEIGHT_TOL:
            raise CheckError(f"weight {weight} on {bits}, satisfying assignment is {want}")


def check_cli_tomo(output, rho, sigma, system) -> None:
    payload = cli_payload(output)
    check_tomography(cli.matrix_from_json(payload["matrix"]), rho, sigma, system)


def check_cli_spectrum(output, rho, spin, system, pulse) -> None:
    rows = list(csv.reader(io.StringIO(_cli_text(output))))
    if not rows or rows[0] != ["freq_hz", "re", "im", "transition"]:
        raise CheckError("spectrum CSV header missing")
    want = readout.readout_spectrum(rho, spin, system, pulse).lines
    scale = max(float(np.max(np.abs(rho))), 1.0)
    if len(rows) - 1 != len(want):
        raise CheckError(f"{len(rows) - 1} spectrum lines, expected {len(want)}")
    for row, line in zip(rows[1:], want):
        try:
            amp = complex(float(row[1]), float(row[2]))
        except (IndexError, ValueError):
            raise CheckError(f"malformed spectrum row {row}") from None
        if abs(amp - line.amplitude) > SPECTRUM_REL_TOL * scale:
            raise CheckError(f"line {row[3]} amplitude {amp}, expected {line.amplitude}")
        if row[3] != f"{line.transition[0]}-{line.transition[1]}":
            raise CheckError(f"line label {row[3]}, expected {line.transition}")


def check_cli_plot(output, system) -> None:
    try:
        root = ET.fromstring(_cli_text(output))
    except ET.ParseError as exc:
        raise CheckError(f"plot is not SVG: {exc}") from None
    ns = "{http://www.w3.org/2000/svg}"
    panels = [t for t in root.iter(ns + "text") if (t.text or "").startswith("spin ")]
    sticks = [e for e in root.iter(ns + "line") if e.get("stroke") == "steelblue"]
    want_sticks = system.n_spins * 2 ** (system.n_spins - 1)
    if len(panels) != system.n_spins or len(sticks) != want_sticks:
        raise CheckError(f"{len(panels)} panels and {len(sticks)} sticks in the plot")


# ---------------------------------------------------------------------------
# self-test


def _expect(name, check, good, bad) -> bool:
    try:
        check(good)
    except CheckError as exc:
        print(f"self-test {name}: FAIL, rejected a good output ({exc})")
        return False
    try:
        check(bad)
    except CheckError:
        print(f"self-test {name}: ok")
        return True
    print(f"self-test {name}: FAIL, accepted a corrupted output")
    return False


def self_test(workdir) -> bool:
    """Feed every check a good output and a corrupted one; True if all behave."""
    system = presets.get_preset("chloroform")
    spec = prep.default_cascade(2, 1)
    roots = prep.solve_angles(system, spec).roots
    shifted = [tuple(v + 0.5 for v in roots[0])]
    results = [_expect("roots", lambda r: check_roots(r, system, spec), roots, shifted)]

    rho, _ = prep.prepare_pseudo_pure(system, 1)
    leaky = rho.copy()
    leaky[0, 1] = leaky[1, 0] = 1e-3
    results.append(_expect("pseudo-pure", lambda r: check_pseudo_pure(r, 1), rho, leaky))

    clean = readout.reconstruct(readout.simulate_measurements(rho, system), system).reconstructed
    nudged = clean + 1e-6 * np.max(np.abs(rho)) * np.eye(4)
    results.append(_expect("tomography noiseless",
                           lambda r: check_tomography(r, rho, 0.0, system), clean, nudged))
    sigma = 0.01
    noisy = readout.reconstruct(
        readout.simulate_measurements(rho, system, noise_sigma=sigma, seed=1), system
    ).reconstructed
    results.append(_expect("tomography noisy",
                           lambda r: check_tomography(r, rho, sigma, system), noisy, 1.5 * noisy))

    results.append(_expect("cli exit code", cli_payload, (0, "{}", ""), (3, "{}", "")))
    results.append(_expect("cli json", cli_payload, (0, '{"a":1}', ""), (0, '{"a":', "")))

    good = run_cli(["solve", "--system", "chloroform", "--target", "00"])
    payload = json.loads(good[1])
    payload["roots_deg"][0][0] += 1e-3
    results.append(_expect("cli solve", lambda o: check_cli_solve(o, system, 1),
                           good, (0, json.dumps(payload), "")))

    good = run_cli(["prepare", "--system", "chloroform", "--target", "10"])
    payload = json.loads(good[1])
    payload["matrix"][0][0][0] += 0.1
    results.append(_expect("cli prepare", lambda o: check_cli_state(o, 3),
                           good, (0, json.dumps(payload), "")))

    good = run_cli(["hogg", "--system", "chloroform", "--formula", "V1&!V2"])
    payload = json.loads(good[1])
    probs = payload["probabilities"]
    probs["10"], probs["01"] = probs["01"], probs["10"]
    results.append(_expect("cli hogg", lambda o: check_cli_hogg(o, "V1&!V2"),
                           good, (0, json.dumps(payload), "")))

    state = f"{workdir}/selftest-state.json"
    with open(state, "w", encoding="utf-8") as fh:
        fh.write(cli.canonical_json({"matrix": cli.matrix_to_json(rho)}))
    good = run_cli(["tomo", "--system", "chloroform", "--state", state,
                     "--noise", str(sigma), "--seed", "3"])
    payload = json.loads(good[1])
    payload["matrix"][1][1][0] += 0.5
    results.append(_expect("cli tomo", lambda o: check_cli_tomo(o, rho, sigma, system),
                           good, (0, json.dumps(payload), "")))

    good = run_cli(["spectrum", "--system", "chloroform", "--state", state, "--spin", "1"])
    bad_text = good[1].replace("-9.32", "-9.33")
    results.append(_expect("cli spectrum",
                           lambda o: check_cli_spectrum(o, rho, 1, system, "x90"),
                           good, (0, bad_text, "")))

    good = run_cli(["plot", "--system", "chloroform", "--state", state])
    results.append(_expect("cli plot", lambda o: check_cli_plot(o, system),
                           good, (0, good[1][: len(good[1]) // 2], "")))
    return all(results)
