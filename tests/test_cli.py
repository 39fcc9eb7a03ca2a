import json
import os
import re

import numpy as np
import pytest

from ppsim import cli, core, errors, prep, presets
from ppsim.cli import canonical_json, main, matrix_from_json, matrix_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, rho, name="state.json"):
    path = tmp_path / name
    path.write_text(canonical_json({"matrix": matrix_to_json(rho)}))
    return str(path)


@pytest.fixture()
def chloroform_state(tmp_path):
    rho, _ = prep.prepare_pseudo_pure(presets.get_preset("chloroform"), 1)
    return write_state(tmp_path, rho)


# ---------------------------------------------------------------------------
# serialization helpers

def test_canonical_json_is_stable():
    payload = {"b": [1.0, 0.5], "a": {"x": True, "y": None}, "c": "text"}
    assert canonical_json(payload) == '{"a":{"x":true,"y":null},"b":[1,0.5],"c":"text"}'
    assert canonical_json(-0.0) == "0"
    assert canonical_json(1 / 3) == "0.3333333333"
    for bad in (float("nan"), {1, 2}):
        with pytest.raises(errors.ContractError):
            canonical_json(bad)


def test_matrix_round_trip():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    np.testing.assert_allclose(matrix_from_json(matrix_to_json(m)), m)
    with pytest.raises(errors.InputError):
        matrix_from_json([[1.0, 2.0]])


# ---------------------------------------------------------------------------
# subcommands

def test_solve_outputs_known_root(capsys):
    code, out, _ = run_cli(capsys, "solve", "--system", "homonuclear-2", "--target", "00")
    assert code == 0
    data = json.loads(out)
    assert data["target_level"] == 1
    assert data["steps"] == [[3, 4, 2], [4, 2, 1]]
    assert any(
        max(abs(v - 77.40784245541707) for v in root) < 1e-6 for root in data["roots_deg"]
    )
    assert data["starts_tried"] == len(data["converged"])


def test_prepare_matches_golden_diagonal(capsys):
    code, out, _ = run_cli(capsys, "prepare", "--system", "chloroform", "--target", "00")
    assert code == 0
    data = json.loads(out)
    diag = [row[i][0] for i, row in enumerate(data["matrix"])]
    np.testing.assert_allclose(diag, [6.9905, -2.3303, -2.3303, -2.3303], atol=1e-3)
    assert data["pure_part"]["pure_coeff"] == pytest.approx(9.3208, abs=1e-3)
    assert data["pure_part"]["target"] == 1


#: The angles_deg text `prepare` prints for every pseudo-pure preset and
#: target (homonuclear-2 has no pseudo-pure state at 01 or 10).  The first
#: root the solver picks is part of the output contract, so a solver change
#: may move Newton paths in round-off but not these bytes.
PREPARED_ANGLES = {
    ("chloroform", "00"): "[127.1329076,186.0093389]",
    ("chloroform", "01"): "[146.4297642,119.9678108]",
    ("chloroform", "10"): "[146.4297642,119.9678108]",
    ("chloroform", "11"): "[186.0093389,127.1329076]",
    ("homonuclear-2", "00"): "[77.40784246,77.40784246]",
    ("homonuclear-2", "11"): "[77.40784246,77.40784246]",
    ("homonuclear-3", "000"): "[211.9282222,176.5484085,228.5522819,127.3781795,95.31189716,107.2473189]",
    ("homonuclear-3", "001"): "[324.697525,234.4811676,278.2281123,354.65005,344.1401953,226.162494]",
    ("homonuclear-3", "010"): "[85.02317336,49.03823952,184.9430841,267.2501412,215.4340503,152.2703827]",
    ("homonuclear-3", "011"): "[186.299103,272.7964049,226.4660108,254.4197123,184.1761544,81.60909841]",
    ("homonuclear-3", "100"): "[186.2991029,272.7964049,226.4660108,254.4197123,184.1761544,81.60909841]",
    ("homonuclear-3", "101"): "[85.02317336,49.03823952,184.9430841,267.2501412,215.4340503,152.2703827]",
    ("homonuclear-3", "110"): "[324.697525,234.4811676,278.2281123,354.65005,344.1401953,226.162494]",
    ("homonuclear-3", "111"): "[107.2473189,95.31189716,127.3781795,228.5522819,176.5484085,211.9282222]",
    ("hetero-3", "000"): "[201.8887011,258.8275596,313.4021048,364.307746,295.3639269,234.1764998]",
    ("hetero-3", "001"): "[281.664671,276.7243157,306.5642692,297.6577817,348.5511287,192.2937387]",
    ("hetero-3", "010"): "[260.3176715,403.5087636,341.7039716,313.2167866,334.697837,176.9922705]",
    ("hetero-3", "011"): "[217.9719398,284.9653451,369.0180971,291.6956006,350.0280978,214.5192972]",
    ("hetero-3", "100"): "[217.9719398,284.9653451,369.0180971,291.6956006,350.0280978,214.5192972]",
    ("hetero-3", "101"): "[260.3176715,403.5087636,341.7039716,313.2167866,334.697837,176.9922705]",
    ("hetero-3", "110"): "[281.664671,276.7243157,306.5642692,297.6577817,348.5511287,192.2937387]",
    ("hetero-3", "111"): "[234.1764998,295.3639269,364.307746,313.4021048,258.8275596,201.8887011]",
}


@pytest.mark.parametrize("case", sorted(PREPARED_ANGLES))
def test_prepare_prints_the_pinned_first_root(capsys, case):
    name, target = case
    code, out, _ = run_cli(capsys, "prepare", "--system", name, "--target", target)
    assert code == 0
    assert f'"angles_deg":{PREPARED_ANGLES[case]},' in out


def test_prepare_with_explicit_angles(capsys):
    code, out, _ = run_cli(
        capsys,
        "prepare", "--system", "chloroform", "--target", "00",
        "--angles", "127.13,186.01",
    )
    assert code == 0
    data = json.loads(out)
    assert data["angles_deg"] == [127.13, 186.01]


def test_run_program_end_to_end(capsys, tmp_path):
    program = tmp_path / "prep.pp"
    program.write_text("block { sel 3 4 x 127.13 ; sel 2 4 x 186.01 }\ncrush\n")
    code, out, _ = run_cli(
        capsys, "run", "--system", "chloroform", "--program", str(program)
    )
    assert code == 0
    data = json.loads(out)
    assert data["events"] == 2
    diag = [row[i][0] for i, row in enumerate(data["matrix"])]
    np.testing.assert_allclose(diag, [6.9905, -2.3303, -2.3303, -2.3303], atol=1e-3)


def test_run_with_basis_state_initial(capsys, tmp_path):
    program = tmp_path / "flip.pp"
    program.write_text("hard all x 180\n")
    code, out, _ = run_cli(
        capsys,
        "run", "--system", "homonuclear-2", "--program", str(program),
        "--initial", "00",
    )
    assert code == 0
    data = json.loads(out)
    diag = [row[i][0] for i, row in enumerate(data["matrix"])]
    np.testing.assert_allclose(diag, [0, 0, 0, 1], atol=1e-12)


def test_spectrum_csv(capsys, chloroform_state):
    code, out, _ = run_cli(
        capsys,
        "spectrum", "--system", "chloroform", "--state", chloroform_state, "--spin", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "freq_hz,re,im,transition"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[3] for r in rows] == ["1-2", "3-4"]
    assert float(rows[0][0]) == pytest.approx(214.95 / 2)
    assert abs(float(rows[0][2])) == pytest.approx(9.3207, abs=1e-3)
    assert abs(complex(float(rows[1][1]), float(rows[1][2]))) < 1e-9


def test_tomo_reports_error_and_seed(capsys, chloroform_state):
    code, out, _ = run_cli(
        capsys,
        "tomo", "--system", "chloroform", "--state", chloroform_state,
        "--noise", "0.01", "--seed", "5",
    )
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == 5
    assert 0.0 < data["max_rel_error"] < 0.2
    assert data["settings_used"] == 9


@pytest.mark.parametrize("noise", [[], ["--noise", "0.01", "--seed", "5"]])
def test_tomo_of_the_maximally_mixed_state_reports_no_relative_error(capsys, tmp_path, noise):
    # an all-zero deviation is valid input; a relative error to it is undefined
    state = write_state(tmp_path, np.zeros((4, 4)))
    code, out, err = run_cli(capsys, "tomo", "--system", "chloroform", "--state", state, *noise)
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["max_rel_error"] is None
    assert data["settings_used"] == 9
    if not noise:
        assert data["matrix"] == matrix_to_json(np.zeros((4, 4)))


def test_repeated_runs_are_byte_identical(capsys, chloroform_state):
    argv = (
        "tomo", "--system", "chloroform", "--state", chloroform_state,
        "--noise", "0.02", "--seed", "99",
    )
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    _, p1, _ = run_cli(capsys, "prepare", "--system", "chloroform", "--target", "00")
    _, p2, _ = run_cli(capsys, "prepare", "--system", "chloroform", "--target", "00")
    assert p1 == p2


def test_hogg_subcommand(capsys, chloroform_state):
    code, out, _ = run_cli(
        capsys,
        "hogg", "--system", "chloroform", "--formula", "!V1&V2",
        "--state", chloroform_state,
    )
    assert code == 0
    data = json.loads(out)
    assert data["solution"] == "01"
    assert data["probabilities"]["01"] == pytest.approx(1.0, abs=1e-10)
    assert sum(data["probabilities"].values()) == pytest.approx(1.0, abs=1e-9)


def test_hogg_prepares_when_no_state_given(capsys):
    code, out, _ = run_cli(capsys, "hogg", "--system", "chloroform", "--formula", "V1&V2")
    assert code == 0
    assert json.loads(out)["probabilities"]["11"] == pytest.approx(1.0, abs=1e-10)


def test_hogg_on_three_spins(capsys):
    code, out, _ = run_cli(capsys, "hogg", "--system", "hetero-3", "--formula", "!V1&V2&!V3")
    assert code == 0
    data = json.loads(out)
    assert data["solution"] == "010"
    assert data["probabilities"]["010"] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("system, formula, message", [
    ("chloroform", "V1", "fixes 1 variables but the system has 2"),
    ("chloroform", "", "not maximally constrained"),
    ("chloroform", "V1&V3", "not maximally constrained"),
    ("homonuclear-3", "V1&V2", "fixes 2 variables but the system has 3"),
], ids=["chloroform-V1", "chloroform-empty", "chloroform-V1&V3", "homonuclear-3-V1&V2"])
def test_hogg_rejects_other_spin_counts_before_solving(
    capsys, monkeypatch, system, formula, message
):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_angles called")

    monkeypatch.setattr(prep, "solve_angles", no_solve)
    code, _, err = run_cli(capsys, "hogg", "--system", system, "--formula", formula)
    assert code == 1
    assert message in error_payload(err)["message"]


def test_plot_emits_svg(capsys, chloroform_state, tmp_path):
    out_file = tmp_path / "sticks.svg"
    code, out, _ = run_cli(
        capsys,
        "plot", "--system", "chloroform", "--state", chloroform_state,
        "--out", str(out_file),
    )
    assert code == 0 and out == ""
    text = out_file.read_text()
    assert text.startswith("<svg") and "</svg>" in text


@pytest.mark.parametrize("argv", [
    ("solve", "--target", "00"),
    ("prepare", "--target", "00"),
    ("run", "--program", "{program}"),
    ("spectrum", "--state", "{state}", "--spin", "1"),
    ("tomo", "--state", "{state}", "--noise", "0.01", "--seed", "3"),
    ("hogg", "--formula", "V1&V2", "--state", "{state}"),
    ("plot", "--state", "{state}"),
], ids=lambda argv: argv[0])
def test_out_file_holds_the_printed_bytes(capsys, chloroform_state, tmp_path, argv):
    program = tmp_path / "prep.pp"
    program.write_text("block { sel 3 4 x 127.13 ; sel 2 4 x 186.01 }\ncrush\n")
    argv = [a.format(state=chloroform_state, program=program) for a in argv]
    argv[1:1] = ["--system", "chloroform"]
    code, printed, _ = run_cli(capsys, *argv)
    assert code == 0 and printed
    out_file = tmp_path / "out"
    code, out, _ = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == 0 and out == ""
    assert out_file.read_bytes() == printed.encode()


def test_system_loading_from_file(capsys, tmp_path):
    # keys other than gamma and j_hz are ignored
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({
        "gamma": [1.4048, 5.5857], "j_hz": [[0, 214.95], [214.95, 0]],
        "labels": ["C", "H"], "larmor_mhz": [125.77, 500.13],
    }))
    code, out, _ = run_cli(capsys, "solve", "--system", str(path), "--target", "00")
    assert code == 0 and out
    assert out == run_cli(capsys, "solve", "--system", "chloroform", "--target", "00")[1]


def solve_gammas(capsys, tmp_path, gamma, *options):
    path = tmp_path / "gammas.json"
    path.write_text(json.dumps({"gamma": gamma}))
    code, out, err = run_cli(capsys, "solve", "--system", str(path), "--target", "00", *options)
    assert code == 0 and err == "", err
    return json.loads(out)


def test_solve_takes_gammas_in_any_units(capsys, tmp_path):
    # 13C and 1H in rad s^-1 T^-1, whose ratio differs from chloroform's in the
    # 4th digit; an absolute tolerance found no root here
    si = solve_gammas(capsys, tmp_path, [6.728e7, 2.675e8])
    chloroform = solve_gammas(capsys, tmp_path, [1.4048, 5.5857])
    assert len(si["roots_deg"]) == len(chloroform["roots_deg"]) == 6
    np.testing.assert_allclose(si["roots_deg"][0], chloroform["roots_deg"][0], rtol=0, atol=1e-3)


def test_solve_at_tiny_gammas_finds_the_same_roots(capsys, tmp_path):
    # an absolute tolerance took every one of the 25 starts for a root here
    tiny = solve_gammas(capsys, tmp_path, [1e-150, 2e-150])
    unit = solve_gammas(capsys, tmp_path, [1, 2])
    assert len(tiny["roots_deg"]) == len(unit["roots_deg"]) == 7
    np.testing.assert_allclose(tiny["roots_deg"], unit["roots_deg"], rtol=0, atol=1e-4)


@pytest.mark.filterwarnings("error")
def test_solve_at_huge_gammas_finds_roots_without_warnings(capsys, tmp_path):
    # an absolute tolerance found no root here, and overflowed in the norms at 1e300
    big = solve_gammas(capsys, tmp_path, [1e150, 2])
    assert big["roots_deg"]
    assert solve_gammas(capsys, tmp_path, [1e300, 2])["roots_deg"] == big["roots_deg"]
    # a tolerance this far above 1 takes the bound past the float range, so
    # every start is accepted
    loose = solve_gammas(capsys, tmp_path, [1e300, 2], "--tol", "1e10")
    assert all(loose["converged"])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma", [[1e-9, 2e-9], [1e150, 2], [1e300, 2]])
def test_prepare_and_hogg_at_tiny_and_huge_gammas(capsys, tmp_path, gamma):
    # pure_part's tol is absolute, so these exited 3: no level stood out at
    # 1e-9, and round-off spread the non-target populations far beyond it at
    # 1e150; judged at the solver's power-of-two scale they pass
    path = tmp_path / "gammas.json"
    path.write_text(json.dumps({"gamma": gamma}))
    code, out, err = run_cli(capsys, "prepare", "--system", str(path), "--target", "00")
    assert (code, err) == (0, "")
    assert json.loads(out)["pure_part"]["target"] == 1
    code, out, err = run_cli(capsys, "hogg", "--system", str(path), "--formula", "V1&V2")
    assert (code, err) == (0, "")
    assert json.loads(out)["probabilities"]["11"] == pytest.approx(1.0, abs=1e-10)


def test_prepare_judges_explicit_angles_against_the_thermal_scale(capsys):
    # chloroform's largest thermal population is 6.99, in [4, 8), so pure_part's
    # 1e-6 reads as 8e-6 in gamma units: a spread of 3.1e-6 passes, 3.5e-4 does not
    def part(angles):
        code, out, _ = run_cli(capsys, "prepare", "--system", "chloroform", "--target", "00",
                               "--angles", angles)
        assert code == 0
        return json.loads(out)["pure_part"]

    assert part("127.1329,186.0093")["target"] == 1
    assert part("127.13,186.01") is None


# ---------------------------------------------------------------------------
# failure modes

def error_payload(err):
    payload = json.loads(err.strip())
    assert set(payload) == {"code", "message", "context"}
    return payload


def test_exit_code_for_bad_inputs(capsys, tmp_path, chloroform_state):
    inf_j = tmp_path / "inf_j.json"
    inf_j.write_text('{"gamma": [1, 2], "j_hz": [[0, Infinity], [Infinity, 0]]}')
    huge_gamma = tmp_path / "huge_gamma.json"
    huge_gamma.write_text('{"gamma": [1e308, 1e308]}')
    nine_spins = tmp_path / "nine_spins.json"
    nine_spins.write_text(json.dumps({"gamma": [1] * 9}))
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"gamma": [1, 2], "labels": ["\xe9", "H"]}')
    latin1_program = tmp_path / "latin1.pp"
    latin1_program.write_bytes(b"sel 3 4 x 90 # \xe9\n")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    # float() and numpy would read these as numbers; files must hold JSON numbers
    not_numbers = []
    for i, text in enumerate(['{"gamma": "12"}', '{"gamma": {"3": 0, "5": 1}}',
                              '{"gamma": [true, 2]}', '{"gamma": [1, "2"]}', '{"gamma": [[1], [2]]}',
                              '{"gamma": [1, 2], "j_hz": ["00", "00"]}',
                              '{"gamma": [1, 2], "j_hz": [[0, false], [false, 0]]}',
                              '{"gamma": [1, 2], "j_hz": [0, 0]}',
                              # past the float range, and past int's digit limit
                              '{"gamma": [1' + "0" * 400 + ', 2]}',
                              '{"gamma": [1' + "0" * 5000 + ', 2]}']):
        not_numbers.append(tmp_path / f"not_numbers_{i}.json")
        not_numbers[-1].write_text(text)
    five_spins = tmp_path / "five_spins.json"
    five_spins.write_text(json.dumps({"gamma": [1] * 5}))
    ragged_j = tmp_path / "ragged_j.json"
    ragged_j.write_text('{"gamma": [1, 2], "j_hz": [[0, 1], [1, 0], [0, 0]]}')
    one_spin_state = write_state(tmp_path, np.eye(2), "one_spin_state.json")
    # a 2x2 matrix whose entries are triples, not [re, im] pairs
    triples = tmp_path / "triples.json"
    triples.write_text(json.dumps([[[1, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 0]]]))
    program = tmp_path / "flip.pp"
    program.write_text("hard all x 180\n")
    text_state = tmp_path / "text_state.json"
    text_state.write_text(json.dumps(
        {"matrix": [[["6.99" if i == j == 0 else 0, 0] for j in range(4)] for i in range(4)]}
    ))
    nan_state, inf_state = tmp_path / "nan_state.json", tmp_path / "inf_state.json"
    for path, bad in ((nan_state, float("nan")), (inf_state, float("inf"))):
        # json writes these as the bare tokens NaN and Infinity, which it also reads
        rows = [[[bad if i == j == 0 else 0.0, 0.0] for j in range(4)] for i in range(4)]
        path.write_text(json.dumps({"matrix": rows}))
    # finite entries whose line amplitudes would overflow
    huge_state = tmp_path / "huge_state.json"
    huge_state.write_text(json.dumps({"matrix": [[[1e308, 1e308]] * 4] * 4}))
    cases = [
        ("run", "--system", "chloroform", "--program", str(tmp_path / "missing.pp")),
        ("solve", "--system", "chloroform", "--target", "001"),
        ("solve", "--system", "chloroform", "--target", "0x"),
        ("solve", "--system", "no-such-preset", "--target", "00"),
        ("prepare", "--system", "chloroform", "--target", "00", "--angles", "1,bad"),
        ("prepare", "--system", "chloroform", "--target", "00", "--angles", "nan,10"),
        ("prepare", "--system", "chloroform", "--target", "00", "--angles", "10,inf"),
        # an empty value is a bad value, not an absent option
        ("prepare", "--system", "chloroform", "--target", "00", "--angles", ""),
        ("hogg", "--system", "chloroform", "--formula", "V1&V2", "--state", ""),
        ("solve", "--system", "chloroform"),
        ("solve", "--system", "chloroform", "--target", "00", "--tol", "nan"),
        ("solve", "--system", "chloroform", "--target", "00", "--tol", "inf"),
        ("solve", "--system", "chloroform", "--target", "00", "--tol", "-1"),
        ("solve", "--system", "chloroform", "--target", "00", "--grid", "0"),
        ("solve", "--system", "chloroform", "--target", "00", "--grid", "-3"),
        # 400**2 starts is over the cap; rejected before any start is built
        ("solve", "--system", "chloroform", "--target", "00", "--grid", "400"),
        ("tomo", "--system", "chloroform", "--state", chloroform_state, "--noise", "nan"),
        ("tomo", "--system", "chloroform", "--state", chloroform_state, "--noise", "inf"),
        ("tomo", "--system", "chloroform", "--state", chloroform_state,
         "--noise", "0.1", "--seed", "-1"),
        # finite noise levels whose amplitudes' sum of squares overflows, or
        # whose amplitudes do
        ("tomo", "--system", "chloroform", "--state", chloroform_state,
         "--noise", "1e153", "--seed", "1"),
        ("tomo", "--system", "chloroform", "--state", chloroform_state,
         "--noise", "1e308", "--seed", "1"),
        ("tomo", "--system", "chloroform", "--state", chloroform_state,
         "--noise", "1.5e307", "--seed", "1"),
        ("spectrum", "--system", str(inf_j), "--state", chloroform_state, "--spin", "1"),
        # finite gammas whose thermal deviation overflows
        ("solve", "--system", str(huge_gamma), "--target", "00"),
        ("prepare", "--system", str(huge_gamma), "--target", "00", "--angles", "10,10"),
        # over cli.MAX_SPINS; rejected before any matrix is built
        ("solve", "--system", str(nine_spins), "--target", "0" * 9),
        ("solve", "--system", "chloroform", "--target", "00",
         "--out", str(tmp_path / "missing" / "out.json")),
        # files that are not UTF-8
        ("solve", "--system", str(latin1), "--target", "00"),
        ("spectrum", "--system", "chloroform", "--state", str(latin1), "--spin", "1"),
        ("run", "--system", "chloroform", "--program", str(latin1_program)),
        # nesting deeper than the JSON decoder can recurse
        ("spectrum", "--system", "chloroform", "--state", str(deep), "--spin", "1"),
        ("solve", "--system", str(deep), "--target", "00"),
        # states with non-finite entries
        ("spectrum", "--system", "chloroform", "--state", str(nan_state), "--spin", "1"),
        ("spectrum", "--system", "chloroform", "--state", str(inf_state), "--spin", "1"),
        ("tomo", "--system", "chloroform", "--state", str(nan_state)),
        ("hogg", "--system", "chloroform", "--formula", "V1&V2", "--state", str(nan_state)),
        ("plot", "--system", "chloroform", "--state", str(nan_state)),
        ("tomo", "--system", "chloroform", "--state", str(huge_state)),
        ("spectrum", "--system", "chloroform", "--state", str(huge_state), "--spin", "1"),
        ("plot", "--system", "chloroform", "--state", str(huge_state)),
        *(("solve", "--system", str(path), "--target", "00") for path in not_numbers),
        ("spectrum", "--system", "chloroform", "--state", str(text_state), "--spin", "1"),
        ("tomo", "--system", "chloroform", "--state", str(text_state)),
        # a basis state with the wrong number of bits, a state of the wrong
        # size, a matrix without [re, im] entries, a j_hz that is not n x n
        ("run", "--system", "chloroform", "--program", str(program), "--initial", "0101"),
        ("spectrum", "--system", str(five_spins), "--state", one_spin_state, "--spin", "1"),
        ("spectrum", "--system", "chloroform", "--state", str(triples), "--spin", "1"),
        ("solve", "--system", str(ragged_j), "--target", "00"),
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert len(err.splitlines()) == 1, argv
        assert error_payload(err)["code"] == 1
    # a large noise level whose sum of squares stays finite still reconstructs
    code, _, _ = run_cli(capsys, "tomo", "--system", "chloroform", "--state", chloroform_state,
                         "--noise", "1e150", "--seed", "1")
    assert code == 0


def test_exit_code_for_parse_errors(capsys, tmp_path):
    bad = tmp_path / "bad.pp"
    bad.write_text("sel 3 3 x 10\n")
    code, _, err = run_cli(capsys, "run", "--system", "chloroform", "--program", str(bad))
    assert code == 1
    assert "degenerate transition" in error_payload(err)["message"]


def test_unreadable_state_is_reported_as_a_read_failure(capsys, tmp_path):
    missing, latin1 = tmp_path / "missing.json", tmp_path / "latin1.json"
    latin1.write_bytes(b'{"matrix": "\xe9"}')
    for path, start in ((missing, f"cannot read {missing}: "),
                        (latin1, f"{latin1} is not UTF-8 text: ")):
        code, _, err = run_cli(capsys, "hogg", "--system", "chloroform", "--formula", "V1&V2",
                               "--state", str(path))
        assert code == 1
        message = error_payload(err)["message"]
        assert message.startswith(start) and "JSON" not in message, message


def test_exit_code_for_malformed_state(capsys, tmp_path):
    path = tmp_path / "state.json"
    path.write_text('{"matrix": [[1, 2], [3, 4]]}')
    code, _, err = run_cli(
        capsys, "spectrum", "--system", "chloroform", "--state", str(path), "--spin", "1"
    )
    assert code == 1


def test_exit_code_for_no_solution(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--system", "homonuclear-2", "--target", "00", "--tol", "0"
    )
    assert code == 2
    assert error_payload(err)["code"] == 2


def test_no_root_at_zero_tolerance_names_the_tolerance(capsys):
    # the bound is strict, so even a residual of exactly 0 is no root at --tol 0;
    # -0.0 is the same tolerance and is named 0, not -0
    for tol in ("0", "-0.0"):
        code, _, err = run_cli(
            capsys, "solve", "--system", "homonuclear-2", "--target", "10", "--tol", tol
        )
        assert code == 2
        assert error_payload(err)["message"] == (
            "no root found from 25 starts; best residual 0.000e+00 is not below the tolerance 0.000e+00"
        )


def test_no_root_after_the_recheck_says_what_it_rejected(capsys):
    # at --tol 1e-300 Newton still lands a start on residual 0, but the
    # re-check through prep.residual holds it to the same bound and rejects it
    code, _, err = run_cli(
        capsys, "solve", "--system", "homonuclear-2", "--target", "10", "--tol", "1e-300"
    )
    assert code == 2
    message = error_payload(err)["message"]
    found = re.fullmatch(
        r"no root found from 25 starts; residual rejected (\d+) candidate\(s\), "
        r"smallest max\|residual\| (\S+)", message
    )
    assert found, message
    assert int(found[1]) >= 1 and float(found[2]) > 1e-300


def test_exit_code_for_contract_violations(capsys, tmp_path):
    thermal = write_state(tmp_path, core.thermal_deviation(presets.get_preset("chloroform")))
    code, _, err = run_cli(
        capsys, "hogg", "--system", "chloroform", "--formula", "V1&V2", "--state", thermal
    )
    assert code == 3
    payload = error_payload(err)
    assert payload["code"] == 3 and payload["context"]["command"] == "hogg"


def test_prepare_exits_3_on_a_state_pseudo_pure_at_another_level(capsys, monkeypatch):
    judge = prep.pure_part_at_scale
    monkeypatch.setattr(
        prep, "pure_part_at_scale", lambda rho, system: judge(rho, system)._replace(target=2)
    )
    code, out, err = run_cli(capsys, "prepare", "--system", "chloroform", "--target", "00")
    assert code == 3 and out == ""
    payload = error_payload(err)
    assert payload["message"] == "prepared state is pseudo-pure at level 2, not 1"
    assert payload["context"] == {"command": "prepare", "error": "NotPseudoPureError"}


@pytest.mark.parametrize("error, code", [
    (errors.InputError, 1),
    (errors.ParseError, 1),
    (errors.CompileError, 1),
    (errors.NoSolutionError, 2),
    (errors.ContractError, 3),
    (errors.NotPseudoPureError, 3),
    (errors.PpsimError, 1),
], ids=lambda value: getattr(value, "__name__", str(value)))
def test_exit_code_for_each_error_class(capsys, monkeypatch, error, code):
    def fail(name_or_path):
        raise error("boom")

    monkeypatch.setattr(cli, "load_system", fail)
    exit_code, out, err = run_cli(capsys, "solve", "--system", "chloroform", "--target", "00")
    assert exit_code == code and out == ""
    payload = error_payload(err)
    assert payload["code"] == code
    assert payload["context"] == {"command": "solve", "error": error.__name__}
