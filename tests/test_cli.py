import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from toeplitz_lab.cli import build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_bounds_starlike(capsys):
    code, out = run(capsys, "bounds", "--family", "starlike")
    assert code == 0
    payload = json.loads(out)
    assert payload["t22"] == 13.0 and payload["t31"] == 24.0


def test_bounds_alpha(capsys):
    code, out = run(capsys, "bounds", "--family", "alpha:0.5")
    payload = json.loads(out)
    assert code == 0
    assert abs(payload["t22"] - 2.0) < 1e-12
    assert abs(payload["t31"] - 4.0) < 1e-12


def test_bounds_flags_failed_conditions(capsys):
    code, out = run(capsys, "bounds", "--family", "power:0.25")
    payload = json.loads(out)
    assert code == 0
    assert payload["cond_t22"] is False and payload["t22"] is None
    assert payload["cond_t31"] is False and payload["t31"] is None


def test_invalid_family_exit_2(capsys):
    code, _ = run(capsys, "bounds", "--family", "bogus")
    assert code == 2


def test_verify_deterministic(capsys):
    args = ("verify", "--family", "starlike", "--theorem", "t22",
            "--samples", "300", "--seed", "17")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["t22"]["violations"] == []


def test_verify_refuses_failed_condition(capsys):
    code, _ = run(capsys, "verify", "--family", "power:0.2",
                  "--theorem", "t31", "--samples", "10")
    assert code == 4


def test_verify_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("TOEPLITZ_LAB_SEED", "23")
    _, out1 = run(capsys, "verify", "--family", "starlike", "--theorem", "t22",
                  "--samples", "100")
    _, out2 = run(capsys, "verify", "--family", "starlike", "--theorem", "t22",
                  "--samples", "100", "--seed", "23")
    assert out1 == out2


def test_sharpness(capsys):
    code, out = run(capsys, "sharpness", "--family", "janowski:0.5:-0.5",
                    "--grid", "64")
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"]["gap_t22"] < 1e-10
    assert payload["oracle"]["t22"]["deficit"] < 1e-3


def test_table_alpha_sweep(capsys):
    code, out = run(capsys, "table", "--sweep", "alpha:0:0.9:0.1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["param", "t22", "t31", "cond_t22", "cond_t31"]
    assert len(rows) == 11
    # t31 blank past 2/3
    assert rows[8][2] == "" and rows[8][4] == "False"
    assert rows[1][1] == "13" and rows[1][2] == "24"


def test_table_gamma_sweep_contains_reduction_row(capsys):
    code, out = run(capsys, "table", "--sweep", "power:0.5:1.0:0.25")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0
    assert rows[-1][:3] == ["1", "13", "24"]


def test_table_empty_sweep(capsys):
    code, out = run(capsys, "table", "--sweep", "alpha:0.5:0.4:0.1")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0 and len(rows) == 1


def test_highdim_command(capsys):
    code, out = run(capsys, "highdim", "--family", "starlike", "--n", "3",
                    "--norm", "sup", "--r", "0.5", "--samples", "5",
                    "--seed", "2")
    assert code == 0
    payload = json.loads(out)
    polydisc = [r for r in payload["runs"] if r["setting"].startswith("polydisc")]
    r = 0.5
    assert abs(polydisc[0]["lhs_t22"] - (9 * r**6 + 4 * r**4)) < 1e-9
    assert all(run_["margin_t22"] >= -1e-9 for run_ in payload["runs"]
               if run_["margin_t22"] is not None)


def test_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out = run(capsys, "bounds", "--family", "starlike",
                    "--out", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["t22"] == 13.0


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["verify"])  # missing --family
    assert err.value.code == 2


def test_verify_tol_zero_is_honoured(capsys):
    code, out = run(capsys, "verify", "--family", "starlike", "--theorem", "t22",
                    "--samples", "50", "--tol", "0")
    assert code == 0
    assert json.loads(out)["t22"]["tol"] == 0.0


@pytest.mark.parametrize("argv, env_seed", [
    (["verify", "--family", "starlike", "--tol", "-1"], None),
    (["verify", "--family", "starlike", "--tol", "nan"], None),
    (["verify", "--family", "starlike", "--samples", "-3"], None),
    (["verify", "--family", "starlike", "--samples", "10", "--seed", "-1"], None),
    (["verify", "--family", "starlike", "--samples", "10"], "abc"),
    (["highdim", "--family", "starlike", "--r", "0"], None),
    (["highdim", "--family", "starlike", "--r", "1.5"], None),
    (["highdim", "--family", "starlike", "--r", "0.5,x"], None),
    (["highdim", "--family", "starlike", "--n", "0"], None),
    (["highdim", "--family", "starlike", "--samples", "-3"], None),
    (["highdim", "--family", "starlike", "--seed", "-1"], None),
    (["sharpness", "--family", "starlike", "--grid", "4"], None),
    (["table", "--sweep", "alpha:0:1"], None),
    (["table", "--sweep", "alpha:nan:0.5:0.1"], None),
    (["table", "--sweep", "alpha:0:inf:0.1"], None),
    (["table", "--sweep", "alpha:0:0.5:nan"], None),
    (["bounds", "--family", "starlike", "--fs-lambda", "nan", "inf"], None),
    (["bounds", "--family", "starlike", "--fs-lambda", "0.5", "inf"], None),
    (["verify", "--family", "starlike", "--tol", "inf"], None),
    (["table", "--sweep", "alpha:0:0.5:1e-300"], None),
    (["bounds", "--family", "starlike", "--fs-lambda", "1e308"], None),
], ids=["tol-neg", "tol-nan", "samples-neg", "seed-neg", "env-seed-abc", "r-zero",
        "r-above-1", "r-not-number", "n-zero", "highdim-samples-neg", "highdim-seed-neg",
        "grid-4", "sweep-short", "sweep-nan-start", "sweep-inf-stop", "sweep-nan-step",
        "fs-lambda-nan-inf", "fs-lambda-inf", "tol-inf", "sweep-too-many-rows",
        "fs-lambda-overflow"])
def test_bad_input_is_a_one_line_usage_error(capsys, monkeypatch, argv, env_seed):
    if env_seed is not None:
        monkeypatch.setenv("TOEPLITZ_LAB_SEED", env_seed)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage error:")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("payload", [
    '{"coeffs": [1, 2, 3]}',
    '[[1, 0], [2, 0], [2, 0]]',
    '{"coeffs": [[1, 0], [2, 0], [2, 0]], "inverse": 5}',
    '{"coeffs": [[1, 0], [Infinity, 0], [2, 0]]}',
    '{"coeffs": [[1, 0], [1e80, 0], [1e80, 0]]}',
], ids=["flat-coeffs", "top-level-list", "inverse-int", "coeff-inf", "bound-overflows"])
def test_malformed_custom_family_file_is_a_usage_error(tmp_path, capsys, payload):
    path = tmp_path / "phi.json"
    path.write_text(payload)
    code = main(["bounds", "--family", f"custom:{path}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage error:")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


STARLIKE_BOUNDS = """\
{
  "cond_t22": true,
  "cond_t31": true,
  "d1": 2.0,
  "d2": 4.0,
  "family": "halfplane",
  "fs": [
    {
      "bound": 3.0,
      "lambda_im": 0.0,
      "lambda_re": 0.0
    },
    {
      "bound": 1.0,
      "lambda_im": 0.0,
      "lambda_re": 0.5
    }
  ],
  "t22": 13.0,
  "t31": 24.0
}
"""


def test_bounds_output_is_pinned(capsys):
    code, out = run(capsys, "bounds", "--family", "starlike", "--fs-lambda", "0", "0.5")
    assert code == 0 and out == STARLIKE_BOUNDS


@pytest.mark.parametrize("command", ["bounds", "verify", "sharpness", "highdim"])
def test_order_is_rejected_outside_verify(command):
    with pytest.raises(SystemExit) as err:
        main([command, "--family", "starlike", "--order", "16"])
    assert err.value.code == 2


def test_closed_pipe_exits_quietly():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "toeplitz_lab.cli", "highdim", "--family", "starlike"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader goes away before the report is written
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert b"Traceback" not in err and b"Exception ignored" not in err


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    monkeypatch.delenv("TOEPLITZ_LAB_SEED", raising=False)
    calls = [
        ("verify", "--family", "starlike", "--theorem", "t22", "--samples", "40",
         "--seed", "5"),
        ("verify", "--family", "alpha:0.3", "--samples", "40"),
        ("bounds", "--family", "starlike", "--fs-lambda", "0.3"),
        ("bounds", "--family", "starlike"),
    ]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert build_parser() is build_parser()
    assert [run(capsys, *argv) for argv in calls] == fresh
