import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from toeplitz_lab import cli
from toeplitz_lab import highdim as hd
from toeplitz_lab import sampler as sp
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
    (["bounds", "--family", "alpha"], None),
    (["bounds", "--family", "janowski:0.5"], None),
    (["bounds", "--family", "power:0.5:1"], None),
    (["bounds", "--family", "halfplane:1"], None),
], ids=["tol-neg", "tol-nan", "samples-neg", "seed-neg", "env-seed-abc", "r-zero",
        "r-above-1", "r-not-number", "n-zero", "highdim-samples-neg", "highdim-seed-neg",
        "grid-4", "sweep-short", "sweep-nan-start", "sweep-inf-stop", "sweep-nan-step",
        "fs-lambda-nan-inf", "fs-lambda-inf", "tol-inf", "sweep-too-many-rows",
        "fs-lambda-overflow", "alpha-no-param", "janowski-one-param", "power-two-params",
        "halfplane-one-param"])
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
    '{"coeffs": [[1, 0], [1e200, 0], [1e200, 0]]}',
    '{"coeffs": [[1, 0], [1e-200, 0], [1e10, 0]]}',
], ids=["flat-coeffs", "top-level-list", "inverse-int", "coeff-inf", "bound-overflows",
        "condition-overflows", "jet-ratio-overflows"])
def test_malformed_custom_family_file_is_a_usage_error(tmp_path, capsys, payload):
    path = tmp_path / "phi.json"
    path.write_text(payload)
    code = main(["bounds", "--family", f"custom:{path}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage error:")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("coeff", ["1e80", "1e200"])
@pytest.mark.parametrize("command", [["verify", "--samples", "100"], ["sharpness", "--grid", "8"],
                                     ["highdim", "--samples", "5"]],
                         ids=lambda c: c[0])
def test_huge_custom_coefficients_are_a_usage_error(tmp_path, capsys, command, coeff):
    path = tmp_path / "phi.json"
    path.write_text(f'{{"coeffs": [[1, 0], [{coeff}, 0], [{coeff}, 0]]}}')
    code = main(command + ["--family", f"custom:{path}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage error:")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("size", [["--n", "1000000000", "--samples", "1"],
                                  ["--samples", "1000000000"],
                                  ["--n", "400", "--samples", "10000"]],
                         ids=["n-1e9", "samples-1e9", "coords-over-cap"])
def test_oversized_highdim_is_refused_before_anything_is_built(capsys, monkeypatch, size):
    monkeypatch.setattr(cli, "np", None)  # any array the command built would raise
    code = main(["highdim", "--family", "starlike", *size])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1


def test_highdim_scaled_example_is_within_the_caps(tmp_path):
    out = tmp_path / "runs.json"
    assert main(["highdim", "--family", "starlike", "--n", "50", "--samples", "10000",
                 "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["runs"]) == 2 * (10000 + 3)


def custom_jet(tmp_path, d):
    """A custom generator file with Phi'(0) = d and Phi''(0) = 2 d."""
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"coeffs": [[1, 0], [d, 0], [d, 0]]}))
    return f"custom:{path}"


@pytest.mark.parametrize("d, command", [
    (100, ["highdim", "--n", "3"]),
    (100, ["highdim", "--n", "2", "--norm", "euclid"]),
    (1e4, ["highdim", "--n", "3"]),
    (1e4, ["highdim", "--n", "2", "--norm", "euclid"]),
    (1e6, ["highdim", "--n", "3"]),
    (1e6, ["verify"]),
    (1e8, ["sharpness", "--grid", "8"]),
], ids=["highdim-1e2", "highdim-euclid-1e2", "highdim-1e4", "highdim-euclid-1e4",
        "highdim-1e6", "verify-1e6", "sharpness-1e8"])
def test_large_jets_pass_their_own_equality_cases(tmp_path, capsys, d, command):
    # each of these failed by 1-2 ulps of the compared value against an
    # absolute tolerance
    code = main(command + ["--family", custom_jet(tmp_path, d), "--seed", "7"])
    assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize("d", [1, 1e6])
def test_patched_low_bound_still_raises_at_any_jet_scale(tmp_path, capsys, monkeypatch, d):
    family = custom_jet(tmp_path, d)
    verify = ["verify", "--family", family, "--theorem", "t22", "--samples", "2000"]
    code, out = run(capsys, *verify)
    top = json.loads(out)["t22"]["max_observed"]
    # below the largest sample by the tolerance plus a relative 1e-9
    monkeypatch.setattr(sp, "t22_bound", lambda jet: top * (1 - 1e-9) - sp.SAMPLE_TOL)
    assert code == 0 and main(verify) == 3
    assert capsys.readouterr().err.startswith("violation: custom t22")
    # the extremal lift attains the ball bound at every axis point
    bound = hd.t22_bound
    monkeypatch.setattr(hd, "t22_bound",
                        lambda jet: bound(jet) * (1 - 1e-9) - hd.MARGIN_TOL)
    assert main(["highdim", "--family", family, "--samples", "5"]) == 3
    assert capsys.readouterr().err.startswith("violation: custom ball/sup/n=2 axis point 0 t22")


def test_importing_the_cli_loads_no_numpy_submodule():
    # the benchmark's set-up time counts every import; numpy.random, say,
    # should load only when a command first draws
    code = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import toeplitz_lab.cli\n"
        "added = set(sys.modules) - before\n"
        "print(sorted(m for m in added if m.split('.')[0] not in sys.stdlib_module_names\n"
        "             and m.split('.')[0] != 'toeplitz_lab'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.strip() == "[]"


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


ALPHA_03_BOUNDS = """\
{
  "cond_t22": true,
  "cond_t31": true,
  "d1": 1.4,
  "d2": 2.8,
  "family": "alpha(0.3)",
  "fs": [
    {
      "bound": 1.68,
      "lambda_im": 0.0,
      "lambda_re": 0.0
    },
    {
      "bound": 0.7,
      "lambda_im": 0.0,
      "lambda_re": 0.5
    }
  ],
  "t22": 4.782399999999999,
  "t31": 8.6832
}
"""


JANOWSKI_BOUNDS = """\
{
  "cond_t22": true,
  "cond_t31": true,
  "d1": 1.4,
  "d2": 1.68,
  "family": "janowski(0.8, -0.6)",
  "fs": [
    {
      "bound": 1.4,
      "lambda_im": 0.0,
      "lambda_re": 0.0
    },
    {
      "bound": 0.7,
      "lambda_im": 0.0,
      "lambda_re": 0.5
    }
  ],
  "t22": 3.9199999999999995,
  "t31": 8.447999999999999
}
"""


POWER_05_BOUNDS = """\
{
  "cond_t22": true,
  "cond_t31": true,
  "d1": 1.0,
  "d2": 1.0,
  "family": "power(0.5)",
  "fs": [
    {
      "bound": 0.75,
      "lambda_im": 0.0,
      "lambda_re": 0.0
    },
    {
      "bound": 0.5,
      "lambda_im": 0.0,
      "lambda_re": 0.5
    }
  ],
  "t22": 1.5625,
  "t31": 3.9375
}
"""


POWER_025_BOUNDS = """\
{
  "cond_t22": false,
  "cond_t31": false,
  "d1": 0.5,
  "d2": 0.25,
  "family": "power(0.25)",
  "fs": [
    {
      "bound": 0.25,
      "lambda_im": 0.0,
      "lambda_re": 0.0
    },
    {
      "bound": 0.25,
      "lambda_im": 0.0,
      "lambda_re": 0.5
    }
  ],
  "t22": null,
  "t31": null
}
"""


# the bounds are pure-Python float arithmetic on the closed-form 2-jet, so the
# printed d1 and d2 pin every family's jet to the bit on any CPU
@pytest.mark.parametrize("family, expected", [
    ("starlike", STARLIKE_BOUNDS),
    ("alpha:0.3", ALPHA_03_BOUNDS),
    ("janowski:0.8:-0.6", JANOWSKI_BOUNDS),
    ("power:0.5", POWER_05_BOUNDS),
    ("power:0.25", POWER_025_BOUNDS),
], ids=["starlike", "alpha-0.3", "janowski-0.8--0.6", "power-0.5", "power-0.25"])
def test_bounds_output_is_pinned(capsys, family, expected):
    code, out = run(capsys, "bounds", "--family", family, "--fs-lambda", "0", "0.5")
    assert code == 0 and out == expected


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
