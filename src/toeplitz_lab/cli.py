"""Batch front door: bounds, verify, sharpness, table, highdim.

Exit codes: 0 success, 2 usage error, 3 mathematical violation,
4 condition-not-met refusal.  Seeds fall back to the TOEPLITZ_LAB_SEED
environment variable, then to 0; every command is deterministic given
its flags and seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import bounds as bd
from . import extremal as ex
from . import highdim as hd
from . import sampler as sp
from .phi import InvalidParameters, condition_t22, condition_t31, parse_family
from .series import Series
from .toeplitz import jsonable

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATION = 3
EXIT_REFUSED = 4

DEFAULT_LAMBDAS = (0.0, 0.5, 1.0, 2.0)

#: most rows a `table` sweep writes; a longer sweep is refused
MAX_TABLE_ROWS = 10**6


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed early: send what is left, and the flush at
            # exit, to the null device, so shutdown reports no second error
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


def _emit_json(payload, out_path):
    _emit(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False), out_path)


def _seed(args) -> int:
    text = os.environ.get("TOEPLITZ_LAB_SEED", "0") if args.seed is None else str(args.seed)
    if not text.strip().isdecimal():
        raise InvalidParameters(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def cmd_bounds(args) -> int:
    phi = parse_family(args.family)
    lams = args.fs_lambda or DEFAULT_LAMBDAS
    if not all(map(math.isfinite, lams)):
        raise InvalidParameters(f"--fs-lambda values must be finite, got {lams}")
    rep = bd.report(phi, [complex(x) for x in lams])
    bounds = (rep.t22, rep.t31, *(b for _, b in rep.fs_lambda_table))
    if not all(math.isfinite(b) for b in bounds if b is not None):
        raise InvalidParameters(
            f"a bound of {args.family!r} with --fs-lambda {lams} overflows the float range")
    _emit_json(rep.to_json_dict(), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    phi = parse_family(args.family)
    if args.samples < 0 or not 0 <= args.tol < math.inf:
        raise InvalidParameters(
            f"need --samples >= 0 and finite --tol >= 0, got {args.samples} and {args.tol}")
    theorems = ("t22", "t31") if args.theorem == "both" else (args.theorem,)
    cond = {"t22": condition_t22, "t31": condition_t31}
    for t in theorems:
        if not cond[t](phi):
            print(f"refused: {t} condition does not hold for {phi.label()}",
                  file=sys.stderr)
            return EXIT_REFUSED
    payload = {}
    try:
        for t in theorems:
            rep = sp.montecarlo_verify(phi, args.samples, _seed(args), theorem=t,
                                       tol=args.tol)
            payload[t] = rep.to_json_dict()
    except sp.BoundViolated as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_sharpness(args) -> int:
    phi = parse_family(args.family)
    if args.grid < sp.MIN_GRID:
        raise InvalidParameters(f"--grid must be >= {sp.MIN_GRID}, got {args.grid}")
    try:
        cert = ex.certify(phi)
    except ex.CertificationFailed as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    payload = {"certificate": cert.to_json_dict(), "oracle": {}}
    for t in ("t22", "t31"):
        ok = condition_t22(phi) if t == "t22" else condition_t31(phi)
        if not ok:
            continue
        res = sp.oracle_sup(phi, t, grid=args.grid)
        bound = sp.target_bound(phi, t)
        payload["oracle"][t] = {
            "value": res.value,
            "bound": bound,
            "deficit": bound - res.value,
            "argmax_w1": jsonable(res.argmax.w1),
            "argmax_w2": jsonable(res.argmax.w2),
        }
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_table(args) -> int:
    try:
        name, start, stop, step = args.sweep.split(":")
        start, stop, step = float(start), float(stop), float(step)
    except ValueError:
        raise InvalidParameters(f"bad sweep spec {args.sweep!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise InvalidParameters(f"sweep bounds and step must be finite, got {args.sweep!r}")
    if name not in ("alpha", "power"):
        raise InvalidParameters(f"sweep supports alpha/power, got {name!r}")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["param", "t22", "t31", "cond_t22", "cond_t31"])
    steps = (stop - start) / step if step > 0 else -1.0
    n = max(0, int(round(min(steps, MAX_TABLE_ROWS))) + 1)
    if n > MAX_TABLE_ROWS:
        raise InvalidParameters(f"sweep {args.sweep!r} has more than {MAX_TABLE_ROWS} rows")
    for k in range(n):
        p = start + k * step
        rep = bd.report(parse_family(f"{name}:{p}"))
        writer.writerow([
            f"{p:.10g}",
            "" if rep.t22 is None else f"{rep.t22:.12g}",
            "" if rep.t31 is None else f"{rep.t31:.12g}",
            rep.cond_t22,
            rep.cond_t31,
        ])
    _emit(buf.getvalue().rstrip("\n"), args.out)
    return EXIT_OK


def cmd_highdim(args) -> int:
    phi = parse_family(args.family)
    if args.n < 1 or args.samples < 0:
        raise InvalidParameters(
            f"need --n >= 1 and --samples >= 0, got {args.n} and {args.samples}")
    try:
        radii = [float(r) for r in args.r.split(",")]
    except ValueError:
        raise InvalidParameters(f"bad radius list {args.r!r}") from None
    if not all(0 < r < 1 for r in radii):
        raise InvalidParameters(f"--r radii must lie in (0, 1), got {args.r!r}")
    rng = np.random.default_rng(_seed(args))
    h_ext = hd.extremal_lift(phi)
    runs = []
    try:
        for r in radii:
            z_axis = hd.NormedPoint((r,) + (0j,) * (args.n - 1), args.norm)
            if args.norm == hd.SUP:
                runs.append(hd.verify_polydisc(phi, h_ext, z_axis).to_json_dict())
            u = np.zeros(args.n, dtype=complex)
            u[0] = 1.0
            runs.append(hd.verify_ball(phi, h_ext, z_axis, direction=u).to_json_dict())
        words = sp.sample_words(args.samples, int(rng.integers(0, 2**63)))
        for g in sp.class_members(phi, words):
            h = hd.lift_from_class_member(Series(g))
            z = hd.random_interior_point(rng, args.n, args.norm)
            if args.norm == hd.SUP:
                runs.append(hd.verify_polydisc(phi, h, z).to_json_dict())
            runs.append(hd.verify_ball(phi, h, z).to_json_dict())
    except sp.BoundViolated as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    _emit_json({"family": phi.label(), "n": args.n, "norm": args.norm,
                "runs": runs}, args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once; parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="toeplitz-lab")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--family", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)

    p = sub.add_parser("bounds", help="closed-form bounds and conditions")
    common(p)
    p.add_argument("--fs-lambda", type=float, nargs="*", default=None)

    p = sub.add_parser("verify", help="Monte-Carlo bound verification")
    common(p)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--theorem", choices=["t22", "t31", "both"], default="both")
    p.add_argument("--tol", type=float, default=sp.SAMPLE_TOL)

    p = sub.add_parser("sharpness", help="extremal certificate + grid oracle")
    common(p)
    p.add_argument("--grid", type=int, default=200)

    p = sub.add_parser("table", help="CSV sweep of bounds over a parameter")
    p.add_argument("--sweep", required=True,
                   help="<alpha|power>:<start>:<stop>:<step>")
    p.add_argument("--out", default=None)

    p = sub.add_parser("highdim", help="ball/polydisc margin checks")
    common(p)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--norm", choices=[hd.SUP, hd.EUCLID], default=hd.SUP)
    p.add_argument("--r", default="0.3,0.6,0.9")
    p.add_argument("--samples", type=int, default=100)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "bounds": cmd_bounds,
        "verify": cmd_verify,
        "sharpness": cmd_sharpness,
        "table": cmd_table,
        "highdim": cmd_highdim,
    }
    try:
        return handlers[args.command](args)
    except InvalidParameters as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
