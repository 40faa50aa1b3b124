"""Self-test of the benchmark: its checks can fail, and its trace counts add up.

    python3 perfbench/selftest.py [--seed N] [--workload W ...]

For each workload this runs one untraced and one traced round, as run.py
does, and then

* checks every output (they must pass);
* feeds each check corrupted copies of those outputs (a bound off by 1e-6,
  a histogram one sample short, a witness outside the body, a shifted b3,
  ...) and requires every copy to be refused;
* compares the traced call counts with the counts derived from the
  workload's make-up (families, samples, grid, words drawn) and the
  program's call structure at the time of writing;
* requires the traced metrics to be exactly BENCHMARK.json's per_layer list.

Prints one PASS/FAIL line per item and exits 1 if any fails.  It takes
about 45 s on 2 CPUs.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys

import run
import workloads as wl

results = []


def report(name, ok, detail=""):
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")


def refused(checks, name, payload, job, seed):
    try:
        checks.check_payload(payload, job, seed)
    except checks.CheckFailed:
        report(f"refuses {name}", True)
        return
    report(f"refuses {name}", False, "the corrupted output passed")


# ------------------------------------------------------------ corruptions

def corrupt_verify(payload):
    out = {}
    p = copy.deepcopy(payload)
    p["t22"]["bound"] += 1e-6
    out["bound off by 1e-6"] = p
    p = copy.deepcopy(payload)
    p["t31"]["margin_histogram"][-1]["count"] -= 1
    out["histogram one sample short"] = p
    p = copy.deepcopy(payload)
    p["t22"]["violations"] = [{"value": p["t22"]["bound"] + 1}]
    out["a violation"] = p
    p = copy.deepcopy(payload)
    p["t22"]["max_observed"] = 0.9 * p["t22"]["bound"]
    out["starlike t22 max_observed below 0.95 * 13"] = p
    return out


def corrupt_sharpness(payload):
    out = {}
    p = copy.deepcopy(payload)
    p["certificate"]["b3"][0] += 1e-6
    out["certificate b3 shifted by 1e-6"] = p
    p = copy.deepcopy(payload)
    p["oracle"]["t31"]["bound"] += 1e-6
    out["oracle bound off by 1e-6"] = p
    p = copy.deepcopy(payload)
    w1 = complex(*p["oracle"]["t22"]["argmax_w1"])
    w2 = complex(*p["oracle"]["t22"]["argmax_w2"])
    w2 = (1 - abs(w1) ** 2 + 1e-6) * (w2 / abs(w2) if w2 else 1)
    p["oracle"]["t22"]["argmax_w2"] = [w2.real, w2.imag]
    out["witness outside the body"] = p
    p = copy.deepcopy(payload)
    p["oracle"]["t22"]["value"] = p["oracle"]["t22"]["bound"] - 2e-3
    p["oracle"]["t22"]["deficit"] = 2e-3
    out["oracle value 2e-3 below the bound"] = p
    return out


def corrupt_highdim(payload):
    out = {}
    p = copy.deepcopy(payload)
    p["runs"][0]["lhs_t22"] += 1e-6
    out["axis-point lhs off by 1e-6"] = p
    p = copy.deepcopy(payload)
    p["runs"][-1]["margin_t31"] = -1e-6
    out["a negative margin"] = p
    p = copy.deepcopy(payload)
    p["runs"].pop()
    out["one margin report short"] = p
    return out


CORRUPT = {"verify": corrupt_verify, "sharpness": corrupt_sharpness, "highdim": corrupt_highdim}


def check_corruptions(checks, jobs, payloads, seed):
    for job in jobs[:1]:
        for name, bad in CORRUPT[job.command](payloads[job.name]).items():
            refused(checks, f"{job.name} with {name}", bad, job, seed)


def check_jet_corruption(pkg, checks, seed):
    program_jet = run.program_jet_fn(pkg)
    words = checks.draw_words(seed, 4)

    def shifted(family, word):
        b2, b3 = program_jet(family, word)
        return b2, b3 + 1e-6

    try:
        checks.check_jets("starlike", words, shifted)
    except checks.CheckFailed:
        report("refuses class-member jets with b3 shifted by 1e-6", True)
    else:
        report("refuses class-member jets with b3 shifted by 1e-6", False, "accepted")


# ------------------------------------------------------------ derived counts

def expected_counts(pkg, workload, seed) -> dict:
    """Calls per round, from the workload's make-up."""
    c = {}
    if workload == "montecarlo":
        s, fams, theorems = wl.MC_SAMPLES, len(wl.FAMILIES), 2
        powers = sum(f.startswith("power") for f in wl.FAMILIES)
        words = pkg.sample_words(s, seed)
        factors = sum(len(w.factors) for w in words)
        lead = sum(w.leading_power for w in words)
        built = theorems * fams * s  # every class member is built once per theorem
        c.update({
            "cli.main": fams,
            "sampler.montecarlo_verify": theorems * fams,
            "sampler.sample_words": theorems * fams,
            "sampler.g_from_schwarz": built,
            "sampler.omega_series": built,
            "series.compose": built,
            "series.integrate_div_t": built,
            "phi.phi_series": built,
            "toeplitz.coeff_jet": built,
            "toeplitz.det_t22": fams * s,
            "toeplitz.det_t31": fams * s,
            # exp in g, and one more inside phi_series for power:*
            "series.exp_series": built + theorems * powers * s,
            # compose at order 3 is 3 products; one product and quotient per factor
            "series.mul": theorems * fams * (3 * s + factors),
            "series.div": theorems * fams * factors,
            # z^(p-1) in omega, z * exp(...) in g
            "series.shift_mul_z": theorems * fams * lead,
            # two conditions in cmd_verify, a bound and a condition per theorem
            "phi.jet2": fams * (2 + 2 * theorems),
        })
    elif workload == "oracle":
        fams = len(wl.FAMILIES)
        powers = sum(f.startswith("power") for f in wl.FAMILIES)
        for name in ("cli.main", "extremal.certify", "extremal.extremal_g", "phi.phi_series",
                     "series.integrate_div_t", "series.shift_mul_z", "toeplitz.coeff_jet",
                     "toeplitz.det_t22", "toeplitz.det_t31"):
            c[name] = fams
        c["series.exp_series"] = fams + powers
        c["sampler.oracle_sup"] = 2 * fams
        # certify: jet and two conditions; per target: condition, oracle, bound
        c["phi.jet2"] = fams * (3 + 2 * 3)
    elif workload == "highdim":
        import numpy as np

        from toeplitz_lab import highdim as hd

        s, r = wl.HIGHDIM_SAMPLES, len(wl.HIGHDIM_RADII)
        for job in wl.jobs(workload, seed):
            rng = np.random.default_rng(seed)  # the CLI's draws, replayed
            factors = lead = 0
            for _ in range(s):
                w = pkg.sample_words(1, int(rng.integers(0, 2**63)))[0]
                factors += len(w.factors)
                lead += w.leading_power
                hd.random_interior_point(rng, job.n, job.norm)
            polydisc = r + s if job.norm == "sup" else 0
            ball = r + s
            exp_per_member = 2 if job.family.startswith("power") else 1
            add = {
                "cli.main": 1,
                "extremal.extremal_g": 1,
                "highdim.lift_from_class_member": 1 + s,
                "sampler.sample_words": s,
                "sampler.g_from_schwarz": s,
                "sampler.omega_series": s,
                "series.compose": s,
                "highdim.random_interior_point": s,
                "phi.phi_series": 1 + s,
                "series.exp_series": (1 + s) * exp_per_member,
                "series.integrate_div_t": 1 + s,
                "series.shift_mul_z": 1 + lead,
                "series.mul": wl.HIGHDIM_ORDER * s + factors,
                "series.div": factors,
                "highdim.verify_polydisc": polydisc,
                "highdim.verify_ball": ball,
                "highdim.homogeneous_terms": polydisc + ball,
                # jet and two conditions per margin report
                "phi.jet2": 3 * (polydisc + ball),
            }
            for k, v in add.items():
                c[k] = c.get(k, 0) + v
    return c


def check_counts(pkg, tracing, workload, seed, metrics):
    want = expected_counts(pkg, workload, seed)
    diffs = []
    for name in tracing.NAMES:
        got = metrics[f"{name}.calls"]["value"]
        if got != want.get(name, 0):
            diffs.append(f"{name} {got} != {want.get(name, 0)}")
    report(f"{workload} traced calls equal the derived counts", not diffs, "; ".join(diffs))


def check_metric_names(tracing, workload, metrics):
    names = {m["name"] for m in tracing.per_layer_spec()}
    odd = names ^ set(metrics)
    report(f"{workload} traced run reports exactly the per_layer metrics", not odd, str(sorted(odd)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", nargs="*", default=list(wl.WORKLOADS),
                    choices=wl.WORKLOADS)
    args = ap.parse_args(argv)
    pkg, cli = run.load_program()
    import checks
    import tracing

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer"]
    report("BENCHMARK.json per_layer is the traced metric list", spec == tracing.per_layer_spec())
    check_jet_corruption(pkg, checks, args.seed)
    for workload in args.workload:
        out_dir = run.OUT_DIR / "selftest" / workload
        out_dir.mkdir(parents=True, exist_ok=True)
        jobs = wl.jobs(workload, args.seed)
        checker = run.OutputChecker(checks, args.seed, out_dir)
        wall, _, ok = run.run_round(cli, jobs, out_dir)
        checker.after_round(ok)
        tracer = tracing.Tracer()
        with tracer.installed(pkg.__name__), tracer.round():
            traced_wall, _, traced_ok = run.run_round(cli, jobs, out_dir)
        checker.after_round(traced_ok)
        report(f"{workload} runs every job", len(ok) == len(traced_ok) == len(jobs))
        report(f"{workload} outputs pass the checks, untraced and traced",
               not checker.errors, "; ".join(checker.errors))
        payloads = {name: json.loads(data) for name, data in checker.seen.items()}
        check_corruptions(checks, jobs, payloads, args.seed)
        metrics = tracer.metrics([traced_wall], [wall])
        check_counts(pkg, tracing, workload, args.seed, metrics)
        check_metric_names(tracing, workload, metrics)
    print(f"{sum(results)}/{len(results)} passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
