"""Run one benchmark workload of toeplitz-lab in this process.

    python3 perfbench/run.py --workload {montecarlo,oracle,highdim} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
``src/``, and ``toeplitz_lab.cli.main`` is called in-process with
``--seed N --out perfbench/out/<workload>/<job>.json`` for every job of the
workload (see workloads.py).  Whole rounds of the job list repeat until S
seconds have passed.  The outputs are checked by checks.py; the last line of
standard output is one JSON object:

    {"correct": ..., "attempted": <jobs run>, "failed": <jobs not exiting 0>,
     "metrics": {<name>: {"value": ..., "unit": ...}}}

``--trace 0`` reports setup_s, wall_s and peak_rss_mb; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics of
tracing.py, writing the spans to perfbench/out/.
"""

import time

T0 = time.perf_counter()  # set-up is timed from the first statement of the process

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: words per family for the FFT check of (b2, b3) on `montecarlo`
JET_WORDS = 24


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import toeplitz_lab from this checkout's src/, single-threaded."""
    src = ROOT / "src"
    if not (src / "toeplitz_lab" / "__init__.py").is_file():
        raise ProgramMissing(f"no src/toeplitz_lab under {ROOT}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import toeplitz_lab
    from toeplitz_lab import cli

    if Path(toeplitz_lab.__file__).resolve().parent != src / "toeplitz_lab":
        raise ProgramMissing(f"toeplitz_lab came from {toeplitz_lab.__file__}, not {src}")
    return toeplitz_lab, cli


def call(cli, argv) -> int:
    """Exit code of one CLI invocation; a traceback counts as a failure."""
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a job that raises fails; the run goes on
        print(f"{' '.join(argv)}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def out_path(out_dir, job) -> Path:
    return out_dir / f"{job.name}.json"


#: seconds :func:`probe` takes on the machine the bounds were set on (2-CPU
#: x86_64 virtual machine, Python 3.11.7), at its usual speed
PROBE_REF_S = 0.0075


def probe() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's speed right now."""
    t = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i % 7
    return time.perf_counter() - t


def run_round(cli, jobs, out_dir):
    """One round: its speed-scaled wall time, its raw wall time, the jobs that exited 0.

    On a shared machine the speed of this process swings by ±30 % over tens of
    seconds.  :func:`probe` runs before each job and after the last, outside
    the timed jobs, and each job's wall time is scaled by PROBE_REF_S over the
    mean of the probes on either side, which reads it at the reference speed.
    """
    ok = []
    raw = scaled = 0.0
    before = probe()
    for job in jobs:
        t = time.perf_counter()
        rc = call(cli, job.argv + ("--out", str(out_path(out_dir, job))))
        dt = time.perf_counter() - t
        after = probe()
        raw += dt
        scaled += dt * PROBE_REF_S / ((before + after) / 2)
        before = after
        if rc == 0:
            ok.append(job)
    return scaled, raw, ok


class OutputChecker:
    """Checks the first output of every job; later rounds must repeat it byte for byte."""

    def __init__(self, checks, seed, out_dir):
        self.checks, self.seed, self.out_dir = checks, seed, out_dir
        self.seen = {}
        self.errors = []

    def after_round(self, ok_jobs):
        for job in ok_jobs:
            data = out_path(self.out_dir, job).read_bytes()
            if job.name in self.seen:
                if data != self.seen[job.name]:
                    self.errors.append(f"{job.name}: output differs between rounds")
                continue
            self.seen[job.name] = data
            try:
                self.checks.check_payload(json.loads(data), job, self.seed)
            except (self.checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
                self.errors.append(f"{job.name}: {type(exc).__name__}: {exc}")


def program_jet_fn(pkg):
    """(b2, b3) of g_from_schwarz for a word, at the least order that holds them."""

    def program_jet(family_text, word):
        rotation, factors, power = word
        g = pkg.g_from_schwarz(pkg.parse_family(family_text),
                               pkg.SchwarzWord(rotation, factors, power), pkg.JET_ORDER)
        cj = pkg.coeff_jet(g)
        return complex(cj.b2), complex(cj.b3)

    return program_jet


def check_class_members(pkg, checks, seed) -> int:
    program_jet = program_jet_fn(pkg)
    words = checks.draw_words(seed, JET_WORDS)
    return sum(checks.check_jets(f, words, program_jet) for f in workloads.FAMILIES)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, refname = line.partition(" ")
        if refname == name:
            return sha
    return "unknown"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    try:
        pkg, cli = load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = OUT_DIR / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    warm = workloads.warmup(args.workload, args.seed)
    if call(cli, warm + ("--out", str(out_dir / "warmup.json"))) != 0:
        print(f"error: warm-up {' '.join(warm)} failed", file=sys.stderr)
        return 1
    setup_s = time.perf_counter() - T0

    import checks
    import tracing

    jobs = workloads.jobs(args.workload, args.seed)
    checker = OutputChecker(checks, args.seed, out_dir)
    tracer = tracing.Tracer() if args.trace else None
    walls, raw_walls, traced_walls = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        wall, raw, ok = run_round(cli, jobs, out_dir)
        walls.append(wall)
        raw_walls.append(raw)
        attempted += len(jobs)
        failed += len(jobs) - len(ok)
        checker.after_round(ok)
        if tracer is not None:
            with tracer.installed(pkg.__name__), tracer.round():
                wall, _, ok = run_round(cli, jobs, out_dir)
            traced_walls.append(wall)
            attempted += len(jobs)
            failed += len(jobs) - len(ok)
            checker.after_round(ok)

    jets_checked = 0
    if args.workload == "montecarlo":
        try:
            jets_checked = check_class_members(pkg, checks, args.seed)
        except checks.CheckFailed as exc:
            checker.errors.append(f"class members: {exc}")
    for err in checker.errors:
        print(f"check failed: {err}", file=sys.stderr)

    print(f"{args.workload} seed {args.seed}: {len(walls)} rounds of {len(jobs)} jobs, "
          f"wall_s {[round(w, 3) for w in walls]}, raw {[round(w, 3) for w in raw_walls]}, "
          f"traced {[round(w, 3) for w in traced_walls]}, "
          f"{jets_checked} class-member jets checked by FFT", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    else:
        import numpy

        metrics = tracer.metrics(traced_walls, walls)
        tracer.write(
            OUT_DIR / f"trace-{args.workload}.json",
            OUT_DIR / f"spans-{args.workload}.npz",
            {
                "workload": args.workload,
                "seed": args.seed,
                "commit": git_commit(),
                "cpu_count": os.cpu_count(),
                "machine": platform.machine(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "wall_s": walls,
                "raw_wall_s": raw_walls,
                "traced_wall_s": traced_walls,
                "metrics": metrics,
            },
        )
    correct = not checker.errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
