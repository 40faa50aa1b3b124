"""The benchmark's workloads: fixed lists of toeplitz-lab CLI invocations.

Each workload is one round of jobs; a run repeats whole rounds.  Every job
gets the run's seed as ``--seed``; nothing else depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass

#: the six families of the acceptance suite
FAMILIES = (
    "starlike",
    "alpha:0.3",
    "alpha:0.5",
    "power:0.5",
    "power:0.9",
    "janowski:0.8:-0.6",
)

#: class members per family and theorem on `montecarlo`.  Only the round
#: length depends on it (the per-sample cost is flat); 2000 keeps a round
#: near 4 s, so a run takes the median of several rounds.
MC_SAMPLES = 2000

#: starlike plus one non-starlike family, every n, both norms
HIGHDIM_FAMILIES = ("starlike", "janowski:0.8:-0.6")
HIGHDIM_DIMS = (2, 3, 5)
HIGHDIM_NORMS = ("sup", "euclid")

# The program's own defaults, which the `oracle` and `highdim` jobs use and
# the checks and derived counts rely on.
ORACLE_GRID = 200
HIGHDIM_RADII = (0.3, 0.6, 0.9)
HIGHDIM_SAMPLES = 100
HIGHDIM_ORDER = 16

WORKLOADS = ("montecarlo", "oracle", "highdim")


@dataclass(frozen=True)
class Job:
    name: str
    family: str
    argv: tuple
    n: int = 0
    norm: str = ""

    @property
    def command(self) -> str:
        return self.argv[0]


def jobs(workload: str, seed: int) -> list:
    """The fixed job list of one round."""
    s = str(seed)
    if workload == "montecarlo":
        return [
            Job(f"verify-{i}", f,
                ("verify", "--family", f, "--samples", str(MC_SAMPLES), "--seed", s))
            for i, f in enumerate(FAMILIES)
        ]
    if workload == "oracle":
        return [
            Job(f"sharpness-{i}", f,
                ("sharpness", "--family", f, "--seed", s))
            for i, f in enumerate(FAMILIES)
        ]
    if workload == "highdim":
        return [
            Job(f"highdim-{i}-{n}-{norm}", f,
                ("highdim", "--family", f, "--n", str(n), "--norm", norm, "--seed", s),
                n, norm)
            for i, f in enumerate(HIGHDIM_FAMILIES)
            for n in HIGHDIM_DIMS
            for norm in HIGHDIM_NORMS
        ]
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str, seed: int) -> tuple:
    """One small call on the workload's path; it ends the timed set-up."""
    s = str(seed)
    if workload == "montecarlo":
        return ("verify", "--family", "starlike", "--samples", "16", "--seed", s)
    if workload == "oracle":
        return ("sharpness", "--family", "starlike", "--grid", "8", "--seed", s)
    if workload == "highdim":
        return ("highdim", "--family", "starlike", "--samples", "2", "--seed", s)
    raise ValueError(f"unknown workload {workload!r}")
