"""Spans around the program's public functions, installed from outside.

:class:`Tracer` wraps each function in :data:`LAYERS` by replacing module
attributes, in every ``toeplitz_lab`` module that holds the function (so
``sampler.phi_series`` and ``sampler.coeff_jet`` are wrapped too).  Calls
between wrapped functions nest, so each span records its parent.  Spans
stay in memory as (name, start, end, parent) columns until the run writes
them out.  A span's self time is its duration minus the durations of its
child spans.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from array import array

import numpy as np

from checks import bounds

#: the layers are the package's modules; these are their traced functions
LAYERS = {
    "sampler": ("sample_words", "omega_series", "g_from_schwarz",
                "montecarlo_verify", "oracle_sup"),
    "series": ("mul", "div", "compose", "exp_series", "integrate_div_t", "shift_mul_z"),
    "phi": ("phi_series", "jet2"),
    "toeplitz": ("coeff_jet", "det_t22", "det_t31"),
    "highdim": ("lift_from_class_member", "homogeneous_terms", "verify_ball",
                "verify_polydisc", "random_interior_point"),
    "extremal": ("certify", "extremal_g"),
    "cli": ("main",),
}

NAMES = tuple(f"{m}.{f}" for m, fns in LAYERS.items() for f in fns)

#: (b2, b3) need the coefficients of z^0..z^3
JET_COEFFS = 4

#: ratios and counts besides calls and self time: (name, unit, better)
DERIVED = (
    ("sampler.sample_words.words_per_call", "words/call", "higher"),
    ("sampler.g_from_schwarz.distinct_ratio", "ratio", "higher"),
    ("sampler.g_from_schwarz.coeff_use_ratio", "ratio", "higher"),
    ("phi.phi_series.distinct_ratio", "ratio", "higher"),
    ("sampler.oracle_sup.points", "count", "lower"),
    ("sampler.oracle_sup.points_per_s", "1/s", "higher"),
    ("sampler.oracle_sup.max_deficit", "1", "lower"),
    ("sampler.montecarlo_verify.samples_per_s", "1/s", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_spec() -> list:
    """Every per-layer metric as BENCHMARK.json lists it."""
    out = []
    for name in NAMES:
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    out += [{"name": n, "unit": u, "better": b} for n, u, b in DERIVED]
    return out


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _ncoeffs(series) -> int:
    return np.shape(getattr(series, "coeffs", series))[-1]


class RoundStats:
    """What the observed calls of one traced round returned."""

    def __init__(self):
        self.words = 0
        self.g_keys = set()
        self.g_use = 0.0
        self.phi_keys = set()
        self.points = 0
        self.max_deficit = 0.0
        self.samples = 0


def _observe_sample_words(st, args, kwargs, result):
    st.words += len(result)


def _observe_g(st, args, kwargs, result):
    key = (_arg(args, kwargs, 0, "phi"), _arg(args, kwargs, 1, "w"), _arg(args, kwargs, 2, "order"))
    st.g_keys.add(key)
    st.g_use += JET_COEFFS / _ncoeffs(result)


def _observe_phi_series(st, args, kwargs, result):
    st.phi_keys.add((_arg(args, kwargs, 0, "phi"), _arg(args, kwargs, 1, "order")))


def _observe_oracle(st, args, kwargs, result):
    phi, target = _arg(args, kwargs, 0, "phi"), _arg(args, kwargs, 1, "target")
    grid = _arg(args, kwargs, 2, "grid", 200)
    refine = _arg(args, kwargs, 3, "refine", True)
    st.points += (2 if refine else 1) * grid**3
    deficit = bounds(phi.family, phi.params)[target] - result.value
    st.max_deficit = max(st.max_deficit, deficit)


def _observe_montecarlo(st, args, kwargs, result):
    st.samples += _arg(args, kwargs, 1, "count")


OBSERVERS = {
    "sampler.sample_words": _observe_sample_words,
    "sampler.g_from_schwarz": _observe_g,
    "phi.phi_series": _observe_phi_series,
    "sampler.oracle_sup": _observe_oracle,
    "sampler.montecarlo_verify": _observe_montecarlo,
}


class Tracer:
    def __init__(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rounds = []  # (first span, end span, RoundStats)
        self._stack = [-1]
        self._stats = None

    def _wrap(self, idx, fn, observe):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(self._stats, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, package_name: str = "toeplitz_lab"):
        """Wrap every traced function for the duration of the block."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == package_name or k.startswith(package_name + "."))]
        patches = []
        try:
            for idx, name in enumerate(NAMES):
                mod_name, fn_name = name.split(".")
                original = getattr(sys.modules.get(f"{package_name}.{mod_name}"), fn_name, None)
                if original is None:
                    continue  # a function the program no longer has counts 0 calls
                wrapper = self._wrap(idx, original, OBSERVERS.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patches.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patches):
                setattr(mod, attr, original)

    @contextlib.contextmanager
    def round(self):
        """Group the spans of one round of jobs."""
        first = len(self.start)
        self._stats = RoundStats()
        try:
            yield
        finally:
            self.rounds.append((first, len(self.start), self._stats))
            self._stats = None

    def _columns(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return name_id, dur, dur - child

    def metrics(self, traced_walls, untraced_walls) -> dict:
        """Every per-layer metric, per round (medians over traced rounds)."""
        k = len(NAMES)
        name_id, dur, self_t = self._columns()
        calls, selfs, incl = [], [], []
        for a, b, _ in self.rounds:
            calls.append(np.bincount(name_id[a:b], minlength=k))
            selfs.append(np.bincount(name_id[a:b], weights=self_t[a:b], minlength=k))
            incl.append(np.bincount(name_id[a:b], weights=dur[a:b], minlength=k))
        if any((c != calls[0]).any() for c in calls):
            print("trace: call counts differ between rounds", file=sys.stderr)
        out = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = int(calls[0][i])
            out[f"{name}.self_s"] = statistics.median(float(s[i]) for s in selfs)

        def per_call(num, name):
            c = out[f"{name}.calls"]
            return num / c if c else 0.0

        def rate(num, name):
            t = sum(float(x[NAMES.index(name)]) for x in incl)
            return num * len(self.rounds) / t if t else 0.0

        st = self.rounds[0][2]
        out["sampler.sample_words.words_per_call"] = per_call(st.words, "sampler.sample_words")
        out["sampler.g_from_schwarz.distinct_ratio"] = per_call(
            len(st.g_keys), "sampler.g_from_schwarz")
        out["sampler.g_from_schwarz.coeff_use_ratio"] = per_call(st.g_use, "sampler.g_from_schwarz")
        out["phi.phi_series.distinct_ratio"] = per_call(len(st.phi_keys), "phi.phi_series")
        out["sampler.oracle_sup.points"] = st.points
        out["sampler.oracle_sup.points_per_s"] = rate(st.points, "sampler.oracle_sup")
        out["sampler.oracle_sup.max_deficit"] = st.max_deficit
        out["sampler.montecarlo_verify.samples_per_s"] = rate(
            st.samples, "sampler.montecarlo_verify")
        out["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(untraced_walls))
        return {m["name"]: {"value": out[m["name"]], "unit": m["unit"]} for m in per_layer_spec()}

    def write(self, json_path, npz_path, meta: dict) -> None:
        """Spans to ``npz_path``; run description and round bounds to ``json_path``."""
        np.savez_compressed(
            npz_path,
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
        meta = dict(meta, names=list(NAMES), spans=len(self.start),
                    rounds=[[a, b] for a, b, _ in self.rounds], spans_file=str(npz_path.name))
        json_path.write_text(json.dumps(meta, indent=2, sort_keys=True))
