"""Spans around hfo's public functions, recorded from the benchmark's side.

``Tracer.run_job`` replaces each function in ``TARGETS`` by a wrapper that
records one span per call: name, start, end, parent span and job id. The
wrapper is bound at every namespace of the ``hfo`` package that binds the
original (``hfo.robustness.simulate``, ``hfo.cli.validate``, ...), so calls
through from-imports are traced too. Spans stay in memory, in flat columns,
until ``save`` writes them out.
"""

from __future__ import annotations

import functools
import sys
import tracemalloc
import types
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from hfo.hybrid import EVENT_TOL


def arc_samples(arc) -> int:
    return sum(len(seg.times) for seg in arc.segments)


def arc_samples_within(arc, tau: float) -> int:
    """Samples with t + j <= tau, the ones ``closeness`` reads."""
    return sum(int(np.count_nonzero(seg.times + seg.j <= tau + EVENT_TOL))
               for seg in arc.segments)


def _resolve(path: str):
    module, _, attr = path.partition(":")
    owner = sys.modules[module]
    *owners, name = attr.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, name


def patch(path: str, make_wrapper) -> list:
    """Bind ``make_wrapper(original)`` wherever hfo binds the original.

    ``path`` is ``"module:name"`` or ``"module:Class.method"``. Returns the
    undo list for ``unpatch``.
    """
    owner, name = _resolve(path)
    original = getattr(owner, name)
    wrapper = make_wrapper(original)
    owners = [owner]
    if isinstance(owner, types.ModuleType):
        owners = [mod for key, mod in list(sys.modules.items())
                  if (key == "hfo" or key.startswith("hfo."))
                  and getattr(mod, name, None) is original]
    undo = []
    for target in owners:
        setattr(target, name, wrapper)
        undo.append((target, name, original))
    return undo


def unpatch(undo: list) -> None:
    for target, name, original in reversed(undo):
        setattr(target, name, original)


# -- counters recorded at the traced boundaries ---------------------------


def _count_arc(counts, args, kwargs, arc):
    counts["hybrid.samples"] += arc_samples(arc)
    counts["hybrid.segments"] += len(arc.segments)
    counts["hybrid.jumps"] += len(arc.jumps)


def _count_arc_argument(key):
    def count(counts, args, kwargs, result):
        counts[key] += arc_samples(args[0])
    return count


def _count_closeness(counts, args, kwargs, result):
    arc1, arc2, tau = args
    useful = arc_samples_within(arc1, tau) + arc_samples_within(arc2, tau)
    counts["robustness.closeness.samples"] += useful
    counts["robustness.handed_samples"] += arc_samples(arc1) + arc_samples(arc2)


# (span name, where the function lives, counter run after each call)
TARGETS = (
    ("config.parse_config", "hfo.config:parse_config", None),
    ("model.validate", "hfo.model:validate", None),
    ("model.flow_x", "hfo.model:HybridFOModel.flow_x", None),
    ("model.g1", "hfo.model:HybridFOModel.g1", None),
    ("model.g2", "hfo.model:HybridFOModel.g2", None),
    ("hybrid.simulate", "hfo.hybrid:simulate", _count_arc),
    ("hybrid.check_non_zeno", "hfo.hybrid:check_non_zeno", None),
    ("linalg.mat_exp", "hfo.linalg:mat_exp", None),
    ("linalg.solve", "hfo.linalg:solve", None),
    ("analysis.constants", "hfo.analysis:constants", None),
    ("analysis.estimate_M", "hfo.analysis:estimate_M", None),
    ("analysis.check_bound", "hfo.analysis:check_bound",
     _count_arc_argument("analysis.check_bound.samples")),
    ("analysis.rate_check", "hfo.analysis:rate_check", None),
    ("analysis.fixed_point_z", "hfo.analysis:fixed_point_z", None),
    ("analysis.reconstruct_x", "hfo.analysis:reconstruct_x",
     _count_arc_argument("analysis.reconstruct_x.samples")),
    ("robustness.robustness_sweep", "hfo.robustness:robustness_sweep", None),
    ("robustness.closeness", "hfo.robustness:closeness", _count_closeness),
    ("cli.write_trajectory_csv", "hfo.cli:write_trajectory_csv", None),
)
ROOT_SPAN = "cli.job"


class Tracer:
    """Span recorder for one benchmark run."""

    def __init__(self):
        self.names = [ROOT_SPAN] + [name for name, _, _ in TARGETS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.counts: dict[int, Counter] = {}
        self._stack: list[int] = []
        self._job = -1

    def wrap(self, name: str, fn, count=None):
        nid = self._ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.job.append(self._job)
            self.failed.append(0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                raise
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts[self._job], args, kwargs, result)
            return result

        return traced

    def run_job(self, job: int, fn, *args):
        """Call ``fn(*args)`` as job ``job``, every target traced."""
        self._job = job
        self.counts[job] = Counter()
        undo = []
        for name, path, count in TARGETS:
            undo += patch(path, lambda f, n=name, c=count: self.wrap(n, f, c))
        try:
            return self.wrap(ROOT_SPAN, fn)(*args)
        finally:
            unpatch(undo)

    def columns(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "failed": np.frombuffer(self.failed, dtype=np.int8),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.columns())

    def layer_metrics(self, extra: dict) -> dict:
        """Per-layer metrics, as means per traced job.

        ``extra`` holds the totals the harness measured outside the spans
        (CSV rows and bytes) and the memory probe's figure.
        """
        cols = self.columns()
        jobs = max(len(self.counts), 1)
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        counts = sum(self.counts.values(), Counter())

        def select(name):
            return cols["name"] == self._ids[name]

        def calls(name):
            return int(np.count_nonzero(select(name))) / jobs

        def total(name):
            return float(dur[select(name)].sum()) / jobs

        def self_s(name):
            return float(own[select(name)].sum()) / jobs

        def per(numerator, denominator, scale=1.0):
            return numerator / denominator * scale if denominator else 0.0

        exp_spans = select("linalg.mat_exp")
        parents = np.where(exp_spans & has_parent, parent, 0)
        exp_in_flow = int(np.count_nonzero(
            exp_spans & has_parent & (cols["name"][parents] ==
                                      self._ids["model.flow_x"])))
        linalg_spans = exp_spans | select("linalg.solve")
        samples = counts["hybrid.samples"]
        return {
            "cli.write_trajectory_csv.total_s": total("cli.write_trajectory_csv"),
            "cli.write_trajectory_csv.us_per_row": per(
                total("cli.write_trajectory_csv") * jobs, extra["csv_rows"], 1e6),
            "cli.csv_bytes": extra["csv_bytes"] / jobs,
            "cli.job.self_s": self_s(ROOT_SPAN),
            "hybrid.simulate.calls": calls("hybrid.simulate"),
            "hybrid.simulate.total_s": total("hybrid.simulate"),
            "hybrid.simulate.self_s": self_s("hybrid.simulate"),
            "hybrid.samples": samples / jobs,
            "hybrid.segments": counts["hybrid.segments"] / jobs,
            "hybrid.jumps": counts["hybrid.jumps"] / jobs,
            "hybrid.us_per_sample": per(total("hybrid.simulate") * jobs, samples,
                                        1e6),
            "hybrid.retained_bytes_per_sample": extra["retained_bytes_per_sample"],
            "hybrid.check_non_zeno.total_s": total("hybrid.check_non_zeno"),
            "model.flow_x.calls": calls("model.flow_x"),
            "model.flow_x.self_s": self_s("model.flow_x"),
            "model.propagator_hit_ratio": 1.0 - per(
                exp_in_flow, np.count_nonzero(select("model.flow_x"))),
            "model.jump_maps.calls": calls("model.g1") + calls("model.g2"),
            "model.validate.total_s": total("model.validate"),
            "linalg.mat_exp.calls": calls("linalg.mat_exp"),
            "linalg.mat_exp.self_s": self_s("linalg.mat_exp"),
            "linalg.solve.calls": calls("linalg.solve"),
            "linalg.solve.self_s": self_s("linalg.solve"),
            "linalg.failed": int(np.count_nonzero(
                cols["failed"][linalg_spans])) / jobs,
            "analysis.constants.total_s": total("analysis.constants"),
            "analysis.estimate_M.total_s": total("analysis.estimate_M"),
            "analysis.check_bound.total_s": total("analysis.check_bound"),
            "analysis.check_bound.us_per_sample": per(
                total("analysis.check_bound") * jobs,
                counts["analysis.check_bound.samples"], 1e6),
            "analysis.rate_check.total_s": total("analysis.rate_check"),
            "analysis.fixed_point_z.calls": calls("analysis.fixed_point_z"),
            "analysis.reconstruct_x.total_s": total("analysis.reconstruct_x"),
            "analysis.reconstruct_x.self_s": self_s("analysis.reconstruct_x"),
            "analysis.reconstruct_x.us_per_sample": per(
                total("analysis.reconstruct_x") * jobs,
                counts["analysis.reconstruct_x.samples"], 1e6),
            "robustness.robustness_sweep.total_s": total(
                "robustness.robustness_sweep"),
            "robustness.closeness.total_s": total("robustness.closeness"),
            "robustness.closeness.us_per_sample": per(
                total("robustness.closeness") * jobs,
                counts["robustness.closeness.samples"], 1e6),
            "robustness.useful_sample_ratio": per(
                counts["robustness.closeness.samples"],
                counts["robustness.handed_samples"]),
            "config.parse_config.total_s": total("config.parse_config"),
        }


def memory_probe(fn, *args):
    """Run ``fn(*args)`` under tracemalloc.

    Returns (result, peak bytes during the call, bytes still held by the
    arcs ``hfo.simulate`` returned, summed, and their stored samples). The
    figures cover the Python heap that tracemalloc sees (numpy buffers
    included), not the resident set size.
    """
    held = Counter()

    def measuring(simulate):
        @functools.wraps(simulate)
        def measured(*a, **kw):
            before = tracemalloc.get_traced_memory()[0]
            arc = simulate(*a, **kw)
            held["bytes"] += tracemalloc.get_traced_memory()[0] - before
            held["samples"] += arc_samples(arc)
            return arc
        return measured

    undo = patch("hfo.hybrid:simulate", measuring)
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        unpatch(undo)
    return result, peak, held["bytes"], held["samples"]


def sample_counter(counts: Counter) -> list:
    """Count the stored samples of every arc ``hfo.simulate`` returns into
    ``counts["samples"]``; returns the undo list. One call per arc, so it
    stays on in the timed runs."""

    def counting(simulate):
        @functools.wraps(simulate)
        def counted(*a, **kw):
            arc = simulate(*a, **kw)
            counts["samples"] += arc_samples(arc)
            return arc
        return counted

    return patch("hfo.hybrid:simulate", counting)
