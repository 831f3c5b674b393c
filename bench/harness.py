"""The hfo benchmark's run loop: jobs, timing, output checks and metrics.

A job is one in-process call of ``hfo.cli.main`` on a generated config. The
loop is closed with a single caller: each job starts when the previous one
has ended and its outputs have been checked. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import hfo.cli
import hostspeed
import scenarios
import spans

SETUP_REPEATS = 9
MIN_JOBS = 2
TAIL_BEYOND = 10  # jobs that must lie beyond the tail percentile
MEMORY_NOTE = ("peak_mem_mb and hybrid.retained_bytes_per_sample cover the "
               "Python heap seen by tracemalloc (numpy buffers included), "
               "not RSS")

END_TO_END_UNITS = {
    "job_s.p50": "s",
    "job_s.tail": "s",
    "samples_per_s": "1/s",
    "peak_mem_mb": "MiB",
    "success_ratio": "ratio",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "cli.write_trajectory_csv.total_s": "s",
    "cli.write_trajectory_csv.us_per_row": "us/row",
    "cli.csv_bytes": "B",
    "cli.job.self_s": "s",
    "hybrid.simulate.calls": "count",
    "hybrid.simulate.total_s": "s",
    "hybrid.simulate.self_s": "s",
    "hybrid.samples": "count",
    "hybrid.segments": "count",
    "hybrid.jumps": "count",
    "hybrid.us_per_sample": "us/sample",
    "hybrid.retained_bytes_per_sample": "B/sample",
    "hybrid.check_non_zeno.total_s": "s",
    "model.flow_x.calls": "count",
    "model.flow_x.self_s": "s",
    "model.propagator_hit_ratio": "ratio",
    "model.jump_maps.calls": "count",
    "model.validate.total_s": "s",
    "linalg.mat_exp.calls": "count",
    "linalg.mat_exp.self_s": "s",
    "linalg.solve.calls": "count",
    "linalg.solve.self_s": "s",
    "linalg.failed": "count",
    "analysis.constants.total_s": "s",
    "analysis.estimate_M.total_s": "s",
    "analysis.check_bound.total_s": "s",
    "analysis.check_bound.us_per_sample": "us/sample",
    "analysis.rate_check.total_s": "s",
    "analysis.fixed_point_z.calls": "count",
    "analysis.reconstruct_x.total_s": "s",
    "analysis.reconstruct_x.self_s": "s",
    "analysis.reconstruct_x.us_per_sample": "us/sample",
    "robustness.robustness_sweep.total_s": "s",
    "robustness.closeness.total_s": "s",
    "robustness.closeness.us_per_sample": "us/sample",
    "robustness.useful_sample_ratio": "ratio",
    "config.parse_config.total_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Run in a fresh interpreter: import hfo, parse and validate one config.
SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
from hfo.config import parse_config
from hfo.model import validate
config = parse_config(sys.argv[2])
sys.exit(0 if validate(config.params, config.initial_state(),
                       mode=config.init_mode).ok else 1)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(scenarios.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: short horizons, one set-up")
    parser.add_argument("--reference", type=Path, default=None,
                        help="reference file (default: reference/<workload>"
                             ".json beside this file)")
    return parser.parse_args(argv)


def git_sha(root: Path):
    """Commit of the checkout, read from .git without running git; None
    outside a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_pin": {var: value for var, value in os.environ.items()
                            if var.endswith("_NUM_THREADS")},
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def tail_percentile(jobs: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND jobs beyond it."""
    return max(0, math.floor(100.0 * (1.0 - TAIL_BEYOND / jobs)))


def measure_setup(src: Path, config_path: Path, repeats: int,
                  clock: hostspeed.HostSpeed) -> tuple:
    """Wall and reference seconds of ``repeats`` set-ups, each in a fresh
    interpreter between two kernel blocks."""
    wall, scaled = [], []
    before = clock.block()
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(src), str(config_path)],
            capture_output=True, text=True, timeout=120)
        wall.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        after = clock.block()
        scaled.append(wall[-1] * clock.scale(before, after))
        before = after
    return wall, scaled


class Runner:
    """Runs and checks jobs of one workload in one work directory."""

    def __init__(self, workload, root: Path, work: Path, reference: list,
                 tiny: bool):
        self.workload = workload
        self.root = root
        self.reference = reference
        self.tiny = tiny
        self.config_path = work / "config.json"
        self.out = work / "out"
        self.failures: list = []
        self.attempted = 0
        self.last_output = ""

    def prepare(self, index: int) -> list:
        """Write pool entry ``index``'s config; returns the CLI argv."""
        cfg, extra = self.workload.make(index, self.root, self.tiny)
        self.config_path.write_text(json.dumps(cfg))
        shutil.rmtree(self.out, ignore_errors=True)
        return self.workload.argv(self.config_path, self.out, extra)

    def call(self, argv, wrap=None):
        """One job: ``hfo.cli.main(argv)``, optionally through ``wrap``.
        Returns (exit code or the exception it raised, seconds)."""
        gc.collect()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                rc = wrap(hfo.cli.main, argv) if wrap else hfo.cli.main(argv)
            except (Exception, SystemExit) as exc:
                rc = exc
            elapsed = time.perf_counter() - t0
        self.last_output = sink.getvalue()
        return rc, elapsed

    def check(self, index: int, rc):
        """Record a failure if the job raised, exited non-zero, broke an
        invariant or left its stored reference. Returns the job's summary
        outputs, or None if it has none."""
        self.attempted += 1
        summary = None
        if rc != 0:
            problems = [f"exit {rc!r}: {self.last_output.strip()[-300:]}"]
        else:
            try:
                summary = self.workload.summarize(self.out)
            except Exception as exc:  # any unreadable output fails the job
                problems = [f"unreadable outputs: {exc!r}"]
            else:
                problems = scenarios.invariant_problems(summary)
                if index < len(self.reference):
                    problems += scenarios.reference_problems(
                        summary, self.reference[index])
        if problems:
            self.failures.append({"scenario": index, "problems": problems})
        return summary

    def csv_size(self):
        """(data rows, bytes) of the job's trajectory CSV, if it wrote one."""
        path = self.out / "trajectory.csv"
        if not path.exists():
            return 0, 0
        data = path.read_bytes()
        return data.count(b"\n") - 1, len(data)


def build_reference(workload, root: Path, count: int, tiny: bool = False,
                    work: Path | None = None) -> list:
    """Summaries of pool entries 0..count-1, checked by the invariants."""
    work = work or root / ".bench_work" / f"{workload.name}-reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, root, work, [], tiny)
    summaries = []
    for index in range(count):
        rc, _ = runner.call(runner.prepare(index))
        summary = runner.check(index, rc)
        if runner.failures:
            raise RuntimeError(f"scenario {index}: {runner.failures[-1]}")
        summaries.append(summary)
    shutil.rmtree(work, ignore_errors=True)
    return summaries


def run(args, root: Path, work: Path | None = None) -> dict:
    """One benchmark run; its files go to ``work`` (default: a directory
    under .bench_work in the checkout)."""
    workload = scenarios.WORKLOADS[args.workload]
    ref_path = args.reference or (Path(__file__).resolve().parent / "reference"
                                  / f"{workload.name}.json")
    reference = json.loads(ref_path.read_text())["scenarios"]
    work = work or (root / ".bench_work"
                    / f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, root, work, reference, args.tiny)
    order = scenarios.job_scenarios(workload, args.seed, len(reference))

    # memory probe: its own untimed job, which also warms every code path
    probe_index = next(order)
    argv = runner.prepare(probe_index)
    clock = hostspeed.HostSpeed()
    setup_wall, setup = [], []
    if not args.trace:
        setup_wall, setup = measure_setup(root / "src", runner.config_path,
                                          1 if args.tiny else SETUP_REPEATS,
                                          clock)
    (rc, _), peak, held, held_samples = spans.memory_probe(
        runner.call, argv)
    runner.check(probe_index, rc)

    tracer = spans.Tracer() if args.trace else None
    counts = Counter()
    job_s, traced_s, wall_s = [], [], []
    samples = csv_rows = csv_bytes = 0
    deadline = time.perf_counter() + args.seconds
    job = 0
    undo = [] if args.trace else spans.sample_counter(counts)
    try:
        before = clock.block()
        while time.perf_counter() < deadline or job < MIN_JOBS:
            index = next(order)
            argv = runner.prepare(index)
            traced = tracer is not None and job % 2 == 1
            counts["samples"] = 0
            if traced:
                rc, wall = runner.call(
                    argv, lambda fn, a, j=job: tracer.run_job(j, fn, a))
            else:
                rc, wall = runner.call(argv)
            after = clock.block()
            elapsed = wall * clock.scale(before, after)
            before = after
            if traced:
                traced_s.append(elapsed)
                rows, size = runner.csv_size()
                csv_rows += rows
                csv_bytes += size
            else:
                job_s.append(elapsed)
                wall_s.append(wall)
                samples += counts["samples"]
            runner.check(index, rc)
            job += 1
    finally:
        spans.unpatch(undo)

    tail = tail_percentile(len(job_s))
    result = {
        "env": environment(root) | {
            "workload": workload.name, "seed": args.seed,
            "run_seconds": args.seconds, "tiny": args.tiny,
            "jobs_timed": len(job_s), "jobs_traced": len(traced_s),
            "tail_percentile": tail, "pool_size": len(reference),
            "reference": str(ref_path.relative_to(root)
                             if ref_path.is_relative_to(root) else ref_path),
        },
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failed_ratio": len(runner.failures) / runner.attempted,
        "failures": runner.failures,
        "note": MEMORY_NOTE,
        "job_s": job_s,
        "traced_job_s": traced_s,
        "job_wall_s": wall_s,
        "setup_s": setup,
        "setup_wall_s": setup_wall,
        "kernel_s": clock.kernel_s,
    }
    if tracer is None:
        values = {
            "job_s.p50": statistics.median(job_s),
            "job_s.tail": float(np.percentile(job_s, tail)),
            "samples_per_s": samples / sum(job_s),
            "peak_mem_mb": peak / 2 ** 20,
            "success_ratio": 1.0 - result["failed_ratio"],
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END_UNITS
    else:
        tracer.save(work / "trace.npz")
        values = tracer.layer_metrics({
            "csv_rows": csv_rows, "csv_bytes": csv_bytes,
            "retained_bytes_per_sample": held / held_samples if held_samples
            else 0.0,
        })
        values["trace.overhead_ratio"] = (statistics.median(traced_s)
                                          / statistics.median(job_s))
        units = PER_LAYER_UNITS
    result["metrics"] = {name: {"value": float(values[name]), "unit": unit}
                         for name, unit in units.items()}
    shutil.rmtree(runner.out, ignore_errors=True)
    (work / "result.json").write_text(json.dumps(result, indent=2))
    return result


def declared_metrics(root: Path, trace: int) -> list:
    """Names of the metrics BENCHMARK.json declares for this kind of run."""
    doc = json.loads((root / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def main(argv, root: Path) -> int:
    args = parse_args(argv)
    result = run(args, root)
    declared = declared_metrics(root, args.trace)
    print("env " + json.dumps(result["env"]))
    for failure in result["failures"][:5]:
        print(f"FAILED scenario {failure['scenario']}: "
              f"{'; '.join(failure['problems'])}", file=sys.stderr)
    print(f"jobs attempted {result['attempted']}, failed {result['failed']}, "
          f"failed_ratio {result['failed_ratio']:.6g}")
    if not args.trace:
        print(f"job_s.tail is the p{result['env']['tail_percentile']} of "
              f"{result['env']['jobs_timed']} timed jobs")
    print(f"note: {result['note']}")
    kernel = result["kernel_s"]
    print(f"timings are in reference seconds (see hostspeed.py): kernel "
          f"median {statistics.median(kernel) * 1e3:.4g} ms, range "
          f"{min(kernel) * 1e3:.4g}-{max(kernel) * 1e3:.4g} ms, reference "
          f"{hostspeed.REFERENCE_S * 1e3:.4g} ms")
    if result["job_wall_s"]:
        print(f"unscaled wall time: job p50 "
              f"{statistics.median(result['job_wall_s']):.6g} s")
    if result["setup_wall_s"]:
        print(f"unscaled wall time: setup median "
              f"{statistics.median(result['setup_wall_s']):.6g} s")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name] for name in declared},
    }))
    return 0
