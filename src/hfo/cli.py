"""Command-line frontend: simulate scenarios, verify the convergence theory
against simulated arcs, and run robustness sweeps.

Exit codes: 0 success, 1 verification failure, 2 input or validation error,
3 internal error (a numerical failure or a broken invariant inside hfo).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, hybrid
from .config import ConfigError, ScenarioConfig, parse_config
from .model import HybridFOModel, validate
from .robustness import ScaleError, robustness_sweep

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3

# stored samples trajectory.csv formats at a time: the writer's memory is
# bounded by one block, whatever the arc's length
CSV_BLOCK = 256


def _load(config_path: str) -> ScenarioConfig:
    return parse_config(config_path, os.environ.get("HFO_SEED"))


def _validated(config: ScenarioConfig):
    """(checked initial state, diagnostics, constants), before any run."""
    diag = validate(config.params, config.zeta0, mode=config.init_mode)
    if not diag.ok:
        lines = [f"  {c.name}: {c.detail}" for c in diag.failures()]
        raise ConfigError("validation failed:\n" + "\n".join(lines))
    return diag.zeta0, diag, analysis.constants(config.params)


def _run(config: ScenarioConfig):
    zeta0, diag, consts = _validated(config)
    model = HybridFOModel(config.params)
    try:
        arc = hybrid.simulate(model, zeta0, config.policy, config.horizon,
                              config.sample_dt)
    except hybrid.SampleBudgetError as exc:
        raise ConfigError(f"fields 'horizon.T' and 'horizon.J': {exc}; "
                          f"lower either") from None
    return arc, consts, diag


def _csv_header(params) -> list:
    plant = params.plant
    return (
        ["t", "j", "case"]
        + [f"x_{i}" for i in range(plant.n)]
        + [f"u_{i}" for i in range(plant.m)]
        + [f"ys_{i}" for i in range(plant.p)]
        + [f"z_{i}" for i in range(plant.m)]
        + ["tau_c", "tau_g", "dist_to_A"]
    )


def _reprs(column) -> list:
    """``repr`` of every float in a 1-D array. Each distinct float64 bit
    pattern is formatted once, in one C call; bits, not values, so that
    -0.0 and 0.0 stay apart."""
    bits, which = np.unique(column.view(np.int64), return_inverse=True)
    reprs = repr(bits.view(np.float64).tolist())[1:-1].split(", ")
    return [reprs[k] for k in which.tolist()]


def _held(arc, j) -> str:
    """Segment j's held [u, y_s, z] fields, joined: the repr of their list."""
    held = np.concatenate([arc.u[j], arc.y_s[j], arc.z[j]]).tolist()
    return repr(held)[1:-1].replace(", ", ",")


class _Block:
    """The fields of the stored samples lo..hi - 1, formatted by column:
    ``times[i - lo]`` and, around the held fields, ``xs[i - lo]`` (the plant
    state) and ``timers[i - lo]`` (tau_c, tau_g, dist_to_A)."""

    def __init__(self, arc, consts, lo):
        self.lo, self.hi = lo, min(lo + CSV_BLOCK, len(arc.times))
        span = slice(self.lo, self.hi)
        x = arc.x[span]
        self.times = _reprs(arc.times[span])
        self.xs = list(map(",".join, zip(*(_reprs(col) for col in x.T))))
        self.timers = list(map(",".join, zip(
            _reprs(arc.tau_c[span]), _reprs(arc.tau_g[span]),
            _reprs(analysis.dist_to_A(x, consts)))))

    def rows(self, lo, hi, j, case, held) -> str:
        """The lines of samples lo..hi - 1, all in this block and in
        segment j, whose held fields are ``held``."""
        head, tail = f",{j},{case},", f",{held},"
        k = slice(lo - self.lo, hi - self.lo)
        return "".join([f"{t}{head}{x}{tail}{timers}\r\n" for t, x, timers
                        in zip(self.times[k], self.xs[k], self.timers[k])])


def write_trajectory_csv(path: Path, arc, consts, params):
    """Flow samples plus a pre/post row pair for every jump j: the last
    sample of segment j and the first of segment j + 1.

    The bytes are those of ``csv.writer`` with its default dialect: no field
    needs quoting, since each is a float repr, an int or a case label.
    Fields are formatted by column, CSV_BLOCK stored samples at a time, so
    the writer's memory does not grow with the arc."""
    with path.open("w", newline="") as fh:
        fh.write(",".join(_csv_header(params)) + "\r\n")
        block = _Block(arc, consts, 0)
        held = _held(arc, 0)
        offsets = map(int, arc.offsets)
        for j, (lo, hi) in enumerate(itertools.pairwise(offsets)):
            while lo < hi:
                if lo == block.hi:
                    block = _Block(arc, consts, lo)
                stop = min(hi, block.hi)
                fh.write(block.rows(lo, stop, j, "", held))
                lo = stop
            if j < len(arc.jumps):
                case = arc.jumps[j].case
                fh.write(block.rows(hi - 1, hi, j, f"{case}:pre", held))
                if hi == block.hi:
                    block = _Block(arc, consts, hi)
                held = _held(arc, j + 1)
                fh.write(block.rows(hi, hi + 1, j + 1, f"{case}:post", held))


@contextlib.contextmanager
def _writing(out: Path):
    """An OSError on the --out directory or a file in it is bad input that
    names --out, never a traceback."""
    try:
        yield out
    except OSError as exc:
        reason = exc.strerror or str(exc)
        if exc.filename and Path(exc.filename) != out:
            reason += f": {exc.filename}"
        raise ConfigError(f"--out {out}: {reason}") from None


def _out_dir(path: str) -> Path:
    """The --out directory, made before any work, so that an unusable one
    fails fast."""
    with _writing(Path(path)) as out:
        out.mkdir(parents=True, exist_ok=True)
    return out


def _base_report(config, consts, diag) -> dict:
    return {
        "tool_version": __version__,
        "config": config.document,
        "constants": consts.as_dict(),
        "validation": [dataclasses.asdict(c) for c in diag.checks],
    }


def cmd_simulate(args) -> int:
    config = _load(args.config)
    out = _out_dir(args.out)
    arc, consts, diag = _run(config)
    stats = hybrid.jump_stats(arc)
    zeno = hybrid.check_non_zeno(arc)
    report = _base_report(config, consts, diag)
    report.update({
        "t_end": arc.t_end,
        "jumps": len(arc.jumps),
        "alpha": stats.alpha,
        "alpha_bar": stats.alpha_bar,
        "non_zeno": dataclasses.asdict(zeno),
    })
    with _writing(out):
        write_trajectory_csv(out / "trajectory.csv", arc, consts,
                             config.params)
        (out / "report.json").write_text(json.dumps(report, indent=2))
    print(f"wrote {out / 'trajectory.csv'} and {out / 'report.json'}")
    return EXIT_OK


def _bound_check(rep) -> dict:
    return {
        "passed": rep.passed,
        "max_violation": rep.max_violation,
        "first_entry_time": rep.first_entry_time,
        "worst_t": rep.worst_t,
        "worst_j": rep.worst_j,
    }


def cmd_verify(args) -> int:
    config = _load(args.config)
    out = _out_dir(args.out)
    arc, consts, diag = _run(config)
    params = config.params
    checks = {}

    # Theorem 1 holds for restricted initializations, in either init mode
    if any(c.name == "init_restricted" and c.status == "pass"
           for c in diag.checks):
        checks["bound_thm1"] = _bound_check(
            analysis.check_bound(arc, consts, "thm1"))
    else:
        checks["bound_thm1"] = {
            "passed": None,
            "skipped": "restricted initialization not satisfied",
        }
    checks["bound_thm2"] = _bound_check(
        analysis.check_bound(arc, consts, "thm2"))

    rates = analysis.rate_check(arc, params)
    checks["contraction"] = {
        "passed": rates.passed,
        "periods": len(rates.periods),
        "worst_step_margin": max(
            (p.worst_step_margin for p in rates.periods), default=None),
    }
    recon = analysis.reconstruct_x(arc, params)
    checks["reconstruction"] = {
        "passed": recon.max_deviation <= analysis.RECONSTRUCTION_TOL,
        "max_deviation": recon.max_deviation,
        "path": recon.path,
        "eigenbasis_cond": recon.eigenbasis_cond,
    }
    zeno = hybrid.check_non_zeno(arc)
    checks["non_zeno"] = dataclasses.asdict(zeno)

    report = _base_report(config, consts, diag)
    report["checks"] = checks
    with _writing(out):
        (out / "verify_report.json").write_text(json.dumps(report, indent=2))

    failed = [name for name, c in checks.items() if c["passed"] is False]
    for name, c in checks.items():
        status = {True: "PASS", False: "FAIL", None: "SKIP"}[c["passed"]]
        print(f"{status} {name}")
    if failed:
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _sweep_arguments(args):
    """(tau, deltas) from the command line: tau finite and nonnegative, and
    each delta a number; ``robustness_sweep`` checks each scale."""
    tau = args.tau
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ConfigError(f"--tau must be finite and >= 0, got {tau!r}")
    texts = (["0.1", "0.01", "0.001"] if args.deltas is None
             else args.deltas.split(","))
    deltas = []
    for text in texts:
        try:
            deltas.append(float(text))
        except ValueError:
            raise ConfigError(f"--deltas: {text!r} is not a number") from None
    return tau, deltas


def cmd_robustness(args) -> int:
    config = _load(args.config)
    out = _out_dir(args.out)
    if config.perturbation is None:
        raise ConfigError("config has no perturbation block")
    tau, deltas = _sweep_arguments(args)
    zeta0, diag, consts = _validated(config)
    try:
        sweep = robustness_sweep(config.params, config.perturbation, deltas,
                                 tau, config.policy, zeta0, config.sample_dt)
    except ScaleError as exc:
        raise ConfigError(f"--deltas: {exc}") from None
    except hybrid.SampleBudgetError as exc:
        raise ConfigError(f"--tau {tau:g}: {exc}") from None
    report = _base_report(config, consts, diag)
    report["sweep"] = {
        "tau": sweep.tau,
        "rows": [dataclasses.asdict(row) for row in sweep.rows],
        "nonincreasing": sweep.nonincreasing,
    }
    with _writing(out):
        with (out / "robustness.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["delta", "epsilon", "witness_t", "witness_j"])
            for row in sweep.rows:
                writer.writerow([row.delta, row.epsilon, row.witness_t,
                                 row.witness_j])
        (out / "robustness_report.json").write_text(json.dumps(report, indent=2))
    trend = "nonincreasing" if sweep.nonincreasing else "NOT nonincreasing"
    print(f"epsilon trend over decreasing delta: {trend}")
    for row in sweep.rows:
        print(f"delta={row.delta:g} epsilon={row.epsilon:g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfo",
        description="Sampled-data feedback-optimization simulator and verifier",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario, emit CSV + report")
    sim.add_argument("config")
    sim.add_argument("--out", default=".", help="output directory")
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify", help="run convergence/structure checks")
    ver.add_argument("config")
    ver.add_argument("--out", default=".")
    ver.set_defaults(func=cmd_verify)

    rob = sub.add_parser("robustness", help="perturbation sweep")
    rob.add_argument("config")
    rob.add_argument("--out", default=".")
    rob.add_argument("--deltas", default=None,
                     help="comma-separated perturbation scales")
    rob.add_argument("--tau", type=float, default=10.0,
                     help="hybrid-time horizon t + j for closeness")
    rob.set_defaults(func=cmd_robustness)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    # LinAlgError derives from ValueError, so it must be caught first
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
