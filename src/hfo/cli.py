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
# bounded by one block and the memo below, whatever the arc's length
CSV_BLOCK = 256
# most tau_c, tau_g and dist_to_A reprs the trajectory writer keeps for
# reuse, across blocks
CSV_MEMO = 256


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


def _reprs(values) -> list:
    """``repr`` of every float in a 1-D array, from one ``repr`` of its
    list."""
    return repr(values.tolist())[1:-1].split(", ")


def _row_reprs(rows) -> list:
    """Each row of a 2-D array as its floats' reprs joined by commas, from
    one ``repr`` of its nested list."""
    return repr(rows.tolist())[2:-2].replace(", ", ",").split("],[")


def _memo_reprs(column, memo: dict) -> list:
    """``_reprs(column)`` through ``memo``, which maps float64 bit patterns
    (bits, not values, so that -0.0 and 0.0 stay apart) to their reprs: only
    the patterns not in it are formatted, with one ``repr``. It is emptied
    before it would pass CSV_MEMO entries."""
    keys = column.view(np.int64).tolist()
    try:
        return list(map(memo.__getitem__, keys))
    except KeyError:
        pass
    distinct = set(keys)
    new = distinct.difference(memo)
    if len(memo) + len(new) > CSV_MEMO:
        memo.clear()
        new = distinct
    new = list(new)
    memo.update(zip(new, _reprs(
        np.array(new, dtype=np.int64).view(np.float64))))
    return list(map(memo.__getitem__, keys))


def _labelled(row: str, label: str) -> str:
    """A flow row with ``label`` in its case field, the row's only empty
    field."""
    return row.replace(",,", f",{label},", 1)


def _block_text(arc, consts, lo: int, hi: int, memo: dict) -> str:
    """The lines of the stored samples lo..hi - 1, jump rows included.

    Every line of sample i, its flow row or the :pre or :post row of a jump,
    holds sample i's fields and the index and held fields of sample i's
    segment. So the flow rows come from one comprehension over per-sample
    fields, and jump j's rows are flow rows relabelled: a :pre row after
    the last sample of segment j, a :post row before the first of j + 1."""
    span = slice(lo, hi)
    x = arc.x[span]
    which = np.searchsorted(arc.offsets, np.arange(lo, hi), "right") - 1
    first, last = int(which[0]), int(which[-1])
    segments = slice(first, last + 1)
    # the fields around x of each of the block's segments
    heads = [f",{j},," for j in range(first, last + 1)]
    tails = [f",{held}," for held in _row_reprs(np.hstack(
        [arc.u[segments], arc.y_s[segments], arc.z[segments]]))]
    xs = [_reprs(col) for col in x.T]
    xs = xs[0] if len(xs) == 1 else list(map(",".join, zip(*xs)))
    rows = [f"{t}{heads[k]}{xk}{tails[k]}{c},{g},{d}\r\n"
            for t, k, xk, c, g, d in zip(
                _reprs(arc.times[span]), (which - first).tolist(), xs,
                _memo_reprs(arc.tau_c[span], memo),
                _memo_reprs(arc.tau_g[span], memo),
                _memo_reprs(analysis.dist_to_A(x, consts), memo))]
    lines = rows.copy()
    for j in range(max(first - 1, 0), min(last + 1, len(arc.jumps))):
        case = hybrid.JUMPS[arc.jumps[j]][0]
        k = int(arc.offsets[j + 1]) - lo  # segment j + 1's first sample
        if 0 < k <= len(rows):
            lines[k - 1] += _labelled(rows[k - 1], f"{case}:pre")
        if 0 <= k < len(rows):
            lines[k] = _labelled(rows[k], f"{case}:post") + lines[k]
    return "".join(lines)


def write_trajectory_csv(path: Path, arc, consts, params):
    """Flow samples plus a pre/post row pair for every jump j: the last
    sample of segment j and the first of segment j + 1.

    The bytes are those of ``csv.writer`` with its default dialect (``,``
    between fields, ``\\r\\n`` after each line): no field needs quoting,
    since each is a float repr, an int or a case label.

    The writer formats CSV_BLOCK stored samples at a time and writes each
    block at once (``_block_text``), so its memory does not grow with the
    arc. Per block, t and each x_i come from one ``repr`` of the column's
    list, since they are all distinct, and the held u, y_s, z of the
    block's segments from one more. tau_c, tau_g and dist_to_A go through
    one memo keyed by float64 bit pattern (``_memo_reprs``), which lives
    across blocks and holds at most CSV_MEMO reprs: timers repeat along an
    arc, so most of their values are formatted once."""
    memo = {}
    with path.open("w", newline="") as fh:
        fh.write(",".join(_csv_header(params)) + "\r\n")
        for lo in range(0, len(arc.times), CSV_BLOCK):
            fh.write(_block_text(arc, consts, lo,
                                 min(lo + CSV_BLOCK, len(arc.times)), memo))


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


_PARSER = None  # main's parser, built on its first call


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
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
