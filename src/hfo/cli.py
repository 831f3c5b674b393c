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

# most stored samples trajectory.csv formats at a time, and most per-sample
# timer texts its memo keeps across blocks: the writer's memory is bounded by
# one block and the memo, whatever the arc's length
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


def _reprs(values) -> list:
    """``repr`` of every float in a 1-D array."""
    return list(map(repr, values.tolist()))


def _row_reprs(rows) -> list:
    """Each row of a 2-D array as its floats' reprs joined by commas, from
    one ``repr`` of its nested list."""
    return repr(rows.tolist())[2:-2].replace(", ", ",").split("],[")


def _suffixes(tau_c, tau_g, dist, memo: dict) -> list:
    """The text ``,tau_c,tau_g,dist_to_A\\r\\n`` of each sample of one
    segment, or of one piece of it, through ``memo``: it maps the bytes of
    the three slices (bits, not values, so that -0.0 and 0.0 stay apart) to
    the segment's texts, and it is emptied before it would hold more than
    CSV_BLOCK texts."""
    key = tau_c.tobytes() + tau_g.tobytes() + dist.tobytes()
    suffixes = memo.get(key)
    if suffixes is None:
        if sum(map(len, memo.values())) + len(tau_c) > CSV_BLOCK:
            memo.clear()
        suffixes = memo[key] = [
            f",{c},{g},{d}\r\n"
            for c, g, d in zip(_reprs(tau_c), _reprs(tau_g), _reprs(dist))]
    return suffixes


def _block_text(arc, consts, lo: int, hi: int, memo: dict) -> str:
    """The lines of the stored samples lo..hi - 1, jump rows included: whole
    segments, or a piece of a segment longer than CSV_BLOCK samples.

    Every line of a segment's sample, its flow row or the :pre or :post row
    of a jump, holds the segment's index and held fields. So each segment
    is written in one go: the :post row of jump j - 1 before the first
    sample of segment j, its flow rows, and the :pre row of jump j after
    its last sample."""
    x = arc.x[lo:hi]
    times = _reprs(arc.times[lo:hi])
    xs = [_reprs(col) for col in x.T]
    xs = xs[0] if len(xs) == 1 else list(map(",".join, zip(*xs)))
    dist = analysis.dist_to_A(x, consts)
    # the block meets segments first..stop - 1, which start and end at bounds
    first = int(np.searchsorted(arc.offsets, lo, "right")) - 1
    stop = int(np.searchsorted(arc.offsets, hi))
    bounds = arc.offsets[first:stop + 1].tolist()
    segments = slice(first, stop)
    helds = _row_reprs(np.hstack(
        [arc.u[segments], arc.y_s[segments], arc.z[segments]]))
    # the labels of jumps base..stop - 1
    base = max(first - 1, 0)
    cases = [hybrid.JUMPS[code][0]
             for code in arc.jumps[base:stop].tolist()]
    lines = []
    for j, start, end, held in zip(range(first, stop), bounds, bounds[1:],
                                   helds):
        a, b = max(start, lo) - lo, min(end, hi) - lo
        t, xj = times[a:b], xs[a:b]
        suffixes = _suffixes(arc.tau_c[lo + a:lo + b],
                             arc.tau_g[lo + a:lo + b], dist[a:b], memo)
        if j and start >= lo:
            lines.append(f"{t[0]},{j},{cases[j - 1 - base]}:post,{xj[0]},"
                         f"{held}{suffixes[0]}")
        head = f",{j},,"
        lines += [f"{tk}{head}{xk},{held}{suffix}"
                  for tk, xk, suffix in zip(t, xj, suffixes)]
        if j < len(arc.jumps) and end <= hi:
            lines.append(f"{t[-1]},{j},{cases[j - base]}:pre,{xj[-1]},"
                         f"{held}{suffixes[-1]}")
    del times, xs  # the rows hold their text now
    return "".join(lines)


def write_trajectory_csv(path: Path, arc, consts, params):
    """Flow samples plus a pre/post row pair for every jump j: the last
    sample of segment j and the first of segment j + 1.

    The bytes are those of ``csv.writer`` with its default dialect (``,``
    between fields, ``\\r\\n`` after each line): no field needs quoting,
    since each is a float repr, an int or a case label.

    The writer formats the arc in blocks of whole segments, at most
    CSV_BLOCK stored samples each, and writes each block at once
    (``_block_text``), so its memory does not grow with the arc. A segment
    longer than CSV_BLOCK samples is cut into pieces of at most that size.
    Per block, t and each x_i come from one ``repr`` per float, since they
    are all distinct, and the held u, y_s, z of the block's segments from
    one ``repr`` of their rows. Each segment's ``,tau_c,tau_g,dist_to_A``
    texts come from one memo keyed by the bytes of its three slices
    (``_suffixes``), which lives across blocks and holds at most CSV_BLOCK
    texts: the timers of a deterministic schedule repeat segment by
    segment, so most segments' texts are formatted once."""
    memo = {}
    offsets = arc.offsets
    lo, end = 0, len(arc.times)
    with path.open("w", newline="") as fh:
        fh.write(",".join(_csv_header(params)) + "\r\n")
        while lo < end:
            # the last segment boundary within CSV_BLOCK samples, if past lo
            hi = int(offsets[np.searchsorted(offsets, lo + CSV_BLOCK,
                                             "right") - 1])
            if hi <= lo:
                hi = min(lo + CSV_BLOCK, end)
            fh.write(_block_text(arc, consts, lo, hi, memo))
            lo = hi


_quoted = json.encoder.encode_basestring_ascii


def _json_parts(value, indent: str, parts: list):
    """Append the text of ``value`` to ``parts``, as ``json.dumps(value,
    indent=2)`` writes it at nesting ``indent``: dicts with str keys, lists
    and tuples, str, bool, None, int, and float (NaN and +-Infinity as json
    writes them); any other type, or a key that is not a str, raises
    TypeError."""
    if isinstance(value, str):
        parts.append(_quoted(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        if value != value:
            parts.append("NaN")
        elif value in (math.inf, -math.inf):
            parts.append("Infinity" if value > 0 else "-Infinity")
        else:
            parts.append(float.__repr__(value))
    elif isinstance(value, (list, tuple, dict)):
        if not value:
            parts.append("{}" if isinstance(value, dict) else "[]")
            return
        inner = indent + "  "
        # one separator string per container, as json keeps
        separator = ",\n" + inner
        if isinstance(value, dict):
            parts.append("{" + separator[1:])
            for i, (key, item) in enumerate(value.items()):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not "
                                    f"{type(key).__name__}")
                if i:
                    parts.append(separator)
                parts += (_quoted(key), ": ")
                _json_parts(item, inner, parts)
            parts.append("\n" + indent + "}")
        elif (set(map(type, value)) == {float}
              and all(map(math.isfinite, value))):
            # a row of finite floats, the bulk of a report, in one join
            parts.append("[" + separator[1:]
                         + separator.join(map(float.__repr__, value))
                         + "\n" + indent + "]")
        else:
            parts.append("[" + separator[1:])
            for i, item in enumerate(value):
                if i:
                    parts.append(separator)
                _json_parts(item, inner, parts)
            parts.append("\n" + indent + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        f"is not JSON serializable")


def json_text(report) -> str:
    """``json.dumps(report, indent=2)``, byte for byte, for the reports'
    types (``_json_parts``), without json's generator per container."""
    parts = []
    _json_parts(report, "", parts)
    return "".join(parts)


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
        (out / "report.json").write_text(json_text(report))
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
        (out / "verify_report.json").write_text(json_text(report))

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
        (out / "robustness_report.json").write_text(json_text(report))
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
    # LinAlgError derives from ValueError, so it must be caught first
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:  # ConfigError subclasses ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
