"""Seeded scenarios for the hfo benchmark, and the output checks that decide
whether a job succeeded.

Every job's input is a scenario drawn from a fixed pool per workload. Pool
entry ``i`` is generated from the scenario seed ``(workload tag, i)`` alone,
so ``reference/<workload>.json`` can store its expected summary outputs. The
workload seed picks and orders pool entries (see ``job_scenarios``); a run
never uses one entry twice.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from hfo.config import parse_config
from hfo.model import validate

# Summary outputs compared approximately must agree to this relative
# tolerance. It admits a different but exact propagator (rounding differs
# by ~1e-13 over a whole arc) and rejects any wrong trajectory, which moves
# these outputs by far more than 1e-6. ATOL covers values that are zero.
RTOL = 1e-6
ATOL = 1e-12

SAMPLE_DT = 0.01
S1_T = 100.0  # 10^4 stored samples per s1-simulate job
MIMO_T = 25.0
MIMO_DIMS = (20, 5, 5)  # n, m, p
X0_NORM = 150.0
SWEEP_TAU = 30.0
SWEEP_DELTAS = 6
TINY_T = 2.0  # horizon and tau of the smoke-test size


def _s1_base(root: Path) -> dict:
    return json.loads((root / "configs" / "s1.json").read_text())


def _strict_zeta0(cfg: dict, x0) -> dict:
    """Restricted initialization at u = z = 0 with a consistent y_s."""
    a = np.array(cfg["plant"]["A"], dtype=float)
    b = np.array(cfg["plant"]["B"], dtype=float)
    c = np.array(cfg["plant"]["C"], dtype=float)
    d = np.array(cfg["plant"]["d"], dtype=float)
    m = b.shape[1]
    h = -c @ np.linalg.solve(a, b)
    u = np.zeros(m)
    return {
        "x": [float(v) for v in x0],
        "u": u.tolist(),
        "y_s": (h @ u + d).tolist(),
        "z": u.tolist(),
        "tau_c": cfg["timers"]["tau_c_max"],
        "tau_g": cfg["timers"]["tau_g_comp"],
    }


def s1_simulate_scenario(rng, root: Path, tiny: bool):
    cfg = _s1_base(root)
    cfg["init"] = {"mode": "strict",
                   "zeta0": _strict_zeta0(cfg, rng.uniform(-3.0, 3.0, 1))}
    cfg["horizon"] = {"T": TINY_T if tiny else S1_T, "J": 1_000_000}
    cfg["sample_dt"] = SAMPLE_DT
    return cfg, []


def s1_sweep_scenario(rng, root: Path, tiny: bool):
    cfg = _s1_base(root)
    cfg["init"] = {"mode": "strict",
                   "zeta0": _strict_zeta0(cfg, rng.uniform(-3.0, 3.0, 1))}
    cfg["sample_dt"] = SAMPLE_DT
    # one delta per half decade from 1e-1 down, jittered so that the
    # perturbed timer rates give off-grid step lengths
    exps = -1.0 - 0.5 * np.arange(SWEEP_DELTAS) + rng.uniform(-0.2, 0.2,
                                                              SWEEP_DELTAS)
    deltas = ",".join(repr(float(10.0 ** e)) for e in exps)
    tau = TINY_T if tiny else SWEEP_TAU
    return cfg, ["--deltas", deltas, "--tau", repr(tau)]


def _random_spd(rng, k: int, lo: float, hi: float) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return (q * rng.uniform(lo, hi, k)) @ q.T


def mimo_scenario(seed, n: int = MIMO_DIMS[0], m: int = MIMO_DIMS[1],
                  p: int = MIMO_DIMS[2], horizon: float = MIMO_T) -> dict:
    """A verifiable MIMO scenario, deterministic in ``seed``.

    A = -S + K with S symmetric positive definite and K skew, so the
    symmetric part of A is negative definite and ||e^{At}|| decays
    monotonically; the overshoot estimate is then not in doubt. The
    timers are aligned as in S1 and the stepsize lies inside
    (0, 2/(mu + L)) with contraction factor q in (0, 1). Raises
    RuntimeError if ``hfo.model.validate`` rejects the result.
    """
    rng = np.random.default_rng(seed)
    skew = rng.standard_normal((n, n)) * (0.5 / np.sqrt(n))
    a = -_random_spd(rng, n, 0.5, 3.0) + (skew - skew.T)
    b = rng.standard_normal((n, m)) / np.sqrt(n)
    c = rng.standard_normal((p, n)) / np.sqrt(n)
    d = rng.normal(0.0, 0.5, p)
    q_u = _random_spd(rng, m, 0.5, 1.5)
    q_y = _random_spd(rng, p, 0.5, 1.5)
    h = -c @ np.linalg.solve(a, b)
    mu = float(np.linalg.eigvalsh(q_u)[0])
    big_l = float(np.linalg.eigvalsh(q_u + h.T @ q_y @ h)[-1])
    # q = 1 - 2 gamma mu + gamma^2 L^2 < 1 needs gamma < 2 mu / L^2 as well
    gamma = 0.5 * min(2.0 / (mu + big_l), 2.0 * mu / big_l ** 2)
    cfg = {
        "plant": {"A": a.tolist(), "B": b.tolist(), "C": c.tolist(),
                  "d": d.tolist()},
        "objective": {"Q_u": q_u.tolist(), "Q_y": q_y.tolist(),
                      "y_hat": rng.normal(0.0, 1.0, p).tolist(),
                      "gamma": gamma},
        "timers": {"tau_c_min": 1.0, "tau_c_max": 1.0, "tau_g_comp": 0.25,
                   "ell": 4},
        "input_set": {"kind": "box", "lo": [-1.0] * m, "hi": [1.0] * m},
        "policy": {"tau_c_reset": "min", "case3_order": "g1_first",
                   "seed": int(rng.integers(2 ** 31))},
        "horizon": {"T": horizon, "J": 1_000_000},
        "sample_dt": SAMPLE_DT,
    }
    # far outside the target set (tracking radius r is 30-50 here), so the
    # bound checks see the distance decay before the arc enters the set
    x0 = rng.standard_normal(n)
    cfg["init"] = {"mode": "strict",
                   "zeta0": _strict_zeta0(cfg, X0_NORM * x0 / np.linalg.norm(x0))}
    if not 0.0 < gamma < 2.0 / (mu + big_l):
        raise RuntimeError(f"stepsize {gamma} outside (0, 2/(mu+L))")
    config = parse_config(cfg)
    diag = validate(config.params, config.initial_state(), mode="strict")
    if not diag.ok:
        raise RuntimeError(f"generated scenario {seed} fails validation: "
                           f"{[c.name for c in diag.failures()]}")
    return cfg


def mimo_verify_scenario(rng, root: Path, tiny: bool):
    seed = int(rng.integers(2 ** 63))
    return mimo_scenario(seed, horizon=TINY_T if tiny else MIMO_T), []


# -- summaries of a job's outputs ------------------------------------------
#
# Each summary holds "exact" entries (counts and verdicts, compared with ==)
# and "approx" entries (lists of floats, compared with RTOL/ATOL).


def _csv_numeric(path: Path) -> np.ndarray:
    with path.open() as fh:
        header = fh.readline().strip().split(",")
    cols = [i for i, name in enumerate(header) if name != "case"]
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols, ndmin=2)


def summarize_simulate(out: Path) -> dict:
    report = json.loads((out / "report.json").read_text())
    rows = _csv_numeric(out / "trajectory.csv")
    return {
        "exact": {"rows": len(rows), "jumps": report["jumps"],
                  "alpha": report["alpha"],
                  "non_zeno": report["non_zeno"]["passed"]},
        "approx": {"final_row": rows[-1].tolist(),
                   "column_means": rows.mean(axis=0).tolist()},
    }


def summarize_verify(out: Path) -> dict:
    checks = json.loads((out / "verify_report.json").read_text())["checks"]
    return {
        "exact": {"verdicts": {k: c["passed"] for k, c in checks.items()},
                  "periods": checks["contraction"]["periods"]},
        "approx": {
            "max_violation": [checks["bound_thm1"]["max_violation"],
                              checks["bound_thm2"]["max_violation"]],
            "first_entry_time": [checks["bound_thm1"]["first_entry_time"],
                                 checks["bound_thm2"]["first_entry_time"]],
        },
    }


def summarize_sweep(out: Path) -> dict:
    sweep = json.loads((out / "robustness_report.json").read_text())["sweep"]
    return {
        "exact": {"rows": len(sweep["rows"])},
        "approx": {"epsilon": [row["epsilon"] for row in sweep["rows"]]},
    }


def invariant_problems(summary: dict) -> list:
    """Checks every job must pass, whether or not a reference exists."""
    exact = summary["exact"]
    problems = []
    if exact.get("non_zeno") is False:
        problems.append("non_zeno check failed")
    for name, passed in exact.get("verdicts", {}).items():
        if passed is not True:
            problems.append(f"verify check {name} is {passed}, not PASS")
    return problems


def reference_problems(summary: dict, ref: dict) -> list:
    """Mismatches between a job's summary and its stored reference."""
    problems = []
    for key, want in ref["exact"].items():
        got = summary["exact"].get(key)
        if got != want:
            problems.append(f"{key}: got {got!r}, reference {want!r}")
    for key, want in ref["approx"].items():
        got = summary["approx"].get(key)
        want_arr = np.asarray(want, dtype=float)
        if got is None or np.shape(got) != want_arr.shape or not np.allclose(
                np.asarray(got, dtype=float), want_arr, rtol=RTOL, atol=ATOL,
                equal_nan=True):
            problems.append(f"{key}: got {got!r}, reference {want!r}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # hfo subcommand
    why: str
    scenario: Callable  # (rng, root, tiny) -> (config dict, extra argv)
    summarize: Callable  # (out dir) -> summary

    @property
    def tag(self) -> int:
        return zlib.crc32(self.name.encode())

    def make(self, index: int, root: Path, tiny: bool = False):
        """Config and extra CLI arguments of pool entry ``index``."""
        rng = np.random.default_rng([self.tag, index])
        return self.scenario(rng, root, tiny)

    def argv(self, config_path: Path, out: Path, extra: list) -> list:
        return [self.command, str(config_path), "--out", str(out)] + extra


WORKLOADS = {
    w.name: w for w in (
        Workload("s1-simulate", "simulate",
                 "scalar S1 at 10^4 samples per job: the per-sample simulator "
                 "loop, State objects and CSV writer; the propagator cache hits",
                 s1_simulate_scenario, summarize_simulate),
        Workload("mimo-verify", "verify",
                 "generated n=20 m=5 p=5 plant: dense linear algebra in "
                 "reconstruct_x, check_bound and estimate_M; no CSV",
                 mimo_verify_scenario, summarize_verify),
        Workload("s1-sweep", "robustness",
                 "S1 robustness sweep, six deltas, tau=30: many arcs, off-grid "
                 "steps that miss the propagator cache, and closeness",
                 s1_sweep_scenario, summarize_sweep),
    )
}


def job_scenarios(workload: Workload, seed: int, pool: int):
    """Scenario index of each job of a run, in order: a seeded permutation
    of the ``pool`` entries with references, then fresh indices past it."""
    perm = np.random.default_rng([seed, workload.tag]).permutation(pool)
    yield from (int(i) for i in perm)
    index = pool
    while True:
        yield index
        index += 1
