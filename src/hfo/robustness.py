"""Perturbed system construction and arc-closeness measurement.

Model errors enter as additive matrix perturbations, off-unit timer rates,
and offsets on the timer reset values; the closeness metric quantifies how
far a perturbed solution drifts from the nominal one over a bounded hybrid
time horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hybrid import HybridArc, HybridTime, simulate
from .model import HybridFOModel, JumpPolicy, ModelParams, State, strict_initial_state


@dataclass(frozen=True)
class Perturbation:
    """Structured perturbation of the plant, gain, timer rates, and resets."""

    a_hat: np.ndarray
    b_hat: np.ndarray
    h_hat: np.ndarray
    kappa_c: float = 0.0  # timer-rate error, must stay < 1
    kappa_g: float = 0.0
    theta_g_comp: float = 0.0  # tau_g reset offset, > -tau_g_comp
    theta_c_min: float = 0.0
    theta_c_max: float = 0.0

    @classmethod
    def zero(cls, n: int, m: int, p: int) -> "Perturbation":
        return cls(np.zeros((n, n)), np.zeros((n, m)), np.zeros((p, m)))


def iota_magnitude(pert: Perturbation, state: State) -> float:
    """Largest perturbation component evaluated at one state (signed offsets
    participate as written, without absolute values)."""
    return max(
        pert.theta_g_comp,
        float(np.linalg.norm(pert.a_hat @ state.x)),
        float(np.linalg.norm(pert.b_hat @ state.u)),
        float(np.linalg.norm(pert.h_hat @ state.u)),
        pert.kappa_c,
        pert.kappa_g,
        pert.theta_c_min,
        pert.theta_c_max,
    )


def perturbed_model(params: ModelParams, pert: Perturbation,
                    delta: float = 1.0) -> HybridFOModel:
    """Hybrid model with every perturbation component scaled by delta.

    delta = 0 short-circuits to the nominal model so that nominal and
    zero-perturbation runs are bit-identical.
    """
    if delta < 0:
        raise ValueError("perturbation scale must be nonnegative")
    if delta == 0.0:
        return HybridFOModel.nominal(params)
    tm = params.timers
    kappa_c = delta * pert.kappa_c
    kappa_g = delta * pert.kappa_g
    if kappa_c >= 1.0 or kappa_g >= 1.0:
        raise ValueError("scaled timer-rate perturbation must stay below 1")
    tau_g_reset = tm.tau_g_comp + delta * pert.theta_g_comp
    reset_lo = tm.tau_c_min + delta * pert.theta_c_min
    reset_hi = tm.tau_c_max + delta * pert.theta_c_max
    if tau_g_reset <= 0.0:
        raise ValueError("scaled tau_g reset must stay positive")
    if not (0.0 < reset_lo <= reset_hi):
        raise ValueError("scaled tau_c reset interval must satisfy 0 < lo <= hi")
    nominal = HybridFOModel.nominal(params)
    return HybridFOModel(
        params,
        a=params.plant.a + delta * pert.a_hat,
        b=params.plant.b + delta * pert.b_hat,
        h=nominal.h + delta * pert.h_hat,
        rate_c=-1.0 + kappa_c,
        rate_g=-1.0 + kappa_g,
        tau_g_reset=tau_g_reset,
        reset_lo=reset_lo,
        reset_hi=reset_hi,
        tau_c_bound=reset_hi,
        tau_g_bound=tau_g_reset,
    )


@dataclass
class ClosenessResult:
    epsilon: float
    tau: float
    witness: tuple  # (arc index 1 or 2, t, j) of the worst-matched sample
    truncated: bool = False


def _segment_index(arc: HybridArc):
    index = {}
    for seg in arc.segments:
        index[seg.j] = (seg.times, seg.matrix())
    return index


def _directional(arc_a: HybridArc, index_b, tau: float, side: int):
    worst, witness = 0.0, (side, 0.0, 0)
    for seg in arc_a.segments:
        entry = index_b.get(seg.j)
        mat_a = seg.matrix()
        for t, row in zip(seg.times, mat_a):
            if t + seg.j > tau + 1e-12:
                continue
            if entry is None:
                return math.inf, (side, float(t), seg.j)
            times_b, mat_b = entry
            gaps = np.abs(times_b - t)
            diffs = np.max(np.abs(mat_b - row), axis=1)
            cand = float(np.min(np.maximum(gaps, diffs)))
            if cand > worst:
                worst, witness = cand, (side, float(t), seg.j)
    return worst, witness


def closeness(arc1: HybridArc, arc2: HybridArc, tau: float) -> ClosenessResult:
    """Smallest epsilon for which the two arcs match, in both directions, at
    every stored sample with t + j <= tau.

    Each sample of one arc must have a counterpart at the same jump index in
    the other arc, within epsilon in both time and state (sup norm over the
    state components). Sampling density bounds the resolution of the result.
    """
    truncated = (arc1.t_end + arc1.segments[-1].j + 1e-12 < tau
                 or arc2.t_end + arc2.segments[-1].j + 1e-12 < tau)
    e1, w1 = _directional(arc1, _segment_index(arc2), tau, 1)
    e2, w2 = _directional(arc2, _segment_index(arc1), tau, 2)
    if e1 >= e2:
        return ClosenessResult(e1, tau, w1, truncated)
    return ClosenessResult(e2, tau, w2, truncated)


@dataclass
class SweepRow:
    delta: float
    epsilon: float
    witness_t: float
    witness_j: int


@dataclass
class SweepResult:
    rows: list
    tau: float
    nonincreasing: bool  # epsilon trend over deltas sorted descending

    def epsilons(self):
        return [row.epsilon for row in self.rows]


def robustness_sweep(params: ModelParams, pert: Perturbation, deltas,
                     tau: float, policy: JumpPolicy, zeta0: State | None = None,
                     sample_dt: float = 0.01) -> SweepResult:
    """Measure epsilon(delta) between nominal and delta-scaled perturbed runs.

    All runs share the seed, policy, and initial state so that the measured
    epsilon reflects the perturbation rather than selection divergence.
    """
    if zeta0 is None:
        zeta0 = strict_initial_state(params)
    nominal = HybridFOModel.nominal(params)
    j_cap = int(math.ceil(tau / nominal.min_dwell())) * 2 + 16
    horizon = (float(tau), j_cap)
    arc_nom = simulate(nominal, zeta0, policy, horizon, sample_dt)

    rows = []
    for delta in deltas:
        model = perturbed_model(params, pert, delta)
        arc_pert = simulate(model, zeta0, policy, horizon, sample_dt)
        result = closeness(arc_nom, arc_pert, tau)
        rows.append(SweepRow(float(delta), result.epsilon,
                             result.witness[1], result.witness[2]))

    ordered = sorted(rows, key=lambda row: row.delta, reverse=True)
    nonincreasing = all(
        a.epsilon >= b.epsilon - 1e-12 for a, b in zip(ordered, ordered[1:])
    )
    return SweepResult(rows, float(tau), nonincreasing)
