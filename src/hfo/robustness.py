"""Arc-closeness measurement and perturbation-scale sweeps.

Model errors (``model.Perturbation``) enter as additive matrix perturbations,
off-unit timer rates, and offsets on the timer reset values, scaled by the
``HybridFOModel`` constructor; the closeness metric quantifies how far a
perturbed solution drifts from the nominal one over a bounded hybrid time
horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hybrid import HybridArc, simulate
from .model import (HybridFOModel, JumpPolicy, ModelParams, Perturbation, State,
                    strict_initial_state)


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


@dataclass
class ClosenessResult:
    epsilon: float
    tau: float
    witness: tuple  # (arc index 1 or 2, t, j) of the worst-matched sample
    truncated: bool = False


# Samples with t + j <= tau + TAU_TOL take part in the closeness metric.
TAU_TOL = 1e-12

# Most elements one broadcast temporary of ``closeness`` holds: rows are
# matched in blocks that stay under it, one row at a time at worst, when a
# single row against the other segment takes more.
_MATCH_BUDGET = 1 << 16


def _segment_matches(times_a, mat_a, times_b, mat_b) -> np.ndarray:
    """For every row a: min over rows b of max(|t_b - t_a|, ||B_b - A_a||_inf)."""
    rows = max(1, _MATCH_BUDGET // mat_b.size)
    out = np.empty(len(times_a))
    for lo in range(0, len(times_a), rows):
        hi = lo + rows
        gaps = np.abs(times_b - times_a[lo:hi, None])
        diffs = np.max(np.abs(mat_b - mat_a[lo:hi, None, :]), axis=2)
        out[lo:hi] = np.min(np.maximum(gaps, diffs), axis=1)
    return out


def _directional(arc_a: HybridArc, arc_b: HybridArc, tau: float, side: int):
    """Worst match, over the samples of arc_a with t + j <= tau, against the
    segment of arc_b at the same jump index; the witness is the first sample,
    in segment and then time order, that attains it."""
    worst, witness = 0.0, (side, 0.0, 0)
    for seg in arc_a.segments:
        keep = seg.times + seg.j <= tau + TAU_TOL
        if not keep.any():
            continue
        times = seg.times[keep]
        if seg.j >= len(arc_b.segments):
            return math.inf, (side, float(times[0]), seg.j)
        other = arc_b.segments[seg.j]
        cand = _segment_matches(times, seg.matrix()[keep],
                                other.times, other.matrix())
        best = int(np.argmax(cand))
        if cand[best] > worst:
            worst, witness = float(cand[best]), (side, float(times[best]), seg.j)
    return worst, witness


def closeness(arc1: HybridArc, arc2: HybridArc, tau: float) -> ClosenessResult:
    """Smallest epsilon for which the two arcs match, in both directions, at
    every stored sample with t + j <= tau.

    Each sample of one arc must have a counterpart at the same jump index in
    the other arc, within epsilon in both time and state (sup norm over the
    state components). Sampling density bounds the resolution of the result.
    """
    truncated = (arc1.t_end + arc1.segments[-1].j + TAU_TOL < tau
                 or arc2.t_end + arc2.segments[-1].j + TAU_TOL < tau)
    e1, w1 = _directional(arc1, arc2, tau, 1)
    e2, w2 = _directional(arc2, arc1, tau, 2)
    if e1 >= e2:
        return ClosenessResult(e1, tau, w1, truncated)
    return ClosenessResult(e2, tau, w2, truncated)


@dataclass
class SweepRow:
    delta: float
    epsilon: float
    witness_t: float
    witness_j: int
    witness_arc: int  # 1 nominal, 2 perturbed: the arc holding the witness
    truncated: bool  # an arc ended before t + j reached tau


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

    Each run stops at t = tau or at jump index J = floor(tau + TAU_TOL) + 1,
    whichever comes first, and that changes no result. ``closeness`` reads
    the samples with t + j <= tau + TAU_TOL; since t >= 0, they all lie in
    segments with j <= J - 1. A read sample is matched against the whole
    segment with the same j in the other arc, which again has j <= J - 1.
    Segments 0..J-1 of a capped run equal those of an uncapped one, sample
    for sample: the flow horizon is the same, and the jumps before them draw
    the same random resets in the same order. Samples of those segments with
    t + j > tau are kept, because they still serve as counterparts.
    """
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ValueError(f"tau must be finite and nonnegative, got {tau!r}")
    if zeta0 is None:
        zeta0 = strict_initial_state(params)
    nominal = HybridFOModel(params)
    horizon = (float(tau), math.floor(tau + TAU_TOL) + 1)
    arc_nom = simulate(nominal, zeta0, policy, horizon, sample_dt)

    rows = []
    for delta in deltas:
        model = HybridFOModel(params, pert, delta)
        arc_pert = simulate(model, zeta0, policy, horizon, sample_dt)
        result = closeness(arc_nom, arc_pert, tau)
        side, t, j = result.witness
        rows.append(SweepRow(float(delta), result.epsilon, t, j, side,
                             result.truncated))

    ordered = sorted(rows, key=lambda row: row.delta, reverse=True)
    nonincreasing = all(
        a.epsilon >= b.epsilon - 1e-12 for a, b in zip(ordered, ordered[1:])
    )
    return SweepResult(rows, float(tau), nonincreasing)
