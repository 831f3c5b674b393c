"""Arc-closeness measurement and perturbation-scale sweeps.

Model errors (``model.Perturbation``) enter as additive matrix perturbations,
off-unit timer rates, and offsets on the timer reset values, scaled by the
``HybridFOModel`` constructor; the closeness metric quantifies how far a
perturbed solution drifts from the nominal one over a bounded hybrid time
horizon.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hybrid import EVENT_TOL, HybridArc, simulate
from .model import HybridFOModel, JumpPolicy, ModelParams, Perturbation, State


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


# Most elements one broadcast temporary of ``closeness`` holds: samples are
# matched in blocks that stay under it, one sample at a time at worst, when
# a single sample against the other segment takes more.
_MATCH_BUDGET = 1 << 16


def _segment_matches(cols_a, cols_b) -> np.ndarray:
    """For every column a: min over columns b of ||col_b - col_a||_inf.

    Columns, not rows: the sup norm then reduces over the leading axis of
    the difference, which numpy does elementwise, where a reduction over a
    short trailing axis costs a loop per element."""
    block = max(1, _MATCH_BUDGET // cols_b.size)
    out = np.empty(cols_a.shape[1])
    for lo in range(0, len(out), block):
        diffs = np.abs(cols_b[:, None, :] - cols_a[:, lo:lo + block, None])
        out[lo:lo + block] = np.min(np.max(diffs, axis=0), axis=1)
    return out


def _flow_columns(arc: HybridArc) -> np.ndarray:
    """Columns of [t, x, tau_c, tau_g], one per sample of the arc: the
    components that vary along a flow."""
    return np.vstack([arc.times, arc.x.T, arc.tau_c, arc.tau_g])


def _directional(arc_a: HybridArc, cols_a, arc_b: HybridArc, cols_b,
                 held_gaps, tau: float, side: int):
    """Worst match, over the samples of arc_a with t + j <= tau, against the
    segment of arc_b at the same jump index; the witness is the first sample,
    in segment and then time order, that attains it.

    Along an arc t and j never decrease, and neither does fl(t + j), so the
    samples read are whole segments and then the head of one more: each
    segment's cut is one ``searchsorted``, and the walk stops at the first
    segment with nothing to read. Along one pair of segments u, y_s and z
    are constant, so their sup-norm distance ``held_gaps[j]`` is one number,
    and min_b max(gap_b, held_gaps[j]) = max(min_b gap_b, held_gaps[j]).
    """
    worst, witness = 0.0, (side, 0.0, 0)
    for j, (lo, hi) in enumerate(itertools.pairwise(arc_a.offsets.tolist())):
        hi = lo + int(np.searchsorted(arc_a.times[lo:hi] + j, tau + EVENT_TOL,
                                      side="right"))
        if lo == hi:
            break
        if j == len(held_gaps):
            return math.inf, (side, float(arc_a.times[lo]), j)
        cand = _segment_matches(
            cols_a[:, lo:hi], cols_b[:, arc_b.offsets[j]:arc_b.offsets[j + 1]])
        np.maximum(cand, held_gaps[j], out=cand)
        best = int(np.argmax(cand))
        if cand[best] > worst:
            worst = float(cand[best])
            witness = (side, float(arc_a.times[lo + best]), j)
    return worst, witness


def closeness(arc1: HybridArc, arc2: HybridArc, tau: float) -> ClosenessResult:
    """Smallest epsilon for which the two arcs match, in both directions, at
    every stored sample with t + j <= tau + EVENT_TOL.

    Each sample of one arc must have a counterpart at the same jump index in
    the other arc, within epsilon in both time and state (sup norm over the
    state components). Sampling density bounds the resolution of the result.
    """
    truncated = (arc1.t_end + len(arc1.jumps) + EVENT_TOL < tau
                 or arc2.t_end + len(arc2.jumps) + EVENT_TOL < tau)
    shared = min(len(arc1.segments), len(arc2.segments))
    held_gaps = np.max(np.abs(arc1.held()[:shared] - arc2.held()[:shared]),
                       axis=1)
    cols1, cols2 = _flow_columns(arc1), _flow_columns(arc2)
    e1, w1 = _directional(arc1, cols1, arc2, cols2, held_gaps, tau, 1)
    e2, w2 = _directional(arc2, cols2, arc1, cols1, held_gaps, tau, 2)
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


class ScaleError(ValueError):
    """A perturbation scale for which the perturbed model is invalid."""


def _scaled(params: ModelParams, pert: Perturbation, delta) -> HybridFOModel:
    try:
        return HybridFOModel(params, pert, delta)
    except ValueError as exc:
        raise ScaleError(f"scale {delta:g}: {exc}") from None


def _start(model: HybridFOModel, zeta0: State) -> State:
    """zeta0 with tau_c at most ``reset_hi`` and tau_g at most
    ``tau_g_reset``. A negative reset offset shrinks the perturbed domain
    below the strict start; this moves the start by O(delta) into it, which
    (tau, epsilon)-closeness admits (Goebel, Sanfelice & Teel 2012, ch. 6).
    Positive offsets leave zeta0 as it is."""
    return dataclasses.replace(zeta0, tau_c=min(zeta0.tau_c, model.reset_hi),
                               tau_g=min(zeta0.tau_g, model.tau_g_reset))


def _clipped(model: HybridFOModel, policy: JumpPolicy) -> JumpPolicy:
    """``policy`` with a fixed tau_c reset clipped into the model's reset
    interval, which theta_c shifts, as the min and max resets follow its
    ends."""
    if policy.tau_c_reset != "fixed":
        return policy
    value = min(max(policy.tau_c_value, model.reset_lo), model.reset_hi)
    return dataclasses.replace(policy, tau_c_value=value)


def robustness_sweep(params: ModelParams, pert: Perturbation, deltas,
                     tau: float, policy: JumpPolicy, zeta0: State,
                     sample_dt: float = 0.01) -> SweepResult:
    """Measure epsilon(delta) between nominal and delta-scaled perturbed runs.

    All runs share the seed, policy, and initial state (up to the O(delta)
    adjustments below) so that the measured epsilon reflects the
    perturbation rather than selection divergence.

    Each run stops at t = tau or at jump index J = floor(tau + EVENT_TOL) + 1,
    whichever comes first, and that changes no result. ``closeness`` reads
    the samples with t + j <= tau + EVENT_TOL; since t >= 0, they all lie in
    segments with j <= J - 1. A read sample is matched against the whole
    segment with the same j in the other arc, which again has j <= J - 1.
    Segments 0..J-1 of a capped run equal those of an uncapped one, sample
    for sample: the flow horizon is the same, and the jumps before them draw
    the same random resets in the same order. Samples of those segments with
    t + j > tau are kept, because they still serve as counterparts.

    Every scale is checked before the first run; a bad one raises
    ScaleError naming it. Each perturbed run starts from ``_start(zeta0)``
    and resolves a fixed tau_c reset by ``_clipped``.
    """
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ValueError(f"tau must be finite and nonnegative, got {tau!r}")
    deltas = list(deltas)
    models = [_scaled(params, pert, delta) for delta in deltas]
    horizon = (float(tau), math.floor(tau + EVENT_TOL) + 1)
    arc_nom = simulate(HybridFOModel(params), zeta0, policy, horizon, sample_dt)

    rows = []
    for delta, model in zip(deltas, models):
        arc_pert = simulate(model, _start(model, zeta0), _clipped(model, policy),
                            horizon, sample_dt)
        result = closeness(arc_nom, arc_pert, tau)
        side, t, j = result.witness
        rows.append(SweepRow(float(delta), result.epsilon, t, j, side,
                             result.truncated))

    ordered = sorted(rows, key=lambda row: row.delta, reverse=True)
    nonincreasing = all(
        a.epsilon >= b.epsilon - 1e-12 for a, b in zip(ordered, ordered[1:])
    )
    return SweepResult(rows, float(tau), nonincreasing)
