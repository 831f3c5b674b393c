"""Arc-closeness measurement and perturbation-scale sweeps.

Model errors (``model.Perturbation``) enter as additive matrix perturbations,
off-unit timer rates, and offsets on the timer reset values, scaled by the
``HybridFOModel`` constructor; the closeness metric quantifies how far a
perturbed solution drifts from the nominal one over a bounded hybrid time
horizon.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .hybrid import EVENT_TOL, HybridArc, flows, schedule, simulate
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


# Read samples are matched this many at a time: every temporary of
# ``closeness`` holds O(_BLOCK) elements, or _BLOCK rows of the state.
_BLOCK = 1 << 10


def _block_matches(arc_a: HybridArc, arc_b: HybridArc, lo: int, hi: int,
                   held_gaps) -> np.ndarray:
    """The match of each sample lo..hi-1 of arc_a, as ``_directional``
    defines it.

    Each sample walks arc_b's segment at its jump index outward from its
    nearest-in-time pair, one offset per pass over the block: the first b
    with t_b >= t_a (one ``searchsorted`` on arc_b's times, which never
    decrease, clipped to the segment) and the b before it. A walk stops at
    the segment's edge, after a b whose time gap is no smaller than the
    sample's best gap, or once that best is at most its held gap. A
    sample whose own t, x or timers are not finite does not walk: each of
    its gaps is inf or NaN, so its best stays inf whatever it meets.
    """
    size = hi - lo
    t_a, x_a = arc_a.times[lo:hi], arc_a.x[lo:hi]
    tau_c_a, tau_g_a = arc_a.tau_c[lo:hi], arc_a.tau_g[lo:hi]
    # one walk per sample and side, from ``at`` to before ``stop``: the
    # first ``ups`` walks go up from the first b of the segment with
    # t_b >= t_a, the rest down from the b before it
    rows = np.arange(2 * size)
    rows[size:] -= size
    at, stop = np.empty(2 * size, np.intp), np.empty(2 * size, np.intp)
    j = np.searchsorted(arc_a.offsets, rows[:size] + lo, side="right") - 1
    held = held_gaps[j]
    np.take(arc_b.offsets, j + 1, out=stop[:size])
    np.take(arc_b.offsets, j, out=stop[size:])
    del j
    np.clip(np.searchsorted(arc_b.times, t_a), stop[size:], stop[:size],
            out=at[:size])
    np.subtract(at[:size], 1, out=at[size:])
    stop[size:] -= 1
    ups = size
    keep = at != stop
    finite = np.isfinite(x_a).all(axis=1)
    for column in (t_a, tau_c_a, tau_g_a):
        finite &= np.isfinite(column)
    keep[:size] &= finite
    keep[size:] &= finite
    del finite
    best = np.full(size, np.inf)
    while keep.any():
        # the walks keep their order; each old column dies before the next
        ups = int(np.count_nonzero(keep[:ups]))
        rows = rows[keep]
        at = at[keep]
        stop = stop[keep]
        time_gap = arc_b.times[at]
        np.subtract(time_gap, t_a[rows], out=time_gap)
        np.abs(time_gap, out=time_gap)
        gap = arc_b.x[at]
        np.subtract(gap, x_a[rows], out=gap)
        gap = np.abs(gap, out=gap).max(axis=1)
        np.maximum(gap, time_gap, out=gap)
        for column_b, column_a in ((arc_b.tau_c, tau_c_a),
                                   (arc_b.tau_g, tau_g_a)):
            part = column_b[at]
            np.subtract(part, column_a[rows], out=part)
            np.maximum(gap, np.abs(part, out=part), out=gap)
        # a row can appear once per side; a NaN gap matches nothing
        np.fmin.at(best, rows, gap)
        at[:ups] += 1
        at[ups:] -= 1
        now = best[rows]
        keep = (time_gap < now) & (now > held[rows]) & (at != stop)
    return np.maximum(best, held, out=best)


def _directional(arc_a: HybridArc, arc_b: HybridArc, held_gaps, tau: float,
                 side: int):
    """Worst match, over the samples of arc_a with t + j <= tau, against the
    segment of arc_b at the same jump index; the witness is the first sample,
    in segment and then time order, that attains it.

    Along an arc t and j never decrease, and neither does fl(t + j), so the
    samples read are a prefix of the arc: whole segments and then the head
    of one more, found by one ``searchsorted`` over the segments' starts and
    one inside the last. If that prefix reaches a jump index arc_b lacks,
    epsilon is infinite, with the first such segment's start as witness.

    The prefix is matched in blocks of ``_BLOCK`` samples, and the result is
    that of a min over every sample b of the segment, bit for bit, where a
    NaN gap_b is no match (``np.fmin``), so a sample with no counterpart,
    a NaN one for instance, matches at inf:
    - along one pair of segments u, y_s and z are constant, so their gap
      ``held_gaps[j]`` is one number, and min_b max(gap_b, held_gaps[j])
      = max(min_b gap_b, held_gaps[j]); max and min round nothing;
    - the time gap fl|t_b - t_a| is one of the components gap_b is the max
      of, so a b whose time gap is at least the best gap so far cannot
      lower the min;
    - fl(t_b - t_a) is monotone in t_b, and the segment's times are sorted,
      so the time gap grows outward from the nearest pair on either side,
      and the b that can still lower the min form one contiguous window;
    - once the best gap is at most held_gaps[j], the match is the held gap;
    - a sample with a non-finite t, x or timer is inf or NaN away from
      every b, so its match is inf, and it need not walk.
    """
    offsets, times = arc_a.offsets, arc_a.times
    cut = tau + EVENT_TOL
    starts = times[offsets[:-1]] + np.arange(len(offsets) - 1)  # t + j
    reached = int(np.searchsorted(starts, cut, side="right"))
    if reached > len(held_gaps):
        j = len(held_gaps)
        return math.inf, (side, float(times[offsets[j]]), j)
    read = 0
    if reached:
        lo, hi = offsets[reached - 1], offsets[reached]
        read = lo + int(np.searchsorted(times[lo:hi] + (reached - 1), cut,
                                        side="right"))
    worst, witness = 0.0, (side, 0.0, 0)
    for lo in range(0, read, _BLOCK):
        match = _block_matches(arc_a, arc_b, lo, min(lo + _BLOCK, read),
                               held_gaps)
        best = lo + int(np.argmax(match))
        if match[best - lo] > worst:
            worst = float(match[best - lo])
            j = int(np.searchsorted(offsets, best, side="right")) - 1
            witness = (side, float(times[best]), j)
    return worst, witness


def closeness(arc1: HybridArc, arc2: HybridArc, tau: float) -> ClosenessResult:
    """Smallest epsilon for which the two arcs match, in both directions, at
    every stored sample with t + j <= tau + EVENT_TOL.

    Each sample of one arc must have a counterpart at the same jump index in
    the other arc, within epsilon in both time and state (sup norm over the
    state components). Sampling density bounds the resolution of the result.
    A NaN is within no epsilon of anything: a read sample with a NaN in its
    state or timers, or in the held values of its segment, makes epsilon
    inf, with the first such sample as witness, and a NaN sample is no
    counterpart.
    ``_directional`` gives the order the witness is picked in and why its
    time-window search returns the all-pairs minimum exactly.
    """
    truncated = (arc1.t_end + len(arc1.jumps) + EVENT_TOL < tau
                 or arc2.t_end + len(arc2.jumps) + EVENT_TOL < tau)
    shared = min(len(arc1.offsets), len(arc2.offsets)) - 1
    held_gaps = np.max(np.abs(arc1.held()[:shared] - arc2.held()[:shared]),
                       axis=1)
    held_gaps[np.isnan(held_gaps)] = math.inf  # NaN held values match nothing
    e1, w1 = _directional(arc1, arc2, held_gaps, tau, 1)
    e2, w2 = _directional(arc2, arc1, held_gaps, tau, 2)
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


def _jump_cap(models, tau: float) -> int:
    """``robustness_sweep``'s jump cap J for runs of ``models``, before its
    rounding check: floor((nu tau' + 2)/(nu + 1)) + 1, tau' = tau +
    EVENT_TOL, at most floor(tau') + 1. The bound is computed as
    tau' - (tau' - 2)/(nu + 1), which overflows for no finite tau'."""
    nu = max(1.0 / model.period_g + 1.0 / model.period_c for model in models)
    reach = tau + EVENT_TOL
    return min(math.floor(reach - (reach - 2.0) / (nu + 1.0)),
               math.floor(reach)) + 1


def _schedules(runs, tau: float, sample_dt: float):
    """(horizon, schedules) of ``robustness_sweep``'s runs: capped at
    ``_jump_cap``, or at floor(tau + EVENT_TOL) + 1 if a capped run's
    segment J starts at t_J + J <= tau + EVENT_TOL."""
    cap = _jump_cap([run[0] for run in runs], tau)
    horizon = (float(tau), cap)
    scheds = [schedule(*run, horizon, sample_dt) for run in runs]
    cut = tau + EVENT_TOL
    if any(len(sched.rows) > cap and sched.rows[cap, 0] + cap <= cut
           for sched in scheds):
        horizon = (float(tau), math.floor(cut) + 1)
        scheds = [schedule(*run, horizon, sample_dt) for run in runs]
    return horizon, scheds


def robustness_sweep(params: ModelParams, pert: Perturbation, deltas,
                     tau: float, policy: JumpPolicy, zeta0: State,
                     sample_dt: float = 0.01) -> SweepResult:
    """Measure epsilon(delta) between nominal and delta-scaled perturbed runs.

    All runs share the seed, policy, and initial state (up to the O(delta)
    adjustments below) so that the measured epsilon reflects the
    perturbation rather than selection divergence.

    Each run stops at t = tau or at jump index J, whichever comes first, and
    that changes no result. ``closeness`` reads the samples with
    t + j <= tau + EVENT_TOL and matches each against the whole segment with
    the same j in the other arc. Segments 0..J-1 of a capped run equal those
    of an uncapped one, sample for sample: the flow horizon is the same, and
    the jumps before them draw the same random resets in the same order.
    Samples of those segments with t + j > tau are kept, as counterparts.
    So J is sound if no run reads a segment at or past J. ``_jump_cap``
    gives J by the count ``hybrid.sample_bound`` uses:
    - with nu the largest 1/period_g + 1/period_c over the runs' models, a
      run makes at most nu t + 2 jumps by time t, so t_j >= (j - 2)/nu;
    - a read segment has t_j + j <= tau + EVENT_TOL, so
      j <= (nu (tau + EVENT_TOL) + 2)/(nu + 1);
    - J is the floor of that bound plus 1, and at most
      floor(tau + EVENT_TOL) + 1, which t_j >= 0 alone gives.
    On S1 (nu = 5) at tau = 30, J = 26 rather than 31. The count holds up
    to rounding: a jump within EVENT_TOL of another or of its expiry
    shortens a period by at most EVENT_TOL of timer value, and jump times
    are rounded sums. So a bound within that margin of an integer (from a
    start with both timers expired, say) can miss segment J. Hence
    ``_schedules`` checks, in the floats ``closeness`` reads, that every
    capped run's segment J starts past tau + EVENT_TOL, and else schedules
    every run again to floor(tau + EVENT_TOL) + 1. A run stopped at J thus
    has t_J + J > tau + EVENT_TOL, and ``closeness`` reports it untruncated.

    Every scale is checked before the first run; a bad one raises
    ScaleError naming it. Each perturbed run starts from ``_start(zeta0)``
    and resolves a fixed tau_c reset by ``_clipped``.

    Every run is scheduled first (``hybrid.schedule``), so a run over the
    sample budget raises before any arc is filled. ``hybrid.flows`` then
    builds all the schedules' flow maps and held columns together: the runs
    share an objective and an input set, which a ``Perturbation`` leaves
    alone. Each arc is filled by its own ``simulate`` call, with its
    ``Flow``, and checked in turn.
    """
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ValueError(f"tau must be finite and nonnegative, got {tau!r}")
    deltas = list(deltas)
    models = [_scaled(params, pert, delta) for delta in deltas]
    runs = [(HybridFOModel(params), zeta0, policy)] + [
        (model, _start(model, zeta0), _clipped(model, policy))
        for model in models]
    horizon, scheds = _schedules(runs, tau, sample_dt)
    planned = flows(scheds)
    arcs = (simulate(*run, horizon, sample_dt, flow=next(planned))
            for run in runs)
    arc_nom = next(arcs)

    rows = []
    for delta, arc_pert in zip(deltas, arcs):
        result = closeness(arc_nom, arc_pert, tau)
        side, t, j = result.witness
        rows.append(SweepRow(float(delta), result.epsilon, t, j, side,
                             result.truncated))

    ordered = sorted(rows, key=lambda row: row.delta, reverse=True)
    nonincreasing = all(
        a.epsilon >= b.epsilon - 1e-12 for a, b in zip(ordered, ordered[1:])
    )
    return SweepResult(rows, float(tau), nonincreasing)
