"""Generic execution of timer-driven hybrid systems.

A model object supplies the flow and jump behavior (see
``model.HybridFOModel`` for the concrete interface); this module owns hybrid
time bookkeeping, exact event scheduling for affinely decreasing timers,
jump-priority semantics, and the resulting solution arcs.

``simulate`` runs in two passes. The event side of the model (``contains``,
``which_case``, ``g1``, ``g2``) reads the timers, u, y_s and z, never the
plant state x, so pass 1 runs timers, jumps and optimizer iterates alone, at
a cost per jump, and records each flow segment's start, length and held
input. Pass 2 fills in the samples of the whole arc: times and timers in one
vectorized expression each, x by stored powers of the one-step map on the
sample grid plus one exact held-input step to each segment's end.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import linalg

# Two timer events within this many seconds count as simultaneous.
EVENT_TOL = 1e-12

# Most grid steps one stored power table covers; longer on-grid runs chain
# blocks of this many steps.
FLOW_BLOCK = 128

# Most bytes of float64 payload (times, x and both timers) one arc may hold.
SAMPLE_BUDGET = 1 << 30


class SampleBudgetError(ValueError):
    """A run could store more samples than ``SAMPLE_BUDGET`` allows."""


@dataclass(slots=True)
class JumpRecord:
    t: float  # jump j ends segments[j] and starts segments[j + 1]
    j: int
    case: str  # "G1", "G2", "G3-first-half", "G3-second-half"
    applied: str  # which map fired: "g1" or "g2"


@dataclass
class JumpStats:
    alpha: list  # gradient jumps per completed input period
    alpha_bar: list  # prefix sums, alpha_bar[0] == 0


class Segment:
    """One flow interval of a hybrid arc, at jump index j, as a view of the
    arc's rows: sample k is at time ``times[k]`` with plant state ``x[k]``
    and timers ``tau_c[k]``, ``tau_g[k]``. The components that stay constant
    along a flow (u, y_s, z) live once, in the arc's held table."""

    __slots__ = ("arc", "j", "rows")

    def __init__(self, arc: "HybridArc", j: int):
        self.arc, self.j = arc, j
        self.rows = slice(int(arc.offsets[j]), int(arc.offsets[j + 1]))

    times = property(lambda self: self.arc.times[self.rows])
    x = property(lambda self: self.arc.x[self.rows])
    tau_c = property(lambda self: self.arc.tau_c[self.rows])
    tau_g = property(lambda self: self.arc.tau_g[self.rows])
    t_start = property(lambda self: float(self.arc.times[self.rows.start]))
    t_end = property(lambda self: float(self.arc.times[self.rows.stop - 1]))
    start = property(lambda self: self.state(0), doc="The state at t_start.")

    def state(self, k: int):
        """The full state of sample k (negative k counts from the end)."""
        arc, j = self.arc, self.j
        row = range(self.rows.start, self.rows.stop)[k]
        return arc.state_type(x=arc.x[row], u=arc.u[j], y_s=arc.y_s[j],
                              z=arc.z[j], tau_c=float(arc.tau_c[row]),
                              tau_g=float(arc.tau_g[row]))

    def matrix(self) -> np.ndarray:
        """Rows of [x, u, y_s, z, tau_c, tau_g], one per sample."""
        arc, j = self.arc, self.j
        const = np.concatenate([arc.u[j], arc.y_s[j], arc.z[j]])
        return np.column_stack([self.x,
                                np.broadcast_to(const, (len(self.times),
                                                        len(const))),
                                self.tau_c, self.tau_g])


class _Segments(Sequence):
    """``arc.segments``: one view per segment, made on access."""

    __slots__ = ("arc",)

    def __init__(self, arc: "HybridArc"):
        self.arc = arc

    def __len__(self) -> int:
        return len(self.arc.offsets) - 1

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [Segment(self.arc, i) for i in range(len(self))[j]]
        return Segment(self.arc, range(len(self))[j])

    def __iter__(self):
        return (Segment(self.arc, j) for j in range(len(self)))


@dataclass
class HybridArc:
    """A hybrid solution, stored flat. Sample i is at time ``times[i]`` with
    plant state ``x[i]`` and timers ``tau_c[i]``, ``tau_g[i]``. Segment j,
    the flow at jump index j, holds rows ``offsets[j]:offsets[j + 1]`` and
    the input ``u[j]``, sampled output ``y_s[j]`` and iterate ``z[j]``; it
    ends at ``jumps[j]``, so there is one segment more than there are jumps.
    ``segments[j]`` is a view of segment j."""

    times: np.ndarray  # (N,)
    x: np.ndarray  # (N, n)
    tau_c: np.ndarray  # (N,)
    tau_g: np.ndarray  # (N,)
    offsets: np.ndarray  # (S + 1,)
    u: np.ndarray  # (S, m)
    y_s: np.ndarray  # (S, p)
    z: np.ndarray  # (S, m)
    jumps: list
    state_type: type  # the model's state class, which Segment.state builds
    min_dwell: float | None = None  # least gap between jump groups, if known
    spacing: tuple | None = None  # least time between g1 jumps, between g2 jumps

    @property
    def segments(self) -> Sequence:
        return _Segments(self)

    @property
    def j(self) -> np.ndarray:
        """The jump index of every sample, (N,)."""
        return np.repeat(np.arange(len(self.offsets) - 1), np.diff(self.offsets))

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def held(self) -> np.ndarray:
        """Rows of [u, y_s, z], one per segment."""
        return np.hstack([self.u, self.y_s, self.z])


def next_event(tau_c: float, tau_g: float, rate_c: float = -1.0, rate_g: float = -1.0):
    """Time until the first timer reaches zero, and which timer(s) expire.

    Timers decrease affinely, so event times are exact: dt = tau / |rate|.
    Returns (dt, which) with which in {"c", "g", "both"}.
    """
    if rate_c >= 0.0 or rate_g >= 0.0:
        raise ValueError("timer rates must be strictly negative")
    if tau_c < 0.0 or tau_g < 0.0:
        raise ValueError("timers must be nonnegative")
    dt_c = tau_c / -rate_c
    dt_g = tau_g / -rate_g
    if abs(dt_c - dt_g) <= EVENT_TOL:
        return min(dt_c, dt_g), "both"
    if dt_c < dt_g:
        return dt_c, "c"
    return dt_g, "g"


def sample_bound(model, horizon, sample_dt: float) -> float:
    """Most samples a run over ``horizon`` = (T, J) can store, by arithmetic.

    A run makes at most J + 1 jumps (J never splits a composite jump), and
    at most one g1 jump per tau_g period and one g2 jump per shortest tau_c
    period, plus one of each at the start. No flow segment outlasts one tau_g
    period, and there is one segment more than there are jumps, so the run
    ends by min(T, (jumps + 1) tau_g period). Each segment stores at most two
    samples besides its grid points.
    """
    t_max, j_max = horizon
    period_g = model.tau_g_reset / -model.rate_g
    period_c = model.reset_lo / -model.rate_c
    # capped at the largest float, so that no huge J overflows the product
    jumps = min(j_max + 1, t_max / period_g + t_max / period_c + 2,
                np.finfo(float).max)
    t_end = min(t_max, (jumps + 1) * period_g)
    return t_end / sample_dt + 2 * (jumps + 2)


def _timer_end(tau0: float, rate: float, elapsed: float, expires: bool) -> float:
    """One timer after ``elapsed``: decreased affinely from ``tau0``, zero
    within EVENT_TOL or when it expires at the segment's closing event, and
    clipped at zero. ``_sample_columns`` gives every sample the same value."""
    tau = tau0 + rate * elapsed
    if expires or abs(tau) <= EVENT_TOL:
        return 0.0
    return max(tau, 0.0)


def _skeleton(model, zeta0, policy, horizon, sample_dt):
    """Pass 1: the run's events, without the plant state.

    Returns (rows, jumps), one row per segment: (start time, start state
    with x = None, grid steps g, length, expiring timer). A flow segment of
    length dt stores samples at grid steps 0..g of ``sample_dt`` and at its
    end; a point segment has g = -1 and length 0 and stores one sample.
    """
    t_max, j_max = horizon
    rate_c, rate_g = model.rate_c, model.rate_g
    rng = np.random.default_rng(policy.seed)
    state, t, j = dataclasses.replace(zeta0, x=None), 0.0, 0
    rows, jumps = [], []
    while True:
        remaining = t_max - t
        if j >= j_max or remaining <= EVENT_TOL:
            rows.append((t, state, -1, 0.0, ""))
            break
        horizon_hit = False
        if model.which_case(state) is not None:
            rows.append((t, state, -1, 0.0, ""))
        else:
            dt, expired = next_event(state.tau_c, state.tau_g, rate_c, rate_g)
            if dt > remaining + EVENT_TOL:
                dt, expired, horizon_hit = remaining, "", True
            grid = max(math.floor(dt / sample_dt - 1e-9), 0)
            rows.append((t, state, grid, dt, expired))
            state = dataclasses.replace(
                state,
                tau_c=_timer_end(state.tau_c, rate_c, dt, expired in ("c", "both")),
                tau_g=_timer_end(state.tau_g, rate_g, dt, expired in ("g", "both")))
            t = t + dt
            if not model.contains(state):
                raise RuntimeError(
                    f"state left the flow/jump domain at t={t} (model bug): "
                    f"{state}")
            if horizon_hit:
                break
        steps = _resolve_jump(model, state, policy, rng)
        for i, (label, applied, state) in enumerate(steps):
            jumps.append(JumpRecord(t, j, label, applied))
            j += 1
            if i < len(steps) - 1:
                rows.append((t, state, -1, 0.0, ""))
    return rows, jumps


def _sample_columns(rows, running, rate_c, rate_g):
    """Pass 2, without x: (offsets, times, tau_c, tau_g) of every sample.

    Grid step k of every segment lies ``running[k]`` after its start, and
    its last sample at its length. Timers follow ``_timer_end``; a point
    segment stores its start state's timers as they are.
    """
    starts, states, grids, lengths, expired = zip(*rows)
    grids = np.array(grids)
    point = grids < 0
    counts = np.where(point, 1, grids + 2)
    offsets = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    first, last = offsets[:-1], offsets[1:] - 1
    seg = np.repeat(np.arange(len(rows)), counts)
    elapsed = running[np.arange(offsets[-1]) - first[seg]]
    elapsed[last] = lengths
    times = np.array(starts)[seg] + elapsed

    def timer(tau0, rate, name):
        tau = tau0[seg] + rate * elapsed
        tau[np.abs(tau) <= EVENT_TOL] = 0.0
        tau[last[[which in (name, "both") for which in expired]]] = 0.0
        np.maximum(tau, 0.0, out=tau)
        tau[first[point]] = tau0[point]
        return tau

    tau_c0, tau_g0 = (np.array([getattr(s, name) for s in states])
                      for name in ("tau_c", "tau_g"))
    return (offsets, times, timer(tau_c0, rate_c, "c"),
            timer(tau_g0, rate_g, "g"))


def _closing_maps(model, rows, running):
    """Each flow segment's held-input map over length - running[grid]: one
    stacked propagator call per FLOW_BLOCK segments, on distinct lengths."""
    flows = [(grid, length) for _, _, grid, length, _ in rows if grid >= 0]
    for first in range(0, len(flows), FLOW_BLOCK):
        grids, lengths = zip(*flows[first:first + FLOW_BLOCK])
        closing = np.array(lengths) - running[list(grids)]
        distinct, which = np.unique(closing, return_inverse=True)
        e, forced = linalg.propagator(model.a, model.b, distinct)
        yield from ((e[k], forced[k]) for k in which.tolist())


def _plant_column(model, rows, offsets, running, x0, sample_dt):
    """Pass 2, x: every sample's plant state, (N, n).

    On a segment's grid x(k sample_dt) = [e^{A k sample_dt}, Gamma_k] @
    [x(0); u], row k - 1 of ``model.flow_grid``: one batched product per
    block of at most FLOW_BLOCK steps, each block starting where the last
    ended. ``_closing_maps`` gives the exact closing step from the last grid
    point to the segment's end. A point segment repeats the state it starts at.
    """
    longest = len(running) - 2
    block = max(1, min(FLOW_BLOCK, longest))
    table = model.flow_grid(sample_dt, block) if longest > 0 else None
    closing = _closing_maps(model, rows, running)
    x = np.empty((int(offsets[-1]), len(x0)))
    current = x0
    for lo, (_, state, grid, _, _) in zip(offsets.tolist(), rows):
        x[lo] = current
        if grid < 0:
            continue
        for k in range(0, grid, block):
            size = min(block, grid - k)
            x[lo + k + 1:lo + k + size + 1] = table[:size] @ np.concatenate(
                [x[lo + k], state.u])
        e, forced = next(closing)
        current = e @ x[lo + grid] + forced @ state.u
        x[lo + grid + 1] = current
    return x


def draw_tau_c_reset(policy, rng, interval):
    """Resolve the set-valued tau_c reset via the configured policy."""
    lo, hi = interval
    kind = policy.tau_c_reset
    if kind == "fixed":
        value = policy.tau_c_value
        if value is None or not (lo - EVENT_TOL <= value <= hi + EVENT_TOL):
            raise ValueError(
                f"fixed tau_c reset {value} outside reset interval [{lo}, {hi}]"
            )
        return float(value)
    if kind == "uniform":
        return float(rng.uniform(lo, hi)) if hi > lo else lo
    if kind == "min":
        return lo
    if kind == "max":
        return hi
    raise ValueError(f"unknown tau_c reset policy {kind!r}")


def _resolve_jump(model, state, policy, rng):
    """Apply the jump map once, returning [(case_label, applied, new_state), ...].

    A simultaneous expiry of both timers produces two consecutive entries
    (the composite jump executes both single-timer maps in policy order).
    """
    case = model.which_case(state)
    if case is None:
        raise RuntimeError("jump requested outside the jump set")
    interval = (model.reset_lo, model.reset_hi)
    if case == "g1":
        return [("G1", "g1", model.g1(state))]
    if case == "g2":
        tau = draw_tau_c_reset(policy, rng, interval)
        return [("G2", "g2", model.g2(state, tau))]

    order = policy.case3_order
    if order == "random":
        order = "g1_first" if rng.integers(2) == 0 else "g2_first"
    steps = []
    if order == "g1_first":
        mid = model.g1(state)
        steps.append(("G3-first-half", "g1", mid))
        tau = draw_tau_c_reset(policy, rng, interval)
        steps.append(("G3-second-half", "g2", model.g2(mid, tau)))
    elif order == "g2_first":
        tau = draw_tau_c_reset(policy, rng, interval)
        mid = model.g2(state, tau)
        steps.append(("G3-first-half", "g2", mid))
        steps.append(("G3-second-half", "g1", model.g1(mid)))
    else:
        raise ValueError(f"unknown case-3 order {order!r}")
    return steps


def simulate(model, zeta0, policy, horizon, sample_dt: float = 0.01) -> HybridArc:
    """Run the hybrid system from zeta0 until t >= T or j >= J.

    Jump-priority semantics: whenever the state is in the jump set the jump
    map is applied (nondeterminism resolved via policy + seeded RNG);
    otherwise the state flows exactly to the next timer event. Deterministic
    for a fixed seed. J never splits a composite jump: both halves run, so
    the arc may end at j = J + 1. Raises SampleBudgetError, before any work,
    when ``sample_bound`` allows a payload over SAMPLE_BUDGET bytes.
    """
    if sample_dt <= 0:
        raise ValueError("sample_dt must be positive")
    if not model.contains(zeta0):
        raise ValueError("initial state outside the flow and jump sets")
    bound = sample_bound(model, horizon, sample_dt)
    payload = bound * (len(zeta0.x) + 3) * 8
    if payload > SAMPLE_BUDGET:
        raise SampleBudgetError(
            f"the run may store up to {bound:.3g} samples, "
            f"{payload / 2 ** 30:.3g} GiB of float64, over the "
            f"{SAMPLE_BUDGET / 2 ** 30:g} GiB budget")

    rows, jumps = _skeleton(model, zeta0, policy, horizon, sample_dt)
    longest = max(grid for _, _, grid, _, _ in rows)
    # R[k] = R[k - 1] + sample_dt: grid step k's offset from a segment start
    running = np.zeros(max(longest, 0) + 2)
    np.cumsum(np.full(len(running) - 2, sample_dt), out=running[1:-1])
    offsets, times, tau_c, tau_g = _sample_columns(rows, running, model.rate_c,
                                                   model.rate_g)
    x = _plant_column(model, rows, offsets, running, zeta0.x, sample_dt)
    held = [np.array([getattr(state, name) for _, state, *_ in rows])
            for name in ("u", "y_s", "z")]

    spacing = (model.tau_g_reset / -model.rate_g, model.reset_lo / -model.rate_c)
    min_dwell = model.min_dwell() if _aligned(model, zeta0, policy) else None
    return HybridArc(times, x, tau_c, tau_g, offsets, *held, jumps,
                     type(zeta0), min_dwell, spacing)


def _on_grid(value: float, step: float) -> bool:
    return abs(value - step * round(value / step)) <= EVENT_TOL


def _aligned(model, zeta0, policy) -> bool:
    """Whether every jump of a run lies on the gradient timer's grid: equal
    timer rates, one deterministic tau_c reset that is a multiple of the
    tau_g reset, and starting timers a multiple of it apart. Only then do
    jump groups stay ``model.min_dwell()`` apart."""
    lo, hi = model.reset_lo, model.reset_hi
    reset = {"fixed": policy.tau_c_value, "min": lo, "max": hi,
             "uniform": lo if lo == hi else None}.get(policy.tau_c_reset)
    step = model.tau_g_reset
    return (model.rate_c == model.rate_g and reset is not None
            and _on_grid(reset, step) and _on_grid(zeta0.tau_c - zeta0.tau_g, step))


def jump_stats(arc: HybridArc) -> JumpStats:
    """Count gradient-descent jumps per completed input period.

    Input changes must occur at the jump positions the period bookkeeping
    implies; a mismatch means the jump log is malformed.
    """
    alpha = []
    counter = 0
    for pos, rec in enumerate(arc.jumps):
        if rec.applied == "g1":
            counter += 1
        elif rec.applied == "g2":
            alpha.append(counter)
            counter = 0
            expected = sum(alpha) + len(alpha) - 1
            if pos != expected:
                raise ValueError(
                    f"malformed jump log: input change #{len(alpha)} at jump "
                    f"position {pos}, expected {expected}"
                )
        else:
            raise ValueError(f"malformed jump log: unknown map {rec.applied!r}")
    alpha_bar = [0]
    for a in alpha:
        alpha_bar.append(alpha_bar[-1] + a)
    return JumpStats(alpha, alpha_bar)


@dataclass
class NonZenoReport:
    passed: bool
    violations: list
    max_jumps_per_instant: int
    min_flow_gap: float | None = None  # least gap between jump groups
    min_gap_t: float | None = None  # (t, j) of the first jump after that gap
    min_gap_j: int | None = None
    min_dwell: float | None = None  # the group-gap bound applied, if any


def check_non_zeno(arc: HybridArc, min_dwell: float | None = None) -> NonZenoReport:
    """Structural non-Zeno checks on a simulated arc.

    Verifies that (a) every completed jump sequence leaves both timers
    strictly positive and (b) at most two jumps share one continuous time.
    With a group-gap bound (``min_dwell``, else ``arc.min_dwell``, which
    ``simulate`` sets only for runs whose jumps all lie on the tau_g grid) it
    verifies (c) that jump groups lie at least that far apart; without one,
    (c') that consecutive g1 jumps and consecutive g2 jumps lie at least
    ``arc.spacing`` apart. Violations are reported, not raised.
    """
    if min_dwell is None:
        min_dwell = arc.min_dwell
    violations = []
    groups = []
    for rec in arc.jumps:
        if groups and abs(rec.t - groups[-1][-1].t) <= EVENT_TOL:
            groups[-1].append(rec)
        else:
            groups.append([rec])

    max_per_instant = max((len(g) for g in groups), default=0)
    for g in groups:
        if len(g) > 2:
            violations.append(f"{len(g)} jumps at t={g[0].t}")
        row = arc.offsets[g[-1].j + 1]
        tau_c, tau_g = float(arc.tau_c[row]), float(arc.tau_g[row])
        if tau_c <= 0.0 or tau_g <= 0.0:
            violations.append(
                f"nonpositive timer after jump sequence at t={g[0].t}: "
                f"tau_c={tau_c}, tau_g={tau_g}"
            )
    min_gap, witness = None, (None, None)
    for a, b in zip(groups, groups[1:]):
        gap = b[0].t - a[0].t
        if min_gap is None or gap < min_gap:
            min_gap, witness = gap, (b[0].t, b[0].j)
        if min_dwell is not None and gap < min_dwell - EVENT_TOL:
            violations.append(
                f"flow gap {gap} after jump sequence at t={a[0].t} "
                f"shorter than {min_dwell}"
            )
    if min_dwell is None and arc.spacing is not None:
        for applied, least in zip(("g1", "g2"), arc.spacing):
            times = [rec.t for rec in arc.jumps if rec.applied == applied]
            for t0, t1 in zip(times, times[1:]):
                if t1 - t0 < least - EVENT_TOL:
                    violations.append(f"{applied} jumps at t={t0} and t={t1} "
                                      f"closer than {least}")
    return NonZenoReport(not violations, violations, max_per_instant, min_gap,
                         *witness, min_dwell)
