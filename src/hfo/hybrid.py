"""Generic execution of timer-driven hybrid systems.

A model object supplies the flow and jump behavior (see
``model.HybridFOModel`` for the concrete interface); this module owns hybrid
time bookkeeping, exact event scheduling for affinely decreasing timers,
jump-priority semantics, and the resulting solution arcs.

``simulate`` runs in two passes. Only the plant state x flows, and linearly;
the jump maps act on the timers, u, y_s and z alone. So pass 1 carries those
as plain values (two floats and three arrays): the model's event interface
(``contains``, ``which_case``, ``g1``, ``g2``) takes and returns them, and
``jump_order`` names the maps each jump applies. Pass 1 records one row of
numbers per segment (start time, start timers, grid steps, length, end
timers) and the segment's held u, y_s and z. Pass 2 fills in the samples of
the whole arc: times and timers in one vectorized expression each, x by
stored powers of the one-step map on the sample grid plus one exact
held-input step to each segment's end. ``State`` appears only at the API
edge: the initial state ``simulate`` takes and ``Segment.state(k)``.
"""

from __future__ import annotations

import itertools
import math
import operator
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


@dataclass(frozen=True)
class State:
    """Full hybrid state: plant state, applied input, sampled output,
    optimizer iterate, and the two countdown timers."""

    x: np.ndarray
    u: np.ndarray
    y_s: np.ndarray
    z: np.ndarray
    tau_c: float
    tau_g: float


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
    start = property(lambda self: self.state(0), doc="The first sample's state.")

    def state(self, k: int) -> State:
        """The full state of sample k (negative k counts from the end)."""
        arc, j = self.arc, self.j
        row = range(self.rows.start, self.rows.stop)[k]
        return State(x=arc.x[row], u=arc.u[j], y_s=arc.y_s[j], z=arc.z[j],
                     tau_c=float(arc.tau_c[row]), tau_g=float(arc.tau_g[row]))


class _Segments(Sequence):
    """``arc.segments``: one view per segment, made on access."""

    __slots__ = ("arc",)

    def __init__(self, arc: "HybridArc"):
        self.arc = arc

    def __len__(self) -> int:
        return len(self.arc.offsets) - 1

    def __getitem__(self, j):
        return Segment(self.arc, range(len(self))[operator.index(j)])

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
    min_dwell: float | None = None  # least gap between jump groups, if known
    spacing: tuple | None = None  # least time between g1 jumps, between g2 jumps

    @property
    def segments(self) -> Sequence:
        return _Segments(self)

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def held(self) -> np.ndarray:
        """Rows of [u, y_s, z], one per segment."""
        return np.hstack([self.u, self.y_s, self.z])

    def periods(self) -> list:
        """The (first, end) segment range of every input period, in order.

        A g2 jump closes a period, so every jump inside one applied g1 and
        its optimizer iterates are ``z[first:end]``. The last period, which
        runs to the arc's end, is the one no g2 closes.
        """
        starts = [0]
        for rec in self.jumps:
            if rec.applied == "g2":
                starts.append(rec.j + 1)
            elif rec.applied != "g1":
                raise ValueError(f"malformed jump log: unknown map {rec.applied!r}")
        return list(zip(starts, starts[1:] + [len(self.offsets) - 1]))


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
    # capped at the largest float, so that no huge J overflows the product
    jumps = min(j_max + 1, t_max / model.period_g + t_max / model.period_c + 2,
                np.finfo(float).max)
    t_end = min(t_max, (jumps + 1) * model.period_g)
    return t_end / sample_dt + 2 * (jumps + 2)


def _timer_end(tau0: float, rate: float, elapsed: float, expires: bool) -> float:
    """One timer after ``elapsed``: decreased affinely from ``tau0``, zero
    within EVENT_TOL or when it expires at the segment's closing event, and
    clipped at zero. Pass 1 records it as the segment's end timer, which
    ``_sample_columns`` writes into the segment's last sample."""
    tau = tau0 + rate * elapsed
    if expires or abs(tau) <= EVENT_TOL:
        return 0.0
    return max(tau, 0.0)


# Jump record labels: the map of a single expiry, or the composite jump's
# halves in order. Shared literals, so a record holds no string of its own.
_LABELS = {"g1": ("G1",), "g2": ("G2",),
           "both": ("G3-first-half", "G3-second-half")}


def jump_order(case, policy, rng) -> tuple:
    """The maps one jump applies, in order, for the jump case that
    ``which_case`` names: ("g1",) or ("g2",) when one timer expires; both,
    in the policy's ``case3_order``, when both do (the composite jump). A
    random order draws ``rng.integers(2)`` before the jump's tau_c reset."""
    if case is None:
        raise RuntimeError("jump requested outside the jump set")
    if case != "both":
        return (case,)
    order = policy.case3_order
    if order == "random":
        order = "g1_first" if rng.integers(2) == 0 else "g2_first"
    return ("g1", "g2") if order == "g1_first" else ("g2", "g1")


def _skeleton(model, zeta0, policy, horizon, sample_dt):
    """Pass 1: the run's events, without the plant state.

    Carries the timers as floats and u, y_s, z as arrays, and returns (rows,
    jumps) with one row per segment: (start time, start tau_c, start tau_g,
    grid steps g, length, end tau_c, end tau_g, u, y_s, z). A flow segment of
    length dt stores samples at grid steps 0..g of ``sample_dt`` and at its
    end; a point segment has g = -1, length 0 and end timers equal to its
    start timers, and stores one sample. Each g2 draws its tau_c reset by
    ``draw_tau_c_reset`` as it applies.
    """
    t_max, j_max = horizon
    rate_c, rate_g = model.rate_c, model.rate_g
    interval = (model.reset_lo, model.reset_hi)
    rng = np.random.default_rng(policy.seed)
    t, j, tau_c, tau_g = 0.0, 0, zeta0.tau_c, zeta0.tau_g
    u, y_s, z = zeta0.u, zeta0.y_s, zeta0.z
    rows, jumps = [], []

    def point():
        return (t, tau_c, tau_g, -1, 0.0, tau_c, tau_g, u, y_s, z)

    while True:
        remaining = t_max - t
        if j >= j_max or remaining <= EVENT_TOL:
            rows.append(point())
            break
        case = model.which_case(tau_c, tau_g)
        if case is not None:
            rows.append(point())
        else:
            dt, expired = next_event(tau_c, tau_g, rate_c, rate_g)
            horizon_hit = dt > remaining + EVENT_TOL
            if horizon_hit:
                dt, expired = remaining, ""
            grid = max(math.floor(dt / sample_dt - 1e-9), 0)
            end_c = _timer_end(tau_c, rate_c, dt, expired in ("c", "both"))
            end_g = _timer_end(tau_g, rate_g, dt, expired in ("g", "both"))
            rows.append((t, tau_c, tau_g, grid, dt, end_c, end_g, u, y_s, z))
            t, tau_c, tau_g = t + dt, end_c, end_g
            if not model.contains(tau_c, tau_g):
                raise RuntimeError(
                    f"state left the flow/jump domain at t={t} (model bug): "
                    f"tau_c={tau_c}, tau_g={tau_g}")
            if horizon_hit:
                break
            case = model.which_case(tau_c, tau_g)
        for i, (name, label) in enumerate(zip(jump_order(case, policy, rng),
                                              _LABELS[case])):
            if i:
                rows.append(point())
            if name == "g1":
                z, tau_g = model.g1(z, y_s)
            else:
                u, y_s, tau_c = model.g2(
                    z, draw_tau_c_reset(policy, rng, interval))
            jumps.append(JumpRecord(t, j, label, name))
            j += 1
    return rows, jumps


def _sample_columns(starts, grids, lengths, running, timers):
    """Pass 2, without x: (offsets, times, timer columns) of every sample.

    Grid step k of every segment lies ``running[k]`` after its start, and
    its last sample at its length; a per-segment column reaches its samples
    by ``np.repeat`` over the sample counts. ``timers`` holds (start values,
    end values, rate) per timer; each decreases affinely from its start
    value, zero within EVENT_TOL and clipped at zero, and each segment's last
    sample takes the end value pass 1 recorded (a point segment's one
    sample, its start value as it is).
    """
    counts = np.where(grids < 0, 1, grids + 2)
    offsets = np.zeros(len(grids) + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    last = offsets[1:] - 1
    elapsed = running[np.arange(offsets[-1]) - np.repeat(offsets[:-1], counts)]
    elapsed[last] = lengths

    def timer(tau0, tau1, rate):
        tau = rate * elapsed
        tau += np.repeat(tau0, counts)
        tau[np.abs(tau) <= EVENT_TOL] = 0.0
        np.maximum(tau, 0.0, out=tau)
        tau[last] = tau1
        return tau

    return (offsets, np.repeat(starts, counts) + elapsed,
            [timer(*spec) for spec in timers])


def _closing_maps(model, grids, lengths, running):
    """Each flow segment's held-input map over length - running[grid]: one
    stacked propagator call per FLOW_BLOCK segments, on distinct lengths."""
    flow = grids >= 0
    closing = lengths[flow] - running[grids[flow]]
    for first in range(0, len(closing), FLOW_BLOCK):
        distinct, which = np.unique(closing[first:first + FLOW_BLOCK],
                                    return_inverse=True)
        e, forced = linalg.propagator(model.a, model.b, distinct)
        yield from ((e[k], forced[k]) for k in which.tolist())


def _plant_column(model, grids, lengths, u, offsets, running, x0, sample_dt):
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
    closing = _closing_maps(model, grids, lengths, running)
    x = np.empty((int(offsets[-1]), len(x0)))
    current = x0
    for lo, grid, held in zip(offsets.tolist(), grids.tolist(), u):
        x[lo] = current
        if grid < 0:
            continue
        for k in range(0, grid, block):
            size = min(block, grid - k)
            x[lo + k + 1:lo + k + size + 1] = table[:size] @ np.concatenate(
                [x[lo + k], held])
        e, forced = next(closing)
        current = e @ x[lo + grid] + forced @ held
        x[lo + grid + 1] = current
    return x


def draw_tau_c_reset(policy, rng, interval):
    """Resolve the set-valued tau_c reset via the configured policy."""
    lo, hi = interval
    kind = policy.tau_c_reset
    if kind == "fixed":
        value = policy.tau_c_value
        if not (lo - EVENT_TOL <= value <= hi + EVENT_TOL):
            raise ValueError(f"fixed tau_c reset {value} outside reset "
                             f"interval [{lo}, {hi}]")
        return float(value)
    if kind == "uniform":
        return float(rng.uniform(lo, hi)) if hi > lo else lo
    return lo if kind == "min" else hi


def simulate(model, zeta0: State, policy, horizon,
             sample_dt: float = 0.01) -> HybridArc:
    """Run the hybrid system from zeta0 until t >= T or j >= J.

    Jump-priority semantics: whenever the state is in the jump set the jump
    map is applied (nondeterminism resolved via policy + seeded RNG);
    otherwise the state flows exactly to the next timer event. Deterministic
    for a fixed seed. J never splits a composite jump: both halves run, so
    the arc may end at j = J + 1. Raises SampleBudgetError, before any work,
    when ``sample_bound`` allows a payload over SAMPLE_BUDGET bytes, and
    ValueError for a fixed tau_c reset outside the reset interval.
    """
    if sample_dt <= 0:
        raise ValueError("sample_dt must be positive")
    if not model.contains(zeta0.tau_c, zeta0.tau_g):
        raise ValueError("initial state outside the flow and jump sets")
    if policy.tau_c_reset == "fixed":
        draw_tau_c_reset(policy, None, (model.reset_lo, model.reset_hi))
    bound = sample_bound(model, horizon, sample_dt)
    payload = bound * (len(zeta0.x) + 3) * 8
    if payload > SAMPLE_BUDGET:
        raise SampleBudgetError(
            f"the run may store up to {bound:.3g} samples, "
            f"{payload / 2 ** 30:.3g} GiB of float64, over the "
            f"{SAMPLE_BUDGET / 2 ** 30:g} GiB budget")

    rows, jumps = _skeleton(model, zeta0, policy, horizon, sample_dt)
    (starts, tau_c0, tau_g0, grids, lengths, tau_c1, tau_g1,
     u, y_s, z) = (np.array(col) for col in zip(*rows))
    # R[k] = R[k - 1] + sample_dt: grid step k's offset from a segment start
    running = np.zeros(max(int(grids.max()), 0) + 2)
    np.cumsum(np.full(len(running) - 2, sample_dt), out=running[1:-1])
    offsets, times, (tau_c, tau_g) = _sample_columns(
        starts, grids, lengths, running,
        [(tau_c0, tau_c1, model.rate_c), (tau_g0, tau_g1, model.rate_g)])
    x = _plant_column(model, grids, lengths, u, offsets, running, zeta0.x,
                      sample_dt)

    spacing = (model.period_g, model.period_c)
    min_dwell = min(spacing) if _aligned(model, zeta0, policy) else None
    return HybridArc(times, x, tau_c, tau_g, offsets, u, y_s, z, jumps,
                     min_dwell, spacing)


def _on_grid(value: float, step: float) -> bool:
    return abs(value - step * round(value / step)) <= EVENT_TOL


def _aligned(model, zeta0, policy) -> bool:
    """Whether every jump of a run lies on the gradient timer's grid: equal
    timer rates, one deterministic tau_c reset that is a multiple of the
    tau_g reset, and starting timers a multiple of it apart. Only then do
    jump groups stay min(model.period_g, model.period_c) apart."""
    lo, hi = model.reset_lo, model.reset_hi
    reset = {"fixed": policy.tau_c_value, "min": lo, "max": hi,
             "uniform": lo if lo == hi else None}.get(policy.tau_c_reset)
    step = model.tau_g_reset
    return (model.rate_c == model.rate_g and reset is not None
            and _on_grid(reset, step) and _on_grid(zeta0.tau_c - zeta0.tau_g, step))


def jump_stats(arc: HybridArc) -> JumpStats:
    """Count gradient-descent jumps per completed input period: each jump
    inside a period applied g1, so period (first, end) holds end - first - 1."""
    alpha = [end - first - 1 for first, end in arc.periods()[:-1]]
    return JumpStats(alpha, list(itertools.accumulate(alpha, initial=0)))


@dataclass
class NonZenoReport:
    passed: bool
    violations: list
    max_jumps_per_instant: int
    min_flow_gap: float | None = None  # least gap between jump groups
    min_gap_t: float | None = None  # (t, j) of the first jump after that gap
    min_gap_j: int | None = None
    min_dwell: float | None = None  # the group-gap bound applied, if any


def check_non_zeno(arc: HybridArc) -> NonZenoReport:
    """Structural non-Zeno checks on a simulated arc.

    Verifies that (a) every completed jump sequence leaves both timers
    strictly positive and (b) at most two jumps share one continuous time.
    With a group-gap bound (``arc.min_dwell``, which ``simulate`` sets only
    for runs whose jumps all lie on the tau_g grid) it verifies (c) that
    jump groups lie at least that far apart; without one, (c') that
    consecutive g1 jumps and consecutive g2 jumps lie at least
    ``arc.spacing`` apart. Violations are reported, not raised.
    """
    violations, min_dwell = [], arc.min_dwell
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
