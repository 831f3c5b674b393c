"""Generic execution of timer-driven hybrid systems.

A model object supplies the flow and jump behavior (see
``model.HybridFOModel`` for the concrete interface); this module owns hybrid
time bookkeeping, exact event scheduling for affinely decreasing timers,
jump-priority semantics, and the resulting solution arcs.

A run takes three steps. Only the plant state x flows, and linearly. A
jump resets a timer, which ``schedule`` alone owns, and ``g1`` or ``g2``
acts on u, y_s and z, which no timer reset reads.
- ``schedule`` (pass 1) carries the two timers as floats, through the
  model's timer interface (``contains``, ``which_case``, ``tau_g_reset``)
  and the policy's draws (``jump_order``, ``draw_tau_c_reset``). Its
  ``Schedule`` holds one row of numbers per segment (start time, start
  timers, grid steps, length, end timers), one code per jump, and the
  run's start (u, y_s, z).
- ``flows`` builds the flow maps of one or more schedules of one
  parameter set: each run's table of powers of the one-step map on the
  sample grid, and one exact held-input map to each segment's end, from
  stacked propagator calls and one stacked recurrence. It also runs the
  one held recurrence ``_held``, which applies ``g1`` and ``g2`` (with
  ``gradient_offset``) over the jump codes, the arc's jump log, for u, y_s
  and z, for all its runs in lockstep over the jump index. A
  ``robustness_sweep`` schedules all its runs before it builds their flows
  in one go. A lone run's stack is its model, so it makes one map call per
  jump on vectors, which costs it less than a stack of one row.
- ``simulate`` fills the arc: the held columns as ``flows`` gave them, and
  pass 2's samples, times and timers in one vectorized expression each, x
  from the table and the closing maps.

``State`` appears only at the API edge, as the initial state ``simulate``
takes (and the config, ``model.validate`` and the sweeps build or check a
start; ``from hfo.model import State`` still works)."""

from __future__ import annotations

import collections
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import linalg

# Two timer events within this many seconds count as simultaneous.
EVENT_TOL = 1e-12

# Most grid steps one stored power table covers; longer on-grid runs chain
# blocks of this many steps.
FLOW_BLOCK = 128

# Most matrix elements one stacked propagator call exponentiates (k
# augmented (n + m) x (n + m) matrices, at least one), and most that the
# power tables and grid steps of one batch of ``flows`` runs hold, unless
# the batch is one run.
FLOW_ELEMENTS = 1 << 13

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


@dataclass
class JumpStats:
    alpha: list  # gradient jumps per completed input period
    alpha_bar: list  # prefix sums, alpha_bar[0] == 0


class Segment:
    """One flow interval of a hybrid arc, at jump index j, as a view of the
    arc's rows: its samples are at times ``times``, rows ``rows`` of the
    arc's columns. The components that stay constant along a flow (u, y_s,
    z) live once, in the arc's held table."""

    __slots__ = ("arc", "j", "rows")

    def __init__(self, arc: "HybridArc", j: int):
        self.arc, self.j = arc, j
        self.rows = slice(int(arc.offsets[j]), int(arc.offsets[j + 1]))

    times = property(lambda self: self.arc.times[self.rows])


class _Segments:
    """``arc.segments``: one view per segment, made as it is iterated."""

    __slots__ = ("arc",)

    def __init__(self, arc: "HybridArc"):
        self.arc = arc

    def __len__(self) -> int:
        return len(self.arc.offsets) - 1

    def __iter__(self):
        return (Segment(self.arc, j) for j in range(len(self)))


@dataclass
class HybridArc:
    """A hybrid solution, stored flat. Sample i is at time ``times[i]`` with
    plant state ``x[i]`` and timers ``tau_c[i]``, ``tau_g[i]``. Segment j,
    the flow at jump index j, holds rows ``offsets[j]:offsets[j + 1]`` and
    the input ``u[j]``, sampled output ``y_s[j]`` and iterate ``z[j]``; it
    ends at jump j, whose result starts segment j + 1, so there is one
    segment more than there are jumps. Jump j happens at
    ``times[offsets[j + 1]]``, and ``jumps[j]``, the schedule's code for it,
    indexes its (case label, applied map) in ``JUMPS``. ``offsets`` is the
    arc's only segment index: sample i lies in segment
    ``searchsorted(offsets, i, "right") - 1``, and no per-sample copy of it
    is kept. ``segments`` iterates one view per segment."""

    times: np.ndarray  # (N,)
    x: np.ndarray  # (N, n)
    tau_c: np.ndarray  # (N,)
    tau_g: np.ndarray  # (N,)
    offsets: np.ndarray  # (S + 1,)
    u: np.ndarray  # (S, m)
    y_s: np.ndarray  # (S, p)
    z: np.ndarray  # (S, m)
    jumps: np.ndarray  # (S - 1,) int8, codes into JUMPS
    min_dwell: float | None  # least gap between jump groups, if known
    spacing: tuple  # least time between g1 jumps, between g2 jumps

    @property
    def segments(self) -> _Segments:
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
        runs to the arc's end, is the one no g2 closes. ``jump_stats``,
        ``analysis.rate_check`` and ``analysis.reconstruct_x`` read this
        split and walk no jump log of their own.
        """
        bounds = [0, *(np.flatnonzero(_applied(self.jumps, "g2")) + 1).tolist(),
                  len(self.offsets) - 1]
        return list(zip(bounds, bounds[1:]))


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


# Jump case labels: the map of a single expiry, or the composite jump's
# halves in order.
_LABELS = {"g1": ("G1",), "g2": ("G2",),
           "both": ("G3-first-half", "G3-second-half")}
# The (case label, applied map) of each jump code a schedule and an arc store.
JUMPS = tuple((label, name) for labels in _LABELS.values()
              for label in labels for name in ("g1", "g2"))
_CODES = {jump: code for code, jump in enumerate(JUMPS)}


def _applied(jumps: np.ndarray, name: str) -> np.ndarray:
    """Which of the jump codes ``jumps`` applied map ``name``."""
    return np.array([applied == name for _, applied in JUMPS])[jumps]


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


@dataclass(frozen=True)
class Schedule:
    """A run's events, from the timers alone: what ``schedule`` returns, and
    ``flows`` and ``simulate`` read.

    Row j of ``rows`` is segment j: (start time, start tau_c, start tau_g,
    grid steps g, length, end tau_c, end tau_g). A flow segment of length
    dt stores samples at grid steps 0..g of ``sample_dt`` and at its end; a
    point segment has g = -1, length 0 and end timers equal to its start
    timers, and stores one sample. Jump j ends segment j, and ``jumps[j]``
    indexes its (case, applied map) in ``JUMPS``. Segment j + 1 starts at
    the jump's time with the timers the jump left, so a g2's tau_c reset is
    row j + 1's start tau_c, and no other copy of it is kept. ``start`` is
    the start's (u, y_s, z), from which ``flows`` runs the held recurrence.
    """

    rows: np.ndarray  # (S, 7) float64
    jumps: np.ndarray  # (S - 1,) int8
    horizon: tuple
    sample_dt: float
    start: tuple  # (u, y_s, z) of the run's start

    @property
    def grids(self) -> np.ndarray:
        return self.rows[:, 3].astype(np.intp)


def _skeleton(model, zeta0, policy, horizon, sample_dt):
    """Pass 1's loop: the run's events, from the timers alone.

    Returns (rows, jumps): one flat list with the seven numbers of each
    segment's ``Schedule.rows`` row in turn (a tuple per row would stay
    traced in CPython's tuple free list once the rows die), and one
    ``JUMPS`` code per jump. Each g2 draws its tau_c reset by
    ``draw_tau_c_reset`` as it applies, and each g1 resets tau_g to
    ``model.tau_g_reset``; the seeded generator is built only for a policy
    that can draw (a ``uniform`` reset or a ``random`` order).
    """
    t_max, j_max = horizon
    rate_c, rate_g = model.rate_c, model.rate_g
    which_case, contains = model.which_case, model.contains
    interval = (model.reset_lo, model.reset_hi)
    tau_g_reset = model.tau_g_reset
    draws = policy.tau_c_reset == "uniform" or policy.case3_order == "random"
    rng = np.random.default_rng(policy.seed) if draws else None
    t, j, tau_c, tau_g = 0.0, 0, zeta0.tau_c, zeta0.tau_g
    rows, jumps = [], []

    def add_point():
        rows.extend((t, tau_c, tau_g, -1, 0.0, tau_c, tau_g))

    while True:
        remaining = t_max - t
        if j >= j_max or remaining <= EVENT_TOL:
            add_point()
            break
        case = which_case(tau_c, tau_g)
        if case is not None:
            add_point()
        else:
            dt, expired = next_event(tau_c, tau_g, rate_c, rate_g)
            horizon_hit = dt > remaining + EVENT_TOL
            if horizon_hit:
                dt, expired = remaining, ""
            grid = max(math.floor(dt / sample_dt - 1e-9), 0)
            end_c = _timer_end(tau_c, rate_c, dt, expired in ("c", "both"))
            end_g = _timer_end(tau_g, rate_g, dt, expired in ("g", "both"))
            rows.extend((t, tau_c, tau_g, grid, dt, end_c, end_g))
            t, tau_c, tau_g = t + dt, end_c, end_g
            if not contains(tau_c, tau_g):
                raise RuntimeError(
                    f"state left the flow/jump domain at t={t} (model bug): "
                    f"tau_c={tau_c}, tau_g={tau_g}")
            if horizon_hit:
                break
            case = which_case(tau_c, tau_g)
        for i, (name, label) in enumerate(zip(jump_order(case, policy, rng),
                                              _LABELS[case])):
            if i:
                add_point()
            if name == "g1":
                tau_g = tau_g_reset
            else:
                tau_c = draw_tau_c_reset(policy, rng, interval)
            jumps.append(_CODES[label, name])
            j += 1
    return rows, jumps


def schedule(model, zeta0: State, policy, horizon,
             sample_dt: float = 0.01) -> Schedule:
    """Pass 1 of a run from zeta0 until t >= T or j >= J: its checks, as
    ``simulate`` gives them, then its ``Schedule``, which holds arrays
    alone (pass 1's rows die once they are built)."""
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
    rows = np.fromiter(rows, float, len(rows)).reshape(-1, 7)
    return Schedule(rows, np.array(jumps, dtype=np.int8), tuple(horizon),
                    sample_dt, (zeta0.u, zeta0.y_s, zeta0.z))


# The map each jump code applies, 0 for g1 and 1 for g2, and 2 for code -1,
# which pads a jump log that has ended.
_KINDS = np.array([name == "g2" for _, name in JUMPS] + [2], dtype=np.int8)


def _held(models, scheds):
    """The held recurrence of runs given as models and their schedules: the
    columns u, y_s, z of each run, one row per segment, in order.

    It applies ``g1`` and ``g2`` over the jump codes from each run's start,
    cast to float64, g1 with the input period's ``gradient_offset``, taken
    at the start and after each g2. The runs go in lockstep over the jump
    index j, longest log first, through ``stacked``'s maps: at each j one g1
    step for the runs whose jump j applies g1, and one g2 step and gradient
    offset for those whose jump j applies g2. A run whose log has ended
    drops out. A selector that covers every run is ``slice(None)``, and
    that step indexes nothing; so a lone run, whose stack is its model and
    whose rows are vectors, makes one map call per jump on its own arrays,
    which costs it less than a stack of one row.

    Only z is carried, one row per j. Each g2 records y_s; segment j takes
    the u and y_s of the last g2 at or before it, u being z at that g2, and
    before the first g2 the start's. Each run's columns are bit for bit
    those of the run alone, whatever shares the stack."""
    order = sorted(range(len(scheds)), key=lambda r: -len(scheds[r].jumps))
    runs = len(order)
    stack = type(models[0]).stacked([models[r] for r in order])
    lengths = [len(scheds[r].jumps) for r in order]
    codes = np.full((lengths[0], runs), -1, dtype=np.int8)
    for i, r in enumerate(order):
        codes[:lengths[i], i] = scheds[r].jumps
    kinds = _KINDS[codes]  # (j, run)
    every = slice(None)

    def selector(column, want):
        rows = [i for i, kind in enumerate(column) if kind == want]
        if len(rows) == runs:
            return every
        if not rows:
            return None
        if rows[-1] - rows[0] == len(rows) - 1:  # a range indexes by a view
            return slice(rows[0], rows[-1] + 1)
        return np.array(rows, dtype=np.intp)

    u, y_s, z = (np.asarray(col[0] if runs == 1 else np.stack(col), float)
                 for col in zip(*(scheds[r].start for r in order)))
    g1, g2, gradient_offset = stack.g1, stack.g2, stack.gradient_offset
    offset = gradient_offset(y_s)
    zs, ys = [z], [y_s]
    selectors = {}  # the (g1, g2) selectors of each distinct column of maps
    for column in kinds.view(f"V{runs}")[:, 0].tolist():  # a bytes key per j
        step = selectors.get(column)
        if step is None:
            step = selectors[column] = (selector(column, 0),
                                        selector(column, 1))
        g1_rows, g2_rows = step
        if g1_rows is every:
            z = g1(z, offset)
        elif g1_rows is not None:
            z = z.copy()
            z[g1_rows] = g1(z[g1_rows], offset[g1_rows])
        if g2_rows is every:
            y_s = g2(z)[1]
            offset = gradient_offset(y_s)
            ys.append(y_s)
        elif g2_rows is not None:
            y_s = g2(z[g2_rows], g2_rows)[1]
            offset[g2_rows] = gradient_offset(y_s, g2_rows)
            ys.append(y_s)
        zs.append(z)
    zs = np.array(zs).reshape(len(zs), runs, -1)
    # rows of the u and y_s sources: the starts, then each g2's in order
    applied = kinds == 1
    us = np.concatenate([u, zs[1:][applied]], axis=None).reshape(
        -1, zs.shape[2])
    ys = np.concatenate(ys, axis=None).reshape(len(us), -1)
    source = np.zeros((len(zs), runs), dtype=np.intp)
    source[0] = np.arange(runs)
    source[1:][applied] = np.arange(runs, len(us))
    np.maximum.accumulate(source, axis=0, out=source)
    columns = [None] * runs
    for i, r in enumerate(order):
        rows = source[:lengths[i] + 1, i]
        columns[r] = us[rows], ys[rows], zs[:lengths[i] + 1, i].copy()
    return columns


def _sample_columns(starts, grids, lengths, running, timers):
    """Pass 2, without x: (offsets, times, timer columns) of every sample.

    Grid step k of every segment lies ``running[k]`` after its start, and
    its last sample at its length; a per-segment column reaches its samples
    by ``np.repeat`` over the sample counts, and each sample's grid step is
    ``np.arange(N) - np.repeat(offsets[:-1], counts)``, so no per-sample
    segment index is built. ``timers`` holds (start values,
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


def _running(longest: int, sample_dt: float) -> np.ndarray:
    """R[k] = R[k - 1] + sample_dt, grid step k's offset from a segment
    start, for k = 0..longest, and one more entry for a closing sample. A
    longer table has the same prefix."""
    running = np.zeros(max(longest, 0) + 2)
    np.cumsum(np.full(len(running) - 2, sample_dt), out=running[1:-1])
    return running


@dataclass
class Flow:
    """One run's flow maps, as ``flows`` yields them for ``simulate``.

    ``table`` holds the top block rows [e^{A i dt}, Gamma_i] of M^i,
    i = 1..k, for the one-step map over the grid step dt,
    M = [[e^{A dt}, Gamma_1], [0, I]]: a held input u takes x to
    ``table[i - 1] @ [x; u]`` after i steps (None when no segment has a
    grid step past its start). ``maps`` yields each flow segment's closing
    map (e^{A s}, Gamma(s)), s = its length - running[g], in order.
    ``held`` is the run's columns (u, y_s, z), one row per segment, from the
    one ``_held`` of its ``flows`` call (a lone run's, on its model's own
    maps, which cost it less than a stack of one row).
    """

    model: object
    schedule: Schedule
    running: np.ndarray  # ``_running`` up to the run's longest segment
    table: np.ndarray | None  # (k, n, n + m), k <= FLOW_BLOCK
    maps: Iterator
    held: tuple  # (u, y_s, z), (S, m), (S, p), (S, m)


def _power_tables(e, forced, k):
    """``Flow.table`` of each one-step map (e, forced) of a stack (runs, n,
    n) and (runs, n, m), stacked (runs, k, n, n + m), from one stacked
    product per row: row i is e @ row i - 1 plus forced on its last m
    columns. Each run's rows are those of its own recurrence, bit for bit."""
    runs, n = e.shape[:2]
    table = np.empty((runs, k, n, n + forced.shape[-1]))
    table[:, 0, :, :n], table[:, 0, :, n:] = e, forced
    for i in range(1, k):
        np.matmul(e, table[:, i - 1], out=table[:, i])
        table[:, i, :, n:] += forced
    return table


def _stacked_maps(models, owner, steps):
    """The held-input map (e, forced) of each request i, model
    ``owner[i]`` over ``steps[i]``, in order, from stacked
    ``linalg.propagator`` calls on distinct (model, step) pairs. Each call
    is as long as it can be while it holds at most FLOW_ELEMENTS elements
    of augmented matrices, counting distinct pairs, not requests, and is
    made only when its first map is reached. Between maps it holds the last
    call's maps and each call's pairs and request order."""
    n, m = models[0].b.shape
    cap = max(1, FLOW_ELEMENTS // (n + m) ** 2)
    # one id per distinct (model, step) pair, in sorted order
    order = np.lexsort((steps, owner))
    owner, steps = owner[order], steps[order]
    new = np.empty(len(order), dtype=bool)
    new[:1] = True
    np.not_equal(owner[1:], owner[:-1], out=new[1:])
    new[1:] |= steps[1:] != steps[:-1]
    key = np.empty(len(order), dtype=np.intp)
    key[order] = np.cumsum(new) - 1
    # the last request before each one with its pair, or -1
    prev = np.full(len(order), -1)
    prev[order[1:]] = np.where(new[1:], -1, order[:-1])
    pair_model, pair_step = owner[new], steps[new]
    del order, owner, steps, new
    calls, lo, fresh = [], 0, None
    while lo < len(key):
        # a call ends before the request that brings its (cap + 1)-th pair
        fresh = prev[lo:] < lo
        hi = lo + int(fresh.cumsum().searchsorted(cap, "right"))
        ids = np.sort(key[lo:hi][fresh[:hi - lo]])
        calls.append((ids, ids.searchsorted(key[lo:hi]).tolist()))
        lo = hi
    del key, prev, fresh
    a = np.stack([model.a for model in models])
    b = np.stack([model.b for model in models])
    for ids, order in calls:
        plants = pair_model[ids]
        e, forced = linalg.propagator(a[plants], b[plants], pair_step[ids])
        yield from ((e[k], forced[k]) for k in order)


def _batch_flows(batch, held):
    """``flows`` for one batch of (model, schedule) runs, which take their
    held columns from the front of the deque ``held``: the grid step of every run that needs a table comes first,
    then every run's closing steps in order, all from one
    ``_stacked_maps``."""
    grids = [sched.grids for _, sched in batch]
    longest = [int(g.max()) for g in grids]
    running = _running(max(longest), batch[0][1].sample_dt)
    closing = [sched.rows[g >= 0, 4] - running[g[g >= 0]]
               for (_, sched), g in zip(batch, grids)]
    del grids
    tabled = [r for r, k in enumerate(longest) if k > 0]
    owner = np.concatenate([tabled] + [np.full(len(c), r)
                                       for r, c in enumerate(closing)])
    steps = np.concatenate([[running[1]] * len(tabled)] + closing)
    counts = [len(c) for c in closing]
    del closing
    maps = _stacked_maps([model for model, _ in batch],
                         owner.astype(np.intp), steps)
    del owner, steps
    tables = iter(())
    if tabled:
        e, forced = (np.array(col) for col in zip(*(next(maps)
                                                     for _ in tabled)))
        tables = iter(_power_tables(e, forced, min(FLOW_BLOCK, max(longest))))
    for r, k in enumerate(longest):
        table = next(tables)[:min(FLOW_BLOCK, k)] if k > 0 else None
        run_maps = itertools.islice(maps, counts[r])
        flow = Flow(*batch[r], running[:max(k, 0) + 2], table, run_maps,
                    held.popleft())
        batch[r] = None
        yield flow
        del flow, table  # a filled run's schedule dies with its arc's fill
        collections.deque(run_maps, maxlen=0)  # skip what the run left


def flows(runs) -> Iterator[Flow]:
    """The flow maps and held columns of runs given as (model,
    ``Schedule``) pairs, of one parameter set: one ``Flow`` per run, in
    order, for ``simulate``'s ``flow=``. The runs must share the plant shape
    (n, m), ``sample_dt``, the objective and the input set (the last two
    the same objects), as a sweep's runs do (a ``Perturbation`` touches
    neither); ValueError names the field they do not share.

    The held columns come first, for every run, from one ``_held``; they
    are O(runs x jumps) numbers, so they need no batching. A lone run's
    stack is its model, so it makes one map call per jump on its own
    vectors, which costs it less than a stack of one row.

    Consecutive runs form a batch until its tables and grid steps would
    pass FLOW_ELEMENTS elements; a batch holds at least one run. A batch
    takes its grid steps and closing steps from stacked propagator calls
    (``_stacked_maps``), the first of which holds every grid step, and its
    power tables from one stacked recurrence (``_power_tables``). A run's
    closing maps are read in order, and the next run's ``Flow`` is yielded
    once they are. Every map and table row is bit for bit what the run's
    own calls give, whatever shares the stack.
    """
    runs = list(runs)
    for field, key in (
            ("plant shape (n, m)", lambda model, sched: model.b.shape),
            ("sample_dt", lambda model, sched: sched.sample_dt),
            ("objective", lambda model, sched: id(model.params.objective)),
            ("input_set", lambda model, sched: id(model.params.input_set))):
        if len({key(*run) for run in runs}) > 1:
            raise ValueError(f"the runs of one flows call must share one "
                             f"{field}")
    if not runs:
        return
    held = collections.deque(_held(*zip(*runs)))
    batches, size = [], 0
    for model, sched in runs:
        n, m = model.b.shape
        depth = min(FLOW_BLOCK, max(int(sched.rows[:, 3].max()), 0))
        need = depth * n * (n + m) + (n + m) ** 2 * (depth > 0)
        if not batches or size + need > FLOW_ELEMENTS:
            batches.append([])
            size = 0
        batches[-1].append((model, sched))
        size += need
    del runs  # each batch holds its runs until it yields them
    for i in range(len(batches)):
        batch, batches[i] = batches[i], None
        yield from _batch_flows(batch, held)


def _plant_column(flow, grids, u, offsets, x0):
    """Pass 2, x: every sample's plant state, (N, n).

    On a segment's grid x(k sample_dt) = [e^{A k sample_dt}, Gamma_k] @
    [x(0); u], row k - 1 of ``flow.table``: one batched product per block
    of at most the table's rows, each block starting where the last ended.
    The closing maps that follow give the exact step from the last grid
    point to each segment's end. Each step is ``e @ x + forced @ u``,
    ``flow_x``'s arithmetic, so x is bit for bit what per-segment
    ``flow_x`` calls give. A point segment repeats the state it starts at.
    """
    table, maps = flow.table, flow.maps
    block = 1 if table is None else len(table)
    n = len(x0)
    x = np.empty((int(offsets[-1]), n))
    state = np.empty(n + u.shape[1])  # [x; u] at a block's first step
    current = x0
    for lo, grid, held in zip(offsets.tolist(), grids.tolist(), u):
        x[lo] = current
        if grid < 0:
            continue
        state[n:] = held
        for k in range(lo, lo + grid, block):
            size = min(block, lo + grid - k)
            state[:n] = x[k]
            np.matmul(table[:size], state, out=x[k + 1:k + size + 1])
        e, forced = next(maps)
        current = e @ x[lo + grid] + forced @ held
        x[lo + grid + 1] = current
    return x


def draw_tau_c_reset(policy, rng, interval):
    """Resolve the set-valued tau_c reset via the configured policy.

    It trusts the policy's names, which ``JumpPolicy`` checks when it is
    built, and checks a fixed value against ``interval``."""
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
             sample_dt: float = 0.01, flow: Flow | None = None) -> HybridArc:
    """Run the hybrid system from zeta0 until t >= T or j >= J.

    Jump-priority semantics: whenever the state is in the jump set the jump
    map is applied (nondeterminism resolved via policy + seeded RNG);
    otherwise the state flows exactly to the next timer event. Deterministic
    for a fixed seed. J never splits a composite jump: both halves run, so
    the arc may end at j = J + 1. Raises SampleBudgetError, before any work,
    when ``sample_bound`` allows a payload over SAMPLE_BUDGET bytes, and
    ValueError for a fixed tau_c reset outside the reset interval, whether
    or not the run would reset tau_c.

    The run is ``schedule``, ``flows`` and then the fill. A ``flow`` that
    ``flows`` yielded for ``schedule(model, zeta0, policy, horizon,
    sample_dt)``, with these very arguments, skips the first two steps (and
    their checks, which the schedule made) and brings the run's held
    columns: ``robustness_sweep`` builds its runs' flows and held columns
    together and fills each arc here.
    """
    if flow is None:
        flow = next(flows([(model, schedule(model, zeta0, policy, horizon,
                                            sample_dt))]))
    elif (flow.model is not model or flow.schedule.sample_dt != sample_dt
          or flow.schedule.horizon != tuple(horizon)):
        raise ValueError("the flow was built for another run")
    sched = flow.schedule
    u, y_s, z = flow.held
    starts, tau_c0, tau_g0, _, lengths, tau_c1, tau_g1 = sched.rows.T
    grids = sched.grids
    offsets, times, (tau_c, tau_g) = _sample_columns(
        starts, grids, lengths, flow.running,
        [(tau_c0, tau_c1, model.rate_c), (tau_g0, tau_g1, model.rate_g)])
    x = _plant_column(flow, grids, u, offsets, zeta0.x)

    spacing = (model.period_g, model.period_c)
    min_dwell = min(spacing) if _aligned(model, zeta0, policy) else None
    return HybridArc(times, x, tau_c, tau_g, offsets, u, y_s, z, sched.jumps,
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
    ``arc.spacing`` apart. Violations are reported, not raised. To check
    another group-gap bound, pass ``dataclasses.replace(arc, min_dwell=...)``.
    """
    min_dwell = arc.min_dwell
    # jump j's time: the first sample of segment j + 1, which it starts
    t = arc.times[arc.offsets[1:-1]]
    # a group starts where a jump lies over EVENT_TOL after the one before
    first = np.flatnonzero(np.concatenate(
        [[len(t) > 0], ~(np.abs(np.diff(t)) <= EVENT_TOL)]))
    sizes = np.diff(np.append(first, len(t)))
    max_per_instant = int(sizes.max(initial=0))
    # the timers where each group's last jump starts its segment
    rows = arc.offsets[first + sizes]
    tau_c, tau_g = arc.tau_c[rows], arc.tau_g[rows]

    violations = []
    for k in np.flatnonzero((sizes > 2) | (tau_c <= 0.0) | (tau_g <= 0.0)):
        at = float(t[first[k]])
        if sizes[k] > 2:
            violations.append(f"{sizes[k]} jumps at t={at}")
        if tau_c[k] <= 0.0 or tau_g[k] <= 0.0:
            violations.append(
                f"nonpositive timer after jump sequence at t={at}: "
                f"tau_c={float(tau_c[k])}, tau_g={float(tau_g[k])}"
            )
    gaps = np.diff(t[first])
    min_gap, witness = None, (None, None)
    if len(gaps):
        k = int(np.argmin(gaps))
        after = int(first[k + 1])
        min_gap, witness = float(gaps[k]), (float(t[after]), after)
    if min_dwell is not None:
        for k in np.flatnonzero(gaps < min_dwell - EVENT_TOL):
            violations.append(
                f"flow gap {float(gaps[k])} after jump sequence at "
                f"t={float(t[first[k]])} shorter than {min_dwell}"
            )
    else:
        for name, least in zip(("g1", "g2"), arc.spacing):
            times = t[_applied(arc.jumps, name)]
            for k in np.flatnonzero(np.diff(times) < least - EVENT_TOL):
                t0, t1 = float(times[k]), float(times[k + 1])
                violations.append(f"{name} jumps at t={t0} and t={t1} "
                                  f"closer than {least}")
    return NonZenoReport(not violations, violations, max_per_instant, min_gap,
                         *witness, min_dwell)
