"""Generic execution of timer-driven hybrid systems.

A model object supplies the flow and jump behavior (see
``model.HybridFOModel`` for the concrete interface); this module owns hybrid
time bookkeeping, exact event scheduling for affinely decreasing timers,
jump-priority semantics, and the resulting solution arcs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

# Two timer events within this many seconds count as simultaneous.
EVENT_TOL = 1e-12


@dataclass
class JumpRecord:
    t: float  # jump j ends segments[j] and starts segments[j + 1]
    j: int
    case: str  # "G1", "G2", "G3-first-half", "G3-second-half"
    applied: str  # which map fired: "g1" or "g2"


@dataclass
class JumpStats:
    alpha: list  # gradient jumps per completed input period
    alpha_bar: list  # prefix sums, alpha_bar[0] == 0


@dataclass
class Segment:
    """One flow interval of a hybrid arc, at fixed jump index j, stored as
    columns: sample k is at time ``times[k]`` with plant state ``x[k]`` and
    timers ``tau_c[k]``, ``tau_g[k]``. The components that stay constant
    along a flow (u, y_s, z) live once, in the start state."""

    j: int
    t_start: float
    t_end: float
    times: np.ndarray  # (k,)
    x: np.ndarray  # (k, n)
    tau_c: np.ndarray  # (k,)
    tau_g: np.ndarray  # (k,)
    start: object  # the state at t_start

    def state(self, k: int):
        """The full state of sample k (negative k counts from the end)."""
        return dataclasses.replace(self.start, x=self.x[k],
                                   tau_c=float(self.tau_c[k]),
                                   tau_g=float(self.tau_g[k]))

    def matrix(self) -> np.ndarray:
        """Rows of [x, u, y_s, z, tau_c, tau_g], one per sample."""
        k = len(self.times)
        s = self.start
        const = np.concatenate([s.u, s.y_s, s.z])
        return np.column_stack([self.x, np.broadcast_to(const, (k, len(const))),
                                self.tau_c, self.tau_g])


@dataclass
class HybridArc:
    """A hybrid solution: ``segments[j]`` flows at jump index j and ends at
    ``jumps[j]``, so there is one segment more than there are jumps."""

    segments: list
    jumps: list
    min_dwell: float | None = None  # least gap between jump groups, if known
    spacing: tuple | None = None  # least time between g1 jumps, between g2 jumps

    @property
    def t_end(self) -> float:
        return self.segments[-1].t_end


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


def _timer_column(tau0, rate, elapsed, expires):
    """One timer at every entry of ``elapsed``: decreased affinely from
    ``tau0``, snapped to zero within EVENT_TOL, zeroed on the last entry if
    it expires at the segment's closing event, and clipped at zero."""
    tau = tau0 + rate * elapsed
    tau[np.abs(tau) <= EVENT_TOL] = 0.0
    if expires:
        tau[-1] = 0.0
    return np.maximum(tau, 0.0)


def _point_segment(state, t, j):
    return Segment(j, t, t, np.array([t]), state.x[None, :].copy(),
                   np.array([state.tau_c]), np.array([state.tau_g]), state)


def _flow_segment(model, state, t, j, t_max, sample_dt):
    """Flow from (t, j) until the next timer event or t_max.

    Returns (segment, end_state, end_time, horizon_hit).
    """
    rate_c, rate_g = model.rate_c, model.rate_g
    remaining = t_max - t
    if remaining <= EVENT_TOL:
        return _point_segment(state, t, j), state, t, True
    if model.which_case(state) is not None:
        return _point_segment(state, t, j), state, t, False

    dt_event, which = next_event(state.tau_c, state.tau_g, rate_c, rate_g)
    if dt_event <= remaining + EVENT_TOL:
        dt_flow, expired, horizon_hit = dt_event, which, False
    else:
        dt_flow, expired, horizon_hit = remaining, "", True

    # samples 0..n_grid on the sample_dt grid, then the exact segment end;
    # cumsum adds sample_dt one step at a time, like a running total
    n_grid = int(np.floor(dt_flow / sample_dt - 1e-9))
    elapsed = np.empty(n_grid + 2)
    elapsed[0] = 0.0
    np.cumsum(np.full(n_grid, sample_dt), out=elapsed[1:-1])
    elapsed[-1] = dt_flow
    x = np.empty((n_grid + 2, len(state.x)))
    x[0] = state.x
    for k in range(1, n_grid + 1):
        x[k] = model.flow_x(x[k - 1], state.u, sample_dt)
    # closing partial step to the exact segment end
    x_end = model.flow_x(x[n_grid], state.u, dt_flow - float(elapsed[n_grid]))
    x[-1] = x_end
    tau_c = _timer_column(state.tau_c, rate_c, elapsed, expired in ("c", "both"))
    tau_g = _timer_column(state.tau_g, rate_g, elapsed, expired in ("g", "both"))
    end_state = dataclasses.replace(state, x=x_end, tau_c=float(tau_c[-1]),
                                    tau_g=float(tau_g[-1]))
    t_end = t + dt_flow

    if not model.contains(end_state):
        raise RuntimeError(
            f"state left the flow/jump domain at t={t_end} (model bug): {end_state}"
        )
    seg = Segment(j, t, t_end, t + elapsed, x, tau_c, tau_g, state)
    return seg, end_state, t_end, horizon_hit


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
    the arc may end at j = J + 1.
    """
    t_max, j_max = horizon
    if sample_dt <= 0:
        raise ValueError("sample_dt must be positive")
    if not model.contains(zeta0):
        raise ValueError("initial state outside the flow and jump sets")
    rng = np.random.default_rng(policy.seed)

    state, t, j = zeta0, 0.0, 0
    segments: list[Segment] = []
    jumps: list[JumpRecord] = []
    while True:
        if j >= j_max:
            segments.append(_point_segment(state, t, j))
            break
        seg, state, t, horizon_hit = _flow_segment(model, state, t, j, t_max, sample_dt)
        segments.append(seg)
        if horizon_hit:
            break
        steps = _resolve_jump(model, state, policy, rng)
        for i, (label, applied, state) in enumerate(steps):
            jumps.append(JumpRecord(t, j, label, applied))
            j += 1
            if i < len(steps) - 1:
                segments.append(_point_segment(state, t, j))

    spacing = (model.tau_g_reset / -model.rate_g, model.reset_lo / -model.rate_c)
    min_dwell = model.min_dwell() if _aligned(model, zeta0, policy) else None
    return HybridArc(segments, jumps, min_dwell, spacing)


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
        last = arc.segments[g[-1].j + 1].start
        if last.tau_c <= 0.0 or last.tau_g <= 0.0:
            violations.append(
                f"nonpositive timer after jump sequence at t={g[0].t}: "
                f"tau_c={last.tau_c}, tau_g={last.tau_g}"
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
