import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest

from hfo import hybrid, linalg
from hfo.hybrid import State
from hfo.model import (HybridFOModel, JumpPolicy, Perturbation, Timers,
                       strict_initial_state)
from conftest import random_params, s1_params


class TestNextEvent:
    def test_control_timer_first(self):
        assert hybrid.next_event(0.5, 2.0) == (0.5, "c")

    def test_gradient_timer_first(self):
        assert hybrid.next_event(1.0, 0.25) == (0.25, "g")

    def test_simultaneous(self):
        dt, which = hybrid.next_event(1.0, 1.0)
        assert (dt, which) == (1.0, "both")

    def test_simultaneous_within_tolerance(self):
        dt, which = hybrid.next_event(1.0, 1.0 + 5e-13)
        assert which == "both"

    def test_non_unit_rates(self):
        dt, which = hybrid.next_event(1.0, 0.4, rate_c=-0.5, rate_g=-1.0)
        assert which == "g"
        assert dt == pytest.approx(0.4)

    def test_rejects_nonnegative_rate(self):
        with pytest.raises(ValueError):
            hybrid.next_event(1.0, 1.0, rate_c=0.0)

    def test_rejects_negative_timer(self):
        with pytest.raises(ValueError):
            hybrid.next_event(-0.1, 1.0)


def simulate_s1(horizon=(3.0, 1000), sample_dt=0.01, **overrides):
    params = s1_params()
    if overrides:
        params = dataclasses.replace(params, **overrides)
    policy = JumpPolicy(tau_c_reset="min", case3_order="g1_first", seed=1)
    model = HybridFOModel(params)
    zeta0 = strict_initial_state(params)
    return hybrid.simulate(model, zeta0, policy, horizon, sample_dt), params


class TestSimulate:
    def test_s1_jump_schedule(self):
        arc, _ = simulate_s1(horizon=(1.5, 1000))
        first_period = [j for j in arc.jumps if j.t <= 1.0]
        times = [j.t for j in first_period]
        np.testing.assert_allclose(times, [0.25, 0.5, 0.75, 1.0, 1.0],
                                   atol=1e-12)
        assert [j.case for j in first_period] == [
            "G1", "G1", "G1", "G3-first-half", "G3-second-half"]
        assert [j.applied for j in first_period] == ["g1"] * 4 + ["g2"]

    def test_s1_optimizer_iterates(self):
        arc, _ = simulate_s1(horizon=(1.5, 1000))
        z_after = [float(arc.segments[j.j + 1].start.z[0])
                   for j in arc.jumps[:5]]
        np.testing.assert_allclose(z_after, [0.6, 0.96, 1.0, 1.0, 1.0],
                                   atol=1e-12)
        # input applied at the composite jump, output resampled
        post = arc.segments[arc.jumps[4].j + 1].start
        assert post.u[0] == pytest.approx(1.0)
        assert post.y_s[0] == pytest.approx(1.5)
        assert post.tau_c == pytest.approx(1.0)

    def test_misaligned_timers_give_shorter_first_period(self):
        # tau_g_comp = 0.3 fits only 3 gradient steps before tau_c expires
        from hfo.model import Timers

        arc, _ = simulate_s1(horizon=(1.2, 1000),
                             timers=Timers(1.0, 1.0, 0.3, 3))
        stats = hybrid.jump_stats(arc)
        assert stats.alpha[0] == 3

    def test_zero_horizon_is_point_arc(self):
        arc, _ = simulate_s1(horizon=(0.0, 1000))
        assert len(arc.segments) == 1
        assert arc.t_end == 0.0
        assert len(arc.jumps) == 0

    def test_jump_budget_stops_run(self):
        arc, _ = simulate_s1(horizon=(10.0, 3))
        assert len(arc.jumps) == 3
        assert arc.segments[-1].j == 3

    def test_deterministic_given_seed(self):
        params = random_params(np.random.default_rng(21))
        policy = JumpPolicy(tau_c_reset="uniform", case3_order="random", seed=5)
        model = HybridFOModel(params)
        zeta0 = strict_initial_state(params)
        arc1 = hybrid.simulate(model, zeta0, policy, (3.0, 200), 0.05)
        arc2 = hybrid.simulate(HybridFOModel(params), zeta0, policy,
                               (3.0, 200), 0.05)
        for name in ("times", "x", "tau_c", "tau_g", "offsets", "u", "y_s",
                     "z"):
            assert np.array_equal(getattr(arc1, name), getattr(arc2, name))
        assert arc1.jumps == arc2.jumps

    @pytest.mark.parametrize("policy, timers, t_max, message", [
        # both timers first expire together at 2.2 s: no composite jump
        ({"case3_order": "sideways"}, Timers(1.1, 1.1, 0.25, 4), 2.0,
         "unknown case-3 order"),
        # the first input jump is at 1 s: no tau_c reset
        ({"tau_c_reset": "bogus"}, None, 0.9, "unknown tau_c reset"),
        ({"tau_c_reset": "fixed"}, None, 0.9, "needs tau_c_value"),
        ({"tau_c_reset": "fixed", "tau_c_value": 5.0}, None, 0.9,
         "outside reset interval"),
    ], ids=["sideways-order", "bogus-reset", "fixed-without-value",
            "fixed-outside-interval"])
    def test_bad_jump_policy_rejected_whatever_the_run(self, policy, timers,
                                                       t_max, message):
        params = s1_params()
        if timers is not None:
            params = dataclasses.replace(params, timers=timers)
        with pytest.raises(ValueError, match=message):
            hybrid.simulate(HybridFOModel(params), strict_initial_state(params),
                            JumpPolicy(**policy), (t_max, 1000))

    def test_rejects_state_outside_domain(self):
        params = s1_params()
        model = HybridFOModel(params)
        bad = dataclasses.replace(strict_initial_state(params), tau_c=5.0)
        with pytest.raises(ValueError):
            hybrid.simulate(model, bad, JumpPolicy(), (1.0, 10))


def per_sample_flow(model, start, t_start, dt_flow, expired, sample_dt):
    """Oracle: the samples of one flow segment of length dt_flow from state
    ``start``, by the one-step-at-a-time recurrence: x_{k+1} = flow_x(x_k),
    each timer tau_0 + rate * elapsed snapped to zero within EVENT_TOL,
    elapsed summed one sample_dt at a time, then a closing step to the exact
    end, where the ``expired`` timers are zero."""
    rate_c, rate_g = model.rate_c, model.rate_g

    def advance(dt, expired=""):
        tau_c = start.tau_c + rate_c * dt
        tau_g = start.tau_g + rate_g * dt
        if expired in ("c", "both") or abs(tau_c) <= hybrid.EVENT_TOL:
            tau_c = 0.0
        if expired in ("g", "both") or abs(tau_g) <= hybrid.EVENT_TOL:
            tau_g = 0.0
        return max(tau_c, 0.0), max(tau_g, 0.0)

    times, xs, timers = [t_start], [start.x], [(start.tau_c, start.tau_g)]
    x, elapsed = start.x, 0.0
    for _ in range(int(np.floor(dt_flow / sample_dt - 1e-9))):
        x = model.flow_x(x, start.u, sample_dt)
        elapsed += sample_dt
        times.append(t_start + elapsed)
        xs.append(x)
        timers.append(advance(elapsed))
    xs.append(model.flow_x(x, start.u, dt_flow - elapsed))
    times.append(t_start + dt_flow)
    timers.append(advance(dt_flow, expired))
    return np.array(times), np.vstack(xs), np.array(timers)


def assert_x_close(got, want):
    """x from the stored powers against the one-step recurrence: the
    summation order differs, so they agree at rounding level, normwise."""
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def paper_g1(model, state):
    """The gradient jump as the paper writes it:
    z <- P(z - gamma (Q_u z + H' Q_y (y_s - y_hat))), tau_g <- its reset."""
    obj = model.params.objective
    grad = obj.q_u @ state.z + model.h.T @ (obj.q_y @ (state.y_s - obj.y_hat))
    return dataclasses.replace(
        state, z=model.params.input_set.project(state.z - obj.gamma * grad),
        tau_g=model.tau_g_reset)


def paper_g2(model, state, tau_c):
    """The input jump as the paper writes it: u <- z, y_s <- H z + d,
    tau_c <- the drawn reset."""
    return dataclasses.replace(state, u=state.z,
                               y_s=model.h @ state.z + model.params.plant.d,
                               tau_c=tau_c)


def paper_jump(model, state, policy, rng):
    """The full jump map, by the documented order: the expired timer's map,
    or for a composite jump both maps in ``case3_order`` (a random order
    draws ``rng.integers(2)`` first, 0 meaning g1 first), each g2 drawing
    its tau_c reset as it applies. Returns [(case, applied, state after)]."""
    c_zero = state.tau_c <= hybrid.EVENT_TOL
    g_zero = state.tau_g <= hybrid.EVENT_TOL
    if c_zero and g_zero:
        order = policy.case3_order
        if order == "random":
            order = "g1_first" if rng.integers(2) == 0 else "g2_first"
        maps = ["g1", "g2"] if order == "g1_first" else ["g2", "g1"]
        labels = ["G3-first-half", "G3-second-half"]
    else:
        maps = ["g1"] if g_zero else ["g2"]
        labels = ["G1"] if g_zero else ["G2"]
    steps = []
    for label, applied in zip(labels, maps):
        if applied == "g1":
            state = paper_g1(model, state)
        else:
            tau_c = hybrid.draw_tau_c_reset(policy, rng,
                                            (model.reset_lo, model.reset_hi))
            state = paper_g2(model, state, tau_c)
        steps.append((label, applied, state))
    return steps


def one_pass_simulate(model, zeta0, policy, horizon, sample_dt):
    """Oracle: the single-pass simulator, which flows x one sample at a time
    between events (``per_sample_flow``) and jumps with the full state by
    ``paper_jump``. Returns (jump log of (t, j, case, applied), [(times, x,
    timers) per segment], [start state per segment])."""
    t_max, j_max = horizon
    rng = np.random.default_rng(policy.seed)

    def point(state, t):
        starts.append(state)
        return (np.array([t]), state.x[None, :],
                np.array([[state.tau_c, state.tau_g]]))

    state, t, j = zeta0, 0.0, 0
    log, segments, starts = [], [], []
    while True:
        remaining = t_max - t
        if j >= j_max or remaining <= hybrid.EVENT_TOL:
            segments.append(point(state, t))
            break
        horizon_hit = False
        if min(state.tau_c, state.tau_g) <= hybrid.EVENT_TOL:
            segments.append(point(state, t))
        else:
            dt, which = hybrid.next_event(state.tau_c, state.tau_g,
                                          model.rate_c, model.rate_g)
            if dt > remaining + hybrid.EVENT_TOL:
                dt, which, horizon_hit = remaining, "", True
            times, xs, timers = per_sample_flow(model, state, t, dt, which,
                                                sample_dt)
            segments.append((times, xs, timers))
            starts.append(state)
            state = dataclasses.replace(state, x=xs[-1],
                                        tau_c=float(timers[-1, 0]),
                                        tau_g=float(timers[-1, 1]))
            t = t + dt
            if horizon_hit:
                break
        steps = paper_jump(model, state, policy, rng)
        for i, (label, applied, state) in enumerate(steps):
            log.append((t, j, label, applied))
            j += 1
            if i < len(steps) - 1:
                segments.append(point(state, t))
    return log, segments, starts


class TestColumnarSegments:
    @pytest.mark.parametrize("make", ["s1", "random_perturbed"])
    def test_columns_match_per_sample_recurrence(self, make):
        if make == "s1":
            params = s1_params()
            model = HybridFOModel(params)
            policy, sample_dt = JumpPolicy(seed=1), 0.01
        else:
            # non-unit timer rates put the segment ends off the sample grid
            params = random_params(np.random.default_rng(8), n=3)
            plant = params.plant
            pert = dataclasses.replace(Perturbation.zero(plant.n, plant.m, plant.p),
                                       kappa_c=0.1, kappa_g=-0.07)
            model = HybridFOModel(params, pert, 1.0)
            policy = JumpPolicy(tau_c_reset="uniform", seed=4)
            sample_dt = 0.013
        arc = hybrid.simulate(model, strict_initial_state(params), policy,
                              (6.0, 1000), sample_dt)
        flows = 0
        for seg in list(arc.segments)[:-1]:
            if seg.times[-1] == seg.times[0]:
                continue
            flows += 1
            start = seg.start
            dt, which = hybrid.next_event(start.tau_c, start.tau_g,
                                          model.rate_c, model.rate_g)
            times, xs, timers = per_sample_flow(model, start, seg.times[0], dt,
                                                which, sample_dt)
            assert np.array_equal(seg.times, times)
            assert_x_close(seg.x, xs)
            assert np.array_equal(seg.tau_c, timers[:, 0])
            assert np.array_equal(seg.tau_g, timers[:, 1])
        assert flows >= 10

    def test_state_accessor(self):
        arc, _ = simulate_s1(horizon=(1.5, 1000))
        seg = arc.segments[1]
        def vector(s):
            return np.concatenate([s.x, s.u, s.y_s, s.z, [s.tau_c], [s.tau_g]])

        assert isinstance(seg.start, State)
        assert np.array_equal(vector(seg.state(0)), vector(seg.start))
        rows = np.vstack([vector(seg.state(k)) for k in range(len(seg.times))])
        held = np.broadcast_to(arc.held()[1], (len(seg.times), 3))
        assert np.array_equal(rows, np.column_stack(
            [seg.x, held, seg.tau_c, seg.tau_g]))
        last = seg.state(-1)
        assert last.tau_g == seg.tau_g[-1] == 0.0
        assert isinstance(last.tau_c, float)
        assert np.array_equal(last.u, seg.start.u)


class TestTwoPasses:
    """simulate's x-free event pass and bulk plant pass against the
    single-pass oracle."""

    @staticmethod
    def assert_same_as_one_pass(model, zeta0, policy, horizon, sample_dt):
        arc = hybrid.simulate(model, zeta0, policy, horizon, sample_dt)
        log, segments, starts = one_pass_simulate(model, zeta0, policy,
                                                  horizon, sample_dt)
        assert [(r.t, r.j, r.case, r.applied) for r in arc.jumps] == log
        for name in ("u", "y_s", "z"):
            assert np.array_equal(getattr(arc, name),
                                  np.array([getattr(s, name) for s in starts]))
        assert [len(seg.times) for seg in arc.segments] == [
            len(times) for times, _, _ in segments]
        times, xs, timers = (np.concatenate(col) for col in zip(*segments))
        assert np.array_equal(arc.times, times)
        assert np.array_equal(arc.tau_c, timers[:, 0])
        assert np.array_equal(arc.tau_g, timers[:, 1])
        assert_x_close(arc.x, xs)
        return arc

    @pytest.mark.parametrize("case", ["s1", "n3-perturbed", "n20",
                                      "s1-start-in-jump-set", "s1-coarse",
                                      "s1-g2-first"])
    def test_jump_log_and_counts_match_one_pass(self, case):
        if case.startswith("s1"):
            params = s1_params()
            model = HybridFOModel(params)
            order = "g2_first" if case == "s1-g2-first" else "g1_first"
            policy = JumpPolicy(case3_order=order, seed=1)
            # 0.3 s between samples: no flow has a grid step past its start
            sample_dt = 0.3 if case == "s1-coarse" else 0.01
        elif case == "n3-perturbed":
            params = random_params(np.random.default_rng(8), n=3)
            plant = params.plant
            pert = dataclasses.replace(Perturbation.zero(plant.n, plant.m, plant.p),
                                       kappa_c=0.1, kappa_g=-0.07)
            model = HybridFOModel(params, pert, 1.0)
            policy, sample_dt = JumpPolicy(tau_c_reset="uniform", seed=4), 0.013
        else:
            params = random_params(np.random.default_rng(17), n=20)
            model = HybridFOModel(params)
            policy = JumpPolicy(tau_c_reset="uniform", case3_order="random",
                                seed=3)
            sample_dt = 0.02
        zeta0 = strict_initial_state(params)
        if case == "s1-start-in-jump-set":
            # both timers within EVENT_TOL of zero: the point segment stores
            # them as they are, unsnapped
            zeta0 = dataclasses.replace(zeta0, tau_c=-4e-13, tau_g=5e-13)
        arc = self.assert_same_as_one_pass(model, zeta0, policy, (6.0, 1000),
                                           sample_dt)
        assert len(arc.jumps) >= 20

    def test_segment_longer_than_block(self):
        # a 1.5 s gradient period has 149 grid steps of 0.01 s, so the
        # power table's blocks chain
        params = dataclasses.replace(s1_params(),
                                     timers=Timers(3.0, 3.0, 1.5, 2))
        arc = self.assert_same_as_one_pass(
            HybridFOModel(params), strict_initial_state(params),
            JumpPolicy(seed=1), (10.0, 1000), 0.01)
        assert max(len(seg.times) for seg in arc.segments) - 2 > hybrid.FLOW_BLOCK

    def test_segments_are_views(self):
        arc, _ = simulate_s1(horizon=(3.0, 1000))
        for seg in arc.segments:
            for name in ("times", "x", "tau_c", "tau_g"):
                assert np.shares_memory(getattr(seg, name), getattr(arc, name))

    def test_s1_sample_count(self):
        arc, _ = simulate_s1(horizon=(100.0, 1000))
        assert len(arc.times) == 10501
        assert sum(len(seg.times) for seg in arc.segments) == 10501
        assert len(arc.segments) == 501


def propagator_calls(monkeypatch) -> list:
    """The durations of every ``linalg.propagator`` call from now on."""
    calls = []
    original = linalg.propagator

    def counted(a, b, dt):
        calls.append(dt)
        return original(a, b, dt)

    monkeypatch.setattr(linalg, "propagator", counted)
    return calls


def s1_perturbed_model(delta=0.1):
    pert = Perturbation(np.array([[0.05]]), np.array([[0.02]]),
                        np.array([[0.02]]), kappa_c=0.1, kappa_g=0.05,
                        theta_g_comp=0.02, theta_c_min=0.02, theta_c_max=0.02)
    return HybridFOModel(s1_params(), pert, delta)


class TestStatelessModel:
    """A model is a plain value: a run builds the flow maps it needs."""

    @staticmethod
    def attributes(model) -> dict:
        return {name: value.tobytes() if isinstance(value, np.ndarray)
                else copy.copy(value) for name, value in vars(model).items()}

    def test_runs_leave_the_model_as_built(self):
        model = s1_perturbed_model()
        params = model.params
        zeta0 = strict_initial_state(params)
        before = self.attributes(model)
        arcs = [hybrid.simulate(model, zeta0, JumpPolicy(seed=1), (30.0, 31))
                for _ in range(2)]
        assert self.attributes(model) == before
        first, second = arcs
        for name in ("times", "x", "tau_c", "tau_g", "offsets", "u", "y_s",
                     "z"):
            assert np.array_equal(getattr(first, name), getattr(second, name))
        assert first.jumps == second.jumps

    def test_perturbed_run_stacks_its_closing_steps(self, monkeypatch):
        # the sweep's horizon at tau = 30: every closing length differs
        # from the grid step, and all 31 flow segments share one call
        model = s1_perturbed_model()
        calls = propagator_calls(monkeypatch)
        arc = hybrid.simulate(model, strict_initial_state(model.params),
                              JumpPolicy(seed=1), (30.0, 31))
        assert len(calls) <= 2
        assert sum(np.size(dt) for dt in calls) > 2
        assert len(arc.jumps) >= 31

    def test_no_flow_segment_no_closing_call(self, monkeypatch):
        model = s1_perturbed_model()
        calls = propagator_calls(monkeypatch)
        arc = hybrid.simulate(model, strict_initial_state(model.params),
                              JumpPolicy(seed=1), (0.0, 31))
        assert calls == []
        assert len(arc.times) == 1

    def test_closing_maps_held_per_block(self, monkeypatch):
        # 493 flow segments over T = 100 s: one closing call per FLOW_BLOCK
        # of them, none holding more than FLOW_BLOCK maps
        model = s1_perturbed_model()
        calls = propagator_calls(monkeypatch)
        arc = hybrid.simulate(model, strict_initial_state(model.params),
                              JumpPolicy(seed=1), (100.0, 10 ** 6))
        flows = sum(len(seg.times) > 1 for seg in arc.segments)
        closing = [dt for dt in calls if np.ndim(dt) == 1]
        assert len(closing) == -(-flows // hybrid.FLOW_BLOCK) > 1
        assert max(len(dt) for dt in closing) <= hybrid.FLOW_BLOCK

    def test_closing_step_is_flow_x_bit_for_bit(self):
        model = s1_perturbed_model()
        zeta0, policy = strict_initial_state(model.params), JumpPolicy(seed=1)
        arc = hybrid.simulate(model, zeta0, policy, (30.0, 31))
        rows, _ = hybrid._skeleton(model, zeta0, policy, (30.0, 31), 0.01)
        for seg, row in zip(arc.segments, rows):
            _, _, _, grid, length, _, _, u, _, _ = row
            if grid < 0:
                continue
            running = np.concatenate([[0.0], np.cumsum(np.full(grid, 0.01))])
            want = model.flow_x(seg.x[-2], u, length - float(running[-1]))
            assert np.array_equal(seg.x[-1], want)


class TestSampleBudget:
    def test_jump_budget_bounds_a_long_horizon(self):
        # S1 with T = 1e9 s and its shipped J = 1000: J ends the run near
        # t = 200 s, and the bound allows 1002 gradient periods, 250.5 s
        params = s1_params()
        model = HybridFOModel(params)
        bound = hybrid.sample_bound(model, (1e9, 1000), 0.01)
        assert bound == pytest.approx(250.5 / 0.01 + 2 * 1003)
        arc = hybrid.simulate(model, strict_initial_state(params),
                              JumpPolicy(seed=1), (1e9, 1000), 0.01)
        assert arc.t_end == pytest.approx(200.0)
        assert len(arc.times) <= bound

    def test_time_budget_bounds_a_large_j(self):
        model = HybridFOModel(s1_params())
        bound = hybrid.sample_bound(model, (1e9, 10 ** 12), 0.01)
        # 4 gradient and 1 input jump per second
        assert bound == pytest.approx(1e9 / 0.01 + 2 * (5e9 + 4))

    def test_runaway_horizon_refused_before_any_work(self):
        params = s1_params()
        with pytest.raises(hybrid.SampleBudgetError, match="GiB"):
            hybrid.simulate(HybridFOModel(params), strict_initial_state(params),
                            JumpPolicy(seed=1), (1e9, 10 ** 12), 0.01)


class TestSimulateMemory:
    @pytest.mark.parametrize("t_max", [100.0, 1000.0])
    def test_peak_near_the_retained_arc(self, t_max):
        # pass 2 keeps no per-sample segment index: its peak over the arc
        # it returns is a few sample columns (S1: times, x and two timers)
        params = s1_params()
        model, zeta0 = HybridFOModel(params), strict_initial_state(params)
        policy = JumpPolicy(seed=1)
        hybrid.simulate(model, zeta0, policy, (1.0, 10 ** 6), 0.01)  # warm up
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            arc = hybrid.simulate(model, zeta0, policy, (t_max, 10 ** 6), 0.01)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(arc.times) > 100 * t_max
        assert peak - before <= 1.65 * (retained - before)


class TestArcInvariant:
    """Segment k is the flow at jump index k and ends at jump k; the result
    of jump k starts segment k + 1."""

    @staticmethod
    def assert_invariant(arc):
        assert len(arc.segments) == len(arc.jumps) + 1
        for k, rec in enumerate(arc.jumps):
            assert arc.segments[k].j == rec.j == k
            before, after = arc.segments[k], arc.segments[k + 1]
            assert rec.t == before.times[-1] == after.times[0]
        assert arc.segments[-1].j == len(arc.jumps)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("reset", ["min", "uniform"])
    @pytest.mark.parametrize("order", ["g1_first", "g2_first", "random"])
    def test_segment_k_ends_at_jump_k(self, n, reset, order):
        rng = np.random.default_rng(100 + n)
        params = random_params(rng, aligned_timers=True, n=n)
        policy = JumpPolicy(tau_c_reset=reset, case3_order=order, seed=n)
        strict = strict_initial_state(params)
        starts = [strict,
                  dataclasses.replace(strict, tau_g=0.0),  # in the jump set
                  dataclasses.replace(strict, tau_c=0.0, tau_g=0.0)]
        rates = dataclasses.replace(Perturbation.zero(n, params.plant.m,
                                                      params.plant.p),
                                    kappa_c=1.0 - rng.uniform(0.8, 1.2),
                                    kappa_g=1.0 - rng.uniform(0.8, 1.2))
        models = [HybridFOModel(params), HybridFOModel(params, rates, 1.0)]
        composite = False
        for model in models:
            for zeta0 in starts:
                for j_max in (0, 1, 2, 3, 4, 5, 1000):
                    arc = hybrid.simulate(model, zeta0, policy,
                                          (3.0, j_max), 0.05)
                    self.assert_invariant(arc)
                    assert j_max <= len(arc.jumps) <= j_max + 1 or (
                        arc.t_end == 3.0 and len(arc.jumps) < j_max)
                    composite |= any(r.case == "G3-second-half"
                                     for r in arc.jumps)
        assert composite

    @pytest.mark.parametrize("j_max", [4, 9])
    def test_budget_inside_composite_jump_leaves_no_hole(self, j_max):
        # S1 jumps 3 and 4 are the halves of the composite jump at t = 1
        # (8 and 9 at t = 2): the budget never splits them
        arc, _ = simulate_s1(horizon=(30.0, j_max))
        self.assert_invariant(arc)
        assert [seg.j for seg in arc.segments] == list(range(j_max + 2))
        assert arc.jumps[-1].case == "G3-second-half"


class TestDrawTauCReset:
    def test_min_max(self):
        rng = np.random.default_rng(0)
        policy = JumpPolicy(tau_c_reset="min")
        assert hybrid.draw_tau_c_reset(policy, rng, (0.5, 1.0)) == 0.5
        policy = JumpPolicy(tau_c_reset="max")
        assert hybrid.draw_tau_c_reset(policy, rng, (0.5, 1.0)) == 1.0

    def test_fixed_in_range(self):
        rng = np.random.default_rng(0)
        policy = JumpPolicy(tau_c_reset="fixed", tau_c_value=0.7)
        assert hybrid.draw_tau_c_reset(policy, rng, (0.5, 1.0)) == 0.7

    def test_fixed_out_of_range(self):
        rng = np.random.default_rng(0)
        policy = JumpPolicy(tau_c_reset="fixed", tau_c_value=0.2)
        with pytest.raises(ValueError):
            hybrid.draw_tau_c_reset(policy, rng, (0.5, 1.0))

    def test_uniform_stays_in_interval(self):
        rng = np.random.default_rng(0)
        policy = JumpPolicy(tau_c_reset="uniform")
        draws = [hybrid.draw_tau_c_reset(policy, rng, (0.5, 1.0))
                 for _ in range(100)]
        assert all(0.5 <= v <= 1.0 for v in draws)


class TestJumpStats:
    def test_s1_two_periods(self):
        arc, _ = simulate_s1(horizon=(2.5, 1000))
        stats = hybrid.jump_stats(arc)
        assert stats.alpha == [4, 4]
        assert stats.alpha_bar == [0, 4, 8]

    def test_empty_arc(self):
        arc, _ = simulate_s1(horizon=(0.0, 1000))
        stats = hybrid.jump_stats(arc)
        assert stats.alpha == []
        assert stats.alpha_bar == [0]

    def test_unknown_map_rejected(self):
        arc, _ = simulate_s1(horizon=(1.5, 1000))
        arc.jumps[0].applied = "g3"
        with pytest.raises(ValueError):
            hybrid.jump_stats(arc)


def walked_periods(arc):
    """Oracle: input periods from a walk of the jump log, a g2 jump at
    index j closing the period that ends with segment j."""
    periods, first = [], 0
    for rec in arc.jumps:
        if rec.applied == "g2":
            periods.append((first, rec.j + 1))
            first = rec.j + 1
    return periods + [(first, len(arc.segments))]


def s1_run(policy, timers=None):
    params = s1_params()
    if timers is not None:
        params = dataclasses.replace(params, timers=timers)
    return hybrid.simulate(HybridFOModel(params), strict_initial_state(params),
                           policy, (8.0, 1000))


def perturbed_n3_arc():
    rng = np.random.default_rng(41)
    params = random_params(rng, n=3)
    n, m, p = params.plant.n, params.plant.m, params.plant.p
    pert = Perturbation(rng.standard_normal((n, n)),
                        rng.standard_normal((n, m)),
                        rng.standard_normal((p, m)), kappa_c=0.1,
                        kappa_g=-0.05, theta_c_min=0.02, theta_c_max=0.03)
    model = HybridFOModel(params, pert, 0.1)
    return hybrid.simulate(model, strict_initial_state(params),
                           JumpPolicy(seed=2), (6.0, 1000))


class TestPeriods:
    @pytest.mark.parametrize("arc_of", [
        lambda: s1_run(JumpPolicy(seed=1)),
        lambda: s1_run(JumpPolicy(case3_order="g2_first", seed=1)),
        lambda: s1_run(JumpPolicy(tau_c_reset="uniform", case3_order="random",
                                  seed=3), Timers(1.0, 1.5, 0.25, 4)),
        perturbed_n3_arc,
    ], ids=["g1-first", "g2-first", "random-uniform", "perturbed-n3"])
    def test_matches_jump_log_walk(self, arc_of):
        arc = arc_of()
        periods = arc.periods()
        assert periods == walked_periods(arc)
        assert len(periods) >= 4
        assert periods[0][0] == 0 and periods[-1][1] == len(arc.segments)
        for (_, end), (first, _) in zip(periods, periods[1:]):
            assert first == end
            assert arc.jumps[end - 1].applied == "g2"
        for first, end in periods:
            inside = arc.jumps[first:end - 1]
            assert all(rec.applied == "g1" for rec in inside)
        assert hybrid.jump_stats(arc).alpha == [
            end - first - 1 for first, end in periods[:-1]]

    def test_unknown_map_rejected(self):
        arc, _ = simulate_s1(horizon=(1.5, 1000))
        arc.jumps[2].applied = "g3"
        with pytest.raises(ValueError, match="unknown map 'g3'"):
            arc.periods()


class TestCheckNonZeno:
    def test_s1_passes(self):
        arc, _ = simulate_s1(horizon=(3.0, 1000))
        report = hybrid.check_non_zeno(arc)
        assert report.passed
        assert report.max_jumps_per_instant == 2
        assert report.min_flow_gap == pytest.approx(0.25)

    def test_dwell_threshold_violation(self):
        arc, _ = simulate_s1(horizon=(3.0, 1000))
        report = hybrid.check_non_zeno(dataclasses.replace(arc, min_dwell=10.0))
        assert not report.passed
        assert any("flow gap" in v for v in report.violations)

    def test_misaligned_run_checks_per_timer_spacing(self):
        # input jumps every 1.1 s, gradient jumps every 0.25 s: groups come
        # 0.05 s apart, but jumps of one kind never closer than their period
        from hfo.model import Timers

        arc, _ = simulate_s1(horizon=(6.0, 1000),
                             timers=Timers(1.1, 1.1, 0.25, 4))
        assert arc.min_dwell is None
        assert arc.spacing == pytest.approx((0.25, 1.1))
        report = hybrid.check_non_zeno(arc)
        assert report.passed, report.violations
        assert report.min_flow_gap == pytest.approx(0.05)
        assert report.min_dwell is None
        tight = dataclasses.replace(arc, spacing=(0.25, 1.2))
        violations = hybrid.check_non_zeno(tight).violations
        assert violations and all(v.startswith("g2 jumps")
                                  for v in violations)

    @pytest.mark.parametrize("change", ["rates", "uniform", "start"])
    def test_group_gap_bound_needs_aligned_resets(self, change):
        params = s1_params()
        model = HybridFOModel(params)
        policy = JumpPolicy(seed=1)
        zeta0 = strict_initial_state(params)
        arc = hybrid.simulate(model, zeta0, policy, (3.0, 1000))
        assert arc.min_dwell == 0.25
        if change == "rates":
            pert = dataclasses.replace(Perturbation.zero(1, 1, 1), kappa_c=0.1)
            model = HybridFOModel(params, pert, 0.5)
        elif change == "uniform":
            model = HybridFOModel(dataclasses.replace(
                params, timers=dataclasses.replace(params.timers,
                                                   tau_c_max=1.5)))
            policy = JumpPolicy(tau_c_reset="uniform", seed=1)
        else:
            zeta0 = dataclasses.replace(zeta0, tau_c=0.9)
        arc = hybrid.simulate(model, zeta0, policy, (3.0, 1000))
        assert arc.min_dwell is None
        assert hybrid.check_non_zeno(arc).passed

    def test_broken_jump_map_detected(self):
        params = s1_params()

        class BrokenModel(HybridFOModel):
            def g1(self, z, y_s):
                # leaves the gradient timer expired: immediate re-jump
                return super().g1(z, y_s)[0], 0.0

        model = BrokenModel(params)
        zeta0 = strict_initial_state(params)
        arc = hybrid.simulate(model, zeta0, JumpPolicy(seed=1), (2.0, 8), 0.01)
        report = hybrid.check_non_zeno(arc)
        assert not report.passed
        assert report.max_jumps_per_instant > 2
        assert any("nonpositive timer" in v for v in report.violations)
