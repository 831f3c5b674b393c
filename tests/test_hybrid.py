import dataclasses

import numpy as np
import pytest

from hfo import hybrid
from hfo.model import HybridFOModel, JumpPolicy, Perturbation, strict_initial_state
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
        assert len(arc1.segments) == len(arc2.segments)
        for a, b in zip(arc1.segments, arc2.segments):
            assert np.array_equal(a.matrix(), b.matrix())

    def test_rejects_state_outside_domain(self):
        params = s1_params()
        model = HybridFOModel(params)
        bad = dataclasses.replace(strict_initial_state(params), tau_c=5.0)
        with pytest.raises(ValueError):
            hybrid.simulate(model, bad, JumpPolicy(), (1.0, 10))


def per_sample_flow(model, seg, sample_dt):
    """Oracle: the samples of one flow segment that ends at a timer event,
    from the one-step-at-a-time recurrence: x_{k+1} = flow_x(x_k), each timer
    tau_0 + rate * elapsed snapped to zero within EVENT_TOL, elapsed summed
    one sample_dt at a time, then a closing step to the exact event."""
    rate_c, rate_g = model.rate_c, model.rate_g

    def advance(start, dt, expired=""):
        tau_c = start.tau_c + rate_c * dt
        tau_g = start.tau_g + rate_g * dt
        if expired in ("c", "both") or abs(tau_c) <= hybrid.EVENT_TOL:
            tau_c = 0.0
        if expired in ("g", "both") or abs(tau_g) <= hybrid.EVENT_TOL:
            tau_g = 0.0
        return max(tau_c, 0.0), max(tau_g, 0.0)

    start = seg.start
    dt_flow, expired = hybrid.next_event(start.tau_c, start.tau_g,
                                         rate_c, rate_g)
    times, xs, timers = [seg.t_start], [start.x], [(start.tau_c, start.tau_g)]
    x, elapsed = start.x, 0.0
    for _ in range(int(np.floor(dt_flow / sample_dt - 1e-9))):
        x = model.flow_x(x, start.u, sample_dt)
        elapsed += sample_dt
        times.append(seg.t_start + elapsed)
        xs.append(x)
        timers.append(advance(start, elapsed))
    xs.append(model.flow_x(x, start.u, dt_flow - elapsed))
    times.append(seg.t_start + dt_flow)
    timers.append(advance(start, dt_flow, expired))
    return np.array(times), np.vstack(xs), np.array(timers)


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
        for seg in arc.segments[:-1]:
            if seg.t_end == seg.t_start:
                continue
            flows += 1
            times, xs, timers = per_sample_flow(model, seg, sample_dt)
            assert np.array_equal(seg.times, times)
            assert np.array_equal(seg.x, xs)
            assert np.array_equal(seg.tau_c, timers[:, 0])
            assert np.array_equal(seg.tau_g, timers[:, 1])
        assert flows >= 10

    def test_state_accessor_and_matrix(self):
        arc, _ = simulate_s1(horizon=(1.5, 1000))
        seg = arc.segments[1]
        def vector(s):
            return np.concatenate([s.x, s.u, s.y_s, s.z, [s.tau_c], [s.tau_g]])

        assert np.array_equal(vector(seg.state(0)), vector(seg.start))
        rows = np.vstack([vector(seg.state(k)) for k in range(len(seg.times))])
        assert np.array_equal(seg.matrix(), rows)
        last = seg.state(-1)
        assert last.tau_g == seg.tau_g[-1] == 0.0
        assert isinstance(last.tau_c, float)
        assert np.array_equal(last.u, seg.start.u)


class TestArcInvariant:
    """Segment k is the flow at jump index k and ends at jump k; the result
    of jump k starts segment k + 1."""

    @staticmethod
    def assert_invariant(arc):
        assert len(arc.segments) == len(arc.jumps) + 1
        for k, rec in enumerate(arc.jumps):
            assert arc.segments[k].j == rec.j == k
            assert rec.t == arc.segments[k].t_end == arc.segments[k + 1].t_start
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


class TestCheckNonZeno:
    def test_s1_passes(self):
        arc, _ = simulate_s1(horizon=(3.0, 1000))
        report = hybrid.check_non_zeno(arc)
        assert report.passed
        assert report.max_jumps_per_instant == 2
        assert report.min_flow_gap == pytest.approx(0.25)

    def test_dwell_threshold_violation(self):
        arc, _ = simulate_s1(horizon=(3.0, 1000))
        report = hybrid.check_non_zeno(arc, min_dwell=10.0)
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
            def g1(self, state):
                # leaves the gradient timer expired: immediate re-jump
                return dataclasses.replace(super().g1(state), tau_g=0.0)

        model = BrokenModel(params)
        zeta0 = strict_initial_state(params)
        arc = hybrid.simulate(model, zeta0, JumpPolicy(seed=1), (2.0, 8), 0.01)
        report = hybrid.check_non_zeno(arc)
        assert not report.passed
        assert report.max_jumps_per_instant > 2
        assert any("nonpositive timer" in v for v in report.violations)
