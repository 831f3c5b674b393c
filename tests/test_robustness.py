import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hfo import hybrid, linalg, robustness
from hfo.model import (HybridFOModel, JumpPolicy, Perturbation, make_state,
                       strict_initial_state)
from hfo.robustness import closeness, iota_magnitude, robustness_sweep
from conftest import jump_log, random_params, s1_params, segment_rows


def s1_perturbation():
    return Perturbation(
        a_hat=np.array([[0.05]]),
        b_hat=np.array([[0.02]]),
        h_hat=np.array([[0.02]]),
        kappa_c=0.1,
        kappa_g=0.05,
        theta_g_comp=0.02,
        theta_c_min=0.02,
        theta_c_max=0.02,
    )


def sample_rows(seg):
    """Rows of [x, u, y_s, z, tau_c, tau_g], one per sample of ``seg``."""
    arc, rows = seg.arc, seg.rows
    held = arc.held()[seg.j]
    return np.column_stack([arc.x[rows], np.broadcast_to(held, (len(seg.times),
                                                               len(held))),
                            arc.tau_c[rows], arc.tau_g[rows]])


def per_sample_closeness(arc1, arc2, tau):
    """Oracle: (epsilon, witness) from a per-sample scan of both arcs."""
    def directional(arc_a, arc_b, side):
        index_b = {seg.j: (seg.times, sample_rows(seg))
                   for seg in arc_b.segments}
        worst, witness = 0.0, (side, 0.0, 0)
        for seg in arc_a.segments:
            entry = index_b.get(seg.j)
            mat_a = sample_rows(seg)
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

    e1, w1 = directional(arc1, arc2, 1)
    e2, w2 = directional(arc2, arc1, 2)
    return (e1, w1) if e1 >= e2 else (e2, w2)


def random_perturbation(rng, n, m, p, scale=0.05):
    return Perturbation(
        a_hat=scale * rng.standard_normal((n, n)),
        b_hat=scale * rng.standard_normal((n, m)),
        h_hat=scale * rng.standard_normal((p, m)),
        kappa_c=0.05, kappa_g=0.03, theta_g_comp=0.01,
        theta_c_min=0.01, theta_c_max=0.02,
    )


def scaled_fields(params, pert, delta):
    """Oracle: the perturbed model's fields, each nominal value plus delta
    times its perturbation component in the same floating-point order, with
    H from its own solve; delta = 0 gives the nominal fields unchanged."""
    plant, tm = params.plant, params.timers
    h = -plant.c_out @ linalg.solve(plant.a, plant.b)
    if delta == 0.0:
        return {"a": plant.a, "b": plant.b, "h": h, "rate_c": -1.0,
                "rate_g": -1.0, "tau_g_reset": tm.tau_g_comp,
                "reset_lo": tm.tau_c_min, "reset_hi": tm.tau_c_max}
    kappa_c = delta * pert.kappa_c
    kappa_g = delta * pert.kappa_g
    return {"a": plant.a + delta * pert.a_hat,
            "b": plant.b + delta * pert.b_hat,
            "h": h + delta * pert.h_hat,
            "rate_c": -1.0 + kappa_c,
            "rate_g": -1.0 + kappa_g,
            "tau_g_reset": tm.tau_g_comp + delta * pert.theta_g_comp,
            "reset_lo": tm.tau_c_min + delta * pert.theta_c_min,
            "reset_hi": tm.tau_c_max + delta * pert.theta_c_max}


def sweep_by_runs(params, pert, deltas, tau, policy, zeta0, sample_dt=0.01):
    """Oracle: ``robustness_sweep`` from one lone ``hybrid.simulate`` call
    per run, each building its own flow maps, and ``closeness``."""
    horizon = (float(tau), math.floor(tau + hybrid.EVENT_TOL) + 1)
    nominal = hybrid.simulate(HybridFOModel(params), zeta0, policy, horizon,
                              sample_dt)
    rows = []
    for delta in deltas:
        model = HybridFOModel(params, pert, delta)
        arc = hybrid.simulate(model, robustness._start(model, zeta0),
                              robustness._clipped(model, policy), horizon,
                              sample_dt)
        result = closeness(nominal, arc, tau)
        side, t, j = result.witness
        rows.append(robustness.SweepRow(float(delta), result.epsilon, t, j,
                                        side, result.truncated))
    ordered = sorted(rows, key=lambda row: row.delta, reverse=True)
    return robustness.SweepResult(rows, float(tau), all(
        a.epsilon >= b.epsilon - 1e-12 for a, b in zip(ordered, ordered[1:])))


def run_s1(model, horizon=(5.0, 200), sample_dt=0.01, seed=1):
    params = s1_params()
    policy = JumpPolicy(tau_c_reset="min", case3_order="g1_first", seed=seed)
    zeta0 = strict_initial_state(params)
    return hybrid.simulate(model, zeta0, policy, horizon, sample_dt)


class TestIotaMagnitude:
    def test_zero_perturbation(self):
        state = make_state([1.0, -2.0], 0.5, 0.3, 0.5, 1.0, 0.25)
        pert = Perturbation(np.zeros((2, 2)), np.zeros((2, 1)),
                            np.zeros((1, 1)))
        assert iota_magnitude(pert, state) == 0.0

    def test_matrix_term_dominates(self):
        pert = Perturbation(0.1 * np.eye(2), np.zeros((2, 1)),
                            np.zeros((1, 1)))
        state = make_state([2.0, 0.0], 0.0, 0.0, 0.0, 1.0, 0.25)
        assert iota_magnitude(pert, state) == pytest.approx(0.2)

    def test_timer_offsets(self):
        pert = Perturbation(np.zeros((1, 1)), np.zeros((1, 1)),
                            np.zeros((1, 1)), theta_g_comp=0.01,
                            theta_c_min=0.01, theta_c_max=0.01)
        state = make_state(0.0, 0.0, 0.0, 0.0, 1.0, 0.25)
        assert iota_magnitude(pert, state) == pytest.approx(0.01)


class TestPerturbedModel:
    @pytest.mark.parametrize("delta", [0.0, 1e-3, 0.1, 1.0])
    @pytest.mark.parametrize("plant", ["s1", "random_n4"])
    def test_fields_match_scaled_oracle(self, plant, delta):
        if plant == "s1":
            params, pert = s1_params(), s1_perturbation()
        else:
            rng = np.random.default_rng(29)
            params = random_params(rng, n=4)
            pert = random_perturbation(rng, 4, params.plant.m, params.plant.p)
        model = HybridFOModel(params, pert, delta)
        for name, want in scaled_fields(params, pert, delta).items():
            assert np.array_equal(getattr(model, name), want), name

    def test_no_perturbation_is_nominal(self):
        params = s1_params()
        for model in (HybridFOModel(params), HybridFOModel(params, None, 0.5)):
            for name, want in scaled_fields(params, None, 0.0).items():
                assert np.array_equal(getattr(model, name), want), name

    def test_zero_delta_bit_identical(self):
        params = s1_params()
        arc_nom = run_s1(HybridFOModel(params))
        arc_zero = run_s1(HybridFOModel(params, s1_perturbation(), 0.0))
        for name in ("times", "x", "tau_c", "tau_g", "offsets", "u", "y_s",
                     "z"):
            assert np.array_equal(getattr(arc_nom, name),
                                  getattr(arc_zero, name))
        assert np.array_equal(arc_nom.jumps, arc_zero.jumps)

    def test_slowed_control_timer(self):
        params = s1_params()
        pert = Perturbation(np.zeros((1, 1)), np.zeros((1, 1)),
                            np.zeros((1, 1)), kappa_c=0.5)
        arc = run_s1(HybridFOModel(params, pert, 1.0), horizon=(2.5, 200))
        # gradient steps still fire every 0.25 s, but the input applies at
        # t = 2.0 instead of 1.0 (rate -0.5)
        g2_times = [t for t, _, _, applied in jump_log(arc)
                    if applied == "g2"]
        assert g2_times[0] == pytest.approx(2.0, abs=1e-9)

    def test_gain_error_diverges_after_first_sample(self):
        params = s1_params()
        pert = Perturbation(np.zeros((1, 1)), np.zeros((1, 1)),
                            np.array([[0.5]]))
        arc_nom = run_s1(HybridFOModel(params), horizon=(3.0, 200))
        arc_pert = run_s1(HybridFOModel(params, pert, 1.0),
                          horizon=(3.0, 200))
        # x identical until the first input application at t = 1 (the gain
        # error reaches the optimizer iterate z earlier, at the first
        # gradient step, but not the plant)
        for j in (0, 1, 2, 3):
            a = arc_nom.x[segment_rows(arc_nom, j)]
            b = arc_pert.x[segment_rows(arc_pert, j)]
            np.testing.assert_array_equal(a[:, 0], b[:, 0])
        # in S1 the first applied input saturates at the box edge either way;
        # the corrupted samples steer the second period's iterates apart, so
        # x diverges once that input is applied (second sampling jump, j = 10)
        x_after = arc_nom.x[arc_nom.offsets[10]:, 0]
        x_after_pert = arc_pert.x[arc_pert.offsets[10]:, 0]
        assert np.max(np.abs(x_after - x_after_pert)) > 1e-3
        # sampled output differs from the first sampling jump onward
        g2_nom, g2_pert = (next(j for _, j, _, applied in jump_log(arc)
                                if applied == "g2")
                           for arc in (arc_nom, arc_pert))
        assert abs(arc_nom.y_s[g2_nom + 1][0]
                   - arc_pert.y_s[g2_pert + 1][0]) > 0.1

    def test_invalid_scaled_rate_rejected(self):
        pert = Perturbation(np.zeros((1, 1)), np.zeros((1, 1)),
                            np.zeros((1, 1)), kappa_g=0.5)
        with pytest.raises(ValueError):
            HybridFOModel(s1_params(), pert, 2.0)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            HybridFOModel(s1_params(), s1_perturbation(), -0.1)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="perturbation scale"):
            HybridFOModel(s1_params(), s1_perturbation(), delta)


class TestCloseness:
    def test_identity(self):
        arc = run_s1(HybridFOModel(s1_params()))
        result = closeness(arc, arc, tau=4.0)
        assert result.epsilon == 0.0
        assert not result.truncated

    def test_constant_offset(self):
        arc = run_s1(HybridFOModel(s1_params()))
        shifted = dataclasses.replace(arc, x=arc.x + 0.01)
        result = closeness(arc, shifted, tau=4.0)
        assert result.epsilon == pytest.approx(0.01, abs=1e-9)

    def test_symmetric(self):
        params = s1_params()
        arc1 = run_s1(HybridFOModel(params))
        arc2 = run_s1(HybridFOModel(params, s1_perturbation(), 1e-2))
        e12 = closeness(arc1, arc2, tau=4.0).epsilon
        e21 = closeness(arc2, arc1, tau=4.0).epsilon
        assert e12 == pytest.approx(e21, abs=1e-12)

    def test_missing_jump_index_is_infinite(self):
        arc = run_s1(HybridFOModel(s1_params()))
        shorter = run_s1(HybridFOModel(s1_params()), horizon=(0.4, 200))
        assert len(shorter.segments) == 2
        result = closeness(arc, shorter, tau=4.0)
        assert math.isinf(result.epsilon)
        assert result.truncated

    @staticmethod
    def with_x(arc, k, value):
        x = arc.x.copy()
        x[k] = value
        return dataclasses.replace(arc, x=x)

    @pytest.mark.parametrize("side", [1, 2])
    def test_nan_sample_is_infinite(self, side):
        # a NaN state once dropped out of its whole block: epsilon read 0.0
        # at witness (1, 0.0, 0), and np.minimum.at warned
        arcs = [run_s1(HybridFOModel(s1_params())),
                run_s1(HybridFOModel(s1_params(), s1_perturbation(), 0.1))]
        arc = arcs[side - 1] = self.with_x(arcs[side - 1], 30, np.nan)
        j = int(np.searchsorted(arc.offsets, 30, side="right")) - 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = closeness(*arcs, tau=4.0)
        assert result.epsilon == math.inf
        assert result.witness == (side, float(arc.times[30]), j)

    def test_nan_held_value_is_infinite(self):
        arc1 = run_s1(HybridFOModel(s1_params()))
        arc2 = run_s1(HybridFOModel(s1_params(), s1_perturbation(), 0.1))
        u = arc2.u.copy()
        u[3] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = closeness(arc1, dataclasses.replace(arc2, u=u), tau=4.0)
        assert result.epsilon == math.inf
        assert result.witness == (1, float(arc1.times[arc1.offsets[3]]), 3)

    def test_nan_counterpart_matches_nothing(self):
        # the other arc's sample 30 is the nearest pair of this arc's
        # sample 30; as NaN it is no counterpart, just as a sample far from
        # every other would be
        arc = run_s1(HybridFOModel(s1_params()))
        shifted = dataclasses.replace(arc, x=arc.x + 0.01)
        held, n = np.zeros(len(arc.segments)), len(arc.times)
        far = robustness._block_matches(
            arc, self.with_x(shifted, 30, 1e300), 0, n, held)
        got = robustness._block_matches(
            arc, self.with_x(shifted, 30, np.nan), 0, n, held)
        assert np.isfinite(got).all()
        assert np.array_equal(got, far)

    @pytest.mark.parametrize("field, value", [
        ("x", np.inf), ("x", np.nan), ("tau_c", np.inf), ("tau_g", -np.inf),
        ("times", np.nan)])
    def test_non_finite_sample_does_not_walk(self, field, value):
        # each gap of a sample with a non-finite t, x or timer is inf or
        # NaN, so it matches at inf without reading a counterpart
        class Unread:
            def __getitem__(self, key):
                raise AssertionError("a counterpart was read")

        arc = run_s1(HybridFOModel(s1_params()))
        column = getattr(arc, field).copy()
        column[...] = value
        broken = dataclasses.replace(arc, **{field: column})
        unread = dataclasses.replace(arc, x=Unread(), tau_c=Unread(),
                                     tau_g=Unread())
        n, held = len(arc.times), np.zeros(len(arc.segments))
        got = robustness._block_matches(broken, unread, 0, n, held)
        assert np.all(got == np.inf)

    def test_truncation_reported(self):
        arc = run_s1(HybridFOModel(s1_params()), horizon=(2.0, 200))
        result = closeness(arc, arc, tau=100.0)
        assert result.truncated


class TestClosenessMatchesPerSampleScan:
    def assert_same(self, arc1, arc2, tau):
        result = closeness(arc1, arc2, tau)
        assert (result.epsilon, result.witness) == per_sample_closeness(
            arc1, arc2, tau)

    @staticmethod
    def tau_for(tau, nominal, perturbed):
        """``tau``, or for "at_sample" the t + j of a stored sample inside a
        segment, or for "past_end" a tau just past the shorter arc's end."""
        if tau == "at_sample":
            times = perturbed.times[segment_rows(perturbed, 3)]
            at = times[len(times) // 2] + 3
            assert 0 < np.searchsorted(times + 3, at) < len(times)
            return float(at)
        if tau == "past_end":
            ends = [arc.times[-1] + len(arc.jumps) for arc in (nominal, perturbed)]
            return float(min(ends)) + 0.5
        return tau

    @pytest.mark.parametrize("tau", [0.0, 3.0, 4.37, 5.0, "at_sample",
                                     "past_end"])
    def test_s1_arcs(self, tau):
        params = s1_params()
        nominal = run_s1(HybridFOModel(params))
        # delta = 0.5 to 1.0 give time windows that span whole segments
        for delta in (1e-3, 1e-2, 1e-1, 0.5, 0.9, 1.0):
            perturbed = run_s1(HybridFOModel(params, s1_perturbation(),
                                               delta))
            at = self.tau_for(tau, nominal, perturbed)
            self.assert_same(nominal, perturbed, at)
            self.assert_same(perturbed, nominal, at)

    def test_arc_infinite_from_a_sample_on(self):
        # S1 at delta 0.1 and tau 30, with the perturbed arc's state and
        # timers inf from sample 30 on
        params = s1_params()
        horizon = (30.0, 31)
        nominal = run_s1(HybridFOModel(params), horizon)
        perturbed = run_s1(HybridFOModel(params, s1_perturbation(), 0.1),
                           horizon)
        columns = {name: getattr(perturbed, name).copy()
                   for name in ("x", "tau_c", "tau_g")}
        for column in columns.values():
            column[30:] = np.inf
        broken = dataclasses.replace(perturbed, **columns)
        self.assert_same(nominal, broken, 30.0)
        self.assert_same(broken, nominal, 30.0)
        assert closeness(nominal, broken, 30.0).epsilon == math.inf

    def test_n20_arcs(self):
        rng = np.random.default_rng(17)
        params = random_params(rng, n=20)
        pert = random_perturbation(rng, 20, params.plant.m, params.plant.p)
        policy = JumpPolicy(tau_c_reset="uniform", seed=3)
        zeta0 = strict_initial_state(params)
        nominal = hybrid.simulate(HybridFOModel(params), zeta0, policy,
                                  (4.0, 400), 0.02)
        perturbed = hybrid.simulate(HybridFOModel(params, pert, 0.5), zeta0,
                                    policy, (4.0, 400), 0.02)
        self.assert_same(nominal, perturbed, 4.0)

    def test_long_segment_crosses_block_boundary(self):
        params = s1_params()
        nominal = run_s1(HybridFOModel(params), horizon=(1.2, 200),
                         sample_dt=1e-4)
        perturbed = run_s1(HybridFOModel(params, s1_perturbation(), 0.3),
                           horizon=(1.2, 200), sample_dt=1e-4)
        for arc in (nominal, perturbed):  # a block edge inside segment 0
            rows = segment_rows(arc, 0)
            assert 0 < robustness._BLOCK < (rows.stop - rows.start) // 2
        self.assert_same(nominal, perturbed, 1.2)
        self.assert_same(perturbed, nominal, 1.2)

    @pytest.mark.parametrize("tau", ["zero", "mid_segment", "past_both"])
    @pytest.mark.parametrize("delta", [1e-3, 0.1, 0.5, 0.9])
    def test_n3_arcs(self, delta, tau):
        # delta = 0.5 and 0.9 give time windows that span whole segments
        rng = np.random.default_rng(23)
        params = random_params(rng, n=3)
        pert = random_perturbation(rng, 3, params.plant.m, params.plant.p)
        policy = JumpPolicy(tau_c_reset="uniform", case3_order="random",
                            seed=5)
        zeta0 = strict_initial_state(params)
        nominal = hybrid.simulate(HybridFOModel(params), zeta0, policy,
                                  (4.0, 400), 0.01)
        perturbed = hybrid.simulate(HybridFOModel(params, pert, delta),
                                    zeta0, policy, (4.0, 400), 0.01)
        if tau == "zero":
            at = 0.0
        elif tau == "mid_segment":  # halfway between two stored samples
            times = nominal.times[segment_rows(nominal, 4)]
            k = len(times) // 2
            at = float(times[k] + times[k + 1]) / 2.0 + 4
        else:
            at = max(arc.t_end + len(arc.jumps)
                     for arc in (nominal, perturbed)) + 1.0
        self.assert_same(nominal, perturbed, at)
        self.assert_same(perturbed, nominal, at)
        assert closeness(nominal, perturbed, at).truncated == (
            tau == "past_both")

    def test_nearest_gap_equal_to_held_gap(self):
        # x and z are off by 0.5 at every sample: each sample's gap to its
        # same-time counterpart equals its segment's held gap exactly
        arc = run_s1(HybridFOModel(s1_params()))
        base = dataclasses.replace(arc, x=np.zeros_like(arc.x),
                                   z=np.zeros_like(arc.z))
        shifted = dataclasses.replace(base, x=np.full_like(arc.x, 0.5),
                                      z=np.full_like(arc.z, 0.5))
        for pair in ((base, shifted), (shifted, base)):
            result = closeness(*pair, tau=4.0)
            assert result.epsilon == 0.5
            assert (result.epsilon, result.witness) == per_sample_closeness(
                *pair, 4.0)

    def test_held_gap_between_nearest_and_best_gap(self):
        # x is +-0.025 at two mid-segment samples, 0 elsewhere, and z is off
        # by 0.03 everywhere: at the second one both nearest counterparts
        # give 0.05, the next one out about 0.025, and the match is the
        # held 0.03
        arc = run_s1(HybridFOModel(s1_params()))
        rows = segment_rows(arc, 2)
        spike = rows.start + (rows.stop - rows.start) // 2
        x = np.zeros_like(arc.x)
        x[spike - 1:spike + 1] = 0.025
        base = dataclasses.replace(arc, x=x, z=np.zeros_like(arc.z))
        other = dataclasses.replace(arc, x=-x, z=np.full_like(arc.z, 0.03))
        for pair in ((base, other), (other, base)):
            result = closeness(*pair, tau=4.0)
            assert result.epsilon == 0.03
            assert (result.epsilon, result.witness) == per_sample_closeness(
                *pair, 4.0)

    def test_memory_stays_within_a_block(self):
        # closeness's own peak on arcs of about 6300 samples is at most its
        # peak on arcs of about 650 plus its peak on arcs of one block
        params = s1_params()

        def arcs(tau):
            horizon = (tau, math.floor(tau) + 1)
            return (run_s1(HybridFOModel(params), horizon),
                    run_s1(HybridFOModel(params, s1_perturbation(), 0.1),
                           horizon))

        def peak(pair, tau):
            closeness(*pair, tau)
            tracemalloc.start()
            try:
                closeness(*pair, tau)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = arcs(30.0), arcs(300.0)
        assert len(short[0].times) < robustness._BLOCK
        assert len(long[0].times) > 6 * robustness._BLOCK
        k = robustness._BLOCK - 1  # tau at the block's last nominal sample
        j = int(np.searchsorted(long[0].offsets, k, side="right")) - 1
        tau = float(long[0].times[k]) + j
        block = arcs(tau)
        assert len(block[0].times) < 2 * robustness._BLOCK
        assert peak(long, 300.0) <= peak(short, 30.0) + peak(block, tau)

    def test_missing_segment_is_infinite(self):
        arc = run_s1(HybridFOModel(s1_params()))
        shorter = run_s1(HybridFOModel(s1_params()), horizon=(0.4, 200))
        assert len(shorter.segments) == 2
        for pair in ((arc, shorter), (shorter, arc)):
            result = closeness(*pair, tau=4.0)
            assert math.isinf(result.epsilon)
            assert (result.epsilon, result.witness) == per_sample_closeness(
                *pair, 4.0)


class TestClosenessMemory:
    @pytest.mark.parametrize("delta", [0.1, 0.01, 0.001])
    def test_one_s1_call_at_tau_30(self, delta):
        # the sweep's arcs (685 read samples each, one block): the walk
        # columns live in preallocated arrays, the gaps are taken in place,
        # and the walks need no step column, so one call peaks near 80 KiB
        # (it was 102 to 106 KiB)
        params, policy = s1_params(), JumpPolicy(seed=1)
        zeta0, horizon = strict_initial_state(params), (30.0, 31)
        nominal = hybrid.simulate(HybridFOModel(params), zeta0, policy,
                                  horizon)
        model = HybridFOModel(params, s1_perturbation(), delta)
        arc = hybrid.simulate(model, robustness._start(model, zeta0),
                              robustness._clipped(model, policy), horizon)
        want = closeness(nominal, arc, 30.0)  # warms every code path
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            got = closeness(nominal, arc, 30.0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert repr(got) == repr(want)
        assert peak <= 85 * 1024


class TestRobustnessSweep:
    @pytest.mark.parametrize("case", ["uniform-random",
                                      "uniform-random-seed-1", "fixed",
                                      "n3-plant"])
    def test_equals_its_runs(self, case):
        # the sweep schedules every run, builds their flows together and
        # fills each arc by its own simulate call: the result is that of
        # lone runs, to the last bit of its repr
        deltas = [0.3, 0.1, 0.03, 0.01, 0.003, 0.001]
        params, pert = s1_params(), s1_perturbation()
        if case.startswith("uniform-random"):
            # a uniform tau_c reset and a random composite order draw from
            # the seeded generator
            params = dataclasses.replace(params, timers=dataclasses.replace(
                params.timers, tau_c_max=1.2))
            seed = 1 if case == "uniform-random-seed-1" else 5
            policy = JumpPolicy(tau_c_reset="uniform", case3_order="random",
                                seed=seed)
            if seed == 1:  # S1's seed, over smaller scales
                deltas = [0.1, 0.03, 0.01, 0.003, 0.001, 0.0003]
        elif case == "fixed":
            policy = JumpPolicy(tau_c_reset="fixed", tau_c_value=1.0, seed=1)
        else:
            rng = np.random.default_rng(41)
            params = random_params(rng, n=3)
            plant = params.plant
            pert = random_perturbation(rng, plant.n, plant.m, plant.p)
            policy = JumpPolicy(seed=2)
        zeta0 = strict_initial_state(params)
        got = robustness_sweep(params, pert, deltas, 30.0, policy, zeta0)
        want = sweep_by_runs(params, pert, deltas, 30.0, policy, zeta0)
        assert repr(got) == repr(want)
        assert any(row.epsilon > 0.0 for row in got.rows)

    def test_s1_trend(self):
        params = s1_params()
        sweep = robustness_sweep(
            params, s1_perturbation(), [1e-1, 1e-2, 1e-3, 0.0],
            tau=6.0, policy=JumpPolicy(tau_c_reset="min", seed=1),
            zeta0=strict_initial_state(params),
        )
        eps = [row.epsilon for row in sweep.rows]
        assert sweep.nonincreasing
        assert eps[-1] == 0.0  # delta = 0 reproduces the nominal arc
        assert eps[0] > eps[2] > 0.0
        assert all(math.isfinite(e) for e in eps[:3])

    def test_bounded_horizon_caveat(self):
        # a pure timer-rate error accumulates: epsilon grows with the horizon
        pert = Perturbation(np.zeros((1, 1)), np.zeros((1, 1)),
                            np.zeros((1, 1)), kappa_g=0.5)
        policy = JumpPolicy(tau_c_reset="min", seed=1)
        zeta0 = strict_initial_state(s1_params())
        short = robustness_sweep(s1_params(), pert, [1.0], tau=3.0,
                                 policy=policy, zeta0=zeta0)
        long = robustness_sweep(s1_params(), pert, [1.0], tau=8.0,
                                policy=policy, zeta0=zeta0)
        assert long.rows[0].epsilon > short.rows[0].epsilon

    @pytest.mark.parametrize("tau", [6.0, 6.5, 30.0])
    def test_capped_runs_match_long_runs(self, tau):
        # the sweep stops at jump index floor(tau) + 1; the rows must equal
        # closeness on runs under the earlier, much larger jump budget
        params, pert = s1_params(), s1_perturbation()
        policy = JumpPolicy(tau_c_reset="uniform", case3_order="random", seed=4)
        deltas = [0.3, 1e-2, 1e-3]
        zeta0 = strict_initial_state(params)
        sweep = robustness_sweep(params, pert, deltas, tau, policy, zeta0)
        nominal = HybridFOModel(params)
        min_dwell = min(nominal.period_g, nominal.period_c)
        horizon = (tau, int(math.ceil(tau / min_dwell)) * 2 + 16)
        arc_nom = hybrid.simulate(nominal, zeta0, policy, horizon)
        assert len(arc_nom.segments) - 1 > math.floor(tau) + 1
        for row, delta in zip(sweep.rows, deltas):
            arc = hybrid.simulate(HybridFOModel(params, pert, delta), zeta0,
                                  policy, horizon)
            result = closeness(arc_nom, arc, tau)
            assert row.epsilon == result.epsilon
            assert (row.witness_arc, row.witness_t, row.witness_j) == \
                result.witness
            assert row.truncated is False

    def test_short_arc_still_reports_truncation(self):
        # T = 3 s reaches j = 15, so t + j stays below tau = 30
        params = s1_params()
        arc = run_s1(HybridFOModel(params), horizon=(3.0, 200))
        other = run_s1(HybridFOModel(params, s1_perturbation(), 0.1),
                       horizon=(3.0, 200))
        assert closeness(arc, other, tau=30.0).truncated

    def test_every_scale_checked_before_the_first_run(self, monkeypatch):
        runs = []

        def counted(*args, **kwargs):
            runs.append(args)
            return hybrid.simulate(*args, **kwargs)

        monkeypatch.setattr(robustness, "simulate", counted)
        # kappa_c = 0.1: the control timer rate -1 + 20 kappa_c is positive
        with pytest.raises(ValueError, match="timer rates"):
            robustness_sweep(s1_params(), s1_perturbation(), [0.1, 0.01, 20.0],
                             tau=2.0, policy=JumpPolicy(seed=1),
                             zeta0=strict_initial_state(s1_params()))
        assert runs == []

    def test_bad_scale_named(self):
        with pytest.raises(robustness.ScaleError, match=r"^scale 20: timer"):
            robustness_sweep(s1_params(), s1_perturbation(), [0.1, 20.0],
                             tau=2.0, policy=JumpPolicy(seed=1),
                             zeta0=strict_initial_state(s1_params()))

    def test_negative_offsets_epsilon_linear_in_delta(self):
        # theta_g = -0.02: each perturbed run starts at tau_g = 0.25 - 0.02
        # delta, inside its domain, and epsilon shrinks with delta
        pert = dataclasses.replace(s1_perturbation(), theta_g_comp=-0.02)
        deltas = [0.1, 0.03, 0.01, 0.003]
        sweep = robustness_sweep(s1_params(), pert, deltas, tau=30.0,
                                 policy=JumpPolicy(seed=1),
                                 zeta0=strict_initial_state(s1_params()))
        ratios = [row.epsilon / row.delta for row in sweep.rows]
        assert sweep.nonincreasing
        assert max(ratios) < 1.5 * min(ratios)

    @pytest.mark.parametrize("tau", [math.inf, math.nan, -1.0])
    def test_rejects_bad_tau(self, tau):
        with pytest.raises(ValueError, match="tau"):
            robustness_sweep(s1_params(), s1_perturbation(), [0.1], tau,
                             JumpPolicy(), strict_initial_state(s1_params()))
