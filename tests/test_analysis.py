import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from hfo import analysis, hybrid, linalg
from hfo.analysis import (
    MEstimate,
    PeriodCheck,
    bound_thm1,
    bound_thm2,
    check_bound,
    constants,
    dist_to_A,
    estimate_M,
    fixed_point_z,
    rate_check,
    reconstruct_x,
    solve_optimal,
)
from hfo.model import (
    Ball,
    Box,
    HybridFOModel,
    JumpPolicy,
    Plant,
    gradient_constants,
    make_state,
    strict_initial_state,
)
from conftest import random_params, s1_params


def s1_arc(horizon=(6.0, 1000), sample_dt=0.01):
    params = s1_params()
    model = HybridFOModel(params)
    zeta0 = strict_initial_state(params)
    policy = JumpPolicy(tau_c_reset="min", case3_order="g1_first", seed=1)
    return hybrid.simulate(model, zeta0, policy, horizon, sample_dt), params


def mimo_arc(seed=5, n=20, horizon=(4.0, 1000), x_shift=0.0):
    """Arc of a generated order-n plant, optionally started x_shift away
    from the strict initial plant state in every coordinate."""
    params = random_params(np.random.default_rng(seed), n=n)
    zeta0 = strict_initial_state(params)
    zeta0 = dataclasses.replace(zeta0, x=zeta0.x + x_shift)
    arc = hybrid.simulate(HybridFOModel(params), zeta0,
                          JumpPolicy(seed=2), horizon, 0.02)
    return arc, params


def plant_arc(a, b, c_out, gamma, horizon=(6.0, 1000)):
    """Arc of S1 with its plant replaced by (A, B, C) and stepsize gamma,
    from the strict initial state."""
    base = s1_params()
    plant = Plant(np.array(a, dtype=float), np.array(b, dtype=float),
                  np.array(c_out, dtype=float), base.plant.d)
    params = dataclasses.replace(
        base, plant=plant,
        objective=dataclasses.replace(base.objective, gamma=gamma))
    arc = hybrid.simulate(HybridFOModel(params), strict_initial_state(params),
                          JumpPolicy(seed=1), horizon, 0.01)
    return arc, params


def per_sample_reconstruction(arc, params):
    """Oracle: the anchored variation-of-constants form evaluated one sample
    at a time, x = e^{A dt} x_a + A^{-1}(e^{A dt} - I) B u, with the
    exponential and the solve taken afresh for every sample."""
    a, b = params.plant.a, params.plant.b
    eye = np.eye(a.shape[0])
    first = arc.segments[0].start
    anchor_t, anchor_x, u_p = 0.0, first.x.copy(), first.u.copy()

    def at(t):
        e = scipy.linalg.expm(a * (t - anchor_t))
        return e @ anchor_x + np.linalg.solve(a, (e - eye) @ (b @ u_p))

    recon = []
    for seg in arc.segments:
        recon.extend(at(t) for t in seg.times)
        if seg.j < len(arc.jumps) and arc.jumps[seg.j].applied == "g2":
            rec = arc.jumps[seg.j]
            anchor_x, anchor_t = at(rec.t), rec.t
            u_p = arc.segments[rec.j + 1].start.u.copy()
    return np.vstack(recon)


@pytest.fixture
def unit_overshoot(monkeypatch):
    """constants with M = 1: estimate_M reports no overshoot."""
    monkeypatch.setattr(analysis, "estimate_M",
                        lambda a, rho: MEstimate(1.0, 0.0, 1.0))


def per_sample_bound_check(arc, c, which):
    """Oracle: (max_violation, first_entry_time, (t, j) of the first sample
    attaining it), from a plain loop over the stored samples."""
    bound_fn = {"thm1": bound_thm1, "thm2": bound_thm2}[which]
    init_dist = dist_to_A(arc.segments[0].start.x, c)
    worst, witness, first_entry = -np.inf, None, None
    for seg in arc.segments:
        for k, t in enumerate(seg.times):
            lhs = dist_to_A(seg.state(k).x, c)
            gap = lhs - max(float(bound_fn(t, init_dist, c)), 0.0)
            if gap > worst:
                worst, witness = gap, (float(t), seg.j)
            if first_entry is None and lhs <= 1e-6:
                first_entry = float(t)
    return worst, first_entry, witness


def unblocked_estimate(a, rho, grid_points, horizon):
    """Oracle: (sup, t_at_max) of ||e^{At}|| e^{rho t} on estimate_M's grid,
    one spectral norm per grid point."""
    h = horizon / rho / grid_points
    step = scipy.linalg.expm(a * h)
    e = np.eye(a.shape[0])
    sup, t_at = 1.0, 0.0
    for k in range(1, grid_points + 1):
        e = step @ e
        value = np.linalg.norm(e, 2) * np.exp(rho * k * h)
        if value > sup:
            sup, t_at = value, k * h
    return sup, t_at


def all_svd_estimate(a, rho):
    """Oracle: estimate_M's (value, t_at_max, sup) with an SVD at every grid
    point, in the same blocks and with the same tie rule."""
    a = np.asarray(a, dtype=float)
    grid_points, block_len = analysis.M_GRID_POINTS, analysis._STACK_BLOCK
    h = analysis.M_HORIZON / rho / grid_points
    step = linalg.mat_exp(a, h)
    e = np.eye(a.shape[0])
    values = np.empty(grid_points + 1)
    values[0] = 1.0
    block = np.empty((min(block_len, grid_points),) + a.shape)
    for start in range(1, grid_points + 1, block_len):
        t = np.arange(start, min(start + block_len, grid_points + 1)) * h
        for i in range(len(t)):
            e = step @ e
            block[i] = e
        norms = np.linalg.svd(block[:len(t)], compute_uv=False)[:, 0]
        values[start:start + len(t)] = norms * np.exp(rho * t)
    tie = grid_points * a.shape[0] * np.finfo(float).eps
    at = int(np.argmax(values * (1.0 + tie) >= values.max()))
    sup = float(values[at])
    return max(1.0, sup) * (1.0 + analysis.M_MARGIN), at * h, sup


def estimate_outcome(estimate, a, rho):
    """(value, t_at_max, sup) or the exception's (type, text), and every
    warning, of one estimate_M implementation."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = estimate(np.array(a, dtype=float), rho)
        except (ArithmeticError, ValueError) as exc:  # LinAlgError included
            got = (type(exc), str(exc))
    if isinstance(got, MEstimate):
        got = (got.value, got.t_at_max, got.sup)
    return got, [(w.category, str(w.message)) for w in caught]


def mimo_plant(seed, n=20):
    """A = -S + K, drawn as bench/scenarios.mimo_scenario draws it: S
    symmetric with eigenvalues in [0.5, 3], K skew."""
    rng = np.random.default_rng(seed)
    skew = rng.standard_normal((n, n)) * (0.5 / np.sqrt(n))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return -((q * rng.uniform(0.5, 3.0, n)) @ q.T) + (skew - skew.T)


def slowest_rate(a):
    return float(np.min(np.abs(np.linalg.eigvals(a).real)))


def per_period_rate_check(arc, params):
    """Oracle: rate_check's PeriodChecks with every distance taken by its
    own np.linalg.norm call."""
    q = gradient_constants(params)[2]
    spans = arc.periods()[:-1]
    z_stars = fixed_point_z(arc.y_s[[first for first, _ in spans]], params)
    periods = []
    for k, ((first, end), z_star) in enumerate(zip(spans, z_stars)):
        dists = [float(np.linalg.norm(z - z_star)) for z in arc.z[first:end]]
        worst = max((d1 ** 2 - q * d0 ** 2 for d0, d1 in zip(dists, dists[1:])),
                    default=-np.inf)
        alpha = end - first - 1
        agg = (dists[-1] - q ** ((alpha - 1) / 2.0) * dists[1] if alpha >= 1
               else -np.inf)
        periods.append(PeriodCheck(k, alpha, worst <= analysis.STEP_TOL,
                                   agg <= analysis.AGGREGATE_TOL, worst, agg))
    return periods


class TestSolveOptimal:
    def test_s1_interior_optimum(self, s1):
        u, y, x = solve_optimal(s1)
        assert u[0] == pytest.approx(0.75, abs=1e-10)
        assert y[0] == pytest.approx(1.25, abs=1e-10)
        assert x[0] == pytest.approx(0.75, abs=1e-10)

    def test_active_constraint(self, s1):
        params = dataclasses.replace(s1, input_set=Box([-1.0], [0.5]))
        u, y, _ = solve_optimal(params)
        assert u[0] == pytest.approx(0.5, abs=1e-10)
        assert y[0] == pytest.approx(1.0, abs=1e-10)

    def test_interior_optimum_matches_linear_solve(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            params = random_params(rng, ball_prob=0.0)
            # widen the box so the optimum is interior
            wide = Box(params.input_set.lo - 100.0, params.input_set.hi + 100.0)
            params = dataclasses.replace(params, input_set=wide)
            obj = params.objective
            plant = params.plant
            h = -plant.c_out @ np.linalg.solve(plant.a, plant.b)
            hess = obj.q_u + h.T @ obj.q_y @ h
            u_ref = np.linalg.solve(hess, -h.T @ obj.q_y @ (plant.d - obj.y_hat))
            u, _, x = solve_optimal(params)
            np.testing.assert_allclose(u, u_ref, atol=1e-9)
            np.testing.assert_allclose(x, -np.linalg.solve(plant.a, plant.b @ u),
                                       atol=1e-9)


class TestFixedPointZ:
    def test_s1_saturated(self, s1):
        # unconstrained fixed point 1.5 clips to the box edge
        assert fixed_point_z([0.5], s1)[0] == pytest.approx(1.0, abs=1e-10)

    def test_s1_interior(self, s1):
        # y_s = y~ gives z* = u~ = 0.75
        assert fixed_point_z([1.25], s1)[0] == pytest.approx(0.75, abs=1e-10)

    def test_fixed_point_property(self):
        rng = np.random.default_rng(43)
        from hfo.model import grad_u_phi

        for _ in range(5):
            params = random_params(rng)
            h = params.h
            y_s = rng.standard_normal(params.plant.p)
            z = fixed_point_z(y_s, params)
            step = z - params.objective.gamma * grad_u_phi(
                z, y_s, params.objective, h)
            np.testing.assert_allclose(params.input_set.project(step), z,
                                       atol=1e-11)

    @pytest.mark.parametrize("ball_prob", [0.0, 1.0], ids=["box", "ball"])
    def test_stack_matches_one_output_calls(self, ball_prob):
        rng = np.random.default_rng(47)
        for _ in range(4):
            params = random_params(rng, ball_prob=ball_prob)
            for count in (0, 1, 9):
                # wide outputs, so that some fixed points lie on the boundary
                y_s = rng.standard_normal((count, params.plant.p)) * 3.0
                z = fixed_point_z(y_s, params)
                assert z.shape == (count, params.plant.m)
                for row, y in zip(z, y_s):
                    assert np.array_equal(row, fixed_point_z(y, params))


class TestEstimateM:
    def test_scalar(self):
        est = estimate_M(np.array([[-1.0]]), 1.0)
        assert est.value == pytest.approx(1.05)
        # ||e^{-t}|| e^{t} == 1: rounding-level excess ties with t = 0
        assert est.sup == 1.0
        assert est.t_at_max == 0.0
        assert est.non_normal_note is None

    def test_normal_matrix_no_overshoot(self):
        a = np.array([[-0.5, 2.0], [-2.0, -0.5]])
        est = estimate_M(a, 0.5)
        assert est.sup == pytest.approx(1.0, abs=1e-9)

    def test_overshoot_detected(self):
        a = np.array([[-1.0, 4.0], [0.0, -2.0]])
        est = estimate_M(a, 1.0)
        assert est.sup > 1.0
        assert est.t_at_max > 0.0
        assert est.value == pytest.approx(1.05 * est.sup)
        # audit: the returned maximizer reproduces the reported supremum
        from hfo.linalg import mat_exp

        at_max = np.linalg.norm(mat_exp(a, est.t_at_max), 2) * np.exp(
            est.t_at_max)
        assert at_max == pytest.approx(est.sup, rel=1e-9)

    def test_non_normal_note(self, s1):
        # constants attaches the note from params.eigen: the Jordan block's
        # eigenvector matrix is numerically singular, S1's is the identity
        plant = Plant(np.array([[-1.0, 1.0], [0.0, -1.0]]),
                      np.array([[1.0], [0.0]]), np.array([[0.2, 0.0]]),
                      s1.plant.d)
        jordan = dataclasses.replace(s1, plant=plant)
        assert jordan.eigen[2] > 1e6
        note = constants(jordan).m_estimate.non_normal_note
        assert note.startswith("eigenvector condition estimate ")
        assert note.endswith(": plant is highly non-normal, overshoot "
                             "estimate may be loose")
        assert constants(s1).m_estimate.non_normal_note is None

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            estimate_M(np.array([[-1.0]]), 0.0)

    @pytest.mark.parametrize("grid_points, horizon", [
        (7, 10.0),  # fewer points than one block
        (257, 10.0),  # a partial last block, maximizer inside a full one
        (257, 0.3),  # v(t) still rising: the maximizer is the last grid point
    ])
    def test_blocks_match_unblocked_loop(self, monkeypatch, grid_points,
                                         horizon):
        monkeypatch.setattr(analysis, "M_GRID_POINTS", grid_points)
        monkeypatch.setattr(analysis, "M_HORIZON", horizon)
        a = np.array([[-1.0, 4.0], [0.0, -2.0]])
        est = estimate_M(a, 1.0)
        sup, t_at = unblocked_estimate(a, 1.0, grid_points, horizon)
        assert est.sup == pytest.approx(sup, rel=1e-12)
        assert est.t_at_max == t_at
        if horizon < 1.0:
            assert est.t_at_max == pytest.approx(horizon)


    @pytest.mark.parametrize("seed", range(40))
    def test_matches_all_svd_on_mimo_plants(self, seed):
        a = mimo_plant(seed)
        for rho in (slowest_rate(a), slowest_rate(a) / 2.0):
            assert (estimate_outcome(estimate_M, a, rho)
                    == estimate_outcome(all_svd_estimate, a, rho))

    @pytest.mark.parametrize("a, rho", [
        ([[-1.0]], 1.0),  # every grid value ties with t = 0
        (-np.eye(20), 1.0),  # every grid value ties, at n = 20
        ([[-1.0, 1.0], [0.0, -1.0]], 1.0),  # Jordan block: v(t) = O(t)
        ([[-1.0, 4.0], [0.0, -2.0]], 1.0),  # a real overshoot
        ([[-1.0]], 5.0),  # v(t) rises to the grid edge
        ([[-1000.0]], 1e-3),  # E underflows to 0
        (-1000.0 * np.eye(2), 1e-3),  # E = 0 where the bound takes levels
        ([[60.0, 1.0], [0.0, 59.0]], 1.0),  # E'E overflows; E does not
        ([[400.0]], 1.0),  # E overflows to inf
        ([[400.0, 1.0], [0.0, 399.0]], 1.0),  # E overflows: the SVD raises
    ], ids=["s1", "minus-identity-20", "jordan", "upper-triangular",
            "s1-rho-5", "underflow", "underflow-2x2", "gram-overflow",
            "chain-overflow", "chain-overflow-2x2"])
    def test_matches_all_svd_on_edge_cases(self, a, rho):
        assert (estimate_outcome(estimate_M, a, rho)
                == estimate_outcome(all_svd_estimate, a, rho))

    def test_tie_allowance_keeps_the_earliest_maximizer(self, monkeypatch):
        # v(t) levels off within the tie allowance from t ~ 2.3 to the grid
        # edge; with no pad, only the tie factor in the pruning rule keeps
        # a block's earlier ties from being ruled out by its top point
        monkeypatch.setattr(analysis, "M_BOUND_PAD", 0.0)
        a = np.array([[-1.0, 1.0], [0.0, -11.0]])
        est = estimate_M(a, 1.0)
        assert (est.value, est.t_at_max, est.sup) == all_svd_estimate(a, 1.0)
        assert 2.0 < est.t_at_max < 2.5

    def test_underflow_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in ([[-1000.0]], -1000.0 * np.eye(2)):
                assert estimate_M(np.array(a), 1e-3).t_at_max == 0.0

    @staticmethod
    def svd_matrices(monkeypatch):
        """Counts the matrices every np.linalg.svd call receives."""
        seen = []
        svd = np.linalg.svd

        def counted(mats, *args, **kwargs):
            seen.append(len(mats))
            return svd(mats, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        return seen

    def test_bound_spares_most_svds(self, monkeypatch):
        seen = self.svd_matrices(monkeypatch)
        a = mimo_plant(7)
        estimate_M(a, slowest_rate(a))
        assert 0 < sum(seen) < 0.1 * analysis.M_GRID_POINTS

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_bound_rules_nothing_out(self, monkeypatch, bad):
        monkeypatch.setattr(linalg, "log_norm_bound",
                            lambda e, levels, cutoff: np.full(len(e), bad))
        seen = self.svd_matrices(monkeypatch)
        a = mimo_plant(7)
        rho = slowest_rate(a)
        est = estimate_M(a, rho)
        assert sum(seen) == analysis.M_GRID_POINTS
        assert (est.value, est.t_at_max, est.sup) == all_svd_estimate(a, rho)

    def test_memory_stays_within_a_few_blocks(self):
        a = mimo_plant(7)
        rho = slowest_rate(a)
        estimate_M(a, rho)  # lazy imports and caches out of the count
        tracemalloc.start()
        try:
            estimate_M(a, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * analysis._STACK_BLOCK * a.shape[0] ** 2 * 8


class TestConstants:
    def test_s1_exact_values(self, s1):
        c = constants(s1)
        assert abs(c.rho - 1.0) <= 1e-12
        assert abs(c.big_l - 2.0) <= 1e-12
        assert abs(c.q - 0.84) <= 1e-12
        assert abs(c.d_u - 2.0) <= 1e-12
        assert c.b_norm == pytest.approx(1.0)
        expected_r = c.m_hat * 1.0 * 2.0 / 1.0 * (
            2.0 - math.exp(-1.0) + 0.84 ** 2)
        assert abs(c.r - expected_r) <= 1e-9
        assert c.x_tilde[0] == pytest.approx(0.75, abs=1e-10)

    def test_unit_overshoot_r_value(self, s1, unit_overshoot):
        c = constants(s1)
        assert c.r == pytest.approx(4.675441117657115, abs=1e-12)

    def test_non_hurwitz_rejected(self, s1):
        from hfo.model import Plant

        bad = dataclasses.replace(
            s1, plant=Plant(np.array([[1.0]]), s1.plant.b, s1.plant.c_out,
                            s1.plant.d))
        with pytest.raises(ValueError):
            constants(bad)

    def test_overrides(self, s1):
        params = dataclasses.replace(s1, rho_override=0.5)
        assert constants(params).rho == 0.5

    def test_non_finite_radius_rejected(self, s1):
        # d_u = 1e308 is finite, r and the bound terms are not
        huge = dataclasses.replace(s1, input_set=Ball([0.0], 5e307))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^constants not finite: "
                               r"r = inf.* input_set diameter d_u = 1e\+308$"):
                constants(huge)
        wide = dataclasses.replace(s1, input_set=Ball([0.0], 1e307))
        assert math.isfinite(constants(wide).middle_thm2)

    def test_bound_terms_match_the_formulas(self, s1):
        c = constants(s1)
        tm = s1.timers
        coeff = c.b_norm * c.d_u / c.rho
        q_pow = c.q ** (tm.ell / 2.0)
        for scale, middle in ((1.0, c.middle_thm1), (2.0, c.middle_thm2)):
            assert middle == pytest.approx(c.m_hat ** 2 * coeff * (
                2.0 - math.exp(-scale * c.rho * tm.tau_c_max) + q_pow),
                rel=1e-14)
        assert c.last == pytest.approx(c.m_hat * coeff * (
            1.0 + q_pow * math.exp(c.rho * tm.tau_c_min)), rel=1e-14)


class TestDistToA:
    def test_inside_target_set(self, s1):
        c = constants(s1)
        state = make_state(0.75, 0.0, 0.5, 0.0, 1.0, 0.25)
        assert dist_to_A(state.x, c) == 0.0

    def test_outside(self, s1):
        c = constants(s1)
        state = make_state(0.75 + c.r + 2.0, 0.0, 0.5, 0.0, 1.0, 0.25)
        assert dist_to_A(state.x, c) == pytest.approx(2.0)


class TestBounds:
    def test_thm1_unit_overshoot_value(self, s1, unit_overshoot):
        c = constants(s1)
        value = bound_thm1(0.0, 1.0, c)
        assert value == pytest.approx(-0.16059819866428882, abs=1e-12)

    def test_bounds_decay_exponentially(self, s1):
        c = constants(s1)
        v0 = bound_thm2(0.0, 5.0, c)
        v1 = bound_thm2(1.0, 5.0, c)
        assert v1 == pytest.approx(v0 * math.exp(-1.0), rel=1e-12)

    def test_thm2_dominates_thm1(self, s1):
        # the arbitrary-initialization bound is weaker (larger middle term)
        c = constants(s1)
        assert bound_thm2(0.3, 2.0, c) >= bound_thm1(0.3, 2.0, c)

    def test_s1_arc_satisfies_both_bounds(self):
        arc, params = s1_arc()
        c = constants(params)
        for which in ("thm1", "thm2"):
            report = check_bound(arc, c, which)
            assert report.passed, report.max_violation
            assert report.first_entry_time == 0.0  # starts inside the target set

    def test_negative_control_radius_shrunk(self):
        arc, params = s1_arc()
        c = constants(params)
        report = check_bound(arc, dataclasses.replace(c, r=0.05 * c.r), "thm1")
        assert not report.passed

    @pytest.mark.parametrize("case", ["s1-inside", "s1-shrunk", "mimo-far"])
    @pytest.mark.parametrize("which", ["thm1", "thm2"])
    def test_matches_per_sample_loop(self, case, which):
        if case == "mimo-far":
            arc, params = mimo_arc(n=6, x_shift=30.0)
            c = constants(params)
        else:
            arc, params = s1_arc()
            c = constants(params)
            if case == "s1-shrunk":
                c = dataclasses.replace(c, r=0.05 * c.r)
        report = check_bound(arc, c, which)
        worst, first_entry, witness = per_sample_bound_check(arc, c, which)
        assert report.max_violation == pytest.approx(worst, rel=1e-12, abs=1e-15)
        assert report.first_entry_time == first_entry
        assert (report.worst_t, report.worst_j) == witness
        if case == "mimo-far":
            assert report.init_dist > 0.0 and first_entry > 0.0


class TestReconstruction:
    def test_s1_exact(self):
        arc, params = s1_arc()
        result = reconstruct_x(arc, params)
        assert result.max_deviation <= 1e-8

    def test_random_scenarios(self):
        rng = np.random.default_rng(47)
        for _ in range(3):
            params = random_params(rng)
            model = HybridFOModel(params)
            arc = hybrid.simulate(model, strict_initial_state(params),
                                  JumpPolicy(seed=3), (5.0, 500), 0.05)
            assert reconstruct_x(arc, params).max_deviation <= 1e-8

    def test_detects_inconsistent_plant(self):
        arc, params = s1_arc(horizon=(3.0, 1000))
        from hfo.model import Plant

        wrong = dataclasses.replace(
            params, plant=Plant(np.array([[-2.0]]), params.plant.b,
                                params.plant.c_out, params.plant.d))
        assert reconstruct_x(arc, wrong).max_deviation > 1e-3

    def test_matches_per_sample_oracle_n20(self):
        arc, params = mimo_arc(n=20, x_shift=1.0)
        assert np.any(np.linalg.eigvals(params.plant.a).imag != 0.0)
        result = reconstruct_x(arc, params)
        assert result.path == "eigenbasis"
        oracle = per_sample_reconstruction(arc, params)
        assert result.reconstructed.shape == oracle.shape
        assert np.max(np.abs(result.reconstructed - oracle)) <= 1e-12
        assert np.array_equal(result.times,
                              np.concatenate([s.times for s in arc.segments]))
        assert result.max_deviation <= 1e-8

    def test_defective_plant_takes_expm(self):
        # a Jordan block: no eigenbasis exists, cond(V) is about 9e15
        arc, params = plant_arc([[-1.0, 1.0], [0.0, -1.0]], [[0.0], [1.0]],
                                [[0.2, 0.0]], gamma=0.05)
        result = reconstruct_x(arc, params)
        assert result.path == "expm"
        assert result.eigenbasis_cond > linalg.EIGENBASIS_COND_LIMIT
        oracle = per_sample_reconstruction(arc, params)
        assert np.max(np.abs(result.reconstructed - oracle)) <= 1e-12
        assert result.max_deviation <= 1e-8

    def test_repeated_eigenvalue_takes_eigenbasis(self):
        arc, params = plant_arc(-2.0 * np.eye(3), [[1.0], [0.5], [-0.3]],
                                [[0.4, 0.2, 0.1]], gamma=0.4)
        result = reconstruct_x(arc, params)
        assert result.path == "eigenbasis"
        assert result.eigenbasis_cond == pytest.approx(1.0)
        oracle = per_sample_reconstruction(arc, params)
        assert np.max(np.abs(result.reconstructed - oracle)) <= 1e-12
        assert result.max_deviation <= 1e-8

    def test_working_memory_does_not_grow_with_the_arc(self):
        """The result holds one row per sample; on top of it, reconstruct_x
        keeps O(n^2) per block and a little per input period, never a
        temporary the size of the arc."""
        working = {}
        for horizon in (25.0, 100.0):
            arc, params = mimo_arc(n=20, horizon=(horizon, 10 ** 6),
                                   x_shift=1.0)
            tracemalloc.start()
            try:
                result = reconstruct_x(arc, params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.path == "eigenbasis"
            working[horizon] = peak - result.reconstructed.nbytes
        assert working[100.0] <= 1.5 * working[25.0]

    def test_detects_single_corrupted_sample(self):
        self.assert_detects_single_corrupted_sample("eigenbasis")

    def test_detects_single_corrupted_sample_expm(self, monkeypatch):
        # the same arc, with every eigenbasis sent to the fallback
        monkeypatch.setattr(linalg, "EIGENBASIS_COND_LIMIT", 0.0)
        self.assert_detects_single_corrupted_sample("expm")

    @staticmethod
    def assert_detects_single_corrupted_sample(path):
        arc, params = mimo_arc(n=20, x_shift=1.0)
        clean = reconstruct_x(arc, params)
        assert clean.path == path
        # the middle sample of a flow segment in a later input period
        i = len(arc.segments) * 2 // 3
        while len(arc.segments[i].times) < 3:
            i += 1
        seg = arc.segments[i]
        k = len(seg.times) // 2
        row = int(arc.offsets[i]) + k
        # push the stored value away from its reconstruction
        push = np.sign(seg.x[k, 0] - clean.reconstructed[row, 0]) or 1.0
        seg.x[k, 0] += push * 1e-6
        corrupted = reconstruct_x(arc, params)
        assert corrupted.path == path
        assert corrupted.max_deviation >= 1e-6


class TestRateCheck:
    def test_s1_contracts(self):
        arc, params = s1_arc()
        report = rate_check(arc, params)
        assert report.passed
        assert all(p.alpha == 4 for p in report.periods)

    @pytest.mark.parametrize("horizon", [(6.0, 1000), (0.5, 1000)],
                             ids=["six-periods", "no-period"])
    def test_one_fixed_point_call_per_arc(self, monkeypatch, horizon):
        calls = []
        solve = analysis.fixed_point_z

        def counted(y_s, params):
            calls.append(len(y_s))
            return solve(y_s, params)

        monkeypatch.setattr(analysis, "fixed_point_z", counted)
        arc, params = s1_arc(horizon)
        report = rate_check(arc, params)
        assert calls == [len(report.periods)]

    def test_margins_match_per_period_norms(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            params = random_params(rng)
            arc = hybrid.simulate(HybridFOModel(params),
                                  strict_initial_state(params),
                                  JumpPolicy(seed=7), (3.0, 300), 0.05)
            report = rate_check(arc, params)
            assert report.periods == per_period_rate_check(arc, params)

    def test_random_scenarios_contract(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            params = random_params(rng)
            model = HybridFOModel(params)
            arc = hybrid.simulate(model, strict_initial_state(params),
                                  JumpPolicy(seed=7), (3.0, 300), 0.05)
            report = rate_check(arc, params)
            assert report.passed, [
                (p.worst_step_margin, p.aggregate_margin)
                for p in report.periods]

    def test_detects_wrong_stepsize_claim(self):
        # same arc judged against a much smaller q must fail
        arc, params = s1_arc()
        report = rate_check(arc, params)
        q = gradient_constants(params)[2]
        assert q == pytest.approx(0.84)
        tight = [p for p in report.periods if p.worst_step_margin > -1.0]
        assert tight  # contraction margins are informative, not vacuous
