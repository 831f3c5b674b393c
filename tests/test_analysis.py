import dataclasses
import functools
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
    reconstruct_blocks,
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
from conftest import (grad_u_phi, jump_log, random_params, s1_params,
                      segment_start)


def s1_arc(horizon=(6.0, 1000), sample_dt=0.01):
    params = s1_params()
    model = HybridFOModel(params)
    zeta0 = strict_initial_state(params)
    policy = JumpPolicy(tau_c_reset="min", case3_order="g1_first", seed=1)
    return hybrid.simulate(model, zeta0, policy, horizon, sample_dt), params


def mimo_arc(seed=5, n=20, horizon=(4.0, 1000), x_shift=0.0, aligned=False):
    """Arc of a generated order-n plant, optionally started x_shift away
    from the strict initial plant state in every coordinate; ``aligned``
    draws timers on the tau_g grid (``random_params``' aligned_timers)."""
    params = random_params(np.random.default_rng(seed), n=n,
                           aligned_timers=aligned)
    zeta0 = strict_initial_state(params)
    zeta0 = dataclasses.replace(zeta0, x=zeta0.x + x_shift)
    arc = hybrid.simulate(HybridFOModel(params), zeta0,
                          JumpPolicy(seed=2), horizon, 0.02)
    return arc, params


def mimo_config(seed=5, n=20, horizon=(4.0, 1000), x_shift=0.0,
                aligned=False) -> dict:
    """The config document of ``mimo_arc``'s run, for the CLI."""
    params = random_params(np.random.default_rng(seed), n=n,
                           aligned_timers=aligned)
    zeta0 = strict_initial_state(params)
    plant, obj, box = params.plant, params.objective, params.input_set
    input_set = ({"kind": "box", "lo": box.lo.tolist(), "hi": box.hi.tolist()}
                 if isinstance(box, Box) else
                 {"kind": "ball", "center": box.center.tolist(),
                  "radius": box.radius})
    return {
        "plant": {"A": plant.a.tolist(), "B": plant.b.tolist(),
                  "C": plant.c_out.tolist(), "d": plant.d.tolist()},
        "objective": {"Q_u": obj.q_u.tolist(), "Q_y": obj.q_y.tolist(),
                      "y_hat": obj.y_hat.tolist(), "gamma": obj.gamma},
        "timers": dataclasses.asdict(params.timers),
        "input_set": input_set,
        "policy": {"seed": 2},
        "horizon": {"T": horizon[0], "J": horizon[1]},
        "sample_dt": 0.02,
        "init": {"mode": "strict", "zeta0": {
            "x": (zeta0.x + x_shift).tolist(), "u": zeta0.u.tolist(),
            "y_s": zeta0.y_s.tolist(), "z": zeta0.z.tolist(),
            "tau_c": zeta0.tau_c, "tau_g": zeta0.tau_g}},
    }


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


def rebuilt(arc, params):
    """The rows ``reconstruct_blocks`` yields, concatenated, once their
    slices are checked to tile the arc's rows 0..N in order."""
    rows, blocks = zip(*analysis.reconstruct_blocks(arc, params))
    assert [r.start for r in rows] == [0] + [r.stop for r in rows[:-1]]
    assert rows[-1].stop == len(arc.times)
    return np.concatenate(blocks)


def per_sample_reconstruction(arc, params):
    """Oracle: the anchored variation-of-constants form evaluated one sample
    at a time, x = e^{A dt} x_a + A^{-1}(e^{A dt} - I) B u, with the
    exponential and the solve taken afresh for every sample."""
    a, b = params.plant.a, params.plant.b
    eye = np.eye(a.shape[0])
    first = segment_start(arc, 0)
    anchor_t, anchor_x, u_p = 0.0, first.x.copy(), first.u.copy()

    def at(t):
        e = scipy.linalg.expm(a * (t - anchor_t))
        return e @ anchor_x + np.linalg.solve(a, (e - eye) @ (b @ u_p))

    recon, log = [], jump_log(arc)
    for seg in arc.segments:
        recon.extend(at(t) for t in seg.times)
        if seg.j < len(log) and log[seg.j][3] == "g2":
            t, j, _, _ = log[seg.j]
            anchor_x, anchor_t = at(t), t
            u_p = segment_start(arc, j + 1).u.copy()
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
    init_dist = dist_to_A(segment_start(arc, 0).x, c)
    worst, witness, first_entry = -np.inf, None, None
    for seg in arc.segments:
        for k, t in enumerate(seg.times):
            lhs = dist_to_A(arc.x[seg.rows.start + k], c)
            gap = lhs - max(float(bound_fn(t, init_dist, c)), 0.0)
            if gap > worst:
                worst, witness = gap, (float(t), seg.j)
            if first_entry is None and lhs <= 1e-6:
                first_entry = float(t)
    return worst, first_entry, witness


def one_shot_bound_check(arc, c, which):
    """Oracle: check_bound's report from whole-arc arrays, as it was computed
    before it went by row blocks: np.linalg.norm over every sample at once
    and np.argmax over every gap (the first NaN, else the first maximum)."""
    bound_fn = {"thm1": bound_thm1, "thm2": bound_thm2}[which]
    t = arc.times
    lhs = np.maximum(np.linalg.norm(arc.x - c.x_tilde, axis=-1) - c.r, 0.0)
    init_dist = float(lhs[0])
    gap = lhs - np.maximum(bound_fn(t, init_dist, c), 0.0)
    worst = int(np.argmax(gap))
    inside = np.flatnonzero(lhs <= 1e-6)
    first_entry = float(t[inside[0]]) if inside.size else None
    worst_j = int(np.searchsorted(arc.offsets, worst, side="right")) - 1
    return analysis.BoundReport(which, float(gap[worst]), first_entry,
                                init_dist, float(t[worst]), worst_j)


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
    """Oracle: estimate_M's (value, t_at_max, sup) with an SVD at every point
    of the same grid, built from the same table of powers, and with the same
    tie rule; like estimate_M, a grid value that is not finite raises
    ValueError, and nothing warns."""
    a = np.asarray(a, dtype=float)
    grid_points = analysis.M_GRID_POINTS
    size = min(analysis._STACK_BLOCK // 2, grid_points)
    h = analysis.M_HORIZON / rho / grid_points
    values = np.empty(grid_points + 1)
    values[0] = 1.0
    with np.errstate(all="ignore"):
        powers = [linalg.mat_exp(a, h)]
        for _ in range(1, size):
            powers.append(powers[0] @ powers[-1])
        powers = np.array(powers)
        e = np.eye(a.shape[0])
        for first in range(0, grid_points, size):
            idx = np.arange(first + 1, min(first + size, grid_points) + 1)
            mats = powers[:len(idx)] @ e
            if np.isfinite(mats).all():
                norms = np.linalg.svd(mats, compute_uv=False)
                values[idx] = norms[:, 0] * np.exp(rho * (idx * h))
            else:
                values[idx] = np.inf
            e = powers[-1] @ e
    if not np.isfinite(values).all():
        raise ValueError(
            f"the overshoot grid is not finite: ||e^(At)|| e^(rho t) "
            f"overflows on [0, {analysis.M_HORIZON / rho:g}]")
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


# plants (A, rho) at the edges of the overshoot grid, by test id
EDGE_CASES = {
    "s1": ([[-1.0]], 1.0),  # every grid value ties with t = 0
    "minus-identity-20": (-np.eye(20), 1.0),  # every value ties, at n = 20
    # Jordan block: v(t) = O(t)
    "jordan": ([[-1.0, 1.0], [0.0, -1.0]], 1.0),
    "upper-triangular": ([[-1.0, 4.0], [0.0, -2.0]], 1.0),  # an overshoot
    "s1-rho-5": ([[-1.0]], 5.0),  # v(t) rises to the grid edge
    "underflow": ([[-1000.0]], 1e-3),  # E underflows to 0
    # E = 0 where the bound takes levels
    "underflow-2x2": (-1000.0 * np.eye(2), 1e-3),
    # E'E overflows; E does not
    "gram-overflow": ([[60.0, 1.0], [0.0, 59.0]], 1.0),
    # E overflows to inf: the grid is not finite, and both raise ValueError
    "chain-overflow": ([[400.0]], 1.0),
    "chain-overflow-2x2": ([[400.0, 1.0], [0.0, 399.0]], 1.0),
    # mu2 > 0 (transient growth), unlike the generator's plants: a shifted
    # Jordan block, v(t) = O(t^5) rising to the grid edge
    "shifted-jordan-6": (-np.eye(6) + 1.5 * np.eye(6, k=1), 1.0),
    # v(t) peaks at t = 0.75, in the first block, and falls after it, so
    # every block but two is skipped
    "early-peak": ([[-1.0, 20.0], [0.0, -2.0]], 0.1),
}


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

    @pytest.mark.parametrize("cap", [0, 1, 3])
    def test_rows_at_the_iteration_cap_are_their_last_iterates(
            self, monkeypatch, cap):
        # a row still moving at the cap goes back into z as it stands, so
        # the certificate names the residual of its last iterate
        rng = np.random.default_rng(53)
        params = random_params(rng)
        while params.plant.m < 2:  # m = 1 may land on its fixed point at once
            params = random_params(rng)
        obj, input_set = params.objective, params.input_set
        y_s = np.random.default_rng(59).standard_normal((4, params.plant.p))
        offsets = (params.h.T @ (obj.q_y @ (y_s - obj.y_hat).T)).T
        eigs = params.curvature.q_u
        gamma = 2.0 / (eigs[0] + eigs[1])
        resid = []
        for offset in offsets:  # each row alone, for cap iterations
            z = input_set.project(np.zeros_like(offset))
            for _ in range(cap):
                z = input_set.project(z - gamma * (obj.q_u @ z + offset))
            resid.append(np.linalg.norm(z - input_set.project(
                z - obj.gamma * (obj.q_u @ z + offset))))
        monkeypatch.setattr(analysis, "PGD_MAX_ITER", cap)
        with pytest.raises(RuntimeError, match=f"got {max(resid):.3e}"):
            fixed_point_z(y_s, params)


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

    @pytest.mark.parametrize("grid_points, horizon, seed", [
        # fewer points than one block
        pytest.param(7, 10.0, None, id="7-10.0"),
        # a partial last block, maximizer inside a full one
        pytest.param(257, 10.0, None, id="257-10.0"),
        # v(t) still rising: the maximizer is the last grid point
        pytest.param(257, 0.3, None, id="257-0.3"),
        # the full grid at n = 20, whose chain of 2000 products the
        # table of powers does not share
        *(pytest.param(analysis.M_GRID_POINTS, analysis.M_HORIZON, seed,
                       id=f"mimo-{seed}") for seed in range(4)),
    ])
    def test_blocks_match_unblocked_loop(self, monkeypatch, grid_points,
                                         horizon, seed):
        monkeypatch.setattr(analysis, "M_GRID_POINTS", grid_points)
        monkeypatch.setattr(analysis, "M_HORIZON", horizon)
        if seed is None:
            a, rho = np.array([[-1.0, 4.0], [0.0, -2.0]]), 1.0
        else:
            a = mimo_plant(seed)
            rho = slowest_rate(a)
        est = estimate_M(a, rho)
        sup, t_at = unblocked_estimate(a, rho, grid_points, horizon)
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

    @pytest.mark.parametrize("a, rho", list(EDGE_CASES.values()),
                             ids=list(EDGE_CASES))
    def test_matches_all_svd_on_edge_cases(self, a, rho):
        assert (estimate_outcome(estimate_M, a, rho)
                == estimate_outcome(all_svd_estimate, a, rho))

    @pytest.mark.parametrize("case", ["chain-overflow", "chain-overflow-2x2"])
    def test_non_finite_grid_raises(self, case):
        # an inf grid value once read as NaN, and [[400]] as 1.05, "no
        # overshoot"
        with pytest.raises(ValueError, match="overshoot grid is not finite"):
            estimate_M(np.array(EDGE_CASES[case][0]), EDGE_CASES[case][1])

    def test_tie_allowance_keeps_the_earliest_maximizer(self, monkeypatch):
        # v(t) levels off within the tie allowance from t ~ 2.3 to the grid
        # edge; with no pad, only the tie factor in the pruning rule keeps
        # a block's earlier ties from being ruled out by its top point
        monkeypatch.setattr(analysis, "M_BOUND_PAD", 0.0)
        a = np.array([[-1.0, 1.0], [0.0, -11.0]])
        est = estimate_M(a, 1.0)
        assert (est.value, est.t_at_max, est.sup) == all_svd_estimate(a, 1.0)
        assert 2.0 < est.t_at_max < 2.5

    @pytest.mark.parametrize("a, rho, overflows", [
        ([[-1.0]], 0.5, False),  # v(t) falls: the maximizer is t = 0
        ([[-1.0]], 2.0, False),  # v(t) rises to the grid edge
        ([[0.3]], 0.2, False),  # an unstable scalar, rising to e^50
        ([[-2.5]], 1e-2, False),
        ([[-1000.0]], 1e-3, False),  # e^{Ah} underflows to 0
        ([[400.0]], 1.0, True),  # the chain overflows
    ])
    def test_scalar_grid_matches_unblocked_loop(self, monkeypatch, a, rho,
                                                overflows):
        a = np.array(a)
        with np.errstate(all="ignore"):
            sup, t_at = unblocked_estimate(a, rho, analysis.M_GRID_POINTS,
                                           analysis.M_HORIZON)
        # at n = 1 every grid value is |e| e^(rho t), taken in one pass:
        # no bound and no SVD
        monkeypatch.setattr(linalg, "log_norm_bound", None)
        monkeypatch.setattr(np.linalg, "svd", None)
        if overflows:  # the oracle skips the values that overflow
            with pytest.raises(ValueError, match="overshoot grid is not finite"):
                estimate_M(a, rho)
            return
        est = estimate_M(a, rho)
        assert est.sup == pytest.approx(sup, rel=1e-12)
        assert est.t_at_max == t_at

    def test_underflow_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in ([[-1000.0]], -1000.0 * np.eye(2)):
                assert estimate_M(np.array(a), 1e-3).t_at_max == 0.0
        # nor does an overflow, which raises ValueError, as on the all-SVD
        # grid
        for a, rho in EDGE_CASES.values():
            want, _ = estimate_outcome(all_svd_estimate, a, rho)
            assert estimate_outcome(estimate_M, a, rho) == (want, [])

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

    @staticmethod
    def squared_matrices(monkeypatch):
        """Counts the matrices linalg.log_norm_bound squares at levels 2 and
        up: a matrix is squared at level k when its bound at level k - 1 is
        not below its cutoff."""
        seen = []
        bound = linalg.log_norm_bound

        def counted(e, levels, cutoff):
            seen.append(sum(
                np.count_nonzero(~(bound(e, k - 1, cutoff) < cutoff))
                for k in range(2, levels + 1)))
            return bound(e, levels, cutoff)

        monkeypatch.setattr(linalg, "log_norm_bound", counted)
        return seen

    def test_work_on_generator_plants(self, monkeypatch):
        # a table of powers takes a mean of 1105 squarings and a median of 4
        # SVDs per call on these plants; without the cutoff from the block
        # starts, 4999 squarings and a median of 89 SVDs (at most 653)
        squared = self.squared_matrices(monkeypatch)
        svds = self.svd_matrices(monkeypatch)
        per_call = []
        for seed in range(40):
            a = mimo_plant(seed)
            estimate_M(a, slowest_rate(a))
            per_call.append((sum(squared), sum(svds)))
            squared.clear()
            svds.clear()
        squares, svd_counts = np.array(per_call).T
        assert squares.mean() <= 2000
        assert np.median(svd_counts) <= 10
        assert 0 < svd_counts.max() < 0.1 * analysis.M_GRID_POINTS

    def test_skips_most_blocks_on_generator_plants(self, monkeypatch):
        # a block whose bound ||P_k|| ||E_s|| e^(rho t) stays below the best
        # exact value gets no product P_(1..K) E_s: a median of 23 of the 40
        # blocks are formed on these plants, where forming all takes 40
        products = []
        matmul = np.matmul

        def counted(*args, **kwargs):
            if np.ndim(args[0]) == 3 and np.ndim(args[1]) == 2:
                products.append(len(args[0]))
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        formed = []
        for seed in range(40):
            a = mimo_plant(seed)
            products.clear()
            estimate_M(a, slowest_rate(a))
            formed.append(len(products))
        assert analysis.M_GRID_POINTS // (analysis._STACK_BLOCK // 2) == 40
        assert np.median(formed) <= 25

    def test_scalar_plant_builds_the_grid_once(self, monkeypatch):
        # each power P_k = P_1 P_(k-1) and each block start P_K E_s is one
        # product, made once into its place; the grid P_(1..K) E_s of every
        # block is then one elementwise pass, with no matrix product
        products = []
        matmul = np.matmul

        def counted(*args, **kwargs):
            products.append((np.shape(args[0]), "out" in kwargs))
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        size = analysis._STACK_BLOCK // 2
        blocks = analysis.M_GRID_POINTS // size
        for rho in (1.0, 5.0):  # every value ties; v(t) rises to the edge
            products.clear()
            estimate_M(np.array([[-1.0]]), rho)
            assert products == [((1, 1), True)] * (size - 1 + blocks - 1)

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

    def test_memory_stays_near_three_blocks(self):
        # the table of powers, one block and their bound's two temporaries
        # peak at 0.67 MB here; more would set the peak of a whole n = 20
        # verify at T = 25
        a = mimo_plant(7)
        rho = slowest_rate(a)
        estimate_M(a, rho)  # lazy imports and caches out of the count
        tracemalloc.start()
        try:
            estimate_M(a, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.72e6


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

    @pytest.mark.parametrize("case", ["s1-inside", "s1-shrunk", "mimo-far",
                                      "mimo-far-n20"])
    @pytest.mark.parametrize("which", ["thm1", "thm2"])
    def test_matches_per_sample_loop(self, monkeypatch, case, which):
        if case == "mimo-far-n20":
            # blocks of 50 rows: the first entry and the witness lie in
            # later blocks
            monkeypatch.setattr(analysis, "_BOUND_ELEMENTS", 50 * 20)
            arc, params = mimo_arc(n=20, horizon=(25.0, 1000), x_shift=100.0)
            c = constants(params)
        elif case == "mimo-far":
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
        if case.startswith("mimo-far"):
            assert report.init_dist > 0.0 and first_entry > 0.0
        if case == "mimo-far-n20":
            rows = [int(np.flatnonzero(arc.times == t)[0])
                    for t in (first_entry, witness[0])]
            assert min(rows) >= 50

    @pytest.mark.parametrize("elements", [None, 1, 50 * 20],
                             ids=["module-blocks", "one-row", "50-rows-n20"])
    @pytest.mark.parametrize("case", ["s1-inside", "s1-shrunk", "mimo-far-n20",
                                      "mimo-nan-row"])
    @pytest.mark.parametrize("which", ["thm1", "thm2"])
    def test_streamed_report_keeps_the_one_shot_bits(self, monkeypatch,
                                                     elements, case, which):
        if elements is not None:
            monkeypatch.setattr(analysis, "_BOUND_ELEMENTS", elements)
        if case.startswith("s1"):
            arc, params = s1_arc()
            c = constants(params)
            if case == "s1-shrunk":
                c = dataclasses.replace(c, r=0.05 * c.r)
        else:
            arc, params = mimo_arc(n=20, horizon=(25.0, 1000), x_shift=100.0)
            c = constants(params)
            if case == "mimo-nan-row":  # past the module's first block
                arc.x[len(arc.times) * 3 // 4] = np.nan
        report = check_bound(arc, c, which)
        assert repr(report) == repr(one_shot_bound_check(arc, c, which))
        if case == "mimo-nan-row":
            assert math.isnan(report.max_violation)
            assert report.worst_t == arc.times[len(arc.times) * 3 // 4]

    def test_working_memory_does_not_grow_with_the_arc(self):
        """check_bound keeps one block of rows at a time: its whole peak
        stays flat as the arc grows fourfold."""
        peaks = {}
        for horizon in (25.0, 100.0):
            arc, params = mimo_arc(n=20, horizon=(horizon, 10 ** 6),
                                   x_shift=1.0)
            c = constants(params)
            tracemalloc.start()
            try:
                check_bound(arc, c, "thm2")
                peaks[horizon] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[100.0] <= 1.5 * peaks[25.0]


class TestReconstruction:
    def test_s1_exact(self):
        arc, params = s1_arc()
        result = reconstruct_x(arc, params)
        assert result.max_deviation <= 1e-8

    def test_nan_row_fails(self):
        # a NaN deviation wins and holds, as a NaN gap does in check_bound,
        # so the arc fails both checks (max() kept 0.0 against a NaN)
        arc, params = s1_arc(horizon=(30.0, 1000))
        arc.x[300] = np.nan
        result = reconstruct_x(arc, params)
        assert math.isnan(result.max_deviation)
        assert not result.max_deviation <= analysis.RECONSTRUCTION_TOL
        assert not check_bound(arc, constants(params), "thm2").passed

    @pytest.mark.parametrize("make", [
        lambda: s1_arc(horizon=(30.0, 1000)),
        lambda: mimo_arc(horizon=(25.0, 1000)),
        lambda: plant_arc(np.array([[-1.0, 1.0], [0.0, -1.0]]),
                          np.array([[1.0], [0.0]]), np.array([[0.2, 0.0]]),
                          0.05)], ids=["s1", "mimo", "jordan"])
    def test_finite_deviation_is_the_blockwise_max(self, make):
        arc, params = make()
        deviations = [float(np.max(np.abs(x_rows - arc.x[rows])))
                      for rows, x_rows in reconstruct_blocks(arc, params)]
        assert len(deviations) > 1
        assert reconstruct_x(arc, params).max_deviation == functools.reduce(
            max, deviations, 0.0)

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
        recon = rebuilt(arc, params)
        assert recon.shape == oracle.shape
        assert np.max(np.abs(recon - oracle)) <= 1e-12
        assert result.max_deviation <= 1e-8

    def test_defective_plant_takes_expm(self):
        # a Jordan block: no eigenbasis exists, cond(V) is about 9e15
        arc, params = plant_arc([[-1.0, 1.0], [0.0, -1.0]], [[0.0], [1.0]],
                                [[0.2, 0.0]], gamma=0.05)
        result = reconstruct_x(arc, params)
        assert result.path == "expm"
        assert result.eigenbasis_cond > linalg.EIGENBASIS_COND_LIMIT
        oracle = per_sample_reconstruction(arc, params)
        assert np.max(np.abs(rebuilt(arc, params) - oracle)) <= 1e-12
        assert result.max_deviation <= 1e-8

    def test_repeated_eigenvalue_takes_eigenbasis(self):
        arc, params = plant_arc(-2.0 * np.eye(3), [[1.0], [0.5], [-0.3]],
                                [[0.4, 0.2, 0.1]], gamma=0.4)
        result = reconstruct_x(arc, params)
        assert result.path == "eigenbasis"
        assert result.eigenbasis_cond == pytest.approx(1.0)
        oracle = per_sample_reconstruction(arc, params)
        assert np.max(np.abs(rebuilt(arc, params) - oracle)) <= 1e-12
        assert result.max_deviation <= 1e-8

    @pytest.mark.parametrize("a, b, c_out, pairs", [
        # one real mode and one complex pair, coupled
        ([[-1.0, 2.0, 0.0], [-2.0, -1.0, 0.5], [0.0, 0.0, -0.5]],
         [[1.0], [0.5], [-0.3]], [[0.4, 0.2, 0.1]], 1),
        # a repeated complex pair
        (np.kron(np.eye(2), [[-1.0, 2.0], [-2.0, -1.0]]),
         [[1.0], [0.5], [-0.3], [0.2]], [[0.4, 0.2, 0.1, -0.3]], 2),
    ], ids=["real-and-pair", "repeated-pair"])
    def test_complex_pairs_match_the_oracle(self, a, b, c_out, pairs):
        arc, params = plant_arc(a, b, c_out, gamma=0.4)
        lam = params.eigen[0]
        assert np.sum(lam.imag > 0.0) == np.sum(lam.imag < 0.0) == pairs
        result = reconstruct_x(arc, params)
        assert result.path == "eigenbasis"
        oracle = per_sample_reconstruction(arc, params)
        assert np.max(np.abs(rebuilt(arc, params) - oracle)) <= 1e-12
        assert result.max_deviation <= 1e-8

    def test_only_the_start_and_the_inputs_feed_the_check(self):
        # a corrupted stored sample moves no other reconstructed row
        arc, params = mimo_arc(n=20, x_shift=1.0)
        clean = rebuilt(arc, params)
        row = len(arc.times) // 2
        arc.x[row] += 1.0
        corrupted = reconstruct_x(arc, params)
        assert corrupted.max_deviation >= 1.0 - 1e-8
        others = np.arange(len(arc.times)) != row
        assert np.array_equal(rebuilt(arc, params)[others], clean[others])

    @pytest.mark.parametrize("block", [None, 4],
                             ids=["one-chunk", "chunks-of-4"])
    def test_one_eigenbasis_solve_per_chunk_of_periods(self, monkeypatch,
                                                       block):
        arc, params = mimo_arc(n=20, x_shift=1.0)
        if block is not None:
            monkeypatch.setattr(analysis, "_STACK_BLOCK", block)
        size, vecs = analysis._STACK_BLOCK, params.eigen[1]
        solves = []
        solve = np.linalg.solve

        def counted(a, b):
            solves.append(a is vecs)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        reconstruct_x(arc, params)
        counts = list(solves)
        recon = rebuilt(arc, params)  # in the same chunks
        monkeypatch.undo()
        periods = len(arc.periods())
        assert periods > 2 * 4
        assert counts == [True] * -(-periods // size)
        oracle = per_sample_reconstruction(arc, params)
        assert np.max(np.abs(recon - oracle)) <= 1e-12

    def test_working_memory_does_not_grow_with_the_arc(self):
        """reconstruct_x keeps O(n^2) per block and a little per input
        period, and no row per sample: its whole peak, with nothing
        subtracted, stays flat as the arc grows fourfold."""
        peaks = {}
        for horizon in (25.0, 100.0):
            arc, params = mimo_arc(n=20, horizon=(horizon, 10 ** 6),
                                   x_shift=1.0)
            tracemalloc.start()
            try:
                result = reconstruct_x(arc, params)
                peaks[horizon] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.path == "eigenbasis"
        assert peaks[100.0] <= 1.5 * peaks[25.0]

    def test_detects_single_corrupted_sample(self):
        self.assert_detects_single_corrupted_sample("eigenbasis")

    def test_detects_single_corrupted_sample_expm(self, monkeypatch):
        # the same arc, with every eigenbasis sent to the fallback
        monkeypatch.setattr(linalg, "EIGENBASIS_COND_LIMIT", 0.0)
        self.assert_detects_single_corrupted_sample("expm")

    @staticmethod
    def assert_detects_single_corrupted_sample(path):
        arc, params = mimo_arc(n=20, x_shift=1.0)
        assert reconstruct_x(arc, params).path == path
        clean = rebuilt(arc, params)
        # the middle sample of a flow segment in a later input period
        i = len(arc.segments) * 2 // 3
        while arc.offsets[i + 1] - arc.offsets[i] < 3:
            i += 1
        row = int(arc.offsets[i] + arc.offsets[i + 1]) // 2
        # push the stored value away from its reconstruction
        push = np.sign(arc.x[row, 0] - clean[row, 0]) or 1.0
        arc.x[row, 0] += push * 1e-6
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
