"""Acceptance gate: one test per shipped criterion, each printing a single
PASS line with its measured worst-case margin.  Tolerances are pinned."""

import dataclasses
import math

import numpy as np
import pytest

from hfo import analysis, hybrid
from hfo.analysis import check_bound, constants, dist_to_A, rate_check, reconstruct_x
from hfo.model import (
    Ball,
    Box,
    HybridFOModel,
    JumpPolicy,
    gradient_constants,
    make_state,
    strict_initial_state,
    validate,
)
from hfo.robustness import Perturbation, robustness_sweep
from conftest import (
    central_difference_gradient,
    grad_u_phi,
    jump_log,
    phi,
    random_params,
    random_point,
    random_spd,
    rk4_lti,
    s1_params,
    state_at,
)


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})", flush=True)


def s1_policy(seed=1):
    return JumpPolicy(tau_c_reset="min", case3_order="g1_first", seed=seed)


def test_01_integrator_against_rk4_reference():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        params = random_params(rng, n=int(rng.integers(1, 5)))
        plant = params.plant
        x0 = rng.standard_normal(plant.n)
        u = rng.standard_normal(plant.m)
        dt = float(rng.choice([0.25, 0.5, 1.0]))
        # the flow step hybrid.simulate takes between samples
        x_dt = HybridFOModel(params).flow_x(x0, u, dt)
        err = np.max(np.abs(x_dt - rk4_lti(plant.a, plant.b, x0, u, dt, h=1e-5)))
        worst = max(worst, float(err))
    assert worst <= 1e-7
    report(1, f"50 systems, max abs error {worst:.3e} <= 1e-7")


def test_02_gradient_against_finite_differences():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        q_u = random_spd(rng, m)
        q_y = random_spd(rng, p)
        h = rng.standard_normal((p, m))
        d = rng.standard_normal(p)
        y_hat = rng.standard_normal(p)
        from hfo.model import Objective

        obj = Objective(q_u, q_y, y_hat, 0.1)
        z = rng.standard_normal(m)

        def f(v):
            return phi(v, h @ v + d, obj)

        exact = grad_u_phi(z, h @ z + d, obj, h)
        fd = central_difference_gradient(f, z, h=1e-6)
        rel = float(np.linalg.norm(exact - fd)
                    / max(1.0, np.linalg.norm(exact)))
        worst = max(worst, rel)
    assert worst <= 1e-6
    report(2, f"100 instances, max relative error {worst:.3e} <= 1e-6")


def _simulated_instances(count, seed, horizon_periods=2.5, sample_dt=0.05,
                         aligned_timers=False):
    rng = np.random.default_rng(seed)
    for i in range(count):
        params = random_params(rng, aligned_timers=aligned_timers)
        assert validate(params, strict_initial_state(params)).ok
        model = HybridFOModel(params)
        # grid-aligned resets must stay on the grid; "min" keeps them there
        reset = "min" if aligned_timers else "uniform"
        policy = JumpPolicy(tau_c_reset=reset, seed=1000 + i)
        horizon = (horizon_periods * params.timers.tau_c_max, 10_000)
        arc = hybrid.simulate(model, strict_initial_state(params), policy,
                              horizon, sample_dt)
        yield params, arc


def test_03_per_step_and_aggregate_contraction():
    assert (analysis.STEP_TOL, analysis.AGGREGATE_TOL) == (1e-12, 1e-9)
    worst_step, worst_agg, periods = -math.inf, -math.inf, 0
    for params, arc in _simulated_instances(100, seed=103):
        rates = rate_check(arc, params)
        assert rates.passed, [
            (p.worst_step_margin, p.aggregate_margin) for p in rates.periods]
        for p in rates.periods:
            worst_step = max(worst_step, p.worst_step_margin)
            worst_agg = max(worst_agg, p.aggregate_margin)
        periods += len(rates.periods)
    assert periods >= 100
    report(3, f"100 instances / {periods} periods, worst step margin "
              f"{worst_step:.3e} <= 1e-12, worst aggregate {worst_agg:.3e} "
              "<= 1e-9")


def test_04_contraction_constant_range():
    rng = np.random.default_rng(104)
    qs = []
    for _ in range(200):
        params = random_params(rng)
        q = gradient_constants(params)[2]
        assert 0.0 < q < 1.0
        qs.append(q)
    # negative control: stepsize beyond the admissible range gives q >= 1
    import dataclasses

    params = random_params(rng)
    obj = params.objective
    h = params.h
    big_l = float(np.linalg.eigvalsh(obj.q_u + h.T @ obj.q_y @ h)[-1])
    mu = float(np.linalg.eigvalsh(obj.q_u)[0])
    gamma_bad = 1.5 * max(2.0 / (mu + big_l), 2.0 * mu / big_l ** 2)
    bad = dataclasses.replace(
        params, objective=dataclasses.replace(obj, gamma=gamma_bad))
    q_bad = gradient_constants(bad)[2]
    assert q_bad >= 1.0
    report(4, f"200 instances, q in [{min(qs):.4f}, {max(qs):.4f}] subset "
              f"(0,1); negative control q = {q_bad:.3f} >= 1")


def test_05_reconstruction():
    worst = reconstruct_x(*_s1_arc(horizon=(20.0, 10_000))).max_deviation
    rng = np.random.default_rng(105)
    for i in range(20):
        params = random_params(rng)
        model = HybridFOModel(params)
        arc = hybrid.simulate(model, strict_initial_state(params),
                              JumpPolicy(tau_c_reset="uniform", seed=i),
                              (20.0, 10_000), 0.05)
        worst = max(worst, reconstruct_x(arc, params).max_deviation)
    assert worst <= 1e-8
    report(5, f"S1 + 20 random scenarios over 20 s, max deviation "
              f"{worst:.3e} <= 1e-8")


def _s1_arc(horizon, sample_dt=0.05):
    params = s1_params()
    arc = hybrid.simulate(HybridFOModel(params),
                          strict_initial_state(params), s1_policy(),
                          horizon, sample_dt)
    return arc, params


def _bound_suite(which, seed, init_fn):
    """Run S1 plus 20 random scenarios against one convergence bound."""
    worst, worst_tail = -math.inf, 0.0
    arc, params = _s1_arc(horizon=(40.0, 10_000))
    c = constants(params)
    rep = check_bound(arc, c, which)
    worst = max(worst, rep.max_violation)
    worst_tail = max(worst_tail, dist_to_A(state_at(arc, -1).x, c))

    rng = np.random.default_rng(seed)
    for i in range(20):
        params = random_params(rng)
        c = constants(params)
        zeta0 = init_fn(params, c, rng)
        model = HybridFOModel(params)
        arc = hybrid.simulate(model, zeta0,
                              JumpPolicy(tau_c_reset="uniform", seed=i),
                              (40.0 / c.rho, 10_000), 0.05)
        rep = check_bound(arc, c, which)
        worst = max(worst, rep.max_violation)
        worst_tail = max(worst_tail,
                         dist_to_A(state_at(arc, -1).x, c))
    return worst, worst_tail


def _strict_init_in_target(params, c, rng):
    # restricted initialization with the plant state inside the target set
    n = params.plant.n
    v = rng.standard_normal(n)
    v *= rng.uniform(0.0, 0.9) * c.r / np.linalg.norm(v)
    tm = params.timers
    u = params.input_set.project(random_point(params.input_set, rng))
    return make_state(c.x_tilde + v, u, params.h @ u + params.plant.d, u,
                      rng.uniform(tm.tau_c_min, tm.tau_c_max), tm.tau_g_comp)


def _arbitrary_init(params, c, rng):
    # timers anywhere in their valid ranges, decoupled u/z/y_s, far plant state
    tm = params.timers
    n, p = params.plant.n, params.plant.p
    v = rng.standard_normal(n)
    v *= (c.r + rng.uniform(0.0, 3.0)) / np.linalg.norm(v)
    return make_state(
        c.x_tilde + v,
        random_point(params.input_set, rng),
        params.objective.y_hat + rng.standard_normal(p),
        random_point(params.input_set, rng),
        rng.uniform(0.0, tm.tau_c_max),
        rng.uniform(0.0, tm.tau_g_comp),
    )


def test_06_restricted_initialization_bound():
    worst, worst_tail = _bound_suite("thm1", 106, _strict_init_in_target)
    assert worst <= 1e-9
    assert worst_tail <= 1e-6
    report(6, f"S1 + 20 scenarios over [0, 40/rho], max violation "
              f"{worst:.3e} <= 1e-9, final distance {worst_tail:.3e} <= 1e-6")


def test_07_arbitrary_initialization_bound():
    worst, worst_tail = _bound_suite("thm2", 107, _arbitrary_init)
    assert worst <= 1e-9
    report(7, f"S1 + 20 scenarios with arbitrary initial states, max "
              f"violation {worst:.3e} <= 1e-9")


def test_08_non_zeno_structure_and_s1_schedule():
    # full check, dwell bound included, on scenarios whose tau_c resets sit
    # on the gradient-timer grid (the bound only holds on that subclass)
    for params, arc in _simulated_instances(30, seed=108,
                                            aligned_timers=True):
        zeno = hybrid.check_non_zeno(arc)
        assert zeno.passed, zeno.violations
        assert zeno.max_jumps_per_instant <= 2
        dwell = min(params.timers.tau_g_comp, params.timers.tau_c_min)
        if zeno.min_flow_gap is not None:
            assert zeno.min_flow_gap >= dwell - 1e-12
    # structural non-Zeno properties hold for misaligned timers too
    for params, arc in _simulated_instances(10, seed=208):
        zeno = hybrid.check_non_zeno(dataclasses.replace(arc, min_dwell=0.0))
        assert zeno.passed, zeno.violations
        assert zeno.max_jumps_per_instant <= 2

    arc, _ = _s1_arc(horizon=(1.5, 10_000), sample_dt=0.01)
    log = jump_log(arc)
    times = [t for t, _, _, _ in log[:5]]
    np.testing.assert_allclose(times, [0.25, 0.5, 0.75, 1.0, 1.0], atol=1e-12)
    assert [case for _, _, case, _ in log[3:5]] == ["G3-first-half",
                                                   "G3-second-half"]
    assert hybrid.jump_stats(arc).alpha[0] == 4
    report(8, "30 aligned + 10 misaligned arcs non-Zeno (<= 2 jumps/instant, "
              "dwell respected on the aligned subclass); S1 schedule "
              "t = 0.25/0.5/0.75/1.0 with composite jump, alpha(0) = 4")


def test_09_projection_properties():
    rng = np.random.default_rng(109)
    worst_idem, worst_exp = 0.0, -math.inf
    for _ in range(1000):
        m = int(rng.integers(1, 4))
        half = rng.uniform(0.2, 2.0, m)
        center = rng.standard_normal(m)
        for input_set in (Box(center - half, center + half),
                          Ball(center, float(rng.uniform(0.3, 2.0)))):
            v, w = rng.standard_normal((2, m)) * 4.0
            pv, pw = input_set.project(v), input_set.project(w)
            worst_idem = max(worst_idem, float(
                np.linalg.norm(input_set.project(pv) - pv)))
            worst_exp = max(worst_exp, float(
                np.linalg.norm(pv - pw) - np.linalg.norm(v - w)))
    assert worst_idem <= 1e-12
    assert worst_exp <= 1e-12
    report(9, f"1000 pairs per set kind, idempotence defect {worst_idem:.3e}, "
              f"expansiveness margin {worst_exp:.3e} <= 1e-12")


def test_10_robustness_trend():
    pert = Perturbation(
        a_hat=np.array([[0.05]]), b_hat=np.array([[0.02]]),
        h_hat=np.array([[0.02]]), kappa_c=0.1, kappa_g=0.05,
        theta_g_comp=0.02, theta_c_min=0.02, theta_c_max=0.02)
    sweep = robustness_sweep(s1_params(), pert, [1e-1, 1e-2, 1e-3, 0.0],
                             tau=10.0, policy=s1_policy(),
                             zeta0=strict_initial_state(s1_params()))
    eps = [row.epsilon for row in sweep.rows]
    assert sweep.nonincreasing
    assert eps[3] == 0.0
    assert eps[2] <= eps[0]
    assert all(math.isfinite(e) for e in eps)
    report(10, "epsilon(delta) = "
               + ", ".join(f"{d:g}: {e:.4g}" for d, e in
                           zip([1e-1, 1e-2, 1e-3, 0.0], eps))
               + " (nonincreasing, zero at delta = 0)")


def test_11_s1_constants():
    params = s1_params()
    c = constants(params)
    assert abs(c.rho - 1.0) <= 1e-12
    assert abs(c.big_l - 2.0) <= 1e-12
    assert abs(c.q - 0.84) <= 1e-12
    assert abs(c.d_u - 2.0) <= 1e-12
    tm = params.timers
    r_formula = (c.m_hat * c.b_norm * c.d_u / c.rho
                 * (2.0 - math.exp(-c.rho * tm.tau_c_min)
                    + c.q ** (tm.ell / 2.0)))
    assert abs(c.r - r_formula) <= 1e-9
    report(11, f"rho = {c.rho}, L = {c.big_l}, q = {c.q:.2f}, d_U = {c.d_u} "
               f"(to 1e-12); r = {c.r:.6f} matches formula to 1e-9")
