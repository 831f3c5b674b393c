import collections
import dataclasses

import numpy as np
import pytest

from hfo import model as m
from hfo.hybrid import draw_tau_c_reset, jump_order
from hfo.model import (
    Ball,
    Box,
    HybridFOModel,
    JumpPolicy,
    ModelParams,
    Objective,
    Perturbation,
    Plant,
    Timers,
    make_state,
    strict_initial_state,
    validate,
)
from conftest import (central_difference_gradient, grad_u_phi, phi,
                      random_hurwitz, random_params, random_point, random_spd,
                      s1_params)


def same_bits(a, b) -> bool:
    """Equal shapes and float64 bit patterns: -0.0 and 0.0 differ."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestInputSets:
    def test_box_clamp(self):
        box = Box([-1.0, 0.0], [1.0, 2.0])
        np.testing.assert_allclose(box.project([3.0, -1.0]), [1.0, 0.0])
        np.testing.assert_allclose(box.project([0.5, 1.5]), [0.5, 1.5])

    def test_box_projection_keeps_clip_bits_on_stacks(self):
        # analysis._pgd_fixed_point projects (P, m) stacks
        rng = np.random.default_rng(41)
        for m in range(1, 6):
            lo = -rng.uniform(0.5, 2.0, m)
            hi = rng.uniform(0.5, 2.0, m)
            lo[0], hi[-1] = -0.0, 0.0  # bounds that tie with signed zeros
            box = Box(lo, hi)
            # inside, outside, on each bound, and +-0.0 entries
            stack = np.vstack([rng.uniform(-3.0, 3.0, (200, m)),
                               np.tile(lo, (2, 1)), np.tile(hi, (2, 1)),
                               np.full((2, m), 0.0), np.full((2, m), -0.0)])
            assert same_bits(box.project(stack), np.clip(stack, lo, hi))
            for row in stack[-8:]:
                assert same_bits(box.project(row), np.clip(row, lo, hi))
                assert same_bits(box.project(row.tolist()),
                                 np.clip(row, lo, hi))

    def test_box_projection_is_ndarray_clip_bit_for_bit(self):
        # Box.project calls the clip ufunc directly; ndarray.clip is the
        # reference on signed zeros, NaN and infinite entries and bounds
        special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 0.5, -2.0, 3.0]
        rows = np.array(np.meshgrid(special, special, special)).reshape(3, -1).T
        for lo, hi in [([-1.0, -0.0, 0.0], [1.0, 0.0, 2.0]),
                       ([-np.inf, -1.0, 0.0], [np.inf, np.inf, 0.0])]:
            box = Box(lo, hi)
            lo, hi = box.lo, box.hi
            assert same_bits(box.project(rows), rows.clip(lo, hi))
            for row in rows:
                assert same_bits(box.project(row), row.clip(lo, hi))
            assert same_bits(box.project(rows.tolist()), rows.clip(lo, hi))
        point = Box([-0.0], [0.0])
        for v in special:
            assert same_bits(point.project(v),
                             np.array([v]).clip(point.lo, point.hi))

    def test_box_diameter(self):
        assert Box([-1.0], [1.0]).diameter() == 2.0
        assert Box([0.0, 0.0], [3.0, 4.0]).diameter() == 5.0

    def test_box_diameter_past_the_squares_range(self):
        # the squares of these widths overflow; the diameters do not
        assert Box([-1e154], [1e154]).diameter() == 2e154
        assert Box([0.0, 0.0], [3e154, 4e154]).diameter() == pytest.approx(
            5e154, rel=1e-15)
        assert Box([-1e308], [1e308]).diameter() == np.inf

    def test_box_invalid_bounds(self):
        with pytest.raises(ValueError):
            Box([1.0], [0.0])

    def test_ball_radial(self):
        ball = Ball([0.0, 0.0], 1.0)
        np.testing.assert_allclose(ball.project([2.0, 0.0]), [1.0, 0.0])
        np.testing.assert_allclose(ball.project([0.3, 0.4]), [0.3, 0.4])
        np.testing.assert_allclose(ball.project([3.0, 4.0]), [0.6, 0.8])

    @pytest.mark.filterwarnings("error")
    def test_ball_projects_each_row_as_a_point(self):
        rng = np.random.default_rng(31)
        for m in (1, 2, 3, 5, 8):
            ball = Ball(rng.standard_normal(m), rng.uniform(0.5, 2.0))
            # the center itself, then points inside and outside the ball
            points = ball.center + np.vstack(
                [np.zeros(m), rng.standard_normal((300, m)) * 2.0])
            rows = ball.project(points)
            for point, row in zip(points, rows):
                offset = point - ball.center
                dist = np.linalg.norm(offset)
                want = (point if dist <= ball.radius
                        else ball.center + offset * (ball.radius / dist))
                assert np.array_equal(row, want)
                assert np.array_equal(ball.project(point), want)

    def test_ball_diameter(self):
        assert Ball([1.0], 0.75).diameter() == 1.5

    def test_projection_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(23)
        sets = [Box([-1.0, -0.5], [0.5, 1.0]), Ball([0.2, -0.1], 0.8)]
        for input_set in sets:
            for _ in range(200):
                v, w = rng.standard_normal((2, 2)) * 3.0
                pv, pw = input_set.project(v), input_set.project(w)
                assert np.linalg.norm(input_set.project(pv) - pv) <= 1e-12
                assert (np.linalg.norm(pv - pw)
                        <= np.linalg.norm(v - w) + 1e-12)

    def test_random_points_inside(self):
        rng = np.random.default_rng(29)
        for input_set in [Box([-1.0, 0.0], [1.0, 2.0]), Ball([0.5], 1.5)]:
            for _ in range(50):
                assert input_set.contains(random_point(input_set, rng))


class TestGainAndObjective:
    def test_scalar_gain(self, s1):
        np.testing.assert_allclose(s1.h, [[1.0]])

    def test_two_state_gain(self, s1):
        # chain: dx1 = -x1 + u, dx2 = x1 - 2 x2, y = x2; dc gain = 1/2
        plant = Plant(np.array([[-1.0, 0.0], [1.0, -2.0]]),
                      np.array([[1.0], [0.0]]),
                      np.array([[0.0, 1.0]]), np.array([0.0]))
        params = dataclasses.replace(s1, plant=plant)
        np.testing.assert_allclose(params.h, [[0.5]], atol=1e-12)

    def test_phi_value(self, s1):
        # 0.5*1 + 0.5*(0.5-2)^2 = 1.625
        assert phi([1.0], [0.5], s1.objective) == pytest.approx(1.625)

    def test_grad_value(self, s1):
        h = s1.h
        g = grad_u_phi([0.0], [0.5], s1.objective, h)
        np.testing.assert_allclose(g, [-1.5])

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        params = random_params(rng)
        h = params.h
        obj = params.objective
        z = rng.standard_normal(params.plant.m)

        def f(v):
            return phi(v, h @ v + params.plant.d, obj)

        fd = central_difference_gradient(f, z)
        exact = grad_u_phi(z, h @ z + params.plant.d, obj, h)
        np.testing.assert_allclose(exact, fd, atol=1e-6)

    def test_dimension_mismatch(self, s1):
        with pytest.raises(m.linalg.DimensionError):
            phi([1.0, 2.0], [0.5], s1.objective)


def h_perturbation(rng, n, m, p):
    """A perturbation of the plant and of H, scaled to order 1."""
    return Perturbation(rng.standard_normal((n, n)),
                        rng.standard_normal((n, m)),
                        rng.standard_normal((p, m)))


def resolve(params, state, policy):
    """The state after the full jump map: the maps ``jump_order`` names for
    the case ``which_case`` selects, applied in turn by ``g1`` and ``g2``,
    with the timer resets ``tau_g_reset`` and the policy's draw."""
    model = HybridFOModel(params)
    rng = np.random.default_rng(policy.seed)
    u, y_s, z = state.u, state.y_s, state.z
    tau_c, tau_g = state.tau_c, state.tau_g
    for name in jump_order(model.which_case(tau_c, tau_g), policy, rng):
        if name == "g1":
            z = model.g1(z, model.gradient_offset(y_s))
            tau_g = model.tau_g_reset
        else:
            tau_c = draw_tau_c_reset(policy, rng,
                                     (model.reset_lo, model.reset_hi))
            u, y_s = model.g2(z)
    return dataclasses.replace(state, u=u, y_s=y_s, z=z, tau_c=tau_c,
                               tau_g=tau_g)


class TestJumps:
    def test_gradient_jump(self, s1):
        state = make_state(0.0, 0.0, 0.5, 0.0, 1.0, 0.0)
        model = HybridFOModel(s1)
        z = model.g1(state.z, model.gradient_offset(state.y_s))
        assert z[0] == pytest.approx(0.6)  # 0 - 0.4*(-1.5), unclipped
        assert model.tau_g_reset == pytest.approx(0.25)
        post = resolve(s1, state, JumpPolicy())
        assert np.array_equal(post.z, z)
        assert post.tau_g == model.tau_g_reset
        assert post.u[0] == 0.0  # untouched

    @pytest.mark.parametrize("m", range(1, 6))
    @pytest.mark.parametrize("kind", ["box", "ball"])
    def test_gradient_jump_is_the_projected_gradient_step(self, m, kind):
        # g1 skips grad_u_phi's conversions and checks; its bits must not
        # move, with the nominal H or a perturbed one
        self.check_gradient_step(np.random.default_rng([43, m, kind == "ball"]),
                                 m, max(m - 1, 1), kind)

    @pytest.mark.parametrize("kind", ["box", "ball"])
    def test_gradient_offset_step_at_m_p_5(self, kind):
        # the offset H'Q_y(y_s - y_hat) that g1 takes, at a square H
        self.check_gradient_step(np.random.default_rng([47, kind == "ball"]),
                                 5, 5, kind)

    @staticmethod
    def check_gradient_step(rng, m, p, kind):
        """g1 on ``gradient_offset(y_s)`` against the projected
        ``grad_u_phi`` step, bit for bit, on points inside, on and outside
        the input set and on signed zeros."""
        n = m + 1
        plant = Plant(random_hurwitz(rng, n), rng.standard_normal((n, m)),
                      rng.standard_normal((p, n)), rng.standard_normal(p))
        objective = Objective(random_spd(rng, m), random_spd(rng, p),
                              rng.standard_normal(p), 0.1)
        if kind == "box":
            input_set = Box(-rng.uniform(0.5, 1.5, m), rng.uniform(0.5, 1.5, m))
            on = input_set.hi
        else:
            input_set = Ball(rng.standard_normal(m) * 0.3, 1.2)
            unit = rng.standard_normal(m)
            on = input_set.center + unit * (1.2 / np.linalg.norm(unit))
        params = ModelParams(plant, objective, Timers(1.0, 1.0, 0.25, 4),
                             input_set)
        pert = h_perturbation(rng, n, m, p)
        points = [random_point(input_set, rng), on, on * 3.0,
                  np.full(m, 0.0), np.full(m, -0.0),
                  np.where(np.arange(m) % 2 == 0, -0.0, 0.0)]
        for model in (HybridFOModel(params), HybridFOModel(params, pert, 0.1)):
            for z in points:
                for y_s in (rng.standard_normal(p), objective.y_hat.copy(),
                            np.full(p, -0.0)):
                    want = input_set.project(z - objective.gamma * grad_u_phi(
                        z, y_s, objective, model.h))
                    got = model.g1(z, model.gradient_offset(y_s))
                    assert same_bits(got, want)

    def test_gradient_jump_projects(self, s1):
        model = HybridFOModel(s1)
        z = model.g1(np.array([0.96]), model.gradient_offset(np.array([0.5])))
        assert z[0] == pytest.approx(1.0)  # 1.176 clipped to the box

    def test_gradient_jump_requires_expired_timer(self, s1):
        state = make_state(0.0, 0.0, 0.5, 0.0, 1.0, 0.1)
        assert HybridFOModel(s1).which_case(state.tau_c, state.tau_g) is None
        with pytest.raises(RuntimeError, match="outside the jump set"):
            resolve(s1, state, JumpPolicy())

    def test_input_jump(self, s1, s1_policy):
        state = make_state(0.3, 0.0, 0.5, 1.0, 0.0, 0.1)
        post = resolve(s1, state, s1_policy)
        assert post.u[0] == 1.0
        assert post.y_s[0] == pytest.approx(1.5)  # H*z + d with the new input
        assert post.tau_c == 1.0  # "min" reset policy, interval [1, 1]
        assert post.x[0] == 0.3  # plant state continuous across jumps
        u, y_s = HybridFOModel(s1).g2(state.z)
        assert (u[0], y_s[0]) == (1.0, post.y_s[0])

    def test_composite_jump_order(self, s1):
        state = make_state(0.0, 0.0, 0.5, 0.96, 0.0, 0.0)
        g1_first = resolve(s1, state, JumpPolicy(case3_order="g1_first"))
        g2_first = resolve(s1, state, JumpPolicy(case3_order="g2_first"))
        # g1 first: z clipped to 1 before application
        assert g1_first.u[0] == pytest.approx(1.0)
        # g2 first: old z applied, then a gradient step from the new sample
        assert g2_first.u[0] == pytest.approx(0.96)
        assert g2_first.z[0] != pytest.approx(g1_first.z[0])

    def test_jump_order(self):
        rng = np.random.default_rng(3)
        for case in ("g1", "g2"):
            assert jump_order(case, JumpPolicy(case3_order="random"),
                              rng) == (case,)
        assert jump_order("both", JumpPolicy(case3_order="g1_first"),
                          rng) == ("g1", "g2")
        assert jump_order("both", JumpPolicy(case3_order="g2_first"),
                          rng) == ("g2", "g1")
        # only a random composite order draws, one integer in {0, 1}
        twin = np.random.default_rng(3)
        for _ in range(20):
            want = ("g1", "g2") if twin.integers(2) == 0 else ("g2", "g1")
            assert jump_order("both", JumpPolicy(case3_order="random"),
                              rng) == want
        with pytest.raises(ValueError, match="case-3 order"):
            jump_order("both", JumpPolicy(case3_order="sideways"), rng)

    def test_jump_outside_jump_set_rejected(self, s1):
        state = make_state(0.0, 0.0, 0.5, 0.0, 0.5, 0.1)
        with pytest.raises(RuntimeError, match="outside the jump set"):
            resolve(s1, state, JumpPolicy())


class TestStrictInitialState:
    def test_default(self, s1):
        zeta0 = strict_initial_state(s1)
        assert zeta0.x[0] == 0.0
        assert zeta0.u[0] == 0.0
        assert zeta0.y_s[0] == pytest.approx(0.5)
        assert zeta0.z[0] == 0.0
        assert zeta0.tau_c == 1.0
        assert zeta0.tau_g == 0.25


class TestValidate:
    def check_status(self, diag, name):
        return next(c.status for c in diag.checks if c.name == name)

    def test_s1_passes(self, s1, s1_zeta0):
        diag = validate(s1, s1_zeta0, mode="strict")
        assert diag.ok
        assert all(c.status == "pass" for c in diag.checks)

    def test_random_instances_pass(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            params = random_params(rng)
            diag = validate(params, strict_initial_state(params))
            assert diag.ok, [c.detail for c in diag.failures()]

    def test_non_hurwitz_fails(self, s1):
        params = dataclasses.replace(
            s1, plant=Plant(np.array([[0.5]]), s1.plant.b, s1.plant.c_out,
                            s1.plant.d))
        diag = validate(params)
        assert self.check_status(diag, "hurwitz") == "fail"

    def test_singular_plant_fails_hurwitz_without_reading_gain(self, s1,
                                                               s1_zeta0):
        # H = -C A^{-1} B does not exist for an integrator
        params = dataclasses.replace(
            s1, plant=Plant(np.array([[0.0]]), s1.plant.b, s1.plant.c_out,
                            s1.plant.d))
        diag = validate(params, s1_zeta0)
        assert self.check_status(diag, "hurwitz") == "fail"
        assert "init_domain" not in [c.name for c in diag.checks]

    def test_numerically_singular_plant_fails_hurwitz(self, s1):
        # Hurwitz, but the guarded solve refuses A^{-1} B at cond(A) = 1e13:
        # the checks and the strict start that read H are not reached
        plant = Plant(np.diag([-1.0, -1e-13]), np.array([[1.0], [1.0]]),
                      np.array([[1.0, 0.0]]), s1.plant.d)
        diag = validate(dataclasses.replace(s1, plant=plant))
        assert diag.checks[0].name == "hurwitz"
        assert diag.checks[0].status == "fail"
        assert "condition estimate 1.000e+13" in diag.checks[0].detail
        assert diag.zeta0 is None
        assert not {"stepsize", "contraction", "init_domain",
                    "init_restricted"} & {c.name for c in diag.checks}

    def test_strict_start_checked_without_zeta0(self, s1, s1_zeta0):
        diag = validate(s1)
        assert [c.name for c in diag.checks][-2:] == ["init_domain",
                                                      "init_restricted"]
        assert diag.ok and diag.checks[0].detail == "max Re(lambda) = -1"
        for field in ("x", "u", "y_s", "z", "tau_c", "tau_g"):
            np.testing.assert_array_equal(getattr(diag.zeta0, field),
                                          getattr(s1_zeta0, field))

    def test_indefinite_weight_fails(self, s1):
        obj = Objective(np.array([[-1.0]]), s1.objective.q_y,
                        s1.objective.y_hat, s1.objective.gamma)
        diag = validate(dataclasses.replace(s1, objective=obj))
        assert self.check_status(diag, "q_u_spd") == "fail"

    def test_stepsize_out_of_range_fails(self, s1):
        obj = dataclasses.replace(s1.objective, gamma=0.7)  # 2/(mu+L) = 2/3
        diag = validate(dataclasses.replace(s1, objective=obj))
        assert self.check_status(diag, "stepsize") == "fail"
        detail = next(c.detail for c in diag.checks if c.name == "stepsize")
        assert "input-convergence range" in detail

    def test_overflowing_stepsize_fails_both_checks(self, s1):
        # gamma^2 L^2 overflows: q is inf, not an OverflowError
        obj = dataclasses.replace(s1.objective, gamma=1e200)
        params = dataclasses.replace(s1, objective=obj)
        assert m.gradient_constants(params)[2] == np.inf
        diag = validate(params)
        assert self.check_status(diag, "stepsize") == "fail"
        assert self.check_status(diag, "contraction") == "fail"

    def test_unbounded_diameter_fails_input_set(self, s1):
        diag = validate(dataclasses.replace(s1, input_set=Box([-1e308],
                                                              [1e308])))
        assert self.check_status(diag, "input_set") == "fail"
        assert "diameter inf" in next(c.detail for c in diag.checks
                                      if c.name == "input_set")

    @pytest.mark.parametrize("field", ["tau_g_comp", "tau_c_min"])
    def test_timer_reset_within_event_tolerance_fails(self, s1, field):
        # jumps EVENT_TOL apart merge into one instant: not a valid schedule
        at_limit = dataclasses.replace(s1.timers, **{field: 1e-12})
        diag = validate(dataclasses.replace(s1, timers=at_limit))
        assert self.check_status(diag, "timers") == "fail"
        detail = next(c.detail for c in diag.checks if c.name == "timers")
        assert "EVENT_TOL = 1e-12" in detail
        past = dataclasses.replace(s1.timers, **{field: 1.5e-12})
        diag = validate(dataclasses.replace(s1, timers=past))
        assert self.check_status(diag, "timers") == "pass"

    def test_timescale_separation_fails(self, s1):
        params = dataclasses.replace(s1, timers=Timers(1.0, 1.0, 0.3, 4))
        diag = validate(params)
        assert self.check_status(diag, "timescale") == "fail"

    def test_strict_init_violation_fails(self, s1, s1_zeta0):
        bad = dataclasses.replace(s1_zeta0, tau_g=0.1)
        diag = validate(s1, bad, mode="strict")
        assert self.check_status(diag, "init_restricted") == "fail"

    def test_global_mode_downgrades_init_to_warning(self, s1, s1_zeta0):
        bad = dataclasses.replace(s1_zeta0, tau_g=0.1)
        diag = validate(s1, bad, mode="global")
        assert self.check_status(diag, "init_restricted") == "warn"
        assert diag.ok


class TestModelGeometry:
    def test_contains_bounds(self, s1):
        model = HybridFOModel(s1)
        assert model.contains(0.5, 0.1)
        assert not model.contains(1.5, 0.1)
        assert not model.contains(0.5, -0.5)

    def test_which_case(self, s1):
        model = HybridFOModel(s1)
        assert model.which_case(0.5, 0.1) is None
        assert model.which_case(0.5, 0.0) == "g1"
        assert model.which_case(0.0, 0.1) == "g2"
        assert model.which_case(0.0, 0.0) == "both"

    def test_gain_derived_once(self, s1, monkeypatch):
        h = s1.h
        assert s1.h is h
        np.testing.assert_array_equal(
            h, -s1.plant.c_out @ np.linalg.solve(s1.plant.a, s1.plant.b))
        assert not h.flags.writeable
        assert HybridFOModel(s1).h is h
        # a replaced parameter set derives its own gain
        other = dataclasses.replace(
            s1, plant=Plant(np.array([[-2.0]]), s1.plant.b, s1.plant.c_out,
                            s1.plant.d))
        assert other.h[0, 0] == 0.5
        # so are A's eigenbasis, A^{-1} B and the curvature record
        params = random_params(np.random.default_rng(41), n=3)
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(m.linalg, name, wrapper)

        for name in ("eigenbasis", "solve", "eig_sym"):
            counted(name, getattr(m.linalg, name))
        for _ in range(2):
            lam, vecs, cond = params.eigen
            a_inv_b = params.a_inv_b
            curvature = params.curvature
            hessian = params.hessian
            m.gradient_constants(params)
        assert calls == {"eigenbasis": 1, "solve": 1, "eig_sym": 2}
        assert params.eigen[1] is vecs and params.a_inv_b is a_inv_b
        assert params.curvature is curvature and params.hessian is hessian
        # each is what it names, and read-only
        a, b = params.plant.a, params.plant.b
        np.testing.assert_allclose(a @ vecs, vecs * lam, atol=1e-12)
        assert cond == pytest.approx(np.linalg.cond(vecs))
        np.testing.assert_allclose(a @ a_inv_b, b, atol=1e-12)
        obj = params.objective
        hess = obj.q_u + params.h.T @ obj.q_y @ params.h
        np.testing.assert_array_equal(hessian, hess)
        np.testing.assert_allclose(
            curvature, [np.linalg.eigvalsh(obj.q_u)[[0, -1]],
                        np.linalg.eigvalsh(hess)[[0, -1]]], rtol=1e-12)
        for array in (lam, vecs, a_inv_b, hessian):
            assert not array.flags.writeable
        with pytest.raises(AttributeError):
            curvature.q_u = (0.0, 0.0)
        # a replaced parameter set derives its own
        other = dataclasses.replace(
            params, plant=dataclasses.replace(params.plant, a=2.0 * a))
        np.testing.assert_allclose(np.sort_complex(other.eigen[0]),
                                   np.sort_complex(2.0 * lam), atol=1e-12)
        np.testing.assert_allclose(other.a_inv_b, 0.5 * a_inv_b, atol=1e-12)
        assert other.curvature.q_u == curvature.q_u
        assert calls == {"eigenbasis": 2, "solve": 2, "eig_sym": 4}

    def test_timer_periods(self, s1):
        model = HybridFOModel(s1)
        assert (model.period_g, model.period_c) == pytest.approx((0.25, 1.0))
        # a slower input timer stretches the tau_c period
        pert = m.Perturbation(np.zeros((1, 1)), np.zeros((1, 1)),
                              np.zeros((1, 1)), kappa_c=0.5)
        assert HybridFOModel(s1, pert, 1.0).period_c == pytest.approx(2.0)
