"""A run as schedule, flows and fill, and a sweep's runs stacked: every
stacked exponential, table row, shared held column and arc keeps the bits
of the run alone."""

import collections
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hfo import hybrid, linalg, robustness
from hfo.config import parse_config
from hfo.model import (Ball, Box, HybridFOModel, JumpPolicy,
                       strict_initial_state, validate)
from conftest import random_hurwitz, random_params, s1_params
from test_hybrid import assert_same_arc
from test_robustness import (random_perturbation, s1_perturbation,
                             sweep_by_runs)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import scenarios  # noqa: E402


def lone_plant_column(model, sched, u, x0):
    """Oracle: a run's x as the run computes it alone, with no stacking:
    the grid step's map from a ``linalg.propagator`` call of its own, the
    power table by a 2-D recurrence, and each closing map from a call of
    its own, with ``simulate``'s blocks and products."""
    grids = sched.rows[:, 3].astype(int)
    lengths = sched.rows[:, 4]
    longest = max(int(grids.max()), 0)
    running = np.concatenate([[0.0], np.cumsum(np.full(longest,
                                                       sched.sample_dt))])
    n = len(x0)
    e, forced = linalg.propagator(model.a, model.b, sched.sample_dt)
    block = max(1, min(hybrid.FLOW_BLOCK, longest))
    table = [np.hstack([e, forced])]
    for _ in range(1, block):
        row = e @ table[-1]
        row[:, n:] += forced
        table.append(row)
    table = np.array(table)
    counts = np.where(grids < 0, 1, grids + 2)
    x = np.empty((int(counts.sum()), n))
    lo, current = 0, x0
    for j, grid in enumerate(grids.tolist()):
        x[lo] = current
        if grid >= 0:
            for k in range(0, grid, block):
                size = min(block, grid - k)
                x[lo + k + 1:lo + k + size + 1] = table[:size] @ np.concatenate(
                    [x[lo + k], u[j]])
            e_c, f_c = linalg.propagator(model.a, model.b,
                                         lengths[j] - running[grid])
            current = e_c @ x[lo + grid] + f_c @ u[j]
            x[lo + grid + 1] = current
        lo += counts[j]
    return x


def pool_run(workload, index, tmp_path):
    """(config, checked start, extra CLI arguments) of a benchmark pool
    entry."""
    doc, extra = scenarios.WORKLOADS[workload].make(index, ROOT)
    path = tmp_path / f"{workload}-{index}.json"
    path.write_text(json.dumps(doc))
    config = parse_config(str(path))
    zeta0 = validate(config.params, config.zeta0, mode=config.init_mode).zeta0
    return config, zeta0, extra


def sweep_arguments(config, zeta0, extra):
    """``robustness_sweep``'s arguments for an s1-sweep pool entry."""
    deltas = [float(text) for text in extra[extra.index("--deltas") + 1]
              .split(",")]
    tau = float(extra[extra.index("--tau") + 1])
    return (config.params, config.perturbation, deltas, tau, config.policy,
            zeta0, config.sample_dt)


def recorded_runs(monkeypatch):
    """Each (args, kwargs, arc) of ``robustness``' simulate calls from now
    on."""
    runs = []

    def recorded(*args, **kwargs):
        arc = hybrid.simulate(*args, **kwargs)
        runs.append((args, kwargs, arc))
        return arc

    monkeypatch.setattr(robustness, "simulate", recorded)
    return runs


def assert_is_lone_run(model, zeta0, policy, horizon, sample_dt, arc):
    """``arc`` bit for bit as the run alone gives it, and its x as the
    no-stacking oracle computes it."""
    assert_same_arc(arc, hybrid.simulate(model, zeta0, policy, horizon,
                                         sample_dt))
    sched = hybrid.schedule(model, zeta0, policy, horizon, sample_dt)
    want = lone_plant_column(model, sched, arc.u, zeta0.x)
    assert want.tobytes() == arc.x.tobytes()


class TestStackingKeepsBits:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20])
    def test_stacked_exponential(self, n):
        # different plants' augmented matrices in one mat_exp, at lengths
        # from the sample grid to ones that take squarings
        rng = np.random.default_rng(n)
        k, m = 9, 2
        a = np.stack([random_hurwitz(rng, n) for _ in range(k)])
        b = rng.standard_normal((k, n, m)) * np.logspace(-3, 6, k)[:, None,
                                                                    None]
        dt = np.geomspace(1e-4, 12.0, k)
        e, forced = linalg.propagator(a, b, dt)
        for i in range(k):
            e_i, forced_i = linalg.propagator(a[i], b[i], dt[i])
            assert e[i].tobytes() == e_i.tobytes()
            assert forced[i].tobytes() == forced_i.tobytes()
        stack = rng.standard_normal((k, n, n))
        got = linalg.mat_exp(stack, dt)
        for i in range(k):
            assert got[i].tobytes() == linalg.mat_exp(stack[i],
                                                      dt[i]).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20])
    def test_stacked_power_tables(self, n):
        rng = np.random.default_rng(100 + n)
        k, m, rows = 7, 3, 25
        e = np.stack([linalg.mat_exp(random_hurwitz(rng, n), 0.01)
                      for _ in range(k)])
        forced = rng.standard_normal((k, n, m)) * 0.01
        tables = hybrid._power_tables(e, forced, rows)
        for i in range(k):
            want = [np.hstack([e[i], forced[i]])]
            for _ in range(1, rows):
                row = e[i] @ want[-1]
                row[:, n:] += forced[i]
                want.append(row)
            assert tables[i].tobytes() == np.array(want).tobytes()

    def test_mismatched_stacks_refused(self):
        a = np.stack([-np.eye(2)] * 3)
        with pytest.raises(linalg.DimensionError):
            linalg.mat_exp(a, np.ones(2))
        with pytest.raises(linalg.DimensionError):
            linalg.propagator(a, np.ones((2, 2, 1)), np.ones(3))


class TestSweepRuns:
    @pytest.mark.parametrize("index", range(10))
    def test_sweep_arcs_are_lone_runs(self, monkeypatch, tmp_path, index):
        # s1-sweep pool entries 0-9: each of the seven arcs comes from one
        # simulate call, and is the lone run's arc to the last bit
        config, zeta0, extra = pool_run("s1-sweep", index, tmp_path)
        runs = recorded_runs(monkeypatch)
        robustness.robustness_sweep(*sweep_arguments(config, zeta0, extra))
        assert len(runs) == 7
        for args, kwargs, arc in runs:
            assert isinstance(kwargs["flow"], hybrid.Flow)
            assert_is_lone_run(*args, arc)

    @pytest.mark.parametrize("workload", ["s1-simulate", "mimo-verify"])
    def test_single_runs_keep_their_bits(self, tmp_path, workload):
        for index in range(10):
            config, zeta0, _ = pool_run(workload, index, tmp_path)
            model = HybridFOModel(config.params)
            arc = hybrid.simulate(model, zeta0, config.policy, config.horizon,
                                  config.sample_dt)
            sched = hybrid.schedule(model, zeta0, config.policy,
                                    config.horizon, config.sample_dt)
            assert lone_plant_column(model, sched, arc.u,
                                     zeta0.x).tobytes() == arc.x.tobytes()

    def test_s1_long_run_keeps_its_bits(self):
        params = s1_params()
        model, zeta0 = HybridFOModel(params), strict_initial_state(params)
        policy, horizon = JumpPolicy(seed=1), (1000.0, 10 ** 6)
        arc = hybrid.simulate(model, zeta0, policy, horizon, 0.01)
        assert len(arc.times) > 10 ** 5
        sched = hybrid.schedule(model, zeta0, policy, horizon, 0.01)
        assert lone_plant_column(model, sched, arc.u,
                                 zeta0.x).tobytes() == arc.x.tobytes()

    def test_one_exponential_and_one_recurrence_per_sweep(self, monkeypatch,
                                                          tmp_path):
        config, zeta0, extra = pool_run("s1-sweep", 0, tmp_path)
        calls = []
        for owner, name in ((linalg, "mat_exp"), (hybrid, "_power_tables")):
            def counted(*args, _name=name, _original=getattr(owner, name)):
                calls.append(_name)
                return _original(*args)
            monkeypatch.setattr(owner, name, counted)
        sweep = robustness.robustness_sweep(*sweep_arguments(config, zeta0,
                                                             extra))
        assert len(sweep.rows) == 6
        assert sorted(calls) == ["_power_tables", "mat_exp"]

    @pytest.mark.parametrize("workload", ["s1-simulate", "mimo-verify"])
    def test_one_propagator_call_per_single_run(self, monkeypatch, tmp_path,
                                                workload):
        calls = []
        original = linalg.propagator

        def counted(a, b, dt):
            calls.append(np.size(dt))
            return original(a, b, dt)

        monkeypatch.setattr(linalg, "propagator", counted)
        for index in range(10):
            config, zeta0, _ = pool_run(workload, index, tmp_path)
            calls.clear()
            hybrid.simulate(HybridFOModel(config.params), zeta0,
                            config.policy, config.horizon, config.sample_dt)
            assert len(calls) == 1


def assert_jumps_are_the_schedule(model, zeta0, policy, horizon, sample_dt,
                                  arc):
    """The arc's jump log is the schedule's codes, and jump j's time,
    ``times[offsets[j + 1]]``, is the schedule's row j + 1 start time, bit
    for bit."""
    sched = hybrid.schedule(model, zeta0, policy, horizon, sample_dt)
    assert arc.jumps.dtype == sched.jumps.dtype == np.int8
    assert np.array_equal(arc.jumps, sched.jumps)
    times = arc.times[arc.offsets[1:-1]]
    assert times.tobytes() == sched.rows[1:, 0].tobytes()


class TestJumpLog:
    @pytest.mark.parametrize("index", range(10))
    def test_sweep_jump_times_are_schedule_rows(self, monkeypatch, tmp_path,
                                                index):
        config, zeta0, extra = pool_run("s1-sweep", index, tmp_path)
        runs = recorded_runs(monkeypatch)
        robustness.robustness_sweep(*sweep_arguments(config, zeta0, extra))
        assert len(runs) == 7
        for args, _, arc in runs:
            assert len(arc.jumps) > 0
            assert_jumps_are_the_schedule(*args, arc)

    def test_s1_long_run_jump_times_are_schedule_rows(self):
        params = s1_params()
        model, zeta0 = HybridFOModel(params), strict_initial_state(params)
        arc = hybrid.simulate(model, zeta0, JumpPolicy(seed=1),
                              (1000.0, 10 ** 6), 0.01)
        assert len(arc.jumps) == 5000
        assert_jumps_are_the_schedule(model, zeta0, JumpPolicy(seed=1),
                                      (1000.0, 10 ** 6), 0.01, arc)


class TestSplit:
    def test_runs_batch_by_table_size(self, monkeypatch, tmp_path):
        # the S1 sweep's seven runs make one batch, so one power-table
        # recurrence; two n = 20 runs whose 128-row tables each pass
        # FLOW_ELEMENTS stand alone, one recurrence each
        batches = []
        original = hybrid._power_tables

        def counted(e, forced, k):
            batches.append(len(e))
            return original(e, forced, k)

        monkeypatch.setattr(hybrid, "_power_tables", counted)
        params = s1_params()
        zeta0, policy = strict_initial_state(params), JumpPolicy(seed=1)
        model = HybridFOModel(params)
        short = hybrid.schedule(model, zeta0, policy, (30.0, 31))
        collections.deque(hybrid.flows([(model, short)] * 7), maxlen=0)
        assert batches == [7]
        config, zeta0, _ = pool_run("mimo-verify", 0, tmp_path)
        model = HybridFOModel(config.params)
        fine = hybrid.schedule(model, zeta0, config.policy, (1.0, 100), 0.001)
        n, m = model.b.shape
        assert n == 20 and fine.grids.max() >= hybrid.FLOW_BLOCK
        assert hybrid.FLOW_BLOCK * n * (n + m) > hybrid.FLOW_ELEMENTS
        batches.clear()
        collections.deque(hybrid.flows([(model, fine)] * 2), maxlen=0)
        assert batches == [1, 1]

    def test_several_calls_over_several_plants(self, monkeypatch):
        # an S1 sweep at tau 100 under a cap of 100 distinct maps per call:
        # one batch whose maps take several calls, some stacking several
        # plants, and the sweep still equals its lone runs
        params, pert = s1_params(), s1_perturbation()
        deltas = [0.1, 0.03, 0.01, 0.003, 0.001, 0.0003]
        zeta0, policy = strict_initial_state(params), JumpPolicy(seed=1)
        want = sweep_by_runs(params, pert, deltas, 100.0, policy, zeta0)
        monkeypatch.setattr(hybrid, "FLOW_ELEMENTS", 400)
        plants = []
        original = linalg.propagator

        def counted(a, b, dt):
            plants.append(len({plant.tobytes() for plant in np.reshape(
                a, (-1,) + np.shape(a)[-2:])}))
            return original(a, b, dt)

        monkeypatch.setattr(linalg, "propagator", counted)
        got = robustness.robustness_sweep(params, pert, deltas, 100.0, policy,
                                          zeta0)
        assert len(plants) > 1 and max(plants) > 1
        assert repr(got) == repr(want)

    def test_flow_for_another_run_refused(self):
        params = s1_params()
        zeta0, policy = strict_initial_state(params), JumpPolicy(seed=1)
        model = HybridFOModel(params)
        sched = hybrid.schedule(model, zeta0, policy, (3.0, 100))
        flow = next(hybrid.flows([(model, sched)]))
        with pytest.raises(ValueError, match="another run"):
            hybrid.simulate(HybridFOModel(params), zeta0, policy, (3.0, 100),
                            flow=flow)
        with pytest.raises(ValueError, match="another run"):
            hybrid.simulate(model, zeta0, policy, (4.0, 100), flow=flow)

    def test_unread_maps_are_skipped(self):
        # a run that stops reading its closing maps leaves the next run's
        # maps where they were
        params = s1_params()
        zeta0, policy = strict_initial_state(params), JumpPolicy(seed=1)
        models = [HybridFOModel(params), HybridFOModel(params)]
        runs = [(m, hybrid.schedule(m, zeta0, policy, (3.0, 100)))
                for m in models]
        planned = hybrid.flows(runs)
        next(next(planned).maps)
        arc = hybrid.simulate(models[1], zeta0, policy, (3.0, 100),
                              flow=next(planned))
        assert_same_arc(arc, hybrid.simulate(models[1], zeta0, policy,
                                             (3.0, 100)))

    def test_schedule_is_compact(self):
        # the S1 sweep's nominal run: 32 segments, 56 bytes of float64 each,
        # one byte per jump, the codes the filled arc keeps as its jump log
        params = s1_params()
        sched = hybrid.schedule(HybridFOModel(params),
                                strict_initial_state(params),
                                JumpPolicy(seed=1), (30.0, 31))
        assert sched.rows.shape == (32, 7) and sched.rows.dtype == float
        assert sched.jumps.dtype == np.int8 and len(sched.jumps) == 31
        assert not any(isinstance(value, list)
                       for value in vars(sched).values())


def sweep_schedules(params, pert, deltas, policy, horizon):
    """(model, schedule) of a sweep's nominal run and its runs at
    ``deltas``, as ``robustness_sweep`` schedules them."""
    zeta0 = strict_initial_state(params)
    models = [HybridFOModel(params)] + [HybridFOModel(params, pert, delta)
                                        for delta in deltas]
    return [(model, hybrid.schedule(model, robustness._start(model, zeta0),
                                    robustness._clipped(model, policy),
                                    horizon))
            for model in models]


def count_g1(monkeypatch):
    """The number of ``HybridFOModel.g1`` calls from now on, in a list."""
    calls = [0]
    original = HybridFOModel.g1

    def counted(self, z, offset):
        calls[0] += 1
        return original(self, z, offset)

    monkeypatch.setattr(HybridFOModel, "g1", counted)
    return calls


def g1_jumps(runs) -> int:
    return sum(int(np.count_nonzero(hybrid._applied(sched.jumps, "g1")))
               for _, sched in runs)


def held_by_jumps(model, sched):
    """Oracle: a run's held columns (u, y_s, z) from one call of its
    model's map per jump, from its start cast to float64."""
    u, y_s, z = (np.asarray(a, dtype=float) for a in sched.start)
    offset = model.gradient_offset(y_s)
    rows = [(u, y_s, z)]
    for code in sched.jumps.tolist():
        if hybrid.JUMPS[code][1] == "g1":
            z = model.g1(z, offset)
        else:
            u, y_s = model.g2(z)
            offset = model.gradient_offset(y_s)
        rows.append((u, y_s, z))
    return tuple(np.array(column) for column in zip(*rows))


def assert_same_held(got, want):
    assert len(got) == len(want) == 3
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == float
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestSharedHeld:
    DELTAS = [0.3, 0.1, 0.03, 0.01, 0.003, 0.001, 0.0003]

    def runs(self, case):
        """The (model, schedule) runs of a case: a sweep's at tau 30 with no
        jump cap, or one run alone."""
        params, pert, policy = s1_params(), s1_perturbation(), JumpPolicy(
            seed=1)
        if case == "s1-uniform-random":
            params = dataclasses.replace(params, timers=dataclasses.replace(
                params.timers, tau_c_max=1.2))
            policy = JumpPolicy(tau_c_reset="uniform", case3_order="random",
                                seed=5)
        elif case.startswith("n3"):
            # m > 1 and a different H per run
            rng = np.random.default_rng(41)
            ball = case.startswith("n3-ball")
            params = random_params(rng, n=3, ball_prob=float(ball))
            plant = params.plant
            pert = random_perturbation(rng, plant.n, plant.m, plant.p)
            policy = JumpPolicy(seed=2)
            assert plant.m > 1
            assert isinstance(params.input_set, Ball) == ball
        if case in ("no-g2", "no-jump", "n3-ball-alone"):
            # S1's first g2 is at t = 1 and its first g1 at t = 0.25
            horizon = {"no-g2": (0.9, 10), "no-jump": (0.1, 10)}.get(
                case, (30.0, 10 ** 6))
            return sweep_schedules(params, pert, [], policy, horizon)
        runs = sweep_schedules(params, pert, self.DELTAS, policy,
                               (30.0, 10 ** 6))
        if case == "ended":
            # the sweep's runs capped at different jump counts, one at none
            runs = [(model, hybrid.schedule(
                model, robustness._start(model, strict_initial_state(params)),
                policy, (30.0, cap))) for (model, _), cap in zip(
                    runs, [10 ** 6, 25, 3, 40, 7, 31, 12, 0])]
        return runs

    @pytest.mark.parametrize("case", ["s1", "s1-uniform-random", "n3-box",
                                      "n3-ball", "no-g2", "no-jump", "ended",
                                      "n3-ball-alone"])
    def test_equals_held_run_by_run(self, monkeypatch, case):
        # one recurrence for all the runs of one flows call: in a sweep the
        # runs' jump logs end at different j and some j applies g1 to some
        # runs and g2 to others; each run's columns are those of the run
        # flowed alone, and the oracle's, byte for byte
        runs = self.runs(case)
        lengths = [len(sched.jumps) for _, sched in runs]
        kinds = [[hybrid.JUMPS[code][1] for code in sched.jumps.tolist()]
                 for _, sched in runs]
        if len(runs) > 1:
            assert len(set(lengths)) > 1
            assert any(len({each[j] for each in kinds if len(each) > j}) == 2
                       for j in range(max(lengths)))
        if case == "ended":
            assert min(lengths) == 0
        elif case == "no-g2":
            assert kinds == [["g1"] * 3]
        elif case == "no-jump":
            assert lengths == [0]
        calls = count_g1(monkeypatch)
        planned = list(hybrid.flows(runs))
        # a sweep's runs share the stack's g1, and a lone run calls its own
        assert calls == [0 if len(runs) > 1 else g1_jumps(runs)]
        for flow, run in zip(planned, runs):
            assert_same_held(flow.held, next(hybrid.flows([run])).held)
            assert_same_held(flow.held, held_by_jumps(*run))

    def test_lone_run_calls_its_model(self, monkeypatch):
        # a lone run calls HybridFOModel.g1 once per g1 jump, and a sweep's
        # runs never call it
        params, pert, policy = s1_params(), s1_perturbation(), JumpPolicy(
            seed=1)
        calls = count_g1(monkeypatch)
        runs = sweep_schedules(params, pert, [0.1, 0.01], policy, (30.0, 31))
        collections.deque(hybrid.flows(runs), maxlen=0)
        assert calls == [0]
        collections.deque(hybrid.flows(runs[:1]), maxlen=0)
        assert calls == [g1_jumps(runs[:1])] and calls[0] > 0
        # integer start arrays, in a run with no g2: the columns are
        # float64, with the values of the float start's
        start = strict_initial_state(params)
        ints = dataclasses.replace(start, u=np.array([0]), y_s=np.array([0]),
                                   z=np.array([0]))
        model = HybridFOModel(params)
        got, want = (next(hybrid.flows([(model, hybrid.schedule(
            model, zeta0, policy, (0.9, 10)))])).held
            for zeta0 in (ints, dataclasses.replace(
                start, u=np.zeros(1), y_s=np.zeros(1), z=np.zeros(1))))
        assert_same_held(got, want)

    def test_mixed_runs_refused(self):
        # the runs of one flows call share the plant shape, sample_dt, the
        # objective and the input set, or flows raises naming the field
        params, policy = s1_params(), JumpPolicy(seed=1)

        def run(params, sample_dt=0.01):
            model = HybridFOModel(params)
            return model, hybrid.schedule(model, strict_initial_state(params),
                                          policy, (5.0, 100), sample_dt)

        box = params.input_set
        rng = np.random.default_rng(3)
        mixed = {
            "sample_dt": run(params, 0.003),
            "objective": run(dataclasses.replace(
                params, objective=dataclasses.replace(params.objective,
                                                      gamma=0.3))),
            "input_set": run(dataclasses.replace(
                params, input_set=Box(box.lo, box.hi))),
            "plant shape": run(random_params(rng, n=2)),
        }
        for field, other in mixed.items():
            with pytest.raises(ValueError, match=field):
                next(hybrid.flows([run(params), other]))
