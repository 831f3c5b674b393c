import argparse
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from hfo import analysis, cli, hybrid, linalg, robustness
from hfo.cli import main
from hfo.config import ConfigError, parse_config
from hfo.model import HybridFOModel, JumpPolicy, validate
from conftest import jump_log, segment_rows, segment_start, state_at

ROOT = Path(__file__).resolve().parent.parent
S1_CONFIG = ROOT / "configs" / "s1.json"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
sys.path.insert(0, str(ROOT / "bench"))
import scenarios  # noqa: E402

# The report's config block for configs/s1.json, written out by hand so that
# any change to the echo shows: every value as parsed (floats stay floats)
# and every default spelled out.
S1_ECHO = {
    "plant": {"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]], "d": [0.5]},
    "objective": {"Q_u": [[1.0]], "Q_y": [[1.0]], "y_hat": [2.0],
                  "gamma": 0.4},
    "timers": {"tau_c_min": 1.0, "tau_c_max": 1.0, "tau_g_comp": 0.25,
               "ell": 4},
    "policy": {"tau_c_reset": "min", "tau_c_value": None,
               "case3_order": "g1_first", "seed": 1},
    "horizon": {"T": 30.0, "J": 1000},
    "sample_dt": 0.01,
    "init": {"mode": "strict"},
    "input_set": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
    "perturbation": {"A_hat": [[0.05]], "B_hat": [[0.02]], "H_hat": [[0.02]],
                     "kappa_c": 0.1, "kappa_g": 0.05, "theta_g_comp": 0.02,
                     "theta_c_min": 0.02, "theta_c_max": 0.02},
}


def load_s1_dict():
    return json.loads(S1_CONFIG.read_text())


def write_config(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def per_state_csv(path, arc, consts, params):
    """Oracle: the trajectory CSV written one full state per row."""
    def row(t, j, case, state):
        return ([repr(float(t)), j, case]
                + [repr(float(v)) for v in state.x]
                + [repr(float(v)) for v in state.u]
                + [repr(float(v)) for v in state.y_s]
                + [repr(float(v)) for v in state.z]
                + [repr(state.tau_c), repr(state.tau_g),
                   repr(float(analysis.dist_to_A(state.x, consts)))])

    log = jump_log(arc)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cli._csv_header(params))
        for seg in arc.segments:
            for i, t in zip(range(seg.rows.start, seg.rows.stop), seg.times):
                writer.writerow(row(t, seg.j, "", state_at(arc, i, seg.j)))
            if seg.j < len(log):
                t, j, case, _ = log[seg.j]
                writer.writerow(row(t, j, f"{case}:pre",
                                    state_at(arc, seg.rows.stop - 1, j)))
                writer.writerow(row(t, j + 1, f"{case}:post",
                                    segment_start(arc, j + 1)))


def all_pairs_directional(arc_a, arc_b, tau, side, with_held=True):
    """Oracle: one direction of ``closeness`` by an all-pairs scan of each
    read segment of arc_a against arc_b's segment at the same j, over rows
    of [t, x, tau_c, tau_g]; ``with_held=False`` leaves out the held gap."""
    def columns(arc, j):
        rows = segment_rows(arc, j)
        return np.column_stack([arc.times[rows], arc.x[rows],
                                arc.tau_c[rows], arc.tau_g[rows]])

    held_a, held_b = arc_a.held(), arc_b.held()
    worst, witness = 0.0, (side, 0.0, 0)
    for j in range(len(arc_a.offsets) - 1):
        a = columns(arc_a, j)
        read = a[a[:, 0] + j <= tau + hybrid.EVENT_TOL]
        if not len(read):
            break
        if j >= len(arc_b.offsets) - 1:
            return math.inf, (side, float(a[0, 0]), j)
        b = columns(arc_b, j)
        gaps = np.abs(read[:, None, :] - b[None, :, :]).max(axis=2)
        held = np.max(np.abs(held_a[j] - held_b[j])) if with_held else 0.0
        match = np.maximum(gaps.min(axis=1), held)
        k = int(np.argmax(match))
        if match[k] > worst:
            worst, witness = float(match[k]), (side, float(read[k, 0]), j)
    return worst, witness


def _max_segment(arc) -> int:
    return int(np.diff(arc.offsets).max())


# S1 edits for an n = 3, m = 2, p = 2 plant
N3_M2_P2 = {"plant": {"A": [[-1.0, 0.2, 0.0], [0.0, -1.5, 0.3],
                            [0.1, 0.0, -2.0]],
                      "B": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
                      "C": [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
                      "d": [0.5, -0.2]},
            "objective": {"Q_u": [[1.0, 0.0], [0.0, 1.0]],
                          "Q_y": [[1.0, 0.0], [0.0, 1.0]],
                          "y_hat": [1.0, 0.5], "gamma": 0.2},
            "input_set": {"kind": "box", "lo": [-1.0, -1.0],
                          "hi": [1.0, 1.0]},
            "perturbation": None}


def _timer_rows(arc) -> int:
    """Distinct (tau_c, tau_g) bit patterns of an arc's samples."""
    rows = np.column_stack([arc.tau_c, arc.tau_g]).view(np.int64)
    return len(np.unique(rows, axis=0))


def _block_boundary_at_a_jump(arc) -> bool:
    return any(hi % cli.CSV_BLOCK == 0 for hi in arc.offsets[1:-1].tolist())


# S1 edits that give the trajectory writer arcs of different shapes, each
# with a check that the arc has that shape (lines: the CSV's lines)
CSV_ARCS = [
    pytest.param({}, lambda arc, lines: len(lines) > 1000, id="s1"),
    pytest.param({"horizon": {"T": 0.0, "J": 1000}},
                 lambda arc, lines: len(arc.times) == 1, id="zero-horizon"),
    # flows of 0.25 store their start and end only
    pytest.param({"sample_dt": 0.3},
                 lambda arc, lines: _max_segment(arc) == 2,
                 id="no-grid-step-inside-a-flow"),
    pytest.param({"timers": {"tau_c_min": 1.0, "tau_c_max": 1.5,
                             "tau_g_comp": 0.25, "ell": 4},
                  "policy": {"tau_c_reset": "uniform",
                             "case3_order": "random", "seed": 3}},
                 lambda arc, lines: any(case.startswith("G3")
                                        for _, _, case, _ in jump_log(arc)),
                 id="uniform-reset-random-composite-order"),
    pytest.param(N3_M2_P2,
                 lambda arc, lines: arc.x.shape[1] == 3 and arc.u.shape[1] == 2,
                 id="n3-m2-p2"),
    pytest.param({"timers": {"tau_c_min": 20.0, "tau_c_max": 20.0,
                             "tau_g_comp": 5.0, "ell": 4},
                  "horizon": {"T": 45.0, "J": 1000}},
                 lambda arc, lines: _max_segment(arc) > cli.CSV_BLOCK,
                 id="segment-longer-than-a-block"),
    # jump 21 ends segment 21 at sample 256: its :pre row is the last of a
    # block and its :post row the first of the next
    pytest.param({"sample_dt": 0.02, "horizon": {"T": 10.0, "J": 1000}},
                 lambda arc, lines: _block_boundary_at_a_jump(arc),
                 id="block-boundary-at-a-jump"),
    pytest.param({**N3_M2_P2, "sample_dt": 0.02,
                  "horizon": {"T": 10.0, "J": 1000}},
                 lambda arc, lines: (arc.x.shape[1] == 3
                                     and _block_boundary_at_a_jump(arc)),
                 id="n3-m2-block-boundary-at-a-jump"),
    # a uniform tau_c reset and a tau_g period off the sample grid: more
    # distinct timer rows than the writer's memo holds
    pytest.param({"timers": {"tau_c_min": 1.0, "tau_c_max": 1.5,
                             "tau_g_comp": 0.237, "ell": 4},
                  "policy": {"tau_c_reset": "uniform", "seed": 5},
                  "horizon": {"T": 60.0, "J": 10 ** 6}},
                 lambda arc, lines: _timer_rows(arc) > 4 * cli.CSV_BLOCK,
                 id="more-timer-rows-than-the-memo-holds"),
    pytest.param({"init": {"mode": "global",
                           "zeta0": {"x": [-0.0], "u": [0.0], "y_s": [0.5],
                                     "z": [0.0], "tau_c": 1.0,
                                     "tau_g": 0.25}}},
                 lambda arc, lines: lines[1].split(",")[3] == "-0.0",
                 id="negative-zero-start"),
]


class TestParseConfig:
    def test_s1_parses(self):
        config = parse_config(S1_CONFIG)
        assert config.params.plant.n == 1
        assert config.params.timers.ell == 4
        assert config.policy.seed == 1
        assert config.horizon == (30.0, 1000)
        assert config.perturbation is not None

    def test_round_trip(self):
        config = parse_config(S1_CONFIG)
        again = parse_config(config.document)
        assert np.array_equal(again.params.plant.a, config.params.plant.a)
        assert again.params.timers == config.params.timers
        assert again.policy == config.policy
        assert again.horizon == config.horizon
        assert np.array_equal(again.perturbation.a_hat,
                              config.perturbation.a_hat)

    def test_policy_names_are_jump_policys(self):
        # the config reads the names JumpPolicy owns, and lists them
        for reset in JumpPolicy.TAU_C_RESETS:
            for order in JumpPolicy.CASE3_ORDERS:
                data = load_s1_dict()
                data["policy"].update(tau_c_reset=reset, case3_order=order,
                                      tau_c_value=1.0)
                policy = parse_config(data).policy
                assert (policy.tau_c_reset, policy.case3_order) == (reset,
                                                                    order)
        for key, names in (("tau_c_reset", JumpPolicy.TAU_C_RESETS),
                           ("case3_order", JumpPolicy.CASE3_ORDERS)):
            data = load_s1_dict()
            data["policy"][key] = "sideways"
            with pytest.raises(ConfigError) as err:
                parse_config(data)
            assert str(err.value) == (f"field 'policy.{key}' must be "
                                      f"{'|'.join(names)}, got 'sideways'")

    def test_missing_field_named(self):
        data = load_s1_dict()
        del data["plant"]["B"]
        with pytest.raises(ConfigError, match="plant.B"):
            parse_config(data)

    def test_shape_mismatch_named(self):
        data = load_s1_dict()
        data["objective"]["Q_u"] = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(ConfigError, match="objective.Q_u"):
            parse_config(data)

    @pytest.mark.parametrize("field, value", [
        ("horizon.T", float("nan")),
        ("horizon.T", float("inf")),
        ("horizon.T", -1.0),
        ("horizon.J", float("nan")),
        ("sample_dt", float("nan")),
        ("sample_dt", 0.0),
        ("sample_dt", -0.01),
    ])
    def test_bad_horizon_or_sample_step_names_field(self, tmp_path, capsys,
                                                    field, value):
        data = load_s1_dict()
        if field == "sample_dt":
            data["sample_dt"] = value
        else:
            data["horizon"][field.split(".")[1]] = value
        cfg = write_config(tmp_path, data)
        assert main(["verify", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert field in err
        assert not (tmp_path / "verify_report.json").exists()

    @pytest.mark.parametrize("section", [
        "plant", "objective", "timers", "input_set", "horizon", "policy",
        "init", "init.zeta0", "overrides", "perturbation",
    ])
    @pytest.mark.parametrize("value", [5, [1.0]])
    def test_non_object_section_names_it(self, tmp_path, capsys, section,
                                         value):
        data = load_s1_dict()
        if section == "init.zeta0":
            data["init"]["zeta0"] = value
        else:
            data[section] = value
        cfg = write_config(tmp_path, data)
        assert main(["verify", cfg, "--out", str(tmp_path)]) == 2
        assert f"section '{section}' must be a JSON object" in (
            capsys.readouterr().err)

    ZETA0 = {"x": [0.2], "u": [0.1], "y_s": [0.6], "z": [0.3], "tau_c": 0.5,
             "tau_g": 0.25}

    @pytest.mark.parametrize("section, fields, field", [
        ("timers", {"ell": 4.7}, "timers.ell"),
        ("timers", {"tau_c_min": float("nan")}, "timers.tau_c_min"),
        ("timers", {"tau_g_comp": "x"}, "timers.tau_g_comp"),
        ("objective", {"gamma": "x"}, "objective.gamma"),
        ("policy", {"seed": 1.5}, "policy.seed"),
        ("policy", {"seed": -1}, "policy.seed"),
        ("policy", {"tau_c_reset": "fixed", "tau_c_value": "abc"},
         "policy.tau_c_value"),
        ("policy", {"tau_c_reset": "fixed", "tau_c_value": float("inf")},
         "policy.tau_c_value"),
        ("horizon", {"J": 10.5}, "horizon.J"),
        # r_scale is no longer a key: refused as unknown, still named
        ("overrides", {"r_scale": float("nan")}, "overrides.r_scale"),
        ("overrides", {"rho": "x"}, "overrides.rho"),
        ("overrides", {"rho": 0.0}, "overrides.rho"),
        ("input_set", {"kind": "ball", "center": [0.0], "radius": "x"},
         "input_set.radius"),
        ("perturbation", {"kappa_c": float("inf")}, "perturbation.kappa_c"),
        ("perturbation", {"theta_c_max": "x"}, "perturbation.theta_c_max"),
        ("init", {"mode": "global", "zeta0": dict(ZETA0, tau_c=float("nan"))},
         "init.zeta0.tau_c"),
        ("init", {"mode": "global", "zeta0": dict(ZETA0, tau_g="x")},
         "init.zeta0.tau_g"),
        ("input_set", {"kind": "ball", "center": [0.0], "radius": 0},
         "input_set.radius"),
        ("input_set", {"lo": [1.0], "hi": [-1.0]}, "input_set.lo"),
        ("input_set", {"lo": [1.0], "hi": [-1.0]}, "input_set.hi"),
        ("policy", {"tau_c_reset": "fixed", "tau_c_value": 5.0},
         "policy.tau_c_value"),
        ("policy", {"tau_c_reset": "fixed"}, "policy.tau_c_value"),
        ("overrides", {"r_scale": 0.0}, "overrides.r_scale"),
        ("overrides", {"r_scale": -1.0}, "overrides.r_scale"),
        ("overrides", {"rho": float("inf")}, "overrides.rho"),
    ])
    def test_bad_scalar_field_named(self, tmp_path, capsys, section, fields,
                                    field):
        data = load_s1_dict()
        data.setdefault(section, {}).update(fields)
        cfg = write_config(tmp_path, data)
        assert main(["verify", cfg, "--out", str(tmp_path)]) == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not (tmp_path / "verify_report.json").exists()

    @pytest.mark.parametrize("section, key", [
        ("horizon", "J"), ("timers", "ell"), ("policy", "seed"),
        ("objective", "gamma"),
    ])
    def test_boolean_is_not_a_number(self, tmp_path, capsys, section, key):
        data = load_s1_dict()
        data[section][key] = True
        cfg = write_config(tmp_path, data)
        assert main(["verify", cfg, "--out", str(tmp_path)]) == 2
        assert f"field '{section}.{key}' is not a number" in (
            capsys.readouterr().err)
        assert not (tmp_path / "verify_report.json").exists()

    @pytest.mark.parametrize("path, value, message", [
        ("plant.A", [[True]], "is not numeric"),
        ("objective.y_hat", [True], "is not numeric"),
        ("init.zeta0.u", [False], "is not numeric"),
        ("perturbation.B_hat", [[True]], "is not numeric"),
        ("objective.y_hat", [float("inf")], "must be finite"),
        ("init.zeta0.x", [float("nan")], "must be finite"),
    ])
    def test_bad_array_entry_named(self, tmp_path, capsys, path, value,
                                   message):
        data = load_s1_dict()
        data["init"] = {"mode": "global", "zeta0": dict(self.ZETA0)}
        *sections, key = path.split(".")
        target = data
        for section in sections:
            target = target[section]
        target[key] = value
        cfg = write_config(tmp_path, data)
        assert main(["verify", cfg, "--out", str(tmp_path)]) == 2
        assert f"error: field '{path}' {message}" in capsys.readouterr().err
        assert not (tmp_path / "verify_report.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "verify", "robustness"])
    @pytest.mark.parametrize("policy", [
        {"tau_c_reset": "fixed", "tau_c_value": 5.0},
        {"tau_c_reset": "fixed"},
    ])
    def test_fixed_reset_checked_when_read(self, tmp_path, capsys, command,
                                           policy):
        # at T = 0.5 no input jump happens, so only the parser can catch it
        data = load_s1_dict()
        data["policy"] = policy
        data["horizon"]["T"] = 0.5
        cfg = write_config(tmp_path, data)
        assert main([command, cfg, "--out", str(tmp_path)]) == 2
        assert "error: field 'policy.tau_c_value' must lie in" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("section, fields, field", [
        ("perturbation", {"kapa_c": 0.1}, "perturbation.kapa_c"),
        ("policy", {"case3order": "g2_first"}, "policy.case3order"),
        (None, {"overides": {"rho": 5}}, "config.overides"),
        ("overrides", {"rh0": 5}, "overrides.rh0"),
        ("plant", {"D": [[0.0]]}, "plant.D"),
        ("horizon", {"t": 5.0}, "horizon.t"),
        ("init", {"zeta0": dict(ZETA0, tau=1.0)}, "init.zeta0.tau"),
        ("input_set", {"radius": 1.0}, "input_set.radius"),
        ("overrides", {"r_scale": 0.05}, "overrides.r_scale"),
    ])
    def test_unknown_key_named(self, tmp_path, capsys, section, fields,
                               field):
        data = load_s1_dict()
        (data if section is None else data.setdefault(section, {})).update(
            fields)
        cfg = write_config(tmp_path, data)
        assert main(["verify", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown field '{field}'")
        assert "Traceback" not in err and "Warning" not in err
        assert not (tmp_path / "verify_report.json").exists()

    def test_integral_floats_accepted(self):
        data = load_s1_dict()
        data["timers"]["ell"] = 4.0
        data["policy"]["seed"] = 1.0
        data["horizon"]["J"] = 1000.0
        config = parse_config(data)
        assert (config.params.timers.ell, config.policy.seed,
                config.horizon[1]) == (4, 1, 1000)

    @pytest.mark.parametrize("input_set, field", [
        ({"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]}, "input_set.lo"),
        ({"kind": "box", "lo": [-1.0], "hi": [1.0, 1.0]}, "input_set.hi"),
        ({"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
         "input_set.center"),
    ])
    def test_input_set_length_must_match_inputs(self, tmp_path, capsys,
                                                input_set, field):
        data = load_s1_dict()
        data["input_set"] = input_set
        cfg = write_config(tmp_path, data)
        assert main(["verify", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"field '{field}' has length 2, expected 1" in err

    def test_s1_document_is_the_echo(self):
        # json.dumps compares key order and int / float too
        assert (json.dumps(parse_config(S1_CONFIG).document)
                == json.dumps(S1_ECHO))

    @pytest.mark.parametrize("edits, seed", [
        ({}, None),
        ({"input_set": {"kind": "ball", "center": [0.0], "radius": 2.0}}, None),
        ({"init": {"mode": "global", "zeta0": ZETA0}}, None),
        ({"overrides": {"rho": 0.5}}, None),
        ({}, "7"),
        ({"policy": None, "init": None, "perturbation": None}, None),
    ])
    def test_document_reads_back_to_itself(self, edits, seed):
        data = load_s1_dict()
        for key, value in edits.items():
            if value is None:
                del data[key]
            else:
                data[key] = value
        config = parse_config(data, seed)
        again = parse_config(config.document)
        assert json.dumps(again.document) == json.dumps(config.document)
        assert again.policy == config.policy
        if seed is not None:
            assert config.document["policy"]["seed"] == config.policy.seed == 7

    def test_json_error_line_anchored(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "plant": [,]\n}')
        with pytest.raises(ConfigError, match=r":2:"):
            parse_config(path)

    def test_explicit_initial_state(self, tmp_path):
        data = load_s1_dict()
        data["init"] = {
            "mode": "global",
            "zeta0": {"x": [0.2], "u": [0.1], "y_s": [0.6], "z": [0.3],
                      "tau_c": 0.5, "tau_g": 0.25},
        }
        config = parse_config(data)
        zeta0 = config.initial_state()
        assert zeta0.x[0] == 0.2
        assert zeta0.tau_c == 0.5


class TestSimulateCommand:
    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_runaway_horizon_exits_2_naming_it(self, tmp_path, capsys,
                                               command):
        data = load_s1_dict()
        data["horizon"] = {"T": 1e9, "J": 10 ** 12}
        # the bound refuses the run before it starts
        model = HybridFOModel(parse_config(data).params)
        assert hybrid.sample_bound(model, (1e9, 10 ** 12), 0.01) > 1e11
        cfg = write_config(tmp_path, data)
        assert main([command, cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "fields 'horizon.T' and 'horizon.J'" in err
        assert "1.1e+11 samples" in err
        assert not any(tmp_path.glob("*.csv"))

    def test_long_t_with_shipped_j_runs(self, tmp_path):
        data = load_s1_dict()
        data["horizon"]["T"] = 1e9
        cfg = write_config(tmp_path, data)
        assert main(["simulate", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["t_end"] == pytest.approx(200.0)
        assert report["jumps"] == 1000

    def test_s1_outputs(self, tmp_path):
        data = load_s1_dict()
        data["horizon"] = {"T": 3.0, "J": 1000}
        cfg = write_config(tmp_path, data)
        assert main(["simulate", cfg, "--out", str(tmp_path)]) == 0

        with (tmp_path / "trajectory.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "j", "case", "x_0", "u_0", "ys_0", "z_0",
                           "tau_c", "tau_g", "dist_to_A"]
        # jump instants appear as pre/post row pairs
        cases = [row[2] for row in rows[1:]]
        assert "G1:pre" in cases and "G1:post" in cases
        assert "G3-first-half:pre" in cases

        report = json.loads((tmp_path / "report.json").read_text())
        assert report["alpha"] == [4, 4, 4]
        assert report["non_zeno"]["passed"] is True
        assert report["constants"]["rho"] == 1.0
        assert "tool_version" in report

    def test_report_carries_m_estimate_audit(self, tmp_path):
        data = load_s1_dict()
        data["horizon"] = {"T": 1.0, "J": 100}
        cfg = write_config(tmp_path, data)
        assert main(["simulate", cfg, "--out", str(tmp_path)]) == 0
        consts = json.loads((tmp_path / "report.json").read_text())["constants"]
        audit = consts["m_estimate"]
        assert set(audit) == {"value", "sup", "t_at_max", "non_normal_note"}
        assert audit["value"] == consts["m_hat"]
        assert audit["value"] == pytest.approx(1.05 * max(1.0, audit["sup"]))
        # scalar S1 plant: ||e^{-t}|| e^{t} == 1 on the whole grid [0, 10];
        # grid values off by rounding alone tie with t = 0
        assert audit["sup"] == 1.0
        assert audit["t_at_max"] == 0.0
        assert audit["non_normal_note"] is None

    @pytest.mark.parametrize("edits, shape", CSV_ARCS)
    def test_csv_matches_per_state_writer(self, tmp_path, monkeypatch, edits,
                                          shape):
        data = load_s1_dict()
        data.update(edits)
        config = parse_config(data)
        arc, consts, _ = cli._run(config)
        per_state_csv(tmp_path / "states.csv", arc, consts, config.params)
        expected = (tmp_path / "states.csv").read_bytes()
        cli.write_trajectory_csv(tmp_path / "columns.csv", arc, consts,
                                 config.params)
        written = (tmp_path / "columns.csv").read_bytes()
        assert written == expected
        assert shape(arc, written.decode().split("\r\n"))
        # blocks of 7 samples and of 1: segments, point segments and jump
        # row pairs cross block edges, and most segments are cut in pieces
        for block in (7, 1):
            monkeypatch.setattr(cli, "CSV_BLOCK", block)
            cli.write_trajectory_csv(tmp_path / "columns.csv", arc, consts,
                                     config.params)
            assert (tmp_path / "columns.csv").read_bytes() == expected

    @pytest.mark.parametrize("drawn", [False, True], ids=["s1", "n3-drawn"])
    def test_long_csv_matches_per_state_writer(self, tmp_path, drawn):
        # two arcs at T = 1000: S1's deterministic schedule, and the n = 3,
        # m = 2 plant under a uniform tau_c reset and a random composite
        # order; what hfo simulate wrote, byte for byte against the same arc
        # written one full state per row
        data = load_s1_dict()
        data["horizon"] = {"T": 1000.0, "J": 10 ** 6}
        if drawn:
            data.update(N3_M2_P2)
            data["timers"]["tau_c_max"] = 1.5
            data["policy"].update(tau_c_reset="uniform", case3_order="random")
        cfg = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--out", str(out)]) == 0
        config = parse_config(cfg)
        arc, consts, _ = cli._run(config)
        assert len(arc.times) > 100_000
        per_state_csv(tmp_path / "states.csv", arc, consts, config.params)
        assert ((tmp_path / "states.csv").read_bytes()
                == (out / "trajectory.csv").read_bytes())

    def test_drawing_policy_runs_are_deterministic(self, tmp_path,
                                                   monkeypatch):
        # a uniform tau_c reset and a random composite order: the one
        # policy branch where simulate builds its seeded generator
        monkeypatch.delenv("HFO_SEED", raising=False)
        data = load_s1_dict()
        data["timers"]["tau_c_max"] = 1.2
        data["policy"].update(tau_c_reset="uniform", case3_order="random")
        cfg = write_config(tmp_path, data)
        for run in ("a", "b"):
            assert main(["simulate", cfg, "--out",
                         str(tmp_path / run / "simulate")]) == 0
            assert main(["robustness", cfg, "--out",
                         str(tmp_path / run / "robustness"),
                         "--tau", "30"]) == 0
        for name in ("simulate/trajectory.csv", "simulate/report.json",
                     "robustness/robustness.csv",
                     "robustness/robustness_report.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

        def jump_rows(out):  # the :pre and :post rows of trajectory.csv
            return [line for line in (out / "trajectory.csv").read_text()
                    .splitlines() if ":pre," in line or ":post," in line]

        monkeypatch.setenv("HFO_SEED", "11")
        assert main(["simulate", cfg, "--out", str(tmp_path / "seed")]) == 0
        assert (jump_rows(tmp_path / "a" / "simulate")
                != jump_rows(tmp_path / "seed"))

    @pytest.mark.parametrize("case", ["s1", "random-uniform", "seed-7"])
    def test_config_echo_reads_back_to_the_same_run(self, tmp_path,
                                                    monkeypatch, case):
        monkeypatch.delenv("HFO_SEED", raising=False)
        data = load_s1_dict()
        if case == "random-uniform":
            data["timers"]["tau_c_max"] = 1.5
            data["policy"].update(case3_order="random", tau_c_reset="uniform")
        elif case == "seed-7":
            monkeypatch.setenv("HFO_SEED", "7")
        cfg = write_config(tmp_path, data)
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["simulate", cfg, "--out", str(first)]) == 0
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(json.loads(
            (first / "report.json").read_text())["config"]))
        if case == "seed-7":
            assert '"seed": 7' in echo.read_text()
            monkeypatch.delenv("HFO_SEED")
        assert main(["simulate", str(echo), "--out", str(again)]) == 0
        assert ((first / "trajectory.csv").read_bytes()
                == (again / "trajectory.csv").read_bytes())

    def test_reprs_are_those_of_each_float(self):
        values = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1e-05, 1e16,
                           5e-324, 0.1 + 0.2, 2.0 ** 53 + 1.0, -1.5])
        assert cli._reprs(values) == [repr(float(v)) for v in values]

    def test_csv_writer_memory_bounded(self, tmp_path):
        # 105k stored samples at T = 1000: a buffer that grows with the arc
        # would hold ten times the T = 100 peak
        peaks = []
        for t_max in (100.0, 1000.0):
            data = load_s1_dict()
            data["horizon"] = {"T": t_max, "J": 10 ** 6}
            config = parse_config(data)
            arc, consts, _ = cli._run(config)
            tracemalloc.start()
            try:
                cli.write_trajectory_csv(tmp_path / "trajectory.csv", arc,
                                         consts, config.params)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(arc.times) > 100_000
        assert peaks[1] <= 2 * peaks[0]

    def test_timer_memo_empties_when_full(self):
        # segments whose texts the memo holds, then one with more new texts
        # than it has room for: the memo empties and then holds that one's
        def texts(tau_c, tau_g, dist):
            return [f",{c!r},{g!r},{d!r}\r\n" for c, g, d in
                    zip(tau_c.tolist(), tau_g.tolist(), dist.tolist())]

        rng = np.random.default_rng(5)
        held = rng.standard_normal((3, cli.CSV_BLOCK - 10))
        memo = {}
        assert cli._suffixes(*held, memo) == texts(*held)
        # keys are bit patterns: -0.0 and 0.0 stay apart
        signed = np.array([[-0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        assert cli._suffixes(*signed, memo) == texts(*signed)
        assert cli._suffixes(*abs(signed), memo) == texts(*abs(signed))
        assert cli._suffixes(*held.copy(), memo) == texts(*held)
        assert sorted(map(len, memo.values())) == [2, 2, cli.CSV_BLOCK - 10]
        column = rng.standard_normal((3, 20))
        assert cli._suffixes(*column, memo) == texts(*column)
        assert list(map(len, memo.values())) == [20]
        assert cli._suffixes(*column[:, ::-1], memo) == texts(*column[:, ::-1])
        assert list(map(len, memo.values())) == [20, 20]

    def test_internal_error_exit_3(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("state left the flow/jump domain")

        monkeypatch.setattr(hybrid, "simulate", broken)
        cfg = write_config(tmp_path, load_s1_dict())
        assert main(["simulate", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: state left the flow/jump")
        assert "Traceback" not in err

    def test_linalg_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("matrix is singular")

        monkeypatch.setattr(analysis, "reconstruct_x", singular)
        cfg = write_config(tmp_path, load_s1_dict())
        assert main(["verify", cfg, "--out", str(tmp_path)]) == 3
        assert "internal error: matrix is singular" in capsys.readouterr().err

    def test_arithmetic_error_exit_3(self, tmp_path, capsys, monkeypatch):
        def overflowing(*args, **kwargs):
            raise OverflowError("(34, 'Numerical result out of range')")

        monkeypatch.setattr(analysis, "rate_check", overflowing)
        cfg = write_config(tmp_path, load_s1_dict())
        assert main(["verify", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: (34, 'Numerical result out")

    def test_zero_horizon_single_row(self, tmp_path):
        data = load_s1_dict()
        data["horizon"] = {"T": 0.0, "J": 1000}
        cfg = write_config(tmp_path, data)
        assert main(["simulate", cfg, "--out", str(tmp_path)]) == 0
        with (tmp_path / "trajectory.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2  # header + the initial sample

    def test_invalid_stepsize_exit_2(self, tmp_path, capsys):
        data = load_s1_dict()
        data["objective"]["gamma"] = 0.7
        cfg = write_config(tmp_path, data)
        assert main(["simulate", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "stepsize" in err and "input-convergence range" in err

    @pytest.mark.parametrize("command", ["simulate", "verify", "robustness"])
    def test_integrator_plant_fails_hurwitz(self, tmp_path, capsys, command):
        # A = 0 is singular, so H = -C A^{-1} B does not exist: validation
        # must reject the plant before anything reads H
        data = load_s1_dict()
        data["plant"]["A"] = [[0.0]]
        cfg = write_config(tmp_path, data)
        assert main([command, cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: validation failed:")
        assert "hurwitz" in err

    @pytest.mark.parametrize("command", ["simulate", "verify", "robustness"])
    def test_numerically_singular_plant_fails_hurwitz(self, tmp_path, capsys,
                                                      command):
        # Hurwitz, but cond(A) = 1e13 is past the guarded solve's limit, so
        # A^{-1} B and H do not exist numerically: bad input, not exit 3
        data = load_s1_dict()
        data["plant"].update({"A": [[-1.0, 0.0], [0.0, -1e-13]],
                              "B": [[1.0], [1.0]], "C": [[1.0, 0.0]]})
        data["perturbation"] = {}
        cfg = write_config(tmp_path, data)
        assert main([command, cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: validation failed:\n  hurwitz: ")
        assert "condition estimate 1.000e+13" in err
        assert "stepsize" not in err and "init_" not in err

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{ not json }")
        assert main(["simulate", str(path), "--out", str(tmp_path)]) == 2

    def test_seed_env_override(self, tmp_path, monkeypatch):
        data = load_s1_dict()
        data["horizon"] = {"T": 1.0, "J": 100}
        cfg = write_config(tmp_path, data)
        monkeypatch.setenv("HFO_SEED", "42")
        assert main(["simulate", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["policy"]["seed"] == 42

    @pytest.mark.parametrize("value, seed", [
        ("7", 7), ("7.0", 7),
        # beyond float precision: digit strings are read exactly
        ("99999999999999999999", 99999999999999999999)])
    def test_seed_env_parsed_like_policy_seed(self, tmp_path, monkeypatch,
                                              value, seed):
        data = load_s1_dict()
        data["horizon"] = {"T": 1.0, "J": 100}
        cfg = write_config(tmp_path, data)
        monkeypatch.setenv("HFO_SEED", value)
        assert main(["simulate", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["policy"]["seed"] == seed

    @pytest.mark.parametrize("value", [
        "abc", "1.5", "-1", "nan",
        pytest.param("1" + "0" * 4400, id="4401-digits")])
    def test_bad_seed_env_exit_2(self, tmp_path, capsys, monkeypatch, value):
        cfg = write_config(tmp_path, load_s1_dict())
        monkeypatch.setenv("HFO_SEED", value)
        assert main(["simulate", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: field 'HFO_SEED'")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("j_max", [4, 9])
    def test_jump_budget_inside_composite_jump(self, tmp_path, j_max):
        # S1 jumps 3, 4 (and 8, 9) are the two halves of the composite jump
        # at t = 1 (t = 2); the budget J must not split them
        data = load_s1_dict()
        data["horizon"] = {"T": 30.0, "J": j_max}
        cfg = write_config(tmp_path, data)
        assert main(["simulate", cfg, "--out", str(tmp_path)]) == 0
        with (tmp_path / "trajectory.csv").open() as fh:
            rows = list(csv.reader(fh))[1:]
        jumps = json.loads((tmp_path / "report.json").read_text())["jumps"]
        assert jumps == j_max + 1
        segments = sorted({int(row[1]) for row in rows if row[2] == ""})
        assert segments == list(range(jumps + 1))
        pre = [int(row[1]) for row in rows if row[2].endswith(":pre")]
        post = [int(row[1]) for row in rows if row[2].endswith(":post")]
        assert pre == list(range(jumps))
        assert post == list(range(1, jumps + 1))


# S1 edits past a float's range or within the event tolerance, and the start
# of the stderr line that names the fault: the failed check, or the field
NUMERIC_LIMITS = [
    pytest.param("objective", {"gamma": 1e200}, "  stepsize: ", id="gamma"),
    pytest.param("timers", {"ell": 10 ** 400}, "error: field 'timers.ell'",
                 id="ell"),
    pytest.param("input_set", {"lo": [-1e308], "hi": [1e308]},
                 "  input_set: ", id="huge-box"),
    pytest.param("timers", {"tau_g_comp": 1e-12}, "  timers: ",
                 id="tau_g_comp"),
    # 10 / rho overflows, so estimate_M's grid step would be inf
    pytest.param("overrides", {"rho": 1e-310},
                 "error: overrides.rho = 1e-310 is too small: the overshoot "
                 "grid step", id="tiny-rho"),
]


class TestNumericLimits:
    @pytest.mark.parametrize("command", ["simulate", "verify", "robustness"])
    @pytest.mark.parametrize("section, fields, named", NUMERIC_LIMITS)
    def test_exits_2_naming_the_fault(self, tmp_path, capsys, command,
                                      section, fields, named):
        data = load_s1_dict()
        data.setdefault(section, {}).update(fields)
        cfg = write_config(tmp_path, data)
        extra = ["--tau", "2"] if command == "robustness" else []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, cfg, "--out", str(tmp_path)] + extra) == 2
        err = capsys.readouterr().err
        assert any(line.startswith(named) for line in err.splitlines())
        assert "Traceback" not in err and "Warning" not in err
        assert not caught  # no overflow warning either

    @pytest.mark.parametrize("command", ["simulate", "verify", "robustness"])
    def test_non_finite_radius_exits_2_before_the_run(self, tmp_path, capsys,
                                                      monkeypatch, command):
        # d_u = 1e308 is finite, but r = M ||B|| d_u / rho (...) is not
        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(hybrid, "simulate", no_run)
        monkeypatch.setattr(cli, "robustness_sweep", no_run)
        data = load_s1_dict()
        data["input_set"] = {"kind": "ball", "center": [0.0], "radius": 5e307}
        cfg = write_config(tmp_path, data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: constants not finite: r = inf")
        assert "input_set diameter d_u = 1e+308" in err.splitlines()[0]
        assert "Traceback" not in err and "Warning" not in err
        assert not caught

    @pytest.mark.parametrize("input_set, t_max", [
        ({"kind": "ball", "center": [0.0], "radius": 1e307}, 5.0),
        # the squares of its width overflow, its diameter does not
        ({"kind": "box", "lo": [-1e154], "hi": [1e154]}, 5.0),
        ({"kind": "box", "lo": [-1e154], "hi": [1e154]}, 30.0),
    ], ids=["ball", "box", "box-t30"])
    def test_huge_finite_input_set_verifies(self, tmp_path, capsys,
                                            input_set, t_max):
        data = load_s1_dict()
        data["input_set"] = input_set
        data["horizon"] = {"T": t_max, "J": 1000}
        cfg = write_config(tmp_path, data)
        assert main(["verify", cfg, "--out", str(tmp_path)]) == 0
        assert "FAIL" not in capsys.readouterr().out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert math.isfinite(report["constants"]["r"])

    @pytest.mark.parametrize("command", ["simulate", "verify", "robustness"])
    def test_constants_derived_once_before_the_run(self, tmp_path,
                                                   monkeypatch, command):
        calls = []

        def spy(name, fn):
            def recorded(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return recorded

        monkeypatch.setattr(analysis, "constants",
                            spy("constants", analysis.constants))
        monkeypatch.setattr(hybrid, "simulate", spy("run", hybrid.simulate))
        monkeypatch.setattr(cli, "robustness_sweep",
                            spy("run", cli.robustness_sweep))
        data = load_s1_dict()
        data["horizon"] = {"T": 2.0, "J": 1000}
        cfg = write_config(tmp_path, data)
        extra = ["--tau", "2"] if command == "robustness" else []
        assert main([command, cfg, "--out", str(tmp_path)] + extra) == 0
        assert calls == ["constants", "run"]

    def test_integer_past_digit_limit_named(self, tmp_path, capsys):
        # int() refuses a decimal string past 4300 digits
        data = load_s1_dict()
        data["timers"]["ell"] = 0
        text = json.dumps(data).replace('"ell": 0', '"ell": 1' + "0" * 4400)
        cfg = tmp_path / "scenario.json"
        cfg.write_text(text)
        assert main(["verify", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: field 'timers.ell'")
        assert "Traceback" not in err and "Warning" not in err

    def test_digit_string_past_float_range_named(self):
        data = load_s1_dict()
        data["horizon"]["J"] = "1" + "0" * 400
        with pytest.raises(ConfigError, match="'horizon.J'"):
            parse_config(data)

    def test_array_entry_past_float_range_named(self):
        data = load_s1_dict()
        data["plant"]["A"] = [[-(10 ** 400)]]
        with pytest.raises(ConfigError, match="'plant.A'"):
            parse_config(data)

    def test_timer_reset_just_past_event_tolerance_verifies(self, tmp_path,
                                                           capsys):
        data = load_s1_dict()
        data["timers"]["tau_g_comp"] = 1.5e-12
        cfg = write_config(tmp_path, data)
        assert main(["verify", cfg, "--out", str(tmp_path)]) == 0
        assert "FAIL" not in capsys.readouterr().out


class TestVerifyCommand:
    def test_s1_all_pass(self, tmp_path, capsys):
        data = load_s1_dict()
        data["horizon"] = {"T": 10.0, "J": 1000}
        cfg = write_config(tmp_path, data)
        assert main(["verify", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        for name in ("bound_thm1", "bound_thm2", "contraction",
                     "reconstruction", "non_zeno"):
            assert report["checks"][name]["passed"] is True
            assert f"PASS {name}" in out
        for name in ("bound_thm1", "bound_thm2"):
            check = report["checks"][name]
            assert 0.0 <= check["worst_t"] <= 10.0
            assert isinstance(check["worst_j"], int) and check["worst_j"] >= 0
        recon = report["checks"]["reconstruction"]
        assert list(recon) == ["passed", "max_deviation", "path",
                               "eigenbasis_cond"]
        assert recon["path"] == "eigenbasis"
        assert recon["eigenbasis_cond"] == 1.0

    def test_defective_plant_reconstructs_by_expm(self, tmp_path):
        # a Jordan block, driven into either state, at T = 10 and at the
        # shipped horizon
        for b, horizon in (([[0.0], [1.0]], {"T": 10.0, "J": 1000}),
                           ([[1.0], [0.0]], {"T": 30.0, "J": 1000})):
            data = load_s1_dict()
            data["plant"].update({"A": [[-1.0, 1.0], [0.0, -1.0]],
                                  "B": b, "C": [[0.2, 0.0]]})
            data["objective"]["gamma"] = 0.05
            data["horizon"] = horizon
            data.pop("perturbation")
            cfg = write_config(tmp_path, data)
            assert main(["verify", cfg, "--out", str(tmp_path)]) == 0
            report = json.loads((tmp_path / "verify_report.json").read_text())
            recon = report["checks"]["reconstruction"]
            assert recon["path"] == "expm"
            assert recon["eigenbasis_cond"] > 1e15
            assert recon["passed"] is True
            note = report["constants"]["m_estimate"]["non_normal_note"]
            assert note is not None

    @pytest.mark.parametrize("plant, horizon", [
        (None, None),
        ({"A": [[-1.0, 2.0], [-2.0, -1.0]], "B": [[1.0], [0.0]],
          "C": [[1.0, 0.0]]}, None),
        # one real mode beside a complex pair
        ({"A": [[-1.0, 2.0, 0.0], [-2.0, -1.0, 0.5], [0.0, 0.0, -0.5]],
          "B": [[1.0], [0.5], [-0.3]], "C": [[0.4, 0.2, 0.1]]}, None),
        # 2001 input periods, in chunks
        (None, {"T": 1000.0, "J": 10 ** 6}),
    ], ids=["s1", "rotation", "real-and-pair", "s1-t1000"])
    def test_reconstructs_in_the_eigenbasis(self, tmp_path, plant, horizon):
        data = load_s1_dict()
        if plant is not None:
            data["plant"].update(plant)
            del data["perturbation"]
        if horizon is not None:
            data["horizon"] = horizon
        cfg = write_config(tmp_path, data)
        assert main(["verify", cfg, "--out", str(tmp_path)]) == 0
        recon = json.loads((tmp_path / "verify_report.json").read_text())[
            "checks"]["reconstruction"]
        assert recon["path"] == "eigenbasis" and recon["passed"]

    @pytest.mark.parametrize("timers, policy", [
        ({}, {"case3_order": "g2_first"}),
        ({"tau_c_max": 1.5}, {"case3_order": "random",
                              "tau_c_reset": "uniform"}),
        ({"tau_c_max": 1.5}, {"tau_c_reset": "fixed", "tau_c_value": 1.25}),
    ], ids=["g2-first", "random-uniform", "fixed-wide"])
    def test_other_composite_orders_and_resets_verify(self, tmp_path, timers,
                                                      policy):
        data = load_s1_dict()
        data["timers"].update(timers)
        data["policy"].update(policy)
        cfg = write_config(tmp_path, data)
        assert main(["verify", cfg, "--out", str(tmp_path)]) == 0

    def test_ball_set_with_the_optimum_on_its_boundary(self, tmp_path,
                                                       capsys):
        data = load_s1_dict()
        data["plant"]["B"] = [[1.0, 0.5]]
        data["objective"].update(Q_u=[[1.0, 0.0], [0.0, 1.0]], gamma=0.2,
                                 y_hat=[4.0])
        data["input_set"] = {"kind": "ball", "center": [0.0, 0.0],
                             "radius": 1.0}
        del data["perturbation"]
        cfg = write_config(tmp_path, data)
        assert main(["verify", cfg, "--out", str(tmp_path)]) == 0
        assert "PASS contraction" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("plant, ties", [
        ({"A": [[-2.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, -2.0]],
          "B": [[1.0], [0.0], [0.0]], "C": [[1.0, 0.0, 0.0]]}, True),
        ({"A": [[-1.0, 4.0], [0.0, -2.0]], "B": [[1.0], [0.0]],
          "C": [[1.0, 0.0]]}, False),
    ], ids=["all-ties", "overshoot"])
    def test_overshoot_grid_maximizer(self, tmp_path, plant, ties):
        data = load_s1_dict()
        data["plant"].update(plant)
        del data["perturbation"]
        cfg = write_config(tmp_path, data)
        assert main(["verify", cfg, "--out", str(tmp_path)]) == 0
        audit = json.loads((tmp_path / "verify_report.json").read_text())[
            "constants"]["m_estimate"]
        if ties:
            assert audit["sup"] == 1.0 and audit["t_at_max"] == 0.0
        else:
            assert audit["t_at_max"] > 0.0

    @pytest.mark.parametrize("plant", ["mimo-7", "early-peak"])
    def test_overshoot_grid_matches_all_svd_and_recurrence(self, tmp_path,
                                                           plant):
        """estimate_M's report on an n = 20 plant, and on a non-normal plant
        with mu2 = lambda_max((A + A')/2) > 0, where no log-norm
        certificate applies (v(t) peaks at t = 0.75, in the first block, and
        every block but two is skipped): against the grid from its table of
        powers with an SVD at every point, and against the sequential
        recurrence e = step @ e, which shares no product with that grid."""
        from test_analysis import all_svd_estimate

        if plant == "mimo-7":
            data = scenarios.mimo_scenario(7)
        else:
            data = load_s1_dict()
            data["plant"].update(A=[[-1.0, 20.0], [0.0, -2.0]],
                                 B=[[0.0], [1.0]], C=[[0.1, 0.0]])
            data["overrides"] = {"rho": 0.1}
            del data["perturbation"]
        cfg = write_config(tmp_path, data)
        assert main(["verify", cfg, "--out", str(tmp_path)]) == 0
        consts = json.loads((tmp_path / "verify_report.json").read_text())[
            "constants"]
        a, rho = np.array(data["plant"]["A"], dtype=float), consts["rho"]
        got = consts["m_estimate"]
        assert ((got["value"], got["t_at_max"], got["sup"])
                == all_svd_estimate(a, rho))
        h = analysis.M_HORIZON / rho / analysis.M_GRID_POINTS
        step, e = linalg.mat_exp(a, h), np.eye(a.shape[0])
        seq_sup, seq_at = 1.0, 0.0
        for k in range(1, analysis.M_GRID_POINTS + 1):
            e = step @ e
            value = np.linalg.norm(e, 2) * np.exp(rho * k * h)
            if value > seq_sup:
                seq_sup, seq_at = value, k * h
        assert abs(got["sup"] - seq_sup) <= 1e-12 * seq_sup
        assert got["t_at_max"] == seq_at

    def test_mimo_derives_each_quantity_once(self, tmp_path, monkeypatch):
        """One eigendecomposition of A, one guarded solve (for A^{-1} B) and
        a handful of symmetric spectra per verify, whatever the number of
        input periods."""
        rng = np.random.default_rng(13)
        n, m, p = 20, 5, 5
        skew = rng.standard_normal((n, n)) * (0.5 / np.sqrt(n))
        spd = rng.standard_normal((n, n))
        a = -(spd @ spd.T / n + 0.5 * np.eye(n)) + (skew - skew.T)
        b = rng.standard_normal((n, m)) / np.sqrt(n)
        c = rng.standard_normal((p, n)) / np.sqrt(n)
        h = -c @ np.linalg.solve(a, b)
        big_l = float(np.linalg.eigvalsh(np.eye(m) + h.T @ h)[-1])
        data = load_s1_dict()
        data.pop("perturbation")
        data.update({
            "plant": {"A": a.tolist(), "B": b.tolist(), "C": c.tolist(),
                      "d": [0.1] * p},
            "objective": {"Q_u": np.eye(m).tolist(), "Q_y": np.eye(p).tolist(),
                          "y_hat": [1.0] * p,
                          "gamma": 0.5 * min(2.0 / (1.0 + big_l),
                                             2.0 / big_l ** 2)},
            "input_set": {"kind": "box", "lo": [-1.0] * m, "hi": [1.0] * m},
            "horizon": {"T": 5.0, "J": 1000},
        })
        cfg = write_config(tmp_path, data)
        calls = {}

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counting(np.linalg, "eig")
        counting(np.linalg, "eigvalsh")
        counting(linalg, "solve")
        counting(cli, "validate")
        assert main(["verify", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["checks"]["contraction"]["periods"] >= 4
        assert calls["validate"] == 1
        assert calls["eig"] == 1
        assert calls["solve"] == 1
        # Q_u and Q_y checked once each, then Q_u and the hessian's extremes
        assert calls["eigvalsh"] <= 4

    @pytest.mark.parametrize("timers, policy, least", [
        # input jumps on a 1.1 grid, gradient jumps on a 0.25 grid
        ({"tau_c_min": 1.1, "tau_c_max": 1.1}, {}, 1.1),
        # the set-valued reset drawn from [1, 1.5]
        ({"tau_c_max": 1.5}, {"tau_c_reset": "uniform"}, 1.0),
    ])
    def test_misaligned_resets_pass_non_zeno(self, tmp_path, capsys, timers,
                                             policy, least):
        data = load_s1_dict()
        data["timers"].update(timers)
        data["policy"].update(policy)
        cfg = write_config(tmp_path, data)
        assert main(["verify", cfg, "--out", str(tmp_path)]) == 0
        assert "PASS non_zeno" in capsys.readouterr().out
        zeno = json.loads((tmp_path / "verify_report.json").read_text())[
            "checks"]["non_zeno"]
        assert zeno["min_dwell"] is None  # no group-gap bound applies
        # jump groups come closer than min(tau_g_comp, tau_c_min) = 0.25
        assert 0.0 < zeno["min_flow_gap"] < 0.25
        assert zeno["min_gap_j"] >= 1 and zeno["min_gap_t"] > 0.0
        arc, _, _ = cli._run(parse_config(cfg))
        log = jump_log(arc)
        g2 = [t for t, _, _, applied in log if applied == "g2"]
        assert min(np.diff(g2)) >= least - 1e-12
        assert any(t == zeno["min_gap_t"] and j == zeno["min_gap_j"]
                   for t, j, _, _ in log)

    def test_aligned_s1_keeps_group_gap_bound(self, tmp_path):
        cfg = write_config(tmp_path, load_s1_dict())
        assert main(["verify", cfg, "--out", str(tmp_path)]) == 0
        zeno = json.loads((tmp_path / "verify_report.json").read_text())[
            "checks"]["non_zeno"]
        assert zeno["min_dwell"] == 0.25
        assert zeno["min_flow_gap"] == pytest.approx(0.25)

    def test_non_strict_init_skips_thm1(self, tmp_path, capsys):
        data = load_s1_dict()
        data["horizon"] = {"T": 10.0, "J": 1000}
        data["init"] = {
            "mode": "global",
            "zeta0": {"x": [0.2], "u": [0.1], "y_s": [0.6], "z": [0.3],
                      "tau_c": 0.5, "tau_g": 0.25},
        }
        cfg = write_config(tmp_path, data)
        assert main(["verify", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["checks"]["bound_thm1"]["passed"] is None
        assert "skipped" in report["checks"]["bound_thm1"]
        assert report["checks"]["bound_thm2"]["passed"] is True
        assert "SKIP bound_thm1" in capsys.readouterr().out

    def test_restricted_start_in_global_mode_checks_thm1(self, tmp_path,
                                                          capsys):
        # global mode only downgrades init failures; this start is restricted
        for t_max in (10.0, 30.0):
            data = load_s1_dict()
            data["horizon"] = {"T": t_max, "J": 1000}
            data["init"] = {"mode": "global"}
            cfg = write_config(tmp_path, data)
            assert main(["verify", cfg, "--out", str(tmp_path)]) == 0
            report = json.loads((tmp_path / "verify_report.json").read_text())
            assert {"name": "init_restricted", "status": "pass",
                    "detail": ""} in report["validation"]
            assert report["checks"]["bound_thm1"]["passed"] is True
            assert "PASS bound_thm1" in capsys.readouterr().out

    def test_negative_control_shrunk_radius_fails(self, tmp_path, capsys,
                                                  monkeypatch):
        data = load_s1_dict()
        data["horizon"] = {"T": 10.0, "J": 1000}
        # a radius shrunk enough that the initial distance exceeds the
        # (clipped) bound at t = 0
        derive = analysis.constants

        def shrunk(params):
            c = derive(params)
            return dataclasses.replace(c, r=0.05 * c.r)

        monkeypatch.setattr(analysis, "constants", shrunk)
        cfg = write_config(tmp_path, data)
        assert main(["verify", cfg, "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL bound_thm1" in out or "FAIL bound_thm2" in out

    @pytest.mark.parametrize("aligned", [False, True])
    def test_mimo_config_runs_the_mimo_arc(self, aligned):
        from test_analysis import mimo_arc, mimo_config

        scenario = {"n": 20, "horizon": (4.0, 1000), "x_shift": 1.0,
                    "aligned": aligned}
        arc, _ = mimo_arc(**scenario)
        config = parse_config(mimo_config(**scenario))
        again = cli._run(config)[0]
        for name in ("times", "x", "tau_c", "tau_g", "offsets", "u", "y_s",
                     "z"):
            assert (getattr(again, name).tobytes()
                    == getattr(arc, name).tobytes())
        assert np.array_equal(again.jumps, arc.jumps)

    @pytest.mark.parametrize("horizon, aligned, ratio", [
        (100.0, True, 1.5), (100.0, False, 2.0), (25.0, True, 2.6)],
        ids=["aligned-t100", "off-grid-t100", "aligned-t25"])
    def test_holds_about_one_arc_of_memory(self, tmp_path, horizon, aligned,
                                           ratio):
        """verify's checks go by row blocks and keep no per-sample copy: on
        an n = 20 plant the whole command peaks within a small multiple of
        the arc's stored payload (times, x and both timers). At T = 100 with
        aligned timers, so that simulate's closing maps stay few, that is
        1.5x. With timers off the sample grid nearly every segment closes
        over its own length, and each stacked propagator call holds at most
        hybrid.FLOW_ELEMENTS elements: 2x. At T = 25 the arc is short
        enough that constants' working memory (estimate_M's tables) sets the
        peak: 2.6x."""
        from test_analysis import mimo_arc, mimo_config

        scenario = {"n": 20, "horizon": (horizon, 10 ** 6), "x_shift": 1.0,
                    "aligned": aligned}
        arc, _ = mimo_arc(**scenario)
        payload = sum(a.nbytes for a in (arc.times, arc.x, arc.tau_c,
                                         arc.tau_g))
        del arc
        cfg = write_config(tmp_path, mimo_config(**scenario))
        out = str(tmp_path / "out")
        assert main(["verify", cfg, "--out", out]) == 0  # warm up
        tracemalloc.start()
        try:
            assert main(["verify", cfg, "--out", out]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ratio * payload


class TestRobustnessCommand:
    def test_runaway_tau_exits_2_naming_it(self, tmp_path, capsys):
        # the sweep runs to t = tau: the bound refuses it before it starts
        model = HybridFOModel(parse_config(load_s1_dict()).params)
        assert hybrid.sample_bound(model, (1e7, 10 ** 7 + 1), 0.01) > 2e8
        cfg = write_config(tmp_path, load_s1_dict())
        assert main(["robustness", cfg, "--out", str(tmp_path),
                     "--tau", "1e7"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --tau 1e+07: ")
        assert "samples" in err and "GiB" in err
        assert not (tmp_path / "robustness.csv").exists()

    @pytest.mark.parametrize("tau", ["1e308", repr(sys.float_info.max)])
    def test_float_max_tau_exits_2_naming_it(self, tmp_path, capsys, tau):
        # the cap is a Python int near 1.5e308 here; the sample bound takes
        # it as a float, so the bound is inf and refuses the run
        model = HybridFOModel(parse_config(load_s1_dict()).params)
        assert hybrid.sample_bound(model, (float(tau), 10 ** 308), 0.01) \
            == math.inf
        cfg = write_config(tmp_path, load_s1_dict())
        assert main(["robustness", cfg, "--out", str(tmp_path),
                     "--tau", tau]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --tau ") and "samples" in err
        assert not (tmp_path / "robustness.csv").exists()

    def test_s1_sweep(self, tmp_path, capsys):
        cfg = write_config(tmp_path, load_s1_dict())
        assert main(["robustness", cfg, "--out", str(tmp_path),
                     "--tau", "5.0"]) == 0
        with (tmp_path / "robustness.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["delta", "epsilon", "witness_t", "witness_j"]
        eps = [float(row[1]) for row in rows[1:]]
        assert len(eps) == 3
        assert eps[0] >= eps[1] >= eps[2]
        report = json.loads((tmp_path / "robustness_report.json").read_text())
        assert report["sweep"]["nonincreasing"] is True
        assert "nonincreasing" in capsys.readouterr().out

    def test_zero_delta_row(self, tmp_path):
        cfg = write_config(tmp_path, load_s1_dict())
        assert main(["robustness", cfg, "--out", str(tmp_path),
                     "--tau", "3.0", "--deltas", "0"]) == 0
        with (tmp_path / "robustness.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2
        assert float(rows[1][1]) == 0.0

    def test_report_rows_carry_witness_arc_and_truncation(self, tmp_path):
        cfg = write_config(tmp_path, load_s1_dict())
        assert main(["robustness", cfg, "--out", str(tmp_path),
                     "--tau", "6.5", "--deltas", "0.1,0"]) == 0
        rows = json.loads((tmp_path / "robustness_report.json").read_text())[
            "sweep"]["rows"]
        assert [row["witness_arc"] for row in rows][0] in (1, 2)
        assert [row["truncated"] for row in rows] == [False, False]
        with (tmp_path / "robustness.csv").open() as fh:
            header = next(csv.reader(fh))
        assert header == ["delta", "epsilon", "witness_t", "witness_j"]

    @pytest.mark.parametrize("flag, value", [
        ("--tau", "inf"), ("--tau", "nan"), ("--tau", "-1"),
        ("--deltas", "nan"), ("--deltas", "0.1,-0.01"), ("--deltas", "inf"),
        ("--deltas", "0.1,abc"), ("--deltas", ""), ("--deltas", " "),
    ])
    def test_bad_sweep_arguments_exit_2(self, tmp_path, capsys, flag, value):
        cfg = write_config(tmp_path, load_s1_dict())
        assert main(["robustness", cfg, "--out", str(tmp_path),
                     f"{flag}={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}")
        assert not (tmp_path / "robustness.csv").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--tau", "nan"), ("--tau", "-1"), ("--deltas", "0.1,abc")])
    def test_bad_sweep_arguments_refused_before_the_constants(
            self, tmp_path, monkeypatch, flag, value):
        calls = []
        derive = analysis.constants

        def counted(params):
            calls.append(params)
            return derive(params)

        monkeypatch.setattr(analysis, "constants", counted)
        cfg = write_config(tmp_path, load_s1_dict())
        assert main(["robustness", cfg, "--out", str(tmp_path),
                     f"{flag}={value}"]) == 2
        assert calls == []

    @pytest.mark.parametrize("perturbation, deltas, message", [
        # kappa_c = 0.1: the control timer rate -1 + 20 kappa_c is positive
        ({}, "20", "timer rates"),
        # tau_c_min + 1 * theta_c_min = -4
        ({"theta_c_min": -5.0}, "1", "tau_c reset interval"),
    ])
    def test_out_of_range_scale_named_before_any_run(
            self, tmp_path, capsys, monkeypatch, perturbation, deltas,
            message):
        def no_run(*args, **kwargs):
            raise AssertionError("simulated before every scale was checked")

        monkeypatch.setattr(robustness, "simulate", no_run)
        data = load_s1_dict()
        data["perturbation"].update(perturbation)
        cfg = write_config(tmp_path, data)
        assert main(["robustness", cfg, "--out", str(tmp_path),
                     "--deltas", deltas, "--tau", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --deltas: scale {deltas}: ")
        assert message in err

    def test_each_scale_builds_one_model(self, tmp_path, monkeypatch):
        built = []
        init = HybridFOModel.__init__

        def counted(self, params, pert=None, delta=0.0):
            built.append(delta)
            init(self, params, pert, delta)

        monkeypatch.setattr(HybridFOModel, "__init__", counted)
        cfg = write_config(tmp_path, load_s1_dict())
        assert main(["robustness", cfg, "--out", str(tmp_path),
                     "--deltas", "0.1,0.01", "--tau", "2"]) == 0
        assert sorted(d for d in built if d != 0.0) == [0.01, 0.1]

    def test_parser_is_built_once_and_keeps_no_arguments(self, tmp_path,
                                                         monkeypatch):
        # a second run in the same process gets the default deltas back
        built = []
        build = cli.build_parser

        def counted():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        monkeypatch.setattr(cli, "_PARSER", None)
        cfg = write_config(tmp_path, load_s1_dict())
        deltas = []
        for extra in (["--deltas", "0.5"], []):
            out = tmp_path / str(len(deltas))
            assert main(["robustness", cfg, "--out", str(out), "--tau", "2",
                         *extra]) == 0
            rows = json.loads((out / "robustness_report.json").read_text())[
                "sweep"]["rows"]
            deltas.append([row["delta"] for row in rows])
        assert deltas == [[0.5], [0.1, 0.01, 0.001]]
        assert len(built) == 1

    def test_fixed_reset_follows_the_shifted_interval(self, tmp_path):
        # S1's reset interval is the point tau_c = 1, which theta_c shifts
        # to 1 + 0.02 delta: the fixed reset at 1 then acts as the min reset
        data = load_s1_dict()
        outputs = []
        for name, policy in [("min", {"tau_c_reset": "min"}),
                             ("fixed", {"tau_c_reset": "fixed",
                                        "tau_c_value": 1.0})]:
            data["policy"].update(policy)
            out = tmp_path / name
            assert main(["robustness",
                         write_config(tmp_path, data, f"{name}.json"),
                         "--out", str(out), "--tau", "30"]) == 0
            outputs.append((out / "robustness.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("offsets", [
        {"theta_c_min": -0.02, "theta_c_max": -0.02},
        {"theta_g_comp": -0.02},
    ])
    def test_negative_reset_offsets_run(self, tmp_path, offsets):
        # the strict start lies outside the shrunken perturbed domain; the
        # perturbed runs start O(delta) inside it
        data = load_s1_dict()
        data["perturbation"].update(offsets)
        cfg = write_config(tmp_path, data)
        assert main(["robustness", cfg, "--out", str(tmp_path),
                     "--tau", "5"]) == 0
        rows = json.loads((tmp_path / "robustness_report.json").read_text())[
            "sweep"]["rows"]
        assert all(math.isfinite(row["epsilon"]) for row in rows)

    def test_long_sweep_rows_match_an_all_pairs_scan(self, tmp_path):
        # every row of a sweep to tau = 300, whose wide windows span whole
        # segments, again from the same runs by the all-pairs scan; and each
        # direction with no held gap, which S1's rows do not show, since
        # their worst match is a held gap
        assert main(["robustness", str(S1_CONFIG), "--out", str(tmp_path),
                     "--tau", "300", "--deltas", "0.9,0.5,0.1,0.001"]) == 0
        config = parse_config(S1_CONFIG)
        report = json.loads((tmp_path / "robustness_report.json").read_text())
        tau = report["sweep"]["tau"]
        zeta0 = validate(config.params, config.zeta0,
                         mode=config.init_mode).zeta0
        horizon = (tau, math.floor(tau + hybrid.EVENT_TOL) + 1)
        nominal = hybrid.simulate(HybridFOModel(config.params), zeta0,
                                  config.policy, horizon, config.sample_dt)
        with (tmp_path / "robustness.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for row, record in zip(rows, report["sweep"]["rows"]):
            model = HybridFOModel(config.params, config.perturbation,
                                  float(row["delta"]))
            perturbed = hybrid.simulate(
                model, robustness._start(model, zeta0),
                robustness._clipped(model, config.policy), horizon,
                config.sample_dt)
            e1, w1 = all_pairs_directional(nominal, perturbed, tau, 1)
            e2, w2 = all_pairs_directional(perturbed, nominal, tau, 2)
            eps, (side, t, j) = (e1, w1) if e1 >= e2 else (e2, w2)
            assert (float(row["epsilon"]), float(row["witness_t"]),
                    int(row["witness_j"]), record["witness_arc"]) == (
                        eps, t, j, side)
            shared = min(len(nominal.offsets), len(perturbed.offsets)) - 1
            for side, pair in ((1, (nominal, perturbed)),
                               (2, (perturbed, nominal))):
                flow = robustness._directional(*pair, np.zeros(shared), tau,
                                               side)
                assert flow == all_pairs_directional(*pair, tau, side,
                                                     with_held=False)

    def test_missing_perturbation_exit_2(self, tmp_path, capsys):
        data = load_s1_dict()
        del data["perturbation"]
        cfg = write_config(tmp_path, data)
        assert main(["robustness", cfg, "--out", str(tmp_path)]) == 2
        assert "perturbation" in capsys.readouterr().err


class TestJsonText:
    """``cli.json_text`` writes the reports as ``json.dumps(report,
    indent=2)`` would, byte for byte."""

    @pytest.mark.parametrize("command, config", [
        ("simulate", "s1"), ("verify", "s1"), ("robustness", "s1"),
        ("verify", "mimo-3")])
    def test_reports_match_json_dumps(self, tmp_path, monkeypatch, command,
                                      config):
        reports, json_text = [], cli.json_text

        def kept(report):
            reports.append(report)
            return json_text(report)

        monkeypatch.setattr(cli, "json_text", kept)
        data = (load_s1_dict() if config == "s1"
                else scenarios.mimo_scenario(3))
        cfg = write_config(tmp_path, data)
        assert main([command, cfg, "--out", str(tmp_path)]) == 0
        report, = reports
        written, = (path for path in tmp_path.glob("*.json")
                    if path.name != "scenario.json")
        assert written.read_text() == json.dumps(report, indent=2)

    def test_edge_values_match_json_dumps(self):
        report = {
            "floats": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16,
                       0.1, np.float64(2.5), np.float64(math.nan)],
            "row": [1.0, -0.0, 5e-324, 1e16, 1 / 3],
            "ints": [2 ** 53 + 1, -(2 ** 70), 0, True, False, None],
            "empty": {"list": [], "dict": {}, "nested": [[], {}, [[]]]},
            "tuple": (1, 2.5, "three", (None,)),
            "text": "na\u00efve \u2713 \"quoted\" \\ tab\t\n\u0001",
            "": {"deep": {"deeper": [{"k": [0.5]}]}},
        }
        assert cli.json_text(report) == json.dumps(report, indent=2)
        for value in (1.5, "x", None, [], {}, ()):
            assert cli.json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        np.int64(1), {1, 2}, {"a": b"bytes"}, [np.bool_(True)]])
    def test_other_types_raise_type_error(self, value):
        for encode in (lambda v: json.dumps(v, indent=2), cli.json_text):
            with pytest.raises(TypeError):
                encode(value)

    def test_keys_other_than_str_raise_type_error(self):
        # json would write 1 as "1"; no report has such a key
        with pytest.raises(TypeError, match="keys must be str"):
            cli.json_text({"a": {1: "int key"}})


class TestOutDirectory:
    COMMANDS = [pytest.param(["simulate"], id="simulate"),
                pytest.param(["verify"], id="verify"),
                pytest.param(["robustness", "--tau", "2"], id="robustness")]

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("where, reason", [
        ("file", "File exists"), ("file/sub", "Not a directory")])
    def test_unusable_out_exits_2_before_any_run(
            self, tmp_path, capsys, monkeypatch, command, where, reason):
        def no_run(*args, **kwargs):
            raise AssertionError("simulated before --out was made")

        monkeypatch.setattr(hybrid, "simulate", no_run)
        monkeypatch.setattr(robustness, "simulate", no_run)
        cfg = write_config(tmp_path, load_s1_dict())
        (tmp_path / "file").write_text("")
        out = tmp_path / where
        assert main([command[0], cfg, "--out", str(out), *command[1:]]) == 2
        assert capsys.readouterr().err == f"error: --out {out}: {reason}\n"

    @pytest.mark.parametrize("command, output", [
        (["simulate"], "trajectory.csv"),
        (["simulate"], "report.json"),
        (["verify"], "verify_report.json"),
        (["robustness", "--tau", "2"], "robustness.csv"),
        (["robustness", "--tau", "2"], "robustness_report.json"),
    ])
    def test_unwritable_output_exits_2_naming_it(self, tmp_path, capsys,
                                                 command, output):
        cfg = write_config(tmp_path, load_s1_dict())
        out = tmp_path / "out"
        (out / output).mkdir(parents=True)
        assert main([command[0], cfg, "--out", str(out), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --out {out}: Is a directory: {out / output}\n"


def test_workflow_runs_no_inline_python():
    # every check lives in tier-1, which the workflow's last step runs: the
    # workflow calls the console script and pytest, and holds no python -c
    # step and no heredoc script
    text = WORKFLOW.read_text()
    assert not re.search(r"\bpython3?\s+-(c\b|\s|$)", text, re.M)
    assert "<<" not in text


def test_commands_import_no_scipy(tmp_path):
    # numpy is the only runtime dependency: the three commands, run in one
    # fresh interpreter, leave scipy unloaded
    script = (
        "import sys\n"
        "from hfo.cli import main\n"
        "cfg, out = sys.argv[1:]\n"
        "for command in (['simulate'], ['verify'], ['robustness', '--tau', '5']):\n"
        "    assert main([command[0], cfg, '--out', out + '/' + command[0],\n"
        "                 *command[1:]]) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script, str(S1_CONFIG),
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_workflow_job_is_bounded_and_cached():
    # a hung run frees its runner after 30 minutes, and pip's downloads are
    # cached, keyed on pyproject.toml, which declares the dependencies
    import yaml  # the test extra's PyYAML
    doc = yaml.safe_load(WORKFLOW.read_text())
    job, = doc["jobs"].values()
    assert job["timeout-minutes"] == 30
    setup, = (step for step in job["steps"]
              if step.get("uses", "").startswith("actions/setup-python"))
    assert setup["with"]["cache"] == "pip"
    assert (ROOT / setup["with"]["cache-dependency-path"]).is_file()


def test_readme_names_every_flag_key_and_exit_code():
    # README.md documents every command-line flag, config key and exit code,
    # so cutting it cannot drop one unnoticed
    readme = (ROOT / "README.md").read_text()
    flags, parsers = [], [cli.build_parser()]
    while parsers:
        for action in parsers.pop()._actions:
            flags += [flag for flag in action.option_strings
                      if flag not in ("-h", "--help")]
            for name, sub in (action.choices or {}).items():
                if isinstance(sub, argparse.ArgumentParser):  # a subcommand
                    flags.append(name)
                    parsers.append(sub)
    assert {"--out", "--deltas", "--tau", "--version", "robustness"} <= set(
        flags)
    keys, documents = [], [parse_config(str(S1_CONFIG)).document]
    while documents:
        for key, value in documents.pop().items():
            keys.append(key)
            if isinstance(value, dict):
                documents.append(value)
    keys += ["tau_c_value", "center", "radius", "A_hat", "B_hat", "H_hat",
             "kappa_c", "kappa_g", "theta_g_comp", "theta_c_min",
             "theta_c_max", "overrides.rho", "HFO_SEED"]
    # the words of the README's code spans and blocks
    code = {word.strip("`") for span in re.findall(r"```.*?```|`[^`]+`",
                                                    readme, re.S)
            for word in span.split()}
    assert not [name for name in flags + keys if name not in code]
    exits = readme[readme.index("Exit codes:"):readme.index("`HFO_SEED`")]
    codes = {value for name, value in vars(cli).items()
             if name.startswith("EXIT_")}
    assert codes == {0, 1, 2, 3}
    assert all(re.search(rf"\b{code}\s+[a-z]", exits) for code in codes)
