"""Scenario configuration: a single JSON document describing the plant,
objective, timers, input set, initialization, policy, horizon, and an
optional perturbation block."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import (
    Ball,
    Box,
    JumpPolicy,
    ModelParams,
    Objective,
    Perturbation,
    Plant,
    State,
    Timers,
    make_state,
    strict_initial_state,
)


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


@dataclass
class ScenarioConfig:
    params: ModelParams
    policy: JumpPolicy
    horizon: tuple  # (T seconds, J jumps)
    sample_dt: float
    init_mode: str  # "strict" | "global"
    zeta0: State | None = None
    perturbation: Perturbation | None = None
    r_scale: float = 1.0  # debug knob for negative-control runs

    def initial_state(self) -> State:
        if self.zeta0 is not None:
            return self.zeta0
        return strict_initial_state(self.params)


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise ConfigError(f"missing required field '{where}.{key}'")
    return data[key]


def _finite(value, where: str) -> float:
    if isinstance(value, bool):
        raise ConfigError(f"field '{where}' is not a number: {value!r}")
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"field '{where}' is not a number: {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"field '{where}' must be finite, got {out}")
    return out


def _integer(value, where: str) -> int:
    """An integral number: 1, 1.0 and "1" count (digit strings exactly);
    true and false do not."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and value.strip().isdecimal():
        return int(value)
    out = _finite(value, where)
    if not out.is_integer():
        raise ConfigError(f"field '{where}' must be an integer, got {value!r}")
    return int(out)


def parse_seed(value, where: str = "policy.seed") -> int:
    """An RNG seed: integral and nonnegative."""
    seed = _integer(value, where)
    if seed < 0:
        raise ConfigError(f"field '{where}' must be nonnegative, got {seed}")
    return seed


def _known_keys(data: dict, where: str, keys) -> None:
    for key in data:
        if key not in keys:
            raise ConfigError(f"unknown field '{where}.{key}'")


def _section(value, where: str, keys=None) -> dict:
    """A config section, which must be a JSON object holding none but
    ``keys`` (when given)."""
    if not isinstance(value, dict):
        raise ConfigError(f"section '{where}' must be a JSON object, got "
                          f"{type(value).__name__}")
    if keys is not None:
        _known_keys(value, where, keys)
    return value


def _matrix(data, where: str, shape=None) -> np.ndarray:
    try:
        mat = np.array(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field '{where}' is not numeric: {exc}") from None
    mat = np.atleast_2d(mat)
    if shape is not None and mat.shape != shape:
        raise ConfigError(f"field '{where}' has shape {mat.shape}, expected {shape}")
    return mat


def _vector(data, where: str, length=None) -> np.ndarray:
    try:
        vec = np.atleast_1d(np.array(data, dtype=float))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field '{where}' is not numeric: {exc}") from None
    if vec.ndim != 1:
        raise ConfigError(f"field '{where}' must be a flat list")
    if length is not None and len(vec) != length:
        raise ConfigError(f"field '{where}' has length {len(vec)}, expected {length}")
    return vec


def _parse_input_set(data: dict, m: int):
    kind = _require(data, "kind", "input_set")
    if kind == "box":
        out = Box(_vector(_require(data, "lo", "input_set"), "input_set.lo", m),
                  _vector(_require(data, "hi", "input_set"), "input_set.hi", m))
    elif kind == "ball":
        out = Ball(_vector(_require(data, "center", "input_set"),
                           "input_set.center", m),
                   _finite(_require(data, "radius", "input_set"),
                           "input_set.radius"))
    else:
        raise ConfigError(f"input_set.kind must be 'box' or 'ball', got {kind!r}")
    _known_keys(data, "input_set",
                ("kind", "lo", "hi") if kind == "box" else ("kind", "center", "radius"))
    return out


def parse_config(source) -> ScenarioConfig:
    """Build a ScenarioConfig from a JSON file path or an already-loaded dict."""
    if isinstance(source, (str, Path)):
        try:
            raw = json.loads(Path(source).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
        except OSError as exc:
            raise ConfigError(f"cannot read config {source}: {exc}") from None
    else:
        raw = source
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    _known_keys(raw, "config", ("plant", "objective", "timers", "input_set",
                                "overrides", "policy", "horizon", "sample_dt",
                                "init", "perturbation"))

    plant_raw = _section(_require(raw, "plant", "config"), "plant",
                         ("A", "B", "C", "d"))
    a = _matrix(_require(plant_raw, "A", "plant"), "plant.A")
    if a.shape[0] != a.shape[1]:
        raise ConfigError(f"plant.A must be square, got shape {a.shape}")
    n = a.shape[0]
    b = _matrix(_require(plant_raw, "B", "plant"), "plant.B")
    if b.shape[0] != n:
        raise ConfigError(f"plant.B must have {n} rows, got {b.shape[0]}")
    m = b.shape[1]
    c_out = _matrix(_require(plant_raw, "C", "plant"), "plant.C")
    if c_out.shape[1] != n:
        raise ConfigError(f"plant.C must have {n} columns, got {c_out.shape[1]}")
    p = c_out.shape[0]
    d = _vector(_require(plant_raw, "d", "plant"), "plant.d", p)
    plant = Plant(a, b, c_out, d)

    obj_raw = _section(_require(raw, "objective", "config"), "objective",
                       ("Q_u", "Q_y", "y_hat", "gamma"))
    objective = Objective(
        _matrix(_require(obj_raw, "Q_u", "objective"), "objective.Q_u", (m, m)),
        _matrix(_require(obj_raw, "Q_y", "objective"), "objective.Q_y", (p, p)),
        _vector(_require(obj_raw, "y_hat", "objective"), "objective.y_hat", p),
        _finite(_require(obj_raw, "gamma", "objective"), "objective.gamma"),
    )

    tm_raw = _section(_require(raw, "timers", "config"), "timers",
                      ("tau_c_min", "tau_c_max", "tau_g_comp", "ell"))
    timers = Timers(
        _finite(_require(tm_raw, "tau_c_min", "timers"), "timers.tau_c_min"),
        _finite(_require(tm_raw, "tau_c_max", "timers"), "timers.tau_c_max"),
        _finite(_require(tm_raw, "tau_g_comp", "timers"), "timers.tau_g_comp"),
        _integer(_require(tm_raw, "ell", "timers"), "timers.ell"),
    )

    input_set = _parse_input_set(
        _section(_require(raw, "input_set", "config"), "input_set"), m)

    overrides = _section(raw.get("overrides", {}), "overrides",
                         ("rho", "r_scale"))
    rho_override = overrides.get("rho")
    if rho_override is not None:
        rho_override = _finite(rho_override, "overrides.rho")
        if rho_override <= 0.0:
            raise ConfigError(
                f"field 'overrides.rho' must be positive, got {rho_override}")
    r_scale = _finite(overrides.get("r_scale", 1.0), "overrides.r_scale")

    params = ModelParams(plant, objective, timers, input_set, rho_override)

    policy_raw = _section(raw.get("policy", {}), "policy",
                          ("tau_c_reset", "tau_c_value", "case3_order", "seed"))
    tau_c_value = policy_raw.get("tau_c_value")
    policy = JumpPolicy(
        tau_c_reset=policy_raw.get("tau_c_reset", "min"),
        tau_c_value=(None if tau_c_value is None
                     else _finite(tau_c_value, "policy.tau_c_value")),
        case3_order=policy_raw.get("case3_order", "g1_first"),
        seed=parse_seed(policy_raw.get("seed", 0)),
    )
    if policy.tau_c_reset not in ("fixed", "uniform", "min", "max"):
        raise ConfigError("policy.tau_c_reset must be fixed|uniform|min|max")
    if policy.case3_order not in ("g1_first", "g2_first", "random"):
        raise ConfigError("policy.case3_order must be g1_first|g2_first|random")

    horizon_raw = _section(_require(raw, "horizon", "config"), "horizon",
                           ("T", "J"))
    t_max = _finite(_require(horizon_raw, "T", "horizon"), "horizon.T")
    if t_max < 0.0:
        raise ConfigError(f"field 'horizon.T' must be nonnegative, got {t_max}")
    j_max = _integer(_require(horizon_raw, "J", "horizon"), "horizon.J")
    if j_max < 0:
        raise ConfigError(f"field 'horizon.J' must be nonnegative, got {j_max}")
    horizon = (t_max, j_max)
    sample_dt = _finite(raw.get("sample_dt", 0.01), "sample_dt")
    if sample_dt <= 0.0:
        raise ConfigError(f"field 'sample_dt' must be positive, got {sample_dt}")

    init_raw = _section(raw.get("init", {}), "init", ("mode", "zeta0"))
    init_mode = init_raw.get("mode", "strict")
    if init_mode not in ("strict", "global"):
        raise ConfigError("init.mode must be 'strict' or 'global'")
    zeta0 = None
    if init_raw.get("zeta0") is not None:
        z_raw = _section(init_raw["zeta0"], "init.zeta0",
                         ("x", "u", "y_s", "z", "tau_c", "tau_g"))
        zeta0 = make_state(
            _vector(_require(z_raw, "x", "init.zeta0"), "init.zeta0.x", n),
            _vector(_require(z_raw, "u", "init.zeta0"), "init.zeta0.u", m),
            _vector(_require(z_raw, "y_s", "init.zeta0"), "init.zeta0.y_s", p),
            _vector(_require(z_raw, "z", "init.zeta0"), "init.zeta0.z", m),
            _finite(_require(z_raw, "tau_c", "init.zeta0"), "init.zeta0.tau_c"),
            _finite(_require(z_raw, "tau_g", "init.zeta0"), "init.zeta0.tau_g"),
        )

    perturbation = None
    if raw.get("perturbation") is not None:
        shapes = {"A_hat": (n, n), "B_hat": (n, m), "H_hat": (p, m)}
        scalars = ("kappa_c", "kappa_g", "theta_g_comp", "theta_c_min",
                   "theta_c_max")
        pert_raw = _section(raw["perturbation"], "perturbation",
                            (*shapes, *scalars))
        perturbation = Perturbation(
            *(_matrix(pert_raw.get(key, np.zeros(shape)), f"perturbation.{key}",
                      shape) for key, shape in shapes.items()),
            **{key: _finite(pert_raw.get(key, 0.0), f"perturbation.{key}")
               for key in scalars},
        )

    return ScenarioConfig(params, policy, horizon, sample_dt, init_mode, zeta0,
                          perturbation, r_scale)


def config_to_dict(config: ScenarioConfig) -> dict:
    """Serialize a scenario back to the JSON structure parse_config accepts."""
    params = config.params
    plant = params.plant
    out = {
        "plant": {
            "A": plant.a.tolist(),
            "B": plant.b.tolist(),
            "C": plant.c_out.tolist(),
            "d": plant.d.tolist(),
        },
        "objective": {
            "Q_u": params.objective.q_u.tolist(),
            "Q_y": params.objective.q_y.tolist(),
            "y_hat": params.objective.y_hat.tolist(),
            "gamma": params.objective.gamma,
        },
        "timers": {
            "tau_c_min": params.timers.tau_c_min,
            "tau_c_max": params.timers.tau_c_max,
            "tau_g_comp": params.timers.tau_g_comp,
            "ell": params.timers.ell,
        },
        "policy": {
            "tau_c_reset": config.policy.tau_c_reset,
            "tau_c_value": config.policy.tau_c_value,
            "case3_order": config.policy.case3_order,
            "seed": config.policy.seed,
        },
        "horizon": {"T": config.horizon[0], "J": config.horizon[1]},
        "sample_dt": config.sample_dt,
        "init": {"mode": config.init_mode},
    }
    input_set = params.input_set
    if isinstance(input_set, Box):
        out["input_set"] = {"kind": "box", "lo": input_set.lo.tolist(),
                            "hi": input_set.hi.tolist()}
    else:
        out["input_set"] = {"kind": "ball", "center": input_set.center.tolist(),
                            "radius": input_set.radius}
    overrides = {}
    if params.rho_override is not None:
        overrides["rho"] = params.rho_override
    if config.r_scale != 1.0:
        overrides["r_scale"] = config.r_scale
    if overrides:
        out["overrides"] = overrides
    if config.zeta0 is not None:
        z = config.zeta0
        out["init"]["zeta0"] = {
            "x": z.x.tolist(), "u": z.u.tolist(), "y_s": z.y_s.tolist(),
            "z": z.z.tolist(), "tau_c": z.tau_c, "tau_g": z.tau_g,
        }
    if config.perturbation is not None:
        pert = config.perturbation
        out["perturbation"] = {
            "A_hat": pert.a_hat.tolist(),
            "B_hat": pert.b_hat.tolist(),
            "H_hat": pert.h_hat.tolist(),
            "kappa_c": pert.kappa_c,
            "kappa_g": pert.kappa_g,
            "theta_g_comp": pert.theta_g_comp,
            "theta_c_min": pert.theta_c_min,
            "theta_c_max": pert.theta_c_max,
        }
    return out
