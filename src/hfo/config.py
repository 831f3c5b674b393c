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
    zeta0: State | None
    perturbation: Perturbation | None
    # every parsed value, defaults included, as JSON: the reports' config
    # block, which parse_config reads back into the same scenario
    document: dict

    def initial_state(self) -> State:
        if self.zeta0 is not None:
            return self.zeta0
        return strict_initial_state(self.params)


# -- field readers: read(value, name) checks and converts one JSON value ----


def _finite(value, name: str) -> float:
    if isinstance(value, bool):
        raise ConfigError(f"field '{name}' is not a number: {value!r}")
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"field '{name}' is not a number: {value!r}") from None
    except OverflowError:  # an integer past the float range
        raise ConfigError(f"field '{name}' is outside the float range") from None
    if not math.isfinite(out):
        raise ConfigError(f"field '{name}' must be finite, got {out}")
    return out


def _int_text(text: str):
    """``int(text)``; past Python's digit limit for int(str), ``float(text)``,
    infinite, so that the field reader names the field it rejects."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _integer(value, name: str) -> int:
    """An integral number within the float range: 1, 1.0 and "1" count
    (digit strings exactly); true and false do not."""
    if isinstance(value, str) and value.strip().isdecimal():
        value = _int_text(value)
    out = _finite(value, name)
    if isinstance(value, int):  # exactly as given; _finite rejects booleans
        return value
    if not out.is_integer():
        raise ConfigError(f"field '{name}' must be an integer, got {value!r}")
    return int(out)


def _signed(read, positive: bool):
    """``read``, then require a positive (or a nonnegative) result."""
    def checked(value, name: str):
        out = read(value, name)
        if out < 0 or (positive and out == 0):
            word = "positive" if positive else "nonnegative"
            raise ConfigError(f"field '{name}' must be {word}, got {out}")
        return out
    return checked


_positive = _signed(_finite, True)
_nonnegative = _signed(_finite, False)
_count = _signed(_integer, False)


def _choice(*options):
    def read(value, name: str):
        if value not in options:
            raise ConfigError(
                f"field '{name}' must be {'|'.join(options)}, got {value!r}")
        return value
    return read


def _array(*shape):
    """Reader of a finite numeric array of ``len(shape)`` dimensions, each of
    the given size (None: any). A scalar, or a list with fewer dimensions,
    gets leading unit dimensions, as from np.atleast_2d. true and false are
    not numbers here either."""
    def read(value, name: str) -> np.ndarray:
        try:
            arr = np.array(value, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"field '{name}' is not numeric: {exc}") from None
        if bool in map(type, np.array(value, dtype=object).ravel()):
            raise ConfigError(f"field '{name}' is not numeric: it holds "
                              f"true or false")
        if not np.isfinite(arr).all():
            raise ConfigError(f"field '{name}' must be finite")
        if arr.ndim > len(shape):
            raise ConfigError(f"field '{name}' has {arr.ndim} dimensions, "
                              f"expected {len(shape)}")
        arr = arr.reshape((1,) * (len(shape) - arr.ndim) + arr.shape)
        want = tuple(got if size is None else size
                     for got, size in zip(arr.shape, shape))
        if arr.shape != want:
            if len(shape) == 1:
                raise ConfigError(f"field '{name}' has length {len(arr)}, "
                                  f"expected {want[0]}")
            raise ConfigError(
                f"field '{name}' has shape {arr.shape}, expected {want}")
        return arr
    return read


# -- sections ----------------------------------------------------------------

_REQUIRED = object()


class _Section:
    """One JSON object of the config, read one key at a time. Each ``get``
    or ``section`` records the parsed value in ``document``, the absent
    keys' defaults too unless ``echo_defaults`` is off; ``close`` rejects
    every key that nothing asked for."""

    def __init__(self, data, where: str, echo_defaults: bool = True):
        if not isinstance(data, dict):
            raise ConfigError(f"section '{where}' must be a JSON object, got "
                              f"{type(data).__name__}")
        self.data, self.where, self.echo_defaults = data, where, echo_defaults
        self.asked: set = set()
        self.document: dict = {}

    def _name(self, key: str) -> str:
        return f"{self.where}.{key}" if self.where else key

    def _raw(self, key: str, default):
        """The value at ``key``, or ``default`` when it is absent."""
        self.asked.add(key)
        value = self.data.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(
                f"missing required field '{self.where or 'config'}.{key}'")
        return value

    def get(self, key: str, read, default=_REQUIRED):
        """The field at ``key`` as ``read(value, name)`` gives it; a null
        field whose default is None reads as None."""
        value = self._raw(key, default)
        if value is not default:
            value = read(value, self._name(key))
        if key in self.data or self.echo_defaults:
            self.document[key] = (value.tolist() if isinstance(value, np.ndarray)
                                  else value)
        return value

    def section(self, key: str, parse, default=_REQUIRED,
                echo_defaults: bool = True):
        """``parse(section)`` of the JSON object at ``key``; None when it is
        absent or null and the default is None. An empty document is not
        recorded."""
        value = self._raw(key, default)
        if value is None and default is None:
            return None
        sub = _Section(value, self._name(key), echo_defaults)
        out = parse(sub)
        sub.close()
        if sub.document:
            self.document[key] = sub.document
        return out

    def close(self) -> None:
        for key in self.data:
            if key not in self.asked:
                raise ConfigError(
                    f"unknown field '{self.where or 'config'}.{key}'")


def _plant(sec: _Section) -> Plant:
    a = sec.get("A", _array(None, None))
    if a.shape[0] != a.shape[1]:
        raise ConfigError(f"field 'plant.A' must be square, got shape {a.shape}")
    b = sec.get("B", _array(len(a), None))
    c_out = sec.get("C", _array(None, len(a)))
    return Plant(a, b, c_out, sec.get("d", _array(len(c_out))))


def _policy(sec: _Section, timers: Timers, seed) -> JumpPolicy:
    reset = sec.get("tau_c_reset", _choice(*JumpPolicy.TAU_C_RESETS), "min")
    value = sec.get("tau_c_value", _finite, None)
    lo, hi = timers.tau_c_min, timers.tau_c_max
    if reset == "fixed" and not (value is not None and lo <= value <= hi):
        raise ConfigError(f"field 'policy.tau_c_value' must lie in [tau_c_min, "
                          f"tau_c_max] = [{lo}, {hi}] for a fixed reset, "
                          f"got {value}")
    order = sec.get("case3_order", _choice(*JumpPolicy.CASE3_ORDERS),
                    "g1_first")
    policy_seed = sec.get("seed", _count, 0)
    if seed is not None:
        policy_seed = sec.document["seed"] = _count(seed, "HFO_SEED")
    return JumpPolicy(reset, value, order, policy_seed)


def _input_set(sec: _Section, m: int):
    if sec.get("kind", _choice("box", "ball")) == "ball":
        return Ball(sec.get("center", _array(m)), sec.get("radius", _positive))
    lo, hi = sec.get("lo", _array(m)), sec.get("hi", _array(m))
    try:
        return Box(lo, hi)
    except ValueError as exc:
        raise ConfigError(
            f"fields 'input_set.lo' and 'input_set.hi': {exc}") from None


def parse_config(source, seed=None) -> ScenarioConfig:
    """Build a ScenarioConfig from a JSON file path or an already-loaded dict.

    ``seed`` (the HFO_SEED environment variable) replaces ``policy.seed``,
    in the records and the document alike, and obeys the same rule."""
    if isinstance(source, (str, Path)):
        try:
            raw = json.loads(Path(source).read_text(), parse_int=_int_text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
        except OSError as exc:
            raise ConfigError(f"cannot read config {source}: {exc}") from None
    else:
        raw = source
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    top = _Section(raw, "")

    plant = top.section("plant", _plant)
    n, m, p = plant.n, plant.m, plant.p
    objective = top.section("objective", lambda sec: Objective(
        sec.get("Q_u", _array(m, m)), sec.get("Q_y", _array(p, p)),
        sec.get("y_hat", _array(p)), sec.get("gamma", _finite)))
    timers = top.section("timers", lambda sec: Timers(
        sec.get("tau_c_min", _finite), sec.get("tau_c_max", _finite),
        sec.get("tau_g_comp", _finite), sec.get("ell", _integer)))
    policy = top.section("policy", lambda sec: _policy(sec, timers, seed), {})
    horizon = top.section("horizon", lambda sec: (
        sec.get("T", _nonnegative), sec.get("J", _count)))
    sample_dt = top.get("sample_dt", _positive, 0.01)
    init_mode, zeta0 = top.section("init", lambda sec: (
        sec.get("mode", _choice("strict", "global"), "strict"),
        sec.section("zeta0", lambda state: make_state(
            state.get("x", _array(n)), state.get("u", _array(m)),
            state.get("y_s", _array(p)), state.get("z", _array(m)),
            state.get("tau_c", _finite), state.get("tau_g", _finite)), None)),
        {})
    input_set = top.section("input_set", lambda sec: _input_set(sec, m))
    rho = top.section("overrides", lambda sec: sec.get("rho", _positive, None),
                      {}, echo_defaults=False)
    shapes = {"A_hat": (n, n), "B_hat": (n, m), "H_hat": (p, m)}
    scalars = ("kappa_c", "kappa_g", "theta_g_comp", "theta_c_min",
               "theta_c_max")
    perturbation = top.section("perturbation", lambda sec: Perturbation(
        *(sec.get(key, _array(*shape), np.zeros(shape))
          for key, shape in shapes.items()),
        *(sec.get(key, _finite, 0.0) for key in scalars)), None)
    top.close()

    params = ModelParams(plant, objective, timers, input_set, rho)
    return ScenarioConfig(params, policy, horizon, sample_dt, init_mode, zeta0,
                          perturbation, top.document)
