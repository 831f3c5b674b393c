"""The sampled-data feedback-optimization hybrid system.

Parameter records, the flow/jump maps, the quadratic objective and its
gradient, Euclidean projections onto the input set, and validation of every
standing assumption. The hybrid state ``State`` lives in ``hybrid``, next to
the arc that stores its columns, and is imported here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .hybrid import EVENT_TOL, State


def make_state(x, u, y_s, z, tau_c, tau_g) -> State:
    return State(
        np.atleast_1d(np.asarray(x, dtype=float)),
        np.atleast_1d(np.asarray(u, dtype=float)),
        np.atleast_1d(np.asarray(y_s, dtype=float)),
        np.atleast_1d(np.asarray(z, dtype=float)),
        float(tau_c),
        float(tau_g),
    )


@dataclass(frozen=True)
class Plant:
    a: np.ndarray  # n x n, must be Hurwitz
    b: np.ndarray  # n x m
    c_out: np.ndarray  # p x n
    d: np.ndarray  # constant output disturbance, R^p

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]

    @property
    def p(self) -> int:
        return self.c_out.shape[0]


@dataclass(frozen=True)
class Objective:
    q_u: np.ndarray  # m x m, SPD
    q_y: np.ndarray  # p x p, SPD
    y_hat: np.ndarray  # desired output
    gamma: float  # gradient stepsize


@dataclass(frozen=True)
class Timers:
    tau_c_min: float
    tau_c_max: float
    tau_g_comp: float
    ell: int


SET_TOL = 1e-9  # how far outside an input set a point still counts as inside


class Box:
    """Axis-aligned box input set with componentwise clamp projection."""

    def __init__(self, lo, hi):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if self.lo.shape != self.hi.shape or np.any(self.lo > self.hi):
            raise ValueError("box bounds must satisfy lo <= hi componentwise")

    def project(self, v) -> np.ndarray:
        return np.clip(np.asarray(v, dtype=float), self.lo, self.hi)

    def contains(self, v) -> bool:
        v = np.asarray(v, dtype=float)
        return bool(np.all(v >= self.lo - SET_TOL) and np.all(v <= self.hi + SET_TOL))

    @np.errstate(over="ignore")  # a bound too wide gives inf, which validate fails
    def diameter(self) -> float:
        width = self.hi - self.lo
        diam = float(np.linalg.norm(width))
        if math.isinf(diam) and np.isfinite(width).all():  # squares overflowed
            diam = float(width.max() * np.linalg.norm(width / width.max()))
        return diam

    def random_point(self, rng) -> np.ndarray:
        return rng.uniform(self.lo, self.hi)


class Ball:
    """Euclidean ball input set; radial projection of a point or rows (k, m)."""

    def __init__(self, center, radius: float):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.radius = float(radius)
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    def project(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        offset = v - self.center
        dist = linalg.row_norms(offset)
        return np.where(dist <= self.radius, v, self.center + offset * (
            self.radius / np.maximum(dist, self.radius)))

    def contains(self, v) -> bool:
        return bool(np.linalg.norm(np.asarray(v, dtype=float) - self.center)
                    <= self.radius + SET_TOL)

    def diameter(self) -> float:
        return 2.0 * self.radius

    def random_point(self, rng) -> np.ndarray:
        direction = rng.standard_normal(self.center.shape[0])
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            return self.center.copy()
        scale = self.radius * rng.uniform() ** (1.0 / self.center.shape[0])
        return self.center + direction * (scale / norm)


@dataclass(frozen=True)
class JumpPolicy:
    """Resolves the set-valued tau_c reset and the composite-jump order."""

    TAU_C_RESETS = ("fixed", "uniform", "min", "max")  # tau_c_reset's names
    CASE3_ORDERS = ("g1_first", "g2_first", "random")  # case3_order's names

    tau_c_reset: str = "min"  # one of TAU_C_RESETS
    tau_c_value: float | None = None  # the reset value of a "fixed" reset
    case3_order: str = "g1_first"  # one of CASE3_ORDERS
    seed: int = 0

    def __post_init__(self):
        if self.tau_c_reset not in self.TAU_C_RESETS:
            raise ValueError(f"unknown tau_c reset policy {self.tau_c_reset!r}")
        if self.tau_c_reset == "fixed" and self.tau_c_value is None:
            raise ValueError("a fixed tau_c reset needs tau_c_value")
        if self.case3_order not in self.CASE3_ORDERS:
            raise ValueError(f"unknown case-3 order {self.case3_order!r}")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Curvature(NamedTuple):
    """(lambda_min, lambda_max) of Q_u and of the hessian Q_u + H'Q_yH."""

    q_u: tuple[float, float]
    hessian: tuple[float, float]


@dataclass(frozen=True)
class ModelParams:
    """One parameter set. The quantities derived from it are read-only
    properties, each computed on first use and then kept: ``eigen``,
    ``a_inv_b``, ``h``, ``hessian`` and ``curvature``. A parameter set made
    by ``dataclasses.replace`` derives its own."""

    plant: Plant
    objective: Objective
    timers: Timers
    input_set: object  # Box or Ball
    rho_override: float | None = None

    @functools.cached_property
    def eigen(self) -> tuple:
        """(eigenvalues, V, cond(V)) of A = V diag(lambda) V^{-1}, from one
        residual-checked ``linalg.eigenbasis``."""
        w, v, cond = linalg.eigenbasis(self.plant.a)
        return _read_only(w), _read_only(v), cond

    @functools.cached_property
    def a_inv_b(self) -> np.ndarray:
        """A^{-1} B, from one guarded solve (which needs an invertible A)."""
        return _read_only(linalg.solve(self.plant.a, self.plant.b))

    @functools.cached_property
    def h(self) -> np.ndarray:
        """The nominal steady-state gain H = -C A^{-1} B."""
        return _read_only(-self.plant.c_out @ self.a_inv_b)

    @functools.cached_property
    def hessian(self) -> np.ndarray:
        """The objective's hessian in u, Q_u + H'Q_yH."""
        obj = self.objective
        return _read_only(obj.q_u + self.h.T @ obj.q_y @ self.h)

    @functools.cached_property
    def curvature(self) -> Curvature:
        """Extreme eigenvalues of Q_u and of ``hessian``."""
        lam_u = linalg.eig_sym(self.objective.q_u)
        lam_h = linalg.eig_sym(self.hessian)
        return Curvature((float(lam_u[0]), float(lam_u[-1])),
                         (float(lam_h[0]), float(lam_h[-1])))


@dataclass(frozen=True)
class Perturbation:
    """Structured perturbation of the plant, gain, timer rates, and resets."""

    a_hat: np.ndarray
    b_hat: np.ndarray
    h_hat: np.ndarray
    kappa_c: float = 0.0  # timer-rate error, must stay < 1
    kappa_g: float = 0.0
    theta_g_comp: float = 0.0  # tau_g reset offset, > -tau_g_comp
    theta_c_min: float = 0.0
    theta_c_max: float = 0.0

    @classmethod
    def zero(cls, n: int, m: int, p: int) -> "Perturbation":
        return cls(np.zeros((n, n)), np.zeros((n, m)), np.zeros((p, m)))


def phi(u, y_s, obj: Objective) -> float:
    """Quadratic objective 0.5 u'Q_u u + 0.5 (y_s - y_hat)'Q_y (y_s - y_hat)."""
    u = np.asarray(u, dtype=float)
    err = np.asarray(y_s, dtype=float) - obj.y_hat
    if u.shape[0] != obj.q_u.shape[0] or err.shape[0] != obj.q_y.shape[0]:
        raise linalg.DimensionError("objective operand dimensions do not match")
    return float(0.5 * u @ obj.q_u @ u + 0.5 * err @ obj.q_y @ err)


def grad_u_phi(z, y_s, obj: Objective, h) -> np.ndarray:
    """Input gradient Q_u z + H' Q_y (y_s - y_hat) used by the optimizer."""
    z = np.asarray(z, dtype=float)
    err = np.asarray(y_s, dtype=float) - obj.y_hat
    h = np.asarray(h, dtype=float)
    if z.shape[0] != obj.q_u.shape[0] or err.shape[0] != h.shape[0]:
        raise linalg.DimensionError("gradient operand dimensions do not match")
    return obj.q_u @ z + h.T @ (obj.q_y @ err)


def gradient_constants(params: ModelParams):
    """(mu, L, q) of the gradient step: mu = lambda_min(Q_u), the Lipschitz
    constant L = lambda_max(Q_u + H'Q_yH) and the per-iteration contraction
    factor q = 1 - 2 gamma mu + gamma^2 L^2."""
    mu, big_l = params.curvature.q_u[0], params.curvature.hessian[1]
    gamma = params.objective.gamma
    # products, not powers: an overflow gives inf, not an OverflowError
    return mu, big_l, 1.0 - 2.0 * gamma * mu + gamma * gamma * (big_l * big_l)


class HybridFOModel:
    """Concrete flow/jump behavior consumed by ``hybrid.simulate``.

    ``HybridFOModel(params)`` is the nominal model. With a perturbation
    ``pert`` and a scale ``delta > 0`` every perturbation component enters
    scaled by ``delta``: A + delta A_hat, B + delta B_hat, H + delta H_hat,
    timer rates -1 + delta kappa and resets shifted by delta theta.

    The event interface (``contains``, ``which_case``, ``g1``, ``g2``) takes
    and returns the timers and the arrays u, y_s, z, never a ``State``: the
    jump maps leave x alone, so ``simulate``'s pass 1 carries these values.
    """

    def __init__(self, params: ModelParams, pert: Perturbation | None = None,
                 delta: float = 0.0):
        if not (math.isfinite(delta) and delta >= 0.0):
            raise ValueError(f"perturbation scale must be finite and "
                             f"nonnegative, got {delta!r}")
        nominal = pert is None or delta == 0.0

        def shifted(value, offset: str):
            return value if nominal else value + delta * getattr(pert, offset)

        tm = params.timers
        self.params = params
        self.a = shifted(params.plant.a, "a_hat")
        self.b = shifted(params.plant.b, "b_hat")
        self.h = shifted(params.h, "h_hat")
        self.rate_c = shifted(-1.0, "kappa_c")
        self.rate_g = shifted(-1.0, "kappa_g")
        self.tau_g_reset = shifted(tm.tau_g_comp, "theta_g_comp")
        self.reset_lo = shifted(tm.tau_c_min, "theta_c_min")
        self.reset_hi = shifted(tm.tau_c_max, "theta_c_max")
        if self.rate_c >= 0.0 or self.rate_g >= 0.0:
            raise ValueError("timer rates -1 + delta kappa must stay negative")
        if self.tau_g_reset <= 0.0:
            raise ValueError("tau_g reset value must be positive")
        if not (0.0 < self.reset_lo <= self.reset_hi):
            raise ValueError("tau_c reset interval must satisfy 0 < lo <= hi")
        # the tau_g period and the shortest tau_c period
        self.period_g = self.tau_g_reset / -self.rate_g
        self.period_c = self.reset_lo / -self.rate_c

    # -- flow ---------------------------------------------------------------

    def flow_x(self, x, u, dt: float) -> np.ndarray:
        if dt == 0.0:
            return x
        e, forced = linalg.propagator(self.a, self.b, dt)
        return e @ x + forced @ u

    def flow_grid(self, dt: float, k: int) -> np.ndarray:
        """The top block rows [e^{A i dt}, Gamma_i] of M^i, i = 1..k, for
        the one-step matrix M = [[e^{A dt}, Gamma_1], [0, I]], stacked
        (k, n, n + m): a held input u takes x to row i - 1 @ [x; u] after i
        steps of dt."""
        e, forced = linalg.propagator(self.a, self.b, dt)
        n = len(e)
        table = np.empty((k, n, n + forced.shape[1]))
        table[0] = np.hstack([e, forced])
        for i in range(1, k):
            np.matmul(e, table[i - 1], out=table[i])
            table[i, :, n:] += forced
        return table

    # -- sets ---------------------------------------------------------------

    def contains(self, tau_c: float, tau_g: float) -> bool:
        """Membership of the timers in the union of the flow and jump sets."""
        return (-EVENT_TOL <= tau_c <= self.reset_hi + EVENT_TOL
                and -EVENT_TOL <= tau_g <= self.tau_g_reset + EVENT_TOL)

    def which_case(self, tau_c: float, tau_g: float):
        """Jump case for timers in the jump set ("g1", "g2" or "both"),
        else None."""
        c_zero = tau_c <= EVENT_TOL
        g_zero = tau_g <= EVENT_TOL
        if c_zero and g_zero:
            return "both"
        if g_zero:
            return "g1"
        if c_zero:
            return "g2"
        return None

    # -- jumps --------------------------------------------------------------

    def g1(self, z, y_s):
        """Gradient-descent jump: one projected step on z, tau_g reset.
        Returns (z, tau_g)."""
        obj = self.params.objective
        step = z - obj.gamma * grad_u_phi(z, y_s, obj, self.h)
        return self.params.input_set.project(step), self.tau_g_reset

    def g2(self, z, tau_c_reset: float):
        """Input-application jump: u <- z, output resampled as H u + d with
        the new input, tau_c reset. Returns (u, y_s, tau_c)."""
        return (z.copy(), self.h @ z + self.params.plant.d,
                float(tau_c_reset))


# -- validation -------------------------------------------------------------


@dataclass
class Check:
    name: str
    status: str  # "pass" | "warn" | "fail"
    detail: str


@dataclass
class Diagnostics:
    checks: list
    zeta0: State | None = None  # the initial state checked, if any

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def failures(self):
        return [c for c in self.checks if c.status == "fail"]


def _verdict(checks, name, ok, passed, failed):
    """Append check ``name``: "pass" with detail ``passed`` if ``ok``, else
    "fail" with detail ``failed``."""
    checks.append(Check(name, "pass", passed) if ok else Check(name, "fail", failed))


def _spd_check(name, mat, checks):
    try:
        lam = linalg.eig_sym(mat)
    except ValueError as exc:  # not symmetric within linalg.SYMMETRY_TOL
        checks.append(Check(name, "fail", str(exc)))
        return None
    if lam[0] <= 0.0:
        checks.append(Check(name, "fail", f"smallest eigenvalue {lam[0]:.3e} <= 0"))
        return None
    checks.append(Check(name, "pass", f"eigenvalues in [{lam[0]:.4g}, {lam[-1]:.4g}]"))
    return lam


def validate(params: ModelParams, zeta0: State | None = None,
             mode: str = "strict") -> Diagnostics:
    """Check every standing assumption and the initial state, in one pass.

    ``hurwitz`` also needs A^{-1}B (so H) from the guarded solve; the checks
    that read H, and the strict start built when ``zeta0`` is None, wait for
    it. ``Diagnostics.zeta0`` is the state checked. ``mode="strict"`` fails
    a start outside the restricted initialization (tau_c in its reset
    interval, tau_g at its reset value, z = u, u in the input set); "global" warns.
    """
    checks: list[Check] = []
    tm = params.timers

    max_re = float(np.max(params.eigen[0].real))
    if max_re >= 0.0:
        checks.append(Check("hurwitz", "fail",
                            f"plant matrix has eigenvalue with Re = {max_re:.4g} >= 0"))
    else:
        try:
            params.a_inv_b  # H = -C A^{-1} B, which later checks read
            checks.append(Check("hurwitz", "pass", f"max Re(lambda) = {max_re:.4g}"))
        except linalg.SingularMatrixError as exc:
            checks.append(Check("hurwitz", "fail", f"max Re(lambda) = "
                                f"{max_re:.4g}, but A^-1 B does not exist: {exc}"))
    hurwitz = checks[0].status == "pass"

    lam_u = _spd_check("q_u_spd", params.objective.q_u, checks)
    lam_y = _spd_check("q_y_spd", params.objective.q_y, checks)

    diam = params.input_set.diameter()
    checks.append(Check("input_set", "pass" if math.isfinite(diam) else "fail",
                        f"diameter {diam:.4g}"))

    # a reset at or below EVENT_TOL would merge distinct jumps into one instant
    timers_ok = (EVENT_TOL < tm.tau_c_min <= tm.tau_c_max
                 and tm.tau_g_comp > EVENT_TOL and tm.ell >= 1)
    _verdict(checks, "timers", timers_ok, "", f"need EVENT_TOL = {EVENT_TOL:g} < "
             "tau_c_min <= tau_c_max, tau_g_comp > EVENT_TOL, ell >= 1")

    ratio = tm.ell * tm.tau_g_comp
    _verdict(checks, "timescale", ratio <= tm.tau_c_min + 1e-12,
             f"ell*tau_g_comp = {ratio:.4g} <= tau_c_min = {tm.tau_c_min:.4g}",
             f"ell*tau_g_comp = {ratio:.4g} exceeds tau_c_min = "
             f"{tm.tau_c_min:.4g}; fewer than ell gradient iterations fit per "
             "input period")

    if lam_u is not None and lam_y is not None and hurwitz:
        mu, big_l, q = gradient_constants(params)
        gamma = params.objective.gamma
        bound = 2.0 / (mu + big_l)
        _verdict(checks, "stepsize", 0.0 < gamma < bound,
                 f"gamma = {gamma:.4g} in (0, {bound:.4g})",
                 f"stepsize gamma = {gamma:.4g} outside the input-convergence "
                 f"range (0, 2/(lambda_min(Q_u)+L)) = (0, {bound:.4g})")
        _verdict(checks, "contraction", 0.0 < q < 1.0, f"q = {q:.6g}",
                 f"contraction factor q = {q:.6g} not in (0, 1)")

    if zeta0 is None and hurwitz:
        zeta0 = strict_initial_state(params)
    if zeta0 is not None:
        # the model needs H and a valid reset interval
        if hurwitz and timers_ok:
            _verdict(checks, "init_domain",
                     HybridFOModel(params).contains(zeta0.tau_c, zeta0.tau_g),
                     "", "initial state outside the flow and jump sets")
        problems = []
        if not (tm.tau_c_min - 1e-12 <= zeta0.tau_c <= tm.tau_c_max + 1e-12):
            problems.append("tau_c(0,0) outside [tau_c_min, tau_c_max]")
        if abs(zeta0.tau_g - tm.tau_g_comp) > 1e-12:
            problems.append("tau_g(0,0) != tau_g_comp")
        if np.linalg.norm(zeta0.z - zeta0.u) > 1e-12:
            problems.append("z(0,0) != u(0,0)")
        if not params.input_set.contains(zeta0.u):
            problems.append("u(0,0) outside the input set")
        status = "pass" if not problems else "fail" if mode == "strict" else "warn"
        checks.append(Check("init_restricted", status, "; ".join(problems)))

    return Diagnostics(checks, zeta0)


def strict_initial_state(params: ModelParams, x0=None, u0=None,
                         tau_c0: float | None = None) -> State:
    """Restricted initialization: tau_g at its reset value, z = u, consistent
    sampled output."""
    plant = params.plant
    u = params.input_set.project(np.zeros(plant.m) if u0 is None else u0)
    x = np.zeros(plant.n) if x0 is None else np.asarray(x0, dtype=float)
    tau_c = params.timers.tau_c_max if tau_c0 is None else float(tau_c0)
    return make_state(x, u, params.h @ u + plant.d, u, tau_c,
                      params.timers.tau_g_comp)
