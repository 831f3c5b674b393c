"""The sampled-data feedback-optimization hybrid system.

Parameter records, the flow/jump maps, Euclidean projections onto the input
set, and validation of every standing assumption. The hybrid state ``State``
lives in ``hybrid``, next to the arc that stores its columns, and is
imported here: a ``State`` is only a start, which runs take and ``validate``
checks.

``HybridFOModel`` has one flow map, ``flow_x``, and no grid method:
``hybrid.flows`` builds each run's sample-grid table and closing steps, from
stacked ``linalg.propagator`` calls and one stacked power recurrence over
the schedules of one or more runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .hybrid import EVENT_TOL, State

try:  # the ufunc ndarray.clip ends in, without its Python wrapper
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip


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
        """Clamp a point or rows (k, m) by ``np.clip``'s ufunc, called
        directly: the bits of ``ndarray.clip``, without its wrappers."""
        return _clip(np.asarray(v, dtype=float), self.lo, self.hi)

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


class Ball:
    """Euclidean ball input set; radial projection of a point or rows (k, m)."""

    def __init__(self, center, radius: float):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.radius = float(radius)
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    def project(self, v) -> np.ndarray:
        """Scale each row's offset from the center by r / max(dist, r), with
        dist from ``linalg.row_norms``: each row gets the bits of its own
        one-point projection, a point inside is kept as it is, and the
        center raises no warning."""
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


@dataclass(frozen=True)
class JumpPolicy:
    """Resolves the set-valued tau_c reset and the composite-jump order.

    It owns the valid names, which ``config`` also reads for its
    field-named errors, and refuses an unknown ``tau_c_reset`` or
    ``case3_order``, and a fixed reset without ``tau_c_value``, when it is
    built."""

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
        """The objective's hessian in u, Q_u + H'Q_yH, which ``curvature``
        and ``analysis.solve_optimal`` read."""
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


def gradient_constants(params: ModelParams):
    """(mu, L, q) of the gradient step, computed here alone from
    ``params.curvature``: mu = lambda_min(Q_u), the Lipschitz
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
    timer rates -1 + delta kappa and resets shifted by delta theta, as the
    attributes ``a``, ``b``, ``h``, ``rate_c``, ``rate_g``, ``tau_g_reset``,
    ``reset_lo`` and ``reset_hi``; ``delta = 0`` or no ``pert`` gives the
    nominal model bit for bit. The two timer periods, ``period_g`` = tau_g
    reset / -rate_g and the shortest ``period_c`` = reset_lo / -rate_c, are
    computed here once; ``hybrid.sample_bound``, the arc's ``spacing`` and
    its group-gap bound ``min_dwell`` (their minimum) read them.

    The event interface (``contains``, ``which_case``, ``gradient_offset``,
    ``g1``, ``g2``) takes and returns the timers and the arrays u, y_s, z
    and the gradient offset, never a ``State``: the jump maps leave x alone.
    ``hybrid.schedule`` reads the timer methods and ``tau_g_reset`` alone,
    and ``hybrid.flows``' held recurrence the maps of u, y_s and z, through
    ``stacked``: a lone run's are its model's own, on vectors, which cost it
    less than a stack of one row, and two or more runs of one objective and
    input set share a ``JumpStack``.

    A model is a plain value: it sets its attributes in ``__init__`` only and
    holds no cache, so ``flow_x`` computes its map on each call and a run
    leaves the model as it found it.
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
        obj = params.objective
        # the operands of the gradient offset and of g1
        self._offset_operands = (self.h.T, obj.q_y, obj.y_hat)
        self._g1_operands = (obj.gamma, obj.q_u, params.input_set.project)

    # -- flow ---------------------------------------------------------------

    def flow_x(self, x, u, dt: float) -> np.ndarray:
        if dt == 0.0:
            return x
        e, forced = linalg.propagator(self.a, self.b, dt)
        return e @ x + forced @ u

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

    def gradient_offset(self, y_s) -> np.ndarray:
        """H'Q_y(y_s - y_hat), the part of the gradient that y_s fixes: pass
        1 computes it once per input period, at the start and after each
        g2, and hands it to every g1 of the period."""
        h_t, q_y, y_hat = self._offset_operands
        return h_t @ (q_y @ (y_s - y_hat))

    def g1(self, z, offset):
        """Gradient-descent jump: one projected step on z. Returns z; tau_g
        resets to ``tau_g_reset``, which ``hybrid.schedule`` reads.

        With ``offset = gradient_offset(y_s)`` the step is ``z - gamma *
        (Q_u z + H'Q_y(y_s - y_hat))``, the input gradient of the objective
        0.5 u'Q_u u + 0.5 (y_s - y_hat)'Q_y (y_s - y_hat). The objective and
        its gradient are test oracles (``tests/conftest.py``), which hold
        this step bit for bit to the same expression on the same arrays."""
        gamma, q_u, project = self._g1_operands
        step = z - gamma * (q_u @ z + offset)
        return project(step)

    def g2(self, z):
        """Input-application jump: u <- z, output resampled as H u + d with
        the new input. Returns (u, y_s); tau_c takes the policy's draw."""
        return z.copy(), self.h @ z + self.params.plant.d

    @staticmethod
    def stacked(models):
        """The jump maps of ``models``, which share one objective and one
        input set, for ``hybrid.flows``' held recurrence: the model itself
        for one model, whose maps take vectors, else a ``JumpStack``."""
        return models[0] if len(models) == 1 else JumpStack(models)


def _rows(q, v):
    """q @ v for each row v of a stack (k, n), by a stacked matrix-vector
    product: the same BLAS call per row as ``q @ v`` on one row, so the same
    bits (``v @ q.T`` is a matrix product, and does not keep them)."""
    return (q @ v[..., None])[..., 0]


class JumpStack:
    """``gradient_offset``, ``g1`` and ``g2`` of two or more runs that share
    an objective and an input set, on stacks of rows, with the model's call
    signatures: row r of a stack is run ``models[r]``'s, and ``rows`` (a
    slice or an index array, all runs by default) picks the runs of a stack
    from all of them. The output map and the gradient offset take each
    run's own H and d. Every row gets the bits of its run's own map: the
    operands are the same arrays in the same layout (H' a transposed view,
    as ``h.T`` is), each product is ``_rows``', and ``project`` keeps each
    row's bits. A lone run keeps its model's maps on vectors, which cost
    it less than a stack of one row."""

    def __init__(self, models):
        params = models[0].params
        self.h = np.stack([model.h for model in models])
        self.d = np.stack([model.params.plant.d for model in models])
        self._g1_operands = models[0]._g1_operands
        self._q_y, self._y_hat = params.objective.q_y, params.objective.y_hat

    def gradient_offset(self, y_s, rows=slice(None)):
        """``HybridFOModel.gradient_offset`` of the runs ``rows``."""
        h_t = self.h[rows].transpose(0, 2, 1)
        return _rows(h_t, _rows(self._q_y, y_s - self._y_hat))

    def g1(self, z, offset):
        """``HybridFOModel.g1`` of each row of z, with its row of offset."""
        gamma, q_u, project = self._g1_operands
        step = z - gamma * (_rows(q_u, z) + offset)
        return project(step)

    def g2(self, z, rows=slice(None)):
        """``HybridFOModel.g2`` of the runs ``rows``: (u, y_s), u being z
        itself."""
        return z, _rows(self.h[rows], z) + self.d[rows]


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

    A Hurwitz A too ill-conditioned for the guarded solve fails ``hurwitz``,
    naming the condition estimate, so the CLI exits 2 and not with an
    internal error. Q_u and Q_y take their symmetry check from
    ``linalg.eig_sym``'s own. The CLI runs from ``Diagnostics.zeta0``.
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


def strict_initial_state(params: ModelParams) -> State:
    """Restricted initialization: x = 0, u = z the projection of 0, tau_c
    at tau_c_max, tau_g at its reset value, consistent sampled output."""
    plant = params.plant
    u = params.input_set.project(np.zeros(plant.m))
    return make_state(np.zeros(plant.n), u, params.h @ u + plant.d, u,
                      params.timers.tau_c_max, params.timers.tau_g_comp)
