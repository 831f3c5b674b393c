"""Quantitative analysis: optimal steady state, per-sample fixed points,
convergence constants, convergence-bound evaluation, and trajectory
cross-checks against the closed-form variation-of-constants decomposition.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg
from .hybrid import HybridArc
from .model import ModelParams, gradient_constants


@dataclass
class Constants:
    """Derived convergence quantities for one parameter set."""

    rho: float  # slowest plant decay rate, min |Re lambda_i(A)|
    m_hat: float  # overshoot constant estimate, >= 1
    big_l: float  # gradient Lipschitz constant lambda_max(Q_u + H'Q_yH)
    q: float  # per-iteration contraction factor
    d_u: float  # diameter of the input set
    r: float  # guaranteed asymptotic tracking radius
    # the bounds' t-independent terms, which as_dict leaves out
    middle_thm1: float
    middle_thm2: float
    last: float
    u_tilde: np.ndarray
    y_tilde: np.ndarray
    x_tilde: np.ndarray
    b_norm: float
    m_estimate: MEstimate

    def as_dict(self) -> dict:
        return {
            "rho": self.rho,
            "m_hat": self.m_hat,
            "L": self.big_l,
            "q": self.q,
            "d_u": self.d_u,
            "r": self.r,
            "u_tilde": self.u_tilde.tolist(),
            "y_tilde": self.y_tilde.tolist(),
            "x_tilde": self.x_tilde.tolist(),
            "b_norm": self.b_norm,
            "m_estimate": dataclasses.asdict(self.m_estimate),
        }


@dataclass
class MEstimate:
    value: float
    t_at_max: float
    sup: float
    non_normal_note: str | None = None


M_MARGIN = 0.05  # estimate_M's value is its grid supremum times 1 + this
M_GRID_POINTS, M_HORIZON = 2000, 10.0  # its grid: 2000 steps of [0, 10/rho]
NON_NORMAL_COND = 1e6  # cond(V) above which constants notes non-normality

# estimate_M takes the exact spectral norm only at grid points that
# linalg.log_norm_bound cannot rule out. At this level, ||G^8||_F^(1/16)
# with G = E'E (three squarings of G), the bound exceeds ||e^{At}|| by at
# most n^(1/32), 1.098x at n = 20, and by far less when G has a spectral
# gap; each level costs one batched product.
M_BOUND_LEVELS = 4
# Relative pad on that bound before it may rule a point out. Each product
# of the bound (E'E and the squares of G) is off by at most about n eps
# times the squared Frobenius norm of its normalized factor, i.e. n^2 eps
# relative to its largest eigenvalue; level k enters with weight 1/2^k, so
# the bound falls short of ||E||_2 by at most about n^2 eps overall, and
# the SVD's own ||E||_2 is within about n eps. 1e-6 covers n^2 eps up to
# n = 60000. Only where ||E||^2 underflows can the bound fall shorter, and
# there ||E|| e^{rho t} <= 1e-140 lies far below the t = 0 value 1.
M_BOUND_PAD = 1e-6

# Most n x n matrices (estimate_M's SVDs, reconstruct_x's exponentials) or
# stored samples (reconstruct_x's eigenbasis rows) one batched call holds at
# once, so memory stays O(n^2) per block.
_STACK_BLOCK = 100


# Fixed-point residual _pgd_fixed_point certifies, and its most iterations.
PGD_TOL = 1e-12
PGD_MAX_ITER = 200_000


def _pgd_fixed_point(hess, offset, eigs, input_set, check_gamma) -> np.ndarray:
    """Fixed point of z = P[z - gamma (hess z + offset)], for one offset (m,)
    or for each row of a stack (P, m).

    Iterates with a stepsize from ``eigs``, the extreme eigenvalues of
    ``hess`` (the fixed point does not depend on it). Each row stops at its
    own tolerance, so it takes the iterations a one-row solve would; every
    row is certified against ``check_gamma``.
    """
    gamma_int = 2.0 / (eigs[0] + eigs[1])
    offsets = offset.reshape(-1, offset.shape[-1])
    z = input_set.project(np.zeros_like(offsets))
    rows = np.arange(len(z))
    for _ in range(PGD_MAX_ITER):
        if not rows.size:
            break
        old = z[rows]
        z[rows] = new = input_set.project(
            old - gamma_int * ((hess @ old[..., None])[..., 0] + offsets[rows]))
        rows = rows[linalg.row_norms(new - old)[:, 0] > 0.1 * PGD_TOL]
    resid = linalg.row_norms(z - input_set.project(
        z - check_gamma * ((hess @ z[..., None])[..., 0] + offsets)))
    if np.max(resid, initial=0.0) > PGD_TOL:
        raise RuntimeError(f"projected gradient failed to reach fixed-point "
                           f"residual {PGD_TOL:g} (got {np.max(resid):.3e})")
    return z.reshape(offset.shape)


def solve_optimal(params: ModelParams):
    """Optimal steady state (u~, y~, x~) of the disturbance-aware program.

    Minimizes 0.5 u'Q_u u + 0.5 (Hu + d - y_hat)'Q_y(Hu + d - y_hat) over the
    input set; strong convexity in u makes the minimizer unique.
    """
    obj = params.objective
    plant = params.plant
    h = params.h
    eigs = params.curvature.hessian
    offset = h.T @ (obj.q_y @ (plant.d - obj.y_hat))
    u_tilde = _pgd_fixed_point(params.hessian, offset, eigs, params.input_set,
                               check_gamma=2.0 / (eigs[0] + eigs[1]))
    return u_tilde, h @ u_tilde + plant.d, -params.a_inv_b @ u_tilde


def fixed_point_z(y_s, params: ModelParams):
    """Fixed point z* of the projected gradient update with the sampled output
    held, as within one input period: for y_s (p,), or each row of (P, p)."""
    obj = params.objective
    err = np.asarray(y_s, dtype=float) - obj.y_hat
    offset = (params.h.T @ (obj.q_y @ err[..., None]))[..., 0]
    return _pgd_fixed_point(obj.q_u, offset, params.curvature.q_u,
                            params.input_set, check_gamma=obj.gamma)


def estimate_M(a, rho: float) -> MEstimate:
    """Estimate of the overshoot constant in ||e^{At}|| <= M e^{-rho t}.

    Grid supremum of ||e^{At}|| e^{rho t} over [0, M_HORIZON/rho], in
    M_GRID_POINTS steps, times 1 + ``M_MARGIN``; the maximizer is returned
    for audit. The recurrence that builds e^{At} on the grid carries a
    relative rounding error of up to about M_GRID_POINTS * n * eps, so grid
    values that close to the largest one count as ties, and the earliest of
    them (t = 0, value 1, included) is the reported maximizer.

    The spectral norm is taken by SVD only where the squaring bound
    (``linalg.log_norm_bound``, padded by ``M_BOUND_PAD``) cannot rule a
    grid point out: a point whose bound, with the tie allowance, stays below
    the largest exact value so far can be neither the maximum nor a tie, so
    the supremum, the maximizer and every bit of the result are those of an
    SVD at every grid point. Each block of ``_STACK_BLOCK`` matrices is
    bounded while it is in the buffer, and its top-bound point is taken
    first, so that the rest are measured against an exact value.
    """
    a = np.asarray(a, dtype=float)
    if rho <= 0:
        raise ValueError("rho must be positive")
    grid_points = M_GRID_POINTS
    h = M_HORIZON / rho / grid_points
    step = linalg.mat_exp(a, h)
    n = a.shape[0]
    tie = grid_points * n * np.finfo(float).eps
    # at n = 1 level 0, sqrt(e^2) = |e|, is already tight: a higher level,
    # or taking a block's top point first, would tighten nothing
    levels = M_BOUND_LEVELS if n > 1 else 0
    e = np.eye(n)
    values = np.zeros(grid_points + 1)  # a skipped point keeps 0
    values[0] = best = 1.0
    block = np.empty((min(_STACK_BLOCK, grid_points),) + a.shape)
    rows = list(block)

    def exact(start, pick):  # values at block rows pick; the new best
        # a view, not a copy, when every row is picked
        mats = block[pick] if len(pick) < len(t) else block[:len(t)]
        got = np.linalg.svd(mats, compute_uv=False)[:, 0] * growth[pick]
        values[start + pick] = got
        return max(best, float(got.max()))

    for start in range(1, grid_points + 1, _STACK_BLOCK):
        t = np.arange(start, min(start + _STACK_BLOCK, grid_points + 1)) * h
        for row in rows[:len(t)]:
            e = np.matmul(step, e, out=row)
        growth = np.exp(rho * t)
        scale = growth * ((1.0 + tie) * (1.0 + M_BOUND_PAD))
        bound = linalg.log_norm_bound(block[:len(t)], levels,
                                      np.log(best / scale))
        with np.errstate(over="ignore"):  # an inf reach rules nothing out
            reach = scale * np.exp(bound)
        # a point whose reach stays below the best exact value is neither
        # the maximum nor a tie; a NaN reach is never below it
        todo = np.flatnonzero(~(reach < best))
        if levels and todo.size > 1:  # the top point first, then the rest
            top = todo[np.argmax(reach[todo])]
            best = exact(start, top[None])
            todo = todo[~(reach[todo] < best) & (todo != top)]
        if todo.size:
            best = exact(start, todo)
    at = int(np.argmax(values * (1.0 + tie) >= values.max()))
    sup = float(values[at])
    return MEstimate(max(1.0, sup) * (1.0 + M_MARGIN), at * h, sup)


def constants(params: ModelParams) -> Constants:
    """Every derived convergence constant of a parameter set: the one place
    the tracking radius r and the bounds' t-independent terms are computed.

    Raises ValueError if r or a bound term is not finite.
    """
    plant = params.plant
    tm = params.timers

    spectrum, _, cond = params.eigen
    if params.rho_override is None and np.max(spectrum.real) >= 0.0:
        raise ValueError("plant matrix must be Hurwitz")
    rho = float(np.min(np.abs(spectrum.real)) if params.rho_override is None
                else params.rho_override)

    _, big_l, q = gradient_constants(params)
    d_u = params.input_set.diameter()
    b_norm = linalg.spectral_norm(plant.b)
    m_estimate = estimate_M(plant.a, rho)
    if cond > NON_NORMAL_COND:
        m_estimate.non_normal_note = (
            f"eigenvector condition estimate {cond:.3e}: plant is highly "
            "non-normal, overshoot estimate may be loose")
    m_hat = m_estimate.value
    u_tilde, y_tilde, x_tilde = solve_optimal(params)
    with np.errstate(over="ignore", invalid="ignore"):
        q_pow = q ** (tm.ell / 2.0)
        # r's own product order, not m_hat * coeff, keeps r's bits
        r = (m_hat * b_norm * d_u / rho
             * (2.0 - np.exp(-rho * tm.tau_c_min) + q_pow))
        coeff = b_norm * d_u / rho
        middle = [m_hat ** 2 * coeff * (2.0 - np.exp(-s * rho * tm.tau_c_max) + q_pow)
                  for s in (1.0, 2.0)]  # bound_thm1's and bound_thm2's
        last = m_hat * coeff * (1.0 + q_pow * np.exp(rho * tm.tau_c_min))
    terms = [float(term) for term in (r, *middle, last)]
    if not np.isfinite(terms).all():
        raise ValueError(
            "constants not finite: r = {:.4g}, bound terms {:.4g}, {:.4g}, {:.4g}, "
            "from M = {:.4g}, ||B|| = {:.4g}, rho = {:.4g} and the input_set "
            "diameter d_u = {:.4g}".format(*terms, m_hat, b_norm, rho, d_u))
    return Constants(rho, m_hat, big_l, q, d_u, *terms, u_tilde, y_tilde,
                     x_tilde, b_norm, m_estimate)


def dist_to_A(x: np.ndarray, c: Constants):
    """Distance of the hybrid state to the target set: only the plant-state
    component can leave it, so this is dist(x, ball of radius r about x~).
    ``x`` is one plant state (n,) or one per row (k, n)."""
    return np.maximum(np.linalg.norm(x - c.x_tilde, axis=-1) - c.r, 0.0)


def _bound(t, init_dist, c: Constants, middle: float):
    tail = np.exp(-c.rho * np.asarray(t, dtype=float))
    return (c.m_hat * init_dist + middle - c.last) * tail


def bound_thm1(t, init_dist: float, c: Constants) -> float:
    """Convergence bound for restricted initializations (raw, may be negative
    at small t; clip at zero when comparing against distances)."""
    return _bound(t, init_dist, c, c.middle_thm1)


def bound_thm2(t, init_dist: float, c: Constants) -> float:
    """Convergence bound valid from arbitrary initial conditions."""
    return _bound(t, init_dist, c, c.middle_thm2)


@dataclass
class BoundReport:
    which: str
    max_violation: float
    first_entry_time: float | None  # first t with lhs <= 1e-6
    init_dist: float
    worst_t: float  # hybrid time (t, j) of the sample attaining max_violation
    worst_j: int

    @property
    def passed(self) -> bool:
        return self.max_violation <= 1e-9


def check_bound(arc: HybridArc, c: Constants, which: str) -> BoundReport:
    """Evaluate distance vs. the convergence bound at every stored sample."""
    bound_fn = {"thm1": bound_thm1, "thm2": bound_thm2}[which]
    t = arc.times
    lhs = dist_to_A(arc.x, c)
    init_dist = float(lhs[0])
    gap = lhs - np.maximum(bound_fn(t, init_dist, c), 0.0)
    worst = int(np.argmax(gap))
    inside = np.flatnonzero(lhs <= 1e-6)
    first_entry = float(t[inside[0]]) if inside.size else None
    worst_j = int(np.searchsorted(arc.offsets, worst, side="right")) - 1
    return BoundReport(which, float(gap[worst]), first_entry, init_dist,
                       float(t[worst]), worst_j)


# Largest deviation of the stored x from its reconstruction that verify
# accepts; linalg.EIGENBASIS_COND_LIMIT is sized against it.
RECONSTRUCTION_TOL = 1e-8


@dataclass
class ReconstructionResult:
    max_deviation: float
    times: np.ndarray
    reconstructed: np.ndarray
    path: str  # "eigenbasis" or "expm"
    eigenbasis_cond: float  # cond(V) of A's eigenvector matrix


def reconstruct_x(arc: HybridArc, params: ModelParams) -> ReconstructionResult:
    """Rebuild the plant trajectory from x(0,0) and the logged input sequence.

    On an input period anchored at (t_a, x_a) with constant input u, the
    variation-of-constants formula reads
    x(t) = e^{A(t - t_a)} (x_a + w) - w with w = A^{-1} B u, since A^{-1}
    commutes with e^{At}; every period's w is ``params.a_inv_b @ u``. Each
    stored sample is evaluated from its own offset t - t_a from the anchor,
    never chained from the previous sample and never from the simulator's
    stepped propagator, so the check stays independent of the simulator.
    The next period is anchored at this one's last sample, which is the
    formula's value at the input change that closes the period.

    Two paths evaluate e^{A s} v:

    - ``"eigenbasis"``: for A = V diag(lambda) V^{-1} (``params.eigen``)
      with cond(V) <= ``linalg.EIGENBASIS_COND_LIMIT``,
      Re[V (e^{lambda s} * c)] with c = V^{-1} v, one complex n-vector of
      scalar exponentials per sample;
    - ``"expm"``: otherwise (a defective or nearly defective A), one stacked
      n x n exponential per sample. ``linalg.EIGENBASIS_COND_LIMIT`` says
      why the limit is sized against ``RECONSTRUCTION_TOL``.

    Samples are evaluated in blocks of at most ``_STACK_BLOCK`` and the
    deviation is reduced per block, so the working memory does not grow
    with the arc. Reports the worst deviation from the stored trajectory,
    the path taken and cond(V).
    """
    lam, vecs, cond = params.eigen
    if cond <= linalg.EIGENBASIS_COND_LIMIT:
        path, lu = "eigenbasis", scipy.linalg.lu_factor(vecs)

        def exp_times(s, v):  # e^{A s} v for each offset in s
            c = scipy.linalg.lu_solve(lu, v)
            return ((np.exp(np.multiply.outer(s, lam)) * c) @ vecs.T).real
    else:
        path = "expm"

        def exp_times(s, v):
            return linalg.mat_exp(params.plant.a, s) @ v
    anchor_t, anchor_x = 0.0, arc.x[0].copy()
    recon = np.empty_like(arc.x)
    max_dev = 0.0
    for first, end in arc.periods():
        w = params.a_inv_b @ arc.u[first]
        lo, hi = int(arc.offsets[first]), int(arc.offsets[end])
        for row in range(lo, hi, _STACK_BLOCK):
            rows = slice(row, min(row + _STACK_BLOCK, hi))
            recon[rows] = exp_times(arc.times[rows] - anchor_t,
                                    anchor_x + w) - w
            max_dev = max(max_dev,
                          float(np.max(np.abs(recon[rows] - arc.x[rows]))))
        anchor_t, anchor_x = float(arc.times[hi - 1]), recon[hi - 1].copy()
    return ReconstructionResult(max_dev, arc.times, recon, path, cond)


@dataclass
class PeriodCheck:
    period: int
    alpha: int
    per_step_ok: bool
    aggregate_ok: bool
    worst_step_margin: float
    aggregate_margin: float


@dataclass
class RateReport:
    periods: list
    passed: bool


# Largest per-step and aggregate contraction margins rate_check accepts.
STEP_TOL = 1e-12
AGGREGATE_TOL = 1e-9


def rate_check(arc: HybridArc, params: ModelParams) -> RateReport:
    """Verify per-step and aggregate optimizer contraction in every completed
    input period against that period's projected-gradient fixed point: the
    iterates z[first:end] of period (first, end) and its held y_s[first]."""
    _, _, q = gradient_constants(params)
    spans = arc.periods()[:-1]
    z_stars = fixed_point_z(arc.y_s[[first for first, _ in spans]], params)
    periods = []
    for k, ((first, end), z_star) in enumerate(zip(spans, z_stars)):
        dists = linalg.row_norms(arc.z[first:end] - z_star)[:, 0].tolist()
        worst = max((d1 ** 2 - q * d0 ** 2 for d0, d1 in zip(dists, dists[1:])),
                    default=-np.inf)
        alpha = end - first - 1
        agg_margin = -np.inf
        if alpha >= 1:
            agg_margin = dists[-1] - q ** ((alpha - 1) / 2.0) * dists[1]
        periods.append(PeriodCheck(k, alpha, worst <= STEP_TOL,
                                   agg_margin <= AGGREGATE_TOL, worst,
                                   agg_margin))
    return RateReport(periods, all(p.per_step_ok and p.aggregate_ok
                                   for p in periods))
