"""Quantitative analysis: optimal steady state, per-period fixed points,
convergence constants, convergence-bound evaluation, and trajectory
cross-checks against the closed-form variation-of-constants decomposition.

Each function reads what ``ModelParams`` derives (``eigen``, ``a_inv_b``,
``hessian``, ``curvature``) rather than deriving it again.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

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
# Relative pad on a bound before it may rule a point or a block out. Each
# product of the bound (E'E and the squares of G) is off by at most about
# n eps times the squared Frobenius norm of its factor, i.e. n^2 eps
# relative to its largest eigenvalue; level k enters with weight 1/2^k, so
# the bound falls short of ||E||_2 by at most about n^2 eps overall, and
# the SVD's own ||E||_2 is within about n eps. A block's bound
# ||P|| ||E|| adds the rounding of the product: |fl(PE) - PE| <= n eps
# |P| |E| entrywise, and || |P| ||_2 <= sqrt(n) ||P||_2, so ||fl(PE)|| is
# within n^2 eps of ||P|| ||E||, about 3 n^2 eps in all. 1e-6 covers that
# up to n = 35000. Only where ||E||^2 underflows can the bound fall
# shorter: a point's own E then has ||E|| e^{rho t} <= 1e-140, far below
# the t = 0 value 1, and a block's two factors are floored at 2^-200,
# above which the bound keeps its pad.
M_BOUND_PAD = 1e-6
# Most n x n matrices (reconstruct_x's exponentials on its expm path,
# estimate_M's table of powers and its block of grid points, half each) one
# batched call holds at once, so memory stays O(n^2) per block, and most
# input periods reconstruct_x's eigenbasis path takes at once.
_STACK_BLOCK = 100
# Most elements (rows x n) one block of reconstruct_x's eigenbasis rows
# holds: _STACK_BLOCK rows at n = 20, 2000 at n = 1.
_ROW_ELEMENTS = 20 * _STACK_BLOCK
# Most elements (rows x n) one block of check_bound's rows holds: 409 rows
# at n = 20, 8192 at n = 1. Its (rows, n) temporary, 64 KiB, stays below
# constants' working memory (estimate_M's table of powers, its block and
# their bound's temporaries, about 0.67 MB at n = 20), and blocks this size
# took no longer than one pass over a whole n = 20 arc.
_BOUND_ELEMENTS = 1 << 13


# Fixed-point residual _pgd_fixed_point certifies, and its most iterations.
PGD_TOL = 1e-12
PGD_MAX_ITER = 200_000


def _pgd_fixed_point(hess, offset, eigs, input_set, check_gamma) -> np.ndarray:
    """Fixed point of z = P[z - gamma (hess z + offset)], for one offset (m,)
    or for each row of a stack (P, m).

    Iterates z <- P[z - gamma (hess z + offset)] with a stepsize from
    ``eigs``, the extreme eigenvalues of ``hess`` (the fixed point does not
    depend on it). Each row stops at its own step of 0.1 ``PGD_TOL`` and is
    then left alone, so it takes the iterations, and gets the bits, of a
    one-row solve; every row is certified against ``check_gamma``, and a
    failure names the worst residual.
    """
    gamma_int = 2.0 / (eigs[0] + eigs[1])
    offsets = offset.reshape(-1, offset.shape[-1])
    z = input_set.project(np.zeros_like(offsets))
    # the moving rows, their iterates and offsets, compact; a row goes back
    # into z when it stops, or at the iteration cap
    rows, old, off = np.arange(len(z)), z, offsets
    for _ in range(PGD_MAX_ITER):
        if not rows.size:
            break
        new = input_set.project(
            old - gamma_int * ((hess @ old[..., None])[..., 0] + off))
        going = linalg.row_norms(new - old)[:, 0] > 0.1 * PGD_TOL
        if not going.all():
            z[rows[~going]] = new[~going]
            rows, new, off = rows[going], new[going], off[going]
        old = new
    else:
        z[rows] = old
    resid = linalg.row_norms(z - input_set.project(
        z - check_gamma * ((hess @ z[..., None])[..., 0] + offsets)))
    if np.max(resid, initial=0.0) > PGD_TOL:
        raise RuntimeError(f"projected gradient failed to reach fixed-point "
                           f"residual {PGD_TOL:g} (got {np.max(resid):.3e})")
    return z.reshape(offset.shape)


def solve_optimal(params: ModelParams):
    """Optimal steady state (u~, y~, x~) of the disturbance-aware program.

    Minimizes 0.5 u'Q_u u + 0.5 (Hu + d - y_hat)'Q_y(Hu + d - y_hat) over the
    input set, as one row of ``_pgd_fixed_point``; strong convexity in u
    makes the minimizer unique. x~ = -A^{-1}B u~.
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
    held, as within one input period: for y_s (p,), or each row of (P, p),
    returned as (m,) or (P, m); an empty stack returns (0, m) without
    iterating."""
    obj = params.objective
    err = np.asarray(y_s, dtype=float) - obj.y_hat
    offset = (params.h.T @ (obj.q_y @ err[..., None]))[..., 0]
    return _pgd_fixed_point(obj.q_u, offset, params.curvature.q_u,
                            params.input_set, check_gamma=obj.gamma)


def estimate_M(a, rho: float) -> MEstimate:
    """Estimate of the overshoot constant in ||e^{At}|| <= M e^{-rho t}.

    Grid supremum of v(t) = ||e^{At}|| e^{rho t} over [0, M_HORIZON/rho], in
    M_GRID_POINTS steps, times 1 + ``M_MARGIN``; the maximizer is returned
    for audit. It decomposes nothing: ``constants`` passes rho and attaches
    the non-normal note. The grid is built from a table of powers
    P_k = e^{Ahk}, k = 1 to K = ``_STACK_BLOCK // 2``, each P_1 P_(k-1):
    the block of K points after a block start E_s is one batched product
    P_(1..K) E_s, and the next start is P_K E_s, bit for bit that block's
    last row. A grid
    matrix is thus a chain of at most K + M_GRID_POINTS / K products, and,
    by the rounding argument for powers in Moler & Van Loan ("Nineteen
    dubious ways to compute the exponential of a matrix, twenty-five years
    later", SIAM Review 2003), carries a relative rounding error of up to
    about that many times n eps, inside M_GRID_POINTS * n * eps. Grid
    values that close to the largest one count as ties, and the earliest of
    them (t = 0, value 1, included) is the reported maximizer.

    The spectral norm is taken by SVD only where a bound, times the tie
    allowance and 1 + ``M_BOUND_PAD``, cannot rule a grid point out against
    the largest exact value so far. The cutoff is always an exact SVD value
    of a grid point, and the allowance is on the bound's side: a point whose
    bound stays below the cutoff lies below the grid maximum by more than a
    tie, so it can be neither the maximum nor a tie, and the supremum, the
    maximizer and every bit of the result are those of an SVD at every grid
    point. A whole block is bounded first, from numbers at hand: point k
    after start E_s is fl(P_k E_s), whose norm is at most beta_k sigma_s up
    to the pad, with beta_k >= ||P_k|| from one ``linalg.log_norm_bound``
    (to level ``M_BOUND_LEVELS``) over the table of powers, sigma_s >=
    ||E_s|| from the one over the block starts that also picks the first
    cutoff, and sigma_0 = 1. These bound the computed matrices, not e^{At},
    so the rounding of the exponential does not enter. The first cutoff is
    the exact value of the block start with the highest bound, so it is
    near the supremum before any block is settled. The starts are held, in
    one stack, only for that bound; the pass rebuilds each as P_K E_(s-1),
    bit for bit the same product, so beside the table of powers it holds
    one block and its bound's temporaries. One pass takes each block in
    turn: a block whose bound stays below the cutoff is skipped, with no
    product but its start's, no bound and no SVD; in any other, each point is
    bounded by ``log_norm_bound`` of its own matrix, its top point is
    measured, and every point the bound still leaves open. Each point gets
    at most one SVD. At n = 1 the norm is |e|, and every grid value is taken
    in one pass, with no bound. A grid with a value that is not finite
    raises ValueError, with no warning.
    """
    a = np.asarray(a, dtype=float)
    if rho <= 0:
        raise ValueError("rho must be positive")
    grid_points = M_GRID_POINTS
    h = M_HORIZON / rho / grid_points
    n = a.shape[0]
    tie = grid_points * n * np.finfo(float).eps
    size = min(_STACK_BLOCK // 2, grid_points)
    firsts = range(0, grid_points, size)  # the block starts' indices
    powers = np.empty((size,) + a.shape)
    starts = np.empty((len(firsts),) + a.shape)
    powers[0], starts[0] = linalg.mat_exp(a, h), np.eye(n)
    values = np.zeros(grid_points + 1)  # a skipped point keeps 0
    values[0] = best = 1.0

    def reach(mats, growth, floor):  # bounds on v; a row may stop below floor
        scale = growth * ((1.0 + tie) * (1.0 + M_BOUND_PAD))
        bound = linalg.log_norm_bound(mats, M_BOUND_LEVELS,
                                      np.log(floor / scale))
        # an inf reach rules nothing out; a norm bound below 2^-200 may fall
        # short of the norm, which 2^-200 then bounds
        return scale * np.maximum(np.exp(bound), 2.0 ** -200)

    def exact(idx, mats, growth):  # values at grid points idx; the new best
        got = np.nan  # no SVD of a matrix that is not finite
        if np.isfinite(mats).all():
            # a 1x1 matrix's spectral norm is |e|; the SVD gives the same
            # bits for |e| in about [1e-138, 1e138], where LAPACK does not
            # rescale
            got = growth * (np.abs(mats[:, 0, 0]) if n == 1 else
                            np.linalg.svd(mats, compute_uv=False)[:, 0])
        if not np.all(np.isfinite(got)):
            raise ValueError(
                f"the overshoot grid is not finite: ||e^(At)|| e^(rho t) "
                f"overflows on [0, {M_HORIZON / rho:g}]")
        values[idx] = got
        return max(best, float(got.max()))

    # an inf or NaN matrix rules nothing out, so ``exact`` raises on it;
    # nothing warns
    with np.errstate(all="ignore"):
        for k in range(1, size):
            np.matmul(powers[0], powers[k - 1], out=powers[k])
        for j in range(1, len(firsts)):
            np.matmul(powers[-1], starts[j - 1], out=starts[j])
        if n == 1:  # the norm is |e|: every grid value in one pass
            idx = np.arange(1, grid_points + 1)
            grid = (starts[:, None] * powers).reshape(-1, 1, 1)
            exact(idx, grid[:grid_points], np.exp(rho * (idx * h)))
        else:
            # v at point k after start s is at most the reach of P_k (at
            # t = hk) times that of E_s (at the start), so the pad enters
            # twice; lead is the largest reach over the table
            lead = np.max(reach(powers, np.exp(rho * (np.arange(1, size + 1)
                                                      * h)), 0.0))
            reaches = np.ones(len(firsts))  # E_0 = I, at t = 0
            known = -1  # the one grid point measured before the pass
            if len(firsts) > 1:  # the first cutoff, from the block starts
                idx = np.array(firsts[1:])
                growth = np.exp(rho * (idx * h))
                reaches[1:] = reach(starts[1:], growth, 0.0)
                top = np.argmax(reaches[1:])
                known = idx[top]
                best = exact(idx[top, None], starts[1 + top, None],
                             growth[top, None])
            # the pass rebuilds each start by the same product, bit for bit
            del starts
            block, e = np.empty_like(powers), np.eye(n)
            for first, start in zip(firsts, reaches):
                if first:
                    e = powers[-1] @ e
                # a block whose bound stays below the best exact value holds
                # neither the maximum nor a tie; a NaN bound is never below
                if lead * start < best:
                    continue
                idx = np.arange(first + 1, min(first + size, grid_points) + 1)
                mats = np.matmul(powers[:len(idx)], e, out=block[:len(idx)])
                growth = np.exp(rho * (idx * h))
                bounds = reach(mats, growth, best)
                # a point whose reach stays below the best exact value is
                # neither the maximum nor a tie
                todo = np.flatnonzero(~(bounds < best) & (idx != known))
                if todo.size > 1:  # the top point first, then the rest
                    top = todo[np.argmax(bounds[todo])]
                    best = exact(idx[top, None], mats[top, None],
                                 growth[top, None])
                    todo = todo[~(bounds[todo] < best) & (todo != top)]
                if todo.size:
                    best = exact(idx[todo], mats[todo], growth[todo])
    at = int(np.argmax(values * (1.0 + tie) >= values.max()))
    sup = float(values[at])
    return MEstimate(max(1.0, sup) * (1.0 + M_MARGIN), at * h, sup)


def constants(params: ModelParams) -> Constants:
    """Every derived convergence constant of a parameter set: the one place
    the tracking radius r and the bounds' t-independent terms
    (``Constants.middle_thm1``, ``middle_thm2`` and the shared ``last``,
    which ``as_dict`` leaves out) are computed. ``bound_thm1``,
    ``bound_thm2`` and ``check_bound`` read those terms from the result,
    and the CLI calls this once per command, in its validation step, before
    the run.

    rho, the spectrum and cond(V) come from ``params.eigen``; the
    ``estimate_M`` result gets the non-normal note when cond(V) exceeds
    ``NON_NORMAL_COND``. Raises ValueError naming rho (or
    ``overrides.rho``) if rho is so small that estimate_M's grid step
    M_HORIZON / rho / M_GRID_POINTS overflows, and naming r, the bound
    terms, M, ||B||, rho and the input-set diameter if r or a bound term is
    not finite.
    """
    plant = params.plant
    tm = params.timers

    spectrum, _, cond = params.eigen
    if params.rho_override is None and np.max(spectrum.real) >= 0.0:
        raise ValueError("plant matrix must be Hurwitz")
    rho = float(np.min(np.abs(spectrum.real)) if params.rho_override is None
                else params.rho_override)
    if not np.isfinite(M_HORIZON / rho / M_GRID_POINTS):
        raise ValueError(
            f"{'rho' if params.rho_override is None else 'overrides.rho'} = "
            f"{rho:.4g} is too small: the overshoot grid step M_HORIZON / rho "
            f"/ M_GRID_POINTS = {M_HORIZON:g} / rho / {M_GRID_POINTS} "
            "overflows")

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
    ``x`` is one plant state (n,) or one per row (k, n). The norm is
    ``np.linalg.norm``'s sum of squares, squared in place, so one (k, n)
    temporary holds it."""
    squares = x - c.x_tilde
    squares *= squares
    return np.maximum(np.sqrt(np.add.reduce(squares, axis=-1)) - c.r, 0.0)


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
    """Evaluate distance vs. the convergence bound at every stored sample.

    The samples go in row blocks of at most ``_BOUND_ELEMENTS`` elements
    (rows x n), and each block leaves only its reductions: the running
    maximum of the gap with its first sample (the first NaN, if any, as
    ``np.argmax`` over the whole arc gives) and the first entry; init_dist
    is the first row's distance. Every value is computed per sample as on
    the whole arc at once, so the report keeps its bits and the working
    memory does not grow with the arc.
    """
    bound_fn = {"thm1": bound_thm1, "thm2": bound_thm2}[which]
    size = max(1, _BOUND_ELEMENTS // arc.x.shape[1])
    init_dist = float(dist_to_A(arc.x[0], c))
    worst, worst_gap, first_entry = 0, -np.inf, None
    for lo in range(0, len(arc.times), size):
        t = arc.times[lo:lo + size]
        lhs = dist_to_A(arc.x[lo:lo + size], c)
        gap = lhs - np.maximum(bound_fn(t, init_dist, c), 0.0)
        k = int(np.argmax(gap))
        # a later block wins on a larger gap, or on a NaN, unless one is held
        if not np.isnan(worst_gap) and not gap[k] <= worst_gap:
            worst, worst_gap = lo + k, float(gap[k])
        if first_entry is None:
            inside = np.flatnonzero(lhs <= 1e-6)
            first_entry = float(t[inside[0]]) if inside.size else None
    worst_j = int(np.searchsorted(arc.offsets, worst, side="right")) - 1
    return BoundReport(which, worst_gap, first_entry, init_dist,
                       float(arc.times[worst]), worst_j)


# Largest deviation of the stored x from its reconstruction that verify
# accepts; linalg.EIGENBASIS_COND_LIMIT is sized against it.
RECONSTRUCTION_TOL = 1e-8


@dataclass
class ReconstructionResult:
    max_deviation: float
    path: str  # "eigenbasis" or "expm"
    eigenbasis_cond: float  # cond(V) of A's eigenvector matrix


def reconstruct_x(arc: HybridArc, params: ModelParams) -> ReconstructionResult:
    """Rebuild the plant trajectory from x(0,0) and the logged input sequence.

    On an input period anchored at (t_a, x_a) with constant input u, the
    variation-of-constants formula reads
    x(t) = e^{A(t - t_a)} (x_a + w) - w with w = A^{-1} B u, since A^{-1}
    commutes with e^{At}; every period's w is ``params.a_inv_b`` times its
    u. Each stored sample is evaluated from its own offset t - t_a from the
    anchor, never chained from the previous sample and never from the
    simulator's stepped propagator, so the check stays independent of the
    simulator. The next period is anchored at this one's last sample, which
    is the formula's value at the input change that closes the period. The
    periods are ``arc.periods()``, and ``reconstruct_blocks`` yields the
    rebuilt rows.

    Two paths evaluate the formula, chosen at call time:

    - ``"eigenbasis"``, for A = V diag(lambda) V^{-1} (``params.eigen``)
      with cond(V) <= ``linalg.EIGENBASIS_COND_LIMIT``. With period k's
      anchor a_k = V^{-1} x_a in modal coordinates and w^_k = V^{-1} w_k,
      its samples are x(t) = Re[V (e^{lambda (t - t_a)} * c_k)] - w_k with
      c_k = a_k + w^_k, and the next anchor, L_k later, is
      a_(k+1) = e^{lambda L_k} * c_k - w^_k: the chain is diagonal, one
      complex n-vector operation per period and no solve. The periods go
      in chunks of at most ``_STACK_BLOCK``; a chunk takes its w_k in one
      product and its w^_k in one solve (the first chunk solves
      a_0 = V^{-1} x(0,0) beside them). For a real A, LAPACK returns each
      complex eigenpair beside its exact conjugate, and the two modes'
      terms of a real x are conjugate too, so only the modes with
      Im lambda >= 0 are carried, each Im lambda > 0 mode with its V column
      doubled (Re[2 v c] = v c + conj(v c)); that halves the complex
      exponentials and the product. A chunk's samples go in row blocks of
      at most ``_ROW_ELEMENTS`` elements (rows x n), about ``_STACK_BLOCK``
      rows at n = 20 and 2000 at n = 1, and a block may span periods.
    - ``"expm"``, otherwise (a defective or nearly defective A): period by
      period, one stacked n x n exponential per sample, in blocks of at
      most ``_STACK_BLOCK`` samples. ``linalg.EIGENBASIS_COND_LIMIT`` says
      why the limit is sized against ``RECONSTRUCTION_TOL``.

    The deviation is reduced block by block and no rebuilt row outlives its
    block, so the working memory does not grow with the arc: O(n^2) per
    block and a little per input period. Reports the worst deviation from
    the stored trajectory, the path taken and cond(V). A NaN deviation (a
    NaN in the stored or the rebuilt x) is the worst and holds, as a NaN
    gap does in ``check_bound``, so such an arc fails the check.
    """
    max_dev = 0.0
    for rows, x_rows in reconstruct_blocks(arc, params):
        dev = float(np.max(np.abs(x_rows - arc.x[rows])))
        # a later block wins on a larger deviation, or on a NaN, unless one
        # is held
        if not np.isnan(max_dev) and not dev <= max_dev:
            max_dev = dev
    return ReconstructionResult(max_dev, _reconstruction_path(params),
                                params.eigen[2])


def _reconstruction_path(params: ModelParams) -> str:
    return ("eigenbasis" if params.eigen[2] <= linalg.EIGENBASIS_COND_LIMIT
            else "expm")


def reconstruct_blocks(arc: HybridArc, params: ModelParams):
    """``reconstruct_x``'s rebuilt trajectory, on the path it takes: yields
    (rows, x_rows) per block, a slice of the arc's rows and a new array of
    their rebuilt x, the slices tiling 0..N in order."""
    if _reconstruction_path(params) == "expm":
        anchor_t, anchor_x = 0.0, arc.x[0].copy()
        for first, end in arc.periods():
            w = params.a_inv_b @ arc.u[first]
            lo, hi = int(arc.offsets[first]), int(arc.offsets[end])
            for row in range(lo, hi, _STACK_BLOCK):
                rows = slice(row, min(row + _STACK_BLOCK, hi))
                x_rows = linalg.mat_exp(params.plant.a, arc.times[rows]
                                        - anchor_t) @ (anchor_x + w) - w
                yield rows, x_rows
            anchor_t, anchor_x = float(arc.times[hi - 1]), x_rows[-1].copy()
        return
    lam, vecs, _ = params.eigen
    keep = lam.imag >= 0.0
    modes = lam[keep]
    basis = (vecs[:, keep] * np.where(modes.imag > 0.0, 2.0, 1.0)).T
    size = max(1, _ROW_ELEMENTS // arc.x.shape[1])
    spans = arc.periods()
    anchor_t = 0.0
    for k0 in range(0, len(spans), _STACK_BLOCK):
        chunk = spans[k0:k0 + _STACK_BLOCK]
        firsts = [first for first, _ in chunk]
        w = arc.u[firsts] @ params.a_inv_b.T
        rhs = np.vstack([w, arc.x[:1]]) if k0 == 0 else w
        w_hat = np.linalg.solve(vecs, rhs.T).T[:, keep]
        if k0 == 0:
            w_hat, anchor = w_hat[:-1], w_hat[-1]
        # each period's first row, and the chunk's end row
        bounds = arc.offsets[firsts + [chunk[-1][1]]]
        # each period's anchor time, and the next chunk's first
        anchor_ts = np.append(anchor_t, arc.times[bounds[1:] - 1])
        growth = np.exp(np.multiply.outer(np.diff(anchor_ts), modes))
        coeffs = np.empty_like(w_hat)
        for g, w_k, c_k in zip(growth, w_hat, coeffs):
            c_k[...] = anchor + w_k
            anchor = g * c_k - w_k
        anchor_t = anchor_ts[-1]
        for row in range(bounds[0], bounds[-1], size):
            rows = slice(row, min(row + size, bounds[-1]))
            k = np.searchsorted(bounds, np.arange(rows.start, rows.stop),
                                side="right") - 1
            e = np.exp(np.multiply.outer(arc.times[rows] - anchor_ts[k],
                                         modes)) * coeffs[k]
            yield rows, (e @ basis).real - w[k]


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
    input period of ``arc.periods()`` against that period's
    projected-gradient fixed point: the iterates z[first:end] of period
    (first, end) and its held y_s[first]. One ``fixed_point_z`` call solves
    every period's fixed point at once. A period passes within
    ``STEP_TOL`` per step and ``AGGREGATE_TOL`` in aggregate."""
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
