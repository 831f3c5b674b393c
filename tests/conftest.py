import numpy as np
import pytest

from hfo import linalg
from hfo.hybrid import JUMPS, State
from hfo.model import (
    Ball,
    Box,
    JumpPolicy,
    ModelParams,
    Objective,
    Plant,
    Timers,
    strict_initial_state,
)


def s1_params() -> ModelParams:
    """Scalar reference scenario used throughout the suite."""
    return ModelParams(
        Plant(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]),
              np.array([0.5])),
        Objective(np.array([[1.0]]), np.array([[1.0]]), np.array([2.0]), 0.4),
        Timers(1.0, 1.0, 0.25, 4),
        Box([-1.0], [1.0]),
    )


def jump_log(arc) -> list:
    """The arc's jump log as (t, j, case, applied) tuples: each code mapped
    through ``hybrid.JUMPS``, and jump j's time read at the first sample of
    segment j + 1, the segment it starts."""
    times = arc.times[arc.offsets[1:-1]].tolist()
    return [(t, j, *JUMPS[code])
            for j, (t, code) in enumerate(zip(times, arc.jumps.tolist()))]


def segment_rows(arc, j) -> slice:
    """Rows of segment j in the arc's sample columns."""
    return slice(int(arc.offsets[j]), int(arc.offsets[j + 1]))


def state_at(arc, i, j=None) -> State:
    """The full state of sample i (negative i counts from the end): row i of
    the sample columns and the held row of the segment it lies in, whose
    index ``j`` a caller that knows it may pass."""
    i = range(len(arc.times))[i]
    if j is None:
        j = int(np.searchsorted(arc.offsets, i, side="right")) - 1
    return State(x=arc.x[i], u=arc.u[j], y_s=arc.y_s[j], z=arc.z[j],
                 tau_c=float(arc.tau_c[i]), tau_g=float(arc.tau_g[i]))


def segment_start(arc, j) -> State:
    """The state of segment j's first sample."""
    return state_at(arc, int(arc.offsets[j]))


def random_point(input_set, rng) -> np.ndarray:
    """A random point of a Box (uniform) or of a Ball (uniform in volume)."""
    if isinstance(input_set, Box):
        return rng.uniform(input_set.lo, input_set.hi)
    direction = rng.standard_normal(input_set.center.shape[0])
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        return input_set.center.copy()
    scale = input_set.radius * rng.uniform() ** (1.0 / len(input_set.center))
    return input_set.center + direction * (scale / norm)


@pytest.fixture
def s1():
    return s1_params()


@pytest.fixture
def s1_policy():
    return JumpPolicy(tau_c_reset="min", case3_order="g1_first", seed=1)


@pytest.fixture
def s1_zeta0(s1):
    return strict_initial_state(s1)


def random_hurwitz(rng, n, rho_min=0.5, rho_max=1.5):
    """Random Hurwitz matrix with slowest decay rate at least rho_min."""
    g = rng.standard_normal((n, n))
    shift = np.max(np.linalg.eigvals(g).real) + rng.uniform(rho_min, rho_max)
    return g - shift * np.eye(n)


def random_spd(rng, n, lo=0.5, hi=2.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ np.diag(rng.uniform(lo, hi, n)) @ q.T


def random_params(rng, gamma_frac=None, ball_prob=0.25,
                  aligned_timers=False, n=None) -> ModelParams:
    """Random validated parameter set at desk scale.

    Sizes, conditioning, and timer ratios are kept moderate so the derived
    constants stay informative and horizons stay short.  With
    ``aligned_timers`` the tau_c bounds are exact multiples of tau_g_comp, so
    every flow interval between jump instants lasts a full gradient period
    (the quantitative dwell property only holds on that subclass). ``n``
    fixes the plant order instead of drawing it from 1..3.
    """
    if n is None:
        n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    p = int(rng.integers(1, 3))
    a = random_hurwitz(rng, n)
    b = rng.standard_normal((n, m))
    c_out = 0.8 * rng.standard_normal((p, n))
    d = rng.standard_normal(p) * 0.5
    plant = Plant(a, b, c_out, d)

    q_u = random_spd(rng, m)
    q_y = random_spd(rng, p, lo=0.3, hi=1.0)
    y_hat = rng.standard_normal(p)

    h = -c_out @ np.linalg.solve(a, b)
    big_l = float(np.linalg.eigvalsh(q_u + h.T @ q_y @ h)[-1])
    mu = float(np.linalg.eigvalsh(q_u)[0])
    if gamma_frac is None:
        gamma_frac = rng.uniform(0.3, 0.9)
    # q = 1 - 2*gamma*mu + gamma^2*L^2 < 1 additionally needs gamma < 2*mu/L^2
    gamma = gamma_frac * min(2.0 / (mu + big_l), 2.0 * mu / big_l ** 2)
    objective = Objective(q_u, q_y, y_hat, gamma)

    rho = float(np.min(np.abs(np.linalg.eigvals(a).real)))
    ell = int(rng.integers(1, 3))
    tau_g_comp = rng.uniform(0.1, min(0.3, 0.5 / rho / ell))
    if aligned_timers:
        tau_c_min = ell * tau_g_comp
        tau_c_max = (ell + int(rng.integers(0, 2))) * tau_g_comp
    else:
        tau_c_min = ell * tau_g_comp * rng.uniform(1.0, 1.5)
        tau_c_min = min(tau_c_min, 0.6 / rho)
        tau_c_max = tau_c_min * rng.uniform(1.0, 1.3)
    timers = Timers(tau_c_min, tau_c_max, tau_g_comp, ell)

    if rng.uniform() < ball_prob:
        input_set = Ball(rng.standard_normal(m) * 0.3, rng.uniform(0.5, 1.5))
    else:
        half = rng.uniform(0.3, 1.5, m)
        center = rng.standard_normal(m) * 0.3
        input_set = Box(center - half, center + half)
    return ModelParams(plant, objective, timers, input_set)


# -- independent numerical oracles ------------------------------------------


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


def rk4_lti_step_matrices(a, b, h):
    """One classical RK4 step of x' = Ax + Bu with constant u, as the affine
    map x -> P x + Gu. RK4 on a linear system is the order-4 Taylor map."""
    n = a.shape[0]
    eye = np.eye(n)
    ah = a * h
    p = eye + ah @ (eye + ah @ (eye + ah @ (eye + ah / 4.0) / 3.0) / 2.0)
    g = h * (eye + ah @ (eye + ah @ (eye + ah / 4.0) / 3.0) / 2.0) @ b
    return p, g


def rk4_lti(a, b, x0, u, duration, h=1e-5):
    """Fixed-step RK4 reference solution over [0, duration].

    The per-step affine map is composed by binary doubling, which is
    algebraically identical to sequential stepping.
    """
    steps = int(round(duration / h))
    if abs(steps * h - duration) > 1e-12:
        raise ValueError("duration must be a multiple of the step size")
    p, g = rk4_lti_step_matrices(a, b, h)
    c = g @ u
    # compose (P, c)^steps
    total_p = np.eye(a.shape[0])
    total_c = np.zeros(a.shape[0])
    base_p, base_c = p, c
    k = steps
    while k > 0:
        if k & 1:
            total_c = base_p @ total_c + base_c
            total_p = base_p @ total_p
        base_c = base_p @ base_c + base_c
        base_p = base_p @ base_p
        k >>= 1
    return total_p @ x0 + total_c


def power_iteration_norm(b, iters=2000, seed=0):
    """Spectral norm via power iteration on B^T B."""
    rng = np.random.default_rng(seed)
    btb = b.T @ b
    v = rng.standard_normal(btb.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = btb @ v
        lam = np.linalg.norm(w)
        if lam == 0.0:
            return 0.0
        v = w / lam
    return float(np.sqrt(lam))


def central_difference_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return grad
