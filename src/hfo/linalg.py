"""Small dense linear algebra used throughout the toolkit.

Matrices are plain numpy arrays (row-major, float64). Everything here is a
pure function; the tolerances are the module constants below.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


class DimensionError(ValueError):
    """Operands have inconsistent shapes."""


class SingularMatrixError(np.linalg.LinAlgError):
    """A matrix required to be invertible is singular or near-singular."""


SYMMETRY_TOL = 1e-12
EIG_RESIDUAL_FACTOR = 1e-8
SOLVE_RESIDUAL_FACTOR = 1e-10
CONDITION_LIMIT = 1e12


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def mat_exp(a, t) -> np.ndarray:
    """Matrix exponential e^{A t} via scaling-and-squaring (Pade).

    A scalar ``t`` gives one (n, n) matrix. A 1-D array of k times gives the
    (k, n, n) stack of e^{A t_i}, each computed independently in one call.
    """
    a = _as_square(a)
    if np.ndim(t) == 0:
        if not np.isfinite(t):
            raise ValueError("t must be finite")
        if t == 0.0:
            return np.eye(a.shape[0])
        return scipy.linalg.expm(a * t)
    ts = np.asarray(t, dtype=float)
    if ts.ndim != 1:
        raise DimensionError(f"t must be a scalar or a 1-D array, got {ts.shape}")
    if not np.all(np.isfinite(ts)):
        raise ValueError("t must be finite")
    return scipy.linalg.expm(a * ts[:, None, None])


def propagator(a, b, dt):
    """Exact held-input step of x' = A x + B u over duration dt.

    Returns (e^{A dt}, int_0^dt e^{A s} ds B), so that
    x(dt) = e^{A dt} x(0) + (int_0^dt e^{A s} ds B) u. Both blocks come from
    one exponential of [[A, B], [0, 0]] dt (Van Loan, "Computing integrals
    involving the matrix exponential", IEEE TAC 1978), which holds for any A,
    singular ones included. A 1-D array of durations gives both blocks
    stacked, as ``mat_exp`` does.
    """
    a = _as_square(a)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if b.ndim != 2 or b.shape[0] != n:
        raise DimensionError(f"inconsistent shapes: A {a.shape}, B {b.shape}")
    aug = np.block([[a, b], [np.zeros((b.shape[1], n + b.shape[1]))]])
    e = mat_exp(aug, dt)
    return e[..., :n, :n].copy(), e[..., :n, n:].copy()


def eig_general(a) -> np.ndarray:
    """All eigenvalues of a real square matrix, residual-checked.

    Returns a complex array sorted by (real, imag). Each eigenpair is
    verified to satisfy ||A v - lambda v|| <= tol * ||A||.
    """
    a = _as_square(a)
    w, v = np.linalg.eig(a)
    scale = max(np.linalg.norm(a, 2), 1.0)
    for i in range(len(w)):
        vec = v[:, i]
        resid = np.linalg.norm(a @ vec - w[i] * vec)
        if resid > EIG_RESIDUAL_FACTOR * scale:
            raise np.linalg.LinAlgError(
                f"eigenpair residual {resid:.3e} exceeds tolerance for eigenvalue {w[i]}"
            )
    order = np.lexsort((w.imag, w.real))
    return w[order]


def eig_sym(s) -> np.ndarray:
    """Real eigenvalues of a symmetric matrix, sorted ascending."""
    s = _as_square(s)
    scale = max(np.abs(s).max(), 1.0)
    if np.abs(s - s.T).max() > SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return np.linalg.eigvalsh(0.5 * (s + s.T))


def spectral_norm(b) -> float:
    """Largest singular value, sqrt(lambda_max(B^T B))."""
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError("matrix has non-finite entries")
    if b.size == 0:
        return 0.0
    return float(np.linalg.norm(b, 2))


def solve(a, rhs) -> np.ndarray:
    """Solve A X = rhs for an invertible A, with a residual check."""
    a = _as_square(a)
    rhs = np.asarray(rhs, dtype=float)
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularMatrixError(
            f"matrix is singular or ill-conditioned (condition estimate {cond:.3e})"
        )
    x = np.linalg.solve(a, rhs)
    resid = np.linalg.norm(a @ x - rhs)
    bound = SOLVE_RESIDUAL_FACTOR * (
        np.linalg.norm(a, 2) * np.linalg.norm(x) + np.linalg.norm(rhs)
    )
    if resid > bound:
        raise SingularMatrixError(f"solve residual {resid:.3e} exceeds {bound:.3e}")
    return x
