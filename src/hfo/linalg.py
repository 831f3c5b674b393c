"""Small dense linear algebra used throughout the toolkit.

Matrices are plain numpy arrays (row-major, float64). Everything here is a
pure function; tolerances live in a single NumericSettings record so they can
be tightened or relaxed in one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


class DimensionError(ValueError):
    """Operands have inconsistent shapes."""


class SingularMatrixError(np.linalg.LinAlgError):
    """A matrix required to be invertible is singular or near-singular."""


@dataclass(frozen=True)
class NumericSettings:
    symmetry_tol: float = 1e-12
    eig_residual_factor: float = 1e-8
    solve_residual_factor: float = 1e-10
    condition_limit: float = 1e12
    event_tol: float = 1e-12


DEFAULT_SETTINGS = NumericSettings()


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


def step_lti(a, b, x, u, dt: float) -> np.ndarray:
    """Exact constant-input step of x' = A x + B u over duration dt.

    Uses x(dt) = e^{A dt} x + A^{-1} (e^{A dt} - I) B u, which requires A to
    be invertible (guaranteed when A is Hurwitz).
    """
    a = _as_square(a)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if b.shape[0] != a.shape[0] or x.shape[0] != a.shape[0] or u.shape[0] != b.shape[1]:
        raise DimensionError(
            f"inconsistent shapes: A {a.shape}, B {b.shape}, x {x.shape}, u {u.shape}"
        )
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if dt == 0.0:
        return x.copy()
    e = mat_exp(a, dt)
    forced = solve(a, (e - np.eye(a.shape[0])) @ (b @ u))
    return e @ x + forced


def eig_general(a, settings: NumericSettings = DEFAULT_SETTINGS) -> np.ndarray:
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
        if resid > settings.eig_residual_factor * scale:
            raise np.linalg.LinAlgError(
                f"eigenpair residual {resid:.3e} exceeds tolerance for eigenvalue {w[i]}"
            )
    order = np.lexsort((w.imag, w.real))
    return w[order]


def eig_sym(s, settings: NumericSettings = DEFAULT_SETTINGS) -> np.ndarray:
    """Real eigenvalues of a symmetric matrix, sorted ascending."""
    s = _as_square(s)
    scale = max(np.abs(s).max(), 1.0)
    if np.abs(s - s.T).max() > settings.symmetry_tol * scale:
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


def solve(a, rhs, settings: NumericSettings = DEFAULT_SETTINGS) -> np.ndarray:
    """Solve A X = rhs for an invertible A, with a residual check."""
    a = _as_square(a)
    rhs = np.asarray(rhs, dtype=float)
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > settings.condition_limit:
        raise SingularMatrixError(
            f"matrix is singular or ill-conditioned (condition estimate {cond:.3e})"
        )
    x = np.linalg.solve(a, rhs)
    resid = np.linalg.norm(a @ x - rhs)
    bound = settings.solve_residual_factor * (
        np.linalg.norm(a, 2) * np.linalg.norm(x) + np.linalg.norm(rhs)
    )
    if resid > bound:
        raise SingularMatrixError(f"solve residual {resid:.3e} exceeds {bound:.3e}")
    return x
