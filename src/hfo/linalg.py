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
EIGENBASIS_COND_LIMIT = 1e4
"""Largest cond(V) at which an eigenbasis A = V diag(lambda) V^{-1} is used
to evaluate e^{At} x as V (e^{lambda t} * (V^{-1} x)).

That form's rounding error is about cond(V) * eps relative to ||x||
(Moler & Van Loan, "Nineteen dubious ways to compute the exponential of a
matrix, twenty-five years later", SIAM Review 2003, on eigenvector methods).
The trajectory reconstruction check allows an absolute deviation of 1e-8.
At cond(V) = 1e4 and eps = 2.2e-16 the error is about 2.2e-12 per unit of
||x||, so a state of norm 100 stays 45 times under 1e-8, which leaves room
for the dimension factor and for re-anchoring at each input period. A
defective A has no eigenbasis; the V that LAPACK returns for it is
numerically singular (cond(V) = 9e15 for [[-1, 1], [0, -1]]), so such a
plant takes the exponential instead.
"""


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
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise DimensionError(f"t must be a scalar or a 1-D array, got {ts.shape}")
    if not np.all(np.isfinite(ts)):
        raise ValueError("t must be finite")
    return scipy.linalg.expm(a * ts[..., None, None])


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


def eigenbasis(a):
    """Eigen-decomposition A = V diag(lambda) V^{-1} of a real square matrix.

    Returns (eigenvalues, V, cond(V)): the eigenvalues in LAPACK's order
    (complex unless all are real), the unit-norm eigenvectors as V's columns
    in the same order, and the 2-norm condition number of V, which is huge
    or infinite when A is defective or close to it. Every eigenpair is
    verified to satisfy ||A v - lambda v|| <= tol * max(||A||, 1).
    """
    a = _as_square(a)
    w, v = np.linalg.eig(a)
    resid = np.linalg.norm(a @ v - v * w, axis=0)
    bad = np.flatnonzero(resid > EIG_RESIDUAL_FACTOR
                         * max(np.linalg.norm(a, 2), 1.0))
    if bad.size:
        raise np.linalg.LinAlgError(
            f"eigenpair residual {resid[bad[0]]:.3e} exceeds tolerance for "
            f"eigenvalue {w[bad[0]]}")
    return w, v, float(np.linalg.cond(v))


def eig_sym(s) -> np.ndarray:
    """Real eigenvalues of a symmetric matrix, sorted ascending."""
    s = _as_square(s)
    scale = max(np.abs(s).max(), 1.0)
    if np.abs(s - s.T).max() > SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return np.linalg.eigvalsh(0.5 * (s + s.T))


def row_norms(v) -> np.ndarray:
    """Each row's norm, shaped (..., 1), with ``np.linalg.norm``'s bits."""
    return np.sqrt(v[..., None, :] @ v[..., None])[..., 0]


def log_norm_bound(e, levels: int, cutoff) -> np.ndarray:
    """Upper bound on log ||E||_2 for each matrix E of a stack (k, n, n).

    Level 0 is log ||E||_F, level 1 log ||G||_F / 2 with G = E'E, and each
    further level squares G: level k is log ||G^(2^(k-1))||_F / 2^k, which
    exceeds log ||E||_2 by at most log(n) / 2^(k+1). The bound is taken to
    level ``levels``, except that a matrix whose bound at level 1 or above
    already lies below its ``cutoff`` (one value per matrix) keeps that
    looser bound. E and G are normalized before each product and the log
    norms are summed, so no power of G overflows. An E = 0 gives -inf; a
    non-finite E, or one whose squared entries overflow, gives inf or NaN,
    with no warning. Rounding can make the bound fall short by about n^2 eps
    relative, and by more only where ||E||^2 underflows.
    """
    def frobenius(g):
        return row_norms(g.reshape(len(g), g.shape[-1] ** 2))[:, 0]

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = frobenius(e)
        bound = np.log(s)
        if levels:  # G as E'(E / ||E||_F): distinct operands take a general
            # BLAS product, where E'E would take a slower symmetric one
            g = np.swapaxes(e, -1, -2) @ (
                e / np.where(s > 0.0, s, 1.0)[:, None, None])
            s = frobenius(g)
            bound = (bound + np.log(s)) / 2.0
        live = np.arange(len(e))
        for k in range(2, levels + 1):
            keep = ~(bound[live] < cutoff[live])
            live, g, s = live[keep], g[keep], s[keep]
            if not live.size:
                break
            g /= np.where(s > 0.0, s, 1.0)[:, None, None]
            g = g @ g
            s = frobenius(g)
            bound[live] += np.log(s) / 2.0 ** k
    return bound


def spectral_norm(b) -> float:
    """Largest singular value, sqrt(lambda_max(B^T B))."""
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError("matrix has non-finite entries")
    if b.size == 0:
        return 0.0
    return float(np.linalg.norm(b, 2))


def solve(a, rhs) -> np.ndarray:
    """Solve A X = rhs for an invertible A, with a residual check.

    ``rhs`` is one vector (n,) or one right-hand side per column (n, k); a
    matrix shares one condition estimate and one factorization, and each
    column must pass the residual check on its own.
    """
    a = _as_square(a)
    rhs = np.asarray(rhs, dtype=float)
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularMatrixError(
            f"matrix is singular or ill-conditioned (condition estimate {cond:.3e})"
        )
    x = np.linalg.solve(a, rhs)
    resid = np.linalg.norm(a @ x - rhs, axis=0)
    bound = SOLVE_RESIDUAL_FACTOR * (
        np.linalg.norm(a, 2) * np.linalg.norm(x, axis=0)
        + np.linalg.norm(rhs, axis=0)
    )
    if np.any(resid > bound):
        worst = np.argmax(resid - bound)
        raise SingularMatrixError(
            f"solve residual {np.ravel(resid)[worst]:.3e} exceeds "
            f"{np.ravel(bound)[worst]:.3e}")
    return x
