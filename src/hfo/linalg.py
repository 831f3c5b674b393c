"""Small dense linear algebra used throughout the toolkit, on numpy alone.

Matrices are plain numpy arrays (row-major, float64). Everything here is a
pure function; the tolerances are the module constants below.
"""

from __future__ import annotations

import numpy as np


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


def _as_square(a, stacked: bool = False) -> np.ndarray:
    """``a`` as a finite float square matrix, or with ``stacked`` also a
    stack (k, n, n) of them."""
    a = np.asarray(a, dtype=float)
    if a.ndim not in ((2, 3) if stacked else (2,)) or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def _pade_table(b):
    """(weights, ones) for the Pade numerator p_m(x) = sum_k b_k x^k, from
    b = (b_0, ..., b_m). Let U hold the odd and V the even terms of p_m(A).
    ``weights`` applied to (A^2, A^4, ...) gives U / A - b_1 I and
    V - b_0 I, and ``ones`` holds the b_1 and b_0 that go back on their
    diagonals. At m = 13 the weights of (A^2, A^4, A^6) give H_u, H_v, L_u
    and L_v, with U / A = A^6 H_u + L_u + b_1 I and V = A^6 H_v + L_v +
    b_0 I."""
    if len(b) == 14:
        rows = [b[9::2], b[8::2], b[3:9:2], b[2:8:2]]
    else:
        rows = [b[3::2], b[2::2]]
    return np.array(rows), np.array([[b[1]], [b[0]]])


_DEGREES = (3, 5, 7, 9, 13)
_THETA = np.array([1.495585217958292e-2, 2.539398330063230e-1,
                   9.504178996162932e-1, 2.097847961257068e0,
                   5.371920351148152e0])
_PADE = {m: _pade_table(b) for m, b in zip(_DEGREES, [
    (120.0, 60.0, 12.0, 1.0),
    (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0,
     1.0),
    (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
     2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
     1187353796428800.0, 129060195264000.0, 10559470521600.0,
     670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
     16380.0, 182.0, 1.0),
])}


def _pade(a, m: int) -> np.ndarray:
    """The degree-m Pade approximant p_m(-A)^{-1} p_m(A) of e^A for each
    matrix of a stack (k, n, n), as (V - U)^{-1} (V + U) with U the odd
    and V the even terms of p_m(A)."""
    k, n = a.shape[:2]
    coef, ones = _PADE[m]
    q = coef.shape[1]  # even powers A^2 .. A^2q, built in place
    p = np.empty((k, q, n, n))
    np.matmul(a, a, out=p[:, 0])
    for i in range(1, q):
        np.matmul(p[:, i - 1], p[:, 0], out=p[:, i])
    terms = (coef @ p.reshape(k, q, n * n)).reshape(k, len(coef), n, n)
    if m == 13:  # U / A and V as A^6 (high terms) + low terms
        terms = p[:, 2:] @ terms[:, :2] + terms[:, 2:]
    del p
    terms.reshape(k, 2, n * n)[..., ::n + 1] += ones
    u = a @ terms[:, 0]
    return np.linalg.solve(terms[:, 1] - u, terms[:, 1] + u)


def mat_exp(a, t) -> np.ndarray:
    """Matrix exponential e^{A t}.

    A scalar ``t`` gives one (n, n) matrix. A 1-D array of k times gives the
    (k, n, n) stack of e^{A t_i}, all in one batched pass. A stack (k, n, n)
    of matrices A_i gives e^{A_i t} for a scalar t, or e^{A_i t_i} for k
    times, in one pass too. A 1x1 A gives ``np.exp`` of A t.

    Scaling and squaring with a Pade approximant (Higham, "The scaling and
    squaring method for the matrix exponential revisited", SIAM J. Matrix
    Anal. Appl. 26(4), 2005, Algorithm 2.3). The [m/m] approximant of e^X
    is r_m(X) = p_m(-X)^{-1} p_m(X). With theta_m the largest ||X||_1 at
    which its backward error is at most the unit roundoff 2^-53
    (``_THETA``):

        m        3        5        7        9        13
        theta_m  1.50e-2  2.54e-1  9.50e-1  2.10     5.37

    X = A t takes the smallest m with ||X||_1 <= theta_m. Above theta_9,
    m = 13, X is scaled by 2^-s, with s the least nonnegative integer for
    which ||X||_1 / 2^s <= theta_13, and r_13(X / 2^s) is squared s times.
    The scaling by a power of 2 is exact. A t = 0 gives exactly I.

    Each matrix of the stack picks its own m and s from its own norm, and
    every step acts on one matrix at a time: elementwise arithmetic, or one
    BLAS product or LAPACK solve per matrix. So e^{A t_i} is bit for bit
    the scalar call's, whatever else shares the stack. An A t with an inf
    entry gives NaN, and an exponential that overflows gives inf or NaN;
    neither raises.
    """
    a = _as_square(a, stacked=True)
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1 or (a.ndim == 3 and ts.ndim == 1 and len(ts) != len(a)):
        raise DimensionError(f"t must be a scalar or one time per matrix, got "
                             f"{ts.shape} for A {a.shape}")
    if not np.isfinite(ts).all():
        raise ValueError("t must be finite")
    x = a * ts[..., None, None]
    n = a.shape[-1]
    if n <= 1:
        return np.exp(x)
    stack = x.reshape(-1, n, n)
    # ||X||_1 of each matrix
    norm = np.maximum.reduce(np.add.reduce(np.abs(stack), axis=1), axis=1)
    degree = _THETA[:-1].searchsorted(norm)  # m = _DEGREES[degree]
    groups = set(degree.tolist())
    out = np.empty_like(stack)
    for k in groups:
        idx = slice(None) if len(groups) == 1 else np.flatnonzero(degree == k)
        part = stack[idx]
        if _DEGREES[k] < 13:
            out[idx] = _pade(part, _DEGREES[k])
            continue
        # s = ceil(log2(norm / theta_13)), exact from the binary exponent;
        # an inf norm gives s = 0 and a NaN approximant
        mant, s = np.frexp(norm[idx] / _THETA[-1])
        s = np.maximum(s - (mant == 0.5), 0)
        r = _pade(np.ldexp(part, -s[:, None, None]), 13)
        for i in range(s.max()):
            live = s > i
            r[live] = r[live] @ r[live]
        out[idx] = r
    return out.reshape(x.shape)


def propagator(a, b, dt):
    """Exact held-input step of x' = A x + B u over duration dt.

    Returns (e^{A dt}, int_0^dt e^{A s} ds B), so that
    x(dt) = e^{A dt} x(0) + (int_0^dt e^{A s} ds B) u. Both blocks come from
    one exponential of [[A, B], [0, 0]] dt (Van Loan, "Computing integrals
    involving the matrix exponential", IEEE TAC 1978), which holds for any A,
    singular ones included. A 1-D array of durations gives both blocks
    stacked, each bit for bit the scalar call's, as ``mat_exp`` does. So
    does a stack of plants, A (k, n, n) and B (k, n, m) with one duration
    each (each plant with its own c below): the blocks of each are those of
    its own call.

    The exponential is taken of [[A, B / c], [0, 0]] dt, and its forced
    block times c. That matrix is the block's similarity transform by
    diag(I, c I), so the blocks are the same. c is the least power of 2
    with ||B / c||_1 < ||A||_1 when ||B||_1 is the larger, else 1, so both
    scalings are exact, and a large B adds no squaring to ``mat_exp``.
    Each squaring can double the rounding error of e^{A dt}: on S1 with
    B = 1e6 and C = 1e-6, the 11 that B would add to a 0.01 s step give
    e^{A dt} a relative error of 2.6e-13, and ``verify`` fails its 1e-8
    reconstruction check.
    """
    a = _as_square(a, stacked=True)
    b = np.asarray(b, dtype=float)
    n = a.shape[-1]
    if b.ndim != a.ndim or b.shape[:-1] != a.shape[:-1]:
        raise DimensionError(f"inconsistent shapes: A {a.shape}, B {b.shape}")
    norm_a = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    norm_b = np.abs(b).sum(axis=-2).max(axis=-1, initial=0.0)
    c = np.ones(norm_a.shape + (1, 1))
    scale = (norm_b > norm_a) & (norm_a > 0.0)
    if scale.any():
        c[scale, 0, 0] = np.ldexp(1.0, np.frexp(norm_b[scale]
                                                / norm_a[scale])[1])
    aug = np.zeros(a.shape[:-2] + (n + b.shape[-1],) * 2)
    aug[..., :n, :n] = a
    np.divide(b, c, out=aug[..., :n, n:])
    e = mat_exp(aug, dt)
    return e[..., :n, :n].copy(), e[..., :n, n:] * c


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


# Frobenius norms between which log_norm_bound multiplies E and G as they
# are: the product, and the squares of its largest entries, stay far inside
# the float range; a stack with a norm outside is scaled to norm 1 first
_PRODUCT_SAFE = (2.0 ** -200, 2.0 ** 200)


def log_norm_bound(e, levels: int, cutoff) -> np.ndarray:
    """Upper bound on log ||E||_2 for each matrix E of a stack (k, n, n).

    Level 0 is log ||E||_F, level 1 log ||G||_F / 2 with G = E'E, and each
    further level squares G: level k is log ||G^(2^(k-1))||_F / 2^k, which
    exceeds log ||E||_2 by at most log(n) / 2^(k+1). The bound is taken to
    level ``levels``, except that a matrix whose bound at level 1 or above
    already lies below its ``cutoff`` (one value per matrix; -inf takes the
    full bound) keeps that looser bound. E and G are multiplied as they
    are; only where a norm leaves ``_PRODUCT_SAFE`` is the factor scaled to
    norm 1 first, its log scale carried, so no power of G overflows. An
    E = 0 gives -inf; a non-finite E, or one whose squared entries overflow,
    gives inf or NaN, with no warning. Rounding can make the bound fall
    short by about n^2 eps relative, and by more only where ||E||^2
    underflows.
    """
    def frobenius(g):
        return row_norms(g.reshape(len(g), g.shape[-1] ** 2))[:, 0]

    def scaled(g, s):  # g / s where a norm is out of range; the log scale
        if ((s > _PRODUCT_SAFE[0]) & (s < _PRODUCT_SAFE[1])).all():
            return g, np.zeros(len(g))
        return g / np.where(s > 0.0, s, 1.0)[:, None, None], np.log(s)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = frobenius(e)
        bound = np.log(s)
        if levels:  # G = e^lam E'F for a (scaled) copy F of E: distinct
            # operands take a general BLAS product, where E'E would take a
            # slower symmetric one
            f, lam = scaled(e, s)
            g = np.swapaxes(e, -1, -2) @ (e.copy() if f is e else f)
            s = frobenius(g)
            bound = (lam + np.log(s)) / 2.0
        live = np.arange(len(e))
        for k in range(2, levels + 1):  # after level k, G^(2^(k-1)) = e^lam g
            keep = ~(bound[live] < cutoff[live])
            if not keep.all():
                live, g, s, lam = live[keep], g[keep], s[keep], lam[keep]
                if not live.size:
                    break
            g, shift = scaled(g, s)
            g = g @ g
            lam = 2.0 * (lam + shift)
            s = frobenius(g)
            bound[live] = (lam + np.log(s)) / 2.0 ** k
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
