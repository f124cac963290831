"""Small dense linear-algebra kernels shared by the recovery solvers.

Vectors may be real or complex; everything is computed in double precision.
"""

import ctypes
import functools
import os

import numpy as np

# numerical rank cutoff, relative to the largest singular value
RANK_RTOL = 1e-10
# smallest accepted ratio of the smallest to the largest diagonal entry of
# gram_least_squares' Cholesky factor; full-rank greedy supports sit above
# 0.08 and numerically rank-deficient ones below 1e-7
GRAM_RTOL = 1e-5

PROC_MAPS = "/proc/self/maps"
# the thread-count (setter, getter) of numpy's, scipy's and a plain OpenBLAS
OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def openblas_libraries():
    """(path, setter, getter) of each loaded OpenBLAS that exports a known pair."""
    try:
        with open(PROC_MAPS, encoding="utf-8", errors="replace") as fh:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:  # RTLD_NOLOAD: a library this process has loaded already, or none
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        pairs = [(lib[s], lib[g]) for s, g in OPENBLAS_THREAD_SYMBOLS if hasattr(lib, s) and hasattr(lib, g)]
        for setter, getter in pairs[:1]:  # void set(int), int get(void)
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            found.append((path, setter, getter))
    return found


# whether the process asked for one BLAS thread; an OpenBLAS that scipy
# brings later is then pinned as it loads (_scipy_linalg)
_one_thread = False


def one_blas_thread():
    """Run every loaded OpenBLAS on one thread; returns the counts it leaves.

    The solvers' products are too small to gain from a second thread.  The
    setter runs only where the count is not 1: forked pool workers inherit
    1, and setting it again there is not free.  Nothing is restored, since
    a restored count starts a spinning thread that slows what comes next.
    An OpenBLAS loaded later, with scipy, is pinned as it is loaded.
    """
    global _one_thread
    _one_thread = True
    counts = []
    for _, setter, getter in openblas_libraries():
        if getter() != 1:
            setter(1)
        counts.append(getter())
    return counts


def matvecs(matrix, v):
    """matrix @ v for each vector on v's last axis: one matrix-vector product
    per vector, so a stack of unit-stride vectors is bit for bit the
    per-vector results."""
    return np.matmul(matrix, np.asarray(v)[..., None])[..., 0]


def soft_threshold(v, t):
    """Complex soft threshold: shrink each magnitude by t, keep the phase.

    Entries with |v_i| <= t map to exactly 0.  For real input this is the
    usual sign(v) * max(|v| - t, 0).  t is a scalar, or for a (k, n) stack
    of rows v a (k, 1) column of per-row thresholds.
    """
    if (np.asarray(t) < 0).any():
        raise ValueError("threshold must be >= 0")
    v = np.asarray(v)
    mags = np.abs(v)
    factor = mags - t
    np.maximum(factor, 0.0, out=factor)
    np.divide(factor, mags, out=factor, where=factor > 0)
    return v * factor


def argmax_k(v, k):
    """Indexes of the k largest-magnitude entries of v, sorted ascending.

    Ties are broken toward the lowest index so the result is deterministic.
    For an (..., n) stack, each vector on the last axis gets its own k
    indexes, exactly those of a call on that vector alone.
    """
    v = np.asarray(v)
    n = v.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    mags = np.abs(v)
    if k == 1:
        # the first maximum is the lowest index; argmax picks a row's first
        # NaN where it has one, which the sort below puts last instead
        top = np.argmax(mags, axis=-1, keepdims=True)
        if not np.isnan(np.take_along_axis(mags, top, axis=-1)).any():
            return top
    # stable sort on -|v|: equal magnitudes keep their original (ascending) order
    order = np.argsort(-mags, axis=-1, kind="stable")
    return np.sort(order[..., :k], axis=-1)


def least_squares(b, y):
    """Solve min_s ||b s - y||_2 for a dense m x k matrix b.

    The minimum-norm solution by SVD (LAPACK gelsd), with singular values
    below RANK_RTOL times the largest treated as zero, so rank-deficient and
    underdetermined systems are solved too.  Non-finite input returns
    all-NaN values instead of raising.
    """
    b = np.asarray(b)
    y = np.asarray(y)
    if b.ndim != 2:
        raise ValueError("matrix must be 2-D")
    if y.shape != (b.shape[0],):
        raise ValueError("right-hand side length does not match the matrix")
    if not (np.isfinite(b).all() and np.isfinite(y).all()):
        # non-finite input gives a non-finite solution for the caller to flag
        return np.full(b.shape[1], np.nan, dtype=np.result_type(b, y, 1.0))
    s, *_ = _scipy_linalg().lstsq(b, y, cond=RANK_RTOL, lapack_driver="gelsd")
    return s


@functools.cache
def _scipy_linalg():
    """scipy.linalg, imported on first use: only the greedy solvers' least
    squares need it, and it loads a second OpenBLAS.  Where the process
    asked for one BLAS thread, that library is pinned at once; it would
    come up on its default count."""
    import scipy.linalg

    if _one_thread:
        one_blas_thread()
    return scipy.linalg


@functools.cache
def _cholesky_routines(dtype):
    """LAPACK's (potrf, potrs) for a dtype, looked up once."""
    return _scipy_linalg().get_lapack_funcs(("potrf", "potrs"), dtype=dtype)


def gram_least_squares(b, gram, y):
    """Solve min_s ||b_j s - y_j||_2 for each row j of a stack through the
    normal equations, gram_j = b_j^H b_j.

    b is (c, m, s), gram (c, s, s) and y (c, m).  Each gram_j is
    Cholesky-factored and gram_j s = b_j^H y_j solved; one correction on the
    true residual, s += gram_j^-1 b_j^H (y_j - b_j s), brings the result to
    the accuracy of an orthogonal solve (corrected semi-normal equations,
    Bjorck 1987).  The products are stacked, one matrix-vector product per
    row, and only the LAPACK calls loop over rows, so a row of a stack gets
    the bytes it gets in a stack of one.
    Returns the (c, s) solutions and a (c,) mask of the rows solved.  A row
    whose gram_j is not numerically positive definite (the factorization
    fails, or its smallest diagonal entry is at most GRAM_RTOL times its
    largest) is left at zero and unmasked; least_squares then solves it.  A
    non-finite y_j gives a non-finite row without raising.
    """
    dtype = np.result_type(b, y)
    potrf, potrs = _cholesky_routines(dtype)
    # a copy of the stack whose matrices are Fortran-ordered, factored in place
    factors = np.array(gram.transpose(0, 2, 1), dtype=dtype, order="C").transpose(0, 2, 1)
    info = np.array([potrf(g, overwrite_a=1)[1] for g in factors])
    diag = factors.diagonal(axis1=1, axis2=2).real
    solved = (info == 0) & (diag.min(axis=1) > GRAM_RTOL * diag.max(axis=1))
    rows = np.flatnonzero(solved)
    bh = b.conj().transpose(0, 2, 1)
    s = matvecs(bh, y)
    for j in rows:
        potrs(factors[j], s[j], overwrite_b=1)
    s[~solved] = 0
    rhs = matvecs(bh, y - matvecs(b, s))
    for j in rows:
        potrs(factors[j], rhs[j], overwrite_b=1)
    rhs[~solved] = 0
    s += rhs
    return s, solved


def residual_delta(r, r_prev):
    """l2 distance between consecutive residuals, the solver stop signal.

    For an (..., m) stack of residual rows, the distance of each row; a row
    of a stack gets, bit for bit, the distance of a call on that row alone.
    """
    r = np.asarray(r)
    r_prev = np.asarray(r_prev)
    if r.shape != r_prev.shape:
        raise ValueError("residual lengths differ")
    return np.linalg.norm(r - r_prev, axis=-1)
