"""Small dense linear-algebra kernels shared by the recovery solvers.

Vectors may be real or complex; everything is computed in double precision.
"""

import ctypes
import functools
import itertools

import numpy as np
from numpy.linalg import _umath_linalg

# numerical rank cutoff, relative to the largest singular value
RANK_RTOL = 1e-10
# smallest accepted ratio of the smallest to the largest diagonal entry of
# gram_least_squares' Cholesky factor; full-rank greedy supports sit above
# 0.08 and numerically rank-deficient ones below 1e-7
GRAM_RTOL = 1e-5

# the decorations a numpy build gives the BLAS/LAPACK names it exports, each
# a prefix, a suffix and the LAPACK integer type: numpy 2 wheels
# (scipy-openblas64: scipy_zposv_64_, scipy_openblas_set_num_threads64_),
# numpy 1.22-1.26 wheels (openblas64_), then 32-bit-integer builds
# (scipy-openblas32, a plain OpenBLAS or LAPACK)
SYMBOL_DECORATIONS = (
    ("scipy_", "64_", np.int64),
    ("", "64_", np.int64),
    ("scipy_", "", np.int32),
    ("", "", np.int32),
)
# ?posv and ?potrs take uplo, n, nrhs, a, lda, b, ldb and info by reference,
# then uplo's hidden Fortran length, which a gfortran-built routine may use
# as it hands uplo on.  Every argument is a ctypes object, passed as it is:
# declared argument types cost about 0.3 us more per call in conversions.
# The calls hold the GIL, as each is short.
_LAPACK_SOLVE = ctypes.PYFUNCTYPE(None)
_UPLO_LENGTH = ctypes.c_size_t(1)
# the (posv, potrs) of each dtype character
CHOLESKY_ROUTINES = {char: ((prefix + "posv_", _LAPACK_SOLVE), (prefix + "potrs_", _LAPACK_SOLVE))
                     for char, prefix in zip("fdFD", "sdcz")}
# OpenBLAS's thread count: void set(int), int get(void)
OPENBLAS_THREADS = (("openblas_set_num_threads", ctypes.PYFUNCTYPE(None, ctypes.c_int)),
                    ("openblas_get_num_threads", ctypes.PYFUNCTYPE(ctypes.c_int)))


@functools.cache
def numpy_functions(functions):
    """The (name, ctypes prototype) functions of the BLAS/LAPACK that
    numpy.linalg links, then their integer type.  Looked up once, through
    numpy's own library handle, under the first of SYMBOL_DECORATIONS that
    exports every name; where none does, raises RuntimeError naming each
    symbol tried, and a failed lookup is not cached."""
    lib = ctypes.CDLL(_umath_linalg.__file__)
    for prefix, suffix, integer in SYMBOL_DECORATIONS:
        symbols = [prefix + name + suffix for name, _ in functions]
        if all(hasattr(lib, symbol) for symbol in symbols):
            return *(prototype(ctypes.cast(lib[symbol], ctypes.c_void_p).value)
                     for symbol, (_, prototype) in zip(symbols, functions)), integer
    tried = ", ".join("/".join(prefix + name + suffix for name, _ in functions)
                      for prefix, suffix, _ in SYMBOL_DECORATIONS)
    raise RuntimeError(f"numpy {np.__version__}'s BLAS/LAPACK exports none of {tried}")


def openblas_threads():
    """numpy's OpenBLAS thread-count (setter, getter), a list of one pair, or
    of none where numpy's library exports no known pair."""
    try:
        return [numpy_functions(OPENBLAS_THREADS)[:2]]
    except RuntimeError:
        return []


def one_blas_thread():
    """Run numpy's OpenBLAS on one thread; returns the counts it leaves.

    The solvers' products are too small to gain from a second thread.  The
    setter runs only where the count is not 1: forked pool workers inherit
    1, and setting it again there is not free.  Nothing is restored, since
    a restored count starts a spinning thread that slows what comes next.
    """
    counts = []
    for setter, getter in openblas_threads():
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
    return np.linalg.lstsq(b, y, rcond=RANK_RTOL)[0]


def _cholesky_routines(dtype):
    """numpy's LAPACK (posv, potrs) for a dtype, with their integer type."""
    routines = CHOLESKY_ROUTINES.get(np.dtype(dtype).char)
    if routines is None:
        raise TypeError(f"no LAPACK routines for dtype {np.dtype(dtype)}")
    return numpy_functions(routines)


def _solve_rows(routine, ints, factors, rhs, rows):
    """routine(uplo "U", n, nrhs, factors[j].T, n, rhs[j], n, info_j) for
    each row j in rows, in place.  ints holds n, nrhs and each row's info_j;
    factors, C-ordered, holds the transposes of the n x n matrices, which
    LAPACK reads in Fortran order.  ctypes raises TypeError unless each
    array is C-contiguous and writable, and holds each while it is used."""
    if not rows:
        return
    a_buf, b_buf, i_buf = map(ctypes.c_char.from_buffer, (factors, rhs, ints))
    da, db, di = factors.strides[0], rhs.strides[0], ints.itemsize
    n, nrhs = ctypes.byref(i_buf), ctypes.byref(i_buf, di)
    for j in rows:
        routine(b"U", n, nrhs, ctypes.byref(a_buf, j * da), n, ctypes.byref(b_buf, j * db), n,
                ctypes.byref(i_buf, (j + 2) * di), _UPLO_LENGTH)


def gram_least_squares(b, gram, y):
    """Solve min_s ||b_j s - y_j||_2 for each row j of a stack through the
    normal equations, gram_j = b_j^H b_j.

    b is (c, m, s), gram (c, s, s) and y (c, m).  One LAPACK posv per row
    Cholesky-factors gram_j and solves gram_j s = b_j^H y_j; one potrs
    applies a correction on the true residual, s += gram_j^-1 b_j^H
    (y_j - b_j s), which brings the result to the accuracy of an orthogonal
    solve (corrected semi-normal equations, Bjorck 1987).  The products are
    stacked, one matrix-vector product per row, and only the LAPACK calls
    loop over rows, so a row of a stack gets the bytes it gets in a stack
    of one.
    Returns the (c, s) solutions and a (c,) mask of the rows solved.  A row
    whose gram_j is not numerically positive definite (the factorization
    fails, or its smallest diagonal entry is at most GRAM_RTOL times its
    largest) is left at zero and unmasked; least_squares then solves it.  A
    non-finite y_j gives a non-finite row without raising.
    """
    dtype = np.result_type(b, y)
    posv, potrs, integer = _cholesky_routines(dtype)
    # a C-ordered copy of the transposes, factored in place in Fortran order
    factors = np.array(gram.transpose(0, 2, 1), dtype=dtype, order="C")
    ints = np.zeros(len(factors) + 2, dtype=integer)  # n, nrhs, then each row's info
    ints[0], ints[1] = factors.shape[-1], 1
    bh = b.conj().transpose(0, 2, 1)
    s = matvecs(bh, y)
    _solve_rows(posv, ints, factors, s, range(len(s)))
    diag = factors.diagonal(axis1=1, axis2=2).real
    solved = (ints[2:] == 0) & (diag.min(axis=1) > GRAM_RTOL * diag.max(axis=1))
    s[~solved] = 0
    rhs = matvecs(bh, y - matvecs(b, s))
    _solve_rows(potrs, ints, factors, rhs, list(itertools.compress(range(len(s)), solved.tolist())))
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
