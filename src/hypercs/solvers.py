"""Per-pixel sparse recovery solvers.

All five solvers share the same contract: given measurements y (length m),
a Dictionary whose matrix A maps sparse-domain vectors to measurements, and
a SolverConfig, return a SolverResult whose x estimates the sparse-domain
vector from y ~ A x.  Iterations run until the l2 distance between
consecutive residuals y - A x drops below epsilon, a wall-clock budget runs
out, or an iteration cap is hit; the distance starts at 1 so every solver
performs at least one iteration (except for y = 0, which short-circuits to
the zero vector).

One loop, _solve_block, iterates every solver on a block of pixel rows
sharing A; recover_cube is its one way in, a single pixel being a 1x1
cube.  Each solver supplies the step.  fista and admm minimize the lasso
objective
    H(x) = 0.5 * ||A x - y||^2 + lam * ||x||_1
with block products, each row with its own momentum restart (fista) or
penalty (admm); gomp, biht and cosamp greedily build a support of at
most kappa atoms per row with block-wide projections, top-k picks, prunes
and residuals, and least-squares refits stacked over rows of one support
size, only their LAPACK calls row by row, so each pixel's iterates are the
ones it gets alone.  Solvers draw no randomness, so
results are reproducible bit for bit when the time budget is disabled.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .kernels import (argmax_k, gram_least_squares, least_squares, matvecs, one_blas_thread, residual_delta,
                      soft_threshold)


class NumericalFailure(RuntimeError):
    """A solver produced non-finite values; iteration stores where."""

    def __init__(self, iteration):
        super().__init__(f"non-finite values at iteration {iteration}")
        self.iteration = iteration


@dataclass
class SolverConfig:
    """Shared solver parameters.

    lam            l1 weight of the lasso objective (fista, admm)
    kappa          target sparsity of the greedy solvers
    atoms_per_iter support indexes gomp adds per iteration; defaults to
                   max(1, kappa // 5)
    mu             gradient step factor of biht; scales how many atoms the
                   step admits beyond the strongest residual projection,
                   which is always a candidate
    alpha          starting penalty of admm; each pixel's is then
                   balanced by its residuals
    epsilon        residual-delta convergence threshold
    time_limit     per-pixel time budget in seconds, None disables it; it
                   bounds the pixel's time charge, an equal share of its
                   block's wall time
    max_iter       iteration cap, None means unlimited
    """

    lam: float = 0.1
    kappa: int = 1
    atoms_per_iter: int | None = None
    mu: float = 0.1
    alpha: float = 1.8
    epsilon: float = 1e-8
    time_limit: float | None = 2.0
    max_iter: int | None = None

    def __post_init__(self):
        if not self.lam >= 0:  # negated comparisons reject NaN
            raise ValueError("lam must be >= 0")
        if self.kappa < 1:
            raise ValueError("kappa must be >= 1")
        if self.atoms_per_iter is None:
            self.atoms_per_iter = max(1, self.kappa // 5)
        if not 1 <= self.atoms_per_iter <= self.kappa:
            raise ValueError("atoms_per_iter must be in [1, kappa]")
        if not self.mu > 0:
            raise ValueError("mu must be > 0")
        if not self.alpha > 0:
            raise ValueError("alpha must be > 0")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError("time_limit must be > 0 or None")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError("max_iter must be >= 1 or None")


@dataclass
class SolverResult:
    x: np.ndarray
    iterations: int
    converged: bool
    elapsed: float  # time charge, the wall time of a single-pixel solve
    final_delta: float


def stop_check(delta, charge, iterations, config):
    """Stop rule shared by every solver, applied pixel by pixel before
    each iteration of a block.

    delta and charge are the pixels' residual deltas and time charges (one
    charge may stand for every pixel), iterations the count every pixel of
    the block has completed.  Returns the boolean arrays (converged,
    stopped): a pixel stops when it converged (delta < epsilon, strictly),
    else when its charge reached the time budget, else at the iteration cap;
    only the first counts as converged.
    """
    converged = delta < config.epsilon
    stopped = converged.copy()
    if config.time_limit is not None:
        stopped |= charge >= config.time_limit
    if config.max_iter is not None and iterations >= config.max_iter:
        stopped[:] = True
    return converged, stopped


def lasso_objective(x, y, dictionary, lam):
    """H(x) = 0.5 ||A x - y||^2 + lam * sum |x_i| (complex-safe)."""
    matrix = dictionary.matrix if hasattr(dictionary, "matrix") else np.asarray(dictionary)
    r = matrix @ x - y
    return 0.5 * float(np.real(np.vdot(r, r))) + lam * float(np.abs(x).sum())


# ADMM's residual balancing (see _AdmmBlock): the factor a penalty moves by,
# and the ratio of its residuals that moves it
ADMM_TAU = 2.0
ADMM_MU = 10.0


def _real_row_dots(u, v):
    """Re<u_j, v_j> of each row pair of two complex (k, n) blocks, as a (k, 1)
    column: the dot product of the rows' float64 views."""
    return np.einsum("ij,ij->i", u.view(np.float64), v.view(np.float64))[:, None]


class _FistaBlock:
    """FISTA (Beck & Teboulle 2009) on a (k, n) block of pixel rows, which
    take A as x @ A^T and A^H as r @ conj(A), with the gradient restart of
    O'Donoghue & Candes (2015, "Adaptive restart for accelerated gradient
    schemes").

    Each row has its own momentum weight t, a (k, 1) column.  A row restarts
    when its step x_new - x points against its gradient step x_new - z,
    Re<z - x_new, x_new - x> > 0: its t is set to 1 before the momentum
    update, so its extrapolation weight is 0 and z = x_new.  A row thus
    computes in a block what it computes alone, to round-off.
    """

    def __init__(self, y, dictionary, config):
        self.at = dictionary.matrix.T
        self.ac = dictionary.matrix.conj()
        self.inv_l = 1.0 / dictionary.lipschitz
        self.threshold = config.lam * self.inv_l
        self.x = np.zeros((len(y), dictionary.n), dtype=np.complex128)
        self.z = self.x
        self.t = np.ones((len(y), 1))

    def step(self, y, residual):
        """One iteration; returns the residual of the new iterate and the
        rows that halted (none)."""
        # 1. gradient step on the quadratic term at the extrapolated point
        aux = self.z - self.inv_l * ((self.z @ self.at - y) @ self.ac)
        # 2. proximal shrinkage
        x_new = soft_threshold(aux, self.threshold)
        # 3. gradient restart, then the momentum weight update
        step = x_new - self.x
        restart = _real_row_dots(self.z - x_new, step) > 0
        t = np.where(restart, 1.0, self.t)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        # 4. extrapolation
        self.z = x_new + ((t - 1.0) / t_new) * step
        self.x, self.t = x_new, t_new
        return y - self.x @ self.at, np.zeros(len(y), dtype=bool)

    @property
    def solution(self):
        return self.x

    def keep(self, rows):
        self.x, self.z, self.t = self.x[rows], self.z[rows], self.t[rows]


class _AdmmBlock:
    """Scaled-dual ADMM on a (k, n) block of pixel rows, each row with its
    own penalty alpha_j, starting at config.alpha; the penalties are a
    (k, 1) column.

    The x-update solves (A^H A + alpha_j I) x = A^H y + alpha_j (z - w) by
    Woodbury on the dictionary's eigendecomposition of A A^H, which serves
    every penalty; rows take the factor's products from the right, as
    _FistaBlock takes A.  Each iteration then balances each row's penalty
    by its own residuals (Boyd et al. 2011, section 3.4.1): alpha_j is
    multiplied by ADMM_TAU when the primal residual ||x - z|| exceeds
    ADMM_MU times the dual residual alpha_j ||z - z_prev||, divided by
    ADMM_TAU in the converse case, and w_j rescaled by alpha_old / alpha_new.
    A row thus computes in a block what it computes alone, to round-off.
    """

    def __init__(self, y, dictionary, config):
        self.eigenvalues, q, qa = dictionary.admm_factor()
        self.qt, self.qat, self.qac = q.T, qa.T, qa.conj()
        self.b = y @ dictionary.matrix.conj()
        self.lam = config.lam
        self.z = np.zeros((len(y), dictionary.n), dtype=np.complex128)
        self.w = np.zeros_like(self.z)
        self.penalize(np.full((len(y), 1), config.alpha))

    def penalize(self, alpha):
        """Set the rows' penalties and the factors the iteration takes from them."""
        self.alpha, self.inv_alpha = alpha, 1.0 / alpha
        self.damping = 1.0 / (self.eigenvalues + alpha)

    def step(self, y, residual):
        """One iteration; returns the residual of the x iterate, which feeds
        the stop rule, and the rows that halted (none).  The solution is
        the sparse iterate z."""
        # 1. quadratic solve by Woodbury, in place on u = A^H y + alpha (z - w);
        #    v = Q^H A x
        x = self.z - self.w
        x *= self.alpha
        x += self.b
        v = x @ self.qat
        v *= self.damping
        x -= v @ self.qac
        x *= self.inv_alpha
        # 2. shrinkage step, the prox of the l1 term under the scaled dual
        w = x + self.w
        z = soft_threshold(w, self.lam * self.inv_alpha)
        # 3. dual update, w + x - z
        w -= z
        # 4. residual balancing on the squared residuals
        r, s = x - z, z - self.z
        primal = _real_row_dots(r, r)
        dual = self.alpha**2 * _real_row_dots(s, s)
        self.z, self.w = z, w
        up, down = primal > ADMM_MU**2 * dual, dual > ADMM_MU**2 * primal
        if up.any() or down.any():
            scale = np.where(up, ADMM_TAU, np.where(down, 1.0 / ADMM_TAU, 1.0))
            self.w *= 1.0 / scale  # exact: the scale is a power of two
            self.penalize(self.alpha * scale)
        return y - v @ self.qt, np.zeros(len(y), dtype=bool)

    @property
    def solution(self):
        return self.z

    def keep(self, rows):
        self.b, self.z, self.w = self.b[rows], self.z[rows], self.w[rows]
        self.penalize(self.alpha[rows])


def _mark(mask, indexes):
    """Set each row of a (k, n) boolean mask at that row's indexes."""
    np.put_along_axis(mask, indexes, True, axis=-1)
    return mask


def _prune(x, candidates, kappa):
    """Mask of the kappa largest-magnitude candidate entries of each row of
    x, all of them where a row has at most kappa candidates.  One stable
    sort per row, on -|x| inside the candidates and +inf outside, breaks
    ties toward the lowest index as argmax_k does."""
    order = np.argsort(np.where(candidates, -np.abs(x), np.inf), axis=-1, kind="stable")
    return _mark(np.zeros_like(candidates), order[:, :kappa]) & candidates


class _GreedyBlock:
    """Greedy pursuit on a (k, n) block of pixel rows.

    Each row's support is a row of a (k, n) boolean mask.  An iteration
    takes the residual projections, the candidate picks and prunes (a
    stable sort per row) and the residuals of all rows at once, and refits
    rows of one support size together, in stacks of at most REFIT_ENTRIES
    atom entries, with a Cholesky factor and solves per row.  A stacked
    product is one matrix-vector product per row, so a row computes in a
    block exactly what it computes alone.  A row whose candidate support
    outgrows the m measurements halts and keeps its last iterate.
    Subclasses pick the candidates and may override the fit.
    """

    def __init__(self, y, dictionary, config):
        self.check(config, dictionary.m, dictionary.n)
        self.a = dictionary.matrix
        self.ah = self.a.conj().T
        self.at = np.ascontiguousarray(self.a.T)
        self.gram = dictionary.gram
        self.config = config
        self.x = np.zeros((len(y), dictionary.n), dtype=np.complex128)
        self.support = np.zeros(self.x.shape, dtype=bool)

    @staticmethod
    def check(config, m, n):
        if config.kappa > m:
            raise ValueError(f"kappa must be <= {m}")

    def step(self, y, residual):
        """One iteration on every row; returns the new residuals and the
        rows that halted, whose iterate and residual stay as they were."""
        candidates = self.candidates(matvecs(self.ah, residual))
        fits = np.count_nonzero(candidates, axis=1) <= self.a.shape[0]
        y = y[fits]
        self.x[fits], self.support[fits] = self.fit(candidates[fits], y)
        residual = residual.copy()
        residual[fits] = y - matvecs(self.a, self.x[fits])
        return residual, ~fits

    def solve(self, supports, y):
        """Least squares of each row of a (c, m) y on the atoms of its row of
        a (c, s) supports index array, through their blocks of the shared
        Gram matrix: the (c, s) solutions.  A row's atoms are gathered from
        A^T, so each (m, s) block has the strides of A's columns alone; a
        row whose Gram block is numerically singular gets the minimum-norm
        SVD solve."""
        b = self.at[supports].transpose(0, 2, 1)
        s, solved = gram_least_squares(b, self.gram[supports[:, :, None], supports[:, None, :]], y)
        for j in np.flatnonzero(~solved):
            s[j] = least_squares(b[j], y[j])
        return s

    def refit(self, supports, y):
        """solve for each row of y on the atoms of its row of a (k, n)
        supports mask: the (k, n) least-squares iterates, zero off the
        supports.  Rows are solved in groups of one support size, at most
        REFIT_ENTRIES stacked atom entries at a time."""
        x = np.zeros(supports.shape, dtype=np.complex128)
        sizes = np.count_nonzero(supports, axis=1)
        for size in np.unique(sizes):
            group = np.flatnonzero(sizes == size)
            chunk = max(1, REFIT_ENTRIES // (size * y.shape[1]))
            for rows in np.split(group, range(chunk, group.size, chunk)):
                atoms = np.nonzero(supports[rows])[1].reshape(rows.size, size)
                x[rows[:, None], atoms] = self.solve(atoms, y[rows])
        return x

    def fit(self, candidates, y):
        """Least squares on the candidates, pruned to the kappa strongest
        entries: (iterates, kept supports)."""
        x = self.refit(candidates, y)
        kept = _prune(x, candidates, self.config.kappa)
        return np.where(kept, x, 0), kept

    @property
    def solution(self):
        return self.x

    def keep(self, rows):
        self.x, self.support = self.x[rows], self.support[rows]


class _GompBlock(_GreedyBlock):
    """Generalized orthogonal matching pursuit with a kappa-prune re-solve.

    Grows the accumulated support by the atoms_per_iter strongest residual
    projections each iteration, then re-fits on the kappa strongest entries
    of the scattered least-squares solution.
    """

    def candidates(self, p):
        # 1. strongest residual projections extend the accumulated support
        return _mark(self.support.copy(), argmax_k(p, self.config.atoms_per_iter))

    def fit(self, candidates, y):
        # 2. least squares on the accumulated atoms
        x = self.refit(candidates, y)
        # 3. prune to the kappa strongest entries and re-fit on those; a
        #    row whose prune kept its support has its re-fit already
        top = _mark(np.zeros_like(candidates), argmax_k(x, self.config.kappa))
        redo = (top != candidates).any(axis=1)
        x[redo] = self.refit(top[redo], y[redo])
        return x, candidates


class _BihtBlock(_GreedyBlock):
    """Iterative hard thresholding with a least-squares backtracking prune.

    Each iteration takes the candidate set as the kappa largest entries of
    the gradient step x + mu * A^H r, joined with the current support and
    the strongest residual projection argmax |A^H r|.  That last atom keeps
    the support moving whenever the residual is nonzero, whatever mu is;
    mu scales how many more atoms the gradient step admits.  Least squares
    on the candidates is pruned back to the kappa strongest entries.
    """

    def candidates(self, g):
        # 1. top entries of the gradient step + current support + the
        #    strongest residual projection
        u = self.x + self.config.mu * g
        return _mark(_mark(self.x != 0, argmax_k(u, self.config.kappa)), argmax_k(g, 1))


class _CosampBlock(_GreedyBlock):
    """Compressive sampling matching pursuit (Needell & Tropp 2009).

    The candidate set joins the 2*kappa strongest residual projections with
    the support kept after the previous prune.
    """

    @staticmethod
    def check(config, m, n):
        if 2 * config.kappa > n:
            raise ValueError(f"need 2 * kappa <= {n}")
        _GreedyBlock.check(config, m, n)

    def candidates(self, p):
        return _mark(self.support.copy(), argmax_k(p, 2 * self.config.kappa))


@dataclass
class RecoveryStats:
    """Per-pixel record of a solve, one array entry per pixel, and the
    aggregates derived from it.

    iterations, converged, elapsed (the time charge), final_delta and
    failed_at, the iteration at which the pixel's iterate or delta turned
    non-finite, else 0.  A failed pixel records only failed_at and its
    charge; recovery_time_s sums the charges of the other pixels, the wall
    time of the solves when jobs == 1, a sum across workers when jobs > 1.
    """

    iterations: np.ndarray
    converged: np.ndarray
    elapsed: np.ndarray
    final_delta: np.ndarray
    failed_at: np.ndarray

    @classmethod
    def zeros(cls, k):
        return cls(np.zeros(k, dtype=np.int64), np.zeros(k, dtype=bool), np.zeros(k),
                   np.zeros(k), np.zeros(k, dtype=np.int64))

    def put(self, first, tile):
        """Copy the record of a tile of consecutive pixels in at index first."""
        for name, values in vars(tile).items():
            getattr(self, name)[first : first + values.size] = values

    @property
    def n_pixels(self):
        return int(self.failed_at.size)

    @property
    def n_failed(self):
        return int(np.count_nonzero(self.failed_at))

    @property
    def n_converged(self):
        return int(np.count_nonzero(self.converged))

    @property
    def n_zero_pixels(self):
        return int(np.count_nonzero((self.iterations == 0) & self.converged))

    @property
    def total_iterations(self):
        return int(self.iterations.sum())

    @property
    def recovery_time_s(self):
        return float(self.elapsed[self.failed_at == 0].sum())

    @property
    def convergence_pct(self):
        return 100.0 * self.n_converged / self.n_pixels if self.n_pixels else 0.0


def _solve_block(ys, dictionary, config, block_type):
    """Solve the pixel rows of a (k, m) measurement block together.

    Returns the (k, n) solutions and the block's RecoveryStats; a row whose
    iterate or delta turned non-finite is recorded as failed, its solution
    left at zero.  Before each iteration stop_check's rule stops a row when
    its delta drops below epsilon, else when its time charge reaches the
    budget, else at the iteration cap; a greedy row whose support outgrew
    the measurements stops unconverged with its last completed iteration.
    Stopped rows leave the block.  Each row is charged an equal share of
    the block's set-up and of every iteration it takes part in, so the
    charges of a solve sum to its wall time and a single row is charged its
    wall time.  All-zero rows short-circuit to the zero vector with 0
    iterations, after the block type has validated the config.
    """
    start = time.perf_counter()
    k = len(ys)
    solution = np.zeros((k, dictionary.n), dtype=np.complex128)
    stats = RecoveryStats.zeros(k)
    nonzero = ys.any(axis=1)
    stats.converged[~nonzero] = True
    rows = np.flatnonzero(nonzero)  # block row of each active row
    y = ys[rows]
    block = block_type(y, dictionary, config)
    residual = y
    delta = np.ones(rows.size)  # starts at 1: at least one iteration
    finite = np.ones(rows.size, dtype=bool)
    halted = np.zeros(rows.size, dtype=bool)
    iterations = 0
    mark = time.perf_counter()
    stats.elapsed[:] = charge = (mark - start) / k
    while rows.size:
        # every active row took part in every iteration: one charge serves them all
        now = time.perf_counter()
        charge += (now - mark) / rows.size
        mark = now
        converged, stopped = stop_check(delta, charge, iterations, config)
        stopped |= halted | ~finite
        if stopped.any():
            stats.elapsed[rows[stopped]] = charge
            solved = stopped & finite
            done = rows[solved]
            solution[done] = block.solution[solved]
            stats.iterations[done] = iterations - halted[solved]
            stats.converged[done] = converged[solved]
            stats.final_delta[done] = delta[solved]
            stats.failed_at[rows[stopped & ~finite]] = iterations
            keep = ~stopped
            rows, y, residual, delta = rows[keep], y[keep], residual[keep], delta[keep]
            if not rows.size:
                break
            block.keep(keep)
        residual_prev = residual
        residual, halted = block.step(y, residual)
        # a halted row keeps the delta of its last completed iteration
        delta = np.where(halted, delta, residual_delta(residual, residual_prev))
        iterations += 1
        finite = np.isfinite(delta) & np.isfinite(block.solution).all(axis=1)
    return solution, stats


def _solve_pixel(y, dictionary, config, algorithm):
    """One pixel as a 1x1 cube; raises NumericalFailure."""
    cube, stats = recover_cube(np.asarray(y)[None, None], dictionary, config, algorithm)
    if stats.n_failed:
        raise NumericalFailure(int(stats.failed_at[0]))
    return SolverResult(
        x=cube[0, 0],
        iterations=int(stats.iterations[0]),
        converged=bool(stats.converged[0]),
        elapsed=float(stats.elapsed[0]),
        final_delta=float(stats.final_delta[0]),
    )


def fista(y, dictionary, config):
    """Accelerated proximal-gradient lasso solve."""
    return _solve_pixel(y, dictionary, config, "fista")


def admm(y, dictionary, config):
    """Scaled-dual alternating-direction lasso solve; returns the sparse
    iterate z."""
    return _solve_pixel(y, dictionary, config, "admm")


def gomp(y, dictionary, config):
    """Generalized orthogonal matching pursuit; see _GompBlock."""
    return _solve_pixel(y, dictionary, config, "gomp")


def biht(y, dictionary, config):
    """Iterative hard thresholding with a least-squares prune; see
    _BihtBlock."""
    return _solve_pixel(y, dictionary, config, "biht")


def cosamp(y, dictionary, config):
    """Compressive sampling matching pursuit; see _CosampBlock."""
    return _solve_pixel(y, dictionary, config, "cosamp")


SOLVERS = {solve.__name__: solve for solve in (fista, admm, gomp, biht, cosamp)}
CONVEX_SOLVERS = ("fista", "admm")
GREEDY_SOLVERS = ("gomp", "biht", "cosamp")


# pixels one block iteration solves together at most;
# bounds the block's working arrays on a full-size scene
TILE_PIXELS = 256
# entries of the stacked (rows, m, s) atoms a greedy refit of one support
# size solves together at most: bounds the refit's working arrays, and keeps
# large supports' stacks in cache
REFIT_ENTRIES = 2**14

_POOL = {}
_BLOCK_TYPES = {
    "fista": _FistaBlock,
    "admm": _AdmmBlock,
    "gomp": _GompBlock,
    "biht": _BihtBlock,
    "cosamp": _CosampBlock,
}


def _pool_init(dictionary, config, block_type):
    one_blas_thread()  # a worker process is the toolkit's own, unlike its parent
    _POOL.update(dictionary=dictionary, config=config, block_type=block_type)


def _tile_solve(ys):
    """A tile of consecutive (k, m) pixels as one block: (solutions, stats)."""
    return _solve_block(ys, _POOL["dictionary"], _POOL["config"], _POOL["block_type"])


def recover_cube(measurements, dictionary, config, algorithm, jobs=1):
    """Solve every pixel of an (x, y, m) measurement array.

    Returns (sparse-domain cube of shape (x, y, n), RecoveryStats of the
    pixels in raster order, x-major).  A pixel whose solver fails
    numerically is flagged and left at zero; the cube is never aborted.  The config is
    checked, and the dictionary state the solver reads built, before any tile is solved.
    Tiles of at most TILE_PIXELS consecutive pixels are solved as one block; with jobs > 1
    they go to at most one worker process per tile, each on one OpenBLAS thread, and the
    caller's threading is left as found.
    Every pixel keeps its own stop rule, and its own momentum under fista and penalty under
    admm, so the iteration counts equal those of per-pixel solver calls; greedy coefficients
    are identical and convex ones agree to round-off.
    """
    if algorithm not in SOLVERS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    meas = np.asarray(measurements, dtype=np.complex128)
    if meas.ndim != 3:
        raise ValueError("measurements must be (x, y, m)")
    x_dim, y_dim, m = meas.shape
    if m != dictionary.m:
        raise ValueError("measurement length does not match the dictionary")
    block_type = _BLOCK_TYPES[algorithm]
    # a block of no pixels checks the config and builds the dictionary state
    # the solver reads, once, before any worker forks
    block_type(np.empty((0, m), dtype=np.complex128), dictionary, config)
    if jobs is None or jobs < 1:
        jobs = os.cpu_count() or 1

    n_pixels = x_dim * y_dim
    flat = meas.reshape(n_pixels, m)
    # tiles of at most TILE_PIXELS, but at least one per worker
    tile = max(1, min(TILE_PIXELS, -(-n_pixels // jobs)))
    starts = range(0, n_pixels, tile)
    jobs = min(jobs, len(starts))  # a worker per tile at most
    tiles = (flat[i : i + tile] for i in starts)
    cube = np.zeros((n_pixels, dictionary.n), dtype=np.complex128)
    stats = RecoveryStats.zeros(n_pixels)

    def fill(results):
        for first, (solution, tile_stats) in zip(starts, results):
            cube[first : first + len(solution)] = solution
            stats.put(first, tile_stats)

    if jobs <= 1:
        fill(_solve_block(ys, dictionary, config, block_type) for ys in tiles)
    else:
        with ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_pool_init,
            initargs=(dictionary, config, block_type),
        ) as pool:
            fill(pool.map(_tile_solve, tiles))
    return cube.reshape(x_dim, y_dim, dictionary.n), stats
