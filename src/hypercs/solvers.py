"""Per-pixel sparse recovery solvers.

All five solvers share the same contract: given measurements y (length m),
a Dictionary whose matrix A maps sparse-domain vectors to measurements, and
a SolverConfig, return a SolverResult whose x estimates the sparse-domain
vector from y ~ A x.  Iterations run until the l2 distance between
consecutive residuals y - A x drops below epsilon, a wall-clock budget runs
out, or an iteration cap is hit; the distance starts at 1 so every solver
performs at least one iteration (except for y = 0, which short-circuits to
the zero vector).

fista and admm minimize the lasso objective
    H(x) = 0.5 * ||A x - y||^2 + lam * ||x||_1
with one loop that iterates on a block of pixel columns sharing A, a single
pixel being a one-column block; gomp, biht and cosamp greedily build a
support of at most kappa atoms, pixel by pixel.
Solvers draw no randomness, so results are reproducible bit for bit when
the time budget is disabled.
"""

import enum
import itertools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .kernels import argmax_k, least_squares, residual_delta, soft_threshold


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
    alpha          quadratic penalty of admm
    epsilon        residual-delta convergence threshold
    time_limit     per-pixel time budget in seconds, None disables it; in
                   a fista/admm block it bounds the pixel's time charge
    max_iter       iteration cap, None means unlimited
    seed           reproducibility record; the solvers themselves draw no
                   randomness
    """

    lam: float = 0.1
    kappa: int = 1
    atoms_per_iter: int | None = None
    mu: float = 0.1
    alpha: float = 1.8
    epsilon: float = 1e-8
    time_limit: float | None = 2.0
    max_iter: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.kappa < 1:
            raise ValueError("kappa must be >= 1")
        if self.atoms_per_iter is None:
            self.atoms_per_iter = max(1, self.kappa // 5)
        if not 1 <= self.atoms_per_iter <= self.kappa:
            raise ValueError("atoms_per_iter must be in [1, kappa]")
        if self.mu <= 0:
            raise ValueError("mu must be > 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.time_limit is not None and self.time_limit <= 0:
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
    admm_gap: float | None = None  # ||x - z|| at termination, admm only


class StopDecision(enum.Enum):
    CONTINUE = "continue"
    CONVERGED = "converged"
    TIMEOUT = "timeout"
    ITER_CAP = "iter_cap"


@dataclass
class SolverState:
    """Residual bookkeeping consulted by the stop rule."""

    residual: np.ndarray
    residual_prev: np.ndarray | None = None
    delta: float = 1.0
    iterations: int = 0


def stop_check(state, config, elapsed):
    """Stop rule shared by every solver, checked before each iteration.

    Convergence (delta < epsilon, strictly) wins over the time budget,
    which wins over the iteration cap.
    """
    if state.delta < config.epsilon:
        return StopDecision.CONVERGED
    if config.time_limit is not None and elapsed >= config.time_limit:
        return StopDecision.TIMEOUT
    if config.max_iter is not None and state.iterations >= config.max_iter:
        return StopDecision.ITER_CAP
    return StopDecision.CONTINUE


def lasso_objective(x, y, dictionary, lam):
    """H(x) = 0.5 ||A x - y||^2 + lam * sum |x_i| (complex-safe)."""
    matrix = dictionary.matrix if hasattr(dictionary, "matrix") else np.asarray(dictionary)
    r = matrix @ x - y
    return 0.5 * float(np.real(np.vdot(r, r))) + lam * float(np.abs(x).sum())


def _prep(y, dictionary):
    a = dictionary.matrix
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (a.shape[0],):
        raise ValueError(f"measurement length {y.shape} does not match {a.shape[0]} rows")
    return a, y


def _zero_result(n, start):
    return SolverResult(
        x=np.zeros(n, dtype=np.complex128),
        iterations=0,
        converged=True,
        elapsed=time.perf_counter() - start,
        final_delta=0.0,
    )


def _check_finite(x, delta, iteration):
    if not (math.isfinite(delta) and np.isfinite(x).all()):
        raise NumericalFailure(iteration)


def _fista_momentum(t):
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))


class _FistaBlock:
    """FISTA (Beck & Teboulle 2009) on an (n, k) block of pixel columns.

    The momentum weight t depends only on the iteration number, which every
    active column shares, so one scalar serves the whole block.
    """

    def __init__(self, a, y, dictionary, config):
        self.a = a
        self.ah = a.conj().T
        self.inv_l = 1.0 / dictionary.lipschitz
        self.threshold = config.lam * self.inv_l
        self.x = np.zeros((a.shape[1], y.shape[1]), dtype=np.complex128)
        self.z = self.x
        self.t = 1.0

    def step(self, y):
        """One iteration; returns the iterate whose residual feeds the stop
        rule."""
        # 1. gradient step on the quadratic term at the extrapolated point
        aux = self.z - self.inv_l * (self.ah @ (self.a @ self.z - y))
        # 2. proximal shrinkage
        x_new = soft_threshold(aux, self.threshold)
        # 3. momentum weight update
        t_new = _fista_momentum(self.t)
        # 4. extrapolation
        self.z = x_new + ((self.t - 1.0) / t_new) * (x_new - self.x)
        self.x, self.t = x_new, t_new
        return self.x

    @property
    def solution(self):
        return self.x

    def keep(self, cols):
        self.x, self.z = self.x[:, cols], self.z[:, cols]

    def result(self, j):
        """(solution, admm_gap) of active column j."""
        return self.x[:, j].copy(), None


class _AdmmBlock:
    """Scaled-dual ADMM on an (n, k) block of pixel columns.

    The x-update solves (A^H A + alpha I) x = A^H y + alpha (z - w).  The
    inverse is built once per solve from the cached Cholesky factor, so each
    iteration is one matrix product (Boyd et al. 2011, section 4.2); a
    cho_solve on the whole block inside the loop is slower than the serial
    per-pixel solves.
    """

    def __init__(self, a, y, dictionary, config):
        n = a.shape[1]
        inv = scipy.linalg.cho_solve(
            dictionary.admm_factor(config.alpha), np.eye(n, dtype=np.complex128)
        )
        self.b = inv @ (a.conj().T @ y)
        self.inv = inv
        self.alpha = config.alpha
        # prox threshold of the l1 term under the scaled dual: lam / alpha
        self.threshold = config.lam / config.alpha
        self.x = np.zeros((n, y.shape[1]), dtype=np.complex128)
        self.z = np.zeros_like(self.x)
        self.w = np.zeros_like(self.x)

    def step(self, y):
        """One iteration; returns the x iterate, whose residual feeds the stop
        rule.  The solution is the sparse iterate z."""
        # 1. quadratic solve through the inverse of the cached factorization
        self.x = self.b + self.alpha * (self.inv @ (self.z - self.w))
        # 2. shrinkage step
        self.z = soft_threshold(self.x + self.w, self.threshold)
        # 3. dual update
        self.w = self.w + self.x - self.z
        return self.x

    @property
    def solution(self):
        return self.z

    def keep(self, cols):
        self.b, self.x, self.z, self.w = (
            self.b[:, cols], self.x[:, cols], self.z[:, cols], self.w[:, cols]
        )

    def result(self, j):
        """(solution, admm_gap) of active column j."""
        return self.z[:, j].copy(), float(np.linalg.norm(self.x[:, j] - self.z[:, j]))


def _solve_block(ys, dictionary, config, block_type):
    """Solve the pixel columns of an (m, k) measurement block together.

    Returns one (SolverResult, None) per column, or (None, iteration) for a
    column whose iterate or delta turned non-finite at that iteration.  The
    stop rule is stop_check's, column by column: a column stops when its
    delta drops below epsilon, else when its time charge reaches the
    budget, else at the iteration cap; stopped columns leave the block.
    Each column is charged an equal share of the block's set-up and of
    every iteration it takes part in, so the charges of a solve sum to its
    wall time and a single column is charged its wall time.  All-zero
    columns short-circuit to the zero vector with 0 iterations.
    """
    start = time.perf_counter()
    a = dictionary.matrix
    n, k = a.shape[1], ys.shape[1]
    outcomes = [None] * k
    nonzero = ys.any(axis=0)
    cols = np.flatnonzero(nonzero)  # block column of each active column
    y = ys[:, cols]
    block = block_type(a, y, dictionary, config) if cols.size else None
    residual = y
    delta = np.ones(cols.size)  # starts at 1: at least one iteration
    finite = np.ones(cols.size, dtype=bool)
    iterations = 0
    mark = time.perf_counter()
    charge = np.full(k, (mark - start) / k)
    for j in np.flatnonzero(~nonzero):
        zero = SolverResult(np.zeros(n, dtype=np.complex128), 0, True, float(charge[j]), 0.0)
        outcomes[j] = (zero, None)
    while cols.size:
        now = time.perf_counter()
        charge[cols] += (now - mark) / cols.size
        mark = now
        converged = finite & (delta < config.epsilon)
        stopped = converged | ~finite
        if config.time_limit is not None:
            stopped |= charge[cols] >= config.time_limit
        if config.max_iter is not None and iterations >= config.max_iter:
            stopped[:] = True
        for j in np.flatnonzero(stopped):
            if not finite[j]:
                outcomes[cols[j]] = (None, iterations)
                continue
            x, gap = block.result(j)
            result = SolverResult(
                x=x,
                iterations=iterations,
                converged=bool(converged[j]),
                elapsed=float(charge[cols[j]]),
                final_delta=float(delta[j]),
                admm_gap=gap,
            )
            outcomes[cols[j]] = (result, None)
        if stopped.any():
            keep = ~stopped
            cols, y, residual = cols[keep], y[:, keep], residual[:, keep]
            if not cols.size:
                break
            block.keep(keep)
        residual_prev = residual
        residual = y - a @ block.step(y)
        delta = residual_delta(residual, residual_prev)
        iterations += 1
        finite = np.isfinite(delta) & np.isfinite(block.solution).all(axis=0)
    return outcomes


def _solve_pixel(y, dictionary, config, block_type):
    """One pixel as a one-column block; raises NumericalFailure."""
    _, y = _prep(y, dictionary)
    ((result, failed_at),) = _solve_block(y[:, None], dictionary, config, block_type)
    if result is None:
        raise NumericalFailure(failed_at)
    return result


def fista(y, dictionary, config):
    """Accelerated proximal-gradient lasso solve."""
    return _solve_pixel(y, dictionary, config, _FistaBlock)


def admm(y, dictionary, config):
    """Scaled-dual alternating-direction lasso solve; returns the sparse
    iterate z."""
    return _solve_pixel(y, dictionary, config, _AdmmBlock)


def gomp(y, dictionary, config):
    """Generalized orthogonal matching pursuit with a kappa-prune re-solve.

    Grows the accumulated support by the atoms_per_iter strongest residual
    projections each iteration, then re-fits on the kappa strongest entries
    of the scattered least-squares solution.
    """
    start = time.perf_counter()
    a, y = _prep(y, dictionary)
    m, n = a.shape
    kappa = config.kappa
    if not config.atoms_per_iter <= kappa <= m:
        raise ValueError(f"need atoms_per_iter <= kappa <= {m}")
    if not y.any():
        return _zero_result(n, start)
    ah = a.conj().T
    support = np.empty(0, dtype=np.intp)
    x = np.zeros(n, dtype=np.complex128)
    state = SolverState(residual=y.copy())
    while True:
        decision = stop_check(state, config, time.perf_counter() - start)
        if decision is not StopDecision.CONTINUE:
            break
        # 1. strongest residual projections extend the accumulated support
        p = ah @ state.residual
        support = np.union1d(support, argmax_k(p, config.atoms_per_iter))
        if support.size > m:
            # support outgrew the measurement count: keep the last iterate
            break
        # 2. least squares on the accumulated atoms
        s = least_squares(a[:, support], y)
        # 3. prune to the kappa strongest entries and re-fit on those
        x = np.zeros(n, dtype=np.complex128)
        x[support] = s
        top = argmax_k(x, kappa)
        x = np.zeros(n, dtype=np.complex128)
        x[top] = least_squares(a[:, top], y)
        # 4. residual delta
        state.residual_prev = state.residual
        state.residual = y - a @ x
        state.delta = residual_delta(state.residual, state.residual_prev)
        state.iterations += 1
        _check_finite(x, state.delta, state.iterations)
    return SolverResult(
        x=x,
        iterations=state.iterations,
        converged=decision is StopDecision.CONVERGED,
        elapsed=time.perf_counter() - start,
        final_delta=state.delta,
    )


def biht(y, dictionary, config):
    """Iterative hard thresholding with a least-squares backtracking prune.

    Each iteration takes the candidate set as the kappa largest entries of
    the gradient step x + mu * A^H r, joined with the current support and
    the strongest residual projection argmax |A^H r|.  That last atom keeps
    the support moving whenever the residual is nonzero, whatever mu is;
    mu scales how many more atoms the gradient step admits.  Least squares
    on the candidates is pruned back to the kappa strongest entries.
    """
    start = time.perf_counter()
    a, y = _prep(y, dictionary)
    m, n = a.shape
    kappa = config.kappa
    if kappa > m:
        raise ValueError(f"kappa must be <= {m}")
    if not y.any():
        return _zero_result(n, start)
    ah = a.conj().T
    x = np.zeros(n, dtype=np.complex128)
    state = SolverState(residual=y.copy())
    while True:
        decision = stop_check(state, config, time.perf_counter() - start)
        if decision is not StopDecision.CONTINUE:
            break
        # 1. candidates: top entries of the gradient step + current support
        #    + the strongest residual projection
        g = ah @ state.residual
        u = x + config.mu * g
        support = np.unique(
            np.concatenate((argmax_k(u, kappa), np.flatnonzero(x), argmax_k(g, 1)))
        )
        if support.size > m:
            break
        # 2. least squares on the candidates
        s = least_squares(a[:, support], y)
        # 3. keep the kappa strongest entries of s, zero the rest
        keep = argmax_k(s, min(kappa, s.size))
        pruned = np.zeros_like(s)
        pruned[keep] = s[keep]
        x = np.zeros(n, dtype=np.complex128)
        x[support] = pruned
        # 4. residual delta
        state.residual_prev = state.residual
        state.residual = y - a @ x
        state.delta = residual_delta(state.residual, state.residual_prev)
        state.iterations += 1
        _check_finite(x, state.delta, state.iterations)
    return SolverResult(
        x=x,
        iterations=state.iterations,
        converged=decision is StopDecision.CONVERGED,
        elapsed=time.perf_counter() - start,
        final_delta=state.delta,
    )


def cosamp(y, dictionary, config):
    """Compressive sampling matching pursuit.

    The candidate set joins the 2*kappa strongest residual projections with
    the support kept after the previous prune.
    """
    start = time.perf_counter()
    a, y = _prep(y, dictionary)
    m, n = a.shape
    kappa = config.kappa
    if 2 * kappa > n:
        raise ValueError(f"need 2 * kappa <= {n}")
    if kappa > m:
        raise ValueError(f"kappa must be <= {m}")
    if not y.any():
        return _zero_result(n, start)
    ah = a.conj().T
    support = np.empty(0, dtype=np.intp)
    x = np.zeros(n, dtype=np.complex128)
    state = SolverState(residual=y.copy())
    while True:
        decision = stop_check(state, config, time.perf_counter() - start)
        if decision is not StopDecision.CONTINUE:
            break
        # 1. candidate set: 2*kappa strongest projections + kept support
        p = ah @ state.residual
        support = np.union1d(support, argmax_k(p, 2 * kappa))
        if support.size > m:
            break
        # 2. least squares on the candidates
        s = least_squares(a[:, support], y)
        # 3. prune values and support to the kappa strongest
        keep = argmax_k(s, min(kappa, s.size))
        support = support[keep]
        s = s[keep]
        x = np.zeros(n, dtype=np.complex128)
        x[support] = s
        # 4. residual delta
        state.residual_prev = state.residual
        state.residual = y - a @ x
        state.delta = residual_delta(state.residual, state.residual_prev)
        state.iterations += 1
        _check_finite(x, state.delta, state.iterations)
    return SolverResult(
        x=x,
        iterations=state.iterations,
        converged=decision is StopDecision.CONVERGED,
        elapsed=time.perf_counter() - start,
        final_delta=state.delta,
    )


SOLVERS = {
    "fista": fista,
    "admm": admm,
    "gomp": gomp,
    "biht": biht,
    "cosamp": cosamp,
}
CONVEX_SOLVERS = ("fista", "admm")
GREEDY_SOLVERS = ("gomp", "biht", "cosamp")


# pixel columns one fista/admm block iteration solves together at most;
# bounds the block's working arrays on a full-size scene
TILE_PIXELS = 256


@dataclass
class RecoveryStats:
    """Aggregate of a whole-cube recovery.

    results holds one SolverResult per pixel in raster order (x-major),
    None where the solver failed numerically; failed_pixels lists those
    (x, y, iteration) triples.  recovery_time_s sums the per-pixel time
    charges (SolverResult.elapsed) of the solved pixels: the wall time of
    the solves when jobs == 1, a sum across workers when jobs > 1.
    """

    n_pixels: int
    n_converged: int
    n_failed: int
    n_zero_pixels: int
    total_iterations: int
    recovery_time_s: float
    results: list = field(repr=False, default_factory=list)
    failed_pixels: list = field(default_factory=list)

    @property
    def convergence_pct(self):
        return 100.0 * self.n_converged / self.n_pixels if self.n_pixels else 0.0


_POOL = {}
_BLOCK_TYPES = {"fista": _FistaBlock, "admm": _AdmmBlock}


def _pool_init(dictionary, config, algorithm):
    _POOL["dictionary"] = dictionary
    _POOL["config"] = config
    _POOL["solver"] = SOLVERS[algorithm]
    _POOL["block_type"] = _BLOCK_TYPES.get(algorithm)


def _pool_solve(item):
    index, y = item
    try:
        return index, _POOL["solver"](y, _POOL["dictionary"], _POOL["config"]), None
    except NumericalFailure as exc:
        return index, None, exc.iteration


def _tile_solve(item):
    """A tile of consecutive pixels as one block: [(index, result, failed_at)]."""
    first, ys = item
    outcomes = _solve_block(ys.T, _POOL["dictionary"], _POOL["config"], _POOL["block_type"])
    return [(first + j, result, failed_at) for j, (result, failed_at) in enumerate(outcomes)]


def recover_cube(measurements, dictionary, config, algorithm, jobs=1):
    """Solve every pixel of an (x, y, m) measurement array.

    Returns (sparse-domain cube of shape (x, y, n), RecoveryStats).  A pixel
    whose solver fails numerically is flagged and left at zero; the cube is
    never aborted.  fista and admm solve tiles of at most TILE_PIXELS
    consecutive pixels as one block; the greedy solvers go pixel by pixel.
    With jobs > 1 tiles or pixels are distributed over worker processes.
    Every pixel keeps its own stop rule, so the iteration counts equal
    those of per-pixel solver calls and the coefficients agree to
    round-off; greedy results are identical.
    """
    if algorithm not in SOLVERS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    meas = np.asarray(measurements, dtype=np.complex128)
    if meas.ndim != 3:
        raise ValueError("measurements must be (x, y, m)")
    x_dim, y_dim, m = meas.shape
    if m != dictionary.m:
        raise ValueError("measurement length does not match the dictionary")
    if algorithm == "admm":
        # build the factorization once, before any worker fork
        dictionary.admm_factor(config.alpha)
    if jobs is None or jobs < 1:
        jobs = os.cpu_count() or 1

    n_pixels = x_dim * y_dim
    flat = meas.reshape(n_pixels, m)
    tiled = algorithm in _BLOCK_TYPES
    if tiled:
        # tiles of at most TILE_PIXELS, but at least one per worker
        tile = max(1, min(TILE_PIXELS, -(-n_pixels // jobs)))
        work, chunksize = _tile_solve, 1
        items = ((i, flat[i : i + tile]) for i in range(0, n_pixels, tile))
    else:
        work, chunksize = _pool_solve, 8
        items = ((i, flat[i]) for i in range(n_pixels))
    if jobs == 1:
        _pool_init(dictionary, config, algorithm)
        outcomes = list(map(work, items))
        _POOL.clear()
    else:
        with ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_pool_init,
            initargs=(dictionary, config, algorithm),
        ) as pool:
            outcomes = list(pool.map(work, items, chunksize=chunksize))
    if tiled:
        outcomes = itertools.chain.from_iterable(outcomes)

    results = [None] * n_pixels
    failures = []
    cube = np.zeros((x_dim, y_dim, dictionary.n), dtype=np.complex128)
    for index, result, failed_at in outcomes:
        ix, iy = divmod(index, y_dim)
        if result is None:
            failures.append((ix, iy, failed_at))
        else:
            results[index] = result
            cube[ix, iy, :] = result.x
    solved = [r for r in results if r is not None]
    stats = RecoveryStats(
        n_pixels=n_pixels,
        n_converged=sum(r.converged for r in solved),
        n_failed=len(failures),
        n_zero_pixels=sum(r.iterations == 0 and r.converged for r in solved),
        total_iterations=sum(r.iterations for r in solved),
        recovery_time_s=sum(r.elapsed for r in solved),
        results=results,
        failed_pixels=failures,
    )
    return cube, stats
