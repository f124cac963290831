"""Per-pixel sparse recovery solvers.

All five solvers share the same contract: given measurements y (length m),
a Dictionary whose matrix A maps sparse-domain vectors to measurements, and
a SolverConfig, return a SolverResult whose x estimates the sparse-domain
vector from y ~ A x.  Iterations run until the l2 distance between
consecutive residuals y - A x drops below epsilon, a wall-clock budget runs
out, or an iteration cap is hit; the distance starts at 1 so every solver
performs at least one iteration (except for y = 0, which short-circuits to
the zero vector).  A greedy row also stops when its candidate set outgrows
the measurements, or repeats one it held at an earlier iteration (a cycle).
Each pixel records why it stopped, as one of STOP_REASONS.

One loop, _solve_block, iterates every solver on a block of pixel rows
sharing A; recover_cube is its one way in, a single pixel being a 1x1
cube.  Each solver supplies the step.  fista and admm minimize the lasso
objective
    H(x) = 0.5 * ||A x - y||^2 + lam * ||x||_1
with block products, each row with its own momentum restart (fista) or
penalty (admm); gomp, biht and cosamp greedily build a support of at
most kappa entries per row with block-wide projections, top-k picks,
prunes and residuals, and least-squares refits stacked over rows of one
support size, only their LAPACK calls row by row, so each pixel's iterates
are the ones it gets alone.  One routing, _RowForm, sets the form every
block works in: real measurements of a dictionary with a real form take
its real matrix B on half spectra (fista and admm always, the greedy
solvers from kappa 2 on, as whole conjugate pairs), and every other call
takes A in complex arithmetic.  Solvers draw no randomness, so results are
reproducible bit for bit when the time budget is disabled.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .kernels import (_cholesky_routines, argmax_k, gram_least_squares, least_squares, matvecs, one_blas_thread,
                      residual_delta, soft_threshold)
from .transform import half_weights


class NumericalFailure(RuntimeError):
    """A solver produced non-finite values; iteration stores where."""

    def __init__(self, iteration):
        super().__init__(f"non-finite values at iteration {iteration}")
        self.iteration = iteration


@dataclass
class SolverConfig:
    """Shared solver parameters.

    lam            l1 weight of the lasso objective (fista, admm)
    kappa          target sparsity of the greedy solvers, in entries
    atoms_per_iter support indexes (or conjugate pairs) gomp adds per
                   iteration; defaults to max(1, kappa // 5)
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
    stop_reason: str  # one of STOP_REASONS


# why a pixel stopped: the first that holds, in this order (_solve_block)
STOP_REASONS = ("numerical_failure", "converged", "support_overflow", "cycled", "timeout", "iter_cap")
NUMERICAL_FAILURE, CONVERGED, SUPPORT_OVERFLOW, CYCLED, TIMEOUT, ITER_CAP = range(len(STOP_REASONS))


def stop_check(delta, charge, iterations, config):
    """Stop rule shared by every solver, applied pixel by pixel before
    each iteration of a block.

    delta and charge are the pixels' residual deltas and time charges (one
    charge may stand for every pixel), iterations the count every pixel of
    the block has completed.  Returns the boolean arrays (converged,
    stopped): a pixel stops when it converged (delta < epsilon, strictly),
    else when its charge reached the time budget, else at the iteration cap;
    only the first counts as converged.  A greedy row also stops, and
    unconverged unless its delta converged, when its candidate set outgrew
    the measurements or repeats one it held at an earlier iteration
    (_GreedyBlock, _solve_block).
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


class _RowForm:
    """The form a block's (k, m) measurement rows take, decided once per
    block.  float64 rows of a dictionary with a real form, where the block
    takes it (real), hold half spectra v = c * x[:h], h = n // 2 + 1 (c is
    half_weights), as v's float64 view u: they take B (A x = B u), float64,
    l1 weights c, conjugate pairs (_Pairs) as their selection units, the
    Gram matrix B^T B, and unfold by Dictionary.unfold.  Other rows hold x
    and take A, complex128, weights 1, atoms, A^H A and np.asarray, which
    change no bit.

    matrix and its conjugate adjoint are C-ordered, and transpose is
    matrix.T: a convex block's complex (k, w) state s takes A as
    s.view(dtype) @ transpose and A^H r as (r @ adjoint).view(complex128); a
    greedy block's (k, w) dtype state takes them as matvecs(matrix, s) and
    matvecs(adjoint.T, r)."""

    def __init__(self, y, dictionary, real=True):
        self.dictionary = dictionary
        self.real = real and y.dtype == np.float64 and dictionary.real_form is not None
        if self.real:
            pairs = _Pairs(dictionary.n)
            self.matrix, self.transpose = dictionary.real_form
            self.dtype, self.weights, self.unfold = np.float64, pairs.weights, dictionary.unfold
            self.pick, self.prune = pairs.pick, pairs.prune
        else:
            self.matrix, self.transpose = dictionary.matrix, dictionary.matrix.T
            self.dtype, self.weights, self.unfold = np.complex128, 1.0, np.asarray
            self.pick, self.prune = _pick, _prune
        self.adjoint = self.matrix.conj()

    @property
    def gram(self):
        """The Gram matrix of matrix, built on first use and cached by the
        dictionary."""
        return self.dictionary.real_gram if self.real else self.dictionary.gram


class _FistaBlock:
    """FISTA (Beck & Teboulle 2009) on a (k, w) block of pixel rows, with the
    gradient restart of O'Donoghue & Candes (2015, "Adaptive restart for
    accelerated gradient schemes").

    Rows take their products as _RowForm sets them: on half spectra for
    real measurements, and on x itself otherwise.  The two iterate alike:
    from 0, the complex path's iterates stay conjugate-symmetric, the
    gradient maps to B's, the weighted soft threshold is the l1 prox in v,
    and real inner products are kept.  The step 1 / L is the full A's.

    Each row has its own momentum weight t, a (k, 1) column.  A row restarts
    when its step x_new - x points against its gradient step x_new - z,
    Re<z - x_new, x_new - x> > 0: its t is set to 1 before the momentum
    update, so its extrapolation weight is 0 and z = x_new.  A row thus
    computes in a block what it computes alone, to round-off.
    """

    def __init__(self, y, dictionary, config):
        form = _RowForm(y, dictionary)
        self.fwd, self.adj, self.dtype, self.unfold = form.transpose, form.adjoint, form.dtype, form.unfold
        self.inv_l = 1.0 / dictionary.lipschitz
        self.threshold = config.lam * self.inv_l * form.weights
        self.x = np.zeros((len(y), self.adj.shape[1]), dtype=self.dtype).view(np.complex128)
        self.z = self.x
        self.t = np.ones((len(y), 1))

    def step(self, y, residual):
        """One iteration; returns the residual of the new iterate and the
        rows that halted and that cycled (none)."""
        # 1. gradient step on the quadratic term at the extrapolated point
        gradient = (self.z.view(self.dtype) @ self.fwd - y) @ self.adj
        aux = self.z - (self.inv_l * gradient).view(np.complex128)
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
        none = np.zeros(len(y), dtype=bool)
        return y - self.x.view(self.dtype) @ self.fwd, none, none

    @property
    def solution(self):
        return self.x

    def keep(self, rows):
        self.x, self.z, self.t = self.x[rows], self.z[rows], self.t[rows]


class _AdmmBlock:
    """Scaled-dual ADMM on a (k, w) block of pixel rows, each row with its
    own penalty alpha_j, starting at config.alpha; the penalties are a
    (k, 1) column.  Rows take their products as _RowForm sets them, as
    in _FistaBlock; on half spectra the factor is that of B B^T.

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
        form = _RowForm(y, dictionary)
        self.dtype, self.unfold = form.dtype, form.unfold
        self.eigenvalues, q, qa = dictionary.admm_factor(form.real)
        self.qt, self.qat, self.qac = q.T, qa.T, qa.conj()
        self.b = y @ form.adjoint
        self.lam = config.lam * form.weights
        self.z = np.zeros(self.b.shape, dtype=self.dtype).view(np.complex128)
        self.w = np.zeros_like(self.z)
        self.penalize(np.full((len(y), 1), config.alpha))

    def penalize(self, alpha):
        """Set the rows' penalties and the factors and shrinkage thresholds
        the iteration takes from them."""
        self.alpha, self.inv_alpha = alpha, 1.0 / alpha
        self.damping = 1.0 / (self.eigenvalues + alpha)
        self.threshold = self.lam * self.inv_alpha

    def step(self, y, residual):
        """One iteration; returns the residual of the x iterate, which feeds
        the stop rule, and the rows that halted and that cycled (none).  The
        solution is the sparse iterate z."""
        # 1. quadratic solve by Woodbury, in place on u = A^H y + alpha (z - w),
        #    x's view; v = Q^H A x
        x = self.z - self.w
        u = x.view(self.dtype)
        u *= self.alpha
        u += self.b
        v = u @ self.qat
        v *= self.damping
        u -= v @ self.qac
        u *= self.inv_alpha
        # 2. shrinkage step, the prox of the l1 term under the scaled dual
        w = x + self.w
        z = soft_threshold(w, self.threshold)
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
        none = np.zeros(len(y), dtype=bool)
        return y - v @ self.qt, none, none

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


def _pick(v, count):
    """Mask of the count largest-magnitude entries of each row of v."""
    return _mark(np.zeros(v.shape, dtype=bool), argmax_k(v, count))


def _prune(x, candidates, kappa):
    """Mask of the kappa largest-magnitude candidate entries of each row of
    x, all of them where a row has at most kappa candidates.  One stable
    sort per row, on -|x| inside the candidates and +inf outside, breaks
    ties toward the lowest index as argmax_k does."""
    order = np.argsort(np.where(candidates, -np.abs(x), np.inf), axis=-1, kind="stable")
    return _mark(np.zeros_like(candidates), order[:, :kappa]) & candidates


class _Pairs:
    """The conjugate pairs {k, -k mod n} of n bins on the real form, which
    the greedy rows of a real spectrum pick and prune whole.  Half bin
    k <= n // 2 holds pair k as B's columns 2k and 2k + 1, or as column 2k
    alone where it is its own mirror (bin 0 and, for even n, bin n / 2),
    and counts as that many entries.  A (k, 2h) vector u is ranked by
    |v_k| / c_k of its half spectrum v (c is half_weights): |x_k| of the x
    it stands for.  Every mask they return holds whole pairs."""

    def __init__(self, n):
        self.weights = half_weights(n)
        self.sizes = np.where(self.weights == 1.0, 1, 2)
        self.columns = np.arange(2 * self.sizes.size) % 2 < np.repeat(self.sizes, 2)  # B's nonzero columns

    def scores(self, u):
        return np.abs(u.view(np.complex128)) / self.weights

    def spread(self, half):
        """The (k, 2h) column mask of a (k, h) mask of half bins."""
        return np.repeat(half, 2, axis=-1) & self.columns

    def pick(self, u, count):
        """Mask of the count strongest pairs of each row of u."""
        return self.spread(_pick(self.scores(u), count))

    def prune(self, u, candidates, kappa):
        """Mask of the strongest candidate pairs of each row of u, taken in
        rank order while they hold at most kappa entries; ties go toward the
        lowest half bin, as in _prune.  candidates must hold whole pairs."""
        half = candidates[:, ::2]
        order = np.argsort(np.where(half, -self.scores(u), np.inf), axis=-1, kind="stable")
        ranked = np.take_along_axis(half, order, axis=-1)
        ranked &= np.cumsum(np.where(ranked, self.sizes[order], 0), axis=-1) <= kappa
        kept = np.zeros_like(half)
        np.put_along_axis(kept, order, ranked, axis=-1)
        return self.spread(kept)


class _GreedyBlock:
    """Greedy pursuit on a block of pixel rows.

    Each row's iterate is a row of a (k, w) array and its support a row of
    a (k, w) boolean mask over the columns of the block's matrix.  An
    iteration takes the residual projections, the candidate picks and
    prunes (a stable sort per row) and the residuals of all rows at once,
    and refits rows of one support size together, in stacks of at most
    REFIT_ENTRIES column entries, with a Cholesky factor and solves per
    row.  A stacked product is one matrix-vector product per row, so a row
    computes in a block exactly what it computes alone.  A row whose
    candidate support outgrows the m measurements halts and keeps its last
    iterate.  Subclasses pick the candidates through self.pick and
    self.prune alone, and may override the fit.

    A row's candidate set is its whole state: its iterate, kept support and
    residual are functions of it, so a row whose candidate set repeats one
    it held at an earlier iteration cycles, and stops (cycled).  Its kept
    support alone may repeat on the way to a fit.  Each row keeps one saved
    candidate set, compared with its new one every iteration and replaced
    at iterations that are powers of two, which finds every cycle once the
    window outgrows its period (Brent 1980).  A repeat after one iteration
    gives a delta of 0, so that row converges.

    Rows take their form as _RowForm routes them once kappa >= 2: float64
    rows of a dictionary with a real form work on the real form B,
    projecting by B^T, refitting on B's columns against B^T B and forming
    residuals by B, and pick and prune whole conjugate pairs (_Pairs): a
    real spectrum's coefficients come in pairs, and a budget of 1 holds no
    pair.  Their x is exactly conjugate-symmetric.  Every other call works
    on A's atoms, in complex arithmetic.
    """

    def __init__(self, y, dictionary, config):
        self.check(config, dictionary.m, dictionary.n)
        form = _RowForm(y, dictionary, config.kappa >= 2)
        self.a, self.ah, self.unfold = form.matrix, form.adjoint.T, form.unfold
        self.at, self.gram = np.ascontiguousarray(form.transpose), form.gram
        self.pairs, self.pick, self.prune = form.real, form.pick, form.prune
        _cholesky_routines(form.dtype)  # where numpy's LAPACK is not found, fails before any tile
        self.config = config
        self.x = np.zeros((len(y), self.a.shape[1]), dtype=form.dtype)
        self.support = np.zeros(self.x.shape, dtype=bool)
        self.saved, self.iterations = self.support.copy(), 0

    @staticmethod
    def check(config, m, n):
        if config.kappa > m:
            raise ValueError(f"kappa must be <= {m}")

    def step(self, y, residual):
        """One iteration on every row; returns the new residuals, the rows
        that halted, whose iterate and residual stay as they were, and the
        rows whose candidate set repeats their saved one."""
        candidates = self.candidates(matvecs(self.ah, residual))
        self.iterations += 1
        cycled = (candidates == self.saved).all(axis=1)
        if not self.iterations & (self.iterations - 1):
            self.saved = candidates
        fits = np.count_nonzero(candidates, axis=1) <= self.a.shape[0]
        y = y[fits]
        self.x[fits], self.support[fits] = self.fit(candidates[fits], y)
        residual = residual.astype(self.x.dtype)  # the first is y, float64 for real rows
        residual[fits] = y - matvecs(self.a, self.x[fits])
        return residual, ~fits, cycled

    def solve(self, supports, y):
        """Least squares of each row of a (c, m) y on the columns of its row
        of a (c, s) supports index array, through their blocks of the shared
        Gram matrix: the (c, s) solutions.  A row's columns are gathered
        from the matrix's transpose, so each (m, s) block has the strides of
        its columns alone; a row whose Gram block is numerically singular
        gets the minimum-norm SVD solve."""
        b = self.at[supports].transpose(0, 2, 1)
        s, solved = gram_least_squares(b, self.gram[supports[:, :, None], supports[:, None, :]], y)
        for j in np.flatnonzero(~solved):
            s[j] = least_squares(b[j], y[j])
        return s

    def refit(self, supports, y):
        """solve for each row of y on the columns of its row of a (k, w)
        supports mask: the (k, w) least-squares iterates, zero off the
        supports.  Rows are solved in groups of one support size, at most
        REFIT_ENTRIES stacked column entries at a time."""
        x = np.zeros(supports.shape, dtype=self.x.dtype)
        sizes = np.count_nonzero(supports, axis=1)
        for size in np.flatnonzero(np.bincount(sizes)):
            group = np.flatnonzero(sizes == size)
            chunk = max(1, REFIT_ENTRIES // (size * y.shape[1]))
            for rows in np.split(group, range(chunk, group.size, chunk)):
                columns = np.nonzero(supports[rows])[1].reshape(rows.size, size)
                x[rows[:, None], columns] = self.solve(columns, y[rows])
        return x

    def fit(self, candidates, y):
        """Least squares on the candidates, pruned to the kappa strongest
        entries: (iterates, kept supports)."""
        x = self.refit(candidates, y)
        kept = self.prune(x, candidates, self.config.kappa)
        return np.where(kept, x, 0), kept

    @property
    def solution(self):
        return self.x.view(np.complex128)

    def keep(self, rows):
        self.x, self.support, self.saved = self.x[rows], self.support[rows], self.saved[rows]


class _GompBlock(_GreedyBlock):
    """Generalized orthogonal matching pursuit with a kappa-prune re-solve.

    Grows the accumulated support by the atoms_per_iter strongest residual
    projections (atoms, or pairs) each iteration, then re-fits on the kappa
    strongest entries of the scattered least-squares solution: on atoms,
    ranked over all n entries; on pairs, over the candidates.
    """

    def candidates(self, p):
        # 1. strongest residual projections extend the accumulated support
        return self.support | self.pick(p, self.config.atoms_per_iter)

    def fit(self, candidates, y):
        # 2. least squares on the accumulated support
        x = self.refit(candidates, y)
        # 3. prune to the kappa strongest entries and re-fit on those; a
        #    row whose prune kept its support has its re-fit already; atoms
        #    rank all n entries, the prune bug C7's timing rests on (ROADMAP)
        kappa = self.config.kappa
        top = self.prune(x, candidates, kappa) if self.pairs else self.pick(x, kappa)
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
    on the candidates is pruned back to the kappa strongest entries.  On
    pairs, the gradient step, u + mu * B^T r on the real form, gives its
    strongest pairs holding at most kappa entries, and the projection its
    strongest pair.
    """

    def candidates(self, g):
        # 1. top entries of the gradient step + current support + the
        #    strongest residual projection
        u = self.x + self.config.mu * g
        return self.support | self.prune(u, np.ones_like(self.support), self.config.kappa) | self.pick(g, 1)


class _CosampBlock(_GreedyBlock):
    """Compressive sampling matching pursuit (Needell & Tropp 2009).

    The candidate set joins 2*kappa entries of the strongest residual
    projections, 2*kappa atoms or kappa pairs, with the support kept after
    the previous prune: at most 3*kappa entries, so a row halts where they
    outgrow the m measurements.  The prune keeps the kappa strongest
    entries, or the strongest pairs that hold at most kappa.
    """

    @staticmethod
    def check(config, m, n):
        if 2 * config.kappa > n:
            raise ValueError(f"need 2 * kappa <= {n}")
        _GreedyBlock.check(config, m, n)

    def candidates(self, p):
        kappa = self.config.kappa
        return self.support | self.pick(p, kappa if self.pairs else 2 * kappa)


@dataclass
class RecoveryStats:
    """Per-pixel record of a solve, one array entry per pixel, and the
    aggregates derived from it.

    iterations, stop_reason (an index into STOP_REASONS), elapsed (the time
    charge), final_delta and failed_at, the iteration at which the pixel's
    iterate or delta turned non-finite, else 0.  A failed pixel records only
    failed_at, its reason and its charge; recovery_time_s sums the charges
    of the other pixels, the wall time of the solves when jobs == 1, a sum
    across workers when jobs > 1.
    """

    iterations: np.ndarray
    stop_reason: np.ndarray
    elapsed: np.ndarray
    final_delta: np.ndarray
    failed_at: np.ndarray

    @classmethod
    def zeros(cls, k):
        return cls(np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int8), np.zeros(k),
                   np.zeros(k), np.zeros(k, dtype=np.int64))

    def put(self, first, tile):
        """Copy the record of a tile of consecutive pixels in at index first."""
        for name, values in vars(tile).items():
            getattr(self, name)[first : first + values.size] = values

    @property
    def converged(self):
        return self.stop_reason == CONVERGED

    @property
    def stop_counts(self):
        """The number of pixels that stopped for each of STOP_REASONS."""
        counts = np.bincount(self.stop_reason, minlength=len(STOP_REASONS))
        return dict(zip(STOP_REASONS, counts.tolist()))

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
    left at zero.  A row is unfolded into its x by the block's unfold when
    it stops (_RowForm).  Before each iteration stop_check's rule stops a
    row when its delta drops below epsilon, else when its time charge
    reaches the budget, else at the iteration cap; a greedy row whose
    support outgrew the measurements stops unconverged with its last
    completed iteration, and one whose candidate set repeated stops
    unconverged (cycled) with its iteration counted, unless its delta
    converged.  Each row records the first reason that holds, in
    STOP_REASONS' order.  Stopped rows leave the block.  Each row is
    charged an equal share of the block's set-up and of every iteration it
    takes part in, so the charges of a solve sum to its wall time and a
    single row is charged its wall time.  All-zero rows short-circuit to
    the zero vector with 0 iterations, after the block type has validated
    the config.
    """
    start = time.perf_counter()
    k = len(ys)
    solution = np.zeros((k, dictionary.n), dtype=np.complex128)
    stats = RecoveryStats.zeros(k)
    nonzero = ys.any(axis=1)
    stats.stop_reason[~nonzero] = CONVERGED
    rows = np.flatnonzero(nonzero)  # block row of each active row
    y = ys[rows]
    block = block_type(y, dictionary, config)
    residual = y
    delta = np.ones(rows.size)  # starts at 1: at least one iteration
    finite = np.ones(rows.size, dtype=bool)
    halted = cycled = np.zeros(rows.size, dtype=bool)
    iterations = 0
    mark = time.perf_counter()
    stats.elapsed[:] = charge = (mark - start) / k
    while rows.size:
        # every active row took part in every iteration: one charge serves them all
        now = time.perf_counter()
        charge += (now - mark) / rows.size
        mark = now
        converged, stopped = stop_check(delta, charge, iterations, config)
        stopped |= halted | cycled | ~finite
        if stopped.any():
            # the first reason that holds, in STOP_REASONS' order: a later
            # assignment wins
            timed_out = config.time_limit is not None and charge >= config.time_limit
            reason = np.where(cycled, CYCLED, TIMEOUT if timed_out else ITER_CAP)
            reason[halted] = SUPPORT_OVERFLOW
            reason[converged] = CONVERGED
            reason[~finite] = NUMERICAL_FAILURE
            ended = rows[stopped]
            stats.elapsed[ended] = charge
            stats.stop_reason[ended] = reason[stopped]
            solved = stopped & finite
            done = rows[solved]
            solution[done] = block.unfold(block.solution[solved])
            stats.iterations[done] = iterations - halted[solved]
            stats.final_delta[done] = delta[solved]
            stats.failed_at[rows[stopped & ~finite]] = iterations
            keep = ~stopped
            rows, y, residual, delta = rows[keep], y[keep], residual[keep], delta[keep]
            if not rows.size:
                break
            block.keep(keep)
        residual_prev = residual
        residual, halted, cycled = block.step(y, residual)
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
        stop_reason=STOP_REASONS[stats.stop_reason[0]],
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
    Rows are float64, or complex128 where the measurements' dtype is complex, whatever their
    values.  On float64 rows of a dictionary with a real form, fista and admm iterate on half
    spectra with real products and return exactly conjugate-symmetric vectors, the complex
    path's iterates to round-off; that path serves every other call.  On such rows gomp, biht
    and cosamp pick and prune whole conjugate pairs from kappa 2 on, and project, refit and
    form residuals on the real form, so they too return exactly conjugate-symmetric vectors
    (_GreedyBlock).  The set-up block builds B and B^T B for them, and A^H A for the atom path.
    A greedy pixel whose candidate set repeats one it held before stops unconverged, as
    cycled; each pixel's stats record why it stopped (STOP_REASONS).
    """
    if algorithm not in SOLVERS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    meas = np.asarray(measurements)
    meas = meas.astype(np.result_type(meas, np.float64), copy=False)
    if meas.ndim != 3:
        raise ValueError("measurements must be (x, y, m)")
    x_dim, y_dim, m = meas.shape
    if m != dictionary.m:
        raise ValueError("measurement length does not match the dictionary")
    block_type = _BLOCK_TYPES[algorithm]
    # a block of no pixels checks the config and builds the dictionary state
    # the solver reads (the real form and its Gram matrix, where the rows take
    # it), once, before any worker forks
    block_type(np.empty((0, m), dtype=meas.dtype), dictionary, config)
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
