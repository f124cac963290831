"""Unitary DFT dictionary, magnitude-based sparsification, and subsampling.

A length-N spectrum f and its inverse-DFT representation x are related by
f = basis.matrix @ x with the unitary DFT matrix (entry (j, k) is
exp(-2j*pi*j*k/N) / sqrt(N)).  Measurements keep a seeded random subset of
the spectral samples: y = f[mask.indices] = A x, where A holds the selected
rows of the basis.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .kernels import matvecs


def build_dft_basis(n):
    """Dictionary of all n rows of the unitary DFT matrix (unitary to
    machine precision); the matrix is built once per n and read-only."""
    if n < 1:
        raise ValueError("basis size must be >= 1")
    return Dictionary(matrix=_dft_matrix(n))


@lru_cache(maxsize=8)
def _dft_matrix(n):
    """The unitary DFT matrix in the steps of scipy.linalg.dft(n, scale="sqrtn"),
    so equal to it bit for bit."""
    m = np.exp(-2j * np.pi * np.arange(n) / n).reshape(-1, 1) ** np.arange(n)
    m /= math.sqrt(n)
    m.flags.writeable = False
    return m


def _apply(matrix, v, what):
    """matvecs after checking the length of v's vectors."""
    v = np.asarray(v)
    if v.shape[-1:] != (matrix.shape[1],):
        raise ValueError(f"{what} length does not match the basis")
    return matvecs(matrix, v)


def to_sparse_domain(f, basis):
    """Inverse-DFT representation x = basis^H f of each spectrum on f's last axis."""
    return _apply(basis.matrix.conj().T, f, "spectrum")


def from_sparse_domain(x, basis):
    """Spectrum for each sparse-domain vector on x's last axis.

    Returns (real part of basis @ x, largest imaginary magnitude per vector).
    The imaginary residue is diagnostic: it stays near machine precision
    when x is conjugate-symmetric, i.e. came from a real spectrum.
    """
    f = _apply(basis.matrix, x, "vector")
    # max |imag| from two reductions, with no stack-sized |imag| temporary
    return f.real.copy(), np.maximum(f.imag.max(axis=-1), -f.imag.min(axis=-1))


@dataclass
class SparsifyStats:
    """Magnitude statistics of sparsify: one value per vector (arrays for a stack)."""

    mean_magnitude: float | np.ndarray
    std_magnitude: float | np.ndarray
    zero_fraction: float | np.ndarray
    threshold_factor: float


def sparsify(x, factor):
    """Zero the entries of x whose magnitude sits within factor standard
    deviations of the mean magnitude, per vector of an (..., n) stack.

    Entry i is zeroed when |x_i| - mean < factor * std (population std of
    |x|).  Kept entries are returned bit-identical.  A constant-magnitude
    vector has std 0 and nothing is zeroed (strict inequality).
    """
    if not factor >= 0:  # NaN included
        raise ValueError("threshold factor must be >= 0")
    x = np.asarray(x)
    if x.size == 0:
        raise ValueError("cannot sparsify an empty vector")
    mags = np.abs(x)
    mean = mags.mean(axis=-1)
    std = mags.std(axis=-1)
    keep = (mags - mean[..., None]) >= factor * std[..., None]
    stats = SparsifyStats(
        mean_magnitude=mean,
        std_magnitude=std,
        zero_fraction=1.0 - keep.mean(axis=-1),
        threshold_factor=factor,
    )
    return np.where(keep, x, 0), stats


@dataclass
class SelectionMask:
    """Sorted subset of spectral sample indexes kept by the measurement step."""

    n: int
    indices: np.ndarray
    seed: int

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.intp)
        if self.indices.ndim != 1 or self.indices.size == 0:
            raise ValueError("mask needs at least one index")
        if self.indices.min() < 0 or self.indices.max() >= self.n:
            raise ValueError("mask index out of range")
        if np.any(np.diff(self.indices) <= 0):
            raise ValueError("mask indices must be strictly increasing")

    @property
    def m(self):
        return int(self.indices.size)


def build_selection_mask(n, ratio, seed):
    """Seeded uniform selection of round(ratio * n) indexes without replacement.

    Rounding is half-away-from-zero, so ratio 0.4 over 224 bands keeps 90.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must be in (0, 1]")
    m = int(np.floor(ratio * n + 0.5))
    if m < 1:
        raise ValueError("ratio keeps no samples")
    rng = np.random.default_rng(seed)
    indices = np.sort(rng.choice(n, size=m, replace=False))
    return SelectionMask(n=n, indices=indices, seed=seed)


def save_mask(mask, path):
    """Write a mask as plain text: seed, ambient size, then the index list."""
    lines = [
        f"seed={mask.seed}",
        f"n={mask.n}",
        "indices=" + ",".join(str(i) for i in mask.indices),
    ]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mask(path):
    fields = {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
    try:
        seed = int(fields["seed"])
        n = int(fields["n"])
        indices = np.array([int(tok) for tok in fields["indices"].split(",")], dtype=np.intp)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"unreadable mask file {path}: {exc}") from None
    return SelectionMask(n=n, indices=indices, seed=seed)


def measure(f, mask):
    """Subsample a spectrum, or every spectrum of an (..., n) stack:
    y = f[..., mask.indices] in f's dtype (float64 for a cube), C-ordered."""
    f = np.asarray(f)
    if f.shape[-1:] != (mask.n,):
        raise ValueError("spectrum length does not match the mask")
    return np.take(f, mask.indices, axis=-1)


def lipschitz_constant(matrix):
    """Largest eigenvalue of A^H A, the Lipschitz constant of the gradient of
    0.5 ||A x - y||^2: the squared spectral norm of A, from its SVD."""
    return float(np.linalg.norm(matrix, 2)) ** 2


# largest |A[:, n - k] - conj(A[:, k])|, relative to A's largest entry, of
# a dictionary with a real form; the DFT's rows sit near 1e-16
SYMMETRY_RTOL = 1e-12


def half_weights(n):
    """The weights c of the half spectrum v = c * x[:n // 2 + 1] of a
    conjugate-symmetric x: 1 for an entry that is its own mirror (x[0] and,
    for even n, x[n / 2]), sqrt(2) for one that stands for its mirror too.
    Then |v| = |x| and sum(c * |v|) = sum(|x|)."""
    k = np.arange(n // 2 + 1)
    return np.where(k == -k % n, 1.0, np.sqrt(2.0))


@dataclass
class Dictionary:
    """Measurement dictionary A with cached solver state: the whole DFT
    basis (build_dft_basis), the basis rows a mask keeps (build_dictionary),
    or any dense matrix (from_matrix).

    Solver state is built on first use and cached: the Lipschitz constant
    that sets FISTA's step (1 for any row selection of a unitary basis),
    the Gram matrix A^H A of the greedy solvers' least squares, the real
    form B of A on conjugate-symmetric vectors, where A has one, with its
    Gram matrix B^T B, and the eigendecomposition of A A^H (or of B B^T)
    through which ADMM solves its damped system for any penalty.  The constructor takes the matrix alone.
    recover_cube builds what its solver needs before forking worker
    processes, so every worker receives it with the dictionary.

    The real form.  Where A[:, n - k] = conj(A[:, k]) for every k to
    round-off, as for any row selection of the DFT, A maps a
    conjugate-symmetric x (x[n - k] = conj(x[k])) to a real y.  Such an x is
    held by its half spectrum v = c * x[:h], h = n // 2 + 1 (half_weights),
    whose float64 view u has x's norm; B is the real m x 2h matrix with
    A x = B u, zero in the imaginary columns of real entries.  unfold maps
    v back to x.
    """

    matrix: np.ndarray

    @property
    def m(self):
        return int(self.matrix.shape[0])

    @property
    def n(self):
        return int(self.matrix.shape[1])

    @classmethod
    def from_matrix(cls, matrix):
        """Wrap an arbitrary dense matrix (testing and experiments)."""
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim != 2:
            raise ValueError("dictionary matrix must be 2-D")
        return cls(matrix=matrix)

    @cached_property
    def lipschitz(self):
        """Largest eigenvalue of A^H A, built on first use."""
        return lipschitz_constant(self.matrix)

    @cached_property
    def gram(self):
        """A^H A, built on first use."""
        return self.matrix.conj().T @ self.matrix

    @cached_property
    def real_form(self):
        """(B, B^T) of the real form, both C-ordered, or None where A has
        none; checked and built on first use."""
        a, n = self.matrix, self.n
        h = n // 2 + 1
        asymmetry = np.abs(a[:, -np.arange(n) % n] - a.conj()).max(initial=0.0)
        if asymmetry > SYMMETRY_RTOL * np.abs(a).max(initial=0.0):
            return None
        c = half_weights(n)
        b = np.stack([a[:, :h].real * c, a[:, :h].imag * -c], axis=-1)
        b[:, c == 1.0, 1] = 0.0  # an entry that is its own mirror is real
        b = b.reshape(self.m, 2 * h)
        return b, np.ascontiguousarray(b.T)

    @cached_property
    def real_gram(self):
        """B^T B of the real form, built on first use."""
        b = self.real_form[0]
        return b.T @ b

    def unfold(self, v):
        """The conjugate-symmetric vectors x of the half spectra on v's last axis."""
        n, h = self.n, self.n // 2 + 1
        x = np.empty(v.shape[:-1] + (n,), dtype=np.complex128)
        x[..., :h] = v / half_weights(n)
        x[..., h:] = x[..., n - h : 0 : -1].conj()
        return x

    @cached_property
    def _admm_factor(self):
        return _woodbury_factor(self.matrix)

    @cached_property
    def _real_admm_factor(self):
        return _woodbury_factor(self.real_form[0])

    def admm_factor(self, real=False):
        """(eigenvalues, Q, Q^H A) of A A^H = Q diag(eigenvalues) Q^H, built
        on first use; with real, the same of B B^T and B.  By Woodbury, for
        every alpha > 0,
            (A^H A + alpha I)^-1 u = (u - (Q^H A)^H D Q^H A u) / alpha,
        with D = diag(1 / (eigenvalues + alpha)), and Q^H A x = D Q^H A u."""
        return self._real_admm_factor if real else self._admm_factor


def _woodbury_factor(a):
    eigenvalues, q = np.linalg.eigh(a @ a.conj().T)
    # A A^H is positive semidefinite; round-off may dip below zero
    return np.maximum(eigenvalues, 0.0), q, q.conj().T @ a


def build_dictionary(basis, mask):
    """Dictionary of the basis rows kept by the mask."""
    if mask.n != basis.n:
        raise ValueError("mask and basis sizes differ")
    return Dictionary(matrix=basis.matrix[mask.indices])
