"""Numerical kernels: soft threshold, top-k selection, least squares."""

import ctypes

import numpy as np
import pytest
import scipy.linalg

from hypercs import (
    Dictionary,
    SolverConfig,
    argmax_k,
    generate_synthetic_cube,
    gram_least_squares,
    least_squares,
    residual_delta,
    save_cube,
    soft_threshold,
)
from hypercs import kernels, solvers
from hypercs.cli import EXIT_OK, main
from hypercs.kernels import (GRAM_RTOL, RANK_RTOL, SYMBOL_DECORATIONS, matvecs, one_blas_thread,
                             openblas_threads)
from hypercs.solvers import _CosampBlock

from helpers import partial_fourier


class TestSoftThreshold:
    def test_real_values_shrink_toward_zero(self):
        out = soft_threshold(np.array([3.0, -1.0, 0.5, 0.0]), 1.0)
        np.testing.assert_allclose(out, [2.0, 0.0, 0.0, 0.0], atol=0)

    def test_small_magnitudes_map_to_exact_zero(self):
        out = soft_threshold(np.array([0.3, -0.999, 1.0]), 1.0)
        assert out[0] == 0.0 and out[1] == 0.0 and out[2] == 0.0

    def test_complex_entries_keep_their_phase(self):
        v = 3.0 * np.exp(1j * 0.7)
        out = soft_threshold(np.array([v]), 1.0)
        np.testing.assert_allclose(out[0], 2.0 * np.exp(1j * 0.7), rtol=1e-14)

    def test_matches_grid_search_of_the_prox_objective(self):
        # soft_threshold(v, t) minimizes 0.5*(z - v)^2 + t*|z| over z
        grid = np.linspace(-4.0, 4.0, 160001)  # step 5e-5
        for v in (1.3, -2.4, 0.2, 0.0):
            for t in (0.4, 1.0):
                objective = 0.5 * (grid - v) ** 2 + t * np.abs(grid)
                best = grid[np.argmin(objective)]
                analytic = soft_threshold(np.array([v]), t)[0]
                assert abs(analytic - best) <= 5e-5

    def test_zero_threshold_is_identity(self):
        v = np.array([1.0 + 2.0j, -0.5, 0.0])
        np.testing.assert_array_equal(soft_threshold(v, 0.0), v)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.array([1.0]), -0.1)

    def test_a_threshold_row_applies_per_column(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        t = np.array([0.0, 0.5, 2.0])
        out = soft_threshold(v, t)
        for j in range(3):
            assert out[:, j].tobytes() == soft_threshold(v[:, j], t[j]).tobytes()
        with pytest.raises(ValueError):
            soft_threshold(v, np.array([0.1, -1e-9, 0.2]))


class TestArgmaxK:
    def test_picks_largest_magnitudes(self):
        np.testing.assert_array_equal(argmax_k(np.array([1.0, -5.0, 3.0]), 2), [1, 2])

    def test_result_is_sorted_ascending(self):
        idx = argmax_k(np.array([0.1, 9.0, 0.2, 8.0, 7.0]), 3)
        np.testing.assert_array_equal(idx, [1, 3, 4])

    def test_ties_break_toward_the_lowest_index(self):
        np.testing.assert_array_equal(argmax_k(np.array([2.0, -2.0, 1.0]), 1), [0])
        np.testing.assert_array_equal(argmax_k(np.array([1.0, 3.0, 3.0, 3.0]), 2), [1, 2])

    def test_complex_magnitudes(self):
        v = np.array([1.0 + 1.0j, 2.0, 0.1j])  # |v| = [sqrt(2), 2, 0.1]
        np.testing.assert_array_equal(argmax_k(v, 2), [0, 1])

    def test_k_bounds_enforced(self):
        with pytest.raises(ValueError):
            argmax_k(np.array([1.0, 2.0]), 0)
        with pytest.raises(ValueError):
            argmax_k(np.array([1.0, 2.0]), 3)

    def test_each_row_of_a_stack_is_picked_as_alone(self):
        # rows longer than 16 entries, where an unstable sort breaks ties
        # differently, with tied magnitudes and exact zeros
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((6, 40)) + 1j * rng.standard_normal((6, 40))
        rows[1, [2, 5, 7, 11]] = [9.0, -9.0, 9j, 9.0]
        rows[2] = np.round(rows[2].real)  # ties among small integers and zeros
        rows[3] = 0.0
        rows[4, ::2] = 0.0
        rows[5] = rng.integers(-2, 3, size=40) * np.exp(0.5j * np.pi * rng.integers(0, 4, size=40))
        for k in (1, 3, 4, 21, 40):
            stacked = argmax_k(rows, k)
            assert stacked.shape == (6, k)
            for row, picked in zip(rows, stacked):
                np.testing.assert_array_equal(picked, argmax_k(row, k))
                # the definition: magnitude first, then the lowest index
                expected = sorted(range(40), key=lambda i: (-abs(row[i]), i))[:k]
                np.testing.assert_array_equal(picked, sorted(expected))
            np.testing.assert_array_equal(argmax_k(rows.reshape(2, 3, 40), k), stacked.reshape(2, 3, k))
        np.testing.assert_array_equal(argmax_k(rows[1:2], 3), [[2, 5, 7]])
        np.testing.assert_array_equal(argmax_k(rows[3:4], 2), [[0, 1]])

    def test_one_atom_is_the_first_strongest_and_nan_sorts_last(self):
        # k = 1 against the sort definition: magnitude first, NaN after every
        # number, then the lowest index
        rng = np.random.default_rng(9)
        rows = rng.integers(-2, 3, size=(8, 40)) * np.exp(0.5j * np.pi * rng.integers(0, 4, size=(8, 40)))
        rows[1] = 0.0
        rows[2, [3, 17]] = np.nan
        rows[3, 0] = complex(np.nan, 1.0)
        rows[4] = np.nan
        rows[5, [6, 30]] = np.inf
        rows[6, 9] = np.nan
        rows[6, [4, 20]] = -np.inf
        rows[7, [2, 8]] = 3.0, 3j
        for stack in (rows, rows[[0, 1, 5, 7]]):
            picked = argmax_k(stack, 1)
            assert picked.shape == (len(stack), 1)
            for row, top in zip(stack, picked):
                nan = np.isnan(np.abs(row))
                mags = np.where(nan, 0.0, np.abs(row))
                expected = min(range(40), key=lambda i: (nan[i], -mags[i], i))
                assert top.tolist() == [expected] == argmax_k(row, 1).tolist()
        assert argmax_k(rows[7], 1).tolist() == [2]
        assert argmax_k(rows[4], 1).tolist() == [0]
        assert argmax_k(rows[2], 1).tolist() != [3]

    def test_k_is_checked_against_the_last_axis(self):
        assert argmax_k(np.ones((5, 4)), 4).shape == (5, 4)
        with pytest.raises(ValueError):
            argmax_k(np.ones((5, 4)), 5)
        with pytest.raises(ValueError):
            argmax_k(np.ones((5, 4)), 0)


class TestLeastSquares:
    def test_square_system_matches_direct_solve(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        np.testing.assert_allclose(least_squares(b, y), np.linalg.solve(b, y), atol=1e-12)

    def test_overdetermined_matches_normal_equations(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        bh = b.conj().T
        expected = np.linalg.solve(bh @ b, bh @ y)
        np.testing.assert_allclose(least_squares(b, y), expected, atol=1e-12)

    def test_duplicated_column_returns_the_minimum_norm_solution(self):
        rng = np.random.default_rng(2)
        col = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        b = np.stack([col, col], axis=1)
        y = 3.0 * col
        s = least_squares(b, y)
        np.testing.assert_allclose(s, np.linalg.pinv(b) @ y, atol=1e-10)
        # the minimum-norm split puts 1.5 on each copy
        np.testing.assert_allclose(s, [1.5, 1.5], atol=1e-10)

    def test_full_rank_ill_conditioned_system_is_solved_to_cond_eps(self):
        # singular values 1 .. 1e-8 all lie above RANK_RTOL: no rank is cut,
        # and the planted solution comes back to about cond(b) * eps
        m, k, cond = 12, 5, 1e8
        for seed in range(5):
            rng = np.random.default_rng(seed)
            u, _ = np.linalg.qr(rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k)))
            v, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
            b = (u * np.logspace(0, -np.log10(cond), k)) @ v.conj().T
            x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            s = least_squares(b, b @ x)
            assert np.linalg.norm(s - x) <= cond * np.finfo(float).eps * np.linalg.norm(x)

    def test_underdetermined_matches_pinv(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        np.testing.assert_allclose(least_squares(b, y), np.linalg.pinv(b) @ y, atol=1e-10)

    def test_non_finite_input_returns_nan_without_raising(self):
        b = np.eye(4, 2, dtype=complex)
        s = least_squares(b, np.array([1.0, np.nan, 0.0, 0.0]))
        assert s.shape == (2,) and np.isnan(s).all()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            least_squares(np.ones((3, 2)), np.ones(4))
        with pytest.raises(ValueError):
            least_squares(np.ones(3), np.ones(3))


def gram_least_squares_one(b, gram, y):
    """gram_least_squares on a stack of one system: (solution, solved)."""
    s, solved = gram_least_squares(b[None], gram[None], y[None])
    assert s.shape == (1, b.shape[1]) and solved.shape == (1,)
    return s[0], solved[0]


class TestGramLeastSquares:
    def test_matches_the_svd_solve_on_partial_dft_supports(self):
        rng = np.random.default_rng(4)
        for seed in range(20):
            d = partial_fourier(64, 26, seed)
            support = np.sort(rng.choice(64, size=rng.integers(1, 14), replace=False))
            b = d.matrix[:, support]
            y = rng.standard_normal(26) + 1j * rng.standard_normal(26)
            s, solved = gram_least_squares_one(b, d.gram[np.ix_(support, support)], y)
            assert solved
            expected = least_squares(b, y)
            assert np.linalg.norm(s - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_refinement_keeps_an_ill_conditioned_support_at_svd_accuracy(self):
        # column 5 is column 2 plus a 1e-3 multiple of column 9: cond(b) ~ 2e3,
        # within GRAM_RTOL; the uncorrected normal equations miss by ~5e-10
        d = partial_fourier(16, 7, 0)
        matrix = d.matrix.copy()
        matrix[:, 5] = matrix[:, 2] + 1e-3 * matrix[:, 9]
        b = matrix[:, [1, 2, 5]]
        y = np.random.default_rng(5).standard_normal(7) + 0.5j
        s, solved = gram_least_squares_one(b, b.conj().T @ b, y)
        assert solved
        expected = least_squares(b, y)
        assert np.linalg.norm(s - expected) <= 1e-11 * np.linalg.norm(expected)

    # an exact copy fails the factorization; a 1e-6 perturbation factors
    # but fails the GRAM_RTOL diagonal test
    @pytest.mark.parametrize("perturbation", [0.0, 1e-6])
    def test_duplicated_column_falls_back_to_the_svd_solve(self, perturbation):
        d = partial_fourier(16, 7, 0)
        matrix = d.matrix.copy()
        matrix[:, 5] = matrix[:, 2] + perturbation * matrix[:, 9]
        support = np.array([1, 2, 5])
        y = 3.0 * matrix[:, 2] + matrix[:, 1]
        b = matrix[:, support]
        s, solved = gram_least_squares_one(b, b.conj().T @ b, y)
        assert not solved
        dup = Dictionary.from_matrix(matrix)
        block = _CosampBlock(y[None], dup, SolverConfig(kappa=3))
        assert block.solve(support[None], y[None])[0].tobytes() == least_squares(b, y).tobytes()

    def test_nan_right_hand_side_gives_non_finite_values(self):
        d = partial_fourier(16, 7, 1)
        support = np.array([0, 3, 9])
        b = d.matrix[:, support]
        y = np.ones(7, dtype=complex)
        y[2] = np.nan
        s, solved = gram_least_squares_one(b, d.gram[np.ix_(support, support)], y)
        assert solved and s.shape == (3,) and not np.isfinite(s).any()

    def test_real_and_complex_systems_each_get_their_own_routines(self):
        # the LAPACK routines are looked up once per dtype: a real system
        # solved between two complex ones stays real, and each matches the
        # SVD solve
        rng = np.random.default_rng(6)
        for dtype in (complex, float, complex):
            b = rng.standard_normal((9, 4)).astype(dtype)
            y = rng.standard_normal(9).astype(dtype)
            if dtype is complex:
                b, y = b + 1j * rng.standard_normal((9, 4)), y + 0.5j
            s, solved = gram_least_squares_one(b, b.conj().T @ b, y)
            assert solved and s.dtype == np.result_type(dtype)
            expected = least_squares(b, y)
            assert np.linalg.norm(s - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_real_matrix_with_complex_measurements(self):
        # the real Gram stack is factored in the complex routines' dtype
        rng = np.random.default_rng(8)
        b = rng.standard_normal((2, 9, 4))
        y = rng.standard_normal((2, 9)) + 1j * rng.standard_normal((2, 9))
        s, solved = gram_least_squares(b, b.transpose(0, 2, 1) @ b, y)
        assert solved.all() and s.dtype == np.complex128
        for j in range(2):
            expected = least_squares(b[j], y[j])
            assert np.linalg.norm(s[j] - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_a_numpy_without_the_routines_fails_before_any_tile(self, monkeypatch):
        # the zero-pixel block looks the routines up before any tile or
        # worker starts; a failed lookup is not cached
        monkeypatch.setattr(kernels, "SYMBOL_DECORATIONS", (("missing_", "", np.int64),))
        kernels.numpy_functions.cache_clear()
        tiles = []
        monkeypatch.setattr(solvers, "_solve_block", lambda *args: tiles.append(args))
        d = partial_fourier(16, 7, 0)
        with pytest.raises(RuntimeError, match="exports none of missing_zposv_"):
            solvers.recover_cube(np.ones((2, 2, 7)), d, SolverConfig(kappa=2), "gomp", jobs=2)
        assert tiles == []

    def test_each_row_of_a_mixed_stack_gets_its_lone_bytes(self):
        # the middle support holds a duplicated column: that row is left at
        # zero and unmasked, the others get the bytes of a stack of one, and
        # no input is written
        matrix = partial_fourier(16, 7, 0).matrix.copy()
        matrix[:, 5] = matrix[:, 2]
        b = matrix.T[[[0, 3, 9], [1, 2, 5], [4, 6, 11]]].transpose(0, 2, 1)
        gram = b.conj().transpose(0, 2, 1) @ b
        y = np.random.default_rng(7).standard_normal((3, 7)) + 0.5j
        inputs = [a.tobytes() for a in (b, gram, y)]
        s, solved = gram_least_squares(b, gram, y)
        assert solved.tolist() == [True, False, True] and not s[1].any()
        for j in (0, 2):
            assert s[j].tobytes() == gram_least_squares_one(b[j], gram[j], y[j])[0].tobytes()
        assert [a.tobytes() for a in (b, gram, y)] == inputs


def scipy_gram_least_squares(b, gram, y):
    """gram_least_squares on scipy's LAPACK, the oracle: per row a potrf,
    then a potrs for the solve and one for the correction, with the same
    stacked products and the same GRAM_RTOL test."""
    dtype = np.result_type(b, y)
    potrf, potrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), dtype=dtype)
    factors, info = zip(*(potrf(g.astype(dtype)) for g in gram))
    diag = np.array(factors).diagonal(axis1=1, axis2=2).real
    solved = (np.array(info) == 0) & (diag.min(axis=1) > GRAM_RTOL * diag.max(axis=1))
    bh = b.conj().transpose(0, 2, 1)
    s = matvecs(bh, y)
    rows = np.flatnonzero(solved)
    for j in rows:
        s[j] = potrs(factors[j], s[j])[0]
    s[~solved] = 0
    rhs = matvecs(bh, y - matvecs(b, s))
    for j in rows:
        rhs[j] = potrs(factors[j], rhs[j])[0]
    rhs[~solved] = 0
    return s + rhs, solved


def random_stack(rng, rows, m, k, dtype):
    """A (rows, m, k) stack of dtype columns with its Gram stack."""
    b = rng.standard_normal((rows, m, k))
    if dtype is complex:
        b = b + 1j * rng.standard_normal((rows, m, k))
    return b, b.conj().transpose(0, 2, 1) @ b


@pytest.mark.usefixtures("scipy_blas_threads_as_numpy")
class TestScipyOracle:
    """gram_least_squares and least_squares run on numpy's own LAPACK; each
    result equals, bit for bit, the one scipy's routines give."""

    @staticmethod
    def assert_same_bytes(b, gram, y):
        s, solved = gram_least_squares(b, gram, y)
        expected, expected_solved = scipy_gram_least_squares(b, gram, y)
        assert solved.tolist() == expected_solved.tolist()
        assert s.dtype == expected.dtype and s.tobytes() == expected.tobytes()
        return solved

    @pytest.mark.parametrize("dtype", [complex, float])
    def test_random_stacks(self, dtype):
        rng = np.random.default_rng(11)
        for _ in range(60):
            m = int(rng.integers(1, 80))
            b, gram = random_stack(rng, int(rng.integers(1, 40)), m, int(rng.integers(1, m + 1)), dtype)
            y = rng.standard_normal(b.shape[:2]).astype(dtype)
            assert self.assert_same_bytes(b, gram, y).all()

    def test_real_measurements_on_complex_columns(self):
        # the greedy refit of real rows: complex atoms, float64 measurements
        rng = np.random.default_rng(12)
        b, gram = random_stack(rng, 30, 51, 12, complex)
        self.assert_same_bytes(b, gram, rng.standard_normal((30, 51)))

    def test_rows_that_fail_the_factorization(self):
        # exact copies of a column fail potrf; the other rows still solve
        rng = np.random.default_rng(13)
        b, _ = random_stack(rng, 8, 20, 5, complex)
        b[::2, :, 3] = b[::2, :, 1]
        gram = b.conj().transpose(0, 2, 1) @ b
        solved = self.assert_same_bytes(b, gram, rng.standard_normal((8, 20)) + 0.5j)
        assert solved.tolist() == [False, True] * 4

    def test_rows_at_the_gram_rtol_cutoff(self):
        # orthonormal columns scaled to 1 and r: the factor's diagonal ratio
        # is r to round-off, on both sides of GRAM_RTOL
        rng = np.random.default_rng(14)
        q, _ = np.linalg.qr(rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2)))
        ratios = GRAM_RTOL * np.array([1 - 1e-9, 1 - 1e-15, 1, 1 + 1e-15, 1 + 1e-9])
        b = q * np.stack([np.ones_like(ratios), ratios], axis=1)[:, None, :]
        gram = b.conj().transpose(0, 2, 1) @ b
        solved = self.assert_same_bytes(b, gram, rng.standard_normal((5, 12)) + 0j)
        assert not solved[0] and solved[-1]

    def test_non_finite_measurements(self):
        rng = np.random.default_rng(15)
        b, gram = random_stack(rng, 4, 16, 3, complex)
        y = rng.standard_normal((4, 16)) + 0j
        y[1, 5], y[3, 0] = np.nan, np.inf
        with np.errstate(invalid="ignore"):  # inf - inf in the residual
            self.assert_same_bytes(b, gram, y)
            s, _ = gram_least_squares(b, gram, y)
        assert np.isfinite(s[[0, 2]]).all() and not np.isfinite(s[[1, 3]]).any()

    def test_a_lone_row_gets_the_bytes_of_its_row_in_a_256_row_stack(self):
        rng = np.random.default_rng(16)
        b, gram = random_stack(rng, 256, 79, 12, complex)
        y = rng.standard_normal((256, 79))
        stacked, _ = gram_least_squares(b, gram, y)
        self.assert_same_bytes(b, gram, y)
        for j in (0, 117, 255):
            lone = b[j : j + 1], gram[j : j + 1], y[j : j + 1]
            assert self.assert_same_bytes(*lone).all()
            assert gram_least_squares(*lone)[0].tobytes() == stacked[j].tobytes()

    @pytest.mark.parametrize("b_dtype, y_dtype", [(complex, complex), (float, float), (complex, float)])
    def test_least_squares_is_scipy_gelsd(self, b_dtype, y_dtype):
        # overdetermined, square, underdetermined and rank-deficient systems,
        # and singular values on both sides of RANK_RTOL
        rng = np.random.default_rng(17)
        for trial in range(120):
            m, k = (int(v) for v in rng.integers(1, 30, size=2))
            b = random_stack(rng, 1, m, k, b_dtype)[0][0]
            if trial % 3 == 1 and min(m, k) > 1:
                u, sv, vh = np.linalg.svd(b, full_matrices=False)
                sv[-1] = sv[0] * RANK_RTOL * rng.choice([0.0, 0.5, 0.999, 1.001, 2.0])
                b = (u * sv) @ vh
            y = rng.standard_normal(m).astype(y_dtype)
            if y_dtype is complex:
                y = y + 1j * rng.standard_normal(m)
            expected = scipy.linalg.lstsq(b, y, cond=RANK_RTOL, lapack_driver="gelsd")[0]
            s = least_squares(b, y)
            assert s.dtype == expected.dtype and s.tobytes() == expected.tobytes()


class TestResidualDelta:
    def test_l2_distance(self):
        assert residual_delta(np.array([1.0, 1.0]), np.array([0.0, 0.0])) == pytest.approx(
            np.sqrt(2.0)
        )

    def test_complex_inputs(self):
        assert residual_delta(np.array([1.0j]), np.array([0.0j])) == pytest.approx(1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            residual_delta(np.ones(2), np.ones(3))

    def test_each_row_of_a_stack_is_its_lone_distance(self):
        # rows of 51 contiguous entries, as a greedy tile's residuals: each
        # row's distance is, bit for bit, the one it gets alone
        rng = np.random.default_rng(7)
        r, r_prev = rng.standard_normal((2, 9, 51)) + 1j * rng.standard_normal((2, 9, 51))
        stacked = residual_delta(r, r_prev)
        assert stacked.shape == (9,)
        for j in range(9):
            assert stacked[j] == residual_delta(r[j], r_prev[j])


class FakeLibrary:
    """A library handle exporting the given names, each a C callback into
    this object: a thread-count setter and getter share one count, and every
    other name logs its calls."""

    def __init__(self, names, threads):
        self.threads, self.calls = threads, []
        self.exports = {name: self.callback(name) for name in names}

    def callback(self, name):
        if "set_num_threads" in name:
            def set_threads(count):
                self.calls.append((name, count))
                self.threads = count
            return ctypes.CFUNCTYPE(None, ctypes.c_int)(set_threads)
        if "get_num_threads" in name:
            return ctypes.CFUNCTYPE(ctypes.c_int)(lambda: self.threads)
        return ctypes.CFUNCTYPE(None)(lambda: self.calls.append((name,)))

    def __getattr__(self, name):
        try:
            return self.__dict__["exports"][name]
        except KeyError:
            raise AttributeError(name) from None

    __getitem__ = __getattr__


def decorated(name, decorations=SYMBOL_DECORATIONS):
    return [prefix + name + suffix for prefix, suffix, _ in decorations]


@pytest.fixture
def fake_numpy_library(monkeypatch):
    """Makes ctypes.CDLL open a FakeLibrary of the given names, logging each
    path opened; the lookup cache is cleared on both sides of the test, so
    no fake function outlives it."""
    opened = []

    def install(names, threads=2):
        library = FakeLibrary(names, threads)
        monkeypatch.setattr(kernels.ctypes, "CDLL", lambda path: opened.append(path) or library)
        return library, opened

    kernels.numpy_functions.cache_clear()
    yield install
    kernels.numpy_functions.cache_clear()


class TestOneBlasThread:
    @pytest.mark.parametrize("winner", range(len(SYMBOL_DECORATIONS)))
    def test_the_first_decoration_that_exports_every_name_wins(self, fake_numpy_library, winner):
        # each decoration before the winner exports the setter and posv
        # alone, and each from the winner on exports all four names
        names = [*decorated("openblas_set_num_threads"), *decorated("zposv_"),
                 *decorated("openblas_get_num_threads", SYMBOL_DECORATIONS[winner:]),
                 *decorated("zpotrs_", SYMBOL_DECORATIONS[winner:])]
        library, _ = fake_numpy_library(names)
        assert one_blas_thread() == [1]
        posv, potrs, integer = kernels._cholesky_routines(np.complex128)
        posv()
        potrs()
        prefix, suffix, expected = SYMBOL_DECORATIONS[winner]
        assert integer is expected
        assert library.calls == [(f"{prefix}openblas_set_num_threads{suffix}", 1),
                                 (f"{prefix}zposv_{suffix}",), (f"{prefix}zpotrs_{suffix}",)]

    def test_no_matching_decoration_is_a_no_op(self, fake_numpy_library):
        # a setter and a getter, but under different decorations
        library, _ = fake_numpy_library(["scipy_openblas_set_num_threads64_", "openblas_get_num_threads64_"])
        assert openblas_threads() == []
        assert one_blas_thread() == []
        assert library.calls == [] and library.threads == 2

    def test_the_lapack_error_names_every_symbol_tried(self, fake_numpy_library):
        _, opened = fake_numpy_library(["zposv_64_", "scipy_zpotrs_"])
        for attempt in (1, 2):
            with pytest.raises(RuntimeError) as error:
                kernels._cholesky_routines(np.complex128)
            for name in decorated("zposv_") + decorated("zpotrs_"):
                assert name in str(error.value)
            # a failed lookup is not cached: each attempt opens the handle
            assert len(opened) == attempt

    def test_repeated_pins_open_the_handle_once(self, fake_numpy_library):
        library, opened = fake_numpy_library(
            ["scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"], threads=3)
        for _ in range(3):
            assert one_blas_thread() == [1]
        assert opened == [kernels._umath_linalg.__file__]
        assert library.calls == [("scipy_openblas_set_num_threads64_", 1)]

    def test_a_bench_command_leaves_numpy_on_one_thread(self, tmp_path):
        threads = openblas_threads()
        if not threads:
            pytest.skip("numpy's library exports no known thread-count pair")
        [(setter, getter)] = threads
        setter(2)
        cube_file = tmp_path / "cube.hsc"
        save_cube(generate_synthetic_cube(4, 3, 24, 2, seed=5), cube_file)
        code = main(
            ["bench", "--input", str(cube_file), "--out", str(tmp_path / "bench"),
             "--algo", "fista", "--lambda", "0.1", "--t-conv", "0", "--max-iter", "50"]
        )
        assert code == EXIT_OK
        assert getter() == 1
