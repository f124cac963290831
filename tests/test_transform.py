"""Transform layer: DFT basis, sparsification, masks, measurement, dictionary."""

import pickle

import numpy as np
import pytest
import scipy.linalg

from hypercs import (
    Dictionary,
    build_dft_basis,
    build_dictionary,
    build_selection_mask,
    from_sparse_domain,
    lipschitz_constant,
    load_mask,
    measure,
    save_mask,
    sparsify,
    to_sparse_domain,
)
from hypercs.transform import half_weights

from helpers import partial_fourier


class TestDftBasis:
    def test_matrix_is_unitary(self):
        for n in (1, 2, 7, 8, 33):
            psi = build_dft_basis(n).matrix
            np.testing.assert_allclose(psi.conj().T @ psi, np.eye(n), atol=1e-12)

    def test_entries_match_the_closed_form(self):
        psi = build_dft_basis(8).matrix
        assert psi[0, 0] == pytest.approx(1.0 / np.sqrt(8.0))
        assert psi[1, 1] == pytest.approx(np.exp(-2j * np.pi / 8.0) / np.sqrt(8.0))

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 63, 64, 128, 198, 256])
    def test_matrix_equals_scipy_dft_byte_for_byte(self, n):
        expected = scipy.linalg.dft(n, scale="sqrtn")
        psi = build_dft_basis(n).matrix
        assert psi.dtype == expected.dtype and psi.shape == expected.shape
        assert psi.tobytes() == expected.tobytes()

    def test_matrix_is_built_once_per_size_and_read_only(self):
        a, b = build_dft_basis(12), build_dft_basis(12)
        assert a is not b and a.matrix is b.matrix
        assert not a.matrix.flags.writeable
        with pytest.raises(ValueError):
            a.matrix[0, 0] = 0.0

    def test_size_validation(self):
        with pytest.raises(ValueError):
            build_dft_basis(0)


class TestSparseDomain:
    def test_to_sparse_domain_agrees_with_fft_oracle(self):
        # x = basis^H f equals sqrt(N) * ifft(f) for this normalization
        rng = np.random.default_rng(0)
        f = rng.standard_normal(16)
        basis = build_dft_basis(16)
        np.testing.assert_allclose(
            to_sparse_domain(f, basis), np.sqrt(16.0) * np.fft.ifft(f), atol=1e-12
        )

    def test_constant_spectrum_concentrates_on_bin_zero(self):
        basis = build_dft_basis(8)
        x = to_sparse_domain(np.full(8, 3.0), basis)
        expected = np.zeros(8, dtype=complex)
        expected[0] = 3.0 * np.sqrt(8.0)
        np.testing.assert_allclose(x, expected, atol=1e-12)

    def test_round_trip_restores_the_spectrum(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal(24)
        basis = build_dft_basis(24)
        back, residue = from_sparse_domain(to_sparse_domain(f, basis), basis)
        np.testing.assert_allclose(back, f, atol=1e-10)
        assert residue < 1e-10

    def test_parseval_energy_is_preserved(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal(31)
        x = to_sparse_domain(f, build_dft_basis(31))
        assert np.linalg.norm(x) == pytest.approx(np.linalg.norm(f), abs=1e-10)

    def test_residue_reports_the_imaginary_leak(self):
        # a single off-center bin is not conjugate-symmetric, so the
        # synthesized spectrum has imaginary magnitude max |sin| / sqrt(N)
        basis = build_dft_basis(8)
        x = np.zeros(8, dtype=complex)
        x[1] = 1.0
        _, residue = from_sparse_domain(x, basis)
        assert residue == pytest.approx(1.0 / np.sqrt(8.0))

    def test_length_validation(self):
        basis = build_dft_basis(4)
        with pytest.raises(ValueError):
            to_sparse_domain(np.ones(5), basis)
        with pytest.raises(ValueError):
            from_sparse_domain(np.ones(3), basis)


class TestSparsify:
    def test_hand_case_keeps_only_the_outlier(self):
        # |x| = [4, 1, 1, 2]: mean 2, population std sqrt(1.5) ~ 1.2247;
        # with factor 0.1 only the 4 clears mean + 0.1*std
        x = np.array([4.0, -1.0, 1.0j, 2.0])
        out, stats = sparsify(x, 0.1)
        np.testing.assert_array_equal(out, [4.0, 0.0, 0.0, 0.0])
        assert stats.mean_magnitude == pytest.approx(2.0)
        assert stats.std_magnitude == pytest.approx(np.sqrt(1.5))
        assert stats.zero_fraction == pytest.approx(0.75)
        assert stats.threshold_factor == 0.1

    def test_factor_zero_keeps_entries_at_or_above_the_mean(self):
        out, stats = sparsify(np.array([4.0, -1.0, 1.0j, 2.0]), 0.0)
        np.testing.assert_array_equal(out, [4.0, 0.0, 0.0, 2.0])
        assert stats.zero_fraction == pytest.approx(0.5)

    def test_kept_entries_are_bit_identical(self):
        x = np.array([0.1 + 0.3j, 7.123456789012345e-1 * 9, 1e-3])
        out, _ = sparsify(x, 0.0)
        kept = out != 0
        assert np.array_equal(out[kept], x[kept])

    def test_constant_magnitudes_are_never_zeroed(self):
        x = np.array([5.0, -5.0, 5.0j])
        out, stats = sparsify(x, 3.0)
        np.testing.assert_array_equal(out, x)
        assert stats.std_magnitude == 0.0
        assert stats.zero_fraction == 0.0

    def test_never_grows_the_support(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(40) * (rng.uniform(size=40) > 0.4)
            out, _ = sparsify(x, rng.uniform(0.0, 2.0))
            assert np.count_nonzero(out) <= np.count_nonzero(x)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sparsify(np.array([1.0]), -0.5)
        with pytest.raises(ValueError):
            sparsify(np.array([1.0]), np.nan)
        with pytest.raises(ValueError):
            sparsify(np.array([]), 0.1)


class TestStacks:
    """Each transform function on an (x, y, n) stack equals one call per vector."""

    @pytest.fixture
    def spectra(self):
        f = np.random.default_rng(7).standard_normal((3, 4, 12))
        f[0, 1] = 0.0  # all-zero pixel: std 0, every entry kept
        return f

    def test_to_and_from_sparse_domain(self, spectra):
        basis = build_dft_basis(12)
        coeffs = to_sparse_domain(spectra, basis)
        back, residues = from_sparse_domain(coeffs, basis)
        assert coeffs.shape == spectra.shape and residues.shape == (3, 4)
        for ix, iy in np.ndindex(3, 4):
            assert np.array_equal(coeffs[ix, iy], to_sparse_domain(spectra[ix, iy], basis))
            one, residue = from_sparse_domain(coeffs[ix, iy], basis)
            assert np.array_equal(back[ix, iy], one) and residues[ix, iy] == residue

    def test_sparsify(self, spectra):
        coeffs = to_sparse_domain(spectra, build_dft_basis(12))
        coeffs[2, 3] = 5.0 * np.array([1.0, -1.0, 1.0j, -1.0j] * 3)  # constant magnitude
        out, stats = sparsify(coeffs, 0.4)
        for ix, iy in np.ndindex(3, 4):
            one, one_stats = sparsify(coeffs[ix, iy], 0.4)
            assert np.array_equal(out[ix, iy], one)
            assert stats.mean_magnitude[ix, iy] == one_stats.mean_magnitude
            assert stats.std_magnitude[ix, iy] == one_stats.std_magnitude
            assert stats.zero_fraction[ix, iy] == one_stats.zero_fraction
            assert stats.threshold_factor == one_stats.threshold_factor
        assert stats.zero_fraction[0, 1] == 0.0 and stats.std_magnitude[0, 1] == 0.0
        assert stats.zero_fraction[2, 3] == 0.0 and stats.std_magnitude[2, 3] == 0.0
        assert np.all(stats.zero_fraction[[0, 1, 2], [0, 0, 0]] > 0.0)

    def test_measure(self, spectra):
        mask = build_selection_mask(12, 0.4, 3)
        y = measure(spectra, mask)
        assert y.shape == (3, 4, 5) and y.dtype == np.float64 and y.flags.c_contiguous
        assert measure(spectra + 1j, mask).dtype == np.complex128
        for ix, iy in np.ndindex(3, 4):
            assert np.array_equal(y[ix, iy], measure(spectra[ix, iy], mask))

    def test_wrong_last_axis_rejected(self):
        basis = build_dft_basis(12)
        stack = np.ones((2, 3, 11))
        with pytest.raises(ValueError):
            to_sparse_domain(stack, basis)
        with pytest.raises(ValueError):
            from_sparse_domain(stack, basis)
        with pytest.raises(ValueError):
            measure(stack, build_selection_mask(12, 0.4, 0))
        with pytest.raises(ValueError):
            sparsify(np.ones((2, 0)), 0.1)


class TestSelectionMask:
    def test_rounding_half_away_from_zero(self):
        assert build_selection_mask(224, 0.4, 1).m == 90  # 89.6 rounds to 90
        assert build_selection_mask(9, 0.5, 0).m == 5  # 4.5 rounds to 5
        assert build_selection_mask(10, 0.44, 0).m == 4  # 4.4 rounds to 4

    def test_full_ratio_keeps_every_index(self):
        mask = build_selection_mask(10, 1.0, 7)
        np.testing.assert_array_equal(mask.indices, np.arange(10))

    def test_deterministic_per_seed(self):
        a = build_selection_mask(64, 0.4, 5)
        b = build_selection_mask(64, 0.4, 5)
        c = build_selection_mask(64, 0.4, 6)
        np.testing.assert_array_equal(a.indices, b.indices)
        assert not np.array_equal(a.indices, c.indices)

    def test_indices_sorted_unique_in_range(self):
        mask = build_selection_mask(100, 0.31, 9)
        idx = mask.indices
        assert idx.size == 31
        assert np.all(np.diff(idx) > 0)
        assert idx.min() >= 0 and idx.max() < 100

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            build_selection_mask(10, 0.0, 0)
        with pytest.raises(ValueError):
            build_selection_mask(10, 1.2, 0)

    def test_text_round_trip(self, tmp_path):
        mask = build_selection_mask(64, 0.4, 11)
        path = tmp_path / "mask.txt"
        save_mask(mask, path)
        text = path.read_text()
        assert "seed=11" in text and "n=64" in text and "indices=" in text
        loaded = load_mask(path)
        assert loaded.n == mask.n and loaded.seed == mask.seed
        np.testing.assert_array_equal(loaded.indices, mask.indices)

    def test_unreadable_mask_file_rejected(self, tmp_path):
        path = tmp_path / "mask.txt"
        path.write_text("seed=zero\nn=8\nindices=1,2\n")
        with pytest.raises(ValueError):
            load_mask(path)


class TestMeasure:
    def test_selects_the_masked_samples(self):
        mask = build_selection_mask(4, 0.5, 0)
        mask.indices = np.array([0, 2])
        y = measure(np.array([10.0, 20.0, 30.0, 40.0]), mask)
        np.testing.assert_array_equal(y, [10.0, 30.0])
        assert y.dtype == np.float64

    def test_full_mask_is_identity(self):
        mask = build_selection_mask(5, 1.0, 0)
        f = np.arange(5.0)
        np.testing.assert_array_equal(measure(f, mask).real, f)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        mask = build_selection_mask(12, 0.5, 2)
        f1, f2 = rng.standard_normal((2, 12))
        np.testing.assert_allclose(
            measure(2.5 * f1 + f2, mask), 2.5 * measure(f1, mask) + measure(f2, mask), atol=1e-12
        )

    def test_length_validation(self):
        with pytest.raises(ValueError):
            measure(np.ones(5), build_selection_mask(4, 0.5, 0))

    def test_agrees_with_the_dictionary_product(self):
        # for a conjugate-symmetric x the synthesized spectrum is real and
        # subsampling it equals applying the masked dictionary directly
        basis = build_dft_basis(16)
        x = np.zeros(16, dtype=complex)
        x[0] = 1.5
        x[3] = 2.0 * np.exp(1j * 0.4)
        x[13] = np.conj(x[3])
        f, residue = from_sparse_domain(x, basis)
        assert residue < 1e-12
        mask = build_selection_mask(16, 0.4, 3)
        d = build_dictionary(basis, mask)
        np.testing.assert_allclose(measure(f, mask), d.matrix @ x, atol=1e-10)


class TestLipschitz:
    def test_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 12)) + 1j * rng.standard_normal((6, 12))
        expected = float(np.linalg.eigvalsh(a.conj().T @ a).max())
        assert lipschitz_constant(a) == pytest.approx(expected, rel=1e-8)

    def test_unitary_row_selections_have_unit_constant(self):
        for n, seed in ((8, 0), (17, 1), (64, 2), (224, 3)):
            d = partial_fourier(n, max(2, int(0.4 * n)), seed)
            assert abs(d.lipschitz - 1.0) <= 1e-8

    def test_mask_that_skips_bin_zero(self):
        # rows that skip bin 0 annihilate the all-ones vector, yet the rows
        # are still orthonormal, so the constant is 1
        basis = build_dft_basis(8)
        mask = build_selection_mask(8, 0.5, 0)
        mask.indices = np.array([1, 2, 5])
        d = build_dictionary(basis, mask)
        assert abs(d.lipschitz - 1.0) <= 1e-8

    def test_zero_matrix(self):
        assert lipschitz_constant(np.zeros((3, 4))) == 0.0


class TestDictionary:
    def test_rows_follow_the_mask(self):
        basis = build_dft_basis(10)
        mask = build_selection_mask(10, 0.4, 1)
        d = build_dictionary(basis, mask)
        assert (d.m, d.n) == (4, 10)
        np.testing.assert_array_equal(d.matrix, basis.matrix[mask.indices])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_dictionary(build_dft_basis(10), build_selection_mask(8, 0.5, 0))

    def test_from_matrix_validates_dimensions(self):
        with pytest.raises(ValueError):
            Dictionary.from_matrix(np.ones(3))

    def test_admm_factor_solves_the_damped_gram_system(self):
        # Woodbury on A A^H = Q diag(eigenvalues) Q^H:
        # (A^H A + alpha I)^-1 u = (u - (Q^H A)^H D Q^H A u) / alpha, D = 1 / (eigenvalues + alpha)
        rng = np.random.default_rng(6)
        gaussian = rng.standard_normal((10, 24)) + 1j * rng.standard_normal((10, 24))
        for d in (partial_fourier(24, 10, 0), Dictionary.from_matrix(gaussian)):
            eigenvalues, q, qa = d.admm_factor()
            np.testing.assert_allclose(qa, q.conj().T @ d.matrix, rtol=0, atol=1e-12)
            u = rng.standard_normal(24) + 1j * rng.standard_normal(24)
            for alpha in (0.05, 0.3, 1.8, 10.0):
                v = (qa @ u) / (eigenvalues + alpha)
                x = (u - qa.conj().T @ v) / alpha
                expected = np.linalg.solve(d.gram + alpha * np.eye(24), u)
                assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)
                # v is Q^H A x, so Q v is A x
                ax = d.matrix @ expected
                assert np.linalg.norm(q @ v - ax) <= 1e-12 * np.linalg.norm(ax)

    def test_admm_factor_is_built_once(self):
        d = partial_fourier(12, 5, 1)
        assert "_admm_factor" not in vars(d)
        with pytest.raises(TypeError):  # the constructor takes the matrix alone
            Dictionary(matrix=d.matrix, _admm_factor=None)
        factor = d.admm_factor()
        assert d.admm_factor() is factor
        # any row selection of a unitary basis has orthonormal rows: A A^H = I
        np.testing.assert_allclose(factor[0], np.ones(5), rtol=0, atol=1e-12)

    def test_gram_is_built_once_and_pickled_with_the_dictionary(self):
        d = partial_fourier(12, 5, 2)
        assert "gram" not in vars(d) and "lipschitz" not in vars(d)
        gram = d.gram
        lipschitz = d.lipschitz
        factor = d.admm_factor()
        assert d.lipschitz is lipschitz
        assert lipschitz == lipschitz_constant(d.matrix)
        assert d.gram is gram
        np.testing.assert_array_equal(gram, d.matrix.conj().T @ d.matrix)
        # a worker's unpickled copy carries all three instead of rebuilding them
        copy = pickle.loads(pickle.dumps(d))
        copy.matrix = np.zeros_like(d.matrix)
        assert copy.gram.tobytes() == gram.tobytes()
        assert copy.lipschitz == lipschitz
        for part, original in zip(copy.admm_factor(), factor):
            assert part.tobytes() == original.tobytes()


def symmetric_vectors(n, k, seed):
    """(k, n) random conjugate-symmetric vectors: x[n - j] = conj(x[j])."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((k, n))  # a real spectrum's inverse DFT is one
    return to_sparse_domain(f, build_dft_basis(n))


class TestRealForm:
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 63, 64])
    def test_half_spectrum_keeps_the_products_and_the_norms(self, n):
        # A x = B u, |u| = |x| and sum(c |v|) = sum(|x|) for the half spectrum v of x
        d = partial_fourier(n, max(1, round(0.4 * n)), 1)
        b, bt = d.real_form
        h = n // 2 + 1
        assert b.shape == (d.m, 2 * h) and b.flags.c_contiguous and bt.flags.c_contiguous
        np.testing.assert_array_equal(bt, b.T)
        x = symmetric_vectors(n, 5, n)
        v = x[:, :h] * half_weights(n)
        v[:, 0] = v[:, 0].real  # round-off of the DFT
        if n % 2 == 0:
            v[:, -1] = v[:, -1].real
        u = v.view(np.float64)
        np.testing.assert_allclose(u @ bt, (x @ d.matrix.T).real, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(u, axis=1), np.linalg.norm(x, axis=1), rtol=1e-14)
        np.testing.assert_allclose(np.abs(v) @ half_weights(n), np.abs(x).sum(axis=1), rtol=1e-14)
        np.testing.assert_allclose(d.unfold(v), x, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 7, 8])
    def test_unfold_is_exactly_conjugate_symmetric(self, n):
        rng = np.random.default_rng(n)
        d = build_dft_basis(n)
        h = n // 2 + 1
        v = rng.standard_normal((3, h)) + 1j * rng.standard_normal((3, h))
        v[:, 0] = v[:, 0].real
        if n % 2 == 0:
            v[:, -1] = v[:, -1].real
        x = d.unfold(v)
        np.testing.assert_array_equal(x[:, -np.arange(n) % n], x.conj())
        np.testing.assert_allclose(x[:, :h] * half_weights(n), v, rtol=1e-15)

    def test_imaginary_columns_of_real_entries_are_zero(self):
        b, _ = partial_fourier(8, 4, 2).real_form
        assert not b[:, 1].any() and not b[:, 9].any()
        b, _ = partial_fourier(7, 3, 2).real_form
        assert not b[:, 1].any() and b[:, 7].any()

    def test_only_a_conjugate_symmetric_dictionary_has_one(self):
        rng = np.random.default_rng(4)
        assert Dictionary.from_matrix(np.eye(3)).real_form is None
        assert Dictionary.from_matrix(rng.standard_normal((4, 8))).real_form is None
        a = partial_fourier(16, 6, 3).matrix.copy()
        assert Dictionary.from_matrix(a).real_form is not None
        a[2, 5] += 1e-9  # beyond round-off
        assert Dictionary.from_matrix(a).real_form is None

    def test_built_once_with_its_factor(self):
        d = partial_fourier(12, 5, 1)
        assert "real_form" not in vars(d) and "_real_admm_factor" not in vars(d)
        form = d.real_form
        assert d.real_form is form
        factor = d.admm_factor(real=True)
        assert d.admm_factor(real=True) is factor and "_admm_factor" not in vars(d)
        eigenvalues, q, qb = factor
        assert q.dtype == qb.dtype == np.float64
        np.testing.assert_allclose(q @ np.diag(eigenvalues) @ q.T, form[0] @ form[1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(qb, q.T @ form[0], rtol=0, atol=1e-12)
