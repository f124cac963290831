"""Solver behavior: configs, stop rule, closed forms, recovery, cube runs."""

import functools
import hashlib
import os
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from hypercs import (
    CONVEX_SOLVERS,
    Dictionary,
    GREEDY_SOLVERS,
    NumericalFailure,
    RecoveryStats,
    SOLVERS,
    SolverConfig,
    admm,
    biht,
    cosamp,
    fista,
    gomp,
    lasso_objective,
    recover_cube,
    stop_check,
)
from hypercs.kernels import argmax_k, gram_least_squares, least_squares, matvecs, one_blas_thread, soft_threshold
from hypercs.solvers import (ADMM_MU, ADMM_TAU, REFIT_ENTRIES, STOP_REASONS, _AdmmBlock, _BihtBlock, _CosampBlock,
                             _FistaBlock, _GompBlock, _Pairs, _prune, _real_row_dots, _solve_block)
from hypercs.transform import half_weights

from helpers import desk_scene, partial_fourier, planted_instance

NO_LIMITS = dict(time_limit=None, max_iter=2000)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.lam == 0.1
        assert cfg.kappa == 1
        assert cfg.atoms_per_iter == 1
        assert cfg.mu == 0.1
        assert cfg.alpha == 1.8
        assert cfg.epsilon == 1e-8
        assert cfg.time_limit == 2.0
        assert cfg.max_iter is None

    def test_atoms_per_iter_defaults_to_a_fifth_of_kappa(self):
        assert SolverConfig(kappa=18).atoms_per_iter == 3
        assert SolverConfig(kappa=24).atoms_per_iter == 4
        assert SolverConfig(kappa=4).atoms_per_iter == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(lam=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(kappa=0)
        with pytest.raises(ValueError):
            SolverConfig(kappa=3, atoms_per_iter=4)
        with pytest.raises(ValueError):
            SolverConfig(mu=0.0)
        with pytest.raises(ValueError):
            SolverConfig(alpha=-0.5)
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.0)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SolverConfig(time_limit=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
        for name in ("lam", "mu", "alpha", "epsilon", "time_limit"):
            with pytest.raises(ValueError):
                SolverConfig(**{name: np.nan})
            SolverConfig(**{name: np.inf})


def stops(delta, charge, iterations, cfg):
    """stop_check on one column: (converged, stopped) as plain booleans."""
    converged, stopped = stop_check(np.array([delta]), np.array([charge]), iterations, cfg)
    return bool(converged[0]), bool(stopped[0])


class TestStopRule:
    def test_convergence_beats_timeout_and_iteration_cap(self):
        cfg = SolverConfig(epsilon=1e-2, time_limit=1.0, max_iter=5)
        assert stops(1e-3, 50.0, 99, cfg) == (True, True)

    def test_timeout_beats_iteration_cap(self):
        # the budget stops a column the cap would still let run
        cfg = SolverConfig(epsilon=1e-8, time_limit=1.0, max_iter=5)
        assert stops(1.0, 1.0, 2, cfg) == (False, True)
        assert stops(1.0, 1.0, 99, cfg) == (False, True)

    def test_iteration_cap(self):
        cfg = SolverConfig(epsilon=1e-8, time_limit=None, max_iter=5)
        assert stops(1.0, 0.0, 5, cfg) == (False, True)
        assert stops(1.0, 0.0, 4, cfg) == (False, False)

    def test_continue_otherwise(self):
        cfg = SolverConfig(epsilon=1e-8, time_limit=None, max_iter=None)
        assert stops(1.0, 1e9, 10**6, cfg) == (False, False)

    def test_convergence_is_strict(self):
        cfg = SolverConfig(epsilon=1e-8, time_limit=None)
        assert stops(1e-8, 0.0, 0, cfg) == (False, False)

    def test_applies_column_by_column(self):
        cfg = SolverConfig(epsilon=1e-2, time_limit=1.0, max_iter=None)
        converged, stopped = stop_check(
            np.array([1e-3, 1.0, 1.0]), np.array([0.0, 2.0, 0.5]), 3, cfg
        )
        assert converged.tolist() == [True, False, False]
        assert stopped.tolist() == [True, True, False]


class TestLassoObjective:
    def test_hand_value(self):
        # H = 0.5*||x - y||^2 + lam*||x||_1 with A = I
        d = Dictionary.from_matrix(np.eye(2))
        h = lasso_objective(np.array([1.0, -2.0]), np.zeros(2), d, 0.5)
        assert h == pytest.approx(0.5 * 5.0 + 0.5 * 3.0)

    def test_accepts_a_bare_matrix(self):
        h = lasso_objective(np.array([1.0]), np.array([2.0]), np.eye(1), 0.0)
        assert h == pytest.approx(0.5)


class TestConvexSolvers:
    def test_identity_dictionary_closed_form(self):
        # with A = I the lasso minimizer is the soft threshold of y
        d = Dictionary.from_matrix(np.eye(3))
        y = np.array([2.0, 0.1, -3.0])
        expected = np.array([1.5, 0.0, -2.5])
        for solver in (fista, admm):
            result = solver(y, d, SolverConfig(lam=0.5, **NO_LIMITS))
            assert result.converged
            np.testing.assert_allclose(result.x.real, expected, atol=1e-6)
            np.testing.assert_allclose(result.x.imag, 0.0, atol=1e-8)

    def test_fista_and_admm_reach_the_same_objective(self):
        for seed in range(3):
            d, _, y = planted_instance(24, 10, 4, seed, coeffs="mag")
            cfg = SolverConfig(lam=0.1, time_limit=None, max_iter=200000)
            h_f = lasso_objective(fista(y, d, cfg).x, y, d, cfg.lam)
            h_a = lasso_objective(admm(y, d, cfg).x, y, d, cfg.lam)
            assert abs(h_f - h_a) <= 1e-6 * max(1.0, abs(h_f))

    def test_admm_x_update_solves_each_columns_damped_system(self):
        # at lam = 0 the shrinkage is the identity, so z - w after one step is
        # the x-update's solution of (A^H A + alpha_j I) x = A^H y + alpha_j (z - w)
        rng = np.random.default_rng(3)
        d = Dictionary.from_matrix(rng.standard_normal((6, 15)) + 1j * rng.standard_normal((6, 15)))
        y = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        block = _AdmmBlock(y, d, SolverConfig(lam=0.0))
        alpha = np.array([[0.05], [0.3], [1.8], [10.0]])
        block.penalize(alpha)
        block.z = rng.standard_normal((4, 15)) + 1j * rng.standard_normal((4, 15))
        block.w = rng.standard_normal((4, 15)) + 1j * rng.standard_normal((4, 15))
        w = block.w
        rhs = y @ d.matrix.conj() + alpha * (block.z - w)
        residual, _, _ = block.step(y, y)
        for j in range(4):
            x = np.linalg.solve(d.gram + alpha[j, 0] * np.eye(15), rhs[j])
            assert np.linalg.norm(block.z[j] - w[j] - x) <= 1e-12 * np.linalg.norm(x)
            np.testing.assert_allclose(residual[j], y[j] - d.matrix @ x, rtol=0, atol=1e-12)

    @pytest.fixture(scope="class")
    def desk_lasso(self):
        """The seed-1 16x16x64 desk scene at lambda 1e-3, recovered by fista
        and by admm: (dictionary, measurements, lam, cubes, iterations)."""
        d, meas = desk_scene(16, 16, 64, 4, seed=1, factor=0.1)
        cfg = SolverConfig(lam=1e-3, epsilon=1e-8, time_limit=None, max_iter=20_000)
        cubes, iterations = {}, {}
        for name in ("fista", "admm"):
            cubes[name], stats = recover_cube(meas, d, cfg, name)
            assert stats.n_converged == 256
            iterations[name] = stats.total_iterations
        return d, meas, cfg.lam, cubes, iterations

    @staticmethod
    def objectives(desk_lasso, name):
        d, meas, lam, cubes, _ = desk_lasso
        return np.array([[lasso_objective(cubes[name][ix, iy], meas[ix, iy], d, lam)
                          for iy in range(16)] for ix in range(16)])

    def test_admm_stops_at_the_lasso_minimum(self, desk_lasso):
        # at a fixed penalty of 1.8, pixel (2, 6) of this scene stopped
        # "converged" after 18,070 iterations, its objective 1.1e-2 above
        # fista's; balanced penalties reach fista's objective (or below it)
        # in at most twice fista's iterations
        *_, iterations = desk_lasso
        assert iterations["admm"] <= 2 * iterations["fista"]
        h_fista, h_admm = self.objectives(desk_lasso, "fista"), self.objectives(desk_lasso, "admm")
        assert (h_admm - h_fista <= 1e-9 * h_fista).all()

    def test_fista_stops_at_the_lasso_minimum(self, desk_lasso):
        # without restart, pixel (2, 6) of this scene stopped "converged"
        # after 590 iterations, its objective 1.69e-4 above admm's
        h_fista, h_admm = self.objectives(desk_lasso, "fista"), self.objectives(desk_lasso, "admm")
        assert (h_fista - h_admm <= 1e-9 * h_admm).all()

    def test_fista_objective_never_beats_the_zero_vector_by_accident(self):
        d, _, y = planted_instance(16, 7, 3, 0)
        cfg = SolverConfig(lam=0.1, **NO_LIMITS)
        result = fista(y, d, cfg)
        assert lasso_objective(result.x, y, d, cfg.lam) <= lasso_objective(
            np.zeros(16), y, d, cfg.lam
        )

    def test_zero_measurements_short_circuit(self):
        d = partial_fourier(8, 3, 0)
        for solver in (fista, admm):
            result = solver(np.zeros(3), d, SolverConfig())
            assert result.converged and result.iterations == 0
            assert result.final_delta == 0.0
            np.testing.assert_array_equal(result.x, np.zeros(8))


class TestGreedySolvers:
    @pytest.mark.parametrize("solver", [gomp, biht, cosamp])
    def test_single_atom_recovered_exactly(self, solver):
        d = partial_fourier(16, 7, 0)
        x0 = np.zeros(16, dtype=complex)
        x0[5] = 2.5
        y = d.matrix @ x0
        cfg = SolverConfig(kappa=1, atoms_per_iter=1, **NO_LIMITS)
        result = solver(y, d, cfg)
        assert result.converged
        # the first pass lands on the answer; one more confirms the zero delta
        assert result.iterations <= 2
        np.testing.assert_allclose(result.x, x0, atol=1e-10)

    @pytest.mark.parametrize("solver", [gomp, biht, cosamp])
    def test_zero_measurements_short_circuit(self, solver):
        d = partial_fourier(16, 7, 0)
        result = solver(np.zeros(7), d, SolverConfig(kappa=2))
        assert result.converged and result.iterations == 0

    def test_biht_moves_its_support_at_the_default_step(self):
        # the gradient step mu * A^H r alone is too small to displace any
        # current atom, so the strongest residual projection must still
        # enter the candidates; a support that stalls reports a zero delta
        # and a false convergence with the residual far from zero
        d, x0, y = planted_instance(64, 26, 5, 42)
        result = biht(y, d, SolverConfig(kappa=5, time_limit=None, max_iter=200))
        residual = np.linalg.norm(y - d.matrix @ result.x)
        assert result.converged
        assert residual <= 1e-10 * np.linalg.norm(y)
        np.testing.assert_allclose(result.x, x0, atol=1e-10)

    @pytest.mark.parametrize("name", GREEDY_SOLVERS)
    def test_output_never_exceeds_kappa_nonzeros(self, name):
        rng = np.random.default_rng(11)
        d = partial_fourier(32, 13, 2)
        for kappa in (1, 3, 5):
            cfg = SolverConfig(kappa=kappa, atoms_per_iter=1, time_limit=None, max_iter=60)
            y = rng.standard_normal(13) + 1j * rng.standard_normal(13)
            result = SOLVERS[name](y, d, cfg)
            assert np.count_nonzero(result.x) <= kappa

    def test_gomp_adds_several_atoms_per_iteration(self):
        d, x0, y = planted_instance(32, 16, 6, 1, coeffs="mag")
        result = gomp(y, d, SolverConfig(kappa=6, atoms_per_iter=3, **NO_LIMITS))
        assert result.converged
        np.testing.assert_allclose(result.x, x0, atol=1e-8)

    def test_gomp_stops_when_the_support_outgrows_the_measurements(self):
        # noise measurements never drive the residual delta to zero, so the
        # accumulated support hits the m ceiling and the last iterate is kept
        rng = np.random.default_rng(12)
        d = partial_fourier(16, 6, 3)
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        result = gomp(y, d, SolverConfig(kappa=6, atoms_per_iter=6, time_limit=None, max_iter=500))
        assert not result.converged
        assert np.count_nonzero(result.x) <= 6
        # counts end at the last completed iteration, the first: delta ||A x||
        assert result.iterations == 1
        assert result.final_delta == pytest.approx(np.linalg.norm(d.matrix @ result.x))

    def test_precondition_validation(self):
        d = partial_fourier(16, 6, 0)
        y = np.ones(6, dtype=complex)
        with pytest.raises(ValueError):
            gomp(y, d, SolverConfig(kappa=7, time_limit=None))  # kappa > m
        with pytest.raises(ValueError):
            biht(y, d, SolverConfig(kappa=7, time_limit=None))
        with pytest.raises(ValueError):
            cosamp(y, d, SolverConfig(kappa=7, time_limit=None))
        with pytest.raises(ValueError):
            cosamp(y, d, SolverConfig(kappa=9, time_limit=None))  # 2*kappa > n
        # checked before the all-zero short-circuit
        for solver in (gomp, biht, cosamp):
            with pytest.raises(ValueError):
                solver(np.zeros(6), d, SolverConfig(kappa=7, time_limit=None))
        with pytest.raises(ValueError):  # 2*kappa > n, kappa <= m
            cosamp(np.zeros(6), partial_fourier(8, 6, 0), SolverConfig(kappa=5, time_limit=None))


class TestStopIntegration:
    def test_iteration_cap_limits_the_work(self):
        d, _, y = planted_instance(32, 13, 4, 5)
        result = fista(y, d, SolverConfig(lam=1e-4, time_limit=None, max_iter=1))
        assert result.iterations == 1 and not result.converged
        assert result.stop_reason == "iter_cap"

    def test_expired_budget_stops_before_the_first_iteration(self):
        d, _, y = planted_instance(32, 13, 4, 6)
        result = fista(y, d, SolverConfig(lam=0.1, time_limit=1e-12))
        assert result.iterations == 0 and not result.converged
        assert result.stop_reason == "timeout"

    def test_measurement_length_validated(self):
        d = partial_fourier(8, 3, 0)
        with pytest.raises(ValueError):
            fista(np.ones(4), d, SolverConfig())


class TestNumericalFailure:
    def test_non_finite_measurements_raise_with_the_iteration(self):
        d = partial_fourier(8, 3, 0)
        y = np.array([np.nan, 1.0, 1.0], dtype=complex)
        with pytest.raises(NumericalFailure) as info:
            fista(y, d, SolverConfig(lam=0.1, time_limit=None))
        assert info.value.iteration == 1


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count each pool
    asks for and solves the tiles in this process."""

    def __init__(self, workers, max_workers, initializer, initargs):
        workers.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestRecoverCube:
    @pytest.fixture
    def pools(self, monkeypatch):
        """The worker counts of the pools recover_cube builds, in order."""
        workers = []
        monkeypatch.setattr("hypercs.solvers.ProcessPoolExecutor", functools.partial(RecordingPool, workers))
        monkeypatch.setattr("hypercs.solvers._POOL", {})
        return workers

    @pytest.fixture
    def measured(self):
        rng = np.random.default_rng(8)
        d = partial_fourier(16, 7, 1)
        x_true = np.zeros((2, 3, 16), dtype=complex)
        for ix in range(2):
            for iy in range(3):
                support = rng.choice(16, size=2, replace=False)
                x_true[ix, iy, support] = rng.uniform(1.0, 2.0, size=2)
        meas = np.einsum("mk,xyk->xym", d.matrix, x_true)
        return d, x_true, meas

    def test_recovers_every_pixel(self, measured):
        d, x_true, meas = measured
        cfg = SolverConfig(kappa=2, atoms_per_iter=1, time_limit=None, max_iter=50)
        cube, stats = recover_cube(meas, d, cfg, "gomp")
        assert cube.shape == (2, 3, 16)
        np.testing.assert_allclose(cube, x_true, atol=1e-8)
        assert stats.n_pixels == 6
        assert stats.n_converged == 6
        assert stats.n_failed == 0
        assert stats.convergence_pct == 100.0
        assert stats.total_iterations == stats.iterations.sum()

    def test_serial_runs_are_reproducible(self, measured):
        d, _, meas = measured
        cfg = SolverConfig(kappa=2, atoms_per_iter=1, time_limit=None, max_iter=50)
        cube1, _ = recover_cube(meas, d, cfg, "cosamp")
        cube2, _ = recover_cube(meas, d, cfg, "cosamp")
        np.testing.assert_array_equal(cube1, cube2)

    def test_worker_pool_matches_the_serial_run(self, measured):
        d, _, meas = measured
        cfg = SolverConfig(kappa=2, atoms_per_iter=1, time_limit=None, max_iter=50)
        serial, stats1 = recover_cube(meas, d, cfg, "gomp", jobs=1)
        pooled, stats2 = recover_cube(meas, d, cfg, "gomp", jobs=2)
        np.testing.assert_array_equal(serial, pooled)
        assert stats1.total_iterations == stats2.total_iterations
        assert stats1.n_converged == stats2.n_converged

    def test_workers_are_capped_at_the_tile_count(self, measured, pools):
        d, _, meas = measured
        cfg = SolverConfig(kappa=2, atoms_per_iter=1, time_limit=None, max_iter=50)
        serial, _ = recover_cube(meas[:, :2], d, cfg, "gomp", jobs=1)
        pooled, _ = recover_cube(meas[:, :2], d, cfg, "gomp", jobs=8)
        assert pools == [4]  # 2 x 2 pixels, one tile each
        np.testing.assert_array_equal(pooled, serial)
        recover_cube(meas[:1, :1], d, cfg, "gomp", jobs=2)
        assert pools == [4]  # one tile runs in this process

    @pytest.mark.parametrize("name", GREEDY_SOLVERS)
    def test_greedy_config_is_checked_before_any_pool(self, measured, pools, name):
        d, _, meas = measured
        with pytest.raises(ValueError):
            recover_cube(meas, d, SolverConfig(kappa=d.m + 1), name, jobs=2)
        assert pools == []

    def test_admm_cube_run_uses_the_cached_factorization(self, measured, monkeypatch):
        # one eigendecomposition, built in the parent before the workers fork
        d, _, meas = measured
        parent, eigh, calls = os.getpid(), np.linalg.eigh, []

        def parent_eigh(matrix):
            assert os.getpid() == parent, "a pool worker decomposed A A^H"
            calls.append(matrix.shape)
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", parent_eigh)
        for alpha in (1.8, 0.3):  # every starting penalty shares it
            cfg = SolverConfig(lam=0.05, alpha=alpha, time_limit=None, max_iter=5000)
            _, stats = recover_cube(meas, d, cfg, "admm", jobs=2)
            assert stats.n_converged == 6
        assert calls == [(7, 7)]

    @staticmethod
    def assert_pixels_match_their_lone_solves(meas, d, cfg, name):
        """Each pixel of an 8x8 scene takes the iterations and converged flag
        of its lone solve in a 256-pixel tile and in a worker's tile, with
        coefficients within 1e-12."""
        tiled, tiled_stats = recover_cube(np.tile(meas, (2, 2, 1)), d, cfg, name)
        pooled, pooled_stats = recover_cube(meas, d, cfg, name, jobs=2)
        tiled_iterations = tiled_stats.iterations.reshape(16, 16)
        tiled_converged = tiled_stats.converged.reshape(16, 16)
        for ix in range(8):
            for iy in range(8):
                single = SOLVERS[name](meas[ix, iy], d, cfg)
                for iterations, converged in ((tiled_iterations[ix, iy], tiled_converged[ix, iy]),
                                              (tiled_iterations[ix + 8, iy + 8], tiled_converged[ix + 8, iy + 8]),
                                              (pooled_stats.iterations[8 * ix + iy], pooled_stats.converged[8 * ix + iy])):
                    assert iterations == single.iterations
                    assert converged == single.converged
                for x in (tiled[ix, iy], tiled[ix + 8, iy + 8], pooled[ix, iy]):
                    np.testing.assert_allclose(x, single.x, rtol=0, atol=1e-12)

    def test_admm_pixels_are_independent_of_their_tile(self):
        # every row balances its own penalty: a pixel runs the same
        # iterations alone, in a 256-pixel tile and in a worker's tile
        d, meas = desk_scene(8, 8, 64, 4, seed=1, factor=0.01)
        cfg = SolverConfig(lam=0.01, time_limit=None, max_iter=20_000)
        y = meas.reshape(64, -1)
        block = _AdmmBlock(y, d, cfg)
        for _ in range(50):
            block.step(y, y)
        assert np.unique(block.alpha).size >= 3  # the penalties diverged
        self.assert_pixels_match_their_lone_solves(meas, d, cfg, "admm")

    def test_fista_pixels_restart_independently_of_their_tile(self):
        # every row restarts its own momentum: a pixel runs the same
        # iterations alone, in a 256-pixel tile and in a worker's tile
        d, meas = desk_scene(8, 8, 64, 4, seed=1, factor=0.01)
        cfg = SolverConfig(lam=0.01, time_limit=None, max_iter=20_000)
        y = meas.reshape(64, -1)
        block = _FistaBlock(y, d, cfg)
        block.step(y, y)  # from t = 1: no momentum yet
        first_restart = np.zeros(64, dtype=int)
        for iteration in range(2, 40):
            block.step(y, y)
            # a row that restarted extrapolates to its new iterate
            restarted = (block.z == block.x).all(axis=1)
            first_restart[(first_restart == 0) & restarted] = iteration
        assert np.unique(first_restart[first_restart > 0]).size >= 3  # rows restart apart
        self.assert_pixels_match_their_lone_solves(meas, d, cfg, "fista")

    @pytest.mark.parametrize("name", ["gomp", "admm"])
    def test_only_fista_builds_the_lipschitz_constant(self, measured, name):
        d, _, meas = measured
        cfg = SolverConfig(kappa=2, lam=0.05, time_limit=None, max_iter=50)
        recover_cube(meas, d, cfg, name)
        assert "lipschitz" not in vars(d)

    def test_fista_worker_run_builds_the_lipschitz_constant_in_the_parent(self, measured):
        d, _, meas = measured
        cfg = SolverConfig(lam=0.05, time_limit=None, max_iter=50)
        recover_cube(meas, d, cfg, "fista", jobs=2)
        assert abs(vars(d)["lipschitz"] - 1.0) <= 1e-8

    def test_failed_pixels_are_flagged_not_fatal(self, measured):
        d, _, meas = measured
        meas = meas.copy()
        meas[0, 1, 0] = np.nan
        cfg = SolverConfig(lam=0.1, time_limit=None, max_iter=400)
        cube, stats = recover_cube(meas, d, cfg, "fista")
        assert stats.n_failed == 1
        assert stats.failed_at.tolist() == [0, 1, 0, 0, 0, 0]
        np.testing.assert_array_equal(cube[0, 1], np.zeros(16))
        assert stats.n_converged == 5
        reasons = [STOP_REASONS[code] for code in stats.stop_reason]
        assert reasons == ["converged", "numerical_failure"] + 4 * ["converged"]

    @pytest.mark.parametrize("name", ["fista", "admm", "gomp", "biht", "cosamp"])
    def test_convex_tiles_match_per_pixel_solves(self, measured, name):
        d, _, meas = measured
        meas = meas.copy()
        meas[0, 1] = 0.0
        meas[1, 2, 0] = np.nan
        cfg = SolverConfig(lam=0.05, kappa=3, atoms_per_iter=3, time_limit=None, max_iter=5000)
        if name in GREEDY_SOLVERS:
            # noise: gomp's accumulated support outgrows the m = 7 measurements
            rng = np.random.default_rng(1)
            meas[1, 1] = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        cube, stats = recover_cube(meas, d, cfg, name)
        assert stats.n_zero_pixels == 1
        assert stats.failed_at.tolist() == [0, 0, 0, 0, 0, 1]
        if name in CONVEX_SOLVERS:
            assert stats.n_converged == 5
        if name == "gomp":
            assert not stats.converged[4] and 0 < stats.iterations[4] < cfg.max_iter
        for index in range(stats.n_pixels):
            ix, iy = divmod(index, 3)
            if stats.failed_at[index]:
                with pytest.raises(NumericalFailure) as info:
                    SOLVERS[name](meas[ix, iy], d, cfg)
                assert info.value.iteration == stats.failed_at[index]
                continue
            single = SOLVERS[name](meas[ix, iy], d, cfg)
            assert stats.iterations[index] == single.iterations
            assert stats.converged[index] == single.converged
            final_delta = stats.final_delta[index]
            if name in CONVEX_SOLVERS:
                assert final_delta == pytest.approx(single.final_delta, rel=1e-6, abs=1e-15)
                np.testing.assert_allclose(cube[ix, iy], single.x, rtol=0, atol=1e-12)
            else:
                assert final_delta == single.final_delta
                assert cube[ix, iy].tobytes() == single.x.tobytes()

    def test_admm_worker_tiles_match_the_serial_run(self, measured):
        d, _, meas = measured
        for name in ("admm", "gomp", "cosamp"):
            cfg = SolverConfig(lam=0.05, kappa=2, time_limit=None, max_iter=5000)
            serial, stats1 = recover_cube(meas, d, cfg, name, jobs=1)
            pooled, stats2 = recover_cube(meas, d, cfg, name, jobs=2)
            np.testing.assert_allclose(pooled, serial, rtol=0, atol=1e-12)
            assert stats1.iterations.tolist() == stats2.iterations.tolist()
            if name in GREEDY_SOLVERS:
                np.testing.assert_array_equal(pooled, serial)

    @pytest.mark.parametrize("name", ["fista", "admm", "gomp", "cosamp"])
    def test_expired_budget_stops_every_pixel_of_a_tile(self, measured, name):
        d, _, meas = measured
        cfg = SolverConfig(lam=0.05, kappa=2, time_limit=1e-12)
        _, stats = recover_cube(meas, d, cfg, name)
        assert not stats.failed_at.any()
        assert not stats.iterations.any() and not stats.converged.any()
        assert stats.stop_counts["timeout"] == stats.n_pixels

    def test_failed_pixels_stay_out_of_the_aggregates(self):
        stats = RecoveryStats(
            iterations=np.array([0, 3, 0, 5]),
            stop_reason=np.array([STOP_REASONS.index(reason) for reason in
                                  ("converged", "converged", "numerical_failure", "iter_cap")]),
            elapsed=np.array([0.5, 1.0, 4.0, 2.0]),
            final_delta=np.array([0.0, 1e-9, 0.0, 0.1]),
            failed_at=np.array([0, 0, 2, 0]),
        )
        assert (stats.n_pixels, stats.n_failed, stats.n_converged) == (4, 1, 2)
        assert stats.n_zero_pixels == 1
        assert stats.total_iterations == 8
        assert stats.recovery_time_s == 3.5
        assert stats.convergence_pct == 50.0
        assert stats.stop_counts == {"numerical_failure": 1, "converged": 2, "support_overflow": 0, "cycled": 0,
                                     "timeout": 0, "iter_cap": 1}

    def test_zero_pixels_counted_separately(self):
        d = partial_fourier(8, 3, 0)
        meas = np.zeros((1, 2, 3), dtype=complex)
        cube, stats = recover_cube(meas, d, SolverConfig(kappa=1), "gomp")
        assert stats.n_zero_pixels == 2
        assert stats.n_converged == 2
        assert stats.total_iterations == 0
        np.testing.assert_array_equal(cube, np.zeros((1, 2, 8)))

    def test_input_validation(self, measured):
        d, _, meas = measured
        with pytest.raises(ValueError):
            recover_cube(meas, d, SolverConfig(), "nope")
        with pytest.raises(ValueError):
            recover_cube(meas[:, :, :5], d, SolverConfig(), "fista")
        with pytest.raises(ValueError):
            recover_cube(meas[0], d, SolverConfig(), "fista")


class _ComplexFista(_FistaBlock):
    """FISTA's step written for complex rows alone: the reference that the
    general path of _FistaBlock.step matches bit for bit."""

    def step(self, y, residual):
        aux = self.z - self.inv_l * ((self.z @ self.fwd - y) @ self.adj)
        x_new = soft_threshold(aux, self.threshold)
        step = x_new - self.x
        restart = _real_row_dots(self.z - x_new, step) > 0
        t = np.where(restart, 1.0, self.t)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        self.z = x_new + ((t - 1.0) / t_new) * step
        self.x, self.t = x_new, t_new
        none = np.zeros(len(y), dtype=bool)
        return y - self.x @ self.fwd, none, none


class _ComplexAdmm(_AdmmBlock):
    """ADMM's step written for complex rows alone: the reference that the
    general path of _AdmmBlock.step matches bit for bit."""

    def step(self, y, residual):
        x = self.z - self.w
        x *= self.alpha
        x += self.b
        v = x @ self.qat
        v *= self.damping
        x -= v @ self.qac
        x *= self.inv_alpha
        w = x + self.w
        z = soft_threshold(w, self.lam * self.inv_alpha)
        w -= z
        r, s = x - z, z - self.z
        primal = _real_row_dots(r, r)
        dual = self.alpha**2 * _real_row_dots(s, s)
        self.z, self.w = z, w
        up, down = primal > ADMM_MU**2 * dual, dual > ADMM_MU**2 * primal
        if up.any() or down.any():
            scale = np.where(up, ADMM_TAU, np.where(down, 1.0 / ADMM_TAU, 1.0))
            self.w *= 1.0 / scale
            self.penalize(self.alpha * scale)
        none = np.zeros(len(y), dtype=bool)
        return y - v @ self.qt, none, none


BLOCK_TYPES = {"fista": _FistaBlock, "admm": _AdmmBlock}
COMPLEX_STEPS = {"fista": _ComplexFista, "admm": _ComplexAdmm}


class TestHalfSpectrum:
    """fista and admm on real measurements of a DFT row selection iterate on
    half spectra; every other call keeps the complex path."""

    @staticmethod
    def complex_path(meas, d, cfg, block_type):
        """The complex path's results: the pixels as one block of complex rows."""
        return _solve_block(meas.reshape(-1, meas.shape[-1]).astype(complex), d, cfg, block_type)

    @pytest.mark.parametrize("name", CONVEX_SOLVERS)
    @pytest.mark.parametrize(
        "scene, lam",
        [((8, 8, 64, 4, seed, 0.01), lam) for seed in (1, 2, 3) for lam in (0.01, 0.1)]
        + [((8, 8, 63, 4, 1, 0.01), 0.01)],
        ids=[f"desk-convex-seed{seed}-lam{lam}" for seed in (1, 2, 3) for lam in (0.01, 0.1)]
        + ["63-bands"],
    )
    def test_pixels_take_the_iterations_of_the_complex_path(self, scene, lam, name):
        d, meas = desk_scene(*scene)
        assert not meas.imag.any() and d.real_form is not None
        cfg = SolverConfig(lam=lam, time_limit=None, max_iter=20_000)
        cube, stats = recover_cube(meas, d, cfg, name)
        x, expected = self.complex_path(meas, d, cfg, BLOCK_TYPES[name])
        assert stats.iterations.tolist() == expected.iterations.tolist()
        assert stats.converged.tolist() == expected.converged.tolist()
        cube = cube.reshape(x.shape)
        error = np.linalg.norm(cube - x, axis=1)
        assert (error <= 1e-12 * np.linalg.norm(x, axis=1)).all()
        # exactly conjugate-symmetric, where the complex path is so to round-off
        n = d.n
        assert np.array_equal(cube[:, -np.arange(n) % n], cube.conj())
        assert not np.array_equal(x[:, -np.arange(n) % n], x.conj())

    @pytest.mark.parametrize("name", CONVEX_SOLVERS)
    @pytest.mark.parametrize("imag", [1e-3, 0.0], ids=["complex-pixel", "real-valued"])
    def test_complex_rows_keep_the_complex_step_bit_for_bit(self, name, imag):
        # complex-typed measurements take the complex path, even where every
        # imaginary part is 0: the dtype routes a call, not its values
        d, meas = desk_scene(8, 8, 64, 4, 1, 0.01)
        meas = meas.astype(complex)
        meas[3, 4, 2] += 1j * imag
        cfg = SolverConfig(lam=0.01, time_limit=None, max_iter=20_000)
        cube, stats = recover_cube(meas, d, cfg, name)
        x, expected = self.complex_path(meas, d, cfg, COMPLEX_STEPS[name])
        assert cube.reshape(x.shape).tobytes() == x.tobytes()
        assert stats.iterations.tolist() == expected.iterations.tolist()

    # the greedy solvers take conjugate pairs on float64 rows: TestConjugatePairs
    @pytest.mark.parametrize("name", GREEDY_SOLVERS)
    def test_greedy_pairs_follow_the_dtype(self, name):
        # the same values take pairs as float64 rows and atoms as complex
        # rows: only the first close every support, and gomp and biht take
        # fewer iterations on them (cosamp picks 2 * kappa entries either way)
        d, meas = desk_scene(16, 16, 128, 8, 2, 0.01)
        n = d.n
        for kappa in (8, 16):
            cfg = SolverConfig(kappa=kappa, time_limit=None, max_iter=200)
            real, real_stats = recover_cube(meas, d, cfg, name)
            cube, stats = recover_cube(meas.astype(complex), d, cfg, name)
            real, cube = real.reshape(-1, n) != 0, cube.reshape(-1, n) != 0
            assert (real == real[:, -np.arange(n) % n]).all()
            assert (np.count_nonzero(real, axis=1) <= kappa).all()
            if name != "cosamp":
                assert real_stats.total_iterations < stats.total_iterations
            if kappa == 16:
                assert (cube != cube[:, -np.arange(n) % n]).any(axis=1).sum() > 200

    @pytest.mark.parametrize("name", CONVEX_SOLVERS)
    @pytest.mark.parametrize("kind", ["identity", "gaussian"])
    def test_other_dictionaries_keep_the_complex_path(self, name, kind):
        rng = np.random.default_rng(7)
        matrix = np.eye(8) if kind == "identity" else rng.standard_normal((5, 8))
        d = Dictionary.from_matrix(matrix)
        assert d.real_form is None
        meas = rng.standard_normal((2, 3, d.m))  # real measurements
        cfg = SolverConfig(lam=0.05, time_limit=None, max_iter=5000)
        cube, _ = recover_cube(meas, d, cfg, name)
        x, _ = self.complex_path(meas, d, cfg, COMPLEX_STEPS[name])
        assert cube.reshape(x.shape).tobytes() == x.tobytes()

    def test_real_form_and_its_factor_are_built_before_the_workers_fork(self, monkeypatch):
        d, meas = desk_scene(4, 4, 64, 4, 1, 0.01)
        parent, eigh, calls = os.getpid(), np.linalg.eigh, []
        real_form = Dictionary.real_form.func

        def parent_eigh(matrix):
            assert os.getpid() == parent, "a pool worker decomposed B B^T"
            calls.append((matrix.dtype, matrix.shape))
            return eigh(matrix)

        def parent_real_form(self):
            assert os.getpid() == parent, "a pool worker built the real form"
            calls.append("real_form")
            return real_form(self)

        built = functools.cached_property(parent_real_form)
        built.__set_name__(Dictionary, "real_form")
        monkeypatch.setattr(Dictionary, "real_form", built)
        monkeypatch.setattr(np.linalg, "eigh", parent_eigh)
        cfg = SolverConfig(lam=0.01, time_limit=None, max_iter=20_000)
        serial, _ = self.complex_path(meas, d, cfg, _AdmmBlock)
        for name in CONVEX_SOLVERS:
            pooled, stats = recover_cube(meas, d, cfg, name, jobs=2)
            assert stats.n_converged == 16
        assert calls == [(np.complex128, (26, 26)), "real_form", (np.float64, (26, 26))]
        np.testing.assert_allclose(pooled.reshape(serial.shape), serial, rtol=0, atol=1e-12)


def lone_gram_solve(b, gram, y):
    """The corrected semi-normal equations on one (m, s) column block b of A,
    with 2-D by 1-D products: the bytes a stacked refit row must match."""
    potrf, potrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), dtype=np.complex128)
    factor, _ = potrf(gram)
    bh = b.conj().T
    s = potrs(factor, bh @ y)[0]
    return s + potrs(factor, bh @ (y - b @ s))[0]


class TestGreedyTiles:
    """Greedy tiles whose columns hold candidate sets of different sizes, on
    rows of a desk-greedy-shaped scene (16x16x128, kappa_true 8, seed 2):
    m = 51, n = 128."""

    @pytest.fixture(scope="class")
    def scene(self):
        # one OpenBLAS thread, as every command runs: on more, a busy host
        # slows the 200-iteration pixel's small products a hundredfold
        one_blas_thread()
        d, meas = desk_scene(16, 16, 128, 8, 2, 0.01)
        # row 4 holds gomp's 11-iteration pixel on atoms, row 14 cosamp's
        # pixel that cycles on atoms at kappa 16 and rows 12-15 its 3- and
        # 4-iteration ones
        return d, meas[[4, 12, 13, 14, 15]]

    # cosamp kappa 16: candidate sets of 32 to 48 entries; cosamp kappa 18:
    # up to 54 > m, so some columns halt while others run on; the greedy
    # solvers take atoms on complex rows and pairs on float64 rows
    @pytest.mark.parametrize(
        "name, kappa, dtype",
        [("cosamp", 16, float), ("gomp", 8, float), ("biht", 8, float), ("cosamp", 18, float),
         ("gomp", 8, complex), ("biht", 8, complex), ("cosamp", 16, complex)],
        ids=["cosamp-16", "gomp-8", "biht-8", "cosamp-18", "gomp-8-complex", "biht-8-complex", "cosamp-16-complex"],
    )
    def test_every_column_matches_its_single_pixel_solve(self, scene, name, kappa, dtype):
        d, meas = scene
        meas = meas.astype(dtype)
        cfg = SolverConfig(kappa=kappa, time_limit=None, max_iter=200)
        cube, stats = recover_cube(meas, d, cfg, name)
        counts = stats.stop_counts
        if kappa == 18:
            assert counts["support_overflow"] and counts["converged"]
        else:
            assert not counts["support_overflow"]
        assert counts["cycled"] == (name == "cosamp" and dtype is complex and kappa == 16)
        assert not counts["iter_cap"]
        for index in range(stats.n_pixels):
            ix, iy = divmod(index, meas.shape[1])
            single = SOLVERS[name](meas[ix, iy], d, cfg)
            assert cube[ix, iy].tobytes() == single.x.tobytes()
            assert stats.iterations[index] == single.iterations
            assert STOP_REASONS[stats.stop_reason[index]] == single.stop_reason
            assert stats.converged[index] == single.converged
            assert stats.final_delta[index] == single.final_delta

    def test_gomp_skips_only_a_refit_that_repeats_the_first(self, scene):
        # rows of 3, 4 and 5 accumulated atoms at kappa 4: only a 4-atom row
        # whose prune keeps it skips the second solve, and every row's
        # iterate is the bytes of refitting on its kappa strongest atoms;
        # complex rows take atoms
        d, meas = scene
        y = np.ascontiguousarray(meas.reshape(-1, d.m)[:30], dtype=complex)
        block = _GompBlock(y, d, SolverConfig(kappa=4, time_limit=None))
        rng = np.random.default_rng(5)
        candidates = np.zeros((30, d.n), dtype=bool)
        for row, size in zip(candidates, np.repeat([3, 4, 5], 10)):
            row[rng.choice(d.n, size=size, replace=False)] = True
        x, kept = block.fit(candidates, y)
        np.testing.assert_array_equal(kept, candidates)
        first = block.refit(candidates, y)
        top = np.zeros_like(candidates)
        for row, values in zip(top, first):
            row[argmax_k(values, 4)] = True
        assert (top == candidates).all(axis=1)[10:20].all()
        assert x.tobytes() == block.refit(top, y).tobytes()

    def test_gomp_pairs_skip_only_a_refit_that_repeats_the_first(self, scene):
        # float64 rows of 1, 2 and 3 accumulated pairs at kappa 4, each pair
        # half bin k's two columns 2k and 2k + 1 of the real form: the rows
        # of 1 and 2 pairs keep them and skip the second solve, a row of 3
        # is re-fit on the 2 strongest, and every row's iterate is the bytes
        # of refitting on its pruned support
        d, meas = scene
        y = np.ascontiguousarray(meas.reshape(-1, d.m)[:30])
        block = _GompBlock(y, d, SolverConfig(kappa=4, time_limit=None))
        rng = np.random.default_rng(5)
        candidates = np.zeros((30, 2 * (d.n // 2 + 1)), dtype=bool)
        for row, size in zip(candidates, np.repeat([1, 2, 3], 10)):
            bins = rng.choice(np.arange(1, d.n // 2), size=size, replace=False)
            row[2 * bins] = row[2 * bins + 1] = True
        refits = []

        def refit(supports, y, refit=block.refit):
            refits.append(len(supports))
            return refit(supports, y)

        block.refit = refit
        x, kept = block.fit(candidates, y)
        np.testing.assert_array_equal(kept, candidates)
        assert refits == [30, 10]
        # no bin here is its own mirror, so each pair's score is |v_k| / sqrt(2)
        top = np.zeros_like(candidates)
        for row, values, cand in zip(top, x.view(complex), candidates):
            bins = np.flatnonzero(cand[::2])
            strongest = bins[argmax_k(np.abs(values[bins]), min(2, bins.size))]
            row[2 * strongest] = row[2 * strongest + 1] = True
        np.testing.assert_array_equal(x != 0, top)
        assert x.tobytes() == block.refit(top, y).tobytes()

    @pytest.mark.usefixtures("scipy_blas_threads_as_numpy")
    def test_each_row_of_a_stacked_refit_is_its_refit_alone(self, scene):
        # rows of 1, 10 and 48 atoms, 14 of 48 so that their group spans
        # three REFIT_ENTRIES chunks (6, 6 and 2 rows); in the 48-atom group
        # a row on a duplicated column falls back to the SVD solve, and a
        # 10-atom row has a NaN measurement
        d, meas = scene
        matrix = d.matrix.copy()
        matrix[:, 5] = matrix[:, 2]
        dup = Dictionary.from_matrix(matrix)
        y = np.ascontiguousarray(meas.reshape(-1, d.m)[:30])
        y[27, 3] = np.nan
        block = _CosampBlock(y, dup, SolverConfig(kappa=16))
        rng = np.random.default_rng(6)
        supports = np.zeros((30, d.n), dtype=bool)
        sizes = rng.permutation(np.repeat([1, 10, 48], [6, 10, 14]))
        sizes[[11, 27]] = 48, 10
        for row, size in zip(supports, sizes):
            row[rng.choice(np.arange(6, d.n), size=size, replace=False)] = True
        supports[11, :] = False
        supports[11, [2, 5, *range(40, 86)]] = True
        assert np.count_nonzero(np.count_nonzero(supports, axis=1) == 48) > 2 * (REFIT_ENTRIES // (48 * d.m))
        x = block.refit(supports, y)
        for j, (support, row) in enumerate(zip(supports, x)):
            assert row.tobytes() == block.refit(supports[j:j + 1], y[j:j + 1])[0].tobytes()
            atoms = np.flatnonzero(support)
            assert not row[~support].any()
            b = matrix[:, atoms]
            if j == 11:
                assert row[atoms].tobytes() == least_squares(b, y[j]).tobytes()
            elif j == 27:
                assert not np.isfinite(row[atoms]).any()
            else:
                assert row[atoms].tobytes() == lone_gram_solve(b, dup.gram[np.ix_(atoms, atoms)], y[j]).tobytes()
                expected = least_squares(b, y[j])
                assert np.linalg.norm(row[atoms] - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_a_small_support_group_is_refit_in_one_stack(self, scene):
        # 256 float64 rows of 1 column of the real form each, as gomp's first
        # iteration holds a tile whose picks are all self-paired bins: 13,056
        # stacked entries, within REFIT_ENTRIES, so one solve call
        d, meas = scene
        y = np.ascontiguousarray(np.resize(meas.reshape(-1, d.m), (256, d.m)))
        block = _GompBlock(y, d, SolverConfig(kappa=4))
        supports = np.zeros(block.support.shape, dtype=bool)
        supports[np.arange(256), 2 * (np.arange(256) % (d.n // 2))] = True
        calls = []

        def solve(atoms, y, solve=block.solve):
            calls.append(len(atoms))
            return solve(atoms, y)

        block.solve = solve
        block.refit(supports, y)
        assert calls == [256]

    def test_a_stacked_refit_holds_a_chunk_of_rows_at_a_time(self, scene):
        # 256 rows of 48 candidate atoms: unchunked, the stacked atoms and
        # Gram blocks alone would take ~20 MiB, in 16-row chunks ~2.4 MiB,
        # and in chunks of REFIT_ENTRIES atom entries (6 rows) ~0.9 MiB
        d, meas = scene
        y = np.ascontiguousarray(np.resize(meas.reshape(-1, d.m), (256, d.m)))
        block = _CosampBlock(y, d, SolverConfig(kappa=16))
        rng = np.random.default_rng(8)
        supports = np.zeros((256, d.n), dtype=bool)
        for row in supports:
            row[rng.choice(d.n, size=48, replace=False)] = True
        block.refit(supports[:1], y[:1])  # LAPACK routines looked up
        tracemalloc.start()
        try:
            x = block.refit(supports, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - x.nbytes < 1.5 * 2**20

    def test_prune_keeps_the_kappa_strongest_candidates_of_each_row(self):
        # the row-wise prune against argmax_k on each row's candidate
        # entries alone, kappa capped at the candidate count
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 20)) + 1j * rng.standard_normal((40, 20))
        x[::3] = np.round(x[::3].real)  # ties among small integers, exact zeros
        x[1::5, :8] = 2.0
        candidates = rng.uniform(size=x.shape) < rng.uniform(0.05, 0.9, size=(40, 1))
        candidates[np.arange(40), rng.integers(0, 20, size=40)] = True  # one at least
        candidates[0] = False
        candidates[0, 4] = True
        for kappa in (1, 3, 6, 20):
            kept = _prune(x, candidates, kappa)
            for row, cand, keep in zip(x, candidates, kept):
                support = np.flatnonzero(cand)
                expected = support[argmax_k(row[support], min(kappa, support.size))]
                np.testing.assert_array_equal(np.flatnonzero(keep), expected)


class TestCycles:
    """A greedy row whose candidate set repeats one it held at an earlier
    iteration stops as cycled: cosamp at kappa 16 on float64 rows of
    desk-greedy seed 2 (16x16x128, kappa_true 8), which takes pairs."""

    @pytest.fixture(scope="class")
    def scene(self):
        one_blas_thread()
        d, meas = desk_scene(16, 16, 128, 8, 2, 0.01)
        return d, meas, SolverConfig(kappa=16, time_limit=None, max_iter=200)

    @staticmethod
    def steps(d, y, cfg, count):
        """A lone row's candidate sets, kept supports and residuals over
        count iterations, and whether any iteration read a cycle."""
        block, residual, history, cycles = _CosampBlock(y[None], d, cfg), y[None], [], False
        for _ in range(count):
            candidates = block.candidates(matvecs(block.ah, residual))
            residual, _, cycled = block.step(y[None], residual)
            history.append((candidates.tobytes(), block.support.tobytes(), residual[0]))
            cycles |= cycled.any()
        return history, cycles

    def test_cycling_pixels_stop_as_their_lone_solves_do(self, scene):
        d, meas, cfg = scene
        cube, stats = recover_cube(meas, d, cfg, "cosamp")
        reasons = np.array(STOP_REASONS)[stats.stop_reason].reshape(16, 16)
        iterations = stats.iterations.reshape(16, 16)
        for pixel in ((7, 8), (7, 9)):
            assert reasons[pixel] == "cycled" and iterations[pixel] <= 8
        assert reasons[11, 11] == "converged"
        for ix in (7, 11):
            for iy in range(16):
                single = cosamp(meas[ix, iy], d, cfg)
                assert cube[ix, iy].tobytes() == single.x.tobytes()
                assert iterations[ix, iy] == single.iterations
                assert reasons[ix, iy] == single.stop_reason
                assert stats.final_delta[16 * ix + iy] == single.final_delta

    def test_a_period_two_cycle_alternates_between_two_poor_fits(self, scene):
        # (7, 8) read converged after 2 iterations on atoms, a stall; on
        # pairs its candidate sets alternate between two from iteration 2 on
        d, meas, cfg = scene
        y = meas[7, 8]
        history, _ = self.steps(d, y, cfg, 6)
        candidates = [entry[0] for entry in history]
        assert candidates[1] != candidates[2]
        assert candidates[1::2] == [candidates[1]] * 3 and candidates[2::2] == [candidates[2]] * 2
        for _, _, residual in history[1:]:
            assert 0.15 < np.linalg.norm(residual) / np.linalg.norm(y) < 0.16

    def test_a_repeated_kept_support_is_not_a_cycle(self, scene):
        # (11, 11) keeps the support of iteration 2 at iteration 3, with a
        # new residual, and converges at iteration 4: its candidate sets
        # never repeat
        d, meas, cfg = scene
        history, cycles = self.steps(d, meas[11, 11], cfg, 4)
        candidates, kept, residuals = zip(*history)
        assert kept[2] == kept[1] and np.linalg.norm(residuals[2] - residuals[1]) > 1e-2
        assert len(set(candidates)) == 4 and not cycles
        single = cosamp(meas[11, 11], d, cfg)
        assert (single.iterations, single.stop_reason) == (4, "converged")


# SHA-256 of the complex-typed greedy results on desk-greedy seed 1 (kappa 8,
# then 16: each cube's bytes, then each stats field's), as computed before
# gomp and biht took pairs on float64 rows.  Bytes depend on the BLAS/LAPACK
# arithmetic, so they are compared only where the products and refit that
# give ARITHMETIC_PIN give the bytes they gave then.
ATOM_PATH_PINS = {
    "gomp": "f31d34bac053ec62392952a2c32517676b4a9fd14b8b751fc075b4ffd99f74d5",
    "biht": "a4dc245d1eecfa1616134328b9407c554e2d33971bc9b77e368453fcbd6a32f8",
    "cosamp": "a449008fce5c8fbdc0484e03d84fbe50427e3cb23a9e2210d996e406d4b5d8f9",
}
ARITHMETIC_PIN = "31a6d42bfcc9f3ed5698b9403445f070376966a81b6ed9c1efa98ac1f370ba12"
# each pixel's iterations on float64 rows of desk-greedy seed 1, at kappa 8,
# then 16, as computed when gomp and biht picked pairs on n bins in complex
# arithmetic and cosamp picked atoms; every pixel converged
PAIR_ITERATIONS = {
    "gomp": ("5" * 256, "3" * 256),
    "biht": (
        (
            "3232223332342422223232322222322333222222222322223243323323222223322322322222232223234222332343332222"
            "2332232232222322234332322232232222333222223233323233332222332232322223232223343333322223222222223322"
            "23222432223232222233223322232223323322233322333322323222"
        ),
        (
            "2222222222232322222232222222322222222222222222222222323223222223222222222222232222232222232222322222"
            "2222222222222322222222322222232222222222222222222232232222222232322222222222222222222223222222222222"
            "23222322222222222223223222222222323322222222222222222222"
        ),
    ),
    "cosamp": (
        (
            "2222222222232322222232222222322222222222222222222222323223222223222222222222232222232222232222322222"
            "2222222222222322222222322222232222222222222222222232232222222232322222222222222222222223222222222222"
            "23222322222222222223223222222222323322222222222222222222"
        ),
        (
            "2222222222222322222222222222322222222222222222222222222222222223222222222222232222222222222222222222"
            "2222222222222222222222222222222222222222222222222222222222222232222222222222222222222222222222222222"
            "22222222222222222223222222222222222222222222222222222222"
        ),
    ),
}


def whole_pairs(mask, n):
    """Whether every row of a (k, 2h) column mask of the real form of n bins
    holds whole pairs: half bin k's imaginary column 2k + 1 with its real
    column 2k, and never that of a bin that is its own mirror."""
    h = n // 2 + 1
    paired = -np.arange(h) % n != np.arange(h)
    return mask.shape[1] == 2 * h and (mask[:, 1::2] == (mask[:, ::2] & paired)).all()


class TestConjugatePairs:
    """The greedy solvers on float64 rows of a DFT row selection work on the
    real form and pick and prune whole conjugate pairs from kappa 2 on;
    complex rows and kappa 1 take atoms.  Rows of a
    desk-greedy-shaped scene (16x16x128, kappa_true 8, seed 1): m = 51,
    n = 128, and 2 * 65 columns of the real form."""

    @pytest.fixture(scope="class")
    def scene(self):
        one_blas_thread()
        return desk_scene(16, 16, 128, 8, 1, 0.01)

    def test_pair_prune_keeps_the_strongest_candidate_pairs_within_kappa(self):
        # against a per-row walk down the candidate pairs ranked by |x_k| of
        # the conjugate-symmetric x each half spectrum stands for, for odd n
        # (one self-paired bin) and even n (two)
        rng = np.random.default_rng(4)
        for n in (15, 16):
            h = n // 2 + 1
            pairs, mirror, c = _Pairs(n), -np.arange(h) % n, half_weights(n)
            x = rng.standard_normal((40, h)) + 1j * rng.standard_normal((40, h))
            x[::3] = np.round(x[::3].real)  # ties among small integers, exact zeros
            x[:, mirror == np.arange(h)] = x[:, mirror == np.arange(h)].real  # self-paired bins are real
            u = (c * x).view(np.float64)
            half = rng.uniform(size=x.shape) < rng.uniform(0.05, 0.9, size=(40, 1))
            half[0] = False
            half[0, 0] = True  # a lone self-paired bin
            candidates = np.repeat(half, 2, axis=1)
            candidates[:, 1::2] &= mirror != np.arange(h)
            for kappa in (2, 3, 5, n):
                kept = pairs.prune(u, candidates, kappa)
                assert whole_pairs(kept, n)
                for row, cand, keep in zip(x, half, kept):
                    bins = np.flatnonzero(cand)
                    expected, held = np.zeros(h, dtype=bool), 0
                    for k in bins[np.argsort(-np.abs(row[bins]), kind="stable")]:
                        held += 1 if k == mirror[k] else 2
                        if held > kappa:
                            break
                        expected[k] = True
                    np.testing.assert_array_equal(keep[::2], expected)

    @pytest.mark.parametrize("name", GREEDY_SOLVERS)
    @pytest.mark.parametrize("kappa", [8, 16])
    def test_closed_supports_and_pixels_that_are_their_lone_solves(self, scene, name, kappa):
        d, meas = scene
        n, y = d.n, meas.reshape(-1, d.m)
        cfg = SolverConfig(kappa=kappa, time_limit=None, max_iter=200)
        cube, stats = recover_cube(meas, d, cfg, name)
        x = cube.reshape(-1, n)
        support = x != 0
        assert (support == support[:, -np.arange(n) % n]).all()
        assert (np.count_nonzero(support, axis=1) <= kappa).all()
        # every pixel converged, and to a fit, not a stall
        assert stats.n_converged == stats.n_pixels
        residual = np.linalg.norm(y - x @ d.matrix.T, axis=1)
        assert (residual <= 1e-6 * np.linalg.norm(y, axis=1)).all()
        for index in range(0, stats.n_pixels, 5):
            ix, iy = divmod(index, meas.shape[1])
            single = SOLVERS[name](meas[ix, iy], d, cfg)
            assert cube[ix, iy].tobytes() == single.x.tobytes()
            assert stats.iterations[index] == single.iterations
            assert stats.converged[index] == single.converged
            assert stats.final_delta[index] == single.final_delta

    @pytest.mark.parametrize("kappa, per_iter", [(8, 1), (16, 3)])
    def test_gomp_picks_atoms_per_iter_pairs(self, scene, kappa, per_iter):
        # G picks are G pairs or self-paired bins, each whole: G half bins,
        # holding more than G columns of the real form
        d, meas = scene
        n, y = d.n, np.ascontiguousarray(meas.reshape(-1, d.m))
        block = _GompBlock(y, d, SolverConfig(kappa=kappa, atoms_per_iter=per_iter))
        picked = block.candidates(matvecs(block.ah, y))
        assert whole_pairs(picked, n)
        assert (np.count_nonzero(picked[:, ::2], axis=1) == per_iter).all()
        assert (np.count_nonzero(picked, axis=1) > per_iter).all()

    @pytest.mark.parametrize("kappa", [8, 16])
    def test_biht_candidates_are_whole_pairs(self, scene, kappa):
        # from x = 0: the gradient step's strongest pairs within kappa entries
        # and the strongest projection's pair, ranked as |p_k| + |p_(n-k)| of
        # the complex projections p = A^H y rank them
        d, meas = scene
        n, y = d.n, np.ascontiguousarray(meas.reshape(-1, d.m))
        block = _BihtBlock(y, d, SolverConfig(kappa=kappa))
        candidates = block.candidates(matvecs(block.ah, y))
        h = n // 2 + 1
        assert whole_pairs(candidates, n)
        counts = np.count_nonzero(candidates, axis=1)
        assert ((kappa - 1 <= counts) & (counts <= kappa + 2)).all()
        p = matvecs(d.matrix.conj().T, y)
        strongest = argmax_k(np.abs(p[:, :h]) + np.abs(p[:, -np.arange(h) % n]), 1)
        assert np.take_along_axis(candidates, 2 * strongest, axis=1).all()

    @pytest.mark.parametrize("kappa", [4, 8, 16])
    def test_cosamp_picks_kappa_pairs(self, scene, kappa):
        # 2 * kappa entries as kappa pairs, whole, joined with the kept pairs
        # of at most kappa entries: kappa to 2 * kappa half bins, and at most
        # 3 * kappa entries, over the first three iterations
        d, meas = scene
        n, y = d.n, np.ascontiguousarray(meas.reshape(-1, d.m))
        block, residual = _CosampBlock(y, d, SolverConfig(kappa=kappa)), y
        for _ in range(3):
            kept = block.support
            candidates = block.candidates(matvecs(block.ah, residual))
            assert whole_pairs(candidates, n) and (candidates >= kept).all()
            picked = np.count_nonzero(candidates[:, ::2] & ~kept[:, ::2], axis=1)
            assert (picked <= kappa).all() and (picked == kappa).any()
            assert (np.count_nonzero(candidates, axis=1) <= 3 * kappa).all()
            residual, _, _ = block.step(y, residual)
            assert whole_pairs(block.support, n)
            assert (np.count_nonzero(block.support, axis=1) <= kappa).all()

    @pytest.mark.parametrize("name", GREEDY_SOLVERS)
    def test_each_pixel_keeps_its_iterations_and_flag(self, scene, name):
        # on the real form, every pixel takes the iterations it took when the
        # pairs were picked, pruned and refit in complex arithmetic on n bins
        # (gomp, biht) or when cosamp picked 2 * kappa atoms
        d, meas = scene
        for kappa, pinned in zip((8, 16), PAIR_ITERATIONS[name]):
            cfg = SolverConfig(kappa=kappa, time_limit=None, max_iter=200)
            _, stats = recover_cube(meas, d, cfg, name)
            assert "".join(map(str, stats.iterations)) == pinned
            assert stats.converged.all()

    @pytest.mark.parametrize("name", GREEDY_SOLVERS)
    @pytest.mark.parametrize("kappa", [8, 16])
    def test_each_pixel_is_symmetric_and_the_least_squares_on_its_support(self, scene, name, kappa):
        # x[n - k] is conj(x[k]) byte for byte wherever the two are distinct
        # bins, and a bin that is its own mirror is real; each pixel is the
        # least-squares fit of its measurements on its support
        d, meas = scene
        n, y = d.n, meas.reshape(-1, d.m)
        cube, _ = recover_cube(meas, d, SolverConfig(kappa=kappa, time_limit=None, max_iter=200), name)
        x = cube.reshape(-1, n)
        mirror = -np.arange(n) % n
        paired = mirror != np.arange(n)
        assert x[:, mirror][:, paired].tobytes() == x.conj()[:, paired].tobytes()
        assert not x[:, ~paired].imag.any()
        for row, target in zip(x, y):
            support = np.flatnonzero(row)
            expected = np.linalg.lstsq(d.matrix[:, support], target, rcond=None)[0]
            assert np.linalg.norm(row[support] - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_workers_get_the_bytes_of_the_serial_run_and_the_real_gram_from_the_parent(self, monkeypatch):
        # the zero-pixel block of recover_cube builds B^T B before the pool
        # forks, and nothing builds A^H A
        d, meas = desk_scene(4, 4, 128, 8, 1, 0.01)
        parent, calls = os.getpid(), []
        real_gram = Dictionary.real_gram.func

        def parent_real_gram(self):
            assert os.getpid() == parent, "a pool worker built B^T B"
            calls.append("real_gram")
            return real_gram(self)

        built = functools.cached_property(parent_real_gram)
        built.__set_name__(Dictionary, "real_gram")
        monkeypatch.setattr(Dictionary, "real_gram", built)
        for name in GREEDY_SOLVERS:
            cfg = SolverConfig(kappa=8, time_limit=None, max_iter=200)
            pooled, pooled_stats = recover_cube(meas, d, cfg, name, jobs=2)
            serial, stats = recover_cube(meas, d, cfg, name)
            assert pooled.tobytes() == serial.tobytes()
            for field in ("iterations", "stop_reason", "final_delta", "failed_at"):
                assert getattr(pooled_stats, field).tobytes() == getattr(stats, field).tobytes()
        assert calls == ["real_gram"]
        assert "gram" not in vars(d)

    @pytest.mark.parametrize("name", GREEDY_SOLVERS)
    def test_complex_rows_keep_the_atom_path_bit_for_bit(self, scene, name):
        d, meas = scene
        y = meas.reshape(-1, d.m).astype(complex)
        atoms = np.arange(16).reshape(2, 8)
        b = np.ascontiguousarray(d.matrix.T)[atoms].transpose(0, 2, 1)
        s, _ = gram_least_squares(b, d.gram[atoms[:, :, None], atoms[:, None, :]], y[:2])
        if hashlib.sha256(matvecs(d.matrix.conj().T, y).tobytes() + s.tobytes()).hexdigest() != ARITHMETIC_PIN:
            pytest.skip("this BLAS/LAPACK gives other bytes than the one the pins were computed on")
        digest = hashlib.sha256()
        for kappa in (8, 16):
            cfg = SolverConfig(kappa=kappa, time_limit=None, max_iter=200)
            cube, stats = recover_cube(meas.astype(complex), d, cfg, name)
            digest.update(cube.tobytes())
            for field in ("iterations", "converged", "final_delta", "failed_at"):
                digest.update(getattr(stats, field).tobytes())
        assert digest.hexdigest() == ATOM_PATH_PINS[name]

    @pytest.mark.parametrize("name", GREEDY_SOLVERS)
    def test_kappa_one_takes_atoms(self, name):
        # a pair holds 2 entries, more than a budget of 1, so a pair prune
        # would keep nothing and report x = 0 as converged
        d, meas = desk_scene(8, 8, 64, 4, 1, 0.01)
        assert meas.reshape(-1, d.m).any(axis=1).all()
        cfg = SolverConfig(kappa=1, time_limit=None, max_iter=50)
        cube, stats = recover_cube(meas, d, cfg, name)
        x = cube.reshape(-1, d.n)
        assert not (stats.converged & ~x.any(axis=1)).any()
        assert (np.count_nonzero(x, axis=1) == 1).all()
        atoms, atom_stats = recover_cube(meas.astype(complex), d, cfg, name)
        assert cube.tobytes() == atoms.tobytes()
        assert stats.iterations.tolist() == atom_stats.iterations.tolist()

    @pytest.mark.parametrize("name", GREEDY_SOLVERS)
    def test_other_dictionaries_take_atoms(self, name):
        rng = np.random.default_rng(9)
        d = Dictionary.from_matrix(rng.standard_normal((12, 24)))
        assert d.real_form is None
        meas = rng.standard_normal((2, 3, d.m))
        cfg = SolverConfig(kappa=4, time_limit=None, max_iter=50)
        cube, _ = recover_cube(meas, d, cfg, name)
        atoms, _ = recover_cube(meas.astype(complex), d, cfg, name)
        assert cube.tobytes() == atoms.tobytes()
