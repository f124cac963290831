"""Command-line pipeline: stage composition, config resolution, exit codes."""

import csv
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import textwrap
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import hypercs
from hypercs import (
    SOLVERS,
    HsiCube,
    NumericalFailure,
    SolverConfig,
    build_dft_basis,
    build_dictionary,
    generate_synthetic_cube,
    load_cube,
    load_mask,
    read_report,
    save_cube,
)
from hypercs.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARTIAL,
    PipelineFileError,
    load_measurements,
    main,
    save_measurements,
)
from hypercs.kernels import openblas_threads

from helpers import write_envi, write_native_f32


@pytest.fixture
def cube_file(tmp_path):
    cube = generate_synthetic_cube(4, 3, 24, 2, seed=5)
    path = tmp_path / "cube.hsc"
    save_cube(cube, path)
    return path


def run_stages(cube_file, run_dir, *recover_args):
    assert main(["sparsify", "--input", str(cube_file), "--out", str(run_dir)]) == EXIT_OK
    assert main(["compress", "--input", str(run_dir)]) == EXIT_OK
    code = main(
        ["recover", "--input", str(run_dir), "--t-conv", "0", "--max-iter", "400", *recover_args]
    )
    return code


def artifacts(run_dir):
    """Every file in run_dir by name, timing fields removed."""
    found = {}
    for path in sorted(run_dir.glob("*")):
        if path.name == "report.csv":
            found[path.name] = [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
        elif path.name.startswith("pixels_"):
            rows = [line.split(",") for line in path.read_text().splitlines()]
            found[path.name] = [row[:4] + row[5:] for row in rows]
        elif path.name.startswith("run_"):
            meta = json.loads(path.read_text())
            del meta["recovery_time_s"]
            found[path.name] = meta
        else:
            found[path.name] = path.read_bytes()
    return found


class TestSparsify:
    def test_writes_cube_and_stats(self, cube_file, tmp_path):
        run_dir = tmp_path / "run"
        assert main(["sparsify", "--input", str(cube_file), "--out", str(run_dir)]) == EXIT_OK
        assert (run_dir / "sparsified.hsc").exists()
        stats = json.loads((run_dir / "sparsify_stats.json").read_text())
        assert stats["bands"] == 24 and stats["x"] == 4 and stats["y"] == 3
        # planted pixels carry 2 of 24 nonzero coefficients
        assert stats["zero_fraction"] == pytest.approx(22 / 24, abs=1e-6)
        assert stats["threshold_factor"] == 0.1

    def test_reads_envi_input(self, tmp_path):
        cube = generate_synthetic_cube(2, 2, 16, 2, seed=1)
        path = write_envi(tmp_path, "scene", cube.data, interleave="bil", dtype="f4")
        run_dir = tmp_path / "run"
        # no HSC1 magic, so the reader goes through the sibling header
        assert main(["sparsify", "--input", str(path), "--out", str(run_dir)]) == EXIT_OK
        assert load_cube(run_dir / "sparsified.hsc").bands == 16

    def test_native_format_reads_f32_cubes(self, tmp_path):
        # an f32 native cube reads as the f64 one holding the same samples
        cube = generate_synthetic_cube(2, 2, 16, 2, seed=1)
        write_native_f32(cube, tmp_path / "f32.hsc")
        save_cube(HsiCube(data=cube.data.astype(np.float32)), tmp_path / "f64.hsc")
        for name in ("f32", "f64"):
            args = ["--input", str(tmp_path / f"{name}.hsc"), "--out", str(tmp_path / name)]
            assert main(["sparsify", *args]) == EXIT_OK
        assert (tmp_path / "f32/sparsified.hsc").read_bytes() == (
            tmp_path / "f64/sparsified.hsc"
        ).read_bytes()

    def test_zero_fraction_counts_every_pixel(self, tmp_path):
        # 20 bands, so per-pixel fractions k/20 are inexact in binary; the
        # all-zero pixel keeps all of its (zero) entries
        data = generate_synthetic_cube(5, 4, 20, 3, seed=8).data
        data[1, 2] = 0.0
        data[3, 0] += np.random.default_rng(0).standard_normal(20)
        save_cube(HsiCube(data=data), tmp_path / "cube.hsc")
        args = ["--input", str(tmp_path / "cube.hsc"), "--out", str(tmp_path / "run")]
        assert main(["sparsify", *args, "--T", "0.3"]) == EXIT_OK
        stats = json.loads((tmp_path / "run/sparsify_stats.json").read_text())
        zeroed = 0
        basis = build_dft_basis(20)
        for spectrum in data.reshape(-1, 20):
            mags = np.abs(basis.matrix.conj().T @ spectrum)
            zeroed += np.count_nonzero(mags - mags.mean() < 0.3 * mags.std())
        assert stats["zero_fraction"] == zeroed / data.size

    def test_missing_input_flag(self, tmp_path):
        assert main(["sparsify", "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_missing_input_file(self, tmp_path):
        code = main(["sparsify", "--input", str(tmp_path / "nope.hsc"), "--out", str(tmp_path)])
        assert code == EXIT_IO


class TestCompress:
    def test_writes_mask_and_measurements(self, cube_file, tmp_path):
        run_dir = tmp_path / "run"
        main(["sparsify", "--input", str(cube_file), "--out", str(run_dir)])
        assert main(["compress", "--input", str(run_dir), "--seed", "9"]) == EXIT_OK
        meas = load_measurements(run_dir / "measurements.hsm")
        assert load_mask(run_dir / "mask.txt").n == 24
        assert meas.shape == (4, 3, 10)  # 0.4 * 24 rounds to 10
        text = (run_dir / "mask.txt").read_text()
        assert text.startswith("seed=9")

    def test_writes_real_samples(self, cube_file, tmp_path):
        # HSM1, (x, y, m) and one float64 per kept band: half the bytes of complex samples
        run_dir = tmp_path / "run"
        main(["sparsify", "--input", str(cube_file), "--out", str(run_dir)])
        assert main(["compress", "--input", str(run_dir)]) == EXIT_OK
        raw = (run_dir / "measurements.hsm").read_bytes()
        assert raw[:4] == b"HSM1"
        assert struct.unpack("<III", raw[4:16]) == (4, 3, 10)
        assert len(raw) == 16 + 8 * 4 * 3 * 10
        sparsified = load_cube(run_dir / "sparsified.hsc")
        indices = load_mask(run_dir / "mask.txt").indices
        assert raw[16:] == sparsified.data[:, :, indices].astype("<f8").tobytes()

    def test_same_seed_is_reproducible(self, cube_file, tmp_path):
        for name in ("a", "b"):
            run_dir = tmp_path / name
            main(["sparsify", "--input", str(cube_file), "--out", str(run_dir)])
            main(["compress", "--input", str(run_dir), "--seed", "4"])
        assert (tmp_path / "a/measurements.hsm").read_bytes() == (
            tmp_path / "b/measurements.hsm"
        ).read_bytes()
        assert (tmp_path / "a/mask.txt").read_text() == (tmp_path / "b/mask.txt").read_text()

    def test_on_disk_layout(self, tmp_path):
        path = tmp_path / "meas.hsm"
        meas = np.arange(24.0).reshape(2, 3, 4)
        save_measurements(path, meas)
        raw = path.read_bytes()
        assert raw[:4] == b"HSM1"
        assert struct.unpack("<III", raw[4:16]) == (2, 3, 4)
        np.testing.assert_array_equal(np.frombuffer(raw[16:], dtype="<f8"), meas.reshape(-1))
        loaded = load_measurements(path)
        assert loaded.dtype == np.float64 and np.array_equal(loaded, meas)

    def test_complex_measurements_are_rejected(self, tmp_path):
        # numpy would only warn, and drop the imaginary parts
        path = tmp_path / "meas.hsm"
        with pytest.raises(TypeError, match="complex"):
            save_measurements(path, np.ones((2, 3, 4)) + 1e-3j)
        with pytest.raises(TypeError, match="complex"):
            save_measurements(path, np.ones((2, 3, 4), dtype=complex))
        assert not path.exists()


class TestRecover:
    def test_greedy_pipeline(self, cube_file, tmp_path):
        run_dir = tmp_path / "run"
        assert run_stages(cube_file, run_dir, "--algo", "gomp", "--kappa", "2") == EXIT_OK
        recovered = load_cube(run_dir / "recovered_gomp_kappa2.hsc")
        sparsified = load_cube(run_dir / "sparsified.hsc")
        np.testing.assert_allclose(recovered.data, sparsified.data, atol=1e-6)
        meta = json.loads((run_dir / "run_gomp_kappa2.json").read_text())
        assert meta["algorithm"] == "gomp"
        assert meta["n_pixels"] == 12
        assert meta["n_converged"] == 12
        assert meta["config"]["kappa"] == 2
        with open(run_dir / "pixels_gomp_kappa2.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["x", "y", "iterations"]
        assert len(rows) == 13  # header + one row per pixel

    def test_convex_default_lambda(self, cube_file, tmp_path):
        run_dir = tmp_path / "run"
        assert run_stages(cube_file, run_dir, "--algo", "fista") == EXIT_OK
        assert (run_dir / "recovered_fista_lambda0.1.hsc").exists()

    def test_record_holds_the_solver_defaults(self, cube_file, tmp_path):
        run_dir = tmp_path / "run"
        main(["sparsify", "--input", str(cube_file), "--out", str(run_dir)])
        main(["compress", "--input", str(run_dir)])
        assert main(["recover", "--input", str(run_dir), "--algo", "fista"]) == EXIT_OK
        meta = json.loads((run_dir / "run_fista_lambda0.1.json").read_text())
        assert meta["config"] == asdict(SolverConfig())

    def test_greedy_requires_kappa(self, cube_file, tmp_path):
        run_dir = tmp_path / "run"
        assert run_stages(cube_file, run_dir, "--algo", "gomp") == EXIT_CONFIG

    def test_single_algorithm_and_single_value_only(self, cube_file, tmp_path):
        run_dir = tmp_path / "run"
        main(["sparsify", "--input", str(cube_file), "--out", str(run_dir)])
        main(["compress", "--input", str(run_dir)])
        args = ["recover", "--input", str(run_dir)]
        assert main(args + ["--algo", "gomp", "--algo", "fista", "--kappa", "2"]) == EXIT_CONFIG
        assert main(args + ["--algo", "gomp", "--kappa", "2,4"]) == EXIT_CONFIG

    def test_unknown_algorithm_rejected_by_the_parser(self, cube_file, tmp_path):
        assert main(["recover", "--input", "x", "--algo", "newton"]) == EXIT_CONFIG

    def test_missing_run_dir(self, tmp_path):
        code = main(["recover", "--input", str(tmp_path / "void"), "--algo", "fista"])
        assert code == EXIT_IO

    def test_partial_failures_signal_exit_4(self, cube_file, tmp_path):
        run_dir = tmp_path / "run"
        main(["sparsify", "--input", str(cube_file), "--out", str(run_dir)])
        main(["compress", "--input", str(run_dir)])
        meas = load_measurements(run_dir / "measurements.hsm")
        meas[1, 1, :] = np.nan
        save_measurements(run_dir / "measurements.hsm", meas)
        code = main(
            ["recover", "--input", str(run_dir), "--algo", "fista", "--t-conv", "0",
             "--max-iter", "50"]
        )
        assert code == EXIT_PARTIAL
        meta = json.loads((run_dir / "run_fista_lambda0.1.json").read_text())
        assert meta["n_failed"] == 1

    def test_greedy_partial_failures_signal_exit_4(self, cube_file, tmp_path):
        run_dir = tmp_path / "run"
        main(["sparsify", "--input", str(cube_file), "--out", str(run_dir)])
        main(["compress", "--input", str(run_dir)])
        meas = load_measurements(run_dir / "measurements.hsm")
        meas[1, 1, :] = np.nan
        save_measurements(run_dir / "measurements.hsm", meas)
        code = main(
            ["recover", "--input", str(run_dir), "--algo", "gomp", "--kappa", "2",
             "--t-conv", "0", "--max-iter", "50"]
        )
        assert code == EXIT_PARTIAL
        meta = json.loads((run_dir / "run_gomp_kappa2.json").read_text())
        assert meta["n_failed"] == 1

    def test_max_iter_0_means_unlimited(self, cube_file, tmp_path):
        run_dir = tmp_path / "run"
        assert run_stages(cube_file, run_dir, "--algo", "gomp", "--kappa", "2", "--max-iter", "0") == EXIT_OK
        meta = json.loads((run_dir / "run_gomp_kappa2.json").read_text())
        assert meta["config"]["max_iter"] is None

    def test_jobs_0_matches_one_job(self, cube_file, tmp_path):
        # 12 pixels: one worker per CPU, but never more workers than pixels
        args = ["--input", str(cube_file), "--algo", "gomp,biht,cosamp", "--kappa", "2",
                "--t-conv", "0", "--max-iter", "400"]
        assert main(["bench", *args, "--out", str(tmp_path / "auto"), "--jobs", "0"]) == EXIT_OK
        assert main(["bench", *args, "--out", str(tmp_path / "one"), "--jobs", "1"]) == EXIT_OK
        assert artifacts(tmp_path / "auto") == artifacts(tmp_path / "one")

    def test_run_dir_without_sparsify_record(self, cube_file, tmp_path):
        run_dir = tmp_path / "scene"
        main(["sparsify", "--input", str(cube_file), "--out", str(run_dir)])
        main(["compress", "--input", str(run_dir)])
        (run_dir / "sparsify_stats.json").unlink()
        code = main(["recover", "--input", str(run_dir), "--algo", "gomp", "--kappa", "2",
                     "--t-conv", "0", "--max-iter", "400"])
        assert code == EXIT_OK
        meta = json.loads((run_dir / "run_gomp_kappa2.json").read_text())
        assert meta["sparsify_sha256"] is None
        assert meta["dataset"] == "scene"
        assert main(["report", "--input", str(run_dir)]) == EXIT_OK
        assert [row.dataset for row in read_report(run_dir / "report.csv")] == ["scene"]

    def test_bad_jobs_values(self, cube_file, tmp_path):
        run_dir = tmp_path / "run"
        main(["sparsify", "--input", str(cube_file), "--out", str(run_dir)])
        main(["compress", "--input", str(run_dir)])
        args = ["recover", "--input", str(run_dir), "--algo", "gomp", "--kappa", "2"]
        assert main(args + ["--jobs", "-1"]) == EXIT_CONFIG
        config = tmp_path / "run.ini"
        config.write_text("[run]\njobs = -1\n")
        assert main(args + ["--config", str(config)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "mask",
        [
            b"seed=0\nn=24\nindices=1,x,3\n",
            b"seed=0\nn=24\nindices=5,3,7\n",
            b"seed=0\nn=24\nindices=1,2,\xc3\xa9\n",
        ],
        ids=["garbled-index", "non-increasing", "non-ascii"],
    )
    def test_malformed_mask_exits_3(self, cube_file, tmp_path, mask):
        run_dir = tmp_path / "run"
        main(["sparsify", "--input", str(cube_file), "--out", str(run_dir)])
        main(["compress", "--input", str(run_dir)])
        (run_dir / "mask.txt").write_bytes(mask)
        code = main(["recover", "--input", str(run_dir), "--algo", "gomp", "--kappa", "2"])
        assert code == EXIT_IO

    @pytest.mark.parametrize("record", [b'{"dataset": ', b'["cube"]\n'], ids=["not-json", "json-list"])
    def test_malformed_sparsify_record_exits_3(self, cube_file, tmp_path, record):
        run_dir = tmp_path / "run"
        main(["sparsify", "--input", str(cube_file), "--out", str(run_dir)])
        main(["compress", "--input", str(run_dir)])
        (run_dir / "sparsify_stats.json").write_bytes(record)
        code = main(["recover", "--input", str(run_dir), "--algo", "gomp", "--kappa", "2"])
        assert code == EXIT_IO

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: b"HSX1" + raw[4:],
            lambda raw: raw[:-8],
            lambda raw: raw + bytes(16),
            lambda raw: raw[:4] + bytes(4) + raw[8:16],  # x = 0 and no payload
        ],
        ids=["wrong-magic", "truncated-payload", "oversized-payload", "zero-dimension"],
    )
    def test_malformed_measurement_file_exits_3(self, cube_file, tmp_path, damage):
        run_dir = tmp_path / "run"
        main(["sparsify", "--input", str(cube_file), "--out", str(run_dir)])
        main(["compress", "--input", str(run_dir)])
        path = run_dir / "measurements.hsm"
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(PipelineFileError):
            load_measurements(path)
        code = main(["recover", "--input", str(run_dir), "--algo", "gomp", "--kappa", "2"])
        assert code == EXIT_IO

    def test_measurement_file_of_the_complex_layout_exits_3(self, cube_file, tmp_path, capsys):
        # HSM1 with four dims (x, y, m, n) and complex128 samples, as written
        # before measurements were stored real: its payload size cannot pass
        run_dir = tmp_path / "run"
        main(["sparsify", "--input", str(cube_file), "--out", str(run_dir)])
        main(["compress", "--input", str(run_dir)])
        path = run_dir / "measurements.hsm"
        meas = load_measurements(path)
        path.write_bytes(b"HSM1" + struct.pack("<4I", *meas.shape, 24) + meas.astype("<c16").tobytes())
        code = main(["recover", "--input", str(run_dir), "--algo", "gomp", "--kappa", "2"])
        assert code == EXIT_IO
        assert str(path) in capsys.readouterr().err

    def test_mask_of_another_length_exits_3(self, cube_file, tmp_path):
        run_dir = tmp_path / "run"
        main(["sparsify", "--input", str(cube_file), "--out", str(run_dir)])
        main(["compress", "--input", str(run_dir)])
        (run_dir / "mask.txt").write_text("seed=0\nn=24\nindices=1,2,3\n")
        code = main(["recover", "--input", str(run_dir), "--algo", "gomp", "--kappa", "2"])
        assert code == EXIT_IO

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_pixel_log_matches_per_pixel_solves(self, cube_file, tmp_path, name):
        run_dir = tmp_path / "run"
        main(["sparsify", "--input", str(cube_file), "--out", str(run_dir)])
        main(["compress", "--input", str(run_dir)])
        meas = load_measurements(run_dir / "measurements.hsm")
        meas[0, 2] = 0.0
        meas[1, 1, 0] = np.nan
        save_measurements(run_dir / "measurements.hsm", meas)
        flags = ["--lambda", "0.1"] if name in ("fista", "admm") else ["--kappa", "5"]
        code = main(
            ["recover", "--input", str(run_dir), "--algo", name, *flags, "--t-conv", "0",
             "--max-iter", "400"]
        )
        assert code == EXIT_PARTIAL

        config = SolverConfig(lam=0.1, kappa=5, time_limit=None, max_iter=400)
        mask = load_mask(run_dir / "mask.txt")
        dictionary = build_dictionary(build_dft_basis(mask.n), mask)
        tag = f"{name}_lambda0.1" if name in ("fista", "admm") else f"{name}_kappa5"
        with open(run_dir / f"pixels_{tag}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y", "iterations", "converged", "elapsed_s", "final_delta", "failed"]
        assert [row[:2] for row in rows[1:]] == [[str(ix), str(iy)] for ix in range(4) for iy in range(3)]
        for row in rows[1:]:
            ix, iy = int(row[0]), int(row[1])
            if (ix, iy) == (1, 1):
                assert row == ["1", "1", "1", "0", "", "", "1"]
                with pytest.raises(NumericalFailure):
                    SOLVERS[name](meas[ix, iy], dictionary, config)
                continue
            single = SOLVERS[name](meas[ix, iy], dictionary, config)
            assert row[2:4] == [str(single.iterations), str(int(single.converged))]
            assert float(row[4]) >= 0.0
            assert row[5:] == [f"{single.final_delta:.3e}", "0"]
            if (ix, iy) == (0, 2):
                assert row[2:4] == ["0", "1"]
            if name == "cosamp" and (ix, iy) == (2, 1):
                # 3 kappa = 15 candidates outgrow the m = 10 measurements: the pixel halts
                assert row[3] == "0" and 0 < single.iterations < 400


class TestReport:
    def test_aggregates_all_runs(self, cube_file, tmp_path):
        run_dir = tmp_path / "run"
        run_stages(cube_file, run_dir, "--algo", "gomp", "--kappa", "2")
        main(["recover", "--input", str(run_dir), "--algo", "fista", "--t-conv", "0",
              "--max-iter", "400"])
        assert main(["report", "--input", str(run_dir)]) == EXIT_OK
        rows = read_report(run_dir / "report.csv")
        assert [(r.algorithm, r.param_label) for r in rows] == [
            ("fista", "λ=0.1"),
            ("gomp", "κ=2"),
        ]
        assert all(r.dataset == "cube" for r in rows)  # input file stem

    def test_no_records_is_an_error(self, cube_file, tmp_path):
        run_dir = tmp_path / "run"
        main(["sparsify", "--input", str(cube_file), "--out", str(run_dir)])
        assert main(["report", "--input", str(run_dir)]) == EXIT_IO

    def test_inconsistent_record_is_an_error(self, cube_file, tmp_path):
        run_dir = tmp_path / "run"
        run_stages(cube_file, run_dir, "--algo", "gomp", "--kappa", "2")
        meta_path = run_dir / "run_gomp_kappa2.json"
        meta = json.loads(meta_path.read_text())
        meta["total_iterations"] = 0
        meta["n_zero_pixels"] = 0
        meta_path.write_text(json.dumps(meta))
        assert main(["report", "--input", str(run_dir)]) == EXIT_IO

    def doctored_report(self, cube_file, tmp_path, converged_nonzero):
        """Exit code of report on a gomp record doctored to 0 iterations, of
        whose converged pixels converged_nonzero are not all-zero ones."""
        run_dir = tmp_path / "run"
        run_stages(cube_file, run_dir, "--algo", "gomp", "--kappa", "2")
        meta_path = run_dir / "run_gomp_kappa2.json"
        meta = json.loads(meta_path.read_text())
        assert meta["n_converged"] > 1
        meta["total_iterations"] = 0
        meta["n_zero_pixels"] = meta["n_converged"] - converged_nonzero
        meta_path.write_text(json.dumps(meta))
        return main(["report", "--input", str(run_dir)])

    def test_rejects_converged_runs_without_iterations(self, cube_file, tmp_path):
        assert self.doctored_report(cube_file, tmp_path, converged_nonzero=1) == EXIT_IO

    def test_allows_all_zero_shortcut_pixels(self, cube_file, tmp_path):
        assert self.doctored_report(cube_file, tmp_path, converged_nonzero=0) == EXIT_OK

    def test_truncated_record_is_an_error(self, cube_file, tmp_path):
        run_dir = tmp_path / "run"
        run_stages(cube_file, run_dir, "--algo", "gomp", "--kappa", "2")
        (run_dir / "run_gomp_kappa2.json").write_text('{"algorithm": "gomp"}')
        assert main(["report", "--input", str(run_dir)]) == EXIT_IO

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw.replace(b'"gomp"', b'"g\xffmp"'),
            lambda raw: re.sub(rb'"n_converged": \d+', b'"n_converged": "x"', raw),
            lambda raw: re.sub(rb'"convergence_pct": [^,]+', b'"convergence_pct": 200.0', raw),
            lambda raw: raw.replace(b'"gomp"', b'"newton"'),
        ],
        ids=["non-utf8", "mistyped", "out-of-range", "unknown-algorithm"],
    )
    def test_damaged_record_is_an_error(self, cube_file, tmp_path, damage):
        run_dir = tmp_path / "run"
        run_stages(cube_file, run_dir, "--algo", "gomp", "--kappa", "2")
        meta_path = run_dir / "run_gomp_kappa2.json"
        meta_path.write_bytes(damage(meta_path.read_bytes()))
        assert main(["report", "--input", str(run_dir)]) == EXIT_IO

    def test_wrong_shape_recovered_cube_is_an_error(self, cube_file, tmp_path):
        out = tmp_path / "bench"
        assert main(["bench", "--input", str(cube_file), "--out", str(out), "--algo", "gomp",
                     "--kappa", "2", "--t-conv", "0", "--max-iter", "50"]) == EXIT_OK
        save_cube(generate_synthetic_cube(3, 3, 24, 2, seed=5), out / "recovered_gomp_kappa2.hsc")
        assert main(["report", "--input", str(out)]) == EXIT_IO

    def test_undefined_psnr_is_a_config_error(self, tmp_path):
        # a constant -1 cube has no positive signed maximum
        cube_file = tmp_path / "dark.hsc"
        save_cube(HsiCube(data=-np.ones((2, 2, 24))), cube_file)
        out = tmp_path / "bench"
        assert main(["bench", "--input", str(cube_file), "--out", str(out), "--algo", "fista",
                     "--t-conv", "0", "--max-iter", "50"]) == EXIT_OK
        assert main(["report", "--input", str(out), "--psnr-peak", "signed-max"]) == EXIT_CONFIG


class TestBench:
    def test_full_pipeline_with_sweeps_and_export(self, cube_file, tmp_path):
        out = tmp_path / "bench"
        code = main(
            ["bench", "--input", str(cube_file), "--out", str(out),
             "--algo", "gomp", "--kappa", "2,3", "--algo", "fista", "--lambda", "0.1",
             "--t-conv", "0", "--max-iter", "400", "--export-bands", "0,5,11"]
        )
        assert code == EXIT_OK
        rows = read_report(out / "report.csv")
        assert [(r.algorithm, r.param_label) for r in rows] == [
            ("fista", "λ=0.1"),
            ("gomp", "κ=2"),
            ("gomp", "κ=3"),
        ]
        for name in ("original", "sparsified", "gomp_kappa2", "gomp_kappa3", "fista_lambda0.1"):
            assert (out / f"falsecolor_{name}.ppm").exists()

    @staticmethod
    def reuse_out(tmp_path):
        """Two bench calls into one directory, the second with another
        sparsify factor: the directory."""
        path = tmp_path / "scene.hsc"
        save_cube(generate_synthetic_cube(4, 3, 24, 8, seed=5), path)
        out = tmp_path / "bench"
        base = ["bench", "--input", str(path), "--out", str(out), "--algo", "gomp",
                "--t-conv", "0", "--max-iter", "400"]
        assert main(base + ["--kappa", "8", "--T", "0"]) == EXIT_OK
        assert main(base + ["--kappa", "3", "--T", "1"]) == EXIT_OK
        return out

    def test_reused_out_reports_only_this_call(self, tmp_path):
        # the first call's records stay in the directory but are not this call's runs
        out = self.reuse_out(tmp_path)
        assert [row.param_label for row in read_report(out / "report.csv")] == ["κ=3"]

    def test_report_rejects_a_record_of_an_earlier_sparsify(self, tmp_path, capsys):
        # the kappa-8 record was recovered from the T 0 cube, which the second
        # call's sparsify replaced; its digest of sparsify_stats.json says so
        out = self.reuse_out(tmp_path)
        records = {path.name: json.loads(path.read_text()) for path in out.glob("run_*.json")}
        assert records["run_gomp_kappa8.json"]["sparsify_sha256"] != records["run_gomp_kappa3.json"]["sparsify_sha256"]
        capsys.readouterr()
        assert main(["report", "--input", str(out), "--out", str(tmp_path / "all.csv")]) == EXIT_IO
        assert "run_gomp_kappa8.json" in capsys.readouterr().err
        assert not (tmp_path / "all.csv").exists()
        (out / "run_gomp_kappa8.json").unlink()
        assert main(["report", "--input", str(out), "--out", str(tmp_path / "all.csv")]) == EXIT_OK
        with open(tmp_path / "all.csv", encoding="utf-8") as fh:
            header = fh.readline()
        assert header == (out / "report.csv").read_text(encoding="utf-8").splitlines(keepends=True)[0]
        assert [row.param_label for row in read_report(tmp_path / "all.csv")] == ["κ=3"]

    def test_matches_the_single_stage_pipeline(self, cube_file, tmp_path):
        bench_dir = tmp_path / "bench"
        code = main(
            ["bench", "--input", str(cube_file), "--out", str(bench_dir),
             "--algo", "gomp", "--kappa", "2", "--seed", "3",
             "--t-conv", "0", "--max-iter", "400"]
        )
        assert code == EXIT_OK
        stage_dir = tmp_path / "stages"
        main(["sparsify", "--input", str(cube_file), "--out", str(stage_dir)])
        main(["compress", "--input", str(stage_dir), "--seed", "3"])
        main(["recover", "--input", str(stage_dir), "--algo", "gomp", "--kappa", "2",
              "--t-conv", "0", "--max-iter", "400"])
        main(["report", "--input", str(stage_dir)])

        assert (bench_dir / "recovered_gomp_kappa2.hsc").read_bytes() == (
            stage_dir / "recovered_gomp_kappa2.hsc"
        ).read_bytes()
        bench_rows = read_report(bench_dir / "report.csv")
        stage_rows = read_report(stage_dir / "report.csv")
        for a, b in zip(bench_rows, stage_rows):
            assert (a.algorithm, a.param_label, a.psnr_db, a.total_iterations) == (
                b.algorithm, b.param_label, b.psnr_db, b.total_iterations
            )

    def test_run_record_holds_the_blas_thread_counts(self, cube_file, tmp_path):
        out = tmp_path / "bench"
        code = main(
            ["bench", "--input", str(cube_file), "--out", str(out), "--algo", "gomp",
             "--kappa", "2", "--algo", "admm", "--t-conv", "0", "--max-iter", "50"]
        )
        assert code == EXIT_OK
        for tag in ("gomp_kappa2", "admm_lambda0.1"):
            meta = json.loads((out / f"run_{tag}.json").read_text())
            # numpy's count, [] where its library exports no known pair
            assert meta["blas_threads"] == [1] * len(openblas_threads())

    def test_export_bands_needs_three_indexes(self, cube_file, tmp_path):
        code = main(
            ["bench", "--input", str(cube_file), "--out", str(tmp_path / "b"),
             "--algo", "gomp", "--kappa", "2", "--export-bands", "0,1"]
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("bands", ["0,1,999", "0,1,-1"])
    def test_export_bands_out_of_range(self, cube_file, tmp_path, bands):
        out = tmp_path / "b"
        code = main(
            ["bench", "--input", str(cube_file), "--out", str(out),
             "--algo", "gomp", "--kappa", "2", "--export-bands", bands]
        )
        assert code == EXIT_CONFIG
        assert not (out / "sparsified.hsc").exists()  # refused before any stage wrote a file

    @pytest.mark.parametrize("ratio", ["0.01", "1.5"])
    def test_ratio_out_of_range_writes_nothing(self, cube_file, tmp_path, ratio):
        # 0.01 of the 24 bands rounds to none
        out = tmp_path / "b"
        code = main(
            ["bench", "--input", str(cube_file), "--out", str(out),
             "--algo", "gomp", "--kappa", "2", "--ratio", ratio]
        )
        assert code == EXIT_CONFIG
        assert not (out / "sparsified.hsc").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--algo", "fista", "--epsilon", "nan"],
            ["--algo", "fista", "--lambda", "nan"],
            ["--algo", "fista", "--t-conv", "nan"],
            ["--algo", "fista", "--T", "nan"],
        ],
        ids=["epsilon", "lambda", "t-conv", "T"],
    )
    def test_nan_parameter_writes_nothing(self, cube_file, tmp_path, flags):
        out = tmp_path / "b"
        code = main(["bench", "--input", str(cube_file), "--out", str(out), "--max-iter", "50", *flags])
        assert code == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "sweep",
        [["--algo", "fista", "--lambda", "0.1,0.1000001"], ["--algo", "gomp", "--kappa", "2,2"]],
        ids=["lambda", "kappa"],
    )
    def test_sweep_points_sharing_a_run_tag_write_nothing(self, cube_file, tmp_path, sweep):
        # lambda prints with %g in the tag, so 0.1 and 0.1000001 are both fista_lambda0.1
        out = tmp_path / "b"
        code = main(["bench", "--input", str(cube_file), "--out", str(out), "--max-iter", "50", *sweep])
        assert code == EXIT_CONFIG
        assert not (out / "sparsified.hsc").exists()

    def test_algo_takes_a_comma_list_and_repeats_add_up(self, cube_file, tmp_path):
        out = tmp_path / "bench"
        code = main(
            ["bench", "--input", str(cube_file), "--out", str(out),
             "--algo", "gomp,cosamp", "--algo", "fista", "--kappa", "2",
             "--lambda", "0.5", "--lambda", "0.1", "--t-conv", "0", "--max-iter", "400"]
        )
        assert code == EXIT_OK
        rows = read_report(out / "report.csv")
        assert [(r.algorithm, r.param_label) for r in rows] == [
            ("cosamp", "κ=2"),
            ("fista", "λ=0.1"),
            ("gomp", "κ=2"),
        ]


class TestConfigFile:
    def test_file_values_fill_missing_flags(self, cube_file, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(
            "[run]\nt = 0.1\nratio = 0.5\nseed = 3\nalgo = gomp\n"
            "t_conv = 0\nmax_iter = 400\n\n[gomp]\nkappa = 3\n"
        )
        out = tmp_path / "bench"
        code = main(
            ["bench", "--input", str(cube_file), "--out", str(out), "--config", str(config)]
        )
        assert code == EXIT_OK
        meas = load_measurements(out / "measurements.hsm")
        assert meas.shape[2] == 12  # ratio 0.5 of 24 bands
        assert (out / "recovered_gomp_kappa3.hsc").exists()

    def test_command_line_wins_over_the_file(self, cube_file, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(
            "[run]\nalgo = gomp\nt_conv = 0\nmax_iter = 400\n\n[gomp]\nkappa = 3\n"
        )
        out = tmp_path / "bench"
        code = main(
            ["bench", "--input", str(cube_file), "--out", str(out), "--config", str(config),
             "--kappa", "2"]
        )
        assert code == EXIT_OK
        assert (out / "recovered_gomp_kappa2.hsc").exists()
        assert not (out / "recovered_gomp_kappa3.hsc").exists()

    @pytest.mark.parametrize(
        "key, flag, value, algo",
        [
            ("lambda", "--lambda", "0.05", ["--algo", "fista"]),
            ("t", "--T", "0.3", ["--algo", "gomp", "--kappa", "2"]),
            ("psnr_peak", "--psnr-peak", "range", ["--algo", "gomp", "--kappa", "2"]),
            ("epsilon", "--epsilon", "1e-3", ["--algo", "biht", "--kappa", "2"]),
            ("kappa", "--kappa", "3", ["--algo", "gomp"]),
            ("export_bands", "--export-bands", "0,5,11", ["--algo", "gomp", "--kappa", "2"]),
            ("jobs", "--jobs", "2", ["--algo", "gomp", "--kappa", "2"]),
        ],
    )
    def test_file_value_acts_as_its_flag(self, cube_file, tmp_path, key, flag, value, algo):
        config = tmp_path / "run.ini"
        config.write_text(f"[run]\n{key} = {value}\n")
        base = ["bench", "--input", str(cube_file), "--t-conv", "0", "--max-iter", "400", *algo]
        by_flag, by_file = tmp_path / "flag", tmp_path / "file"
        code = main(base + ["--out", str(by_flag), flag, value])
        assert main(base + ["--out", str(by_file), "--config", str(config)]) == code
        assert artifacts(by_file) == artifacts(by_flag)

    @pytest.mark.parametrize(
        "lines",
        ["algo = gomp\npsnr_peak = peak", "algo = gomp,newton"],
    )
    def test_file_value_outside_the_choices(self, cube_file, tmp_path, lines):
        config = tmp_path / "run.ini"
        config.write_text(f"[run]\nkappa = 2\n{lines}\n")
        out = tmp_path / "bench"
        code = main(
            ["bench", "--input", str(cube_file), "--out", str(out), "--config", str(config),
             "--t-conv", "0", "--max-iter", "400"]
        )
        assert code == EXIT_CONFIG
        assert not (out / "sparsified.hsc").exists()

    @pytest.mark.parametrize(
        "flags, lines",
        [
            ({"--lambda": ","}, ""),
            ({"--kappa": ","}, ""),
            ({"--algo": ","}, ""),
            ({}, "lambda = ,"),
        ],
        ids=["lambda-flag", "kappa-flag", "algo-flag", "lambda-file"],
    )
    def test_empty_sweep_list(self, cube_file, tmp_path, flags, lines):
        config = tmp_path / "run.ini"
        config.write_text(f"[run]\n{lines}\n")
        out = tmp_path / "bench"
        flags = {"--algo": "fista,gomp", "--kappa": "2", **flags}
        code = main(
            ["bench", "--input", str(cube_file), "--out", str(out), "--config", str(config),
             "--t-conv", "0", "--max-iter", "400", *[tok for flag in flags.items() for tok in flag]]
        )
        assert code == EXIT_CONFIG
        assert not list(out.glob("*"))  # refused before any file is written

    @pytest.mark.parametrize(
        "text",
        [
            "[run]\nkapa = 3\n",
            "[run]\nmax_itr = 5\n",
            "[run]\nformat = envi\n",
            "[run]\ndataset = salinas\n",
            "[fsta]\nlambda = 0.1\n",
            "[gomp]\nratio = 0.5\n",
            "[gomp]\njobs = 2\n",
            "[DEFAULT]\nkappa = 2\n",
            "[run]\nconfig = other.ini\n",
            "[run]\ng = 1\n",
            "[run]\nmu = 0.3\n",
            "[run]\nalpha = 2\n",
            "[gomp]\ng = 1\n",
            "[biht]\nmu = 0.3\n",
            "[admm]\nalpha = 2\n",
        ],
        ids=["misspelt-key", "misspelt-solver-key", "format", "dataset", "unknown-section",
             "run-key-in-solver-section", "jobs-in-solver-section", "default-section", "config",
             "g", "mu", "alpha", "g-in-solver-section", "mu-in-solver-section",
             "alpha-in-solver-section"],
    )
    def test_unknown_key_or_section_writes_nothing(self, cube_file, tmp_path, text):
        config = tmp_path / "run.ini"
        config.write_text(text)
        out = tmp_path / "bench"
        code = main(
            ["bench", "--input", str(cube_file), "--out", str(out), "--config", str(config),
             "--algo", "gomp", "--kappa", "2", "--t-conv", "0", "--max-iter", "400"]
        )
        assert code == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("command", ["recover", "bench"])
    @pytest.mark.parametrize(
        "flags",
        [
            ["--algo", "gomp", "--kappa", "3", "--G", "2"],
            ["--algo", "biht", "--kappa", "2", "--mu", "0.3"],
            ["--algo", "admm", "--alpha", "2"],
        ],
        ids=["G", "mu", "alpha"],
    )
    def test_unknown_flag_writes_nothing(self, cube_file, tmp_path, command, flags):
        # G, mu and alpha are SolverConfig fields that only Python callers set
        run_dir = tmp_path / "run"
        run_stages(cube_file, run_dir, "--algo", "gomp", "--kappa", "2")
        before = {path.name: path.read_bytes() for path in run_dir.iterdir()}
        inputs = ["--input", str(run_dir)] if command == "recover" else [
            "--input", str(cube_file), "--out", str(run_dir)]
        assert main([command, *inputs, "--t-conv", "0", "--max-iter", "400", *flags]) == EXIT_CONFIG
        assert {path.name: path.read_bytes() for path in run_dir.iterdir()} == before

    @pytest.mark.parametrize(
        "command",
        [["sparsify", "--out", "{out}"], ["compress"], ["report"]],
        ids=["sparsify", "compress", "report"],
    )
    def test_every_file_value_is_checked_whichever_command_runs(self, cube_file, tmp_path, command):
        # two export bands, which only bench reads, and which no command takes
        config = tmp_path / "run.ini"
        config.write_text("[run]\nexport_bands = 0,1\n")
        run_dir = tmp_path / "run"
        if command[0] != "sparsify":
            run_stages(cube_file, run_dir, "--algo", "gomp", "--kappa", "2")
        before = sorted(run_dir.rglob("*"))
        inputs = str(cube_file) if command[0] == "sparsify" else str(run_dir)
        argv = [command[0], "--input", inputs, "--config", str(config)]
        argv += [token.format(out=run_dir) for token in command[1:]]
        assert main(argv) == EXIT_CONFIG
        assert sorted(run_dir.rglob("*")) == before

    def test_a_flag_does_not_excuse_a_bad_file_value(self, cube_file, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[run]\nseed = three\n")
        out = tmp_path / "bench"
        code = main(["bench", "--input", str(cube_file), "--out", str(out), "--config", str(config),
                     "--seed", "3", "--algo", "gomp", "--kappa", "2", "--t-conv", "0", "--max-iter", "400"])
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_unreadable_config_file(self, cube_file, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("kappa = 3\n")  # section header missing
        code = main(
            ["bench", "--input", str(cube_file), "--out", str(tmp_path / "b"),
             "--config", str(config), "--algo", "gomp", "--kappa", "2"]
        )
        assert code == EXIT_CONFIG


def fresh_python(code, *args):
    """Run code in a new interpreter that imports this hypercs; the JSON
    value its last output line prints."""
    env = dict(os.environ)
    paths = [str(Path(hypercs.__file__).parents[1]), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestScipyLoading:
    """The toolkit runs on numpy alone: no command loads scipy.  Each check
    runs in a new interpreter, since this one has scipy loaded for the
    tests' oracles."""

    def test_stage_commands_and_a_convex_bench_run_without_scipy(self, cube_file, tmp_path):
        loaded = fresh_python(
            """
            import json, sys
            import hypercs.cli
            cube, run, bench = sys.argv[1:]
            loaded = {"import": "scipy" in sys.modules}
            for name, argv in [
                ("sparsify", ["sparsify", "--input", cube, "--out", run]),
                ("compress", ["compress", "--input", run]),
                ("bench", ["bench", "--input", cube, "--out", bench, "--algo", "fista,admm",
                           "--t-conv", "0", "--max-iter", "50"]),
                ("report", ["report", "--input", bench]),
            ]:
                assert hypercs.cli.main(argv) == 0, name
                loaded[name] = "scipy" in sys.modules
            print(json.dumps(loaded))
            """,
            cube_file, tmp_path / "run", tmp_path / "bench",
        )
        assert loaded == dict.fromkeys(["import", "sparsify", "compress", "bench", "report"], False)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_greedy_bench_loads_neither_scipy_nor_numpy_ma(self, cube_file, tmp_path, jobs):
        # the greedy least squares calls the LAPACK numpy links, so a process
        # holds one OpenBLAS, as its memory map shows; a fork handler logs
        # each forked pool worker, and an audit hook, which forked workers
        # inherit, logs each process that unpickles (a worker that gets a
        # tile does) and each load of scipy or numpy.ma, in the parent or a
        # worker
        found = fresh_python(
            """
            import json, multiprocessing, os, sys
            cube, out, jobs, log = sys.argv[1:]

            def record(event, name):
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()} {event} {name}\\n")

            def hook(event, args):
                if event == "pickle.find_class" or (event == "import" and args[0] in ("scipy", "numpy.ma")):
                    record(event, args[0])

            sys.addaudithook(hook)
            os.register_at_fork(after_in_child=lambda: record("fork", "-"))
            from hypercs.cli import main
            from hypercs.kernels import openblas_threads
            assert main(["bench", "--input", cube, "--out", out, "--algo", "gomp,biht,cosamp",
                         "--kappa", "2", "--t-conv", "0", "--max-iter", "50", "--jobs", jobs]) == 0
            try:
                with open("/proc/self/maps") as fh:
                    mapped = sorted({line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line.lower()})
            except OSError:
                mapped = None
            print(json.dumps({"pid": os.getpid(), "modules": sorted({"scipy", "numpy.ma"} & sys.modules.keys()),
                              "threads": [getter() for _, getter in openblas_threads()], "openblas": mapped,
                              "fork": multiprocessing.get_start_method() == "fork"}))
            """,
            cube_file, tmp_path / "bench", jobs, tmp_path / "audit.log",
        )
        log = tmp_path / "audit.log"
        events = [line.split() for line in log.read_text().splitlines()] if log.exists() else []
        assert found["modules"] == []
        assert [event for event in events if event[1] == "import"] == []
        forked = {pid for pid, event, _ in events if event == "fork"}
        unpickled = {pid for pid, event, _ in events if event == "pickle.find_class"} - {str(found["pid"])}
        # two workers fork for each run, where workers fork and so run the
        # hooks; a run's two tiles may both go to one of its workers
        pooled = jobs == 2 and found["fork"]
        assert len(forked) == (2 * 3 if pooled else 0)
        assert unpickled <= forked and len(unpickled) >= (3 if pooled else 0)
        assert found["threads"] == [1]
        for algorithm in ("gomp", "biht", "cosamp"):
            record = json.loads((tmp_path / "bench" / f"run_{algorithm}_kappa2.json").read_text())
            assert record["blas_threads"] == [1]
        if found["openblas"] is None:
            pytest.skip("no readable /proc/self/maps to count the loaded OpenBLAS libraries")
        assert len(found["openblas"]) == 1, found["openblas"]


class TestEntryPoint:
    def test_console_script_help(self):
        exe = shutil.which("hypercs")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "sparsify" in proc.stdout and "bench" in proc.stdout

    def test_usage_error_exits_2(self):
        assert main([]) == EXIT_CONFIG
        assert main(["sparsify", "--psnr-peak", "hdf5"]) == EXIT_CONFIG
