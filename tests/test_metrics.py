"""Metrics and reporting: PSNR, aggregation rows, CSV format, PPM export."""

import math

import numpy as np
import pytest

from hypercs import (
    HsiCube,
    SummaryRow,
    UndefinedMetricError,
    export_false_color,
    psnr,
    read_report,
    write_report,
)
from hypercs.metrics import REPORT_COMMENT, param_label
from hypercs.solvers import SolverConfig


def cube(values):
    return HsiCube(data=np.asarray(values, dtype=float))


class TestPsnr:
    def test_hand_value(self):
        # peak 1, MSE = (0.5^2 + 0) / 2 = 0.125 -> 10*log10(8)
        ref = cube([[[1.0, 0.0]]])
        rec = cube([[[0.5, 0.0]]])
        assert psnr(ref, rec) == pytest.approx(10.0 * math.log10(8.0))

    def test_peak_conventions_shift_by_the_peak_ratio(self):
        ref = cube([[[1.0, -2.0, 0.5]]])  # abs-max 2, signed-max 1, range 3
        rec = cube([[[0.9, -2.0, 0.5]]])
        base = psnr(ref, rec, "abs-max")
        assert psnr(ref, rec, "signed-max") == pytest.approx(base + 20 * math.log10(1 / 2))
        assert psnr(ref, rec, "range") == pytest.approx(base + 20 * math.log10(3 / 2))

    def test_identical_cubes_hit_the_sentinel(self):
        ref = cube([[[1.0, 2.0]]])
        assert psnr(ref, ref) == math.inf

    def test_all_zero_reference_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            psnr(cube([[[0.0, 0.0]]]), cube([[[1.0, 0.0]]]))

    def test_negative_reference_under_signed_max_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            psnr(cube([[[-1.0, -2.0]]]), cube([[[0.0, 0.0]]]), "signed-max")

    def test_shape_and_convention_validation(self):
        with pytest.raises(ValueError):
            psnr(cube([[[1.0]]]), cube([[[1.0, 2.0]]]))
        with pytest.raises(ValueError):
            psnr(cube([[[1.0]]]), cube([[[1.0]]]), "rms")


class TestSummaryRow:
    def test_validation(self):
        with pytest.raises(ValueError):
            SummaryRow("d", "newton", "λ=1", 10.0, 1, 50.0, 0.1)
        with pytest.raises(ValueError):
            SummaryRow("d", "fista", "λ=1", 10.0, 1, 101.0, 0.1)
        with pytest.raises(ValueError):
            SummaryRow("d", "fista", "λ=1", math.nan, 1, 50.0, 0.1)

    def test_param_label_follows_the_swept_parameter(self):
        assert param_label("fista", SolverConfig(lam=0.1)) == "λ=0.1"
        assert param_label("admm", SolverConfig(lam=100.0)) == "λ=100"
        assert param_label("gomp", SolverConfig(kappa=4)) == "κ=4"


class TestReportFile:
    def rows(self):
        return [
            SummaryRow("b-set", "gomp", "κ=4", 51.5, 120, 100.0, 2.25),
            SummaryRow("a-set", "fista", "λ=100", 44.1234567, 3655, 99.97, 1197.2),
            SummaryRow("a-set", "fista", "λ=0.1", math.inf, 64504, 94.89, 8351.0),
        ]

    def test_round_trip_and_sorting(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report(self.rows(), path)
        parsed = read_report(path)
        assert [(r.dataset, r.algorithm, r.param_label) for r in parsed] == [
            ("a-set", "fista", "λ=0.1"),
            ("a-set", "fista", "λ=100"),
            ("b-set", "gomp", "κ=4"),
        ]
        assert parsed[0].psnr_db == math.inf
        assert parsed[1].psnr_db == pytest.approx(44.1235)  # 4 decimal places
        assert parsed[2].recovery_time_s == pytest.approx(2.25)

    def test_layout_is_stable_and_flagged(self, tmp_path):
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_report(self.rows(), path_a)
        write_report(list(reversed(self.rows())), path_b)
        content = path_a.read_text()
        assert content.startswith(REPORT_COMMENT + "\n")
        assert content.splitlines()[1] == (
            "dataset,algorithm,param,psnr_db,iterations,convergence_pct,recovery_time_s"
        )
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_infinite_psnr_renders_as_identical(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report(self.rows(), path)
        line = path.read_text().splitlines()[2]
        assert line.startswith("a-set,fista,λ=0.1,identical,")

    def test_non_report_file_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError):
            read_report(path)


class TestFalseColor:
    def test_ppm_layout(self, tmp_path):
        data = np.zeros((2, 3, 4))
        data[:, :, 0] = [[0.0, 10.0, 20.0], [30.0, 40.0, 50.0]]  # ramp band
        data[:, :, 1] = 7.5  # flat band
        data[:, :, 2] = [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        path = tmp_path / "img.ppm"
        export_false_color(HsiCube(data=data), (0, 1, 2), path)
        raw = path.read_bytes()
        assert raw.startswith(b"P6\n2 3\n255\n")
        pixels = np.frombuffer(raw[len(b"P6\n2 3\n255\n"):], dtype=np.uint8)
        image = pixels.reshape(3, 2, 3)  # rows are y lines
        assert image[0, 0, 0] == 0 and image[2, 1, 0] == 255  # min-max scaled
        assert image[:, :, 1].max() == 0  # flat band maps to 0
        assert image[0, 0, 2] == 255 and image[1, 0, 2] == 0

    def test_band_validation(self, tmp_path):
        c = HsiCube(data=np.ones((1, 1, 3)))
        with pytest.raises(ValueError):
            export_false_color(c, (0, 1), tmp_path / "x.ppm")
        with pytest.raises(IndexError):
            export_false_color(c, (0, 1, 3), tmp_path / "x.ppm")
