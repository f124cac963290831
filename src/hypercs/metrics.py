"""Accuracy metrics, summary rows, CSV reports, and false-color export."""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .solvers import CONVEX_SOLVERS, SOLVERS

PEAK_CONVENTIONS = ("abs-max", "signed-max", "range")

REPORT_COMMENT = "# recovery_time_s is wall-clock and varies between runs"
REPORT_HEADER = (
    "dataset",
    "algorithm",
    "param",
    "psnr_db",
    "iterations",
    "convergence_pct",
    "recovery_time_s",
)
IDENTICAL = "identical"


class UndefinedMetricError(ValueError):
    """The metric is undefined for these inputs (e.g. an all-zero reference)."""


def psnr(reference, reconstruction, peak="abs-max"):
    """Peak signal-to-noise ratio in dB between two cubes.

    The peak is taken over the reference cube only; `peak` picks the
    convention: "abs-max" (largest magnitude, default), "signed-max", or
    "range" (max - min).  Identical cubes return math.inf, the sentinel
    rendered as "identical" in reports.
    """
    ref = reference.data
    rec = reconstruction.data
    if ref.shape != rec.shape:
        raise ValueError(f"cube shapes differ: {ref.shape} vs {rec.shape}")
    if peak == "abs-max":
        peak_value = float(np.abs(ref).max())
    elif peak == "signed-max":
        peak_value = float(ref.max())
    elif peak == "range":
        peak_value = float(ref.max() - ref.min())
    else:
        raise ValueError(f"unknown peak convention {peak!r}")
    if peak_value <= 0:
        raise UndefinedMetricError(f"non-positive peak {peak_value} under {peak!r}")
    mse = float(np.mean((ref - rec) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak_value * peak_value / mse)


@dataclass
class SummaryRow:
    """One benchmark line: dataset x algorithm x parameter value."""

    dataset: str
    algorithm: str
    param_label: str
    psnr_db: float
    total_iterations: int
    convergence_pct: float
    recovery_time_s: float

    def __post_init__(self):
        if self.algorithm not in SOLVERS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not 0.0 <= self.convergence_pct <= 100.0:
            raise ValueError("convergence_pct outside [0, 100]")
        if math.isnan(self.psnr_db):
            raise ValueError("psnr_db is NaN")


def param_label(algorithm, config):
    """The swept parameter of an algorithm: lambda for the convex solvers,
    kappa for the greedy ones."""
    if algorithm in CONVEX_SOLVERS:
        return f"λ={config.lam:g}"
    return f"κ={config.kappa}"


def _format_psnr(value):
    return IDENTICAL if math.isinf(value) else f"{value:.4f}"


def write_report(rows, path):
    """Deterministic CSV report: rows sorted by (dataset, algorithm, param),
    fixed float formatting, a comment line flagging the timing column."""
    ordered = sorted(rows, key=lambda r: (r.dataset, r.algorithm, r.param_label))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(REPORT_COMMENT + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_HEADER)
        for row in ordered:
            writer.writerow(
                [
                    row.dataset,
                    row.algorithm,
                    row.param_label,
                    _format_psnr(row.psnr_db),
                    row.total_iterations,
                    f"{row.convergence_pct:.2f}",
                    f"{row.recovery_time_s:.6f}",
                ]
            )


def read_report(path):
    """Parse a report written by write_report back into SummaryRows."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None or tuple(header) != REPORT_HEADER:
        raise ValueError(f"{path}: not a report file")
    for record in reader:
        if not record:
            continue
        dataset, algorithm, param, psnr_s, iters, conv, elapsed = record
        rows.append(
            SummaryRow(
                dataset=dataset,
                algorithm=algorithm,
                param_label=param,
                psnr_db=math.inf if psnr_s == IDENTICAL else float(psnr_s),
                total_iterations=int(iters),
                convergence_pct=float(conv),
                recovery_time_s=float(elapsed),
            )
        )
    return rows


def export_false_color(cube, bands, path):
    """Write a binary P6 PPM using three cube bands as R, G, B.

    Each band is min-max normalized to 8 bits on its own; a flat band maps
    to 0.
    """
    if len(bands) != 3:
        raise ValueError("need exactly three band indexes")
    for b in bands:
        if not 0 <= b < cube.bands:
            raise IndexError(f"band {b} outside [0, {cube.bands})")
    image = np.zeros((cube.y, cube.x, 3), dtype=np.uint8)
    for channel, band in enumerate(bands):
        plane = cube.data[:, :, band].T  # rows are image lines (y)
        lo = float(plane.min())
        hi = float(plane.max())
        if hi > lo:
            image[:, :, channel] = np.round((plane - lo) / (hi - lo) * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{cube.x} {cube.y}\n255\n".encode("ascii"))
        fh.write(image.tobytes())
