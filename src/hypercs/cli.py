"""Command-line pipeline: sparsify -> compress -> recover -> report.

Each stage reads and writes files in a run directory so the stages compose:
`bench` simply chains them in-process.  Numeric flags may also come from an
INI-style config file (section [run] plus one section per algorithm); flags
given on the command line win over file values.

Exit codes: 0 success, 2 configuration error, 3 I/O or file-format error,
4 completed with pixels that failed numerically.
"""

import argparse
import configparser
import csv
import json
import math
import os
import re
import struct
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .cube import CubeFormat, CubeFormatError, HsiCube, load_cube, save_cube
from .kernels import one_blas_thread
from .metrics import (
    PEAK_CONVENTIONS,
    SummaryRow,
    export_false_color,
    param_label,
    psnr,
    write_report,
)
from .solvers import CONVEX_SOLVERS, SOLVERS, SolverConfig, recover_cube
from .transform import (
    build_dft_basis,
    build_dictionary,
    build_selection_mask,
    from_sparse_domain,
    load_mask,
    measure,
    save_mask,
    sparsify,
    to_sparse_domain,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PARTIAL = 4

JOBS_ENV = "HYPERCS_JOBS"

MEAS_MAGIC = b"HSM1"
MEAS_HEADER = struct.Struct("<IIII")

SPARSIFIED_FILE = "sparsified.hsc"
SPARSIFY_STATS_FILE = "sparsify_stats.json"
MEASUREMENTS_FILE = "measurements.hsm"
MASK_FILE = "mask.txt"
REPORT_FILE = "report.csv"


class ConfigError(Exception):
    """Bad or missing run parameters."""


class PipelineFileError(Exception):
    """A pipeline artifact is missing pieces or does not parse."""


def save_measurements(path, measurements, n):
    """Per-pixel measurement file: magic, x/y/m/n dims, complex128 payload."""
    meas = np.ascontiguousarray(measurements, dtype=np.complex128)
    x, y, m = meas.shape
    with open(path, "wb") as fh:
        fh.write(MEAS_MAGIC)
        fh.write(MEAS_HEADER.pack(x, y, m, n))
        meas.tofile(fh)


def load_measurements(path):
    """(x, y, m) complex128 measurements and n, the band count."""
    with open(path, "rb") as fh:
        head = fh.read(4 + MEAS_HEADER.size)
        if len(head) < 4 + MEAS_HEADER.size or head[:4] != MEAS_MAGIC:
            raise PipelineFileError(f"{path}: not a measurement file")
        x, y, m, n = MEAS_HEADER.unpack_from(head, 4)
        count = x * y * m
        if os.fstat(fh.fileno()).st_size != len(head) + count * 16:
            raise PipelineFileError(f"{path}: payload size does not match the header")
        meas = np.fromfile(fh, dtype="<c16", count=count)
    return meas.reshape(x, y, m), n


# ---------------------------------------------------------------- stages


def run_sparsify(input_path, fmt_name, factor, out_dir, peak, dataset=None):
    fmt = None if fmt_name in (None, "auto") else CubeFormat(kind=fmt_name)
    cube = load_cube(input_path, fmt)
    basis = build_dft_basis(cube.bands)
    data = np.empty_like(cube.data)
    zero_fractions = np.empty(cube.data.shape[:2])
    # per x-line: whole-cube temporaries would linger in forked workers' heap
    for ix, line in enumerate(cube.data):
        kept, stats = sparsify(to_sparse_domain(line, basis), factor)
        data[ix], _ = from_sparse_domain(kept, basis)
        zero_fractions[ix] = stats.zero_fraction
    sparsified = HsiCube(data=data)
    # whole per-pixel zero counts keep the cube's fraction exact
    zeroed = float(np.rint(zero_fractions * cube.bands).sum())

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_cube(sparsified, out_dir / SPARSIFIED_FILE)
    quality = psnr(cube, sparsified, peak)
    stats = {
        "dataset": dataset or Path(input_path).stem,
        "threshold_factor": factor,
        "zero_fraction": zeroed / cube.samples.size,
        "psnr_db_vs_original": "identical" if math.isinf(quality) else quality,
        "x": cube.x,
        "y": cube.y,
        "bands": cube.bands,
    }
    (out_dir / SPARSIFY_STATS_FILE).write_text(json.dumps(stats, indent=1) + "\n")
    print(f"[sparsify] {out_dir / SPARSIFIED_FILE} zero_fraction={stats['zero_fraction']:.4f}")
    return stats


def run_compress(out_dir, ratio, seed, cube_path=None):
    out_dir = Path(out_dir)
    cube = load_cube(cube_path or out_dir / SPARSIFIED_FILE)
    mask = build_selection_mask(cube.bands, ratio, seed)
    measurements = measure(cube.data, mask)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_measurements(out_dir / MEASUREMENTS_FILE, measurements, cube.bands)
    save_mask(mask, out_dir / MASK_FILE)
    print(f"[compress] kept {mask.m}/{cube.bands} bands per pixel (seed {seed})")
    return mask


def _tag(algorithm, config):
    if algorithm in CONVEX_SOLVERS:
        return f"{algorithm}_lambda{config.lam:g}"
    return f"{algorithm}_kappa{config.kappa}"


def _write_pixel_log(path, stats, y_dim):
    """One row per pixel in raster order; a failed pixel reads
    x,y,<failed_at>,0,,,1."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "y", "iterations", "converged", "elapsed_s", "final_delta", "failed"])
        rows = zip(
            stats.iterations.tolist(),
            stats.converged.tolist(),
            stats.elapsed.tolist(),
            stats.final_delta.tolist(),
            stats.failed_at.tolist(),
        )
        for index, (iterations, converged, elapsed, final_delta, failed_at) in enumerate(rows):
            ix, iy = divmod(index, y_dim)
            if failed_at:
                writer.writerow([ix, iy, failed_at, 0, "", "", 1])
            else:
                writer.writerow(
                    [ix, iy, iterations, int(converged), f"{elapsed:.6f}", f"{final_delta:.3e}", 0]
                )


def run_recover(run_dir, algorithm, config, jobs, dataset=None, blas_threads=None):
    run_dir = Path(run_dir)
    measurements, n = load_measurements(run_dir / MEASUREMENTS_FILE)
    try:
        mask = load_mask(run_dir / MASK_FILE)
    except ValueError as exc:  # UnicodeDecodeError included
        raise PipelineFileError(f"{run_dir / MASK_FILE}: {exc}") from None
    if mask.n != n or mask.m != measurements.shape[2]:
        raise PipelineFileError(f"{run_dir}: mask does not match the measurement file")
    if dataset is None:
        stats_path = run_dir / SPARSIFY_STATS_FILE
        if stats_path.exists():
            dataset = json.loads(stats_path.read_text()).get("dataset")
        dataset = dataset or run_dir.name

    basis = build_dft_basis(n)
    dictionary = build_dictionary(basis, mask)
    sparse_cube, stats = recover_cube(measurements, dictionary, config, algorithm, jobs)
    spectra, _ = from_sparse_domain(sparse_cube, basis)

    tag = _tag(algorithm, config)
    save_cube(HsiCube(data=spectra), run_dir / f"recovered_{tag}.hsc")
    _write_pixel_log(run_dir / f"pixels_{tag}.csv", stats, measurements.shape[1])
    meta = {
        "dataset": dataset,
        "algorithm": algorithm,
        "param_label": param_label(algorithm, config),
        "tag": tag,
        "n_pixels": stats.n_pixels,
        "n_converged": stats.n_converged,
        "n_failed": stats.n_failed,
        "n_zero_pixels": stats.n_zero_pixels,
        "total_iterations": stats.total_iterations,
        "mean_iterations_per_pixel": stats.total_iterations / stats.n_pixels,
        "convergence_pct": stats.convergence_pct,
        "recovery_time_s": stats.recovery_time_s,
        "blas_threads": blas_threads,
        "recovered_file": f"recovered_{tag}.hsc",
        "pixels_file": f"pixels_{tag}.csv",
        "config": asdict(config),
    }
    (run_dir / f"run_{tag}.json").write_text(json.dumps(meta, indent=1) + "\n")
    print(
        f"[recover] {tag}: {stats.n_converged}/{stats.n_pixels} converged, "
        f"{stats.total_iterations} iterations, {stats.n_failed} failed"
    )
    return stats, tag


def run_report(run_dir, out_path, dataset=None, peak="abs-max"):
    run_dir = Path(run_dir)
    sparsified = load_cube(run_dir / SPARSIFIED_FILE)
    rows = []
    for meta_path in sorted(run_dir.glob("run_*.json")):
        try:
            meta = json.loads(meta_path.read_text())
            fields = {
                "dataset": dataset or meta["dataset"],
                "algorithm": meta["algorithm"],
                "param_label": meta["param_label"],
                "total_iterations": meta["total_iterations"],
                "convergence_pct": meta["convergence_pct"],
                "recovery_time_s": meta["recovery_time_s"],
                "n_converged": meta["n_converged"],
                "n_zero_pixels": meta["n_zero_pixels"],
                "recovered_file": meta["recovered_file"],
            }
        except (KeyError, json.JSONDecodeError) as exc:
            raise PipelineFileError(f"{meta_path}: unreadable recovery record: {exc}") from None
        if (
            fields["n_converged"] > 0
            and fields["total_iterations"] == 0
            and fields["n_converged"] > fields["n_zero_pixels"]
        ):
            raise PipelineFileError(f"{meta_path}: converged pixels with zero iterations")
        quality = psnr(sparsified, load_cube(run_dir / fields["recovered_file"]), peak)
        rows.append(
            SummaryRow(
                dataset=fields["dataset"],
                algorithm=fields["algorithm"],
                param_label=fields["param_label"],
                psnr_db=quality,
                total_iterations=fields["total_iterations"],
                convergence_pct=fields["convergence_pct"],
                recovery_time_s=fields["recovery_time_s"],
            )
        )
    if not rows:
        raise PipelineFileError(f"{run_dir}: no recovery records to report")
    write_report(rows, out_path)
    print(f"[report] {out_path}: {len(rows)} rows")
    return rows


# ------------------------------------------------------- flag resolution


def _parse_floats(text):
    return [float(tok) for tok in re.split(r"[,\s]+", str(text).strip()) if tok]


def _parse_ints(text):
    return [int(tok) for tok in re.split(r"[,\s]+", str(text).strip()) if tok]


def _load_config_file(path):
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return {section: dict(parser[section]) for section in parser.sections()}


class Settings:
    """CLI flags override config-file values override defaults.

    Algorithm sections ([fista], [gomp], ...) specialize the [run] section.
    """

    def __init__(self, args):
        self.args = args
        self.file = _load_config_file(getattr(args, "config", None))

    def get(self, key, default=None, cast=None, algo=None, file_key=None):
        value = getattr(self.args, key, None)
        if value is not None:
            return value  # argparse already applied the flag's type
        file_key = file_key or key
        for section in ([algo] if algo else []) + ["run"]:
            raw = self.file.get(section, {}).get(file_key)
            if raw is not None:
                if cast is None:
                    return raw
                try:
                    return cast(raw)
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"bad value for {key}: {exc}") from None
        return default

    def require(self, key, cast=None, algo=None, file_key=None):
        value = self.get(key, cast=cast, algo=algo, file_key=file_key)
        if value is None:
            raise ConfigError(f"missing required parameter --{key.replace('_', '-')}")
        return value


def _resolve_jobs(settings):
    jobs = settings.get("jobs", cast=int)
    if jobs is None:
        env = os.environ.get(JOBS_ENV)
        if env is not None:
            try:
                jobs = int(env)
            except ValueError:
                raise ConfigError(f"bad {JOBS_ENV} value {env!r}") from None
    if jobs is None:
        jobs = 1
    if jobs < 0:
        raise ConfigError("jobs must be >= 0")
    return jobs or None  # 0 means auto-detect


def _solver_params(settings, algo):
    """Build the SolverConfig(s) for one algorithm.

    The swept parameter is lambda for the convex solvers and kappa for the
    greedy ones; every other knob resolves to a single value.
    """
    if algo not in SOLVERS:
        raise ConfigError(f"unknown algorithm {algo!r}")
    base = dict(
        mu=settings.get("mu", cast=float, algo=algo, default=0.1),
        alpha=settings.get("alpha", cast=float, algo=algo, default=1.8),
        epsilon=settings.get("epsilon", cast=float, algo=algo, default=1e-8),
        seed=settings.get("seed", cast=int, default=0),
    )
    t_conv = settings.get("t_conv", cast=float, algo=algo, default=2.0)
    base["time_limit"] = None if t_conv <= 0 else t_conv
    max_iter = settings.get("max_iter", cast=int, algo=algo)
    base["max_iter"] = None if max_iter in (None, 0) else max_iter

    atoms = settings.get("atoms_per_iter", cast=int, algo=algo, file_key="g")
    configs = []
    try:
        if algo in CONVEX_SOLVERS:
            lams = settings.get(
                "lam", cast=_parse_floats, algo=algo, file_key="lambda", default=[0.1]
            )
            for lam in lams:
                configs.append(SolverConfig(lam=lam, **base))
        else:
            kappas = settings.require("kappa", cast=_parse_ints, algo=algo)
            for kappa in kappas:
                configs.append(SolverConfig(kappa=kappa, atoms_per_iter=atoms, **base))
    except ValueError as exc:
        raise ConfigError(f"{algo}: {exc}") from None
    return configs


def _algorithms(settings):
    algos = settings.get("algos", file_key="algo")
    if algos is None:
        raise ConfigError("missing required parameter --algo")
    if isinstance(algos, str):
        algos = [tok for tok in re.split(r"[,\s]+", algos) if tok]
    for algo in algos:
        if algo not in SOLVERS:
            raise ConfigError(f"unknown algorithm {algo!r}")
    return algos


def _export_bands(settings):
    raw = settings.get("export_bands")
    if raw is None:
        return None
    bands = _parse_ints(raw)
    if len(bands) != 3:
        raise ConfigError("--export-bands needs exactly three band indexes")
    return bands


# ------------------------------------------------------------ commands


def _sparsify(settings):
    run_sparsify(
        input_path=settings.require("input"),
        fmt_name=settings.get("fmt", file_key="format", default="auto"),
        factor=settings.get("threshold_factor", cast=float, file_key="t", default=0.1),
        out_dir=settings.require("out"),
        peak=settings.get("psnr_peak", default="abs-max"),
        dataset=settings.get("dataset"),
    )


def cmd_sparsify(args):
    _sparsify(Settings(args))
    return EXIT_OK


def cmd_compress(args):
    settings = Settings(args)
    run_compress(
        out_dir=settings.require("input"),
        ratio=settings.get("ratio", cast=float, default=0.4),
        seed=settings.get("seed", cast=int, default=0),
        cube_path=settings.get("cube"),
    )
    return EXIT_OK


def cmd_recover(args):
    settings = Settings(args)
    algos = _algorithms(settings)
    if len(algos) != 1:
        raise ConfigError("recover takes exactly one --algo")
    configs = _solver_params(settings, algos[0])
    if len(configs) != 1:
        raise ConfigError("recover takes a single parameter value; use bench to sweep")
    stats, _ = run_recover(
        run_dir=settings.require("input"),
        algorithm=algos[0],
        config=configs[0],
        jobs=_resolve_jobs(settings),
        dataset=settings.get("dataset"),
        blas_threads=args.blas_threads,
    )
    return EXIT_PARTIAL if stats.n_failed else EXIT_OK


def cmd_report(args):
    settings = Settings(args)
    run_dir = settings.require("input")
    out_path = settings.get("out") or str(Path(run_dir) / REPORT_FILE)
    run_report(
        run_dir=run_dir,
        out_path=out_path,
        dataset=settings.get("dataset"),
        peak=settings.get("psnr_peak", default="abs-max"),
    )
    return EXIT_OK


def cmd_bench(args):
    settings = Settings(args)
    out_dir = Path(settings.require("out"))
    algos = _algorithms(settings)
    bands = _export_bands(settings)
    dataset = settings.get("dataset")

    _sparsify(settings)
    run_compress(
        out_dir=out_dir,
        ratio=settings.get("ratio", cast=float, default=0.4),
        seed=settings.get("seed", cast=int, default=0),
    )
    jobs = _resolve_jobs(settings)
    failed = 0
    tags = []
    for algo in algos:
        for config in _solver_params(settings, algo):
            stats, tag = run_recover(out_dir, algo, config, jobs, dataset, args.blas_threads)
            failed += stats.n_failed
            tags.append(tag)
    run_report(
        run_dir=out_dir,
        out_path=out_dir / REPORT_FILE,
        dataset=dataset,
        peak=settings.get("psnr_peak", default="abs-max"),
    )
    if bands is not None:
        # one cube in memory at a time
        sources = {"original": settings.require("input"), "sparsified": out_dir / SPARSIFIED_FILE}
        sources.update((tag, out_dir / f"recovered_{tag}.hsc") for tag in tags)
        for name, path in sources.items():
            export_false_color(load_cube(path), bands, out_dir / f"falsecolor_{name}.ppm")
        print(f"[export] wrote {2 + len(tags)} false-color images")
    return EXIT_PARTIAL if failed else EXIT_OK


# -------------------------------------------------------------- parser


def _add_common(parser, *names):
    if "input" in names:
        parser.add_argument("--input", help="input cube file or run directory")
    if "out" in names:
        parser.add_argument("--out", help="output directory or file")
    if "config" in names:
        parser.add_argument("--config", help="INI config file ([run] plus per-algorithm sections)")
    if "dataset" in names:
        parser.add_argument("--dataset", help="dataset name used in report rows")
    if "psnr_peak" in names:
        parser.add_argument(
            "--psnr-peak",
            dest="psnr_peak",
            choices=PEAK_CONVENTIONS,
            help="peak convention for PSNR (default abs-max)",
        )


def _add_solver_flags(parser):
    parser.add_argument("--algo", dest="algos", action="append", choices=sorted(SOLVERS))
    parser.add_argument("--lambda", dest="lam", type=_parse_floats, help="l1 weight(s), comma separated")
    parser.add_argument("--kappa", dest="kappa", type=_parse_ints, help="sparsity target(s), comma separated")
    parser.add_argument("--G", dest="atoms_per_iter", type=int, help="atoms gomp adds per iteration")
    parser.add_argument("--mu", type=float, help="biht gradient step factor")
    parser.add_argument("--alpha", type=float, help="admm quadratic penalty")
    parser.add_argument("--epsilon", type=float, help="residual-delta convergence threshold")
    parser.add_argument("--t-conv", dest="t_conv", type=float, help="time budget in seconds (<= 0 disables)")
    parser.add_argument("--max-iter", dest="max_iter", type=int, help="iteration cap (0 means unlimited)")
    parser.add_argument("--jobs", type=int, help=f"worker processes, 0 = auto (env {JOBS_ENV})")
    parser.add_argument("--seed", type=int, help="run seed")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypercs",
        description="Compressive-sensing pipeline for hyperspectral cubes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sparsify", help="zero weak inverse-DFT coefficients of every pixel")
    _add_common(p, "input", "out", "config", "dataset", "psnr_peak")
    p.add_argument("--format", dest="fmt", choices=("auto", "native", "envi"))
    p.add_argument("--T", dest="threshold_factor", type=float, help="sparsification factor")
    p.set_defaults(func=cmd_sparsify)

    p = sub.add_parser("compress", help="subsample the sparsified cube into measurements")
    _add_common(p, "input", "config")
    p.add_argument("--cube", help="cube to compress (default: sparsified.hsc in the run dir)")
    p.add_argument("--ratio", type=float, help="fraction of bands to keep")
    p.add_argument("--seed", type=int, help="mask seed")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("recover", help="solve every pixel from the stored measurements")
    _add_common(p, "input", "config", "dataset")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("bench", help="full pipeline over every algorithm/parameter pair")
    _add_common(p, "input", "out", "config", "dataset", "psnr_peak")
    p.add_argument("--format", dest="fmt", choices=("auto", "native", "envi"))
    p.add_argument("--T", dest="threshold_factor", type=float, help="sparsification factor")
    p.add_argument("--ratio", type=float, help="fraction of bands to keep")
    p.add_argument("--export-bands", dest="export_bands", help="three band indexes for false-color PPMs")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="aggregate recovery records into a CSV report")
    _add_common(p, "input", "out", "config", "dataset", "psnr_peak")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    args.blas_threads = one_blas_thread()
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CubeFormatError, PipelineFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
