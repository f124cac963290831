"""Command-line pipeline: sparsify -> compress -> recover -> report.

Each stage reads and writes files in a run directory so the stages compose:
`bench` simply chains them in-process.  Every option is declared once, in
OPTIONS; its value may also come from an INI-style config file (section
[run] plus one section per algorithm), and a flag given on the command line
wins over a file value.

Exit codes: 0 success, 2 configuration error, 3 I/O or file-format error,
4 completed with pixels that failed numerically.
"""

import argparse
import configparser
import csv
import json
import math
import re
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .cube import CubeFormatError, HsiCube, load_cube, read_native, save_cube, write_native
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

MEAS_MAGIC = b"HSM1"

SPARSIFIED_FILE = "sparsified.hsc"
SPARSIFY_STATS_FILE = "sparsify_stats.json"
MEASUREMENTS_FILE = "measurements.hsm"
MASK_FILE = "mask.txt"
REPORT_FILE = "report.csv"

DEFAULT_RATIO = 0.4
DEFAULT_SEED = 0


class ConfigError(Exception):
    """Bad or missing run parameters."""


class PipelineFileError(Exception):
    """A pipeline artifact is missing pieces or does not parse."""


def save_measurements(path, measurements, n):
    """Per-pixel measurement file in the native layout: magic HSM1, x/y/m/n
    dims, complex128 payload."""
    meas = np.ascontiguousarray(measurements, dtype="<c16")
    x, y, m = meas.shape
    write_native(path, MEAS_MAGIC, (x, y, m, n), meas)


def load_measurements(path):
    """(x, y, m) complex128 measurements and n, the band count."""
    (x, y, m, n), meas = read_native(path, MEAS_MAGIC, 4, ("<c16",), PipelineFileError)
    return meas.reshape(x, y, m), n


# ---------------------------------------------------------------- stages


def run_sparsify(input_path, out_dir, kind="auto", factor=0.1, peak="abs-max", dataset=None,
                 check=None):
    """check, if given, is called with the cube's band count before any file is written."""
    cube = load_cube(input_path, None if kind == "auto" else kind)
    if check is not None:
        check(cube.bands)
    basis = build_dft_basis(cube.bands)
    data = np.empty_like(cube.data)
    zeroed = 0.0  # a sum of whole per-pixel zero counts keeps the cube's fraction exact
    # per x-line: whole-cube temporaries would linger in forked workers' heap
    for ix, line in enumerate(cube.data):
        kept, stats = sparsify(to_sparse_domain(line, basis), factor)
        data[ix], _ = from_sparse_domain(kept, basis)
        zeroed += np.rint(stats.zero_fraction * cube.bands).sum()
    sparsified = HsiCube(data=data)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_cube(sparsified, out_dir / SPARSIFIED_FILE)
    quality = psnr(cube, sparsified, peak)
    stats = {
        "dataset": dataset or Path(input_path).stem,
        "threshold_factor": factor,
        "zero_fraction": float(zeroed) / cube.samples.size,
        "psnr_db_vs_original": "identical" if math.isinf(quality) else quality,
        "x": cube.x,
        "y": cube.y,
        "bands": cube.bands,
    }
    (out_dir / SPARSIFY_STATS_FILE).write_text(json.dumps(stats, indent=1) + "\n")
    print(f"[sparsify] {out_dir / SPARSIFIED_FILE} zero_fraction={stats['zero_fraction']:.4f}")
    return stats


def run_compress(out_dir, ratio=DEFAULT_RATIO, seed=DEFAULT_SEED):
    out_dir = Path(out_dir)
    cube = load_cube(out_dir / SPARSIFIED_FILE)
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
            try:
                dataset = json.loads(stats_path.read_text()).get("dataset")
            except (AttributeError, ValueError) as exc:  # not UTF-8, not JSON, not an object
                raise PipelineFileError(f"{stats_path}: unreadable sparsify record: {exc}") from None
        dataset = dataset or run_dir.name

    basis = build_dft_basis(n)
    dictionary = build_dictionary(basis, mask)
    sparse_cube, stats = recover_cube(measurements, dictionary, config, algorithm, jobs)
    spectra = np.empty(sparse_cube.shape)
    # per x-line: the whole cube's complex spectra would double the peak
    for ix, line in enumerate(sparse_cube):
        spectra[ix], _ = from_sparse_domain(line, basis)

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


def run_report(run_dir, out_path=None, dataset=None, peak="abs-max"):
    run_dir = Path(run_dir)
    out_path = out_path or run_dir / REPORT_FILE
    sparsified = load_cube(run_dir / SPARSIFIED_FILE)
    rows = []
    for meta_path in sorted(run_dir.glob("run_*.json")):
        try:
            meta = json.loads(meta_path.read_text())
            n_converged = meta["n_converged"]
            if n_converged > 0 and meta["total_iterations"] == 0 and n_converged > meta["n_zero_pixels"]:
                raise PipelineFileError(f"{meta_path}: converged pixels with zero iterations")
            recovered = load_cube(run_dir / meta["recovered_file"])
            if recovered.data.shape != sparsified.data.shape:
                raise PipelineFileError(f"{meta_path}: recovered cube shape {recovered.data.shape} "
                                        f"differs from {SPARSIFIED_FILE}'s {sparsified.data.shape}")
            # an undefined PSNR (a ValueError) is the peak convention's fault, not the record's
            quality = psnr(sparsified, recovered, peak)
        except (KeyError, TypeError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise PipelineFileError(f"{meta_path}: unreadable recovery record: {exc}") from None
        try:
            rows.append(SummaryRow(
                dataset=dataset or meta["dataset"],
                algorithm=meta["algorithm"],
                param_label=meta["param_label"],
                psnr_db=quality,
                total_iterations=meta["total_iterations"],
                convergence_pct=meta["convergence_pct"],
                recovery_time_s=meta["recovery_time_s"],
            ))
        except (KeyError, TypeError, ValueError) as exc:  # a value out of range included
            raise PipelineFileError(f"{meta_path}: unreadable recovery record: {exc}") from None
    if not rows:
        raise PipelineFileError(f"{run_dir}: no recovery records to report")
    write_report(rows, out_path)
    print(f"[report] {out_path}: {len(rows)} rows")
    return rows


# ------------------------------------------------------------- options


def _split(text):
    if tokens := re.findall(r"[^,\s]+", str(text)):
        return tokens
    raise argparse.ArgumentTypeError("needs at least one value")


def _parse_floats(text):
    return [float(tok) for tok in _split(text)]


def _parse_ints(text):
    return [int(tok) for tok in _split(text)]


def _parse_algos(text):
    algos = _split(text)
    for algo in algos:
        if algo not in SOLVERS:
            raise argparse.ArgumentTypeError(f"unknown algorithm {algo!r}")
    return algos


def _parse_band_triple(text):
    bands = _parse_ints(text)
    if len(bands) != 3:
        raise argparse.ArgumentTypeError("needs exactly three band indexes")
    return bands


@dataclass(frozen=True)
class Option:
    """One command-line option.

    Its config-file key is the flag's name in lower case with "-" as "_"
    (flag --x-y, key x_y).  Solver options are read from the [<algo>] section
    before [run].  param is the stage or SolverConfig parameter that the
    value sets, where that is not the key.
    """

    flag: str
    help: str
    type: Callable = str
    choices: tuple | None = None
    param: str | None = None
    solver: bool = False
    action: str = "store"

    @property
    def key(self):
        return self.flag.lstrip("-").lower().replace("-", "_")


OPTIONS = {
    option.key: option
    for option in (
        Option("--input", "input cube file or run directory"),
        Option("--out", "output directory or file"),
        Option("--config", "INI config file ([run] plus per-algorithm sections)"),
        Option("--dataset", "dataset name used in report rows"),
        Option("--psnr-peak", "peak convention for PSNR", choices=PEAK_CONVENTIONS, param="peak"),
        Option("--format", "input cube format", choices=("auto", "native", "envi"), param="kind"),
        Option("--T", "sparsification factor", float, param="factor"),
        Option("--ratio", "fraction of bands to keep", float),
        Option("--seed", "mask seed", int),
        Option("--export-bands", "three band indexes for false-color PPMs", _parse_band_triple),
        Option("--algo", "solver(s), comma separated: " + ", ".join(sorted(SOLVERS)), _parse_algos,
               action="extend"),
        Option("--lambda", "l1 weight(s), comma separated", _parse_floats, param="lam", solver=True),
        Option("--kappa", "sparsity target(s), comma separated", _parse_ints, solver=True),
        Option("--G", "atoms gomp adds per iteration", int, param="atoms_per_iter", solver=True),
        Option("--mu", "biht gradient step factor", float, solver=True),
        Option("--alpha", "admm starting penalty, balanced per pixel", float, solver=True),
        Option("--epsilon", "residual-delta convergence threshold", float, solver=True),
        Option("--t-conv", "time budget in seconds (<= 0 disables)", float, param="time_limit",
               solver=True),
        Option("--max-iter", "iteration cap (0 means unlimited)", int, solver=True),
        Option("--jobs", "worker processes, 0 = auto (default 1)", int),
    )
}

SOLVER_OPTIONS = ["algo", *(key for key, option in OPTIONS.items() if option.solver), "jobs"]


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
    """A flag wins over the config file's [<algo>] section (solver options
    only), which wins over its [run] section; a value none of them gives is
    None."""

    def __init__(self, args):
        self.args = args
        self.file = _load_config_file(args.config)

    def get(self, key, algo=None):
        value = getattr(self.args, key, None)
        if value is not None:
            return value  # argparse already parsed and checked the flag
        option = OPTIONS[key]
        for section in ([algo] if algo and option.solver else []) + ["run"]:
            raw = self.file.get(section, {}).get(key)
            if raw is None:
                continue
            try:
                value = option.type(raw)
            except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
                raise ConfigError(f"bad value for {key}: {exc}") from None
            if option.choices and value not in option.choices:
                raise ConfigError(f"bad value for {key}: {raw!r} is not one of {option.choices}")
            return value
        return None

    def require(self, key, algo=None):
        value = self.get(key, algo)
        if value is None:
            raise ConfigError(f"missing required parameter {OPTIONS[key].flag}")
        return value

    def given(self, keys, algo=None):
        """{parameter name: value} of the keys that a flag or the file gives,
        so that the callee's own defaults fill in the rest."""
        values = {OPTIONS[key].param or key: self.get(key, algo) for key in keys}
        return {name: value for name, value in values.items() if value is not None}


def _resolve_jobs(settings):
    jobs = settings.get("jobs")
    if jobs is None:
        return 1
    if jobs < 0:
        raise ConfigError("jobs must be >= 0")
    return jobs or None  # 0 means auto-detect


def _solver_configs(settings, algo):
    """One SolverConfig per swept value of one algorithm: lambda for the
    convex solvers, kappa (required) for the greedy ones.  The other
    family's options are not read; every other solver option takes one
    value, and SolverConfig holds every default."""
    if algo in CONVEX_SOLVERS:
        swept, others = "lam", ("kappa", "g")
    else:
        settings.require("kappa", algo)
        swept, others = "kappa", ("lambda",)
    keys = [key for key, option in OPTIONS.items() if option.solver and key not in others]
    params = settings.given(keys, algo)
    if "time_limit" in params and params["time_limit"] <= 0:
        params["time_limit"] = None  # a budget <= 0 disables it
    if params.get("max_iter") == 0:
        params["max_iter"] = None  # a cap of 0 means unlimited
    points = [{swept: value} for value in params.pop(swept)] if swept in params else [{}]
    try:
        return [SolverConfig(**params, **point) for point in points]
    except ValueError as exc:
        raise ConfigError(f"{algo}: {exc}") from None


# ------------------------------------------------------------ commands


def _sparsify(settings, check=None):
    return run_sparsify(
        settings.require("input"),
        settings.require("out"),
        **settings.given(["format", "t", "psnr_peak", "dataset"]),
        check=check,
    )


def cmd_sparsify(args):
    _sparsify(Settings(args))
    return EXIT_OK


def cmd_compress(args):
    settings = Settings(args)
    run_compress(settings.require("input"), **settings.given(["ratio", "seed"]))
    return EXIT_OK


def cmd_recover(args):
    settings = Settings(args)
    algos = settings.require("algo")
    if len(algos) != 1:
        raise ConfigError("recover takes exactly one algorithm")
    configs = _solver_configs(settings, algos[0])
    if len(configs) != 1:
        raise ConfigError("recover takes a single parameter value; use bench to sweep")
    stats, _ = run_recover(settings.require("input"), algos[0], configs[0], _resolve_jobs(settings),
                           settings.get("dataset"), args.blas_threads)
    return EXIT_PARTIAL if stats.n_failed else EXIT_OK


def cmd_report(args):
    settings = Settings(args)
    run_report(
        settings.require("input"), settings.get("out"), **settings.given(["dataset", "psnr_peak"])
    )
    return EXIT_OK


def cmd_bench(args):
    settings = Settings(args)
    out_dir = Path(settings.require("out"))
    # every option is parsed before the first stage writes a file
    runs = [(algo, config) for algo in settings.require("algo")
            for config in _solver_configs(settings, algo)]
    tags = [_tag(algo, config) for algo, config in runs]
    if repeated := sorted({tag for tag in tags if tags.count(tag) > 1}):
        raise ConfigError(f"sweep points share the run tag {', '.join(repeated)}: one would overwrite another")
    jobs = _resolve_jobs(settings)
    bands = settings.get("export_bands")
    dataset = settings.get("dataset")
    compress = {"ratio": DEFAULT_RATIO, "seed": DEFAULT_SEED, **settings.given(["ratio", "seed"])}
    report = settings.given(["dataset", "psnr_peak"])

    def check_bands(n):
        build_selection_mask(n, **compress)  # raises unless the ratio keeps a band
        if bands is not None and not all(0 <= band < n for band in bands):
            raise ConfigError(f"export band indexes must lie in [0, {n})")

    _sparsify(settings, check_bands)
    run_compress(out_dir, **compress)
    failed = 0
    for algo, config in runs:
        stats, _ = run_recover(out_dir, algo, config, jobs, dataset, args.blas_threads)
        failed += stats.n_failed
    run_report(out_dir, **report)
    if bands is not None:
        # one cube in memory at a time
        sources = {"original": settings.require("input"), "sparsified": out_dir / SPARSIFIED_FILE}
        sources.update((tag, out_dir / f"recovered_{tag}.hsc") for tag in tags)
        for name, path in sources.items():
            export_false_color(load_cube(path), bands, out_dir / f"falsecolor_{name}.ppm")
        print(f"[export] wrote {2 + len(tags)} false-color images")
    return EXIT_PARTIAL if failed else EXIT_OK


# -------------------------------------------------------------- parser


COMMANDS = {  # name: (function, help, the options it takes)
    "sparsify": (cmd_sparsify, "zero weak inverse-DFT coefficients of every pixel",
                 ["input", "out", "config", "dataset", "psnr_peak", "format", "t"]),
    "compress": (cmd_compress, "subsample the sparsified cube into measurements",
                 ["input", "config", "ratio", "seed"]),
    "recover": (cmd_recover, "solve every pixel from the stored measurements",
                ["input", "config", "dataset", *SOLVER_OPTIONS]),
    "bench": (cmd_bench, "full pipeline over every algorithm/parameter pair",
              ["input", "out", "config", "dataset", "psnr_peak", "format", "t", "ratio", "seed",
               "export_bands", *SOLVER_OPTIONS]),
    "report": (cmd_report, "aggregate recovery records into a CSV report",
               ["input", "out", "config", "dataset", "psnr_peak"]),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypercs",
        description="Compressive-sensing pipeline for hyperspectral cubes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key in keys:
            option = OPTIONS[key]
            p.add_argument(option.flag, dest=key, type=option.type, choices=option.choices,
                           action=option.action, help=option.help)
        p.set_defaults(func=func)
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
