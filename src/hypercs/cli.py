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
import hashlib
import json
import math
import re
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .cube import CubeFormatError, HsiCube, load_cube, read_native, save_cube, write_native
from .kernels import one_blas_thread, openblas_threads
from .metrics import (
    PEAK_CONVENTIONS,
    SummaryRow,
    export_false_color,
    param_label,
    psnr,
    write_report,
)
from .solvers import CONVEX_SOLVERS, SOLVERS, STOP_REASONS, SolverConfig, recover_cube
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


def save_measurements(path, measurements):
    """Per-pixel measurement file in the native layout: magic HSM1, x/y/m
    dims, float64 payload.  Complex measurements raise TypeError: their
    imaginary parts have no place in the file."""
    meas = np.asarray(measurements).astype("<f8", order="C", casting="same_kind", copy=False)
    write_native(path, MEAS_MAGIC, meas)


def load_measurements(path):
    """(x, y, m) float64 measurements; n, the band count, is the mask's."""
    return read_native(path, MEAS_MAGIC, ("<f8",), PipelineFileError)


# ---------------------------------------------------------------- stages


def run_sparsify(input_path, out_dir, factor=0.1, peak="abs-max", check=None):
    """check, if given, is called with the cube's band count before any file is written."""
    cube = load_cube(input_path)
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
        "dataset": Path(input_path).stem,
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
    save_measurements(out_dir / MEASUREMENTS_FILE, measurements)
    save_mask(mask, out_dir / MASK_FILE)
    print(f"[compress] kept {mask.m}/{cube.bands} bands per pixel (seed {seed})")
    return mask


def _tag(algorithm, config):
    if algorithm in CONVEX_SOLVERS:
        return f"{algorithm}_lambda{config.lam:g}"
    return f"{algorithm}_kappa{config.kappa}"


def _write_pixel_log(path, stats, y_dim):
    """One row per pixel in raster order; a failed pixel reads
    x,y,<failed_at>,0,,,1,numerical_failure."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "y", "iterations", "converged", "elapsed_s", "final_delta", "failed", "stop_reason"])
        rows = zip(
            stats.iterations.tolist(),
            stats.converged.tolist(),
            stats.elapsed.tolist(),
            stats.final_delta.tolist(),
            stats.failed_at.tolist(),
            (STOP_REASONS[code] for code in stats.stop_reason.tolist()),
        )
        for index, (iterations, converged, elapsed, final_delta, failed_at, reason) in enumerate(rows):
            ix, iy = divmod(index, y_dim)
            if failed_at:
                writer.writerow([ix, iy, failed_at, 0, "", "", 1, reason])
            else:
                writer.writerow(
                    [ix, iy, iterations, int(converged), f"{elapsed:.6f}", f"{final_delta:.3e}", 0, reason]
                )


def _sparsify_record(run_dir):
    """run_dir's sparsify record and its SHA-256, (None, None) where it has none."""
    path = run_dir / SPARSIFY_STATS_FILE
    if not path.exists():
        return None, None
    record = path.read_bytes()
    return record, hashlib.sha256(record).hexdigest()


def run_recover(run_dir, algorithm, config, jobs):
    run_dir = Path(run_dir)
    measurements = load_measurements(run_dir / MEASUREMENTS_FILE)
    try:
        mask = load_mask(run_dir / MASK_FILE)
    except ValueError as exc:  # UnicodeDecodeError included
        raise PipelineFileError(f"{run_dir / MASK_FILE}: {exc}") from None
    if mask.m != measurements.shape[2]:
        raise PipelineFileError(f"{run_dir}: mask does not match the measurement file")
    record, digest = _sparsify_record(run_dir)
    try:  # the input's stem, as sparsify recorded it
        dataset = json.loads(record).get("dataset") if record is not None else None
    except (AttributeError, ValueError) as exc:  # not UTF-8, not JSON, not an object
        raise PipelineFileError(f"{run_dir / SPARSIFY_STATS_FILE}: unreadable sparsify record: {exc}") from None

    basis = build_dft_basis(mask.n)
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
        "dataset": dataset or run_dir.name,
        "algorithm": algorithm,
        "param_label": param_label(algorithm, config),
        "tag": tag,
        "n_pixels": stats.n_pixels,
        "n_converged": stats.n_converged,
        "n_failed": stats.n_failed,
        "n_zero_pixels": stats.n_zero_pixels,
        "stop_reasons": stats.stop_counts,
        "total_iterations": stats.total_iterations,
        "mean_iterations_per_pixel": stats.total_iterations / stats.n_pixels,
        "convergence_pct": stats.convergence_pct,
        "recovery_time_s": stats.recovery_time_s,
        "blas_threads": [getter() for _, getter in openblas_threads()],
        "sparsify_sha256": digest,
        "recovered_file": f"recovered_{tag}.hsc",
        "pixels_file": f"pixels_{tag}.csv",
        "config": asdict(config),
    }
    (run_dir / f"run_{tag}.json").write_text(json.dumps(meta, indent=1) + "\n")
    print(
        f"[recover] {tag}: {stats.n_converged}/{stats.n_pixels} converged, "
        f"{stats.total_iterations} iterations, {stats.n_failed} failed"
    )
    return stats


def run_report(run_dir, out_path=None, peak="abs-max", tags=None):
    """Report the run records of the given tags, or by default every one in run_dir."""
    run_dir = Path(run_dir)
    out_path = out_path or run_dir / REPORT_FILE
    sparsified = load_cube(run_dir / SPARSIFIED_FILE)
    _, digest = _sparsify_record(run_dir)
    rows = []
    paths = [run_dir / f"run_{tag}.json" for tag in tags] if tags else sorted(run_dir.glob("run_*.json"))
    for meta_path in paths:
        try:
            meta = json.loads(meta_path.read_text())
            if meta["sparsify_sha256"] != digest:
                raise PipelineFileError(f"{meta_path}: recovered from another {SPARSIFY_STATS_FILE} "
                                        "than the run directory's; recover it again")
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
                dataset=meta["dataset"],
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
        Option("--psnr-peak", "peak convention for PSNR", choices=PEAK_CONVENTIONS, param="peak"),
        Option("--T", "sparsification factor", float, param="factor"),
        Option("--ratio", "fraction of bands to keep", float),
        Option("--seed", "mask seed", int),
        Option("--export-bands", "three band indexes for false-color PPMs", _parse_band_triple),
        Option("--algo", "solver(s), comma separated: " + ", ".join(sorted(SOLVERS)), _parse_algos,
               action="extend"),
        Option("--lambda", "l1 weight(s), comma separated", _parse_floats, param="lam", solver=True),
        Option("--kappa", "sparsity target(s), comma separated", _parse_ints, solver=True),
        Option("--epsilon", "residual-delta convergence threshold", float, solver=True),
        Option("--t-conv", "time budget in seconds (<= 0 disables)", float, param="time_limit",
               solver=True),
        Option("--max-iter", "iteration cap (0 means unlimited)", int, solver=True),
        Option("--jobs", "worker processes, 0 = auto (default 1)", int),
    )
}

SOLVER_KEYS = [key for key, option in OPTIONS.items() if option.solver]
SOLVER_OPTIONS = ["algo", *SOLVER_KEYS, "jobs"]


def _parse_option(key, raw):
    """A config-file value parsed and checked as its flag's would be."""
    option = OPTIONS[key]
    try:
        value = option.type(raw)
    except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from None
    if option.choices and value not in option.choices:
        raise ConfigError(f"bad value for {key}: {raw!r} is not one of {option.choices}")
    return value


def _load_config_file(path):
    """{section: {key: parsed value}}; [run] takes any option but config,
    [<algo>] solver keys.  Every value is parsed when the file is loaded,
    whether or not the running command reads it."""
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    sections = {section: dict(parser[section]) for section in parser.sections()}
    if parser.defaults():
        sections[parser.default_section] = parser.defaults()
    for section, values in sections.items():
        if section != "run" and section not in SOLVERS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        allowed = OPTIONS.keys() - {"config"} if section == "run" else set(SOLVER_KEYS)
        if unknown := sorted(set(values) - allowed):
            raise ConfigError(f"{path}: [{section}] takes no key {', '.join(unknown)}")
    return {section: {key: _parse_option(key, raw) for key, raw in values.items()}
            for section, values in sections.items()}


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
        sections = [algo] if algo and OPTIONS[key].solver else []
        for section in sections + ["run"]:
            value = self.file.get(section, {}).get(key)
            if value is not None:
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
    if jobs is not None and jobs < 0:
        raise ConfigError("jobs must be >= 0")
    return 1 if jobs is None else jobs  # recover_cube gives 0 one worker per CPU


def _solver_configs(settings, algo):
    """One SolverConfig per swept value of one algorithm: lambda for the
    convex solvers, kappa (required) for the greedy ones.  The other
    family's swept option is not read; every other solver option takes one
    value, and SolverConfig holds every default, G, mu and alpha included."""
    if algo in CONVEX_SOLVERS:
        swept, other = "lam", "kappa"
    else:
        settings.require("kappa", algo)
        swept, other = "kappa", "lambda"
    params = settings.given([key for key in SOLVER_KEYS if key != other], algo)
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


def cmd_sparsify(settings, check=None):
    run_sparsify(
        settings.require("input"),
        settings.require("out"),
        **settings.given(["t", "psnr_peak"]),
        check=check,
    )
    return EXIT_OK


def cmd_compress(settings):
    run_compress(settings.require("input"), **settings.given(["ratio", "seed"]))
    return EXIT_OK


def cmd_recover(settings):
    algos = settings.require("algo")
    if len(algos) != 1:
        raise ConfigError("recover takes exactly one algorithm")
    configs = _solver_configs(settings, algos[0])
    if len(configs) != 1:
        raise ConfigError("recover takes a single parameter value; use bench to sweep")
    stats = run_recover(settings.require("input"), algos[0], configs[0], _resolve_jobs(settings))
    return EXIT_PARTIAL if stats.n_failed else EXIT_OK


def cmd_report(settings):
    run_report(settings.require("input"), settings.get("out"), **settings.given(["psnr_peak"]))
    return EXIT_OK


def cmd_bench(settings):
    out_dir = Path(settings.require("out"))
    # every option is parsed before the first stage writes a file
    runs = [(algo, config) for algo in settings.require("algo")
            for config in _solver_configs(settings, algo)]
    tags = [_tag(algo, config) for algo, config in runs]
    if repeated := sorted({tag for tag in tags if tags.count(tag) > 1}):
        raise ConfigError(f"sweep points share the run tag {', '.join(repeated)}: one would overwrite another")
    jobs = _resolve_jobs(settings)
    bands = settings.get("export_bands")
    compress = {"ratio": DEFAULT_RATIO, "seed": DEFAULT_SEED, **settings.given(["ratio", "seed"])}
    peak = settings.given(["psnr_peak"])

    def check_bands(n):
        build_selection_mask(n, **compress)  # raises unless the ratio keeps a band
        if bands is not None and not all(0 <= band < n for band in bands):
            raise ConfigError(f"export band indexes must lie in [0, {n})")

    cmd_sparsify(settings, check_bands)
    run_compress(out_dir, **compress)
    failed = 0
    for algo, config in runs:
        failed += run_recover(out_dir, algo, config, jobs).n_failed
    run_report(out_dir, tags=tags, **peak)  # this call's runs, not a reused directory's older ones
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
                 ["input", "out", "config", "psnr_peak", "t"]),
    "compress": (cmd_compress, "subsample the sparsified cube into measurements",
                 ["input", "config", "ratio", "seed"]),
    "recover": (cmd_recover, "solve every pixel from the stored measurements",
                ["input", "config", *SOLVER_OPTIONS]),
    "bench": (cmd_bench, "full pipeline over every algorithm/parameter pair",
              ["input", "out", "config", "psnr_peak", "t", "ratio", "seed", "export_bands",
               *SOLVER_OPTIONS]),
    "report": (cmd_report, "aggregate recovery records into a CSV report",
               ["input", "out", "config", "psnr_peak"]),
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
    one_blas_thread()
    try:
        return args.func(Settings(args))
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CubeFormatError, PipelineFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
