"""hypercs benchmark: end-to-end and per-layer metrics of `hypercs bench`.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  One run:

1. sets up the workload's scene from the seed, the input of every call;
2. runs closed-loop `bench` calls, one at a time, each with a fresh output
   directory, in one child process, until the next call would end after S
   seconds (at least two calls), and after each call sets the scene up
   again and runs the reference job of reference.py, both timed;
3. with --trace 1, makes one more call with tracing on, in a process of its
   own;
4. gates correctness: every call exits 0, report.csv has exactly the
   expected rows, and report.csv (minus its timing column), every
   pixels_*.csv (minus elapsed_s) and the zero fraction are byte-identical
   across the calls of the run;
5. prints the environment, one line per call, with --trace 0 the measured
   medians, and as its last line a JSON object with `correct`,
   `attempted`, `failed` (pixel solves) and `metrics`: the end-to-end
   metrics, at the reference speed, with --trace 0, the per-layer metrics
   and the tracing overhead with --trace 1.

BLAS thread variables are left as found: pinning them would hide the
oversubscription of pool workers that scene-pool exists to show.
"""

import argparse
import contextlib
import csv
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from reference import at_reference_speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# a run must end within 180 s; no call may start that cannot finish by then
RUN_DEADLINE_S = 170.0


class BenchmarkError(Exception):
    """The benchmark could not measure anything."""


@dataclass
class Call:
    """What one bench call returned; fingerprint is None when it failed."""

    exit_code: int
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_kb: int = 0
    fingerprint: dict | None = None
    report: list | None = None
    pixels: dict | None = None
    zero_fraction: float = 0.0
    failed_pixels: int = 0
    trace: dict | None = None
    error: str = ""

    @property
    def ok(self):
        return self.exit_code == 0 and self.fingerprint is not None


def _strip_column(text, column):
    """The CSV text with one column removed, as the C8 determinism check does."""
    kept = []
    for line in text.splitlines():
        if line and not line.startswith("#"):
            cells = line.split(",")
            del cells[column]
            line = ",".join(cells)
        kept.append(line)
    return "\n".join(kept)


def _add_pixel_log(log, path):
    """Add one pixels_*.csv to log: per solved pixel iterations and elapsed
    time, and counts of rows, converged and failed pixels."""
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            log["rows"] += 1
            if row["failed"] == "1":
                log["failed"] += 1
                continue
            log["iterations"].append(int(row["iterations"]))
            log["elapsed"].append(float(row["elapsed_s"]))
            log["converged"] += row["converged"] == "1"


def read_artifacts(call, run_dir):
    """Fill call with the run directory's report, pixel logs (merged per
    algorithm) and fingerprint."""
    from hypercs.metrics import read_report

    report_path = run_dir / "report.csv"
    fingerprint = {"report.csv": _strip_column(report_path.read_text(encoding="utf-8"), -1)}
    pixels = {}
    for path in sorted(run_dir.glob("pixels_*.csv")):
        fingerprint[path.name] = _strip_column(path.read_text(encoding="utf-8"), 4)
        algo = path.stem.split("_")[1]
        empty = {"iterations": [], "elapsed": [], "rows": 0, "converged": 0, "failed": 0}
        _add_pixel_log(pixels.setdefault(algo, empty), path)
    stats = json.loads((run_dir / "sparsify_stats.json").read_text(encoding="utf-8"))
    fingerprint["zero_fraction"] = repr(stats["zero_fraction"])
    call.report = read_report(report_path)
    call.pixels = pixels
    call.zero_fraction = stats["zero_fraction"]
    call.failed_pixels = sum(log["failed"] for log in pixels.values())
    call.fingerprint = fingerprint


def run_calls(workload, scene, seed, directory, traced, seconds, deadline):
    """Bench calls in one child process (see pipeline.py); returns a Call per
    call made, and the seconds of the child's set-ups, of their scene
    generations and of its reference jobs.  Every run directory is read and
    then removed."""
    directory.mkdir()
    result_path = directory / "result.json"
    cmd = [
        sys.executable,
        str(HERE / "pipeline.py"),
        "--workload", workload.to_json(),
        "--seed", str(seed),
        "--scene", str(scene),
        "--result", str(result_path),
        "--seconds", repr(seconds),
        "--limit", repr(deadline - time.perf_counter()),
        *(["--trace"] if traced else []),
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        error = err.decode(errors="replace").strip()[-2000:]
    except subprocess.TimeoutExpired:
        # the session holds the child and its pool workers
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        error = "timed out"
    if not result_path.exists():
        return [Call(exit_code=-1, error=error or f"child exited {proc.returncode}")], [], [], []
    result = json.loads(result_path.read_text(encoding="utf-8"))
    calls = []
    for record in result["calls"]:
        call = Call(
            exit_code=record["exit_code"],
            wall_s=record["wall_s"],
            cpu_s=record["cpu_s"],
            peak_rss_kb=record["maxrss_kb"] + record["children_maxrss_kb"],
        )
        if call.exit_code == 0:
            try:
                read_artifacts(call, Path(record["out_dir"]))
            except (OSError, ValueError, KeyError) as exc:
                call.error = f"unreadable artifacts: {exc}"
        else:
            call.error = error
        calls.append(call)
        shutil.rmtree(record["out_dir"], ignore_errors=True)
    if proc.returncode != 0:
        calls.append(Call(exit_code=-1, error=error or f"child exited {proc.returncode}"))
    if traced:
        calls[0].trace = result.get("trace")
    return calls, result["setup_s"], result["generate_s"], result["reference_s"]


def gate(workload, calls):
    """Correctness problems of a set of calls of one seed, as messages."""
    problems = []
    expected = workload.expected_rows()
    reference = None
    for index, call in enumerate(calls):
        if not call.ok:
            problems.append(f"call {index}: exit {call.exit_code} {call.error.strip()}")
            continue
        rows = sorted((row.algorithm, row.param_label) for row in call.report)
        if rows != expected:
            problems.append(f"call {index}: report rows {rows}, expected {expected}")
        if reference is None:
            reference = call.fingerprint
        elif call.fingerprint != reference:
            differ = sorted(k for k in reference if call.fingerprint.get(k) != reference[k])
            problems.append(f"call {index}: differs from call 0 in {differ}")
    return problems


def end_to_end_metrics(workload, calls, setup_times, reference_times):
    """Every end-to-end metric as name -> (value, unit); the timings are the
    run's medians at the reference speed (see reference.py)."""
    ok = [call for call in calls if call.ok]
    solves = workload.pixels * workload.pairs
    psnrs = [row.psnr_db for row in ok[0].report]
    pixels = ok[0].pixels.values()
    converged = sum(log["converged"] for log in pixels)
    solved = sum(log["rows"] - log["failed"] for log in pixels)
    call_s = statistics.median(call.wall_s for call in ok)
    setup_s = statistics.median(setup_times)
    print(f"measured: call {call_s:.4f} s, set-up {setup_s:.6f} s, reference job "
          f"{statistics.median(reference_times):.6f} s (medians of {len(ok)}, "
          f"{len(setup_times)} and {len(reference_times)})", flush=True)
    return {
        "pixels_per_s": (solves / at_reference_speed(call_s, reference_times), "1/s"),
        "setup_s": (at_reference_speed(setup_s, reference_times), "s"),
        # ru_maxrss only grows within a process, so only the process's first
        # call shows the peak of a single bench call
        "peak_rss_mb": (ok[0].peak_rss_kb / 1024.0, "MiB"),
        "psnr_db_min": (min(psnrs), "dB"),
        # every row is scored against the same sparsified cube, so averaging
        # the squared errors gives the PSNR of all recovered cubes together
        "psnr_db_mean": (-10.0 * math.log10(statistics.fmean(10.0 ** (-p / 10.0) for p in psnrs)), "dB"),
        "converged_pct": (100.0 * converged / solved, "%"),
    }


def measure(workload, seed, seconds, trace, work):
    """Set up, run the calls and return (setup times, generate times,
    reference times, untraced calls, traced call or None)."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    (work / "scene").mkdir()
    start = time.perf_counter()
    scene, generate_s = workload.write_scene(seed, work / "scene")
    setup_s = time.perf_counter() - start
    # with --trace 1, leave a third of the time left for the traced call
    limit = deadline - (deadline - time.perf_counter()) / 3 if trace else deadline
    calls, setup_times, generate_times, reference_times = run_calls(
        workload, scene, seed, work / "untraced", False, seconds, limit
    )
    for index, call in enumerate(calls, 1):
        print(f"call {index}: exit {call.exit_code} wall {call.wall_s:.3f} s "
              f"cpu {call.cpu_s:.3f} s peak rss {call.peak_rss_kb / 1024:.1f} MiB", flush=True)
    traced = None
    if trace:
        traced = run_calls(workload, scene, seed, work / "traced", True, 0.0, deadline)[0][0]
        print(f"traced call: exit {traced.exit_code} wall {traced.wall_s:.3f} s", flush=True)
    return [setup_s, *setup_times], [generate_s, *generate_times], reference_times, calls, traced


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def _import_hypercs():
    if not (SRC / "hypercs" / "__init__.py").is_file():
        raise BenchmarkError(f"no hypercs sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hypercs

    if Path(hypercs.__file__).resolve().parent != SRC / "hypercs":
        raise BenchmarkError(f"hypercs imported from {hypercs.__file__}, not from {SRC}")


def run(workload, seed, seconds, trace):
    """Measure one workload; returns the result object printed last."""
    from layers import layer_metrics

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=WORK))
    try:
        setup_times, generate_times, reference_times, calls, traced = measure(
            workload, seed, seconds, trace, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    every = calls + ([traced] if traced else [])
    problems = gate(workload, every)
    for problem in problems:
        print(f"gate: {problem}", flush=True)
    solves = workload.pixels * workload.pairs
    attempted = solves * len(every)
    failed = sum(call.failed_pixels if call.ok else solves for call in every)
    ok = [call for call in calls if call.ok]
    if not ok or (trace and not traced.ok):
        raise BenchmarkError("no call completed; " + "; ".join(problems))
    if trace:
        metrics = layer_metrics(traced, ok[0], generate_times, attempted, failed)
    else:
        metrics = end_to_end_metrics(workload, calls, setup_times, reference_times)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="hypercs benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        _import_hypercs()
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        print("environment " + json.dumps(environment()), flush=True)
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
