"""Run `hypercs bench` calls in this process and write what each measured.

    python benchmarks/pipeline.py --workload JSON --seed N --scene SCENE \
        --result RESULT.json --seconds S --limit L [--trace]

JSON is the workload (see `Workload.to_json`), SCENE its input file.  Each
call gets a fresh output directory, `call<k>` under RESULT's directory.
Calls run one after another, closed loop, until the next one would end
after S seconds, never fewer than MIN_CALLS and never past L seconds.  The
timed region of a call is `hypercs.cli.main(argv)`; interpreter start and
imports are outside it.  Pool workers are this process's children, so
RUSAGE_CHILDREN covers them.

After each call the scene is set up again, and then the reference job of
reference.py runs, each at least once and for at least SHARE of the call's
time, and each is timed: both then sample the machine all through the run,
not in one window at its start.

With --trace, one call runs with spans and counters recorded in memory,
written with the result when the call ends, and nothing else runs.
"""

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reference import reference_job  # noqa: E402
from workloads import MIN_CALLS, Workload  # noqa: E402

# after each call, seconds of set-ups and again of reference jobs, as a
# share of the call's seconds
SHARE = 0.1


def _rusage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "cpu_s": own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime,
        "maxrss_kb": own.ru_maxrss,
        "children_maxrss_kb": children.ru_maxrss,
    }


def repeat(job, seconds):
    """Seconds of each run of job, run at least once and for seconds."""
    times = []
    while not times or sum(times) < seconds:
        times.append(job())
    return times


def set_up(workload, seed, directory, generate_times):
    """Set the scene up into directory and remove it; returns the seconds
    taken and adds the scene generation's to generate_times."""
    directory.mkdir()
    start = time.perf_counter()
    _, generate_s = workload.write_scene(seed, directory)
    setup_s = time.perf_counter() - start
    shutil.rmtree(directory)
    generate_times.append(generate_s)
    return setup_s


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="the workload as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scene", required=True, help="the workload's input file")
    parser.add_argument("--result", required=True, help="JSON file to write")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--limit", type=float, required=True)
    parser.add_argument("--trace", action="store_true", help="make one traced call")
    args = parser.parse_args(argv)
    workload = Workload.from_json(args.workload)
    result_path = Path(args.result)

    from hypercs.cli import main as hypercs_main

    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer(run_id=result_path.stem)
        install(tracer)

    result = {"calls": [], "setup_s": [], "generate_s": [], "reference_s": []}
    scratch = result_path.parent
    durations = []
    start = time.perf_counter()
    while True:
        if durations:
            end = time.perf_counter() - start + statistics.median(durations)
            enough = len(durations) >= MIN_CALLS and end > args.seconds
            if args.trace or enough or end > args.limit:
                break
        out_dir = scratch / f"call{len(durations)}"
        argv = workload.bench_argv(args.scene, out_dir, args.seed)
        before = _rusage()
        call_start = time.perf_counter()
        code = hypercs_main(argv)
        wall_s = time.perf_counter() - call_start
        after = _rusage()
        durations.append(wall_s)
        result["calls"].append(
            {
                "out_dir": str(out_dir),
                "exit_code": code,
                "wall_s": wall_s,
                "cpu_s": after["cpu_s"] - before["cpu_s"],
                "maxrss_kb": after["maxrss_kb"],
                "children_maxrss_kb": after["children_maxrss_kb"],
            }
        )
        if tracer is not None:
            result["trace"] = tracer.export()
        else:
            result["setup_s"] += repeat(
                lambda: set_up(workload, args.seed, scratch / "setup", result["generate_s"]),
                SHARE * wall_s,
            )
            result["reference_s"] += repeat(lambda: reference_job(scratch / "reference.bin"), SHARE * wall_s)
        # rewritten after every call, so a call cut by the limit loses only itself
        result_path.write_text(json.dumps(result), encoding="utf-8")
        if code != 0:
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
