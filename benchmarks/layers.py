"""Per-layer metrics of one traced call.

Names are `<module>.<metric>` after the hypercs module that does the work.
Solver figures come from the call's `pixels_*.csv` logs and from getrusage
around `recover_cube`, so they hold on the process-pool path too; kernel
counters only see calls made in the pipeline's own process and read zero
when pixels are solved in pool workers.
"""

import numpy as np

ALGORITHMS = ("fista", "admm", "gomp", "biht", "cosamp")


def _span_totals(spans, name, **match):
    """(seconds, calls, cpu seconds, maxrss growth KiB, bytes) over matching spans."""
    seconds = cpu = growth = size = 0.0
    calls = 0
    for span in spans:
        if span["name"] == name and all(span.get(k) == v for k, v in match.items()):
            seconds += span["end"] - span["start"]
            cpu += span["cpu_s"]
            growth += span["maxrss_growth_kb"]
            size += span.get("bytes", 0)
            calls += 1
    return seconds, calls, cpu, growth, size


def _per_call_us(counter):
    return 1e6 * counter["seconds"] / counter["calls"] if counter["calls"] else 0.0


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def solver_metrics(algo, pixels, spans):
    log = pixels.get(algo)
    recover_s, _, cpu_s, _, _ = _span_totals(spans, "solvers.recover_cube", algorithm=algo)
    if log is None:
        elapsed = np.zeros(0)
        iterations = rows = converged = 0
    else:
        elapsed = np.asarray(log["elapsed"])
        iterations = sum(log["iterations"])
        rows = log["rows"]
        converged = log["converged"]
    p50, p99 = np.percentile(elapsed, (50, 99)) if elapsed.size else (0.0, 0.0)
    prefix = f"solvers.{algo}."
    return {
        prefix + "iterations": (iterations, "count"),
        prefix + "iters_per_pixel": (_ratio(iterations, elapsed.size), "count"),
        prefix + "us_per_iter": (1e6 * _ratio(float(elapsed.sum()), iterations), "us"),
        prefix + "pixel_us_p50": (1e6 * float(p50), "us"),
        prefix + "pixel_us_p99": (1e6 * float(p99), "us"),
        prefix + "converged_pct": (100.0 * _ratio(converged, rows), "%"),
        prefix + "recover_cube_s": (recover_s, "s"),
        prefix + "cpu_us_per_iter": (1e6 * _ratio(cpu_s, iterations), "us"),
    }


def layer_metrics(traced, untraced, generate_times, attempted, failed):
    """Every per-layer metric as name -> (value, unit).

    traced is the traced call (its trace, pixel logs and zero fraction),
    untraced the first untraced call of the same run: each is the first
    call in a fresh process, so their difference holds no first-call costs.
    """
    spans = traced.trace["spans"]
    counters = traced.trace["counters"]

    def counter(name):
        return counters.get(name, {"calls": 0, "seconds": 0.0, "size": 0})

    def span_s(name):
        return _span_totals(spans, name)[0]

    def rss_growth_mb(name):
        return _span_totals(spans, name)[3] / 1024.0

    metrics = {}
    for algo in ALGORITHMS:
        metrics.update(solver_metrics(algo, traced.pixels, spans))

    recover_s = span_s("solvers.recover_cube")
    ls = counter("kernels.least_squares")
    soft = counter("kernels.soft_threshold")
    argmax = counter("kernels.argmax_k")
    metrics.update(
        {
            "kernels.least_squares_calls": (ls["calls"], "count"),
            "kernels.least_squares_us_per_call": (_per_call_us(ls), "us"),
            "kernels.least_squares_mean_cols": (_ratio(ls["size"], ls["calls"]), "count"),
            "kernels.least_squares_share": (_ratio(ls["seconds"], recover_s), "ratio"),
            "kernels.soft_threshold_calls": (soft["calls"], "count"),
            "kernels.soft_threshold_us_per_call": (_per_call_us(soft), "us"),
            "kernels.argmax_k_calls": (argmax["calls"], "count"),
            "kernels.argmax_k_us_per_call": (_per_call_us(argmax), "us"),
            "kernels.residual_delta_calls": (counter("kernels.residual_delta")["calls"], "count"),
        }
    )

    per_pixel = sum(
        counter(f"transform.{name}")["seconds"]
        for name in ("to_sparse_domain", "sparsify", "from_sparse_domain")
    )
    factor = counter("transform.admm_factor")
    metrics.update(
        {
            "transform.sparsify_us_per_pixel": (
                1e6 * _ratio(per_pixel, counter("transform.sparsify")["calls"]),
                "us",
            ),
            "transform.zero_fraction": (traced.zero_fraction, "ratio"),
            "transform.build_dictionary_s": (span_s("transform.build_dictionary"), "s"),
            "transform.admm_factor_calls": (factor["calls"], "count"),
            "transform.admm_factor_s": (factor["seconds"], "s"),
        }
    )

    load_s, load_calls, _, _, bytes_read = _span_totals(spans, "cube.load_cube")
    save_s, _, _, _, bytes_written = _span_totals(spans, "cube.save_cube")
    metrics.update(
        {
            "cube.load_s": (load_s, "s"),
            "cube.load_calls": (load_calls, "count"),
            "cube.bytes_read": (int(bytes_read), "bytes"),
            "cube.save_s": (save_s, "s"),
            "cube.bytes_written": (int(bytes_written), "bytes"),
            "cube.generate_s": (float(np.median(generate_times)), "s"),
        }
    )

    metrics.update(
        {
            "cli.run_sparsify_s": (span_s("cli.run_sparsify"), "s"),
            "cli.run_compress_s": (span_s("cli.run_compress"), "s"),
            "cli.run_recover_s": (span_s("cli.run_recover"), "s"),
            "cli.recover_overhead_s": (span_s("cli.run_recover") - recover_s, "s"),
            "cli.run_report_s": (span_s("cli.run_report"), "s"),
            "cli.load_measurements_s": (span_s("cli.load_measurements"), "s"),
            "cli.save_measurements_s": (span_s("cli.save_measurements"), "s"),
        }
    )
    for stage in ("sparsify", "compress", "recover", "report"):
        metrics[f"cli.{stage}_rss_growth_mb"] = (rss_growth_mb(f"cli.run_{stage}"), "MiB")

    metrics.update(
        {
            "metrics.psnr_s": (span_s("metrics.psnr"), "s"),
            "metrics.write_report_s": (span_s("metrics.write_report"), "s"),
            "metrics.export_false_color_s": (span_s("metrics.export_false_color"), "s"),
        }
    )

    overhead = traced.wall_s - untraced.wall_s
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_pct"] = (100.0 * overhead / untraced.wall_s, "%")
    metrics["pixel_fail_frac"] = (_ratio(failed, attempted), "ratio")
    return metrics
