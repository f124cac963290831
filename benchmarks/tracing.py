"""In-memory tracing of one pipeline run, from outside the program.

The wrappers replace names in the modules that call them: `hypercs.solvers`
imports its kernels by name and `hypercs.cli` imports the cube, transform,
metrics and `recover_cube` functions by name, so those are the namespaces
patched; `Dictionary.admm_factor` is wrapped on the class.  Coarse calls
(stages, cube and measurement I/O, dictionary builds, recover_cube,
report/export) become spans with a parent; hot per-pixel and per-iteration
calls (kernels, per-pixel transforms, admm_factor) only add to counters,
since a span per call would hold millions of records.  Only what layers.py
reports is wrapped.

Calls made inside process-pool workers run the wrappers in the worker's
copy of the tracer and are lost, so kernel counters read zero when
`--jobs` > 1.
"""

import functools
import os
import resource
import time


def _usage():
    """(CPU seconds of this process and its reaped children, ru_maxrss in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    return cpu, own.ru_maxrss


class Tracer:
    """Spans and counters of one run, kept in memory until export()."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counters = {}
        self._stack = []

    def span(self, name, fn, attrs=None):
        """Wrap fn so each call records a span; attrs(*args, **kwargs), called
        after fn returns, adds fields such as file sizes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "run_id": self.run_id,
            }
            self.spans.append(record)
            self._stack.append(record["id"])
            cpu, maxrss = _usage()
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    record.update(attrs(*args, **kwargs))
                return result
            finally:
                record["end"] = time.perf_counter()
                cpu_end, maxrss_end = _usage()
                record["cpu_s"] = cpu_end - cpu
                record["maxrss_growth_kb"] = maxrss_end - maxrss
                self._stack.pop()

        return wrapper

    def count(self, name, fn, size=None):
        """Wrap fn so each call adds to name's call count, seconds and, with
        size(*args, **kwargs), a work-size total."""
        totals = self.counters.setdefault(name, {"calls": 0, "seconds": 0.0, "size": 0})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals["seconds"] += time.perf_counter() - start
                totals["calls"] += 1
                if size is not None:
                    totals["size"] += size(*args, **kwargs)

        return wrapper

    def export(self):
        return {"run_id": self.run_id, "spans": self.spans, "counters": self.counters}


def _file_bytes(path, *_args, **_kwargs):
    return {"bytes": os.path.getsize(path)}


def _saved_bytes(_obj, path, *_args, **_kwargs):
    return {"bytes": os.path.getsize(path)}


def _algorithm(_measurements, _dictionary, _config, algorithm, *_args, **_kwargs):
    return {"algorithm": algorithm}


def _columns(b, _y):
    return b.shape[1]


def _layer_name(fn):
    """`<module>.<function>` after the hypercs module that defines fn."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


# names looked up in hypercs.cli at call time, with what each span records
CLI_SPANS = {
    "run_sparsify": None,
    "run_compress": None,
    "run_recover": None,
    "run_report": None,
    "load_measurements": None,
    "save_measurements": None,
    "load_cube": _file_bytes,
    "save_cube": _saved_bytes,
    "build_dictionary": None,
    "recover_cube": _algorithm,
    "psnr": None,
    "write_report": None,
    "export_false_color": None,
}
CLI_COUNTS = ("to_sparse_domain", "sparsify", "from_sparse_domain")
KERNEL_COUNTS = {"least_squares": _columns, "soft_threshold": None, "argmax_k": None, "residual_delta": None}


def install(tracer):
    """Patch the wrappers into hypercs; call before the pipeline runs."""
    import hypercs.cli as cli
    import hypercs.solvers as solvers
    from hypercs.transform import Dictionary

    for attr, attrs in CLI_SPANS.items():
        fn = getattr(cli, attr)
        setattr(cli, attr, tracer.span(_layer_name(fn), fn, attrs))
    for attr in CLI_COUNTS:
        fn = getattr(cli, attr)
        setattr(cli, attr, tracer.count(_layer_name(fn), fn))
    for attr, size in KERNEL_COUNTS.items():
        fn = getattr(solvers, attr)
        setattr(solvers, attr, tracer.count(_layer_name(fn), fn, size))
    Dictionary.admm_factor = tracer.count(_layer_name(Dictionary.admm_factor), Dictionary.admm_factor)
