"""A fixed reference job that measures the speed of the machine during a run.

On a shared host the speed of the CPUs drifts: over a minute a bench call
can run a quarter faster or slower with nothing changed, and that drift,
not the program, set most of the spread between runs.  Each run therefore
times this job between its calls, and end-to-end timings are reported at
the reference speed: scaled by REFERENCE_S over the run's median time of
this job (see `at_reference_speed`).

The job uses no hypercs code, so a change to the program cannot move it,
unless the change alters the whole process (BLAS threading set at import,
say): judge such a change on the measured call times each run also prints.
It does the kind of work a set-up and a solve do: per pixel, a few random
draws and a small complex matrix-vector product in a Python loop, then a
file write.  Over ten seeds its median over a run tracked the run's median
call time with a correlation of 0.68 to 0.9 on each workload.
"""

import time

import numpy as np

# the job's median seconds on the two-CPU host the bounds were tuned on;
# a fixed constant, so it only sets the scale of the reported values
REFERENCE_S = 0.008

PIXELS = 256
BANDS = 64
KAPPA = 4


def reference_job(path):
    """Run the job once, writing its output to path; returns its seconds."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    k = np.arange(BANDS)
    basis = np.exp(2j * np.pi * np.outer(k, k) / BANDS) / np.sqrt(BANDS)
    out = np.empty((PIXELS, BANDS))
    for pixel in range(PIXELS):
        coeffs = np.zeros(BANDS, dtype=np.complex128)
        support = rng.choice(BANDS, KAPPA, replace=False)
        coeffs[support] = rng.uniform(1.0, 2.0, KAPPA) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, KAPPA))
        out[pixel] = (basis @ coeffs).real
    path.write_bytes(out.tobytes())
    return time.perf_counter() - start


def at_reference_speed(seconds, reference_times):
    """seconds scaled to the reference speed: as if the job had taken
    REFERENCE_S, its median time on the host the bounds were tuned on."""
    return seconds * REFERENCE_S / float(np.median(reference_times))
