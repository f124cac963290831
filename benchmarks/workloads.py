"""The benchmark's workloads: one seeded synthetic scene and one `hypercs bench`
call each.

Each workload stresses a different layer, so that an optimisation of one
layer shows on one workload and is predicted not to move another:

- desk-convex: the convex iteration loops (fista, admm); no least squares,
  no process pool, negligible I/O.
- desk-greedy: the least-squares kernel of the greedy solvers (gomp,
  cosamp, biht); no convex loop, no pool.  biht at its default step shows
  its low PSNR in psnr_db_min.
- scene-pool: the only workload on the process-pool path (two workers)
  and the ENVI reader; its 4,096 pixels make sparsify, cube I/O,
  report/export and peak memory visible.  It has 64 bands, not Jasper
  Ridge's 198: from about 128 bands on, OpenBLAS threads inside the two
  workers oversubscribe two CPUs, and identical calls then took anywhere
  from 1x to 5x the serial time, too unsteady to measure.

The desk scenes are small (8x8 and 16x16 pixels) so that a call takes one
to three seconds and a run's median is over fifteen calls or more.  On a
shared two-CPU host the speed of the machine drifts by a fifth over tens
of seconds and more, which no number of calls in a run averages out; the
timings are therefore scaled to a reference speed (see reference.py).

Every call runs with `--t-conv 0` and an iteration cap, so the work, and
every deterministic artifact, depends only on the seed.
"""

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path

from hypercs import SolverConfig, generate_synthetic_cube, save_cube
from hypercs.metrics import param_label
from hypercs.solvers import CONVEX_SOLVERS

# bench calls per run, at the least
MIN_CALLS = 2


@dataclass(frozen=True)
class Workload:
    """One scene plus the bench sweep run on it.

    sweep holds the --lambda values when every algorithm is convex and the
    --kappa values otherwise; it is passed as one comma-separated flag,
    because a second --lambda or --kappa flag replaces the first.
    """

    name: str
    why: str
    shape: tuple
    kappa_true: int
    threshold: float
    algos: tuple
    sweep: tuple
    max_iter: int
    jobs: int
    envi: bool = False
    export_bands: tuple | None = None

    def to_json(self):
        return json.dumps(dataclasses.asdict(self))

    @classmethod
    def from_json(cls, text):
        fields = json.loads(text)
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()})

    @property
    def convex(self):
        return self.algos[0] in CONVEX_SOLVERS

    @property
    def pixels(self):
        return self.shape[0] * self.shape[1]

    @property
    def pairs(self):
        return len(self.algos) * len(self.sweep)

    def bench_argv(self, scene, out_dir, seed):
        argv = ["bench", "--input", str(scene), "--out", str(out_dir)]
        for algo in self.algos:
            argv += ["--algo", algo]
        argv += [
            "--lambda" if self.convex else "--kappa",
            ",".join(f"{value:g}" for value in self.sweep),
            "--T", f"{self.threshold:g}",
            "--ratio", "0.4",
            "--seed", str(seed),
            "--t-conv", "0",
            "--max-iter", str(self.max_iter),
            "--jobs", str(self.jobs),
        ]
        if self.export_bands:
            argv += ["--export-bands", ",".join(map(str, self.export_bands))]
        return argv

    def expected_rows(self):
        """(algorithm, param label) of every report.csv row, sorted."""
        rows = []
        for algo in self.algos:
            for value in self.sweep:
                config = SolverConfig(lam=value) if self.convex else SolverConfig(kappa=value)
                rows.append((algo, param_label(algo, config)))
        return sorted(rows)

    def write_scene(self, seed, directory):
        """Generate the scene and write it; returns (path, generate seconds)."""
        start = time.perf_counter()
        cube = generate_synthetic_cube(*self.shape, kappa_true=self.kappa_true, seed=seed)
        generate_s = time.perf_counter() - start
        directory = Path(directory)
        if self.envi:
            path = directory / "scene.img"
            write_envi_bsq(cube, path)
        else:
            path = directory / "scene.hsc"
            save_cube(cube, path)
        return path, generate_s


def write_envi_bsq(cube, path):
    """Band-sequential float64 ENVI file plus its `.hdr`; hypercs only reads ENVI."""
    path = Path(path)
    # BSQ order is band, line (y), sample (x); the reader maps samples to x
    cube.data.transpose(2, 1, 0).astype("<f8").tofile(path)
    header = (
        "ENVI\n"
        f"samples = {cube.x}\n"
        f"lines = {cube.y}\n"
        f"bands = {cube.bands}\n"
        "header offset = 0\n"
        "file type = ENVI Standard\n"
        "data type = 5\n"
        "interleave = bsq\n"
        "byte order = 0\n"
    )
    path.with_suffix(".hdr").write_text(header, encoding="ascii")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-convex",
            why="convex loops only (fista, admm on an 8x8x64 desk scene): no least squares, pool or I/O",
            shape=(8, 8, 64),
            kappa_true=4,
            threshold=0.01,
            algos=("fista", "admm"),
            sweep=(0.01, 0.1),
            max_iter=20_000,
            jobs=1,
        ),
        Workload(
            name="desk-greedy",
            why="least squares of gomp, cosamp, biht on 16x16x128: no convex loop or pool; biht PSNR shows",
            shape=(16, 16, 128),
            kappa_true=8,
            threshold=0.01,
            algos=("gomp", "cosamp", "biht"),
            sweep=(8, 16),
            max_iter=200,
            jobs=1,
        ),
        Workload(
            name="scene-pool",
            why="64x64x64 ENVI scene on two pool workers: pool path, ENVI read, sparsify, cube I/O, export, memory",
            shape=(64, 64, 64),
            kappa_true=6,
            threshold=0.1,
            algos=("cosamp",),
            sweep=(6,),
            max_iter=50,
            jobs=2,
            envi=True,
            export_bands=(10, 30, 50),
        ),
    )
}
