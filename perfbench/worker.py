"""Benchmark worker: runs one workload in one process and writes the result.

Started by ``run.py`` as ``python3 perfbench/worker.py '<json spec>'`` with
``src`` on ``PYTHONPATH``.  The spec names the workload, seed, seconds, mode
and the monotonic time at which the parent started this process, so the
worker can report its set-up time (interpreter start, ``import
gaborwf.cli`` and the workload's untimed preparation).

Modes:

* ``setup``: set up, report the set-up time and exit;
* ``run``: set up, run ops in a closed loop (one client, one op at a time)
  until the deadline, then run the correctness checks;
* ``trace``: like ``run``, with the time split between an untraced phase and
  a phase with the per-layer wrappers of ``tracing.py`` installed.

Every op's outputs are hashed; a repeat of an op must reproduce the first
run's bytes.  Ops that raise, exit non-zero, miss an expected file or differ
from their first run are failed, and failed ops are never timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import resource
import shutil
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import gaborwf.cli as cli
import tracing

GRID_1D = ("--n", "1024", "--L", "40", "--lam", "1")
GRID_2D = ("--n", "256", "--L", "20", "--lam", "1")
ANALYZE_1D = ("dirac", "dirac_derivative", "gaussian", "hermite", "box", "chirp", "bump")
PROPAGATE_1D = ("dirac", "dirac_derivative", "box", "gaussian", "hermite", "bump")
# analyze writes no frequency-cone report for inputs that are not compactly
# supported
NOT_COMPACT = {"chirp"}
TIMES_PER_ENTRY = 2
LATTICE_TIMES = 3  # of the 12 propagate ops, about a quarter
# Off-lattice times stay this far from k*pi/2.  Nearer, at offsets of about
# 0.025-0.03, dirac, dirac_derivative and box fail verification (NOTES.md).
LATTICE_MARGIN = 0.05


def clock() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so the parent's start stamp
    # and the worker's stamps are comparable
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the files it must write."""

    key: str
    kind: str
    argv: tuple[str, ...]
    files: tuple[str, ...]


def analyze_op(name: str, grid: tuple[str, ...], kind: str, dump: bool) -> Op:
    argv = ("analyze", name, *grid) + (("--dump-samples",) if dump else ())
    files = [f"{name}_gabor.json", f"{name}_gabor_profiles.csv"]
    if name not in NOT_COMPACT:
        files += [f"{name}_sigma.json", f"{name}_sigma_profiles.csv"]
    if dump:
        files.append(f"{name}_samples.bin")
    return Op(" ".join(argv), kind, argv, tuple(files))


def propagate_op(name: str, t: float, lattice: bool) -> Op:
    argv = ("propagate", name, "--t", repr(t), *GRID_1D)
    kind = "propagate-lattice" if lattice else "propagate"
    return Op(" ".join(argv), kind, argv, (f"{name}_propagation_t{t:.10g}.json",))


def draw_time(rng: random.Random) -> float:
    """Uniform over [0, pi] minus the margins around the half-period lattice."""
    span = math.pi / 2 - 2 * LATTICE_MARGIN
    return LATTICE_MARGIN + rng.random() * span + rng.randrange(2) * math.pi / 2


def make_ops(workload: str, rng: random.Random) -> list[Op]:
    """The distinct ops of one pass; every drawn value comes from the seeded rng."""
    if workload == "analyze-2d":
        return [
            analyze_op("box2d", GRID_2D, "analyze-2d", dump=False),
            analyze_op("line_delta_2d", GRID_2D, "analyze-2d", dump=True),
        ]
    if workload == "cli-1d":
        slots = [name for name in PROPAGATE_1D for _ in range(TIMES_PER_ENTRY)]
        lattice = set(rng.sample(range(len(slots)), LATTICE_TIMES))
        ops = [analyze_op(name, GRID_1D, "analyze-1d", dump=True) for name in ANALYZE_1D]
        for i, name in enumerate(slots):
            t = rng.randrange(3) * math.pi / 2 if i in lattice else draw_time(rng)
            ops.append(propagate_op(name, t, i in lattice))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def read_guards(out: Path, op: Op) -> Counter:
    """Exact counts read back from an op's outputs."""
    g = Counter()
    for f in op.files:
        path = out / f
        g["bytes_written"] += path.stat().st_size
        if f.endswith("_profiles.csv"):
            with path.open() as fh:
                g["points"] += sum(1 for _ in fh) - 1
        elif "_propagation_" in f:
            g["singular"] += len(json.loads(path.read_text())["detected_dirs"])
        elif f.endswith(".json"):
            rep = json.loads(path.read_text())
            thr = rep["params"]["n_thresh"]
            profiles = rep["profiles"]
            g["directions"] += len(profiles)
            g["floor_hit_rays"] += sum(p["floor_hit"] for p in profiles)
            g["flagged"] += sum(not p["floor_hit"] and float(p["slope"]) <= thr for p in profiles)
            g["singular"] += len(rep["singular_dirs"])
            g["isolated"] += len(rep["isolated"])
    return g


class Runner:
    """Runs ops, checks their outputs and keeps one record per op."""

    def __init__(self, work: Path):
        self.out = work / "op"
        self.tracer = None  # a tracing.Tracer during the traced phase
        self.records: list[dict] = []
        self.first: dict[str, dict] = {}  # per op key: output digest and guards

    def run(self, op: Op, phase: str):
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        stdout = io.StringIO()
        error = None
        if self.tracer is not None:
            self.tracer.begin_op(op.key)
        t0 = clock()
        try:
            with contextlib.redirect_stdout(stdout):
                # looked up at call time, so the traced phase sees the wrapper
                rc = cli.main([*op.argv, "--out", str(self.out)])
            if rc != 0:
                error = f"exit code {rc}"
        except SystemExit as exc:  # argparse usage errors exit 2
            error = f"exit code {exc.code}"
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        t1 = clock()
        if self.tracer is not None:
            traced = self.tracer.end_op()
            traced["counts"]["cli.bytes_written"] = sum(p.stat().st_size for p in self.out.iterdir())
        if error is None:
            error = self._check(op, stdout.getvalue())
        if error is not None:
            print(f"op failed: {op.key}: {error}", file=sys.stderr)
        self.records.append(
            {"key": op.key, "kind": op.kind, "phase": phase, "start": t0, "seconds": t1 - t0, "error": error}
        )

    def _check(self, op: Op, stdout: str) -> str | None:
        missing = [f for f in op.files if not (self.out / f).is_file()]
        if missing:
            return f"missing outputs {missing}"
        digest = hashlib.sha256(stdout.encode())
        for path in sorted(self.out.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        first = self.first.setdefault(op.key, {"digest": digest.hexdigest()})
        if first["digest"] != digest.hexdigest():
            return "outputs differ from the first run of this op"
        if "guards" not in first:
            first["guards"] = read_guards(self.out, op)
        return None


def run_passes(runner: Runner, ops: list[Op], rng: random.Random, seconds: float, phase: str):
    """Closed loop: seed-shuffled whole passes over the ops until the deadline,
    at least one."""
    deadline = clock() + seconds
    while True:
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            runner.run(op, phase)
        if clock() >= deadline:
            return


def check_determinism(runner: Runner, ops: list[Op]):
    """Each op kind must have one op run twice; rerun one where none was."""
    counts = Counter(r["key"] for r in runner.records)
    for kind in dict.fromkeys(op.kind for op in ops):
        of_kind = [op for op in ops if op.kind == kind]
        if not any(counts[op.key] > 1 for op in of_kind):
            runner.run(of_kind[0], "check")


def library_env() -> dict:
    import ctypes

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": None,
    }
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                env["blas_threads"] = fn()
                return env
    return env


def main(spec: dict):
    work = Path(spec["work"])
    rng = random.Random(spec["seed"])
    ops = make_ops(spec["workload"], rng)
    result = {"setup_s": clock() - spec["spawned"]}
    if spec["mode"] != "setup":
        runner = Runner(work)
        if spec["mode"] == "trace":
            run_passes(runner, ops, rng, spec["seconds"] / 2, "untraced")
            runner.tracer = tracing.Tracer()
            with tracing.installed(runner.tracer):
                run_passes(runner, ops, rng, spec["seconds"] / 2, "traced")
            result["layers"] = tracing.per_op_layers(runner.tracer.ops)
            runner.tracer = None
        else:
            run_passes(runner, ops, rng, spec["seconds"], "timed")
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_determinism(runner, ops)
        guards = Counter()
        for first in runner.first.values():
            guards.update(first.get("guards", {}))
        result.update(records=runner.records, guards=dict(guards), distinct_ops=len(ops), env=library_env())
        shutil.rmtree(runner.out, ignore_errors=True)
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
