"""gaborwf benchmark: one workload, end-to-end metrics or a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analyze-2d --seed 1 --seconds 50 --trace 0

Each workload runs in its own worker process (``worker.py``), a closed loop
with one client and one op at a time; BLAS keeps its default thread count.
With ``--trace 0`` the worker is first started ``SETUP_REPEATS - 1`` times
for set-up only, then once more to run the timed loop, and the end-to-end
metrics are printed.  With ``--trace 1`` one worker runs half the time
untraced and half with per-layer wrappers installed, and the per-layer
metrics are printed.  Every op's outputs are checked either way.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same numbers for a reader, with the machine, the seed and the
exact-count guards.  Metric names and units must match ``BENCHMARK.json``.
See ``NOTES.md`` for why each workload exists and what each metric should
move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("analyze-2d", "cli-1d")
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0  # the whole invocation, all workers included
TAIL_BEYOND = 10

LAYER_UNITS = {
    "stft.stft_points.ms": "ms",
    "stft.stft_points.calls": "count",
    "stft.stft_points.points": "count",
    "stft.ns_per_point_sample": "ns",
    "wavefront.estimate_gabor_wf.self_ms": "ms",
    "wavefront.estimate_sigma.self_ms": "ms",
    "wavefront.report_to_json.ms": "ms",
    "wavefront.profiles_to_csv.ms": "ms",
    "wavefront.phase_space_rays.ms": "ms",
    "wavefront.check_main_theorem.ms": "ms",
    "signal.catalog_entry.ms": "ms",
    "signal.dump_samples.ms": "ms",
    "signal.nudft.ms": "ms",
    "signal.nudft.points": "count",
    "cli.main.self_ms": "ms",
    "cli.bytes_written": "bytes",
    "propagator.HermiteBasis.build.ms": "ms",
    "propagator.taper_expansion.ms": "ms",
    "propagator.harmonic_propagate.ms": "ms",
    "propagator.verify_propagation.self_ms": "ms",
    "symplectic.propagate_wf_set.ms": "ms",
    "wavefront.directions": "count",
    "wavefront.floor_hit_rays": "count",
    "wavefront.flagged": "count",
    "wavefront.singular": "count",
    "wavefront.isolated": "count",
    "wavefront.points_after_floor_frac": "ratio",
    "trace.overhead_frac": "ratio",
}
END_TO_END_UNITS = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
GUARDS = ("points", "directions", "floor_hit_rays", "flagged", "singular", "isolated", "bytes_written")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def check_config():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in config["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in config["per_layer"]},
    }
    if declared != {"end_to_end": END_TO_END_UNITS, "per_layer": LAYER_UNITS}:
        raise BenchError("metric names or units differ from BENCHMARK.json")


def load_average() -> str:
    return "/".join(f"{x:.2f}" for x in os.getloadavg())


def machine_env() -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gaborwf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "load_start": load_average(),
    }


def run_worker(spec: dict, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    spec = dict(spec, spawned=clock())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=sys.stderr,
    )
    try:
        rc = proc.wait(timeout=max(deadline - clock(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ({spec['mode']}) ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise BenchError(f"worker ({spec['mode']}) exited with code {rc}")
    return json.loads(Path(spec["result"]).read_text())


def op_tail(times: list[float]) -> tuple[float, str]:
    """Time at the highest percentile with at least TAIL_BEYOND ops beyond it.
    A run with fewer ops has no such percentile and reports its slowest op."""
    times = sorted(times)
    n = len(times)
    if n > TAIL_BEYOND:
        i = n - TAIL_BEYOND - 1
        return times[i], f"p{100 * (i + 1) / n:.1f} of {n} ops, {TAIL_BEYOND} beyond it"
    return times[-1], f"slowest of {n} ops: fewer than {TAIL_BEYOND + 1}, so no percentile has {TAIL_BEYOND} beyond it"


def ok_times(records: list[dict], phase: str) -> list[float]:
    return [r["seconds"] for r in records if r["phase"] == phase and r["error"] is None]


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, list[str]]:
    records = [r for r in result["records"] if r["phase"] == "timed"]
    times = ok_times(records, "timed")
    if not times:
        raise BenchError("no timed op succeeded")
    wall = max(r["start"] + r["seconds"] for r in records) - min(r["start"] for r in records)
    tail, tail_note = op_tail(times)
    metrics = {
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail,
        "ops_per_s": len(times) / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "op_p50_s": f"median of {len(times)} ops",
        "op_tail_s": tail_note,
        "ops_per_s": f"{len(times)} ops in {wall:.3f} s",
        "setup_s": f"median of {len(setups)} worker starts: " + ", ".join(f"{s:.3f}" for s in setups),
        "peak_rss_mb": "getrusage ru_maxrss of the timed worker",
    }
    lines = [f"  {k:<14} {v:12.6g} {END_TO_END_UNITS[k]:<4} ({notes[k]})" for k, v in metrics.items()]
    by_kind: dict[str, list[float]] = {}
    for r in records:
        if r["error"] is None:
            by_kind.setdefault(r["kind"], []).append(r["seconds"])
    for kind, ts in sorted(by_kind.items()):
        lines.append(f"  kind {kind:<18} n={len(ts):<4} p50={statistics.median(ts):.4f} s")
    return metrics, lines


def per_layer(result: dict) -> tuple[dict, list[str]]:
    layers = result["layers"]
    untraced = ok_times(result["records"], "untraced")
    traced = ok_times(result["records"], "traced")
    if not untraced or not traced:
        raise BenchError("no op succeeded in one of the traced run's phases")
    p50_plain, p50_traced = statistics.median(untraced), statistics.median(traced)
    metrics = {name: float(layers.get(name, 0.0)) for name in LAYER_UNITS}
    samples = layers.get("stft.point_samples", 0.0)
    metrics["stft.ns_per_point_sample"] = metrics["stft.stft_points.ms"] * 1e6 / samples if samples else 0.0
    evaluated = layers.get("wavefront.points_evaluated", 0.0)
    after = layers.get("wavefront.points_after_floor", 0.0)
    metrics["wavefront.points_after_floor_frac"] = after / evaluated if evaluated else 0.0
    metrics["trace.overhead_frac"] = (p50_traced - p50_plain) / p50_plain
    lines = [f"  {k:<40} {v:14.6g} {LAYER_UNITS[k]}" for k, v in metrics.items()]
    lines.append(
        f"  op_p50_s untraced {p50_plain:.4f} s ({len(untraced)} ops), "
        f"traced {p50_traced:.4f} s ({len(traced)} ops); layer numbers are per op"
    )
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    deadline = clock() + TIME_LIMIT_S
    try:
        if not (ROOT / "src" / "gaborwf" / "cli.py").is_file():
            raise BenchError(f"no gaborwf sources under {ROOT / 'src'}")
        check_config()
        env = machine_env()
        work = HERE / ".work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "work": str(work)}
        try:
            setups = []
            if args.trace:
                result = run_worker(dict(spec, mode="trace", result=str(work / "trace.json")), deadline)
                metrics, lines = per_layer(result)
            else:
                for i in range(SETUP_REPEATS - 1):
                    part = run_worker(dict(spec, mode="setup", result=str(work / f"setup{i}.json")), deadline)
                    setups.append(part["setup_s"])
                result = run_worker(dict(spec, mode="run", result=str(work / "run.json")), deadline)
                setups.append(result["setup_s"])
                metrics, lines = end_to_end(result, setups)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    env.update(result["env"], load_end=load_average(), seed=args.seed)
    records = result["records"]
    failures = [r for r in records if r["error"] is not None]
    guards = {g: result["guards"].get(g, 0) for g in GUARDS}
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(*lines, sep="\n")
    print(f"  failed_frac    {len(failures) / len(records):.6g} ({len(failures)} of {len(records)} ops)")
    for r in failures:
        print(f"  FAILED {r['key']}: {r['error']}")
    print(f"guards over {result['distinct_ops']} distinct ops: " + " ".join(f"{g}={v}" for g, v in guards.items()))
    summary = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": (LAYER_UNITS if args.trace else END_TO_END_UNITS)[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
