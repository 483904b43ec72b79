"""Memory peak and time of each stage of one ``gaborwf analyze`` op.

    PYTHONPATH=src python3 tools/stage_peaks.py NAME [--n N] [--L L] [--lam LAM] [--params JSON]

Runs the stages of ``gaborwf analyze NAME`` one after the other in this
process, with the CLI's defaults and writers, into a temporary directory:

* catalog: the entry's samples and ground truth;
* detection: the phase-space sampling and ``estimate_gabor_wf`` (ray
  sampling, the STFT kernel and the decay fits);
* sigma: the frequency sampling and ``estimate_sigma``, where the entry is
  compactly supported;
* csv write: the profile CSVs;
* json write: ``report_to_json`` and the report JSONs.

The op runs three times: once to warm up, once for the time of each stage
and once under ``tracemalloc`` for its memory, which slows Python
allocations down.  Per stage it prints the wall time, the tracemalloc peak
above what was traced when the op began ("op peak"), the peak above what
was traced when the stage began ("stage peak": what the stage itself adds),
what stays traced when it ends, above the op's start ("held"), and for the
detection and sigma stages the rays the report evaluated out of those of
its sampling ("rays", such as 1328/3136: a 2-D phase-space detection
evaluates only the rays its flags need).
Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gaborwf import cli  # noqa: E402
from gaborwf import signal as sig  # noqa: E402
from gaborwf.stft import Window  # noqa: E402
from gaborwf.wavefront import (  # noqa: E402
    estimate_gabor_wf,
    estimate_sigma,
    frequency_rays,
    phase_space_rays,
    profiles_to_csv,
    report_to_json,
)


def _rays(report) -> str:
    return f"{len(report.evaluated)}/{len(report.sampling.directions)}"


def stages(args, out: Path):
    """The op as (stage name, callable) pairs; each callable updates
    ``state`` and returns the rays column of its row, if any."""
    state = {}

    def catalog():
        grid = sig.default_grid(args.name, args.n, args.length)
        state["u"], state["truth"] = sig.catalog_entry(args.name, args.params, grid)

    def detection():
        u = state["u"]
        state["reports"] = {"gabor": estimate_gabor_wf(u, Window(args.lam), phase_space_rays(u.grid))}
        return _rays(state["reports"]["gabor"])

    def sigma():
        if state["truth"].theorem_applicable:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                state["reports"]["sigma"] = estimate_sigma(state["u"], frequency_rays(state["u"].grid))
            return _rays(state["reports"]["sigma"])

    def csv_write():
        for kind, report in state["reports"].items():
            with (out / f"{args.name}_{kind}_profiles.csv").open("w") as fh:
                profiles_to_csv(report, fh)

    def json_write():
        for kind, report in state["reports"].items():
            cli._write_json(out / f"{args.name}_{kind}.json", report_to_json(report))

    return [("catalog", catalog), ("detection", detection), ("sigma", sigma), ("csv write", csv_write),
            ("json write", json_write)]


def run_op(args, traced: bool) -> list[tuple[str, float, float, float, float, str]]:
    """(stage, ms, op peak, stage peak, held, rays) per stage; the memory
    columns in bytes, 0 when not traced."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        if traced:
            tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0] if traced else 0
        for name, stage in stages(args, Path(tmp)):
            start = 0
            if traced:
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
            t0 = time.perf_counter()
            rays = stage() or ""
            ms = (time.perf_counter() - t0) * 1e3
            held, peak = tracemalloc.get_traced_memory() if traced else (0, 0)
            rows.append((name, ms, peak - base, peak - start, held - base, rays))
        if traced:
            tracemalloc.stop()
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("name", choices=sig.catalog_names())
    parser.add_argument("--params", type=json.loads, default=None, help="JSON object of entry parameters")
    parser.add_argument("--n", type=int, default=None, help="grid points per axis")
    parser.add_argument("--L", dest="length", type=float, default=None, help="box length per axis")
    parser.add_argument("--lam", type=float, default=1.0, help="window width")
    args = parser.parse_args(argv)
    run_op(args, traced=False)
    timed, traced = run_op(args, traced=False), run_op(args, traced=True)
    print(f"{'stage':<12} {'ms':>8} {'op peak MB':>11} {'stage peak MB':>14} {'held MB':>8} {'rays':>10}")
    for (name, ms, *_), (_, _, op_peak, stage_peak, held, rays) in zip(timed, traced):
        print(f"{name:<12} {ms:8.1f} {op_peak / 1e6:11.2f} {stage_peak / 1e6:14.2f} {held / 1e6:8.2f} {rays:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
