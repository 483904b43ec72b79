"""Run the benchmark on every workload and record every run to a file.

    python3 tools/bench_record.py --pr NUM --seeds 1001 1002 1003 [--parent PARENT_TREE]

For each seed and workload this runs ``python3 perfbench/run.py --workload W
--seed S --seconds N --trace 0`` in this tree and, with ``--parent``, in a
checkout of the parent commit as well: one pair per seed, one run after the
other, the parent first in even-numbered pairs (the 1st, 3rd, ... seed given)
and second in the others.  The workloads and the run length N are the
``workloads`` and ``run_seconds`` of ``BENCHMARK.json``.  Every run's JSON
summary line, ``machine`` line and ``guards`` line go to ``BENCH_<pr>.json``
at the root of this tree, with the seeds and the commit of each tree.  With a parent, the file also gives per workload and
end-to-end metric each side's median and quartiles and the number of pairs
the change won, "better" being the direction ``BENCHMARK.json`` declares.

Runs are sequential: a run shares the machine with nothing else this script
starts.  Standard library only; the trees need numpy and scipy importable.
The exit code is 1 when a run failed or reported failed ops, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def commit_of(tree: Path) -> dict:
    """HEAD of ``tree`` and whether its working tree differs from it."""

    def git(*args):
        proc = subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True, timeout=60)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"head": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def run_bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its summary, machine and
    guard lines, or the error it ended with."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    record = {"exit_code": proc.returncode}
    if proc.returncode != 0 or not lines:
        record["error"] = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return record
    record["summary"] = json.loads(lines[-1])
    for line in lines:
        if line.startswith("machine "):
            record["machine"] = line[len("machine ") :]
        elif line.startswith("guards "):
            record["guards"] = line
    return record


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        values = values * 2
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: each side's quartiles and the pairs won."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload and "summary" in r:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["summary"]["metrics"]
        pairs = {k: p for k, p in pairs.items() if len(p) == 2}
        if not pairs:
            continue
        per_metric = {}
        for metric, direction in better.items():
            values = {side: [p[side][metric]["value"] for p in pairs.values()] for side in ("parent", "change")}
            sign = 1 if direction == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
            per_metric[metric] = {
                "parent": quartiles(values["parent"]),
                "change": quartiles(values["change"]),
                "change_wins": wins,
            }
        out[workload] = {"pairs": len(pairs), "metrics": per_metric}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name BENCH_<pr>.json")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit, run alternately")
    args = parser.parse_args(argv)
    trees = {"change": ROOT}
    if args.parent is not None:
        trees["parent"] = args.parent.resolve()
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} has no perfbench/run.py")

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    # a working tree that differs from HEAD is named by the source digest in
    # each run's machine line
    commits = {side: commit_of(tree) for side, tree in trees.items()}
    runs = []
    workloads = [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]
    for pair, seed in enumerate(args.seeds):
        sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for order, side in enumerate(s for s in sides if s in trees):
                record = run_bench(trees[side], workload, seed, seconds)
                runs.append(dict(record, workload=workload, seed=seed, side=side, pair=pair, order=order))
                p50 = record.get("summary", {}).get("metrics", {}).get("op_p50_s", {}).get("value")
                print(f"pair {pair} {workload} {side}: op_p50_s {p50} {record.get('error', '')}", file=sys.stderr)

    payload = {
        "pr": args.pr,
        "command": f"perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "seeds": args.seeds,
        "commits": commits,
        "runs": runs,
    }
    if "parent" in trees:
        payload["summary"] = summarize(runs, {m["name"]: m["better"] for m in config["end_to_end"]})
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    failed = any("error" in r or r["summary"].get("failed") for r in runs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
