"""Compare the CLI outputs of two gaborwf source trees.

    python3 tools/compare_outputs.py OLD_TREE NEW_TREE

Runs the same 74 ``gaborwf`` invocations against each tree's ``src`` (one
fresh output directory per invocation and tree) and compares, per invocation,
the exit code, the stdout and the sha256 of every file written.  Each
mismatch is printed; the exit code is 0 when everything is identical and 1
otherwise.  The invocations:

* ``analyze --dump-samples`` on all nine catalog entries at the default grids,
  and with ``--lam 0.5`` and ``--lam 2`` on the seven 1-D entries;
* ``analyze`` with ``--n-thresh 1.5`` and ``--n-thresh 0.75`` on the seven
  1-D entries and with ``--n-thresh 1.5`` on the two 2-D entries;
* ``propagate`` on six 1-D entries at t = 0.3927, pi/2 and 1.2, and on the
  two 2-D entries at t = 0.3 and pi/2;
* ``catalog list``, ``catalog list --json`` and ``catalog show`` on every entry;
* ``singular-space`` on Q = iI in 1-D and 2-D.

Standard library only; the trees need numpy and scipy importable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ENTRIES_1D = ("dirac", "dirac_derivative", "gaussian", "hermite", "box", "chirp", "bump")
ENTRIES_2D = ("line_delta_2d", "box2d")
PROPAGATED = ("dirac", "dirac_derivative", "box", "gaussian", "hermite", "bump")
TIMES = ("0.3927", repr(math.pi / 2), "1.2")
TIMES_2D = ("0.3", repr(math.pi / 2))
WORKERS = 2


def _q_files(directory: Path) -> list[Path]:
    """Q = iI for d = 1 and d = 2 as ``{"dim", "re", "im"}`` files."""
    paths = []
    for dim in (1, 2):
        size = 2 * dim
        eye = [[float(i == j) for j in range(size)] for i in range(size)]
        path = directory / f"osc{dim}d.json"
        path.write_text(json.dumps({"dim": dim, "re": [[0.0] * size] * size, "im": eye}))
        paths.append(path)
    return paths


def invocations(q_files: list[Path]) -> list[list[str]]:
    runs = [["analyze", name, "--dump-samples"] for name in ENTRIES_1D + ENTRIES_2D]
    runs += [["analyze", name, "--dump-samples", "--lam", lam] for lam in ("0.5", "2") for name in ENTRIES_1D]
    runs += [["analyze", name, "--n-thresh", t] for t in ("1.5", "0.75") for name in ENTRIES_1D]
    runs += [["analyze", name, "--n-thresh", "1.5"] for name in ENTRIES_2D]
    runs += [["propagate", name, "--t", t] for name in PROPAGATED for t in TIMES]
    runs += [["propagate", name, "--t", t] for name in ENTRIES_2D for t in TIMES_2D]
    runs += [["catalog", "list"], ["catalog", "list", "--json"]]
    runs += [["catalog", "show", name] for name in ENTRIES_1D + ENTRIES_2D]
    runs += [["singular-space", str(q)] for q in q_files]
    return runs


def run_one(tree: Path, argv: list[str], out: Path) -> dict:
    """Exit code, stdout and the sha256 of every file written by one run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    command = [sys.executable, "-m", "gaborwf.cli", *argv]
    if argv[0] != "catalog":
        command += ["--out", str(out)]
    proc = subprocess.run(command, capture_output=True, env=env, cwd=out.parent)
    files = {}
    if out.is_dir():
        for path in sorted(out.rglob("*")):
            if path.is_file():
                files[str(path.relative_to(out))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"code": proc.returncode, "stdout": proc.stdout, "files": files, "stderr": proc.stderr}


def compare(old: dict, new: dict) -> list[str]:
    problems = []
    if old["code"] != new["code"]:
        problems.append(f"exit code {old['code']} != {new['code']}")
    if old["stdout"] != new["stdout"]:
        problems.append("stdout differs")
    for name in sorted(set(old["files"]) | set(new["files"])):
        a, b = old["files"].get(name), new["files"].get(name)
        if a is None or b is None:
            problems.append(f"{name}: written by only one tree")
        elif a != b:
            problems.append(f"{name}: sha256 differs")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree", type=Path)
    parser.add_argument("new_tree", type=Path)
    args = parser.parse_args(argv)
    trees = (args.old_tree.resolve(), args.new_tree.resolve())
    for tree in trees:
        if not (tree / "src" / "gaborwf").is_dir():
            parser.error(f"{tree} has no src/gaborwf")

    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        work = Path(tmp)
        runs = invocations(_q_files(work))
        jobs = [(side, i) for i in range(len(runs)) for side in (0, 1)]

        def job(item):
            side, i = item
            run_dir = work / f"run{i:02d}_{side}"
            run_dir.mkdir()
            return run_one(trees[side], runs[i], run_dir / "out")

        with ThreadPoolExecutor(WORKERS) as pool:
            results = dict(zip(jobs, pool.map(job, jobs)))

        mismatched = 0
        outputs = 0
        for i, argv_i in enumerate(runs):
            old, new = results[(0, i)], results[(1, i)]
            outputs += 2 + len(old["files"])
            problems = compare(old, new)
            if problems:
                mismatched += 1
                print(f"MISMATCH gaborwf {' '.join(argv_i)}")
                for problem in problems:
                    print(f"  {problem}")
                for side, res in enumerate((old, new)):
                    if res["code"] not in (0, 1) and res["stderr"]:
                        tail = res["stderr"].decode(errors="replace").strip().splitlines()[-1]
                        print(f"  {('old', 'new')[side]} stderr: {tail}")
    print(
        f"{len(runs)} invocations, {outputs} outputs (exit codes, stdouts, files): "
        f"{mismatched} invocations differ"
    )
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
