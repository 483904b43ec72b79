"""Compare the CLI outputs of two gaborwf source trees.

    python3 tools/compare_outputs.py OLD_TREE NEW_TREE

Runs the same 105 ``gaborwf`` invocations against each tree's ``src`` (one
fresh output directory per invocation and tree) and checks that every verdict
is unchanged.  Per invocation:

* the exit code and the stdout must be identical, and neither tree's stderr
  may hold a Python traceback: the CLI's exit-code contract allows none;
* every file but the detector reports and profile CSVs must be
  byte-identical;
* in a report (``*_gabor.json``, ``*_sigma.json``) every key but
  ``profiles`` must be identical: ``singular_dirs``, ``isolated`` and
  ``params``.  A report may list only some of its sampling's rays, so the
  profiles are matched by ``dir``: the new tree's must be a subset of the
  old tree's, and every ray the old tree flags at the report's ``n_thresh``
  must be present and flagged in the new one.  A matched profile must be
  identical except for ``slope`` and ``residual``, which must agree within
  1e-10 on every ray whose slope is at most ``2 n_thresh``; steeper rays
  fit windows near the 1e-14 floor, where rounding moves log|V| by
  percents, and are reported but not bounded;
* in a profile CSV (``*_profiles.csv``) the rows are matched by
  ``(dir_index, r)``: the new tree's must be whole rays of the old tree's,
  in its order, and |V| must agree within 1e-13 absolute or 1e-12
  relative.

It prints each violation, how many rays each tree wrote to a report or CSV
where the two differ, the largest deviation per field with the output it
was seen in, and how many invocations are byte-identical, within the bounds
or in violation; the exit code is 1 on any violation and 0 otherwise.  The
invocations:

* ``analyze --dump-samples`` on all nine catalog entries at the default grids,
  and with ``--lam 0.5`` and ``--lam 2`` on the seven 1-D entries;
* ``analyze`` at the extremes of the admitted window width, 4h to L/8, where
  the STFT kernel derives its narrowest and widest coarse × fine splits:
  ``--lam 0.16`` and ``--lam 5`` on dirac, box and chirp, and ``--lam 0.32``
  and ``--lam 2.5`` on the two 2-D entries (box2d, whose samples fill the
  grid, and line_delta_2d, whose kernel contracts only the blocks of its
  support);
* ``analyze`` with ``--n-thresh 1.5`` and ``--n-thresh 0.75`` on the seven
  1-D entries and with ``--n-thresh 1.5`` on the two 2-D entries;
* ``analyze`` on 2-D samplings other than the default, whose directions
  share first-axis pairs in other patterns: ``box2d --n-dirs 36``, whose
  tilt angles (multiples of 22.5 degrees) are not angles of its circles,
  ``line_delta_2d --n-dirs 36``, whose frequency generator at index 18 of
  the circles lies between two rays of stride 4, and ``line_delta_2d
  --rho 1.15``;
* ``analyze`` on grids other than the default, whose kernel chunks and
  slices hold other point counts: ``box --n 512``, ``box --n 4096``,
  ``bump --n 16384`` and ``box2d --n 128``;
* ``analyze dirac_derivative --params '{"k": 2}'``, the convolved stencil,
  and ``analyze dirac --n-thresh 1e308``, where every ray short of the floor
  is flagged and the arc-axis weights are about 2.5e307 each;
* ``analyze`` at the edges the catalog admits on the default grid: gaussian
  widths ``sigma`` 0.1 and 2.4, just inside the widths whose spectrum and
  samples fall below the STFT floor inside the band and the box, and
  ``hermite`` order 156, the highest the grid's Hermite basis holds;
* ``propagate`` on six 1-D entries at t = 0.3927, pi/2 and 1.2, on dirac
  and box at t = 1.6008 and 3.1716 (0.03 past pi/2 and pi, where the
  forecast lies just outside ``ang_tol`` of the frequency axis but its
  nearest sampled direction lies inside), and on the two 2-D entries at
  t = 0.3 and pi/2;
* ``propagate`` at the lattice times 0 (box2d) and 3 pi/2 (line_delta_2d),
  where the exact evolution is detected on the grid's own ladder, and
  ``dirac --t 0 --n 32768``, a grid too fine for the Hermite table that a
  lattice time does not build;
* ``propagate`` on grids whose sampler caps differ from the default, so the
  propagation ladder runs to another radius: ``dirac --t 0.3927 --n 256
  --L 20`` and ``bump --t 0.7 --n 2048 --L 160``;
* ``catalog list``, ``catalog list --json`` and ``catalog show`` on every entry;
* ``singular-space`` on Q = iI in 1-D and 2-D.

Standard library only; the trees need numpy and scipy importable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ENTRIES_1D = ("dirac", "dirac_derivative", "gaussian", "hermite", "box", "chirp", "bump")
ENTRIES_2D = ("line_delta_2d", "box2d")
LAM_EXTREMES_1D = ("dirac", "box", "chirp")
PROPAGATED = ("dirac", "dirac_derivative", "box", "gaussian", "hermite", "bump")
TIMES = ("0.3927", repr(math.pi / 2), "1.2")
NEAR_LATTICE = ("dirac", "box")
TIMES_NEAR_LATTICE = ("1.6008", "3.1716")
TIMES_2D = ("0.3", repr(math.pi / 2))
WORKERS = 2
# files compared by value; every other file must be byte-identical
REPORTS = ("_gabor.json", "_sigma.json")
PROFILES = "_profiles.csv"
V_ABS, V_REL = 1e-13, 1e-12  # |V| agrees within either
FIT_TOL = 1e-10  # slope and residual of rays with slope <= 2 n_thresh
MAX_SHOWN = 5  # violations printed per file
TRACEBACK = b"Traceback (most recent call last):"


class Worst:
    """The largest deviation seen per field, with the output it was seen in."""

    FIELDS = (
        "slope, s <= 2 n_thresh",
        "residual, s <= 2 n_thresh",
        "slope, steeper rays",
        "residual, steeper rays",
        "|V| absolute",
        "|V| relative, beyond 1e-13",
    )

    def __init__(self):
        self.where = ""
        self.fields = dict.fromkeys(self.FIELDS, (0.0, ""))

    def update(self, field: str, dev: float):
        if dev > self.fields[field][0]:
            self.fields[field] = (dev, self.where)


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
    runs += [["analyze", name, "--lam", lam] for lam in ("0.16", "5") for name in LAM_EXTREMES_1D]
    runs += [["analyze", name, "--lam", lam] for lam in ("0.32", "2.5") for name in ENTRIES_2D]
    runs += [["analyze", name, "--n-thresh", t] for t in ("1.5", "0.75") for name in ENTRIES_1D]
    runs += [["analyze", name, "--n-thresh", "1.5"] for name in ENTRIES_2D]
    runs += [["analyze", "box2d", "--n-dirs", "36"], ["analyze", "line_delta_2d", "--n-dirs", "36"]]
    runs += [["analyze", "line_delta_2d", "--rho", "1.15"]]
    runs += [["analyze", "box", "--n", n] for n in ("512", "4096")]
    runs += [["analyze", "bump", "--n", "16384"], ["analyze", "box2d", "--n", "128"]]
    runs += [["analyze", "dirac_derivative", "--params", '{"k": 2}'], ["analyze", "dirac", "--n-thresh", "1e308"]]
    runs += [["analyze", "gaussian", "--params", p] for p in ('{"sigma": 0.1}', '{"sigma": 2.4}')]
    runs += [["analyze", "hermite", "--params", '{"n": 156}']]
    runs += [["propagate", name, "--t", t] for name in PROPAGATED for t in TIMES]
    runs += [["propagate", name, "--t", t] for name in NEAR_LATTICE for t in TIMES_NEAR_LATTICE]
    runs += [["propagate", name, "--t", t] for name in ENTRIES_2D for t in TIMES_2D]
    runs += [["propagate", "box2d", "--t", "0"], ["propagate", "line_delta_2d", "--t", repr(3 * math.pi / 2)]]
    runs += [["propagate", "dirac", "--t", "0", "--n", "32768"]]
    runs += [["propagate", "dirac", "--t", "0.3927", "--n", "256", "--L", "20"]]
    runs += [["propagate", "bump", "--t", "0.7", "--n", "2048", "--L", "160"]]
    runs += [["catalog", "list"], ["catalog", "list", "--json"]]
    runs += [["catalog", "show", name] for name in ENTRIES_1D + ENTRIES_2D]
    runs += [["singular-space", str(q)] for q in q_files]
    return runs


def run_one(tree: Path, argv: list[str], out: Path) -> dict:
    """Exit code, stdout and the path of every file written by one run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    command = [sys.executable, "-m", "gaborwf.cli", *argv]
    if argv[0] != "catalog":
        command += ["--out", str(out)]
    proc = subprocess.run(command, capture_output=True, env=env, cwd=out.parent)
    files = {}
    if out.is_dir():
        for path in sorted(out.rglob("*")):
            if path.is_file():
                files[str(path.relative_to(out))] = path
    return {"code": proc.returncode, "stdout": proc.stdout, "files": files, "stderr": proc.stderr}


def _flagged(profile: dict, thresh: float) -> bool:
    return not profile["floor_hit"] and float(profile["slope"]) <= thresh  # "inf" reads as inf


def compare_reports(old: dict, new: dict, worst: Worst, notes: list[str]) -> list[str]:
    """Every key but the profiles must be identical; the new tree's
    profiles, matched by ``dir``, must be a subset of the old tree's that
    holds every ray the old tree flags, with the same flags; fits of rays
    with slope at most ``2 n_thresh`` must agree within ``FIT_TOL``."""
    if {k: v for k, v in old.items() if k != "profiles"} != {k: v for k, v in new.items() if k != "profiles"}:
        return ["fields other than the profiles differ"]
    thresh = old["params"]["n_thresh"]
    by_dir = {tuple(p["dir"]): p for p in old["profiles"]}
    if len(new["profiles"]) != len(old["profiles"]):
        notes.append(f"rays {len(old['profiles'])} old, {len(new['profiles'])} new")
    problems, written = [], set()
    for i, q in enumerate(new["profiles"]):
        key = tuple(q["dir"])
        p = by_dir.get(key)
        if p is None or key in written:
            problems.append(f"profile {i}: direction {list(key)} not written once by the old tree")
            continue
        written.add(key)
        if p["floor_hit"] != q["floor_hit"]:
            problems.append(f"profile {i}: floor_hit differs")
        s, t = float(p["slope"]), float(q["slope"])
        if _flagged(p, thresh) != _flagged(q, thresh):
            problems.append(f"profile {i}: flagged in one tree only (slope {s!r} vs {t!r})")
        bounded = min(s, t) <= 2 * thresh
        for field, a, b in (("slope", s, t), ("residual", p["residual"], q["residual"])):
            dev = 0.0 if a == b else abs(a - b)
            worst.update(f"{field}, s <= 2 n_thresh" if bounded else f"{field}, steeper rays", dev)
            if bounded and not dev <= FIT_TOL:
                problems.append(f"profile {i}: {field} {a!r} vs {b!r}")
    missing = [list(k) for k, p in by_dir.items() if _flagged(p, thresh) and k not in written]
    problems += [f"direction {k}: flagged in the old tree, not written by the new one" for k in missing]
    return problems


def compare_profiles(old: str, new: str, worst: Worst, notes: list[str]) -> list[str]:
    """Rows matched by ``(dir_index, r)``: the new tree's must be whole rays
    of the old tree's, in its order; |V| within ``V_ABS`` absolute or
    ``V_REL`` relative."""
    old_rows, new_rows = old.splitlines(), new.splitlines()
    if old_rows[0] != new_rows[0]:
        return ["header differs"]
    rows = {}  # "dir_index,r" -> (line, |V| text) in the old tree
    for line, a in enumerate(old_rows[1:], start=2):
        key, _, v = a.rpartition(",")
        rows[key] = (line, v)
    old_rays, new_rays = (Counter(k.partition(",")[0] for k in keys) for keys in (rows, new_rows[1:]))
    if len(old_rays) != len(new_rays):
        notes.append(f"rays {len(old_rays)} old, {len(new_rays)} new")
    problems = [f"dir_index {i}: {n} rows, {old_rays[i]} in the old tree" for i, n in new_rays.items() if n != old_rays[i]]
    last = 0
    for line, b in enumerate(new_rows[1:], start=2):
        key, _, w = b.rpartition(",")
        if key not in rows or rows[key][0] <= last:
            return problems + [f"line {line}: dir_index,r {key} not in the old tree after line {last}"]
        last, v = rows[key][0], float(rows[key][1])
        w = float(w)
        dev = abs(v - w)
        worst.update("|V| absolute", dev)
        if not dev <= V_ABS:
            rel = dev / max(abs(v), abs(w))
            worst.update("|V| relative, beyond 1e-13", rel)
            if not rel <= V_REL:
                problems.append(f"line {line}: |V| {v!r} vs {w!r}")
    return problems


def compare(old: dict, new: dict, worst: Worst, label: str) -> tuple[bool, list[str], list[str]]:
    """Whether two runs of the invocation ``label`` are byte-identical, every
    violation of the verdict bounds between them, and the ray counts of the
    files whose trees wrote different rays."""
    problems, notes = [], []
    if old["code"] != new["code"]:
        problems.append(f"exit code {old['code']} != {new['code']}")
    if old["stdout"] != new["stdout"]:
        problems.append("stdout differs")
    for side, res in (("old", old), ("new", new)):
        if TRACEBACK in res["stderr"]:
            problems.append(f"{side} stderr holds a Python traceback")
    identical = not problems
    for name in sorted(set(old["files"]) | set(new["files"])):
        a, b = (None if f is None else f.read_bytes() for f in (old["files"].get(name), new["files"].get(name)))
        if a == b:
            continue
        identical = False
        if a is None or b is None:
            problems.append(f"{name}: written by only one tree")
            continue
        worst.where = f"{label}: {name}"
        counted = []
        if name.endswith(REPORTS):
            found = compare_reports(json.loads(a), json.loads(b), worst, counted)
        elif name.endswith(PROFILES):
            found = compare_profiles(a.decode(), b.decode(), worst, counted)
        else:
            found = ["bytes differ"]
        notes += [f"{name}: {c}" for c in counted]
        problems += [f"{name}: {p}" for p in found[:MAX_SHOWN]]
        if len(found) > MAX_SHOWN:
            problems.append(f"{name}: ... {len(found) - MAX_SHOWN} more")
    return identical, problems, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree", type=Path)
    parser.add_argument("new_tree", type=Path)
    args = parser.parse_args(argv)
    trees = (args.old_tree.resolve(), args.new_tree.resolve())
    for tree in trees:
        if not (tree / "src" / "gaborwf").is_dir():
            parser.error(f"{tree} has no src/gaborwf")

    worst = Worst()
    identical = violating = subsets = outputs = 0
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

        # the files are read back here, before the directory goes
        for i, argv_i in enumerate(runs):
            old, new = results[(0, i)], results[(1, i)]
            label = "gaborwf " + " ".join(argv_i)
            outputs += 2 + len(old["files"])
            same, problems, notes = compare(old, new, worst, label)
            identical += same
            subsets += bool(notes) and not problems
            if notes:
                print(f"RAYS {label}")
                for note in notes:
                    print(f"  {note}")
            if problems:
                violating += 1
                print(f"VIOLATION {label}")
                for problem in problems:
                    print(f"  {problem}")
                for side, res in enumerate((old, new)):
                    if (res["code"] not in (0, 1) or TRACEBACK in res["stderr"]) and res["stderr"]:
                        tail = res["stderr"].decode(errors="replace").strip().splitlines()[-1]
                        print(f"  {('old', 'new')[side]} stderr: {tail}")
    print("largest deviation per field:")
    for field, (dev, where) in worst.fields.items():
        print(f"  {field:<28} {dev:.3g}" + (f"  ({where})" if dev else ""))
    print(
        f"{len(runs)} invocations, {outputs} outputs (exit codes, stdouts, files): "
        f"{identical} byte-identical, {len(runs) - identical - violating} within the verdict bounds "
        f"({subsets} of them with rays omitted by one tree), {violating} with violations"
    )
    return 1 if violating else 0


if __name__ == "__main__":
    sys.exit(main())
