import importlib.util
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_stage_peaks_reports_every_stage():
    command = [sys.executable, str(TOOLS / "stage_peaks.py"), "dirac", "--n", "256", "--L", "20"]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[:2] == ["stage", "ms"]
    assert [row[:12].strip() for row in rows] == ["catalog", "detection", "sigma", "csv write", "json write"]


def _compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOLS / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_accepts_ray_subsets_that_keep_every_flag():
    tool = _compare_outputs()

    def ray(direction, slope):
        return {"dir": direction, "slope": slope, "residual": 0.0, "floor_hit": slope == "inf"}

    old = {"kind": "gabor", "params": {"n_thresh": 2.5}, "singular_dirs": [[0.0, 1.0]], "isolated": []}
    old["profiles"] = [ray([1.0, 0.0], 4.0), ray([0.0, 1.0], 1.0), ray([-1.0, 0.0], "inf")]
    csv = "dir_index,r,abs_V\n0,1.0,0.5\n0,2.0,0.25\n1,1.0,1.0\n1,2.0,1.0\n2,1.0,0.0\n"

    def problems(profiles, rows):
        notes = []
        new = dict(old, profiles=[old["profiles"][i] for i in profiles])
        found = tool.compare_reports(old, new, tool.Worst(), notes)
        lines = csv.splitlines()
        found += tool.compare_profiles(csv, "\n".join([lines[0]] + [lines[i] for i in rows]) + "\n", tool.Worst(), notes)
        return found, notes

    assert problems([0, 1, 2], [1, 2, 3, 4, 5]) == ([], [])
    found, notes = problems([1], [3, 4])
    assert found == [] and notes == ["rays 3 old, 1 new", "rays 3 old, 1 new"]
    # the flagged ray 1 omitted; half a ray; rows out of the old order
    assert problems([0, 2], [1, 2, 5])[0][0].startswith("direction [0.0, 1.0]: flagged in the old tree")
    assert problems([1], [3])[0] == ["dir_index 1: 1 rows, 2 in the old tree"]
    assert "not in the old tree after line" in problems([1], [4, 3])[0][-1]


def test_compare_outputs_fails_a_traceback_on_either_tree():
    tool = _compare_outputs()
    clean = {"code": 0, "stdout": b"PASS\n", "files": {}, "stderr": b"a warning\n"}
    crash = dict(clean, stderr=b'Traceback (most recent call last):\n  File "cli.py", line 1\nValueError: x\n')
    assert tool.compare(clean, clean, tool.Worst(), "run") == (True, [], [])
    for old, new, side in ((crash, clean, "old"), (clean, crash, "new")):
        assert tool.compare(old, new, tool.Worst(), "run") == (False, [f"{side} stderr holds a Python traceback"], [])
