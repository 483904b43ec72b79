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
