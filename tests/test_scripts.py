"""The analysis scripts run end to end at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("null_cost_profile.py", ["--length", "300", "--seed", "1"]),
    ("variance_delay_study.py", ["--target-arl", "100", "--reps", "5", "--cal-reps", "50",
                                 "--change-at", "50", "--length", "300", "--theta1", "2.0"]),
])
def test_script_writes_csv(tmp_path, script, args):
    out = tmp_path / "out.csv"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "-o", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert len(lines) >= 2 and "," in lines[0]
