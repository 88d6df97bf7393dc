"""The analysis scripts run end to end at tiny sizes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(script, args, out):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "-o", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("script, args", [
    ("null_cost_profile.py", ["--length", "300", "--seed", "1"]),
    ("variance_delay_study.py", ["--target-arl", "100", "--reps", "5", "--cal-reps", "50",
                                 "--change-at", "50", "--length", "300", "--theta1", "2.0"]),
])
def test_script_writes_csv(tmp_path, script, args):
    out = tmp_path / "out.csv"
    run_script(script, args, out)
    lines = out.read_text().splitlines()
    assert len(lines) >= 2 and "," in lines[0]


def test_null_cost_profile_output_is_pinned(tmp_path):
    # every step's curves evaluated and log calls of the three strategies,
    # and the summary of their counters: the step kernel's tallies, the
    # layered `update` and `q_full`, and the root-comparison baseline
    out = tmp_path / "out.csv"
    proc = run_script("null_cost_profile.py", ["--length", "1000", "--seed", "4"], out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "89e22fdee69060f1dcd32eeb6789bb73329a84ac37be3ff8b511ba2f58527b2f")
    assert hashlib.sha256(proc.stderr.encode()).hexdigest() == (
        "d691efc0c84715849530398746d673a7be23ba0c54e21a616f5190fd3f4e6bcf")
