#!/usr/bin/env python3
"""Benchmark of streamcpd: one workload, end-to-end or traced per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload detect-null --seed 1 --seconds 27 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced replay.  The measured work runs in a child process
(``worker.py``), one child at a time.  Each run checks the program's outputs;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the environment, the golden digests and the exact counters, and the
same record is written to ``.perfbench/record-<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads  # perfbench/ is on sys.path as the script's directory

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_RUNS = 5          # fresh processes per run; setup_s is their median
WORKER_LIMIT_S = 150    # the worker is killed past this, and the run fails


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_loads(line: str):
    """``json.loads`` that refuses NaN and Infinity."""
    return json.loads(line, parse_constant=_reject_constant)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def fresh_processes(argv: list[str], runs: int) -> list[tuple[float, subprocess.CompletedProcess]]:
    """Wall time and result of ``runs`` fresh processes, after one untimed
    warm-up run that fills the bytecode cache."""
    out = []
    for k in range(runs + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60)
        if k:
            out.append((time.perf_counter() - t0, proc))
    return out


def run_worker(args, workdir: Path) -> tuple[int, float]:
    """Run the measured child; returns its exit code and peak RSS in MiB."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--workdir", str(workdir)]
    if args.tiny:
        argv.append("--tiny")
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT)
    timer = threading.Timer(WORKER_LIMIT_S, proc.send_signal, (signal.SIGKILL,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def compare_events(cli_path: Path, reference: list[dict], n_obs: int) -> int:
    """Events of one CLI run that are missing, unparseable, extra, or differ
    from the events rebuilt from ``Detector.step`` on the same data."""
    try:
        got = cli_path.read_text().splitlines()
    except OSError:
        return n_obs
    failed = max(0, len(got) - n_obs)
    for k in range(n_obs):
        try:
            ok = k < len(got) and k < len(reference) and strict_loads(got[k]) == reference[k]
        except ValueError:
            ok = False
        failed += not ok
    return failed


def end_to_end(args, wl, workdir: Path) -> tuple[dict, int, int, dict]:
    arm = wl.arms[0]
    empty = workdir / "empty.txt"
    empty.write_text("")
    setup_out = workdir / "setup.ndjson"
    setup_argv = [sys.executable, "-m", "streamcpd.cli", "detect", *arm.cli_flags(wl.threshold),
                  "--input", str(empty), "--output", str(setup_out)]
    setup = []
    attempted = failed = 0
    for wall, proc in fresh_processes(setup_argv, 1 if args.tiny else SETUP_RUNS):
        setup.append(wall)
        attempted += 1
        failed += proc.returncode != 0 or setup_out.read_text() != ""

    rc, rss_mb = run_worker(args, workdir)
    if rc != 0:
        raise RuntimeError(f"worker exited with code {rc}")
    result = json.loads((workdir / "worker.json").read_text())
    rounds, obs = result["rounds"], result["obs_per_arm"]

    references = [[json.loads(line) for line in (workdir / f"ref-a{i}.ndjson").read_text().splitlines()]
                  for i in range(len(obs))]
    digest = hashlib.sha256()
    outputs: dict[int, bytes] = {}
    for r, rnd in enumerate(rounds):
        for i, rc, _ in rnd["cli"]:
            n = obs[i]
            cli_out = workdir / f"cli-r{r}-a{i}.ndjson"
            attempted += n
            failed += n if rc != 0 else compare_events(cli_out, references[i], n)
            if i not in outputs and cli_out.exists():
                outputs[i] = cli_out.read_bytes()
        for i, sums in rnd["step_sums"]:
            attempted += 1
            failed += sums is None or sums != result["reference_sums"][i]
        for cal in rnd["calibrate"]:
            attempted += 1
            failed += "error" in cal or not 0.9 * wl.target_arl <= cal["achieved_arl"] <= 1.1 * wl.target_arl
        for d in rnd["delay"]:
            attempted += max(wl.delay_reps, d["rows"])
            failed += abs(wl.delay_reps - d["rows"])

    for i in sorted(outputs):
        digest.update(outputs[i])
    timings = result["timings"]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "detect_obs_per_s": (timings["detect_obs_per_s"], "1/s"),
        "step_us_p50": (timings["step_us_p50"], "us"),
        "step_us_p99": (timings["step_us_p99"], "us"),
        "calibrate_s": (timings["calibrate_s"], "s"),
        "delay_study_s": (timings["delay_study_s"], "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
    }
    record = {
        "rounds": len(rounds),
        "per_round": {
            "cli_s": [[t for *_, t in rnd["cli"]] for rnd in rounds],
            "calibrate_s": [[cal["s"] for cal in rnd["calibrate"]] for rnd in rounds],
            "delay_s": [[d["s"] for d in rnd["delay"]] for rnd in rounds],
        },
        "timings": result["timings"],
        "timings_raw": result["timings_raw"],
        "setup_s_all": setup,
        "ndjson_sha256": digest.hexdigest(),
        "thresholds": {cal["label"]: cal.get("threshold") for cal in rounds[0]["calibrate"]},
        "delay_detected": {d["label"]: d.get("detected") for d in rounds[0]["delay"]},
        "errors": [u["error"] for rnd in rounds for u in rnd["calibrate"] + rnd["delay"] if "error" in u],
    }
    return metrics, attempted, failed, record


def traced(args, wl, workdir: Path) -> tuple[dict, int, int, dict]:
    code = "import time; t0 = time.perf_counter(); import streamcpd.cli; print(time.perf_counter() - t0)"
    imports = [float(proc.stdout) if proc.returncode == 0 else None
               for _, proc in fresh_processes([sys.executable, "-c", code], 1 if args.tiny else SETUP_RUNS)]
    wrong = imports.count(None)
    imports = [t for t in imports if t is not None] or [float("nan")]
    rc, _ = run_worker(args, workdir)
    if rc != 0:
        raise RuntimeError(f"worker exited with code {rc}")
    result = json.loads((workdir / "worker.json").read_text())
    metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
    metrics["import_s"] = (statistics.median(imports), "s")
    os.replace(workdir / "trace.npz", STATE / f"trace-{wl.name}.npz")
    record = {"counts": result["counts"], "failures": result["failures"],
              "spans_file": f".perfbench/trace-{wl.name}.npz"}
    return metrics, result["attempted"] + len(imports), result["failed"] + wrong, record


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args) -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "commit": git_commit(), "src_sha256": source_digest(),
        "python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy"),
        "nproc": os.cpu_count(), "platform": platform.platform(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest sizes, for the smoke test; not comparable with full runs")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "streamcpd" / "__init__.py").is_file():
        print(f"error: no streamcpd sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    # on SIGTERM, unwind: the worker is killed and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    wl = workloads.get(args.workload, args.tiny)
    STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    try:
        measure = traced if args.trace else end_to_end
        metrics, attempted, failed, record = measure(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"environment": environment(args), **record}
    (STATE / f"record-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
