"""The benchmark's measured process: one workload, untraced or traced.

Started by ``run.py`` as a child, so that its peak resident memory is the
program's and not that of ``run.py``.  It generates the workload's
inputs (untimed), then repeats rounds of the four phases until ``--seconds``
have passed, and writes raw timings and outputs into ``--workdir`` for
``run.py`` to check.  With ``--trace 1`` it replays the workload once with spans
instead (see ``tracing.py``).

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
       --trace 0|1 --workdir DIR [--tiny]
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

import speed
import workloads
from streamcpd import (
    CalibrationError,
    DelayRun,
    Detector,
    DetectorConfig,
    Scenario,
    StreamCpdError,
    calibrate_threshold,
    delay_experiment,
    generate,
)
from streamcpd import bench, cli


class Corpus:
    """The cli/step inputs of one workload: one stream per arm, as text
    lines on disk for the CLI and as the floats the CLI parses from them."""

    def __init__(self, wl: workloads.Workload, seed: int, workdir: Path):
        self.inputs: list[Path] = []
        self.values: list[list[float]] = []
        n = wl.stream_len
        for i, arm in enumerate(wl.arms):
            stream_seed, _ = workloads.arm_seeds(seed, i)
            post = arm.theta_post if wl.change else arm.theta_pre
            scen = Scenario(arm.sim_spec(), arm.theta_pre, post, n // 2 if wl.change else 0, n, stream_seed)
            data = generate(scen)
            if arm.square:
                data = data * data
            lines = [str(int(v)) if arm.integral() else repr(float(v)) for v in data]
            path = workdir / f"in-a{i}.txt"
            path.write_text("\n".join(lines) + "\n")
            self.inputs.append(path)
            self.values.append([float(s) for s in lines])


def config(arm: workloads.Arm, threshold: float, no_stop: bool = False) -> DetectorConfig:
    return DetectorConfig(arm.spec(), arm.theta0, threshold, arm.direction, stop_on_detect=not no_stop)


def cli_argv(arm: workloads.Arm, wl: workloads.Workload, src: Path, dst: Path) -> list[str]:
    argv = ["detect", *arm.cli_flags(wl.threshold), "--input", str(src), "--output", str(dst)]
    return argv + ["--no-stop"] if wl.no_stop else argv


def call_cli(argv: list[str]) -> int:
    """``streamcpd detect`` in process; argument errors exit through
    SystemExit, and an exception the CLI lets escape returns -1."""
    try:
        return cli.main(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    except StreamCpdError:
        return -1


def event(res) -> dict:
    """The NDJSON event the CLI documents for one ``StepResult``."""
    ev = {"t": res.t, "curves": res.curves_stored, "evaluated": res.curves_evaluated}
    d = res.detection
    if d is not None:
        ev.update(detect=True, tau_low=d.tau_low, stat=d.stat, direction=d.direction_hit.name.lower())
    elif res.stat is not None:
        ev["stat"] = res.stat
    return ev


def calibrate(arm: workloads.Arm, wl: workloads.Workload, cal_seed: int):
    return calibrate_threshold(
        config(arm, 1.0), wl.target_arl, wl.cal_reps, cal_seed,
        null_theta=arm.theta_pre if arm.theta0 is None else None,
        null_spec=arm.sim_spec() if arm.square else None,
        square_data=arm.square,
    )


def calibrated_arms(wl: workloads.Workload) -> list[tuple[int, workloads.Arm]]:
    return [(i, arm) for i, arm in enumerate(wl.arms) if arm.calibrated]


def delay_runs(wl: workloads.Workload, seed: int) -> list[DelayRun]:
    """One run per calibrated arm at its fixed delay threshold, all on the
    same scenario seed (paired)."""
    runs = []
    for _, arm in calibrated_arms(wl):
        post = arm.theta_post if wl.delay_change_at else arm.theta_pre
        scen = Scenario(arm.sim_spec(), arm.theta_pre, post, wl.delay_change_at, wl.delay_len,
                        workloads.delay_seed(seed))
        runs.append(DelayRun(arm.label, config(arm, arm.delay_threshold), scen, square_data=arm.square))
    return runs


class CallTimer:
    """Times each call that ``streamcpd.bench`` makes to ``generate``,
    ``stat_running_max`` and ``first_detection``, in call order, by
    wrapping the originals in the module's namespace."""

    def __init__(self):
        self.calls: list[float] = []
        for name in ("generate", "stat_running_max", "first_detection"):
            setattr(bench, name, self._timed(getattr(bench, name)))

    def _timed(self, fn):
        def timed(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.calls.append(time.perf_counter() - t0)
        return timed

    def unit(self, fn, *args) -> tuple[float, list[float], object]:
        """Run ``fn(*args)``; returns its wall time, the times of the calls
        it made, and its result (or the StreamCpdError it raised)."""
        self.calls = []
        t0 = time.perf_counter()
        try:
            res = fn(*args)
        except (CalibrationError, StreamCpdError) as e:
            res = e
        return time.perf_counter() - t0, self.calls, res


def run_round(r: int, wl: workloads.Workload, seed: int, corpus: Corpus, workdir: Path,
              timer: CallTimer) -> tuple[dict, dict[int, array]]:
    """One round: every arm through the CLI and through ``Detector.step``,
    and every calibrated arm through ``calibrate_threshold`` and through
    ``delay_experiment``.  The arms' delay runs share scenario seeds, so
    together they make up one paired experiment.  The CLI and step passes
    are spread between the Monte Carlo units, so that the repeats of every
    piece sample more stretches of the machine's varying speed.  Each unit
    is timed on its own, and the Monte Carlo units call by call.  Returns
    the round's record and each arm's step latencies."""
    out: dict = {"cli": [], "step_sums": [], "calibrate": [], "delay": [], "probes": []}
    lats: dict[int, array] = {}

    def fast(i: int) -> None:
        arm = wl.arms[i]
        argv = cli_argv(arm, wl, corpus.inputs[i], workdir / f"cli-r{r}-a{i}.ndjson")
        t0 = time.perf_counter()
        rc = call_cli(argv)
        out["cli"].append((i, rc, time.perf_counter() - t0))

        # results are folded into a checksum, not kept: keeping them would
        # time the garbage collector walking them rather than the step.  A
        # throwaway detector first warms the step path, so that the timed
        # steps run back to back as in a monitor, not cold after another
        # phase.
        cfg = config(arm, wl.threshold, wl.no_stop)
        warm = Detector(cfg)
        for x in corpus.values[i][:50]:
            warm.step(x)
        step = Detector(cfg).step
        ns = time.perf_counter_ns
        lat = array("q")
        acc = [0, 0, 0]
        try:
            for x in corpus.values[i]:
                t0 = ns()
                res = step(x)
                t1 = ns()
                lat.append(t1 - t0)
                acc[0] += res.curves_stored
                acc[1] += res.curves_evaluated
                acc[2] += res.detection is not None
        except StreamCpdError:
            acc = None
        lats[i] = lat
        out["step_sums"].append((i, acc))

    def calibration(i: int, arm: workloads.Arm) -> None:
        _, cal_seed = workloads.arm_seeds(seed, i)
        wall, calls, res = timer.unit(calibrate, arm, wl, cal_seed)
        if isinstance(res, Exception):
            cal = {"label": arm.label, "error": f"{type(res).__name__}: {res}"}
        else:
            cal = {"label": arm.label, "threshold": format(float(res.threshold), ".17g"),
                   "achieved_arl": res.achieved_arl, "rounds": res.rounds}
        out["calibrate"].append({**cal, "s": wall, "calls": calls})

    def delay(run: DelayRun) -> None:
        wall, calls, rows = timer.unit(delay_experiment, [run], wl.delay_reps)
        if isinstance(rows, Exception):
            d = {"error": f"{run.label}: {type(rows).__name__}: {rows}"}
            rows = []
        else:
            d = {"detected": sum(row.outcome == "detected" for row in rows)}
        out["delay"].append({"label": run.label, "rows": len(rows), **d, "s": wall, "calls": calls})

    units = []
    for (i, arm), run in zip(calibrated_arms(wl), delay_runs(wl, seed)):
        units += [lambda i=i, arm=arm: calibration(i, arm), lambda run=run: delay(run)]
    arms = len(wl.arms)
    for n, unit in enumerate(units):
        for i in range(n * arms // len(units), (n + 1) * arms // len(units)):
            out["probes"].append(speed.probe())
            fast(i)
        out["probes"].append(speed.probe())
        unit()
    out["probes"].append(speed.probe())
    return out, lats


def summarize(rounds: list[dict], lats: dict[int, list[array]], obs: int, scale: list[float]) -> dict:
    """End-to-end timings from the medians of repeated pieces of work, each
    time multiplied by its round's entry of ``scale``.

    On a shared virtual machine (2 vCPUs, Intel Xeon) a piece of work's
    time was seen to swing by a factor of 1.5 from one repeat to the next,
    and how fast the fastest repeats of a run were depended on whether the
    machine had quiet stretches during it; medians over the repeats were
    the steadiest from run to run.  The pieces are short: one CLI run per
    arm, each step, and in the Monte Carlo units each call into
    ``streamcpd.bench``'s simulation and replica loops plus the remainder.
    A phase's time is the sum of its pieces' medians.  Every round replays
    an arm's same steps, so each step's latency is its median over the
    rounds: steps that are slow by their own work, such as long merge
    cascades or check walks, stay in the tail, and those that were slow
    because of the machine or of where a garbage collection fell drop out.
    The median is taken over all steps of all arms; the 99th percentile is
    each arm's, averaged over the arms, because the top 1% of all steps
    pooled came from whichever arm had the longest alarm walks on the seed.
    """
    cli: dict[int, list[float]] = {}
    for rnd, f in zip(rounds, scale):
        for i, _, t in rnd["cli"]:
            cli.setdefault(i, []).append(t * f)
    cli_s = sum(statistics.median(ts) for ts in cli.values())

    per_step = [np.median(np.array(by_round) * np.array(scale)[:, None], axis=0) for by_round in lats.values()]

    def median_sum(key: str) -> float:
        """Sum over the units under ``key`` of the median remainder and the
        median of each call."""
        total = 0.0
        for repeats in zip(*(rnd[key] for rnd in rounds)):
            walls = [u["s"] * f for u, f in zip(repeats, scale)]
            calls = [[c * f for c in u["calls"]] for u, f in zip(repeats, scale)]
            if len({len(c) for c in calls}) > 1:
                total += statistics.median(walls)  # the repeats differ: no call-wise medians
                continue
            total += statistics.median(w - sum(c) for w, c in zip(walls, calls))
            total += sum(statistics.median(per_call) for per_call in zip(*calls))
        return total

    return {
        "detect_obs_per_s": obs / cli_s,
        "step_us_p50": float(np.percentile(np.concatenate(per_step), 50)) / 1000.0,
        "step_us_p99": float(np.mean([np.percentile(arm, 99) for arm in per_step])) / 1000.0,
        "calibrate_s": median_sum("calibrate"),
        "delay_study_s": median_sum("delay"),
    }


def reference(wl: workloads.Workload, corpus: Corpus, workdir: Path) -> list:
    """The API reference, untimed: each arm's events rebuilt from
    ``Detector.step`` into ``ref-a<i>.ndjson``, and the per-arm checksum
    (sum of curves stored, sum of curves evaluated, detections) that the
    timed step passes must reproduce.  Also warms up the step path."""
    sums = []
    for i, arm in enumerate(wl.arms):
        det = Detector(config(arm, wl.threshold, wl.no_stop))
        acc = [0, 0, 0]
        with open(workdir / f"ref-a{i}.ndjson", "w") as fh:
            try:
                for x in corpus.values[i]:
                    res = det.step(x)
                    fh.write(json.dumps(event(res)) + "\n")
                    acc[0] += res.curves_stored
                    acc[1] += res.curves_evaluated
                    acc[2] += res.detection is not None
            except StreamCpdError:
                acc = None
        sums.append(acc)
    return sums


def warm_up(wl: workloads.Workload, corpus: Corpus, workdir: Path) -> None:
    """Fill caches and finish lazy imports on a short prefix of each stream."""
    for i, arm in enumerate(wl.arms):
        head = workdir / "warm-in.txt"
        with open(corpus.inputs[i]) as fh:
            head.write_text("".join(fh.readlines()[:200]))
        call_cli(cli_argv(arm, wl, head, workdir / "warm-out.ndjson"))
        generate(Scenario(arm.sim_spec(), arm.theta_pre, arm.theta_pre, 0, 10, 0))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    wl = workloads.get(args.workload, args.tiny)
    corpus = Corpus(wl, args.seed, args.workdir)
    if args.trace:
        import tracing

        result = tracing.replay(wl, args.seed, corpus, args.workdir)
    else:
        sums = reference(wl, corpus, args.workdir)
        warm_up(wl, corpus, args.workdir)
        timer = CallTimer()
        rounds, lats = [], {i: [] for i in range(len(wl.arms))}
        deadline = time.perf_counter() + args.seconds
        while len(rounds) < 2 or time.perf_counter() < deadline:
            gc.collect()
            rnd, lat = run_round(len(rounds), wl, args.seed, corpus, args.workdir, timer)
            rounds.append(rnd)
            for i, a in lat.items():
                lats[i].append(a)
        obs = sum(len(v) for v in corpus.values)
        # timings scaled to the probe's reference speed, round by round, and
        # as measured
        scale = [speed.factor(rnd["probes"]) for rnd in rounds]
        result = {"rounds": rounds, "reference_sums": sums, "timings": summarize(rounds, lats, obs, scale),
                  "timings_raw": summarize(rounds, lats, obs, [1.0] * len(rounds))}
    result["obs_per_arm"] = [len(v) for v in corpus.values]
    (args.workdir / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
