"""Traced replay of one workload: spans, layer self times, counters.

The replay measures each layer from outside the program.  Its loops are
replicas of the program's own loops (``Detector.step``, and
``stat_running_max`` and ``first_detection`` in ``streamcpd.bench``) that
call the layers' public functions directly, with one span around each call.
The replicas are swapped in for the originals only while the replay runs:
``cli.main`` gets a traced ``Detector``, and ``calibrate_threshold`` and
``delay_experiment`` get traced ``generate``, ``stat_running_max`` and
``first_detection``.  Every replica result is then compared bit for bit with
the original function on the same input, so the per-layer numbers describe
the program that the untraced run measures.

A span is one row of five columns: name, start, end, parent span and
request (one ``cli.main``, ``stat_running_max`` or ``first_detection``
call).  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import statistics
import time
from array import array
from pathlib import Path

import numpy as np

import worker
import workloads
from streamcpd import (
    CalibrationError,
    Detection,
    Detector,
    Direction,
    StepResult,
    StreamCpdError,
    SupportError,
    attach_bounds,
    bench,
    check,
    cli,
    delay_experiment,
    new_state,
    q_full,
    update,
)

_DIRECTIONS = {"up": (Direction.UP,), "down": (Direction.DOWN,), "both": (Direction.UP, Direction.DOWN)}
LAYERS = ("cli", "detector", "families", "pruning", "maxima", "simulate", "bench")


class Tracer:
    """Spans kept in flat typed arrays; ``open`` returns the span's row."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.current = -1
        self.current_request = 0

    def nid(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.current)
        self.request.append(self.current_request)
        self.end.append(0)
        self.current = i
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.current = self.parent[i]

    def call(self, nid: int, fn, *args):
        i = self.open(nid)
        try:
            return fn(*args)
        finally:
            self.close(i)

    def new_request(self) -> None:
        self.current_request += 1

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request": np.frombuffer(self.request, dtype=np.int32),
        }


class Loops:
    """Replica loops with a span around every layer call.

    Each replica keeps the states it drove, so the counters of the replay
    can be summed per loop kind: ``check`` loops (detector steps and first
    detections) and ``q_full`` loops (running-maximum paths).
    """

    def __init__(self, tr: Tracer):
        self.tr = tr
        self.ids = {n: tr.nid(n) for n in (
            "cli.main", "detector.step", "families.suff", "families.suff_arr",
            "pruning.update", "pruning.q_full", "maxima.attach_bounds", "maxima.check",
            "simulate.generate", "bench.calibrate_threshold", "bench.delay_experiment",
            "bench.stat_running_max", "bench.first_detection",
        )}
        self.detectors: list[Detector] = []
        self.driven: list[tuple[str, list, int]] = []  # (loop kind, states, observations)
        self.recorded: list[tuple] = []  # (function name, config, data, replica result)
        self.generated = 0

    def detector_class(self):
        loops = self
        ids = self.ids
        tr = self.tr

        class TracedDetector(Detector):
            def __init__(self, config):
                super().__init__(config)
                loops.detectors.append(self)

            def step(self, x: float) -> StepResult:
                span = tr.open(ids["detector.step"])
                try:
                    return self._traced_step(x)
                finally:
                    tr.close(span)

            def _traced_step(self, x: float) -> StepResult:
                cfg = self.config
                spec = cfg.spec
                try:
                    g = tr.call(ids["families.suff"], spec.suff, x)
                except SupportError as e:
                    raise SupportError(f"stream position {self._t + 1}: {e}") from e
                self._t += 1
                detection = None
                evals = 0
                for st in self.states:
                    tr.call(ids["pruning.update"], update, st, g)
                    tr.call(ids["maxima.attach_bounds"], attach_bounds, st, spec)
                if cfg.theta0 is not None or self._t >= 2:
                    for st in self.states:
                        out = tr.call(ids["maxima.check"], check, st, spec, cfg.threshold)
                        evals += out.curves_evaluated
                        if out.changed and (detection is None or out.stat > detection.stat):
                            detection = Detection(self._t, out.tau_low, out.stat, st.direction)
                stat = None
                if cfg.stat_every and self._t % cfg.stat_every == 0 and self._stat_defined():
                    stat = self.statistic()
                return StepResult(
                    t=self._t,
                    detection=detection,
                    stat=stat,
                    curves_stored=sum(len(st.records) for st in self.states),
                    curves_evaluated=evals,
                )

        return TracedDetector

    def generate(self, scenario):
        out = self.tr.call(self.ids["simulate.generate"], _ORIGINAL["generate"], scenario)
        self.generated += len(out)
        return out

    def stat_running_max(self, config, data):
        tr, ids = self.tr, self.ids
        tr.new_request()
        span = tr.open(ids["bench.stat_running_max"])
        try:
            spec = config.spec
            g_arr = tr.call(ids["families.suff_arr"], spec.suff_arr, np.asarray(data, dtype=float))
            states = [new_state(d, config.theta0, spec) for d in _DIRECTIONS[config.direction]]
            out = np.empty(len(g_arr))
            run = 0.0
            for i in range(len(g_arr)):
                gi = g_arr[i]
                v = 0.0
                for st in states:
                    tr.call(ids["pruning.update"], update, st, gi)
                    v = max(v, 2.0 * tr.call(ids["pruning.q_full"], q_full, st, spec)[0])
                if v > run:
                    run = v
                out[i] = run
        finally:
            tr.close(span)
        self.driven.append(("q_full", states, len(g_arr)))
        self.recorded.append(("stat_running_max", config, data, out))
        return out

    def first_detection(self, config, data):
        tr, ids = self.tr, self.ids
        tr.new_request()
        span = tr.open(ids["bench.first_detection"])
        try:
            spec = config.spec
            g_arr = tr.call(ids["families.suff_arr"], spec.suff_arr, np.asarray(data, dtype=float))
            states = [new_state(d, config.theta0, spec) for d in _DIRECTIONS[config.direction]]
            thr = config.threshold
            known = config.theta0 is not None
            hit = None
            steps = len(g_arr)
            for i in range(len(g_arr)):
                gi = g_arr[i]
                for st in states:
                    tr.call(ids["pruning.update"], update, st, gi)
                    tr.call(ids["maxima.attach_bounds"], attach_bounds, st, spec)
                if known or i >= 1:
                    if any(tr.call(ids["maxima.check"], check, st, spec, thr).changed for st in states):
                        hit = steps = i + 1
                        break
        finally:
            tr.close(span)
        self.driven.append(("check", states, steps))
        self.recorded.append(("first_detection", config, data, hit))
        return hit


_ORIGINAL = {
    "generate": bench.generate,
    "stat_running_max": bench.stat_running_max,
    "first_detection": bench.first_detection,
}


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


def _mean_us(durations: np.ndarray) -> float:
    return float(durations.mean()) / 1000.0 if len(durations) else 0.0


def replay(wl: workloads.Workload, seed: int, corpus: worker.Corpus, workdir: Path) -> dict:
    """One traced replay of ``wl``; returns metrics, checks and counts."""
    attempted = failed = 0
    failures: list[str] = []

    def verdict(ok: bool, n: int, what: str) -> None:
        nonlocal attempted, failed
        attempted += n
        if not ok:
            failed += n
            failures.append(what)

    # untraced references: CLI output, Detector counters, and the fastest of
    # three alternating CLI and step passes per arm
    obs = sum(len(v) for v in corpus.values)
    cli_ns = step_ns = 0
    construct_ns: list[int] = []
    references = []
    for i, arm in enumerate(wl.arms):
        argv = worker.cli_argv(arm, wl, corpus.inputs[i], workdir / f"cli-untraced-a{i}.ndjson")
        cfg = worker.config(arm, wl.threshold, wl.no_stop)
        for _ in range(20):
            t0 = time.perf_counter_ns()
            Detector(cfg)
            construct_ns.append(time.perf_counter_ns() - t0)
        best_cli = best_step = None
        for _ in range(3):
            t0 = time.perf_counter_ns()
            worker.call_cli(argv)
            t1 = time.perf_counter_ns()
            best_cli = min(best_cli or t1 - t0, t1 - t0)
            det = Detector(cfg)
            step = det.step
            t0 = time.perf_counter_ns()
            try:
                for x in corpus.values[i]:
                    step(x)
            except StreamCpdError as e:
                verdict(False, 1, f"{arm.label}: Detector.step raised {type(e).__name__}: {e}")
            t1 = time.perf_counter_ns()
            best_step = min(best_step or t1 - t0, t1 - t0)
        cli_ns += best_cli
        step_ns += best_step
        references.append(det)
    bytes_out = sum((workdir / f"cli-untraced-a{i}.ndjson").stat().st_size for i in range(len(wl.arms)))

    tr = Tracer()
    loops = Loops(tr)
    ids = loops.ids
    # tracing costs, measured on a no-op: the part a span's own duration
    # includes, and the whole cost of one traced call to its caller
    noop = tr.nid("trace.noop")
    t0 = time.perf_counter_ns()
    for _ in range(20000):
        tr.call(noop, int)
    noop_call_ns = (time.perf_counter_ns() - t0) / 20000
    cli.Detector = loops.detector_class()
    bench.generate = loops.generate
    bench.stat_running_max = loops.stat_running_max
    bench.first_detection = loops.first_detection
    try:
        for i, arm in enumerate(wl.arms):
            dst = workdir / f"cli-traced-a{i}.ndjson"
            tr.new_request()
            tr.call(ids["cli.main"], worker.call_cli, worker.cli_argv(arm, wl, corpus.inputs[i], dst))
            untraced = (workdir / f"cli-untraced-a{i}.ndjson").read_bytes().splitlines()
            traced = dst.read_bytes().splitlines()
            same = sum(a == b for a, b in zip(untraced, traced))
            differ = max(len(untraced), len(traced), len(corpus.values[i])) - same
            attempted += same
            verdict(differ == 0, differ, f"{arm.label}: traced CLI events differ from the untraced ones")
        for det, ref in zip(loops.detectors, references):
            verdict([s.counters for s in det.states] == [s.counters for s in ref.states], 1,
                    f"{det.config.spec.kind.value}: replica counters differ from Detector.step's")
            loops.driven.append(("check", det.states, det.t))

        rounds = 0
        for i, arm in worker.calibrated_arms(wl):
            _, cal_seed = workloads.arm_seeds(seed, i)
            try:
                res = tr.call(ids["bench.calibrate_threshold"], worker.calibrate, arm, wl, cal_seed)
            except (CalibrationError, StreamCpdError) as e:
                verdict(False, 1, f"{arm.label}: {type(e).__name__}: {e}")
                continue
            rounds += res.rounds
            verdict(0.9 * wl.target_arl <= res.achieved_arl <= 1.1 * wl.target_arl, 1,
                    f"{arm.label}: calibrated ARL {res.achieved_arl} outside the band")
        runs = worker.delay_runs(wl, seed)
        try:
            rows = tr.call(ids["bench.delay_experiment"], delay_experiment, runs, wl.delay_reps)
        except StreamCpdError as e:
            rows = []
            failures.append(f"delay_experiment raised {type(e).__name__}: {e}")
        expected = wl.delay_reps * len(worker.calibrated_arms(wl))
        verdict(len(rows) == expected, max(expected, len(rows)),
                f"delay table has {len(rows)} rows, expected {expected}")
    finally:
        cli.Detector = Detector
        for name, fn in _ORIGINAL.items():
            setattr(bench, name, fn)

    for fname, config, data, got in loops.recorded:
        verdict(_same(got, _ORIGINAL[fname](config, data)), 1,
                f"replica {fname} differs from streamcpd.bench.{fname}")

    cols = tr.columns()
    names = np.array(tr.names)
    np.savez(workdir / "trace.npz", names=names, workload=wl.name, **cols)

    dur = cols["end"] - cols["start"]
    has_parent = cols["parent"] >= 0
    child = np.bincount(cols["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
    self_ns = dur - child
    span_layer = np.array([n.split(".")[0] for n in tr.names])[cols["name"]]

    def durations(name: str) -> np.ndarray:
        return dur[cols["name"] == ids[name]]

    is_step = cols["name"] == ids["detector.step"]
    in_step = np.zeros(len(dur), dtype=bool)
    in_step[has_parent] = cols["name"][cols["parent"][has_parent]] == ids["detector.step"]
    untraced_step_us = step_ns / obs / 1000.0
    span_cost_us = float(np.median(dur[cols["name"] == noop])) / 1000.0
    # Detector.step's own work: the step spans' self time less what tracing
    # its layer calls added outside their spans
    outside_us = noop_call_ns / 1000.0 - span_cost_us
    overhead_us = (float(self_ns[is_step].sum()) / 1000.0 - in_step.sum() * outside_us) / is_step.sum()

    kinds = {"check": [0, 0, 0], "q_full": [0, 0, 0]}  # steps, stored, evaluated
    merges = log_calls = 0
    for kind, states, steps in loops.driven:
        k = kinds[kind]
        k[0] += steps
        for st in states:
            c = st.counters
            k[1] += c.curves_stored_sum
            k[2] += c.curves_evaluated_sum
            merges += c.merges
            log_calls += c.transcendental_calls
    steps = kinds["check"][0] + kinds["q_full"][0]
    stored = kinds["check"][1] + kinds["q_full"][1]
    counts = {
        "steps": steps,
        "stored": stored,
        "merges": merges,
        "evaluated": kinds["check"][2],
        "log_calls": log_calls,
        "q_full_evals": kinds["q_full"][2],
    }

    us, per_step, count = "us", "count/step", "count"
    metrics = {
        "detector.construct_ms": (statistics.median(construct_ns) / 1e6, "ms"),
        "cli.parse_emit_us": (cli_ns / obs / 1000.0 - untraced_step_us, us),
        "cli.bytes_out_per_obs": (bytes_out / obs, "bytes"),
        "families.suff_us": (_mean_us(durations("families.suff")), us),
        "pruning.update_us": (_mean_us(durations("pruning.update")), us),
        "pruning.q_full_us": (_mean_us(durations("pruning.q_full")), us),
        "maxima.attach_bounds_us": (_mean_us(durations("maxima.attach_bounds")), us),
        "maxima.check_us": (_mean_us(durations("maxima.check")), us),
        "detector.overhead_us": (overhead_us, us),
        "simulate.generate_us": (_mean_us(durations("simulate.generate")), us),
        "simulate.obs_generated": (loops.generated, count),
        "bench.calibration_rounds": (rounds, count),
        "pruning.stored_per_step": (stored / steps, per_step),
        "pruning.merges_per_step": (merges / steps, per_step),
        "families.log_calls_per_step": (log_calls / steps, per_step),
        "maxima.evaluated_per_step": (kinds["check"][2] / kinds["check"][0], per_step),
        "maxima.eval_frac": (kinds["check"][2] / kinds["check"][1], "frac"),
        "pruning.q_full_evals_per_step": (kinds["q_full"][2] / kinds["q_full"][0], per_step),
        "trace.step_us_traced": (_mean_us(dur[is_step]), us),
        "trace.step_us_untraced": (untraced_step_us, us),
        "trace.overhead_ratio": (_mean_us(dur[is_step]) / untraced_step_us, "ratio"),
        "trace.span_cost_us": (span_cost_us, us),
        "trace.spans": (len(dur), count),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (float(self_ns[span_layer == layer].sum()) / 1e9, "s")
    for name, value in counts.items():
        metrics[f"count.{name}"] = (value, count)
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "counts": counts,
    }
