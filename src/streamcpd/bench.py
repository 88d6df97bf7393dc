"""Monte Carlo threshold calibration, run-length and delay experiments.

Replicate seeds are derived deterministically from the experiment seed, so
every result here is bit-reproducible.  Censoring is always explicit: a run
that never detects within its stream reports None and enters averages at the
censoring length (a downward-biased, conservative convention, noted in the
output metadata).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .counters import CounterSet
from .detector import Detector, DetectorConfig, step_states
from .errors import CalibrationError
from .families import FamilySpec
from .pruning import q_full, update
from .simulate import Scenario, generate


def _child_seed(seed: int, rep: int) -> int:
    return (seed << 20) + rep


def first_detection(config: DetectorConfig, data: np.ndarray) -> int | None:
    """First time (1-based) the detector fires on ``data``, or None."""
    spec = config.spec
    g_arr = spec.suff_arr(np.asarray(data, dtype=float))
    states = Detector(config).states
    for i in range(len(g_arr)):
        if step_states(states, spec, g_arr[i], config.threshold)[0] is not None:
            return i + 1
    return None


def run_length(config: DetectorConfig, scenario: Scenario) -> int | None:
    """Null run length: first detection time or None when censored at length."""
    return first_detection(config, generate(scenario))


def stat_running_max(config: DetectorConfig, data: np.ndarray) -> np.ndarray:
    """Running maximum of the doubled statistic after each step.

    The detector fires at the first step where this path reaches the
    threshold, so one pass prices every threshold at once.
    """
    spec = config.spec
    g_arr = spec.suff_arr(np.asarray(data, dtype=float))
    states = Detector(config).states
    out = np.empty(len(g_arr))
    run = 0.0
    for i in range(len(g_arr)):
        gi = g_arr[i]
        v = 0.0
        for st in states:
            update(st, gi)
            v = max(v, 2.0 * q_full(st, spec)[0])
        if v > run:
            run = v
        out[i] = run
    return out


@dataclass(frozen=True)
class CalibrationResult:
    threshold: float
    achieved_arl: float
    target_arl: int
    reps: int
    rounds: int
    censor_at: int
    history: tuple[tuple[float, float], ...]


def calibrate_threshold(
    config: DetectorConfig,
    target_arl: int,
    reps: int,
    seed: int,
    null_theta: float | None = None,
    null_spec: FamilySpec | None = None,
    square_data: bool = False,
) -> CalibrationResult:
    """Bisection on the threshold until the ARL estimate is within 10% of target.

    Simulates ``reps`` null streams of length 3 * target_arl (common random
    numbers across candidate thresholds), estimates the ARL as the mean of
    possibly-censored run lengths, and stops inside [0.9, 1.1] * target or
    after 30 rounds.  ``null_theta`` sets the simulation parameter when the
    detector's pre-change parameter is unknown; it defaults to theta0.
    ``null_spec``/``square_data`` let the null data come from a different
    family than the detector analyses (e.g. a mean model fed squared
    Gaussian data).
    """
    if target_arl < 100:
        raise ValueError("target_arl must be at least 100")
    if reps < 50:
        raise ValueError("reps must be at least 50")
    theta_sim = null_theta if null_theta is not None else config.theta0
    if theta_sim is None:
        raise ValueError("null_theta is required when the pre-change parameter is unknown")
    spec_sim = null_spec if null_spec is not None else config.spec
    length = 3 * target_arl
    # the config threshold is irrelevant here; the statistic paths price all
    # thresholds simultaneously
    paths = []
    for r in range(reps):
        scen = Scenario(spec_sim, theta_sim, theta_sim, 0, length, _child_seed(seed, r))
        stream = generate(scen)
        if square_data:
            stream = stream * stream
        paths.append(stat_running_max(config, stream))

    def arl_hat(thr: float) -> float:
        total = 0
        for p in paths:
            idx = int(np.searchsorted(p, thr, side="left"))
            total += idx + 1 if idx < len(p) else length
        return total / reps

    lo = hi = None  # lo: below band, hi: above band
    thr = 4.0 * np.log(max(target_arl, 100))
    history = []
    for rounds in range(1, 31):
        a = arl_hat(thr)
        history.append((thr, a))
        if 0.9 * target_arl <= a <= 1.1 * target_arl:
            return CalibrationResult(
                threshold=thr,
                achieved_arl=a,
                target_arl=target_arl,
                reps=reps,
                rounds=rounds,
                censor_at=length,
                history=tuple(history),
            )
        if a < target_arl:
            lo = thr
            thr = thr * 2.0 if hi is None else 0.5 * (thr + hi)
        else:
            hi = thr
            thr = thr * 0.5 if lo is None else 0.5 * (lo + thr)
    raise CalibrationError(
        f"calibration did not converge in 30 rounds (target {target_arl})",
        lo=lo if lo is not None else float("nan"),
        hi=hi if hi is not None else float("nan"),
    )


# ------------------------------------------------------------------
# Detection-delay experiment
# ------------------------------------------------------------------


@dataclass(frozen=True)
class DelayRun:
    """One (model, scenario) arm of a delay study.

    ``square_data`` feeds the squared stream to the detector, for comparing a
    mean model on x^2 against a variance model on x over identical data.
    """

    label: str
    config: DetectorConfig
    scenario: Scenario
    square_data: bool = False


@dataclass(frozen=True)
class DelayRow:
    label: str
    rep: int
    outcome: str  # "detected" | "false_positive" | "censored"
    detect_time: int | None
    delay: int | None


def delay_experiment(runs: list[DelayRun], reps: int) -> list[DelayRow]:
    """Per-replicate detection delays; detections before the change are
    recorded as false positives, runs without detection as censored.

    Replicates of different runs share seeds, so two models of the same
    scenario see identical data (paired comparison).
    """
    rows: list[DelayRow] = []
    for run in runs:
        for rep in range(reps):
            scen = replace(run.scenario, seed=_child_seed(run.scenario.seed, rep))
            stream = generate(scen)
            if run.square_data:
                stream = stream * stream
            t = first_detection(run.config, stream)
            if t is None:
                rows.append(DelayRow(run.label, rep, "censored", None, None))
            elif t <= scen.change_at:
                rows.append(DelayRow(run.label, rep, "false_positive", t, None))
            else:
                rows.append(DelayRow(run.label, rep, "detected", t, t - scen.change_at))
    return rows


def mean_delay(rows: list[DelayRow], label: str, censor_value: int | None = None) -> float:
    """Mean detection delay for one arm; censored reps enter at censor_value
    when given, otherwise they are skipped.  False positives never count."""
    vals = []
    for r in rows:
        if r.label != label:
            continue
        if r.outcome == "detected":
            vals.append(r.delay)
        elif r.outcome == "censored" and censor_value is not None:
            vals.append(censor_value)
    if not vals:
        raise ValueError(f"no post-change detections for {label!r}")
    return sum(vals) / len(vals)


# ------------------------------------------------------------------
# Per-step counter profiles
# ------------------------------------------------------------------


@dataclass(frozen=True)
class CounterProfile:
    stored: np.ndarray
    evaluated: np.ndarray
    merges: np.ndarray
    transcendental: np.ndarray
    detections: tuple[int, ...]
    counters: tuple[CounterSet, ...]


def counter_profile(config: DetectorConfig, scenario: Scenario, mode: str = "adaptive") -> CounterProfile:
    """Per-step stored/evaluated/merge/log counters over one stream.

    ``mode="adaptive"`` uses the maxima check; ``mode="full"`` maximises over
    every retained curve each step.  Counts are summed across directions;
    detections never stop the run.
    """
    if mode not in ("adaptive", "full"):
        raise ValueError("mode must be 'adaptive' or 'full'")
    spec = config.spec
    g_arr = spec.suff_arr(generate(scenario))
    states = Detector(config).states
    n = len(g_arr)
    stored = np.zeros(n, dtype=np.int64)
    evaluated = np.zeros(n, dtype=np.int64)
    merges = np.zeros(n, dtype=np.int64)
    transcend = np.zeros(n, dtype=np.int64)
    detections: list[int] = []
    thr = config.threshold if mode == "adaptive" else None
    known = config.theta0 is not None
    for i in range(n):
        m0 = sum(st.counters.merges for st in states)
        e0 = sum(st.counters.curves_evaluated_sum for st in states)
        t0 = sum(st.counters.transcendental_calls for st in states)
        hit = step_states(states, spec, g_arr[i], thr)[0] is not None
        if thr is None and (known or i >= 1):
            # a list, not a generator: every direction is evaluated
            hit = any([2.0 * q_full(st, spec)[0] >= config.threshold for st in states])
        if hit:
            detections.append(i + 1)
        stored[i] = sum(len(st.records) for st in states)
        evaluated[i] = sum(st.counters.curves_evaluated_sum for st in states) - e0
        merges[i] = sum(st.counters.merges for st in states) - m0
        transcend[i] = sum(st.counters.transcendental_calls for st in states) - t0
    return CounterProfile(
        stored=stored,
        evaluated=evaluated,
        merges=merges,
        transcendental=transcend,
        detections=tuple(detections),
        counters=tuple(st.counters for st in states),
    )


# ------------------------------------------------------------------
# CSV output (plot-ready; floats carry 17 significant digits)
# ------------------------------------------------------------------


def write_counter_csv(profile: CounterProfile, fh) -> None:
    w = csv.writer(fh)
    w.writerow(["t", "curves_stored", "curves_evaluated", "merges", "transcendental_calls"])
    for i in range(len(profile.stored)):
        w.writerow(
            [i + 1, profile.stored[i], profile.evaluated[i], profile.merges[i], profile.transcendental[i]]
        )


def write_delay_csv(rows: list[DelayRow], fh) -> None:
    w = csv.writer(fh)
    w.writerow(["label", "rep", "outcome", "detect_time", "delay"])
    for r in rows:
        w.writerow(
            [r.label, r.rep, r.outcome, "" if r.detect_time is None else r.detect_time, "" if r.delay is None else r.delay]
        )
