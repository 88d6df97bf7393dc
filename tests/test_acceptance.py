"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one [A#] PASS/FAIL line (run with -s to see them on
success).  Per-step criteria count violations and report the first one.
"""

import time

import numpy as np
import pytest

from oracle import naive_q_path
from streamcpd import (
    DelayRun,
    Detector,
    DetectorConfig,
    Direction,
    FamilySpec,
    Scenario,
    calibrate_threshold,
    counter_profile,
    delay_experiment,
    generate,
    mean_delay,
    new_state,
    q_full,
    update,
)
from streamcpd.bench import first_detection
from streamcpd.maxima import attach_bounds, check
from streamcpd.pruning import curve_m

GM = FamilySpec.gauss_mean()
GV = FamilySpec.gauss_var()
PO = FamilySpec.poisson()


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion}: {detail}"


# ------------------------------------------------------------------
# A1 — pruned statistic equals the exhaustive statistic, every step,
#      and stopping times agree under a mid-range threshold
# ------------------------------------------------------------------

A1_FAMILIES = [
    (GM, 0.0, 0.6),
    (GV, 1.0, 1.8),
    (PO, 1.0, 1.6),
    (FamilySpec.binomial(5), 0.4, 0.55),
    (FamilySpec.gamma(2.0), 1.0, 1.5),
]


def test_a1_oracle_equivalence_and_stopping_times():
    t_start = time.time()
    streams = 0
    worst_rel = 0.0
    stop_mismatches = 0
    merge_violations = 0
    seed = 0
    for spec, theta_pre, theta_post in A1_FAMILIES:
        for theta0 in (theta_pre, None):
            for direction in (Direction.UP, Direction.DOWN):
                dir_name = "up" if direction is Direction.UP else "down"
                for rep in range(20):
                    seed += 1
                    data = generate(Scenario(spec, theta_pre, theta_post, 500, 1000, seed))
                    qs, _ = naive_q_path(spec, theta0, direction, data)
                    state = new_state(direction, theta0, spec)
                    # Python floats, not numpy scalars: the same values, at
                    # about 0.7x the cost per step
                    pruned = np.empty(len(data))
                    for t, g in enumerate(spec.suff_arr(data).tolist()):
                        update(state, g)
                        pruned[t] = q_full(state, spec)[0]
                    rel = np.max(np.abs(2 * pruned - 2 * qs) / np.maximum(1.0, np.abs(2 * qs)))
                    worst_rel = max(worst_rel, float(rel))
                    if state.counters.merges > 2 * state.total_count:
                        merge_violations += 1
                    # stopping time at a mid-range threshold
                    peak = float(np.max(2 * qs))
                    thr = 0.5 * peak if peak > 0 else 1.0
                    crossed = np.nonzero(2 * qs >= thr)[0]
                    oracle_stop = int(crossed[0]) + 1 if len(crossed) else None
                    det = Detector(DetectorConfig(spec, theta0, thr, dir_name))
                    stop = None
                    for t, x in enumerate(data.tolist()):
                        if det.step(x).detection is not None:
                            stop = t + 1
                            break
                    if stop != oracle_stop:
                        stop_mismatches += 1
                    streams += 1
    ok = worst_rel <= 1e-9 and stop_mismatches == 0 and merge_violations == 0
    report("A1", ok,
           f"{streams} streams x 1000 steps; worst rel err {worst_rel:.2e}; "
           f"{stop_mismatches} stopping-time mismatches; "
           f"{merge_violations} merge-budget violations; {time.time()-t_start:.0f}s")


# ------------------------------------------------------------------
# A2 — identical pruning across families sharing g(x) = x
# ------------------------------------------------------------------


def test_a2_cross_family_pruning_identity():
    data = generate(Scenario(PO, 1.0, 1.0, 0, 500, seed=2024))
    specs = [GM, PO, FamilySpec.gamma(1.0), FamilySpec.binomial(50)]
    # driven at the pruning layer with the shared g values: the gamma
    # family's per-observation support check would reject the zeros a
    # Poisson(1) stream contains, but pruning only ever sees sums
    states = [new_state(Direction.UP, None, sp) for sp in specs]
    mismatches = 0
    for x in data:
        base = None
        for st in states:
            update(st, float(x))
            taus = [tau for tau, *_ in st.records]
            if base is None:
                base = taus
            elif taus != base:
                mismatches += 1
    for st in states:
        assert st.counters.merges <= 2 * st.total_count
    report("A2", mismatches == 0,
           f"4 families, 500 steps, {mismatches} retained-set mismatches (exact equality)")


# ------------------------------------------------------------------
# A3 — variance model on x prunes exactly like the mean model on x^2
# ------------------------------------------------------------------


def test_a3_variance_equals_mean_on_squares():
    data = generate(Scenario(GV, 1.0, 1.0, 0, 500, seed=303))
    mismatches = 0
    for direction in (Direction.UP, Direction.DOWN):
        st_var = new_state(direction, 1.0, GV)   # null mean of x^2 is 1
        st_mean = new_state(direction, 1.0, GM)  # matched boundary
        for x in data:
            update(st_var, GV.suff(float(x)))
            update(st_mean, GM.suff(float(x) * float(x)))
            if [tau for tau, *_ in st_var.records] != [tau for tau, *_ in st_mean.records]:
                mismatches += 1
    report("A3", mismatches == 0,
           f"500 steps, both directions, {mismatches} retained-set mismatches (exact equality)")


# ------------------------------------------------------------------
# A4 — amortized pruning: cumulative merges never exceed 2T
# ------------------------------------------------------------------


def test_a4_merge_budget_on_many_streams():
    rng_seeds = range(40)
    violations = 0
    for sd in rng_seeds:
        spec, theta_pre, theta_post = A1_FAMILIES[sd % len(A1_FAMILIES)]
        data = generate(Scenario(spec, theta_pre, theta_post, 250, 500, 9000 + sd))
        for theta0 in (theta_pre, None):
            st = new_state(Direction.UP if sd % 2 else Direction.DOWN, theta0, spec)
            for g in spec.suff_arr(data):
                update(st, g)
                if st.counters.merges > 2 * st.total_count:
                    violations += 1
    report("A4", violations == 0, f"80 streams, {violations} budget violations (merges <= 2T, exact)")


# ------------------------------------------------------------------
# A5 — prefix bound dominates, and the check never changes the decision
# ------------------------------------------------------------------

A5_CASES = [
    (GM, 0.0, Direction.UP, 0.0, 0.5),
    (GM, None, Direction.UP, 0.0, 0.5),
    (PO, 1.0, Direction.UP, 1.0, 1.5),
    (PO, None, Direction.DOWN, 1.5, 0.9),
    (FamilySpec.gamma(1.5), 1.0, Direction.UP, 1.0, 1.4),
    (FamilySpec.binomial(3), None, Direction.UP, 0.4, 0.55),
]


def test_a5_bound_and_decision_agreement():
    bound_violations = 0
    decision_mismatches = 0
    steps = 0
    for i, (spec, theta0, direction, th_pre, th_post) in enumerate(A5_CASES):
        data = generate(Scenario(spec, th_pre, th_post, 500, 1000, 555 + i))
        state = new_state(direction, theta0, spec)
        for g in spec.suff_arr(data):
            update(state, g)
            attach_bounds(state, spec)
            steps += 1
            T, St = state.total_count, state.total_sum
            ms = [curve_m(state, spec, tau, cs, T, St) for tau, cs, *_ in state.records]
            prefix_max = 0.0
            for m, (*_, m_bound) in zip(ms, state.records):
                prefix_max = max(prefix_max, m)
                if 2.0 * (m + m_bound) < 2.0 * prefix_max:
                    bound_violations += 1
            q = max(ms) if ms else 0.0
            for thr in (1.0, 6.0, 20.0):
                out = check(state, spec, thr)
                if out.changed != (2.0 * q >= thr):
                    decision_mismatches += 1
    ok = bound_violations == 0 and decision_mismatches == 0
    report("A5", ok,
           f"{steps} steps x 3 thresholds: {bound_violations} bound violations, "
           f"{decision_mismatches} decision mismatches (exact)")


# ------------------------------------------------------------------
# A6 — adaptive-check efficiency on a long Bernoulli null stream
# ------------------------------------------------------------------


def test_a6_adaptive_check_efficiency():
    t_start = time.time()
    fam = FamilySpec.binomial(1)
    cfg = DetectorConfig(fam, None, 30.0, "up", stop_on_detect=False)
    stored_means = []
    eval_means = []
    for sd in range(20):
        prof = counter_profile(cfg, Scenario(fam, 0.5, 0.5, 0, 100_000, 7000 + sd))
        stored_means.append(float(prof.curves_stored_sum.mean()))
        eval_means.append(float(prof.curves_evaluated_sum.mean()))
    stored = float(np.mean(stored_means))
    evals = float(np.mean(eval_means))
    # the adaptive check must also never evaluate more than full maximisation
    scen = Scenario(fam, 0.5, 0.5, 0, 10_000, 8999)
    adaptive = counter_profile(cfg, scen, mode="adaptive")
    full = counter_profile(cfg, scen, mode="full")
    dominated = bool(np.all(adaptive.curves_evaluated_sum <= full.curves_evaluated_sum))
    strictly_fewer = int(adaptive.curves_evaluated_sum.sum()) < int(full.curves_evaluated_sum.sum())
    ok = evals <= 1.5 and 6.0 <= stored <= 18.0 and dominated and strictly_fewer
    report("A6", ok,
           f"Bernoulli(0.5) null, T=100000, 20 seeds: mean evaluated/step {evals:.3f} (<= 1.5), "
           f"mean stored/step {stored:.2f} (in [6, 18]); adaptive <= full everywhere: {dominated}, "
           f"strictly fewer in total: {strictly_fewer}; {time.time()-t_start:.0f}s")


# ------------------------------------------------------------------
# A7 — correct-model advantage in the change-in-variance study
# ------------------------------------------------------------------


@pytest.mark.slow
def test_a7_variance_study_delay_ordering():
    t_start = time.time()
    target = 10_000
    cal_var = calibrate_threshold(DetectorConfig(GV, 1.0, 1.0, "up"), target, reps=100, seed=21)
    cal_sq = calibrate_threshold(
        DetectorConfig(GM, 1.0, 1.0, "up"), target, reps=100, seed=22,
        null_spec=GV, square_data=True,
    )
    results = {}
    for theta1 in (1.25, 1.5):
        scen = Scenario(GV, 1.0, theta1, 1000, 9000, seed=77)
        runs = [
            DelayRun("var", DetectorConfig(GV, 1.0, cal_var.threshold, "up"), scen),
            DelayRun("sq", DetectorConfig(GM, 1.0, cal_sq.threshold, "up"), scen, square_data=True),
        ]
        rows = delay_experiment(runs, reps=100)
        censor = scen.length - scen.change_at
        results[theta1] = (mean_delay(rows, "var", censor), mean_delay(rows, "sq", censor))
    ok = results[1.25][0] < results[1.25][1]
    report("A7", ok,
           f"ARL target {target} (thr var={cal_var.threshold:.2f}, squares={cal_sq.threshold:.2f}); "
           f"mean delay at theta1=1.25: variance {results[1.25][0]:.0f} < mean-on-squares "
           f"{results[1.25][1]:.0f} (strict); at theta1=1.5: {results[1.5][0]:.0f} vs "
           f"{results[1.5][1]:.0f}; {time.time()-t_start:.0f}s")


# ------------------------------------------------------------------
# A8 — calibration hits the target ARL within 20% on independent seeds
# ------------------------------------------------------------------


@pytest.mark.slow
def test_a8_arl_calibration_independent_estimate():
    t_start = time.time()
    target = 10_000
    details = []
    ok = True
    cases = [
        ("gauss-mean known", DetectorConfig(GM, 0.0, 1.0, "up"), None, 7, 999_983),
        ("poisson unknown", DetectorConfig(PO, None, 1.0, "up"), 1.0, 11, 424_242),
    ]
    for label, cfg, null_theta, cal_seed, ver_seed in cases:
        cal = calibrate_threshold(cfg, target, reps=100, seed=cal_seed, null_theta=null_theta)
        cfg_run = DetectorConfig(cfg.spec, cfg.theta0, cal.threshold, cfg.direction)
        theta_sim = null_theta if null_theta is not None else cfg.theta0
        total = 0
        reps = 150
        for r in range(reps):
            scen = Scenario(cfg.spec, theta_sim, theta_sim, 0, 3 * target, (ver_seed << 20) + r)
            rl = first_detection(cfg_run, generate(scen))
            total += rl if rl is not None else 3 * target
        est = total / reps
        inside = 0.8 * target <= est <= 1.2 * target
        ok = ok and inside
        details.append(f"{label}: thr={cal.threshold:.2f}, independent ARL {est:.0f} "
                       f"({est / target:.2f}x target)")
    report("A8", ok, "; ".join(details) + f"; {time.time()-t_start:.0f}s")


# ------------------------------------------------------------------
# A9 — closed-form cumulative-sum identity for the known-mean Gaussian
# ------------------------------------------------------------------


def test_a9_cusum_closed_form_identity():
    violations = 0
    worst = 0.0
    for sd in range(10):
        data = generate(Scenario(GM, 0.05, 0.05, 0, 2000, 1200 + sd))
        det = Detector(DetectorConfig(GM, 0.0, 1e9, "up"))
        P = np.concatenate([[0.0], np.cumsum(data)])
        for t, x in enumerate(data, start=1):
            det.step(x)
            S = P[t] - P[:t]
            n = t - np.arange(t)
            want = float(np.max(np.maximum(S, 0.0) ** 2 / n))
            got = det.statistic()
            err = abs(got - want) / max(1.0, abs(want))
            worst = max(worst, err)
            if err > 1e-9:
                violations += 1
    report("A9", violations == 0,
           f"10 streams x 2000 steps, worst rel err {worst:.2e} (tol 1e-9)")
