"""Run lengths, calibration, delay experiments and counter profiles."""

import io
import tracemalloc

import numpy as np
import pytest

from oracle import scalar_running_max
from streamcpd import bench, families
from streamcpd import (
    DegenerateSegmentError,
    DelayRun,
    Detector,
    DetectorConfig,
    FamilySpec,
    Scenario,
    SupportError,
    calibrate_threshold,
    counter_profile,
    delay_experiment,
    generate,
    mean_delay,
    update,
)
from streamcpd.bench import (
    _BLOCK,
    _first_detections,
    first_detection,
    stat_running_max,
    write_counter_csv,
    write_delay_csv,
)
from streamcpd.counters import CounterSet

GM = FamilySpec.gauss_mean()
GV = FamilySpec.gauss_var()
PO = FamilySpec.poisson()


# (spec, theta_pre, theta_post) per family; binomial with one and three trials
LANE_FAMILIES = [
    (GM, 0.0, 1.0),
    (GV, 1.0, 2.0),
    (PO, 2.0, 3.5),
    (FamilySpec.binomial(1), 0.3, 0.6),
    (FamilySpec.binomial(3), 0.4, 0.2),
    (FamilySpec.gamma(2.0), 1.0, 1.7),
]
LANE_IDS = ["gauss-mean", "gauss-var", "poisson", "binomial1", "binomial3", "gamma"]


def overflow_streams(spec):
    """Streams with values whose conjugates overflow, and the theta0 to run
    them at: gauss-mean's g * g / 2 at 3e154 and beyond, whose statistics
    are inf and, with theta0 unknown, inf - inf = NaN, with prefix sums that
    a later value cancels; and Poisson's g log g at 1e308, where with theta0
    unknown the vector pass prices pairs at NaN with a bound and redoes them
    exactly."""
    pre, post = (0.0, 1.0) if spec is GM else (2.0, 3.5)
    base = generate(Scenario(spec, pre, post, 150, 300, seed=350))
    values = (((1e200,), (-1e200,), (3e154,), (1e200, -1e200), (3e154, 5.0, -3e154)) if spec is GM
              else ((1e308,),))
    streams = []
    for vals in values:
        s = base.copy()
        s[120:120 + len(vals)] = vals
        streams.append(s)
    return (pre, 5.0, None) if spec is GM else (pre, None), streams


# gauss-mean streams whose prefix sums overflow: segment means are inf or
# inf - inf = NaN, and a comparison with a NaN mean merges
NAN_STREAMS = [
    [0.0, 1e308, 1e308, 0.0, 1.0, -1e308, 2.0, 3.0],
    [1e308, -1e308, 1e308, 1e308, -1.0, 0.5, -1e308, 2.0, -3.0],
]


def test_run_length_censored_at_huge_threshold():
    cfg = DetectorConfig(GM, 0.0, 1e12, "both")
    assert first_detection(cfg, generate(Scenario(GM, 0.0, 0.0, 0, 200, seed=1))) is None


def test_run_length_tiny_threshold_fires_immediately():
    cfg = DetectorConfig(GM, 0.0, 1e-12, "both")
    rl = first_detection(cfg, generate(Scenario(GM, 0.0, 0.0, 0, 200, seed=1)))
    assert rl == 1


def test_first_detection_matches_running_max_crossing():
    rng = np.random.default_rng(5)
    data = rng.normal(0.1, 1.0, 400)
    for thr in (3.0, 8.0, 15.0):
        cfg = DetectorConfig(GM, 0.0, thr, "both")
        path = stat_running_max(cfg, data)
        crossed = np.nonzero(path >= thr)[0]
        want = int(crossed[0]) + 1 if len(crossed) else None
        assert first_detection(cfg, data) == want


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the overflow streams warn nothing
@pytest.mark.parametrize("family", range(len(LANE_FAMILIES)), ids=LANE_IDS)
def test_running_max_equals_scalar_reference(family, monkeypatch):
    spec, pre, post = LANE_FAMILIES[family]
    streams = []
    # three blocks of the vector pass, and one
    for length in (2 * _BLOCK + 37, 300):
        for change in (0, length // 2):
            streams.append(generate(Scenario(spec, pre, post, change, length, seed=300 + family + change)))
    streams += [streams[1][:k] for k in (0, 1, 2, 3)]
    for known in (True, False):
        for direction in ("up", "down", "both"):
            cfg = DetectorConfig(spec, pre if known else None, 1.0, direction)
            for s in streams:
                want = scalar_running_max(cfg, s)
                # blocks of 7 steps put many candidates across block edges
                for block in (_BLOCK, 7):
                    monkeypatch.setattr(bench, "_BLOCK", block)
                    got = stat_running_max(cfg, s)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if spec in (GM, PO):
        theta0s, streams = overflow_streams(spec)
        for theta0 in theta0s:
            for direction in ("up", "down", "both"):
                cfg = DetectorConfig(spec, theta0, 1.0, direction)
                for s in streams:
                    want = scalar_running_max(cfg, s)
                    for block in (_BLOCK, 7):
                        monkeypatch.setattr(bench, "_BLOCK", block)
                        assert stat_running_max(cfg, s).tobytes() == want.tobytes()
    if spec is PO:
        # acceptance test A8's setup: a long null stream with theta0 unknown,
        # where n A(g) is large and the conjugates' bounds are widest
        s = generate(Scenario(PO, 1.0, 1.0, 0, 10_000, seed=311))
        cfg = DetectorConfig(PO, None, 1.0, "up")
        want = scalar_running_max(cfg, s)
        for block in (_BLOCK, 7):
            monkeypatch.setattr(bench, "_BLOCK", block)
            got = stat_running_max(cfg, s)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_a_zero_log_gap_is_seen(monkeypatch):
    # with the log gap taken as 0 every bound is 0 and the priced values are
    # trusted as exact, which they are not: the byte-equality checks must
    # see it.  These streams (binomial(1), theta0 known, and gamma(2),
    # theta0 unknown) have steps where numpy's log moves the path's maximum
    paths = lanes = 0
    for spec, pre, post, known in ((FamilySpec.binomial(1), 0.3, 0.6, True),
                                   (FamilySpec.gamma(2.0), 1.0, 1.7, False)):
        s = generate(Scenario(spec, pre, post, 150, 300, seed=900))
        theta0 = pre if known else None
        cfg = DetectorConfig(spec, theta0, 1.0, "up")
        want = scalar_running_max(cfg, s)
        assert stat_running_max(cfg, s).tobytes() == want.tobytes()
        with monkeypatch.context() as m:
            m.setattr(families, "LOG_ULP_GAP", 0)
            got = stat_running_max(cfg, s)
        if got.tobytes() == want.tobytes():
            continue
        paths += 1
        # a threshold at the larger of the two paths' values where they
        # first part: one crosses it there and the other does not, so the
        # scalar detector and the unbounded lanes fire at different steps
        i = int(np.flatnonzero(got != want)[0])
        cfg = DetectorConfig(spec, theta0, max(got[i], want[i]), "up")
        scalar = first_detection(cfg, s)
        assert _first_detections(cfg, [s]) == [scalar]
        with monkeypatch.context() as m:
            m.setattr(families, "LOG_ULP_GAP", 0)
            lanes += _first_detections(cfg, [s]) != [scalar]
    assert paths >= 1 and lanes >= 1


@pytest.mark.parametrize("block", [_BLOCK, 7, 1])
def test_block_pairs_are_the_stored_candidates(block, monkeypatch):
    monkeypatch.setattr(bench, "_BLOCK", block)
    g = generate(Scenario(GM, 0.0, 1.0, 400, 2 * _BLOCK + 37, seed=11)).tolist()
    for theta0 in (0.0, None):
        cfg = DetectorConfig(GM, theta0, 1.0, "both")
        pops, want = [], set()
        for row, (st, ref) in enumerate(zip(Detector(cfg).states, Detector(cfg).states)):
            stored = set()
            for T, gi in enumerate(g, 1):
                update(ref, gi)
                stored.update((tau, T) for tau, *_ in ref.records)
            pop = bench._pop_steps(st, g)
            for first_tau in (0, 1):
                got = [(a, b) for _, _, _, tau, T in bench._block_pairs(pop[None], first_tau)
                       for a, b in zip(tau.tolist(), T.tolist())]
                assert len(got) == len(set(got))
                assert set(got) == {(a, b) for a, b in stored if a >= first_tau}
            pops.append(pop)
            want.update((row, a, b) for a, b in stored)
        # both directions as two rows: blocks of half the steps
        for first_tau in (0, 1):
            got, edges = [], []
            for lo, hi, row, tau, T in bench._block_pairs(np.array(pops), first_tau):
                assert ((lo <= T) & (T < hi)).all()
                edges.append((lo, hi))
                got += zip(row.tolist(), tau.tolist(), T.tolist())
            assert len(got) == len(set(got))
            assert set(got) == {(r, a, b) for r, a, b in want if a >= first_tau}
            step = max(1, block // 2)
            assert edges == [(lo, min(lo + step, len(g) + 1)) for lo in range(1, len(g) + 1, step)]


@pytest.mark.parametrize("family", range(len(LANE_FAMILIES)), ids=LANE_IDS)
def test_pop_steps_are_those_of_update(family):
    spec, pre, post = LANE_FAMILIES[family]
    streams = []
    for length in (2 * _BLOCK + 37, 300):
        for change in (0, length // 2):
            data = generate(Scenario(spec, pre, post, change, length, seed=500 + family + change))
            streams.append(spec.suff_arr(data).tolist())
    streams += [streams[1][:k] for k in (0, 1, 2, 3)]
    if spec is GM:
        streams += NAN_STREAMS
    longest_cascade = barriers = 0
    for known in (True, False):
        for direction in ("up", "down", "both"):
            cfg = DetectorConfig(spec, pre if known else None, 1.0, direction)
            for g in streams:
                for st, ref in zip(Detector(cfg).states, Detector(cfg).states):
                    # the step at which each candidate leaves update's records
                    want = [len(g) + 1] * len(g)
                    stored = set()
                    for T, gi in enumerate(g, 1):
                        update(ref, gi)
                        now = {tau for tau, *_ in ref.records}
                        gone = (stored | {T - 1}) - now
                        for tau in gone:
                            want[tau] = T
                        longest_cascade = max(longest_cascade, len(gone))
                        barriers += known and not now
                        stored = now
                    before = np.array(g).tobytes()
                    got = bench._pop_steps(st, g)
                    # a down row reads -g from a copy: g, the next row's
                    # input, keeps every bit, signs of zero included
                    assert np.array(g).tobytes() == before
                    assert got.dtype == np.int64 and got.tolist() == want
                    assert np.array_equal(bench._pop_steps(st, g), got)
                    assert st.records == [] and st.counters == CounterSet()
                    assert (st.total_count, st.total_sum) == (0, 0.0)
    assert longest_cascade >= 3 and barriers > 0


@pytest.mark.parametrize("theta0", [0.0, None], ids=["known", "unknown"])
@pytest.mark.parametrize("direction", ["up", "down"])
def test_pop_steps_merge_on_nan_comparisons(theta0, direction):
    # the pops recorded before the comparisons read cached means; a cascade
    # that kept a candidate on a NaN comparison would differ here
    want = {
        (0.0, "up"): ([1, 9, 9, 4, 5, 6, 7, 8], [2, 2, 10, 10, 5, 6, 7, 8, 9]),
        (0.0, "down"): ([1, 2, 3, 9, 5, 6, 7, 8], [1, 3, 3, 4, 10, 6, 7, 8, 9]),
        (None, "up"): ([9, 9, 9, 4, 5, 6, 7, 8], [10, 2, 10, 10, 5, 6, 7, 8, 9]),
        (None, "down"): ([9, 2, 3, 4, 5, 6, 7, 8], [10, 4, 3, 4, 5, 6, 7, 8, 9]),
    }[theta0, direction]
    st = Detector(DetectorConfig(GM, theta0, 1.0, direction)).states[0]
    assert [bench._pop_steps(st, g).tolist() for g in NAN_STREAMS] == list(want)


def test_pop_steps_barrier_at_an_infinite_null_mean():
    # gamma(2) at theta0 = 1e308 has g0 = 2 theta0 = inf.  Once the prefix
    # sum overflows, a segment mean inf is not at or behind g0 in
    # `_absorb`'s barrier (inf - inf is NaN), so the candidate stays; the
    # shorter test inf <= g0 would drop it in both directions
    cfg = DetectorConfig(FamilySpec.gamma(2.0), 1e308, 1.0, "both")
    g = [1.0, 1e308, 1e308, 1e308, 1.0]
    want = []
    for ref in Detector(cfg).states:
        pops, stored = [len(g) + 1] * len(g), set()
        for T, gi in enumerate(g, 1):
            update(ref, gi)
            now = {tau for tau, *_ in ref.records}
            for tau in (stored | {T - 1}) - now:
                pops[tau] = T
            stored = now
        want.append(pops)
    assert want == [[1, 2, 6, 4, 5], [6, 2, 3, 4, 5]]
    assert [bench._pop_steps(st, g).tolist() for st in Detector(cfg).states] == want


def test_running_max_raises_on_a_degenerate_segment_like_scalar():
    # x^2 = 1e20 then 1e-20: the prefix-sum difference of the second step
    # cancels to 0.0, a degenerate gauss-var segment mean
    cfg = DetectorConfig(GV, None, 20.0, "both")
    bad = np.array([1e10, 1e-10, 1.0, 2.0])
    for fn in (scalar_running_max, stat_running_max):
        with pytest.raises(DegenerateSegmentError):
            fn(cfg, bad)


def test_running_max_memory_beyond_its_arrays_is_flat():
    # the O(T) arrays (the sufficient statistics as floats and as a list,
    # prefix sums, pop steps, per-step maxima, the path) take about 70 bytes
    # a step here; evaluated unblocked, the per-pair arrays of the vector
    # pass would add about 520 more
    cfg = DetectorConfig(GM, 0.0, 1.0, "up")
    sizes = (10_000, 40_000)
    peaks = []
    for n in sizes:
        data = generate(Scenario(GM, 0.0, 0.0, 0, n, seed=3))
        tracemalloc.start()
        try:
            stat_running_max(cfg, data)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 128 * (sizes[1] - sizes[0])


def test_first_detections_memory_beyond_its_arrays_is_flat():
    # the O(replicates x T) arrays (sufficient statistics, prefix sums, both
    # directions' pop steps, the priced prefix terms and their bounds) take
    # about 54 bytes a replicate step here; with whole 1024-step blocks for
    # every row the per-pair arrays of the vector pass would add about 2300
    # more, growing with the number of replicates
    cfg = DetectorConfig(GM, None, 1e12, "both")
    reps, length = (10, 40), 1000
    peaks = []
    for n in reps:
        streams = [generate(Scenario(GM, 0.0, 0.0, 0, length, seed=s)) for s in range(n)]
        tracemalloc.start()
        try:
            assert _first_detections(cfg, streams) == [None] * n
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 128 * (reps[1] - reps[0]) * length


def test_run_length_monotone_in_threshold():
    data = np.random.default_rng(9).normal(0.0, 1.0, 2000)
    cfg = lambda thr: DetectorConfig(GM, 0.0, thr, "both")
    lengths = [first_detection(cfg(t), data) or 10**9 for t in (2.0, 5.0, 9.0, 14.0)]
    assert lengths == sorted(lengths)


# ------------------------------------------------------------------
# calibration
# ------------------------------------------------------------------


def test_calibrate_converges_and_is_deterministic():
    cfg = DetectorConfig(GM, 0.0, 1.0, "up")
    a = calibrate_threshold(cfg, 300, reps=60, seed=5)
    b = calibrate_threshold(cfg, 300, reps=60, seed=5)
    assert a == b
    assert 0.9 * 300 <= a.achieved_arl <= 1.1 * 300
    assert a.censor_at == 900
    # history exposes the monotone bisection: higher thresholds gave higher ARLs
    pairs = sorted(a.history)
    assert all(x[1] <= y[1] for x, y in zip(pairs, pairs[1:]))


def test_calibrate_validates_inputs():
    cfg = DetectorConfig(GM, 0.0, 1.0, "up")
    with pytest.raises(ValueError):
        calibrate_threshold(cfg, 99, reps=60, seed=1)
    with pytest.raises(ValueError):
        calibrate_threshold(cfg, 300, reps=0, seed=1)
    with pytest.raises(ValueError):
        calibrate_threshold(DetectorConfig(PO, None, 1.0, "up"), 300, reps=60, seed=1)


@pytest.mark.parametrize("field, args", [
    ("target_arl", (100.5, 50, 1)),
    ("reps", (100, 50.5, 1)),
    ("seed", (100, 50, 1.5)),
])
def test_calibrate_rejects_non_integer_sizes(field, args):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        calibrate_threshold(DetectorConfig(GM, 0.0, 1.0, "up"), *args)


def test_calibrate_unknown_prechange_with_null_theta():
    cfg = DetectorConfig(PO, None, 1.0, "up")
    res = calibrate_threshold(cfg, 200, reps=50, seed=3, null_theta=1.0)
    assert 180 <= res.achieved_arl <= 220


# ------------------------------------------------------------------
# delay experiment
# ------------------------------------------------------------------


def test_delay_rows_and_pairing():
    scen = Scenario(GV, 1.0, 2.0, 200, 2500, seed=13)
    runs = [
        DelayRun("var", DetectorConfig(GV, 1.0, 20.0, "up"), scen),
        DelayRun("sq", DetectorConfig(GM, 1.0, 60.0, "up"), scen, square_data=True),
    ]
    rows = delay_experiment(runs, reps=20)
    assert len(rows) == 40
    for r in rows:
        assert r.outcome in ("detected", "false_positive", "censored")
        if r.outcome == "detected":
            assert r.detect_time > 200 and r.delay == r.detect_time - 200
        if r.outcome == "false_positive":
            assert r.detect_time <= 200
    # both labels saw identical streams (paired seeds); with a strong change
    # nearly every replicate should detect
    assert sum(r.outcome == "detected" for r in rows) >= 30


def test_stronger_change_detected_faster():
    mk = lambda theta1, seed: Scenario(GV, 1.0, theta1, 200, 4000, seed=seed)
    cfg = DetectorConfig(GV, 1.0, 18.0, "up")
    rows = delay_experiment(
        [DelayRun("weak", cfg, mk(1.25, 7)), DelayRun("strong", cfg, mk(2.0, 7))], reps=60
    )
    assert mean_delay(rows, "strong", censor_value=3800) < mean_delay(rows, "weak", censor_value=3800)


def test_mean_delay_requires_detections():
    rows = delay_experiment(
        [DelayRun("never", DetectorConfig(GM, 0.0, 1e12, "up"), Scenario(GM, 0.0, 1.0, 5, 50, seed=1))],
        reps=3,
    )
    with pytest.raises(ValueError):
        mean_delay(rows, "never")


def test_delay_experiment_rejects_reps_below_one():
    run = DelayRun("a", DetectorConfig(GM, 0.0, 5.0, "up"), Scenario(GM, 0.0, 1.0, 5, 20, seed=1))
    for reps in (0, -3):
        with pytest.raises(ValueError, match="reps must be at least 1"):
            delay_experiment([run], reps)
    with pytest.raises(ValueError, match="reps must be an integer"):
        delay_experiment([run], 50.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the overflow streams warn nothing
@pytest.mark.parametrize("family", range(len(LANE_FAMILIES)), ids=LANE_IDS)
def test_lanes_equal_scalar_first_detection(family, monkeypatch):
    spec, pre, post = LANE_FAMILIES[family]
    rng = np.random.default_rng(100 + family)
    times = []
    # per block size: whether some batch had streams fire in different
    # blocks next to one that never fires
    spread = dict.fromkeys((_BLOCK, 7), False)
    for known in (True, False):
        for direction in ("up", "down", "both"):
            # an immediate detection, two random thresholds and none at all
            for thr in (1e-3, *rng.uniform(2.0, 25.0, 2).tolist(), 1e12):
                cfg = DetectorConfig(spec, pre if known else None, thr, direction)
                length = int(rng.integers(150, 220))
                streams = [generate(Scenario(spec, pre, post, change, length, int(rng.integers(2**31))))
                           for change in (0, *rng.integers(1, 150, 5).tolist())]
                short = [streams[0][:k] for k in (0, 1, 2)]
                want = [first_detection(cfg, s) for s in streams]
                want_short = [first_detection(cfg, s) for s in short]
                rows = len(streams) * len(Detector(cfg).states)
                for block in (_BLOCK, 7):
                    monkeypatch.setattr(bench, "_BLOCK", block)
                    assert _first_detections(cfg, streams) == want
                    singles = streams[-1:] + short
                    assert [_first_detections(cfg, [s])[0] for s in singles] == want[-1:] + want_short
                    step = max(1, block // rows)
                    blocks = {(t - 1) // step for t in want if t is not None}
                    spread[block] |= len(blocks) > 1 and None in want
                times += want + want_short
    if spec in (GM, PO):
        theta0s, big = overflow_streams(spec)
        for theta0 in theta0s:
            for direction in ("up", "down", "both"):
                for thr in (1e-3, 10.0, 1e12):
                    cfg = DetectorConfig(spec, theta0, thr, direction)
                    want = [first_detection(cfg, s) for s in big]
                    for block in (_BLOCK, 7):
                        monkeypatch.setattr(bench, "_BLOCK", block)
                        assert _first_detections(cfg, big) == want
    assert _first_detections(cfg, []) == []
    with pytest.raises(ValueError, match="one length"):
        _first_detections(cfg, [streams[0], streams[1][:-1]])
    # lanes that fire at the first step (theta0 known), later, and never
    assert 1 in times and None in times and any(t is not None and t > 2 for t in times)
    assert all(spread.values())


def test_lanes_raise_on_a_degenerate_segment_like_scalar():
    # x^2 = 1e20 then 1e-20: the prefix-sum difference of the second step
    # cancels to 0.0, a degenerate gauss-var segment mean
    cfg = DetectorConfig(GV, None, 20.0, "both")
    ordinary = [generate(Scenario(GV, 1.0, 3.0, 20, 60, seed=s)) for s in range(5)]
    bad = np.concatenate(([1e10, 1e-10], ordinary[4][2:]))
    with pytest.raises(DegenerateSegmentError):
        first_detection(cfg, bad)
    with pytest.raises(DegenerateSegmentError):
        _first_detections(cfg, [*ordinary[:2], bad, *ordinary[2:4]])


def test_lanes_raise_the_first_bad_value_in_stream_order():
    # the stacked streams are validated at once; the error is that of the
    # first stream holding a bad value, at its first one
    cfg = DetectorConfig(PO, 2.0, 10.0, "both")
    streams = [generate(Scenario(PO, 2.0, 2.0, 0, 30, seed=s)) for s in range(3)]
    streams[1][7] = -1.0
    streams[2][3] = 2.5
    with pytest.raises(SupportError) as scalar:
        first_detection(cfg, streams[1])
    with pytest.raises(SupportError) as lanes:
        _first_detections(cfg, streams)
    assert "-1.0" in str(scalar.value) and str(lanes.value) == str(scalar.value)


# ------------------------------------------------------------------
# counter profiles
# ------------------------------------------------------------------


def test_counter_profile_adaptive_dominates_full():
    scen = Scenario(PO, 1.0, 1.0, 0, 3000, seed=21)
    cfg = DetectorConfig(PO, 1.0, 25.0, "up", stop_on_detect=False)
    adaptive = counter_profile(cfg, scen, mode="adaptive")
    full = counter_profile(cfg, scen, mode="full")
    assert np.array_equal(adaptive.curves_stored_sum, full.curves_stored_sum)
    assert np.array_equal(adaptive.merges, full.merges)
    # the check never evaluates more curves than full maximisation, anywhere
    assert np.all(adaptive.curves_evaluated_sum <= full.curves_evaluated_sum)
    assert adaptive.curves_evaluated_sum.sum() < full.curves_evaluated_sum.sum()


def test_counter_profile_rejects_bad_mode():
    with pytest.raises(ValueError):
        counter_profile(DetectorConfig(GM, 0.0, 5.0, "up"),
                        Scenario(GM, 0.0, 0.0, 0, 10, seed=1), mode="opportunistic")


def test_counter_csv_format():
    scen = Scenario(GM, 0.0, 0.0, 0, 5, seed=2)
    prof = counter_profile(DetectorConfig(GM, 0.0, 30.0, "up"), scen)
    buf = io.StringIO()
    write_counter_csv(prof, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,curves_stored,curves_evaluated,merges,transcendental_calls"
    assert len(lines) == 6
    assert lines[1].split(",")[0] == "1"
    # an empty stream: four empty int64 columns and the header alone
    empty = counter_profile(DetectorConfig(GM, None, 30.0, "both"), Scenario(GM, 0.0, 0.0, 0, 0, seed=2))
    cols = (empty.curves_stored_sum, empty.curves_evaluated_sum, empty.merges, empty.transcendental_calls)
    assert all(c.dtype == np.int64 and c.shape == (0,) for c in cols)
    buf = io.StringIO()
    write_counter_csv(empty, buf)
    assert buf.getvalue().splitlines() == [lines[0]]


def test_delay_csv_format():
    rows = delay_experiment(
        [DelayRun("a", DetectorConfig(GM, 0.0, 5.0, "up"), Scenario(GM, 0.0, 2.0, 10, 200, seed=4))],
        reps=2,
    )
    buf = io.StringIO()
    write_delay_csv(rows, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "label,rep,outcome,detect_time,delay"
    assert len(lines) == 3
