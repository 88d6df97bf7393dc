"""End-to-end detector behaviour against the oracle."""

from dataclasses import replace

import numpy as np
import pytest

from oracle import naive_q_path
from streamcpd import (
    Detector,
    DetectorConfig,
    Direction,
    FamilySpec,
    InsufficientDataError,
    SupportError,
)

GM = FamilySpec.gauss_mean()
PO = FamilySpec.poisson()
GA = FamilySpec.gamma(1.0)


def cfg(spec=GM, theta0=0.0, threshold=8.0, direction="both", **kw):
    return DetectorConfig(spec, theta0, threshold, direction, **kw)


# ------------------------------------------------------------------
# construction
# ------------------------------------------------------------------


def test_detector_both_creates_two_states():
    d = Detector(cfg(threshold=20.0))
    assert len(d.states) == 2
    assert {s.direction for s in d.states} == {Direction.UP, Direction.DOWN}


def test_detector_single_direction():
    d = Detector(cfg(PO, None, 15.0, "up"))
    assert len(d.states) == 1


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        cfg(GA, -2.0, 10.0)
    with pytest.raises(ValueError):
        cfg(threshold=0.0)
    with pytest.raises(ValueError):
        cfg(direction="sideways")
    with pytest.raises(ValueError):
        DetectorConfig(GM, 0.0, 5.0, "up", stat_every=-1)


# ------------------------------------------------------------------
# stepping
# ------------------------------------------------------------------


def test_step_detects_when_statistic_crosses():
    # 2Q after one observation x=3 is 9, so threshold 8 fires immediately
    d = Detector(cfg(threshold=8.0))
    r = d.step(3.0)
    assert r.detection is not None
    assert r.detection == r.detection.__class__(1, 0, 9.0, Direction.UP)


def test_step_detects_at_second_point_with_higher_threshold():
    d = Detector(cfg(threshold=10.0))
    assert d.step(3.0).detection is None
    r = d.step(3.0)
    assert r.detection is not None
    assert r.detection.t_detect == 2
    assert r.detection.tau_low == 0
    assert r.detection.stat == pytest.approx(18.0)
    assert r.detection.direction_hit is Direction.UP


def test_unknown_never_detects_before_two_points():
    d = Detector(DetectorConfig(PO, None, 1e-6, "up"))
    assert d.step(50.0).detection is None  # no pre-change data yet
    with pytest.raises(InsufficientDataError):
        d.statistic()


def test_support_error_reports_position():
    d = Detector(cfg(PO, 1.0, 10.0, "up"))
    d.step(1.0)
    with pytest.raises(SupportError, match="position 2"):
        d.step(-3.0)


def test_huge_threshold_stats_match_oracle():
    rng = np.random.default_rng(7)
    data = rng.normal(0.5, 1.0, 120)
    d = Detector(cfg(threshold=1e9))
    up, _ = naive_q_path(GM, 0.0, Direction.UP, data)
    dn, _ = naive_q_path(GM, 0.0, Direction.DOWN, data)
    want = 2 * np.maximum(up, dn)
    for t, x in enumerate(data):
        assert d.step(x).detection is None
        assert d.statistic() == pytest.approx(want[t], rel=1e-9, abs=1e-12)


# ------------------------------------------------------------------
# statistic
# ------------------------------------------------------------------


def test_statistic_examples():
    d = Detector(cfg(threshold=100.0, direction="up"))
    d.step(1.0)
    assert d.statistic() == pytest.approx(1.0)  # single point: 2 * (1^2 / 2)
    d.step(0.5)
    assert d.statistic() == pytest.approx(1.125)
    d2 = Detector(cfg(threshold=100.0, direction="up"))
    for x in (1.0, 0.5, -9.0):
        d2.step(x)
    assert d2.statistic() == 0.0  # all evidence against an up-change


def test_stat_every_emission():
    d = Detector(cfg(threshold=1e9, stat_every=2))
    r1, r2, r3, r4 = (d.step(x) for x in (0.3, -0.1, 0.2, 0.4))
    assert r1.stat is None and r3.stat is None
    assert r2.stat is not None and r4.stat is not None


def test_detector_continues_after_detection_without_reset():
    d = Detector(cfg(threshold=8.0, stop_on_detect=False))
    first = d.step(3.0)
    assert first.detection is not None
    again = d.step(3.0)
    assert again.detection is not None
    assert again.detection.stat == pytest.approx(18.0)


# ------------------------------------------------------------------
# stopping-time equivalence and determinism
# ------------------------------------------------------------------

EQ_CASES = [
    (GM, 0.0, "both", lambda rng, n: rng.normal(0.25, 1.0, n)),
    (GM, None, "up", lambda rng, n: rng.normal(0.0, 1.0, n) + np.linspace(0, 1, n)),
    (PO, 1.0, "both", lambda rng, n: rng.poisson(1.3, n).astype(float)),
    (FamilySpec.gamma(2.0), None, "down", lambda rng, n: rng.gamma(2.0, 0.8, n)),
]


@pytest.mark.parametrize("spec,theta0,direction,gen", EQ_CASES,
                         ids=["gm-known", "gm-unknown", "po-known", "ga-unknown"])
def test_stopping_time_equals_oracle_first_crossing(spec, theta0, direction, gen):
    rng = np.random.default_rng(17)
    for rep in range(5):
        data = gen(rng, 150)
        dirs = [Direction.UP, Direction.DOWN] if direction == "both" else (
            [Direction.UP] if direction == "up" else [Direction.DOWN])
        paths = [naive_q_path(spec, theta0, d, data)[0] for d in dirs]
        path2q = 2 * np.max(paths, axis=0)
        peak = float(path2q.max())
        if peak <= 0:
            continue
        thr = 0.6 * peak
        oracle_stop = int(np.argmax(path2q >= thr)) + 1 if (path2q >= thr).any() else None
        d = Detector(DetectorConfig(spec, theta0, thr, direction))
        stop = None
        for t, x in enumerate(data):
            if d.step(x).detection is not None:
                stop = t + 1
                break
        assert stop == oracle_stop


def test_cusum_closed_form_identity():
    # known-zero gaussian up statistic == max over tau of max(S, 0)^2 / n
    rng = np.random.default_rng(23)
    data = rng.normal(0.1, 1.0, 200)
    d = Detector(cfg(threshold=1e9, direction="up"))
    P = np.concatenate([[0.0], np.cumsum(data)])
    for t, x in enumerate(data, start=1):
        d.step(x)
        S = P[t] - P[:t]
        n = t - np.arange(t)
        want = float(np.max(np.maximum(S, 0.0) ** 2 / n))
        assert d.statistic() == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_determinism_bitwise():
    rng = np.random.default_rng(31)
    data = rng.normal(0.2, 1.0, 300).tolist()
    outs = []
    for _ in range(2):
        d = Detector(cfg(threshold=12.0, stat_every=7, stop_on_detect=False))
        outs.append([d.step(x) for x in data])
    assert outs[0] == outs[1]


def test_step_result_counters():
    d = Detector(cfg(threshold=50.0))
    for x in (0.5, 1.0, -0.3, 0.8):
        r = d.step(x)
        assert r.curves_stored == sum(len(s.records) for s in d.states)
        assert r.curves_evaluated >= 0


def test_rejected_value_leaves_state_unchanged():
    # 0, and values whose squares underflow to 0 or overflow to inf
    for bad in (0.0, 1e-200, 1e200):
        d = Detector(DetectorConfig(FamilySpec.gauss_var(), 1.0, 20.0, "both"))
        for x in (0.5, 2.0, -1.5):
            d.step(x)

        def snapshot():
            return d.t, [(replace(st.counters), [(tau, cs, m_bound) for tau, cs, _, _, m_bound in st.records])
                         for st in d.states]

        before = snapshot()
        with pytest.raises(SupportError):
            d.step(bad)
        assert snapshot() == before


@pytest.mark.parametrize("spec, theta0", [
    (FamilySpec.gauss_mean(), 1e9),
    (FamilySpec.gauss_mean(), 1e15),
    (FamilySpec.binomial(1), 1e-17),
    (FamilySpec.binomial(1), 1e-300),
])
def test_extreme_valid_theta0_constructs(spec, theta0):
    d = Detector(DetectorConfig(spec, theta0, 20.0))
    assert [st.direction for st in d.states] == [Direction.UP, Direction.DOWN]
