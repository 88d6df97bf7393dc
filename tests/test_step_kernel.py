"""The fused step kernel against its layered reference, step by step.

`detector.step_states` runs `pruning._absorb` and `maxima._walk`;
`oracle.layered_step_states` runs the public `update`, `attach_bounds` and
`check` they replace.  Both are driven on twin states, and after every step
the detection, the curves evaluated and stored and the whole state must be
equal bit for bit: every record's (tau, cum_sum, m_bound), the totals, the
base and the four tallies the counters derive from.  Both paths share that
derivation; `tests/test_counters.py` checks the counts from outside.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import layered_step_states
from streamcpd import (
    DegenerateSegmentError,
    Detector,
    DetectorConfig,
    FamilySpec,
    Scenario,
    generate,
    step_states,
)

# family, pre-change theta, post-change thetas (above, below)
FAMILIES = [
    (FamilySpec.gauss_mean(), 0.0, (1.0, -1.0)),
    (FamilySpec.gauss_var(), 1.0, (2.5, 0.4)),
    (FamilySpec.poisson(), 2.0, (3.5, 1.0)),
    (FamilySpec.binomial(4), 0.4, (0.65, 0.2)),
    (FamilySpec.gamma(2.0), 1.0, (1.8, 0.5)),
]
DIRECTIONS = ["up", "down", "both"]


def bits(x) -> bytes:
    return struct.pack("<d", x)


def snapshot(states):
    return [
        (s.total_count, bits(s.total_sum), s.base_count, bits(s.base_sum),
         (s.stored_sum, s.bounded, s.evaluated, s.pooled),
         [(r.tau, bits(r.cum_sum), bits(r.m_bound)) for r in s.records])
        for s in states
    ]


def outcome(detection, evals, stored):
    if detection is None:
        return None, evals, stored
    return (detection.t_detect, detection.tau_low, bits(detection.stat), detection.direction_hit), evals, stored


def run_both(spec, theta0, direction, threshold, data):
    """Feed ``data`` to the kernel and the reference on twin states,
    comparing after every step; returns the detections seen."""
    fused = Detector(DetectorConfig(spec, theta0, 1.0, direction)).states
    layered = Detector(DetectorConfig(spec, theta0, 1.0, direction)).states
    hits = 0
    for x in data:
        g = spec.suff(x)
        got = outcome(*step_states(fused, spec, g, threshold))
        want = outcome(*layered_step_states(layered, spec, g, threshold))
        assert got == want
        assert snapshot(fused) == snapshot(layered)
        hits += got[0] is not None
    return hits


def cases():
    for spec, theta_pre, posts in FAMILIES:
        for known in (True, False):
            for direction in DIRECTIONS:
                yield spec, theta_pre, posts, known, direction


CASES = list(cases())
IDS = [f"{c[0].kind.value}-{'known' if c[3] else 'unknown'}-{c[4]}" for c in CASES]


@pytest.mark.parametrize("spec,theta_pre,posts,known,direction", CASES, ids=IDS)
def test_kernel_equals_layers_on_null_streams(spec, theta_pre, posts, known, direction):
    data = generate(Scenario(spec, theta_pre, theta_pre, 0, 400, 71)).tolist()
    run_both(spec, theta_pre if known else None, direction, 20.0, data)


@pytest.mark.parametrize("spec,theta_pre,posts,known,direction", CASES, ids=IDS)
def test_kernel_equals_layers_on_alarm_streams(spec, theta_pre, posts, known, direction):
    # a low threshold and no stop: the walks take their hit path over and over
    post = posts[1] if direction == "down" else posts[0]
    data = generate(Scenario(spec, theta_pre, post, 150, 300, 72)).tolist()
    assert run_both(spec, theta_pre if known else None, direction, 5.0, data) > 0


OBSERVATIONS = {
    "gauss-mean": st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
                            st.floats(-50, 50, allow_nan=False)),
    "gauss-var": st.builds(lambda s, x: s * x, st.sampled_from([-1.0, 1.0]),
                           st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.01, 50))),
    "poisson": st.integers(0, 12).map(float),
    "binomial": st.integers(0, 4).map(float),
    "gamma": st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.01, 50)),
}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_kernel_equals_layers_on_drawn_streams(data):
    spec, theta_pre, _ = data.draw(st.sampled_from(FAMILIES))
    theta0 = data.draw(st.sampled_from([theta_pre, None]))
    direction = data.draw(st.sampled_from(DIRECTIONS))
    threshold = data.draw(st.one_of(st.none(), st.floats(0.05, 30)))
    xs = data.draw(st.lists(OBSERVATIONS[spec.kind.value], min_size=1, max_size=60))
    run_both(spec, theta0, direction, threshold, xs)


DEGENERATE = [
    [1e10, 1e-10],
    [1e10, 1e10, 1e10, 1e-10],
    [1e-10, 1e10, 1e-10, 1e-10, 1.0],
    [1e10, 1e-10, 1e-10, 1e10, 1e-10, 1e-10],
]


@pytest.mark.parametrize("known", [True, False])
@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("xs", DEGENERATE)
def test_degenerate_step_raises_like_the_layers(xs, direction, known):
    spec = FamilySpec.gauss_var()
    theta0 = 1.0 if known else None
    fused = Detector(DetectorConfig(spec, theta0, 20.0, direction)).states
    layered = Detector(DetectorConfig(spec, theta0, 20.0, direction)).states
    for x in xs:
        g = spec.suff(x)
        errors = []
        for step, states in ((step_states, fused), (layered_step_states, layered)):
            try:
                step(states, spec, g, 20.0)
                errors.append(None)
            except DegenerateSegmentError as e:
                errors.append((type(e), str(e)))
        assert errors[0] == errors[1]
        assert snapshot(fused) == snapshot(layered)
        if errors[0] is not None:
            return
    assert direction == "up"  # the down walks meet the cancelled segment mean


@pytest.mark.parametrize("known", [True, False])
@pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan")])
def test_rejected_threshold_leaves_states_unchanged(threshold, known):
    spec = FamilySpec.gauss_mean()
    states = Detector(DetectorConfig(spec, 0.0 if known else None, 8.0, "both")).states
    for x in (0.3, -1.2, 2.0):
        step_states(states, spec, spec.suff(x), 8.0)
    before = snapshot(states)
    with pytest.raises(ValueError, match="threshold must be positive"):
        step_states(states, spec, 1.5, threshold)
    assert snapshot(states) == before


def test_rejected_threshold_at_the_first_step_with_theta0_unknown():
    # the walks never run at T = 1 with theta0 unknown; the threshold is
    # still rejected, and before the states change
    spec = FamilySpec.gauss_mean()
    states = Detector(DetectorConfig(spec, None, 8.0, "both")).states
    with pytest.raises(ValueError, match="threshold must be positive"):
        step_states(states, spec, 0.5, -3.0)
    assert [s.total_count for s in states] == [0, 0]
    assert all(not s.records for s in states)
