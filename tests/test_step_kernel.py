"""The fused step kernel against its layered reference, step by step.

`detector.step_states` runs `pruning._absorb` and `maxima._walk`;
`oracle.layered_step_states` runs the public `update`, `attach_bounds` and
`check` they replace.  Both are driven on twin states, and after every step
the detection, the curves evaluated and stored and the whole state must be
equal bit for bit: every field of every record, (tau, cum_sum, left_mean,
pre_term, m_bound), the totals, the state's cached (newest_mean,
total_term) and the four tallies the counters derive from.  Both paths
share that derivation; `tests/test_counters.py` checks the counts from
outside.  The drawn streams are those of `tests/test_differential.py`:
magnitudes up to 1e308, so that prefix sums overflow and segment means
become inf or NaN, and integers past 2**53 with ties.
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
    StreamCpdError,
    generate,
)
from streamcpd.detector import step_states
from test_differential import FAMILIES as DRAWN_FAMILIES

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
        (s.total_count, bits(s.total_sum), bits(s.newest_mean), bits(s.total_term),
         (s.stored_sum, s.bounded, s.evaluated, s.pooled),
         [(tau, bits(cs), bits(left), bits(pre), bits(m_bound)) for tau, cs, left, pre, m_bound in s.records])
        for s in states
    ]


def outcome(detection, evals, stored):
    if detection is None:
        return None, evals, stored
    return (detection.t_detect, detection.tau_low, bits(detection.stat), detection.direction_hit), evals, stored


def stepped(step, states, spec, g, threshold, raises):
    """``step``'s outcome, or the class and message of the error it raised
    if that is one of ``raises``."""
    try:
        return outcome(*step(states, spec, g, threshold))
    except raises as e:
        return type(e), str(e)


def run_both(spec, theta0, direction, threshold, data, raises=()):
    """Feed ``data`` to the kernel and the reference on twin states,
    comparing after every step; returns the detections seen.  An error of
    a class in ``raises`` must come from both at one step, with one
    message and equal states, and ends the run."""
    fused = Detector(DetectorConfig(spec, theta0, 1.0, direction)).states
    layered = Detector(DetectorConfig(spec, theta0, 1.0, direction)).states
    hits = 0
    for x in data:
        g = spec.suff(x)
        got, want = (stepped(step, states, spec, g, threshold, raises)
                     for step, states in ((step_states, fused), (layered_step_states, layered)))
        assert got == want
        assert snapshot(fused) == snapshot(layered)
        if len(got) == 2:  # both raised
            break
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


# prefix sums that overflow: segment means are inf or inf - inf = NaN, and
# a comparison with a NaN mean merges
NAN_STREAMS = [
    [0.0, 1e308, 1e308, 0.0, 1.0, -1e308, 2.0, 3.0],
    [1e308, -1e308, 1e308, 1e308, -1.0, 0.5, -1e308, 2.0, -3.0],
]


@pytest.mark.parametrize("threshold", [5.0, None])
@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("theta0", [0.0, None], ids=["known", "unknown"])
def test_kernel_equals_layers_on_overflowing_means(theta0, direction, threshold):
    for xs in NAN_STREAMS:
        run_both(FamilySpec.gauss_mean(), theta0, direction, threshold, xs)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_kernel_equals_layers_on_drawn_streams(data):
    spec, obs, theta0s = data.draw(st.sampled_from(DRAWN_FAMILIES))
    theta0 = data.draw(st.sampled_from(theta0s + [None]))
    direction = data.draw(st.sampled_from(DIRECTIONS))
    threshold = data.draw(st.one_of(st.none(), st.floats(1e-3, 1e3)))
    xs = data.draw(st.lists(obs, min_size=1, max_size=60))
    run_both(spec, theta0, direction, threshold, xs, raises=StreamCpdError)


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
