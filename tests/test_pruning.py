"""Pruned state machine vs the exhaustive oracle."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import naive_q, naive_q_path
from streamcpd import (
    Direction,
    FamilySpec,
    ParamDomainError,
    new_state,
    q_full,
    step_states,
    update,
)

GM = FamilySpec.gauss_mean()
GV = FamilySpec.gauss_var()
PO = FamilySpec.poisson()


def bits(x) -> bytes:
    return struct.pack("<d", x)


def check_invariants(state, spec, base, rel=1e-9):
    """Assert the structural invariants of a pruning state after a step.

    ``base`` is the (count, sum) of the totals when the state last emptied,
    (0, 0.0) if it never did: the oldest record must start there.  Every
    cache must equal, bit for bit, its value computed from scratch.
    Returns the base for the next step's call.
    """
    recs = state.records
    assert all(type(r) is tuple and len(r) == 5 for r in recs), "a record is a plain 5-tuple"
    taus, sums, lefts, pres, _ = zip(*recs) if recs else ((),) * 5
    sign = state.sign
    assert list(taus) == sorted(set(taus)), "candidate times must be strictly increasing"
    if recs:
        assert (taus[0], sums[0]) == base, "the oldest record starts where the state last emptied"
    else:
        base = (state.total_count, state.total_sum)

    ends = list(zip(taus[1:], sums[1:])) + [(state.total_count, state.total_sum)]
    means = [(end_sum - cs) / (end - tau) for tau, cs, (end, end_sum) in zip(taus, sums, ends)]
    for a, b in zip(means, means[1:]):
        assert (b - a) * sign > 0, f"segment means not strictly monotone: {means}"
    # a record's left mean is the mean of the segment that ends at it
    assert [bits(left) for left in lefts[1:]] == [bits(m) for m in means[:-1]]
    if recs:
        assert bits(state.newest_mean) == bits(means[-1])
    if state.theta0 is None:
        assert [bits(pre) for tau, pre in zip(taus, pres) if tau > 0] == [
            bits(tau * spec.conjugate(cs / tau)) for tau, cs in zip(taus, sums) if tau > 0]
        T, St = state.total_count, state.total_sum
        assert bits(state.total_term) == bits(T * spec.conjugate(St / T))
    if state.theta0 is not None:
        for m in means:
            assert (m - state.g0) * sign > 0, f"segment mean {m} behind null mean {state.g0}"

    if recs:
        total = base[1] + sum(end_sum - cs for cs, (_, end_sum) in zip(sums, ends))
        assert math.isclose(total, state.total_sum, rel_tol=rel, abs_tol=1e-12), "telescoping broken"
    return base


def keys(state):
    """Each record's (tau, cum_sum, m_bound), the fields that fix it."""
    return [(tau, cs, m_bound) for tau, cs, _, _, m_bound in state.records]


def feed(state, spec, xs):
    for x in xs:
        update(state, spec.suff(x))
    return state


# ------------------------------------------------------------------
# update examples
# ------------------------------------------------------------------


def test_update_merges_into_single_record():
    st_ = feed(new_state(Direction.UP, 0.0, GM), GM, [1.0, 0.5])
    assert keys(st_) == [(0, 0.0, 0.0)]
    assert st_.total_sum == 1.5 and st_.total_count == 2
    assert st_.total_sum / st_.total_count == 0.75


def test_update_null_drop():
    st_ = feed(new_state(Direction.UP, 0.0, GM), GM, [1.0, 0.5, -2.0])
    assert st_.records == []
    assert q_full(st_, GM) == (0.0, None)
    # the next candidate starts where the state emptied
    update(st_, GM.suff(2.0))
    assert keys(st_) == [(3, -0.5, 0.0)]


def test_update_keeps_increasing_means():
    st_ = feed(new_state(Direction.UP, 0.0, GM), GM, [0.5, 1.0])
    assert keys(st_) == [(0, 0.0, 0.0), (1, 0.5, 0.0)]
    assert st_.total_sum == 1.5 and st_.total_count == 2  # segment means 0.5 and 1.0


def test_new_state_domain_error():
    with pytest.raises(ParamDomainError):
        new_state(Direction.UP, -1.0, PO)


# ------------------------------------------------------------------
# q_full examples
# ------------------------------------------------------------------


def test_q_full_known_example():
    st_ = feed(new_state(Direction.UP, 0.0, GM), GM, [1.0, 0.5])
    q, tau = q_full(st_, GM)
    assert q == pytest.approx(0.5625, abs=1e-15)
    assert tau == 0


def test_q_full_unknown_example():
    st_ = feed(new_state(Direction.UP, None, GM), GM, [0.0, 0.0, 2.0])
    q, tau = q_full(st_, GM)
    assert q == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert tau == 2


def test_q_full_empty():
    assert q_full(new_state(Direction.UP, 0.0, GM), GM) == (0.0, None)


# ------------------------------------------------------------------
# oracle equivalence and structural invariants
# ------------------------------------------------------------------

CASES = [
    (GM, 0.2, lambda rng, n: rng.normal(0.3, 1.0, n)),
    (GV, 1.0, lambda rng, n: rng.normal(0.0, 1.1, n)),
    (PO, 1.0, lambda rng, n: rng.poisson(1.2, n).astype(float)),
    (FamilySpec.binomial(5), 0.4, lambda rng, n: rng.binomial(5, 0.45, n).astype(float)),
    (FamilySpec.gamma(2.0), 1.0, lambda rng, n: rng.gamma(2.0, 1.1, n)),
]


@pytest.mark.parametrize("spec,theta,gen", CASES, ids=lambda c: getattr(c, "kind", c) and str(c)[:12])
@pytest.mark.parametrize("known", [True, False], ids=["known", "unknown"])
@pytest.mark.parametrize("direction", [Direction.UP, Direction.DOWN])
def test_q_full_equals_oracle_every_step(spec, theta, gen, known, direction):
    rng = np.random.default_rng(123)
    data = gen(rng, 200)
    theta0 = theta if known else None
    state = new_state(direction, theta0, spec)
    fused = new_state(direction, theta0, spec)  # the same, through the step kernel
    oracle_q, _ = naive_q_path(spec, theta0, direction, data)
    base = fused_base = (0, 0.0)
    for t, x in enumerate(data):
        update(state, spec.suff(x))
        base = check_invariants(state, spec, base)
        step_states([fused], spec, spec.suff(x), 20.0)
        fused_base = check_invariants(fused, spec, fused_base)
        q, _ = q_full(state, spec)
        assert abs(2 * q - 2 * oracle_q[t]) <= 1e-9 * max(1.0, abs(2 * oracle_q[t]))
    assert state.counters.merges <= 2 * state.total_count


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=40),
       st.sampled_from([Direction.UP, Direction.DOWN]),
       st.one_of(st.none(), st.floats(min_value=-1, max_value=1)))
def test_property_oracle_equivalence_gaussian(xs, direction, theta0):
    state = new_state(direction, theta0, GM)
    fused = new_state(direction, theta0, GM)  # the same, through the step kernel
    base = fused_base = (0, 0.0)
    for t, x in enumerate(xs):
        update(state, GM.suff(x))
        base = check_invariants(state, GM, base)
        step_states([fused], GM, GM.suff(x), 5.0)
        fused_base = check_invariants(fused, GM, fused_base)
        q, _ = q_full(state, GM)
        want = naive_q(GM, theta0, direction, xs[: t + 1]).q
        assert abs(2 * q - 2 * want) <= 1e-9 * max(1.0, abs(2 * want))
    assert state.counters.merges <= 2 * state.total_count


def test_retained_count_grows_slowly():
    rng = np.random.default_rng(9)
    counts = []
    for seed in range(5):
        data = np.random.default_rng(seed).normal(0, 1, 5000)
        state = feed(new_state(Direction.UP, None, GM), GM, data)
        counts.append(len(state.records))
    assert np.mean(counts) < 30  # ~log T candidates, not hundreds


# ------------------------------------------------------------------
# cross-family pruning identities
# ------------------------------------------------------------------


def test_same_pruning_across_identity_statistic_families():
    # all four families share g(x) = x, so the pruning comparisons are
    # identical.  With theta0 unknown `update` also prices T A(S_T / T), and
    # gamma's conjugate rejects a zero mean, so the data are Poisson draws
    # plus one: integers with ties that every family accepts, whatever the
    # seed
    specs = [GM, PO, FamilySpec.gamma(1.0), FamilySpec.binomial(50)]
    for seed in range(30, 37):
        data = np.random.default_rng(seed).poisson(1.0, 200).astype(float) + 1.0
        states = [new_state(Direction.UP, None, sp) for sp in specs]
        for x in data.tolist():
            sets = []
            for sp, st_ in zip(specs, states):
                update(st_, sp.suff(x))
                sets.append([tau for tau, *_ in st_.records])
            assert all(s == sets[0] for s in sets[1:])


def test_variance_model_prunes_like_mean_model_on_squares():
    rng = np.random.default_rng(32)
    x = rng.normal(0.0, 1.0, 200)
    st_var = new_state(Direction.UP, 1.0, GV)
    st_mean = new_state(Direction.UP, 1.0, GM)
    for v in x:
        update(st_var, GV.suff(v))
        update(st_mean, GM.suff(v * v))
        assert [tau for tau, *_ in st_var.records] == [tau for tau, *_ in st_mean.records]
