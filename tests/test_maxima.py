"""Prefix bounds and the adaptive threshold check."""

import numpy as np
import pytest

from streamcpd import (
    Direction,
    FamilySpec,
    attach_bounds,
    check,
    new_state,
    q_full,
    update,
)
from streamcpd.families import FamilyKind
from streamcpd.pruning import curve_m

GM = FamilySpec.gauss_mean()
PO = FamilySpec.poisson()


def advance(state, spec, xs):
    for x in xs:
        update(state, spec.suff(x))
        attach_bounds(state, spec)
    return state


# ------------------------------------------------------------------
# curve_m between two prefixes
# ------------------------------------------------------------------


def test_curve_m_unknown_example():
    # data 0, 0, 2: prefix at 2 = {0, 2}, prefix at 3 = {2, 3}
    m = curve_m(new_state(Direction.UP, None, GM), GM, 2, 0.0, 3, 2.0)
    assert m == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_curve_m_known_zero_at_null_mean():
    for spec, theta0 in [(GM, 0.5), (PO, 2.0)]:
        g0 = spec.mean_suff(theta0)
        m = curve_m(new_state(Direction.UP, theta0, spec), spec, 0, 0.0, 3, 3 * g0)
        assert m == 0.0


def test_curve_m_unknown_direction_clamp():
    # data 2 then 0: the segment mean 0 sits below the prefix mean 2
    m = curve_m(new_state(Direction.UP, None, GM), GM, 1, 2.0, 2, 2.0)
    assert m == 0.0


def test_curve_m_unknown_zero_at_tau_zero():
    assert curve_m(new_state(Direction.UP, None, GM), GM, 0, 0.0, 5, 3.0) == 0.0


# ------------------------------------------------------------------
# attach_bounds
# ------------------------------------------------------------------


def test_attach_single_record_bound_zero():
    state = advance(new_state(Direction.UP, 0.0, GM), GM, [0.5])
    assert [m_bound for *_, m_bound in state.records] == [0.0]


def test_attach_second_record_bound():
    # first segment {0.5} has statistic 0.5^2 / 2 = 0.125
    state = advance(new_state(Direction.UP, 0.0, GM), GM, [0.5, 1.0])
    (tau0, *_), (tau1, *_, m_bound) = state.records
    assert (tau0, tau1) == (0, 1)
    assert m_bound == pytest.approx(0.125, abs=1e-15)


def test_bounds_nonnegative_nondecreasing():
    rng = np.random.default_rng(8)
    for theta0 in (0.0, None):
        state = new_state(Direction.UP, theta0, GM)
        for x in rng.normal(0.1, 1.0, 400):
            update(state, GM.suff(x))
            attach_bounds(state, GM)
            bounds = [m_bound for *_, m_bound in state.records]
            assert all(b >= 0.0 for b in bounds)
            assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))


# ------------------------------------------------------------------
# check
# ------------------------------------------------------------------


def test_check_empty_state():
    out = check(new_state(Direction.UP, 0.0, GM), GM, 5.0)
    assert not out.changed
    assert out.curves_evaluated == 0


def test_check_single_record_certifies_in_one_eval():
    state = advance(new_state(Direction.UP, 0.0, GM), GM, [1.0])
    out = check(state, GM, 1e9)
    assert not out.changed
    assert out.curves_evaluated == 1
    assert out.bound_used < 1e9


def test_check_detects_example():
    state = advance(new_state(Direction.UP, 0.0, GM), GM, [3.0, 3.0])
    out = check(state, GM, 8.0)
    assert out.changed
    assert out.tau_low == 0
    assert out.t_now == 2
    assert out.stat == pytest.approx(18.0, abs=1e-12)


def test_check_requires_positive_threshold():
    with pytest.raises(ValueError):
        check(new_state(Direction.UP, 0.0, GM), GM, 0.0)


# ------------------------------------------------------------------
# soundness and tightness of the bound
# ------------------------------------------------------------------

PROP_CASES = [
    (GM, 0.1, None, lambda rng, n: rng.normal(0.2, 1.0, n)),
    (GM, None, None, lambda rng, n: rng.normal(0.2, 1.0, n)),
    (PO, 1.0, None, lambda rng, n: rng.poisson(1.1, n).astype(float)),
    (PO, None, None, lambda rng, n: rng.poisson(1.1, n).astype(float)),
    (FamilySpec.gamma(1.5), 1.0, None, lambda rng, n: rng.gamma(1.5, 1.2, n)),
    (FamilySpec.binomial(3), None, 0.4, lambda rng, n: rng.binomial(3, 0.5, n).astype(float)),
]


@pytest.mark.parametrize("spec,theta0,_,gen", PROP_CASES,
                         ids=[f"{c[0].kind.value}-{'known' if c[1] is not None else 'unknown'}" for c in PROP_CASES])
@pytest.mark.parametrize("direction", [Direction.UP, Direction.DOWN])
def test_bound_dominates_prefix_max_every_step(spec, theta0, _, gen, direction):
    rng = np.random.default_rng(99)
    state = new_state(direction, theta0, spec)
    for x in gen(rng, 300):
        update(state, spec.suff(x))
        attach_bounds(state, spec)
        T, St = state.total_count, state.total_sum
        ms = [curve_m(state, spec, tau, cs, T, St) for tau, cs, *_ in state.records]
        prefix_max = 0.0
        for m, (*_, m_bound) in zip(ms, state.records):
            prefix_max = max(prefix_max, m)
            assert 2.0 * (m + m_bound) >= 2.0 * prefix_max - 1e-9


@pytest.mark.parametrize("spec,theta0,_,gen", PROP_CASES,
                         ids=[f"{c[0].kind.value}-{'known' if c[1] is not None else 'unknown'}" for c in PROP_CASES])
def test_check_decision_equals_full_evaluation(spec, theta0, _, gen):
    rng = np.random.default_rng(101)
    state = new_state(Direction.UP, theta0, spec)
    thresholds = (0.5, 2.0, 8.0, 20.0)
    for x in gen(rng, 300):
        update(state, spec.suff(x))
        attach_bounds(state, spec)
        q, _ = q_full(state, spec)
        for thr in thresholds:
            out = check(state, spec, thr)
            assert out.changed == (2.0 * q >= thr)
            if out.changed:
                assert out.stat >= thr


def test_check_skips_work_but_never_changes_decision():
    # under the null the certificate should fire immediately most steps
    rng = np.random.default_rng(4)
    state = new_state(Direction.UP, 0.0, GM)
    evals = []
    for x in rng.normal(0.0, 1.0, 2000):
        update(state, GM.suff(x))
        attach_bounds(state, GM)
        out = check(state, GM, 25.0)
        assert not out.changed
        evals.append(out.curves_evaluated)
        assert out.curves_evaluated <= max(1, len(state.records))
    assert np.mean(evals) <= 1.5
