"""Root-comparison pruning (scripts/root_pruning.py) against mean-comparison pruning."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from streamcpd import Direction, FamilySpec, new_state, update
from streamcpd.counters import CounterSet

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from root_pruning import alpha_prime, beta_prime, update_root_pruning  # noqa: E402

GM = FamilySpec.gauss_mean()
PO = FamilySpec.poisson()
ALL = [GM, FamilySpec.gauss_var(), PO, FamilySpec.binomial(4), FamilySpec.gamma(2.0)]


def theta_grid(spec):
    if spec.kind.value == "gauss-mean":
        return np.linspace(-3.0, 3.0, 25)
    if spec.kind.value == "binomial":
        return np.linspace(0.05, 0.95, 25)
    return np.geomspace(0.1, 5.0, 25)


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.kind.value)
def test_alpha_beta_primes_match_finite_difference(spec):
    for theta in theta_grid(spec):
        h = 1e-6 * max(1.0, abs(theta))
        da = (spec.alpha(theta + h) - spec.alpha(theta - h)) / (2 * h)
        db = (spec.beta_fn(theta + h) - spec.beta_fn(theta - h)) / (2 * h)
        assert da == pytest.approx(alpha_prime(spec, theta), rel=1e-5)
        assert db == pytest.approx(beta_prime(spec, theta), rel=1e-5, abs=1e-9)




def test_root_pruning_gaussian_singleton_root():
    state = new_state(Direction.UP, 0.0, GM)
    update_root_pruning(state, 1.0, GM, 0.0, 1e-12)
    assert state.records[-1].root == pytest.approx(2.0, abs=1e-9)


def test_root_pruning_poisson_root_value():
    # largest root of 4 log(t) - 2 (t - 1) = 0 besides t = 1, via an
    # independent bracketing solve
    want = brentq(lambda t: 4 * math.log(t) - 2 * (t - 1), 1.5, 20.0, xtol=1e-13)
    assert want == pytest.approx(3.512862417252341, abs=1e-9)
    state = new_state(Direction.UP, 1.0, PO)
    update_root_pruning(state, 3.0, PO, 1.0, 1e-12)
    update_root_pruning(state, 1.0, PO, 1.0, 1e-12)  # merges into {S=4, n=2}
    assert len(state.records) == 1
    assert state.records[-1].root == pytest.approx(want, abs=1e-7)


@pytest.mark.parametrize("direction", [Direction.UP, Direction.DOWN])
def test_root_pruning_identical_tau_sets(direction):
    rng = np.random.default_rng(77)
    data = rng.normal(0.0, 1.0, 1000)
    st_mean = new_state(direction, 0.0, GM)
    st_root = new_state(direction, 0.0, GM)
    for x in data:
        update(st_mean, GM.suff(x))
        update_root_pruning(st_root, GM.suff(x), GM, 0.0, 1e-11)
        assert [r.tau for r in st_mean.records] == [r.tau for r in st_root.records]


def test_root_pruning_counts_transcendentals():
    rng = np.random.default_rng(78)
    data = rng.poisson(1.0, 300).astype(float)
    st_mean = new_state(Direction.UP, 1.0, PO)
    st_root = new_state(Direction.UP, 1.0, PO)
    root_logs = CounterSet()
    stored = 0
    for x in data:
        update(st_mean, PO.suff(x))
        update_root_pruning(st_root, PO.suff(x), PO, 1.0, 1e-11, root_logs)
        stored += len(st_root.records)
    assert [r.tau for r in st_mean.records] == [r.tau for r in st_root.records]
    assert st_mean.counters.transcendental_calls == 0  # mean pruning never takes logs
    assert root_logs.transcendental_calls > 2 * st_root.total_count
    # the root solves' logs are counted apart; the state counts what it stores
    assert st_root.counters == CounterSet(300 - len(st_root.records), stored, 0, 0)


def test_root_pruning_requires_known_theta0():
    state = new_state(Direction.UP, None, GM)
    with pytest.raises(ValueError):
        update_root_pruning(state, 1.0, GM, 0.0, 1e-9)
