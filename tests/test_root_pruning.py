"""Root-comparison pruning (scripts/root_pruning.py) against mean-comparison pruning."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from streamcpd import Direction, FamilySpec, check, new_state, update
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
    state, roots = new_state(Direction.UP, 0.0, GM), []
    update_root_pruning(state, roots, 1.0, GM, 0.0, 1e-12)
    assert len(roots) == len(state.records) == 1
    assert roots[-1] == pytest.approx(2.0, abs=1e-9)


def test_root_pruning_poisson_root_value():
    # largest root of 4 log(t) - 2 (t - 1) = 0 besides t = 1, via an
    # independent bracketing solve
    want = brentq(lambda t: 4 * math.log(t) - 2 * (t - 1), 1.5, 20.0, xtol=1e-13)
    assert want == pytest.approx(3.512862417252341, abs=1e-9)
    state, roots = new_state(Direction.UP, 1.0, PO), []
    update_root_pruning(state, roots, 3.0, PO, 1.0, 1e-12)
    update_root_pruning(state, roots, 1.0, PO, 1.0, 1e-12)  # merges into {S=4, n=2}
    assert len(state.records) == len(roots) == 1
    assert roots[-1] == pytest.approx(want, abs=1e-7)


@pytest.mark.parametrize("direction", [Direction.UP, Direction.DOWN])
def test_root_pruning_identical_tau_sets(direction):
    rng = np.random.default_rng(77)
    data = rng.normal(0.0, 1.0, 1000)
    st_mean = new_state(direction, 0.0, GM)
    st_root, roots = new_state(direction, 0.0, GM), []
    for x in data:
        update(st_mean, GM.suff(x))
        update_root_pruning(st_root, roots, GM.suff(x), GM, 0.0, 1e-11)
        assert [tau for tau, *_ in st_mean.records] == [tau for tau, *_ in st_root.records]
        assert len(roots) == len(st_root.records)
        # the cached means that `check` reads, and so its outcome
        assert ([left for _, _, left, _, _ in st_mean.records[1:]]
                == [left for _, _, left, _, _ in st_root.records[1:]])
        if st_mean.records:
            assert st_mean.newest_mean == st_root.newest_mean
        assert check(st_mean, GM, 5.0)[:4] == check(st_root, GM, 5.0)[:4]


def test_root_pruning_counts_transcendentals():
    rng = np.random.default_rng(78)
    data = rng.poisson(1.0, 300).astype(float)
    st_mean = new_state(Direction.UP, 1.0, PO)
    st_root, roots = new_state(Direction.UP, 1.0, PO), []
    root_logs = CounterSet()
    stored = 0
    for x in data:
        update(st_mean, PO.suff(x))
        update_root_pruning(st_root, roots, PO.suff(x), PO, 1.0, 1e-11, root_logs)
        stored += len(st_root.records)
    assert [tau for tau, *_ in st_mean.records] == [tau for tau, *_ in st_root.records]
    assert st_mean.counters.transcendental_calls == 0  # mean pruning never takes logs
    assert root_logs.transcendental_calls > 2 * st_root.total_count
    # the root solves' logs are counted apart; the state counts what it stores
    assert st_root.counters == CounterSet(300 - len(st_root.records), stored, 0, 0)


def test_root_pruning_requires_known_theta0():
    state = new_state(Direction.UP, None, GM)
    with pytest.raises(ValueError):
        update_root_pruning(state, [], 1.0, GM, 0.0, 1e-9)
