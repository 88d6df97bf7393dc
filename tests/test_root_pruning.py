"""Root-comparison pruning (scripts/root_pruning.py) against mean-comparison pruning."""

import hashlib
import math
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from streamcpd import Direction, FamilySpec, Scenario, check, generate, new_state, update
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
    update_root_pruning(state, roots, 1.0, GM, 1e-12)
    assert len(roots) == len(state.records) == 1
    assert roots[-1] == pytest.approx(2.0, abs=1e-9)


def test_root_pruning_poisson_root_value():
    # largest root of 4 log(t) - 2 (t - 1) = 0 besides t = 1, via an
    # independent bracketing solve
    want = brentq(lambda t: 4 * math.log(t) - 2 * (t - 1), 1.5, 20.0, xtol=1e-13)
    assert want == pytest.approx(3.512862417252341, abs=1e-9)
    state, roots = new_state(Direction.UP, 1.0, PO), []
    update_root_pruning(state, roots, 3.0, PO, 1e-12)
    update_root_pruning(state, roots, 1.0, PO, 1e-12)  # merges into {S=4, n=2}
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
        update_root_pruning(st_root, roots, GM.suff(x), GM, 1e-11)
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
        update_root_pruning(st_root, roots, PO.suff(x), PO, 1e-11, root_logs)
        stored += len(st_root.records)
    assert [tau for tau, *_ in st_mean.records] == [tau for tau, *_ in st_root.records]
    assert st_mean.counters.transcendental_calls == 0  # mean pruning never takes logs
    assert root_logs.transcendental_calls > 2 * st_root.total_count
    # the root solves' logs are counted apart; the state counts what it stores
    assert st_root.counters == CounterSet(300 - len(st_root.records), stored, 0, 0)


def test_root_pruning_requires_known_theta0():
    state = new_state(Direction.UP, None, GM)
    with pytest.raises(ValueError):
        update_root_pruning(state, [], 1.0, GM, 1e-9)


def root_and_mean_tau_sets(theta0, data, direction):
    """The candidate sets of root pruning and of `update` after each step, and the last roots."""
    st_mean = new_state(direction, theta0, GM)
    st_root, roots = new_state(direction, theta0, GM), []
    got, want = [], []
    for g in data:
        update(st_mean, g)
        update_root_pruning(st_root, roots, g, GM, 1e-9)
        got.append([tau for tau, *_ in st_root.records])
        want.append([tau for tau, *_ in st_mean.records])
    return got, want, roots


@pytest.mark.parametrize("direction", [Direction.UP, Direction.DOWN])
def test_root_pruning_finds_roots_far_from_theta0(direction):
    # the roots 2e60 and 6e60 lie past theta0 + 2^200 = 1.6e60, where a
    # search capped at 200 doubling probes returned the edge for both
    sign = direction.sign
    got, want, roots = root_and_mean_tau_sets(0.0, [sign * 1e60, sign * 3e60], direction)
    assert got == want == [[0], [0, 1]]
    assert roots == pytest.approx([sign * 2e60, sign * 6e60], rel=1e-12)


@pytest.mark.parametrize("direction", [Direction.UP, Direction.DOWN])
def test_root_pruning_from_theta0_near_overflow(direction):
    # every probe from theta0 = 1e300 overflows to +-inf within a few
    # doublings: the search stops there, at the domain edge, and raises nothing
    got, want, roots = root_and_mean_tau_sets(1e300, [1e300, 1.7e308, 1.0], direction)
    assert got == want
    assert roots == [math.inf * direction.sign] * len(got[-1])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="C(t) = t S - t^2 n / 2 overflows from t = 1.8e108 on, far below "
                          "the roots 2e200 and 6e200: both read as inf and tie")
def test_root_pruning_where_the_curve_overflows_before_its_root():
    got, want, _ = root_and_mean_tau_sets(0.0, [1e200, 3e200], Direction.UP)
    assert got == want == [[0], [0, 1]]


# family, pre-change theta (the known theta0), post-change thetas (above, below)
DIGEST_FAMILIES = {
    "gauss-mean": (GM, 0.0, (1.0, -1.0)),
    "gauss-var": (FamilySpec.gauss_var(), 1.0, (2.5, 0.4)),
    "poisson": (PO, 2.0, (3.5, 1.0)),
    "binomial-1": (FamilySpec.binomial(1), 0.5, (0.8, 0.2)),
    "binomial-4": (FamilySpec.binomial(4), 0.4, (0.65, 0.2)),
    "gamma-2": (FamilySpec.gamma(2.0), 1.0, (1.8, 0.5)),
}

# sha256 of what `update_root_pruning` leaves after every step: records, roots,
# newest mean, root log calls and counters.  Both directions and shifts to
# both sides at step 150, seeds 0-3, 400 steps; going down, every family but
# gauss-mean brackets against a closed lower domain edge.
ROOT_DIGESTS = {
    "binomial-1": "a5c8977fd5726097fbd2106b93461fbe753a99a42c67fed9ab52cb3b32adf8f9",
    "binomial-4": "73ab260bd3cd1ba67f46a05bbe7c39d60a8d460ad042c33e1c3f460b60f8af02",
    "gamma-2": "f67a3e3e65db5f4c3b4f5b2105392587844450e95b0abf10342c6ea2b66e2d5e",
    "gauss-mean": "c9e9747b513b3d19197925da05be3cd4e155b2830d4fe9b91244f9ffef51f373",
    "gauss-var": "319c9b9d915b43452b59cc9ffb4aafe7614b754475321779eb878b4fcd812ab7",
    "poisson": "ad0e0c24017f570ecb71531c19535c14edf4d828a12b4ec11baa66437e69fe59",
}


def root_digest(name):
    spec, theta0, posts = DIGEST_FAMILIES[name]
    h = hashlib.sha256()
    for direction in (Direction.UP, Direction.DOWN):
        for post in posts:
            for seed in range(4):
                data = generate(Scenario(spec, theta0, post, 150, 400, seed))
                state, roots, root_logs = new_state(direction, theta0, spec), [], CounterSet()
                for x in data:
                    update_root_pruning(state, roots, spec.suff(x), spec, 1e-11, root_logs)
                    h.update(repr((state.records, roots, state.newest_mean,
                                   root_logs.transcendental_calls,
                                   astuple(state.counters))).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(DIGEST_FAMILIES))
def test_root_pruning_digest(name):
    assert root_digest(name) == ROOT_DIGESTS[name]
