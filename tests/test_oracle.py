"""The exhaustive reference implementations checked against a direct 2-D grid."""

import numpy as np
import pytest

from oracle import conjugate_arr, grid_q, naive_q, naive_q_path
from streamcpd import Direction, FamilySpec
from test_families import ALL, random_theta

GM = FamilySpec.gauss_mean()
PO = FamilySpec.poisson()


def dense_2d_search(spec, theta0, direction, data, n_theta=4001):
    """Max over every (tau, theta1) pair on a dense directional grid."""
    best = 0.0
    a0, b0 = spec.alpha(theta0), spec.beta_fn(theta0)
    if direction is Direction.UP:
        thetas = np.linspace(theta0 + 1e-5, theta0 + 8.0, n_theta)
    else:
        thetas = np.linspace(theta0 - 8.0, theta0 - 1e-5, n_theta)
    g = [spec.suff(x) for x in data]
    for tau in range(len(data)):
        S = sum(g[tau:])
        n = len(data) - tau
        vals = (np.array([spec.alpha(t) for t in thetas]) - a0) * S
        vals -= (np.array([spec.beta_fn(t) for t in thetas]) - b0) * n
        best = max(best, float(vals.max()))
    return best


def test_naive_q_example_and_2d_grid():
    res = naive_q(GM, 0.0, Direction.UP, [1.0, 0.5])
    assert res.q == pytest.approx(0.5625, abs=1e-12)
    assert res.tau_hat == 0
    # one-time verification against a dense (tau, theta1) grid search
    assert res.q == pytest.approx(dense_2d_search(GM, 0.0, Direction.UP, [1.0, 0.5]), abs=1e-7)


def test_naive_q_constant_at_null_mean():
    res = naive_q(PO, 2.0, Direction.UP, [2.0, 2.0, 2.0, 2.0])
    assert res.q == 0.0
    assert res.tau_hat is None


def test_naive_q_unknown_length_one():
    res = naive_q(GM, None, Direction.UP, [3.0])
    assert res.q == 0.0
    assert res.tau_hat is None
    assert res.per_tau == []


def test_naive_q_unknown_example():
    res = naive_q(GM, None, Direction.UP, [0.0, 0.0, 2.0])
    assert res.q == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert res.tau_hat == 2


def test_per_tau_consistency():
    rng = np.random.default_rng(0)
    data = rng.normal(0.2, 1.0, 40)
    res = naive_q(GM, 0.0, Direction.UP, data)
    assert res.q == max(m for _, m in res.per_tau)
    assert all(m >= 0 for _, m in res.per_tau)


def test_naive_q_path_matches_per_step_calls():
    rng = np.random.default_rng(1)
    data = rng.poisson(1.0, 60).astype(float)
    for theta0 in (1.0, None):
        for d in (Direction.UP, Direction.DOWN):
            qs, taus = naive_q_path(PO, theta0, d, data)
            for t in range(1, len(data) + 1):
                res = naive_q(PO, theta0, d, data[:t])
                assert qs[t - 1] == res.q
                assert taus[t - 1] == (res.tau_hat if res.tau_hat is not None else -1)


# ------------------------------------------------------------------
# grid_q
# ------------------------------------------------------------------


def test_grid_q_with_mle_in_grid_equals_naive():
    data = [1.0, 0.5]
    res = naive_q(GM, 0.0, Direction.UP, data)
    # tau=0 attains the max with theta1_hat = gbar = 0.75
    val = grid_q(GM, 0.0, Direction.UP, data, [0.25, 0.75, 1.5])
    assert val == res.q


def test_grid_q_coarse_below_and_refinement_monotone():
    rng = np.random.default_rng(2)
    data = rng.normal(0.5, 1.0, 30)
    res = naive_q(GM, 0.0, Direction.UP, data)
    coarse = grid_q(GM, 0.0, Direction.UP, data, [0.5, 1.0])
    finer = grid_q(GM, 0.0, Direction.UP, data, [0.25, 0.5, 0.75, 1.0, 1.25])
    assert coarse <= res.q + 1e-15
    assert finer <= res.q + 1e-15
    assert finer >= coarse  # superset grid can only improve


@pytest.mark.parametrize("spec,theta0,gen", [
    (GM, 0.0, lambda rng, n: rng.normal(0.4, 1.0, n)),
    (PO, 1.0, lambda rng, n: rng.poisson(1.5, n).astype(float)),
])
def test_grid_q_converges_to_naive(spec, theta0, gen):
    rng = np.random.default_rng(3)
    data = gen(rng, 50)
    res = naive_q(spec, theta0, Direction.UP, data)
    grid = np.arange(theta0 + 1e-4, theta0 + 4.0, 1e-4)
    val = grid_q(spec, theta0, Direction.UP, data, grid)
    assert val <= res.q + 1e-15
    assert res.q - val <= 1e-6


def test_grid_q_rejects_off_side_points():
    with pytest.raises(ValueError):
        grid_q(GM, 0.0, Direction.UP, [1.0], [-0.5, 0.5])


# ------------------------------------------------------------------
# conjugate_arr
# ------------------------------------------------------------------


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.kind.value)
def test_conjugate_arr_matches_scalar(spec):
    rng = np.random.default_rng(11)
    gs = np.array([spec.mean_suff(random_theta(spec, rng)) for _ in range(40)])
    arr = conjugate_arr(spec, gs)
    # numpy's log may differ from math.log in the last bit: where the
    # column's bound is 0 its value is the scalar one, elsewhere within it
    _, bound = spec.conjugate_arr(gs)
    for g, v, d in zip(gs, arr, bound):
        want = spec.conjugate(float(g))
        if d == 0.0:
            assert v.tobytes() == np.float64(want).tobytes()
        else:
            assert abs(v - want) <= d
