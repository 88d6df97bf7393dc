"""Deterministic generators: reproducibility and distributional sanity."""

import re
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.special
import scipy.stats

from streamcpd import FamilySpec, Scenario, generate, simulate
from streamcpd.simulate import _CHUNK, _draws, _open_uniforms

GM = FamilySpec.gauss_mean()
GV = FamilySpec.gauss_var()
PO = FamilySpec.poisson()
BI = FamilySpec.binomial(6)
GA = FamilySpec.gamma(2.0)


def test_same_seed_bit_identical():
    scen = Scenario(PO, 1.0, 2.0, 200, 500, seed=42)
    a = generate(scen)
    b = generate(scen)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = generate(Scenario(GM, 0.0, 0.0, 0, 100, seed=1))
    b = generate(Scenario(GM, 0.0, 0.0, 0, 100, seed=2))
    assert not np.array_equal(a, b)


def test_poisson_null_mean_within_lln_band():
    x = generate(Scenario(PO, 1.0, 1.0, 0, 500, seed=7))
    assert len(x) == 500
    assert np.all(x == np.floor(x)) and np.all(x >= 0)
    # 5 sigma band around the mean of 500 Poisson(1) draws
    assert abs(x.mean() - 1.0) <= 5 * np.sqrt(1.0 / 500)


def test_change_at_zero_is_pure_null():
    null = generate(Scenario(GM, 0.5, 99.0, 0, 300, seed=9))
    same = generate(Scenario(GM, 0.5, 0.5, 0, 300, seed=9))
    assert np.array_equal(null, same)  # theta_post is irrelevant without a change


def test_gauss_var_post_change_variance_band():
    scen = Scenario(GV, 1.0, 2.0, 1000, 5000, seed=11)
    x = generate(scen)
    post = x[1000:]
    var = post.var()
    # var of the sample variance of n N(0, theta) draws is ~ 2 theta^2 / n
    sd = np.sqrt(2 * 4.0 / len(post))
    assert abs(var - 2.0) <= 5 * sd
    pre = x[:1000]
    assert abs(pre.var() - 1.0) <= 5 * np.sqrt(2 / 1000)


def test_binomial_and_gamma_support():
    xb = generate(Scenario(BI, 0.3, 0.6, 50, 200, seed=3))
    BI.suff_arr(xb)  # raises if outside the support
    xg = generate(Scenario(GA, 1.0, 2.0, 50, 200, seed=3))
    GA.suff_arr(xg)
    assert np.all(xg > 0)


def test_change_point_semantics():
    scen = Scenario(GM, 0.0, 50.0, 10, 20, seed=5)
    x = generate(scen)
    assert np.all(x[:10] < 25) and np.all(x[10:] > 25)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(GM, 0.0, 0.0, 30, 20, seed=1)
    with pytest.raises(ValueError):
        Scenario(PO, -1.0, 1.0, 0, 10, seed=1)
    with pytest.raises(ValueError):
        Scenario(PO, 1.0, -2.0, 5, 10, seed=1)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        Scenario(PO, 1.0, 1.0, 0, 10, seed=-1)


@pytest.mark.parametrize("field, args", [
    ("change_at", (2.5, 10, 1)),
    ("length", (0, 2.5, 1)),
    ("seed", (0, 10, 1.5)),
])
def test_scenario_rejects_non_integer_sizes(field, args):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        Scenario(GM, 0.0, 0.0, *args)


def test_scenario_takes_numpy_integers():
    a = generate(Scenario(GM, 0.0, 1.0, np.int64(5), np.int32(10), np.uint64(3)))
    assert np.array_equal(a, generate(Scenario(GM, 0.0, 1.0, 5, 10, 3)))


@pytest.mark.parametrize("spec, theta_pre, theta_post, change_at, bad", [
    (PO, 1e20, 1e20, 0, "1e+20"),  # the quantile map returns NaN
    (FamilySpec.gamma(1.0), 1e308, 1e308, 0, "1e+308"),  # the draws overflow to inf
    (PO, 1.0, 1e20, 2, "1e+20"),  # only the post-change part is non-finite
], ids=["poisson-nan", "gamma-inf", "poisson-post-change"])
def test_non_finite_stream_names_theta(spec, theta_pre, theta_post, change_at, bad):
    with pytest.raises(ValueError, match=re.escape(f"theta={bad} gives non-finite")):
        generate(Scenario(spec, theta_pre, theta_post, change_at, 3, seed=1))


def test_gamma_draws_that_underflow_name_theta_and_shape():
    # about half the draws at shape 0.001 lie below the smallest double and
    # round to 0, outside the gamma support; no draw is clamped
    spec = FamilySpec.gamma(0.001)
    with pytest.raises(ValueError, match="^theta=1.0 gives out-of-support gamma observations at shape 0.001$"):
        generate(Scenario(spec, 1.0, 1.0, 0, 3, seed=1))


# ------------------------------------------------------------------
# the Poisson and binomial quantile: an exact search on scipy.special's CDFs,
# checked against scipy.stats, which the library itself never imports
# ------------------------------------------------------------------


def _uniforms(n, seed):
    return _open_uniforms(np.random.Generator(np.random.PCG64(seed)), n)


_INTEGRAL = [(PO, theta) for theta in (1e-6, 0.5, 2.0, 33.0, 1e5)] + [
    (FamilySpec.binomial(n), p) for n in (1, 3, 50, 10**6) for p in (1e-9, 0.3, 0.5, 0.99)]


def _ids(cases):
    return [f"{spec.kind.value}{spec.trials or ''}-{theta:g}" for spec, theta in cases]


def _reference(spec, theta, u):
    if spec.trials is None:
        return scipy.stats.poisson.ppf(u, theta)
    return scipy.stats.binom.ppf(u, spec.trials, theta)


def _cdf(spec, theta, k):
    if spec.trials is None:
        return scipy.special.pdtr(k, theta)
    return scipy.stats.binom.cdf(k, spec.trials, theta)


@pytest.mark.parametrize("spec, theta", _INTEGRAL, ids=_ids(_INTEGRAL))
def test_integral_quantile_equals_scipy_stats(spec, theta):
    u = _uniforms(10**5, seed=17)
    assert np.array_equal(spec.inverse_cdf(theta, u), _reference(spec, theta, u))


@pytest.mark.parametrize("trials, theta", [(10**8, 0.5), (10**10, 0.3), (2**40, 1e-9)])
def test_binomial_quantile_with_many_trials_equals_scipy_stats(trials, theta):
    # scipy.special.bdtr is off by up to 0.1 at 1e8 trials and NaN past 2**31
    u = _uniforms(2000, seed=19)
    spec = FamilySpec.binomial(trials)
    assert np.array_equal(spec.inverse_cdf(theta, u), _reference(spec, theta, u))


_EXTREME = [(PO, theta) for theta in (1e-6, 2.0, 33.0, 1e5, 1e14)] + [
    (FamilySpec.binomial(n), p) for n in (1, 50, 10**6) for p in (1e-9, 0.5, 0.99)]


@pytest.mark.parametrize("spec, theta", _EXTREME, ids=_ids(_EXTREME))
def test_integral_quantile_is_the_smallest_k_at_extreme_uniforms(spec, theta):
    # the smallest and largest uniforms the generator draws; scipy.stats
    # overshoots at the top one, where its CDF saturates at 1
    u = np.array([2.0**-53, 1.0 - 2.0**-53])
    k = spec.inverse_cdf(theta, u)
    assert np.all(k == np.floor(k)) and np.all(k >= 0)
    assert np.all(_cdf(spec, theta, k) >= u)
    assert np.all((k == 0) | (_cdf(spec, theta, np.maximum(k - 1, 0)) < u))


@pytest.mark.parametrize("spec", [PO, BI])
def test_integral_quantile_of_no_uniforms_is_empty(spec):
    assert spec.inverse_cdf(0.5, np.empty(0)).shape == (0,)
    assert generate(Scenario(spec, 0.5, 0.5, 0, 0, seed=1)).shape == (0,)


def test_poisson_draws_at_a_huge_mean_are_finite_and_fast():
    # scipy.stats returns NaN here; the search needs O(log) CDF calls a draw
    start = time.perf_counter()
    x = generate(Scenario(PO, 1e12, 1e12, 0, 1000, seed=3))
    assert time.perf_counter() - start < 1.0
    assert np.all(np.isfinite(x)) and np.all(np.abs(x - 1e12) <= 1e7)


# ------------------------------------------------------------------
# block draws: `_draws` maps a block of seeds' uniforms at once, and each
# row is the one-seed stream bit for bit
# ------------------------------------------------------------------


_DRAW_FAMILIES = [(GM, 0.0, 1.5), (GV, 1.0, 3.0), (PO, 2.0, 4.0), (BI, 0.3, 0.6), (GA, 1.0, 2.0)]


def _one_stream(scen):
    # the draw procedure one seed at a time: its own uniforms, one inverse
    # CDF call per segment
    u = _uniforms(scen.length, scen.seed)
    inv, cut = scen.spec.inverse_cdf, scen.change_at
    if cut == 0:
        return inv(scen.theta_pre, u)
    return np.concatenate([inv(scen.theta_pre, u[:cut]), inv(scen.theta_post, u[cut:])])


def _check_blocks(scen, seeds):
    blocks = list(_draws(scen, seeds))
    step = max(1, simulate._CHUNK // max(scen.length, 1))
    assert [len(b) for b in blocks] == [min(step, len(seeds) - lo) for lo in range(0, len(seeds), step)]
    rows = [row for b in blocks for row in b]
    for seed, row in zip(seeds, rows, strict=True):
        one = replace(scen, seed=seed)
        assert row.dtype == np.float64
        assert row.tobytes() == generate(one).tobytes() == _one_stream(one).tobytes()
    return blocks


@pytest.mark.parametrize("length", [0, 1, 7, 60])
@pytest.mark.parametrize("where", ["none", "interior", "end"])
@pytest.mark.parametrize("family", range(len(_DRAW_FAMILIES)),
                         ids=[f[0].kind.value for f in _DRAW_FAMILIES])
def test_block_rows_are_the_one_seed_streams(monkeypatch, family, where, length):
    # a 50-value budget: 20 seeds of 7 draws span three blocks, and a
    # 60-draw stream is a block of its own
    monkeypatch.setattr(simulate, "_CHUNK", 50)
    spec, pre, post = _DRAW_FAMILIES[family]
    cut = {"none": 0, "interior": length // 2, "end": length}[where]
    blocks = _check_blocks(Scenario(spec, pre, post, cut, length, seed=0), [3 * i + 1 for i in range(20)])
    assert len(blocks) == {0: 1, 1: 1, 7: 3, 60: 20}[length]


@pytest.mark.parametrize("length, reps", [(300, 60), (_CHUNK + 5, 2)])
def test_block_rows_at_the_real_block_size(length, reps):
    # reps x length past the budget: blocks of 54 rows, or one row a block
    for spec, pre, post in _DRAW_FAMILIES[:2]:
        blocks = _check_blocks(Scenario(spec, pre, post, length // 3, length, seed=0), list(range(reps)))
        assert len(blocks) == 2


def test_no_seeds_no_blocks():
    assert list(_draws(Scenario(GM, 0.0, 0.0, 0, 10, seed=0), [])) == []


@pytest.mark.parametrize("spec, theta_pre, theta_post, change_at, length", [
    (FamilySpec.gamma(0.01), 1.0, 1.0, 0, 40),  # draws that underflow to 0
    (FamilySpec.gamma(0.01), 1.0, 2.0, 20, 40),  # ... after the change only
    (FamilySpec.gamma(1.0), 1.0, 1e308, 1, 2),  # draws that overflow after the change
    (FamilySpec.gamma(1.0), 1e308, 1.0, 1, 2),  # ... before it
    (PO, 1.0, 1e20, 2, 3),  # every row non-finite after the change
], ids=["gamma-zero", "gamma-zero-post", "gamma-inf-post", "gamma-inf-pre", "poisson-nan-post"])
def test_block_error_is_that_of_the_first_bad_seed(spec, theta_pre, theta_post, change_at, length):
    scen = Scenario(spec, theta_pre, theta_post, change_at, length, seed=0)
    seeds = list(range(40))
    for i, seed in enumerate(seeds):
        try:
            generate(replace(scen, seed=seed))
        except ValueError as e:
            want = str(e)
            break
    assert i > 0 or spec is PO  # the first bad replicate is not the first row
    with pytest.raises(ValueError) as info:
        list(_draws(scen, seeds))
    assert str(info.value) == want
