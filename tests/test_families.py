"""Closed-form family quantities against numeric maximisation oracles."""

import math
import re
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from streamcpd import families
from streamcpd import (
    DegenerateSegmentError,
    Direction,
    FamilySpec,
    ParamDomainError,
    SupportError,
)
from streamcpd.errors import MeanRangeError
from streamcpd.pruning import curve_m, new_state

GM = FamilySpec.gauss_mean()
GV = FamilySpec.gauss_var()
PO = FamilySpec.poisson()
BI4 = FamilySpec.binomial(4)
GA = FamilySpec.gamma(2.0)


def theta_grid(spec):
    if spec.kind.value == "gauss-mean":
        return np.linspace(-3.0, 3.0, 25)
    if spec.kind.value == "binomial":
        return np.linspace(0.05, 0.95, 25)
    return np.geomspace(0.1, 5.0, 25)


def random_theta(spec, rng):
    if spec.kind.value == "gauss-mean":
        return float(rng.normal(0, 2))
    if spec.kind.value == "binomial":
        return float(rng.uniform(0.05, 0.95))
    return float(rng.uniform(0.2, 4.0))


ALL = [GM, GV, PO, BI4, GA]


# ------------------------------------------------------------------
# table values
# ------------------------------------------------------------------


def test_alpha_values():
    assert PO.alpha(2.0) == pytest.approx(math.log(2), abs=1e-12)
    assert GM.alpha(0.0) == 0.0
    assert FamilySpec.gamma(1.0).alpha(1.0) == -1.0
    assert GV.alpha(2.0) == -0.25
    assert FamilySpec.binomial(1).alpha(0.5) == pytest.approx(0.0, abs=1e-15)


def test_beta_values():
    assert PO.beta_fn(1.0) == 1.0
    assert GM.beta_fn(0.0) == 0.0
    # cross-check against the Bernoulli(0.5) log-density normalization
    assert FamilySpec.binomial(1).beta_fn(0.5) == pytest.approx(-math.log(0.5), rel=1e-12)
    assert GV.beta_fn(1.0) == 0.0
    assert GA.beta_fn(1.0) == 0.0


def test_alpha_beta_domain_errors():
    for spec, bad in [(PO, 0.0), (PO, -1.0), (GV, -2.0), (BI4, 1.0), (GA, 0.0)]:
        with pytest.raises(ParamDomainError):
            spec.alpha(bad)
        with pytest.raises(ParamDomainError):
            spec.beta_fn(bad)


def test_suff():
    assert GV.suff(-3.0) == 9.0
    assert PO.suff(0.0) == 0.0
    assert GM.suff(-1.5) == -1.5
    assert GA.suff(2.5) == 2.5
    with pytest.raises(SupportError):
        BI4.suff(5.0)
    with pytest.raises(SupportError):
        PO.suff(1.5)
    with pytest.raises(SupportError):
        PO.suff(-1.0)
    with pytest.raises(SupportError):
        GA.suff(0.0)


def test_mean_suff_values():
    assert PO.mean_suff(3.0) == 3.0
    assert FamilySpec.binomial(10).mean_suff(0.2) == pytest.approx(2.0)
    assert FamilySpec.gamma(2.0).mean_suff(1.5) == pytest.approx(3.0)
    assert GV.mean_suff(2.5) == 2.5


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.kind.value)
def test_mean_suff_matches_finite_difference(spec):
    # mu = b'/a' via central differences of b and a themselves
    for theta in theta_grid(spec):
        h = 1e-6 * max(1.0, abs(theta))
        num = spec.beta_fn(theta + h) - spec.beta_fn(theta - h)
        den = spec.alpha(theta + h) - spec.alpha(theta - h)
        assert num / den == pytest.approx(spec.mean_suff(theta), rel=1e-6)


# ------------------------------------------------------------------
# conjugate
# ------------------------------------------------------------------


def numeric_conjugate(spec, gbar):
    lo, hi = spec.param_domain
    lo = lo + 1e-9 if math.isfinite(lo) else -60.0
    hi = hi - 1e-9 if math.isfinite(hi) else 60.0
    r = minimize_scalar(
        lambda t: -(spec.alpha(t) * gbar - spec.beta_fn(t)),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-13},
    )
    return -r.fun


def test_conjugate_values():
    assert GM.conjugate(1.0) == 0.5
    assert PO.conjugate(0.0) == 0.0
    b1 = FamilySpec.binomial(1)
    # frozen from the numeric maximisation of a(t)*0.75 - b(t) over (0, 1)
    assert b1.conjugate(0.75) == pytest.approx(-0.5623351446188083, abs=1e-12)
    assert b1.conjugate(0.75) == pytest.approx(numeric_conjugate(b1, 0.75), abs=1e-9)
    assert b1.conjugate(0.0) == 0.0 and b1.conjugate(1.0) == 0.0
    with pytest.raises(DegenerateSegmentError):
        GA.conjugate(0.0)
    with pytest.raises(DegenerateSegmentError):
        GV.conjugate(-1.0)
    with pytest.raises(MeanRangeError):
        PO.conjugate(-0.5)


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.kind.value)
def test_conjugate_against_numeric_maximisation(spec):
    rng = np.random.default_rng(5)
    for _ in range(25):
        theta = random_theta(spec, rng)
        g = spec.mean_suff(theta) * rng.uniform(0.5, 1.5)
        if spec is BI4:
            g = min(g, 3.9)
        assert spec.conjugate(g) == pytest.approx(numeric_conjugate(spec, g), abs=1e-8)


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.kind.value)
def test_conjugate_at_mean_identity(spec):
    # A(mu(theta)) == alpha(theta) mu(theta) - beta(theta), 1e-12 relative
    for theta in theta_grid(spec):
        mu = spec.mean_suff(theta)
        lhs = spec.conjugate(mu)
        rhs = spec.alpha(theta) * mu - spec.beta_fn(theta)
        assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.kind.value)
def test_conjugate_convex_and_bregman_nonneg(spec):
    thetas = theta_grid(spec)
    mus = [spec.mean_suff(t) for t in thetas]
    for g1, g2 in zip(mus, mus[1:]):
        mid = 0.5 * (g1 + g2)
        assert spec.conjugate(mid) <= 0.5 * (spec.conjugate(g1) + spec.conjugate(g2)) + 1e-12
    theta0 = thetas[len(thetas) // 2]
    a0, b0, g0 = spec.alpha(theta0), spec.beta_fn(theta0), spec.mean_suff(theta0)
    for g in mus:
        gap = spec.conjugate(g) - (a0 * g - b0)
        assert gap >= -1e-12
        if g == g0:
            assert abs(gap) <= 1e-12
        elif abs(g - g0) > 1e-6 * max(1.0, abs(g0)):
            assert gap > 0


# ------------------------------------------------------------------
# directional segment statistic
# ------------------------------------------------------------------


def numeric_seg_lr(spec, theta0, S, n, direction):
    lo, hi = spec.param_domain
    if direction is Direction.UP:
        lo = theta0
        hi = hi - 1e-9 if math.isfinite(hi) else max(60.0, 10 * abs(theta0) + 60)
    else:
        hi = theta0
        lo = lo + 1e-9 if math.isfinite(lo) else min(-60.0, -10 * abs(theta0) - 60)
    a0, b0 = spec.alpha(theta0), spec.beta_fn(theta0)
    r = minimize_scalar(
        lambda t: -((spec.alpha(t) - a0) * S - (spec.beta_fn(t) - b0) * n),
        bounds=(lo + 1e-12 * max(1.0, abs(lo)), hi),
        method="bounded",
        options={"xatol": 1e-13},
    )
    return max(0.0, -r.fun)


def seg_lr(spec, theta0, sum_g, n, direction):
    """Statistic of a segment of n observations with g-sum ``sum_g``, theta0 known."""
    return curve_m(new_state(direction, theta0, spec), spec, 0, 0.0, n, sum_g)


def test_curve_m_known_examples():
    assert seg_lr(GM, 0.0, 2.0, 2, Direction.UP) == pytest.approx(1.0)
    # frozen from the numeric maximisation of 4 log(t) - 2(t - 1) over t > 1
    assert seg_lr(PO, 1.0, 4.0, 2, Direction.UP) == pytest.approx(4 * math.log(2) - 2, abs=1e-12)
    assert seg_lr(PO, 1.0, 0.0, 3, Direction.UP) == 0.0  # wrong side clamps


@given(st.floats(-3, 3), st.floats(-3, 3), st.integers(1, 20))
def test_seg_lr_nonnegative_and_one_sided(theta0, gbar, n):
    sum_g = gbar * n
    m_up = seg_lr(GM, theta0, sum_g, n, Direction.UP)
    m_dn = seg_lr(GM, theta0, sum_g, n, Direction.DOWN)
    assert m_up >= 0.0 and m_dn >= 0.0
    # the clamp keys off the reconstructed segment mean, which can land an
    # ulp away from gbar after the sum round-trip
    mean = sum_g / n
    if mean > theta0:
        assert m_dn == 0.0
    elif mean < theta0:
        assert m_up == 0.0
    else:
        assert m_up == 0.0 and m_dn == 0.0


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.kind.value)
@pytest.mark.parametrize("direction", [Direction.UP, Direction.DOWN])
def test_curve_m_known_matches_numeric_max(spec, direction):
    # a stable seed per case: str hashes are salted per process
    rng = np.random.default_rng(zlib.crc32(f"{spec.kind.value}/{direction.name}".encode()))
    for _ in range(50):
        theta0 = random_theta(spec, rng)
        theta_d = random_theta(spec, rng)
        n = int(rng.integers(1, 12))
        gbar = spec.mean_suff(theta_d)
        if spec is BI4:
            gbar = min(max(gbar, 0.05), 3.95)
        got = seg_lr(spec, theta0, gbar * n, n, direction)
        want = numeric_seg_lr(spec, theta0, gbar * n, n, direction)
        assert got == pytest.approx(want, abs=1e-6)
        assert got >= 0.0


# ------------------------------------------------------------------
# monotonicity diagnostic
# ------------------------------------------------------------------


def monotone(spec, theta0, grid):
    """True iff t -> (b(t) - b(t0)) / (a(t) - a(t0)) strictly increases on the grid.

    The mean-comparison pruning rule relies on this; it holds analytically
    for every family, so it is checked here rather than at construction.
    """
    a0 = spec.alpha(theta0)
    b0 = spec.beta_fn(theta0)
    ratios = [(spec.beta_fn(t) - b0) / (spec.alpha(t) - a0) for t in grid]
    return all(r1 < r2 for r1, r2 in zip(ratios, ratios[1:]))


def probe_grid(spec, theta0):
    """A small sorted grid around theta0, inside the domain, excluding theta0."""
    if spec.kind.value == "gauss-mean":
        grid = [theta0 + o for o in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)]
    elif spec.kind.value == "binomial":
        grid = [theta0 * f for f in (0.25, 0.5, 0.8)]
        grid += [theta0 + (1.0 - theta0) * f for f in (0.2, 0.5, 0.75)]
    else:
        grid = [theta0 * f for f in (0.25, 0.5, 0.8, 1.25, 2.0, 4.0)]
    return sorted(t for t in grid if spec.in_domain(t) and t != theta0)


def test_monotone_examples():
    assert monotone(PO, 1.0, [0.5, 2.0, 4.0])
    assert monotone(GM, 0.0, [-1.0, 1.0, 2.0])
    assert monotone(GV, 1.0, [0.5, 2.0, 4.0])
    assert not monotone(PO, 1.0, [4.0, 2.0, 0.5])


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.kind.value)
def test_monotone_on_probe_grids(spec):
    rng = np.random.default_rng(3)
    for _ in range(10):
        theta0 = random_theta(spec, rng)
        grid = probe_grid(spec, theta0)
        assert len(grid) >= 3
        assert monotone(spec, theta0, grid)


# ------------------------------------------------------------------
# construction and support validation
# ------------------------------------------------------------------


def test_spec_construction_errors():
    with pytest.raises(ValueError):
        FamilySpec.binomial(0)
    with pytest.raises(ValueError):
        FamilySpec.gamma(-1.0)
    # a trial count that is not an integer or past 2**53, or a shape that makes log(gbar / inf)
    for trials in (2.5, 10**20, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"requires integer trials from 1 to 2\*\*53"):
            FamilySpec.binomial(trials)
    for shape in (math.inf, math.nan):
        with pytest.raises(ValueError, match="requires a finite shape > 0"):
            FamilySpec.gamma(shape)
    with pytest.raises(ValueError):
        FamilySpec(GM.kind, trials=3)
    with pytest.raises(ValueError):
        FamilySpec(PO.kind, shape=1.0)


def test_suff_arr_matches_scalar():
    data = np.array([0.0, 1.0, 3.0, 2.0])
    assert np.array_equal(BI4.suff_arr(data), data)
    x = np.array([-1.5, 0.5, 2.0])
    assert np.array_equal(GV.suff_arr(x), x * x)
    with pytest.raises(SupportError):
        PO.suff_arr(np.array([1.0, -2.0]))


# spec, a draw of n values in the support, whether -0.0 is in it, and
# values outside it besides the non-finite ones
_SUFF_CASES = {
    "gauss-mean": (GM, lambda rng, n: rng.normal(0.0, 1e3, n), True, []),
    "gauss-var": (GV, lambda rng, n: rng.normal(0.0, 1e3, n), False, [0.0, -0.0, 1e-200, 1e200]),
    "poisson": (PO, lambda rng, n: rng.poisson(3.0, n).astype(float), True, [-1.0, 2.5, -0.5]),
    "binomial": (BI4, lambda rng, n: rng.binomial(4, 0.5, n).astype(float), True, [-1.0, 2.5, 5.0]),
    "gamma": (GA, lambda rng, n: rng.gamma(2.0, 1.0, n), False, [0.0, -0.0, -1.0]),
}


def _scalar_suff(spec, x):
    return np.array([spec.suff(v) for v in x.tolist()], dtype=float)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # gauss-var squares that overflow warn nothing
@pytest.mark.parametrize("name", _SUFF_CASES)
def test_suff_arr_vector_test_is_the_scalar_loop(name):
    spec, draw, signed_zero, bad = _SUFF_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for n in (0, 1, 7, 300):
        x = draw(rng, n)
        if signed_zero and n:
            x[rng.integers(n)] = -0.0
        got = spec.suff_arr(x)
        assert got.dtype == float and got is not x
        assert got.tobytes() == _scalar_suff(spec, x).tobytes()  # bit for bit, signs of zero too
        stacked = x.reshape(30 if n == 300 else 1, -1)  # streams as rows, as the Monte Carlo kernels pass them
        rows = spec.suff_arr(stacked)
        assert rows.shape == stacked.shape and rows.tobytes() == got.tobytes()
    for v in [math.nan, math.inf, -math.inf, *bad]:
        x = draw(rng, 50)
        x[rng.integers(50)] = v
        with pytest.raises(SupportError) as scalar:
            _scalar_suff(spec, x)
        for shape in ((50,), (5, 10)):
            with pytest.raises(SupportError) as vector:
                spec.suff_arr(x.reshape(shape))
            assert str(vector.value) == str(scalar.value)


# ------------------------------------------------------------------
# the array conjugates and their bounds
# ------------------------------------------------------------------

# every family with a log, with binomial and gamma at a large and a small
# extra parameter
LOGGED = [GV, PO, BI4, FamilySpec.binomial(2**40), GA, FamilySpec.gamma(1e-3)]


def spread_means(spec, k, rng, top=308.0):
    """``4 * k`` means over the family's range whose log arguments lie near
    1, log-uniform from subnormal to 10**top, subnormal, and within two
    decades of 10**top.  Gamma means are k x, binomial means n x / (1 + x),
    so that g / k and the odds g / (n - g) take those values x; gauss-mean
    means are x with either sign."""
    x = np.concatenate([
        1.0 + np.concatenate([rng.uniform(-1e-3, 1e-3, k - k // 2), 1e-12 * rng.standard_normal(k // 2)]),
        10.0 ** rng.uniform(-323.0, top, k),
        2.0**-1022 * rng.uniform(0.0, 1.0, k),
        10.0 ** rng.uniform(top - 2.0, top, k),
    ])
    if spec.trials is not None:
        x = spec.trials * (x / (1.0 + x))
    elif spec.shape is not None:
        with np.errstate(over="ignore"):
            x = spec.shape * x
    x = x[(x > 0) & (x < math.inf)]
    return x * rng.choice([-1.0, 1.0], len(x)) if spec is GM else x


def log_arguments(spec, g):
    """What the family's conjugate takes the log of, at means ``g``."""
    if spec.trials is not None:
        n = spec.trials
        g = g[(g > 0) & (g < n)]
        return np.concatenate([g / (n - g), (n - g) / n])
    return g if spec.shape is None else g / spec.shape


@pytest.mark.parametrize("spec", LOGGED, ids=lambda s: f"{s.kind.value}-{s.trials or s.shape or ''}")
def test_log_gap_within_the_assumed_bound(spec):
    # the premise of every conjugate_arr bound: numpy's log is within
    # LOG_ULP_GAP ulps of math.log; a looser numpy must fail here rather
    # than move calibrated thresholds
    rng = np.random.default_rng(zlib.crc32(repr(spec).encode()))
    x = log_arguments(spec, spread_means(spec, 260_000, rng))
    x = x[(x > 0) & (x < math.inf)]
    assert len(x) >= 10**6
    want = np.fromiter(map(math.log, x.tolist()), float, len(x))
    got = np.log(x)
    assert np.array_equal(got[want == 0.0], want[want == 0.0])
    gap = np.abs(got - want)[want != 0.0] / np.spacing(np.abs(want[want != 0.0]))
    assert gap.max() <= families.LOG_ULP_GAP
    assert (got != want).any()  # the gap is there to be bounded


@pytest.mark.parametrize("spec", [GM, *LOGGED], ids=lambda s: f"{s.kind.value}-{s.trials or s.shape or ''}")
def test_conjugate_arr_bounds_hold(spec):
    rng = np.random.default_rng(zlib.crc32(repr(spec).encode()) + 1)
    # means where no value overflows, so the column stays on numpy
    g = spread_means(spec, 50_000, rng, top=150.0 if spec is GM else 300.0)
    if spec.trials is not None:
        g = np.concatenate([g, [0.0, float(spec.trials)]])
    elif spec is PO:
        g = np.concatenate([g, [0.0]])
    v, d = spec.conjugate_arr(g)
    want = np.fromiter(map(spec.conjugate, g.tolist()), float, len(g))
    assert np.all(np.abs(v - want) <= d)
    if spec is GM:
        assert v.tobytes() == want.tobytes() and not d.any()


def test_conjugate_arr_maps_the_scalar_form_outside_the_range():
    for spec, g in ((GV, [1.0, 0.0]), (PO, [2.0, -0.5]), (BI4, [1.0, 4.5]), (GA, [1.0, -1.0])):
        with pytest.raises(Exception) as scalar:
            spec.conjugate(g[1])
        with pytest.raises(type(scalar.value), match=re.escape(str(scalar.value))):
            spec.conjugate_arr(np.array(g))
    # a value that overflows falls back to the scalar form with a zero bound
    with np.errstate(over="ignore"):
        v, d = PO.conjugate_arr(np.array([1e308, 2.0]))
    assert v.tolist() == [PO.conjugate(1e308), PO.conjugate(2.0)] and not d.any()
