"""The library's statistic against exact references (tests/reference.py).

Each known defect of the statistic is a strict xfail that names the step of
the ROADMAP's item 1 that is to mend it, so that the step turns it green.
"""

from dataclasses import astuple

import pytest

from reference import gauss_mean_statistic
from streamcpd import Detector, DetectorConfig, FamilySpec, Scenario, StreamCpdError, generate

GM = FamilySpec.gauss_mean()

# a 20000-point null gauss-mean stream shifted by a constant, direction both:
# the exact final statistic of the shifted floats, theta0 unknown and theta0 =
# the shift
SHIFT_TABLE = {
    (0.0, False): 5.046115454160111,
    (0.0, True): 4.954569638013436,
    (1e7, False): 5.046115455576956,
    (1e7, True): 4.954569639334964,
    (1e9, False): 5.0461153745642315,
    (1e9, True): 4.954569557848136,
}
STEP_1A = pytest.mark.xfail(strict=True, raises=AssertionError,
                            reason="step 1a of item 1: gauss-mean is not centred, so a shift "
                                   "cancels in the prefix sums")


@pytest.fixture(scope="module")
def null_stream():
    return generate(Scenario(GM, 0.0, 0.0, 0, 20_000, seed=7))


@pytest.mark.parametrize("shift, known", [
    pytest.param(shift, known, marks=[] if shift == 0.0 else STEP_1A, id=f"{shift:g}-{'known' if known else 'unknown'}")
    for shift, known in SHIFT_TABLE])
def test_shifted_statistic_is_exact(null_stream, shift, known):
    x = (null_stream + shift).tolist()
    theta0 = shift if known else None
    exact = gauss_mean_statistic(x, theta0)
    assert float(exact) == SHIFT_TABLE[shift, known]
    det = Detector(DetectorConfig(GM, theta0, 1e300, "both"))
    for v in x:
        det.step(v)
    assert abs(det.statistic() - exact) <= 1e-12 * exact


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="step 1b of item 1: a degenerate segment raises after the states have advanced")
@pytest.mark.parametrize("known", [True, False], ids=["known", "unknown"])
@pytest.mark.parametrize("spec, xs", [
    (FamilySpec.gauss_var(), [1e10, 1e-10]),
    (FamilySpec.gamma(2.0), [1.0, 1e-300]),
    (FamilySpec.gamma(2.0), [1.0, 1e308, 1.0]),
], ids=["gauss-var", "gamma-tiny", "gamma-huge"])
def test_degenerate_step_leaves_the_detector_unchanged(spec, xs, known):
    # prefix-sum cancellation leaves a segment mean of 0 at the last value
    det = Detector(DetectorConfig(spec, 1.0 if known else None, 20.0, "both"))
    for v in xs[:-1]:
        det.step(v)
    before = det.t, [repr(astuple(st)) for st in det.states]
    with pytest.raises(StreamCpdError):
        det.step(xs[-1])
    assert (det.t, [repr(astuple(st)) for st in det.states]) == before


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="step 1c of item 1, or a stopgap: an overflowing statistic, "
                          "inf - inf = NaN, reads as 0")
def test_overflowing_statistic_detects_or_raises():
    # the exact doubled statistic at step 2 is 1e400 - 1e400 / 2, past every threshold
    det = Detector(DetectorConfig(GM, None, 10.0, "both"))
    try:
        fired = [det.step(v).detection is not None for v in (0.0, 1e200, 0.0, 1.0, 1.0)]
    except StreamCpdError:
        return
    assert any(fired)
