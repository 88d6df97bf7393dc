"""The public API: the exported names, and the names the benchmark imports."""

import pickle

import pytest

import streamcpd
from streamcpd import Detection, Detector, DetectorConfig, Direction, FamilySpec, StepResult
from streamcpd.maxima import CheckOutcome

PUBLIC = [
    "CalibrationError",
    "DegenerateSegmentError",
    "DelayRun",
    "Detection",
    "Detector",
    "DetectorConfig",
    "Direction",
    "FamilyKind",
    "FamilySpec",
    "InsufficientDataError",
    "ParamDomainError",
    "Scenario",
    "StepResult",
    "StreamCpdError",
    "SupportError",
    "attach_bounds",
    "calibrate_threshold",
    "check",
    "counter_profile",
    "delay_experiment",
    "first_detection",
    "generate",
    "grid_q",
    "mean_delay",
    "naive_q",
    "new_state",
    "q_full",
    "step_states",
    "update",
]


def test_all_is_pinned():
    assert sorted(streamcpd.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(streamcpd, name), name


def test_benchmark_imports():
    # perfbench/worker.py
    from streamcpd import (  # noqa: F401
        CalibrationError,
        DelayRun,
        Detector,
        DetectorConfig,
        Scenario,
        StreamCpdError,
        calibrate_threshold,
        delay_experiment,
        generate,
    )
    from streamcpd import bench, cli

    # perfbench/tracing.py
    from streamcpd import (  # noqa: F401
        Detection,
        Direction,
        StepResult,
        SupportError,
        attach_bounds,
        check,
        new_state,
        q_full,
        update,
    )

    # perfbench/workloads.py
    from streamcpd import FamilyKind, FamilySpec  # noqa: F401

    # the module attributes the benchmark wraps or replaces
    for name in ("generate", "stat_running_max", "first_detection"):
        assert callable(getattr(bench, name))
    assert cli.Detector is Detector


def test_family_spec_pickles():
    for spec in (FamilySpec.gauss_mean(), FamilySpec.binomial(3), FamilySpec.gamma(2.5)):
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec
        assert back.conjugate(0.7) == spec.conjugate(0.7)


# The result types are named tuples: perfbench/tracing.py builds StepResult by
# keyword and Detection positionally, and the CLI unpacks StepResult.
_DETECTION = (12, 7, 21.5, Direction.UP)
RESULT_TYPES = [
    (StepResult, ("t", "detection", "stat", "curves_stored", "curves_evaluated"),
     (12, Detection(*_DETECTION), None, 4, 2)),
    (Detection, ("t_detect", "tau_low", "stat", "direction_hit"), _DETECTION),
    (CheckOutcome, ("changed", "tau_low", "t_now", "stat", "curves_evaluated", "bound_used"),
     (True, 7, 12, 21.5, 2, 30.25)),
]


@pytest.mark.parametrize("cls, fields, values", RESULT_TYPES, ids=[c.__name__ for c, _, _ in RESULT_TYPES])
def test_result_type_contract(cls, fields, values):
    assert cls._fields == fields
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert by_position == by_keyword
    assert tuple(by_position) == values
    assert [getattr(by_keyword, f) for f in fields] == list(values)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(by_position, f, None)
    back = pickle.loads(pickle.dumps(by_position))
    assert type(back) is cls and back == by_position
    moved = by_position._replace(**{fields[0]: 99})
    assert getattr(moved, fields[0]) == 99 and by_position == by_keyword
    assert by_position._asdict() == dict(zip(fields, values))


def test_detection_is_truthy_in_step_results():
    # README: `if res.detection:` tests for a detection
    det = Detector(DetectorConfig(FamilySpec.gauss_mean(), theta0=0.0, threshold=5.0, direction="up"))
    results = [det.step(x) for x in (0.1, -0.2, 4.0, 4.0, 4.0)]
    assert not results[0].detection
    hit = next(r for r in results if r.detection is not None)
    assert hit.detection
    assert Detection(1, 0, 0.0, Direction.DOWN)
    t, detection, stat, curves_stored, curves_evaluated = hit
    assert detection is hit.detection and t == hit.t
