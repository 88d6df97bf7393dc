"""The public API: the exported names, and the names the benchmark imports."""

import pickle

import streamcpd
from streamcpd import FamilySpec

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
