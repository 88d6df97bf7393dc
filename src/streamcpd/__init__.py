"""Streaming changepoint detection for one-parameter exponential families.

Exact online generalized likelihood-ratio tests with functional pruning and
adaptive maxima checking: amortized constant cost per observation.
"""

from .bench import (
    DelayRun,
    calibrate_threshold,
    counter_profile,
    delay_experiment,
    first_detection,
    mean_delay,
)
from .detector import Detection, Detector, DetectorConfig, StepResult, step_states
from .errors import (
    CalibrationError,
    DegenerateSegmentError,
    InsufficientDataError,
    ParamDomainError,
    StreamCpdError,
    SupportError,
)
from .families import Direction, FamilyKind, FamilySpec
from .maxima import attach_bounds, check
from .oracle import grid_q, naive_q
from .pruning import new_state, q_full, update
from .simulate import Scenario, generate

__all__ = [
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
