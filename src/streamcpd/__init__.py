"""Streaming changepoint detection for one-parameter exponential families.

Exact online generalized likelihood-ratio tests with functional pruning and
adaptive maxima checking: amortized constant cost per observation.

The exports below are resolved on first access (PEP 562), so importing the
package, or only the detector, loads neither numpy nor scipy; the Monte
Carlo names (`bench`, `simulate`) bring them in when used.
"""

import importlib

# exported name -> submodule that defines it
_EXPORTS = {
    "DelayRun": "bench",
    "calibrate_threshold": "bench",
    "counter_profile": "bench",
    "delay_experiment": "bench",
    "mean_delay": "bench",
    "Detection": "detector",
    "Detector": "detector",
    "DetectorConfig": "detector",
    "StepResult": "detector",
    "step_states": "detector",
    "CalibrationError": "errors",
    "DegenerateSegmentError": "errors",
    "InsufficientDataError": "errors",
    "ParamDomainError": "errors",
    "StreamCpdError": "errors",
    "SupportError": "errors",
    "Direction": "families",
    "FamilyKind": "families",
    "FamilySpec": "families",
    "attach_bounds": "maxima",
    "check": "maxima",
    "new_state": "pruning",
    "q_full": "pruning",
    "update": "pruning",
    "Scenario": "simulate",
    "generate": "simulate",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
