"""Workload definitions for the streamcpd benchmark.

A workload is a table of arms plus the sizes of its four phases.  An arm is
one detector configuration together with the model its data is drawn from.
Every workload runs every phase on its own arms:

* ``cli``: each arm's stream through ``streamcpd detect``, file to NDJSON;
* ``step``: the same stream through ``Detector.step`` in process;
* ``calibrate``: ``calibrate_threshold`` to ``target_arl`` for each arm
  with a ``delay_threshold``;
* ``delay``: ``delay_experiment`` for those arms at fixed thresholds near
  their calibrated ones, all on one scenario seed, so the arms are paired
  (on a null scenario this is a run-length study).

This module does not import streamcpd at module level, so the benchmark's
parent process can read the tables without importing the program.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

INTEGRAL_FAMILIES = ("poisson", "binomial")


@dataclass(frozen=True)
class Arm:
    """One detector configuration and the model its data is drawn from.

    ``sim_family`` differs from ``family`` only for a mean model fed squared
    data (``square``), as in the change-in-variance study.  ``theta0`` None
    means the pre-change parameter is unknown; the data are then simulated
    at ``theta_pre``.
    """

    label: str
    family: str
    theta0: float | None
    direction: str
    theta_pre: float
    theta_post: float
    trials: int | None = None
    shape: float | None = None
    sim_family: str | None = None
    square: bool = False
    # threshold of the delay phase; None keeps the arm out of the calibrate
    # and delay phases
    delay_threshold: float | None = None

    def spec(self, family: str | None = None):
        from streamcpd import FamilySpec, FamilyKind

        kind = FamilyKind(family or self.family)
        if kind is FamilyKind.BINOMIAL:
            return FamilySpec.binomial(self.trials)
        if kind is FamilyKind.GAMMA:
            return FamilySpec.gamma(self.shape)
        return FamilySpec(kind)

    def sim_spec(self):
        return self.spec(self.sim_family or self.family)

    def cli_flags(self, threshold: float) -> list[str]:
        flags = ["--family", self.family]
        if self.trials is not None:
            flags += ["--trials", str(self.trials)]
        if self.shape is not None:
            flags += ["--shape", repr(self.shape)]
        flags += [
            "--theta0", "unknown" if self.theta0 is None else repr(self.theta0),
            "--direction", self.direction,
            "--threshold", repr(threshold),
        ]
        return flags

    @property
    def calibrated(self) -> bool:
        return self.delay_threshold is not None

    def integral(self) -> bool:
        return self.family in INTEGRAL_FAMILIES and not self.square


@dataclass(frozen=True)
class Workload:
    name: str
    arms: tuple[Arm, ...]
    stream_len: int        # observations per arm in the cli and step phases
    change: bool           # cli/step streams shift halfway
    threshold: float       # cli/step threshold (doubled-LR scale)
    no_stop: bool
    target_arl: int
    cal_reps: int
    delay_len: int
    delay_change_at: int   # 0: null scenario, i.e. a run-length study
    delay_reps: int


# (family, trials, shape, theta_pre, theta_post); the shifts are large
# enough that almost every post-change step of detect-alarm detects
_FAMILIES = (
    ("gauss-mean", None, None, 0.0, 1.0),
    ("gauss-var", None, None, 1.0, 2.0),
    ("poisson", None, None, 2.0, 3.0),
    ("binomial", 1, None, 0.3, 0.5),
    ("gamma", None, 2.0, 1.0, 1.5),
)


# Arms of the detect workloads that also run the calibrate and delay phases,
# with their delay thresholds: two families with continuous data, one with
# theta0 known and one unknown.  Two, so that every phase repeats about
# fifteen times in a run.  For Poisson and binomial data the ARL is a step
# function of the threshold, and at a target of 100 calibrate_threshold can
# step over its +-10% band and raise CalibrationError, as it documents.
#
# Every delay threshold is the median of the arm's calibrated thresholds at
# ARL 100 over seeds 1-11.  The delay phase does not use the run's own
# calibration: that lands anywhere in its +-10% band (its bisection halves
# from 4 log 100, so the mean-on-squares threshold took values 27.6 to 36.8),
# and the delay phase's work would follow it from seed to seed.
_CALIBRATED = {"gauss-mean-known": 8.63, "gauss-var-unknown": 10.36}


def _family_arms() -> tuple[Arm, ...]:
    arms = []
    for fam, trials, shape, pre, post in _FAMILIES:
        for known in (True, False):
            label = f"{fam}-{'known' if known else 'unknown'}"
            arms.append(Arm(
                label=label, family=fam, theta0=pre if known else None, direction="both",
                theta_pre=pre, theta_post=post, trials=trials, shape=shape,
                delay_threshold=_CALIBRATED.get(label),
            ))
    return tuple(arms)


# The change-in-variance study of scripts/variance_delay_study.py (variance
# model against a mean model on squares, calibrated to a common ARL and run
# on identical data), plus the Poisson calibration with unknown theta0.
_VARIANCE_STUDY = (
    Arm("var", "gauss-var", 1.0, "both", 1.0, 1.5, delay_threshold=10.36),
    Arm("sq", "gauss-mean", 1.0, "both", 1.0, 1.5, sim_family="gauss-var", square=True,
        delay_threshold=32.24),
    Arm("poisson-unknown", "poisson", None, "up", 1.0, 2.0, delay_threshold=6.62),
)

# detect-null's delay phase is a run-length study censored at 50 steps.  The
# delay phases are many short replicates, so that the work they sum to varies
# little from seed to seed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="detect-null",
            arms=_family_arms(), stream_len=1000, change=False, threshold=1e12, no_stop=False,
            target_arl=100, cal_reps=50, delay_len=50, delay_change_at=0, delay_reps=120,
        ),
        Workload(
            name="detect-alarm",
            arms=_family_arms(), stream_len=1000, change=True, threshold=10.0, no_stop=True,
            target_arl=100, cal_reps=50, delay_len=40, delay_change_at=20, delay_reps=150,
        ),
        Workload(
            name="monte-carlo",
            arms=_VARIANCE_STUDY, stream_len=3000, change=True, threshold=1e12, no_stop=False,
            target_arl=100, cal_reps=50, delay_len=60, delay_change_at=30, delay_reps=100,
        ),
    )
}


def get(name: str, tiny: bool = False) -> Workload:
    """The named workload; ``tiny`` shrinks it to the smallest legal sizes."""
    wl = WORKLOADS[name]
    if tiny:
        wl = replace(
            wl, stream_len=200, target_arl=100, cal_reps=50,
            delay_len=min(wl.delay_len, 150), delay_change_at=min(wl.delay_change_at, 50), delay_reps=2,
        )
    return wl


def arm_seeds(seed: int, index: int) -> tuple[int, int]:
    """(stream seed, calibration seed) of an arm; the delay study uses
    ``delay_seed`` for every arm so paired arms see identical data."""
    return seed * 1000 + index, seed * 1000 + 100 + index


def delay_seed(seed: int) -> int:
    return seed * 1000 + 500
