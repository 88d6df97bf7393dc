"""Streaming detector orchestrating one or two directional pruning states."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import InsufficientDataError, SupportError
from .families import Direction, FamilySpec
from .maxima import _walk
from .pruning import PruneState, _absorb, new_state, q_full

_DIRECTIONS = {"up": (Direction.UP,), "down": (Direction.DOWN,), "both": (Direction.UP, Direction.DOWN)}


@dataclass(frozen=True)
class DetectorConfig:
    """Run configuration.

    ``theta0`` is the known pre-change parameter, or None to maximise it out.
    ``threshold`` is on the doubled (LR) scale.  ``stat_every`` emits the full
    statistic every k steps (0 = never).
    """

    spec: FamilySpec
    theta0: float | None
    threshold: float
    direction: str = "both"
    stat_every: int = 0
    stop_on_detect: bool = True

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"direction must be one of {sorted(_DIRECTIONS)}, got {self.direction!r}")
        if not self.threshold > 0:
            raise ValueError("threshold must be positive")
        if self.stat_every < 0:
            raise ValueError("stat_every must be non-negative")
        if self.theta0 is not None and not self.spec.in_domain(self.theta0):
            lo, hi = self.spec.param_domain
            raise ValueError(f"theta0={self.theta0!r} outside parameter domain ({lo}, {hi})")


class Detection(NamedTuple):
    t_detect: int
    tau_low: int
    stat: float
    direction_hit: Direction


def step_states(
    states: list[PruneState], spec: FamilySpec, g: float, threshold: float | None
) -> tuple[Detection | None, int, int]:
    """Absorb one sufficient statistic into every direction state, which
    must all have seen the same observations: `pruning._absorb` (`update`
    and `attach_bounds`) on each, then `maxima._walk` (`check`'s walk) on
    each if ``threshold`` is given and the statistic defined.  A threshold
    that is not positive raises ValueError first.  Returns the strongest
    detection (None without one), the curves the walks evaluated and the
    curves stored after the step.
    """
    if threshold is not None and not threshold > 0:
        raise ValueError("threshold must be positive")
    stored = 0
    for st in states:
        stored += _absorb(st, g, spec)
    detection = None
    evals = 0
    # with the pre-change parameter unknown the statistic needs at least
    # one point on each side of a split, so T < 2 can never detect
    if threshold is not None and (states[0].theta0 is not None or states[0].total_count >= 2):
        for st in states:
            tau, stat, n, _ = _walk(st, spec, threshold)
            evals += n
            if tau is not None and (detection is None or stat > detection.stat):
                detection = Detection(st.total_count, tau, stat, st.direction)
    return detection, evals, stored


class StepResult(NamedTuple):
    t: int
    detection: Detection | None
    stat: float | None
    curves_stored: int
    curves_evaluated: int


class Detector:
    """One detector = one stream.  Feed observations with `step`.

    After a detection with ``stop_on_detect`` false the state continues
    unchanged; restart policy is the caller's concern.
    """

    def __init__(self, config: DetectorConfig):
        self.config = config
        self.states: list[PruneState] = [
            new_state(d, config.theta0, config.spec) for d in _DIRECTIONS[config.direction]
        ]
        self._t = 0
        # what every step reads of the frozen config, bound once
        self._suff, self._spec, self._threshold = config.spec.suff, config.spec, config.threshold
        self._stat_every = config.stat_every
        self._need = 1 if config.theta0 is not None else 2  # observations the statistic needs

    @property
    def t(self) -> int:
        return self._t

    def step(self, x: float) -> StepResult:
        """Process one observation; returns counters and any detection.  Beyond
        `step_states` it costs `suff` and, every ``stat_every`` steps, `statistic`."""
        try:
            g = self._suff(x)
        except SupportError as e:
            raise SupportError(f"stream position {self._t + 1}: {e}") from e
        self._t = t = self._t + 1
        detection, evals, stored = step_states(self.states, self._spec, g, self._threshold)
        stat = None
        if self._stat_every and t % self._stat_every == 0 and self._stat_defined():
            stat = self.statistic()
        # tuple.__new__ skips the NamedTuple's Python-level __new__
        return tuple.__new__(StepResult, (t, detection, stat, stored, evals))

    def _stat_defined(self) -> bool:
        return self._t >= self._need

    def statistic(self) -> float:
        """Current doubled statistic; forces full evaluation of every curve."""
        if not self._stat_defined():
            raise InsufficientDataError(f"statistic undefined before {self._need} observations")
        return 2.0 * max(q_full(st, self.config.spec)[0] for st in self.states)
