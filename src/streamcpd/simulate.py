"""Seeded, reproducible stream generation for experiments.

All randomness flows from the scenario seed: a PCG64 generator produces
uniforms on the open unit interval (53-bit integers scaled), which are mapped
through inverse CDFs.  Equal seeds therefore give bit-identical streams
across platforms, and every sampler is a documented closed procedure rather
than a library-internal rejection method.  The inverse CDFs (each family's
``inverse_cdf``) use only ``scipy.special``: closed-form quantiles for the
continuous families, an exact search on ``pdtr``/``betaincc`` for Poisson and
binomial draws.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .families import FamilySpec

_TWO53 = float(2**53)


def require_int(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an integer."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Scenario:
    """One simulated stream: theta_pre up to ``change_at``, theta_post after.

    ``change_at = 0`` means no change (the whole stream is pre-change).
    """

    spec: FamilySpec
    theta_pre: float
    theta_post: float
    change_at: int
    length: int
    seed: int

    def __post_init__(self):
        for name in ("change_at", "length", "seed"):
            require_int(name, getattr(self, name))
        if not (0 <= self.change_at <= self.length):
            raise ValueError("need 0 <= change_at <= length")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not self.spec.in_domain(self.theta_pre):
            raise ValueError(f"theta_pre={self.theta_pre!r} outside parameter domain")
        if self.change_at and not self.spec.in_domain(self.theta_post):
            raise ValueError(f"theta_post={self.theta_post!r} outside parameter domain")


def _open_uniforms(rng: np.random.Generator, n: int) -> np.ndarray:
    # strictly inside (0, 1) so inverse CDFs never hit the endpoints
    return rng.integers(1, 2**53, size=n).astype(float) / _TWO53


def generate(scenario: Scenario) -> np.ndarray:
    """Deterministic stream for the scenario; same seed, same bits.

    Raises ValueError naming a theta whose draws are not finite (inf or NaN)
    or outside the support (gamma draws that underflow to 0), and the shape.
    """
    rng = np.random.Generator(np.random.PCG64(scenario.seed))
    u = _open_uniforms(rng, scenario.length)
    spec = scenario.spec
    inv = spec.inverse_cdf
    cut = scenario.change_at
    outside = lambda part: spec._forms.suff_arr(np, part) is None  # the family table's support test
    # overflow, of a draw or of a gauss-var square, is reported below, by theta
    with np.errstate(over="ignore"):
        if cut == 0:
            x = inv(scenario.theta_pre, u)
        else:
            x = np.concatenate([inv(scenario.theta_pre, u[:cut]), inv(scenario.theta_post, u[cut:])])
        if outside(x):
            bad, part = ((scenario.theta_post, x[cut:]) if cut and not outside(x[:cut])
                         else (scenario.theta_pre, x[:cut or None]))
            what = "out-of-support" if np.isfinite(part).all() else "non-finite"
            raise ValueError(f"theta={bad!r} gives {what} {spec.kind.value} observations"
                             + ("" if spec.shape is None else f" at shape {spec.shape!r}"))
    return x
