"""Seeded, reproducible stream generation for experiments.

All randomness flows from the scenario seed: a PCG64 generator produces
uniforms on the open unit interval (53-bit integers scaled), which are mapped
through inverse CDFs.  Equal seeds therefore give bit-identical streams
across platforms, and every sampler is a documented closed procedure rather
than a library-internal rejection method.  The inverse CDFs (each family's
``inverse_cdf``) use only ``scipy.special``: closed-form quantiles for the
continuous families, an exact search on ``pdtr``/``betaincc`` for Poisson and
binomial draws.  The Monte Carlo paths draw many seeds a block at a time
through the same path (`_draws`), one inverse-CDF call per block.
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


# most values a block of `_draws` maps at once (at least one row)
_CHUNK = 2**14


def _draws(scenario: Scenario, seeds):
    """`generate` of ``scenario`` under each of ``seeds``: (rows x length)
    blocks of streams in seed order, row i the stream of seed i.

    Each seed's uniforms come from its own PCG64 (`_open_uniforms`), and a
    block of rows, at most `_CHUNK` values but at least one row, goes
    through the family's inverse CDF once per segment and through the
    support test once.  Every row equals its one-seed stream bit for bit:
    ``ndtri`` and ``gammaincinv`` are elementwise, and the probes of the
    quantile search (`families._search_quantile`) depend only on each
    element's own uniform and the pass count.  The first bad row raises
    `generate`'s ValueError for that seed, before its block is yielded.
    """
    spec = scenario.spec
    inv = spec.inverse_cdf
    n, cut = scenario.length, scenario.change_at
    parts = [(scenario.theta_pre, 0, cut or n)] + ([(scenario.theta_post, cut, n)] if cut else [])
    outside = lambda part: spec._forms.suff_arr(np, part) is None  # the family table's support test
    step = max(1, _CHUNK // max(n, 1))
    for lo in range(0, len(seeds), step):
        block = seeds[lo:lo + step]
        u = np.empty((len(block), n))
        for i, seed in enumerate(block):
            u[i] = _open_uniforms(np.random.Generator(np.random.PCG64(seed)), n)
        # overflow, of a draw or of a gauss-var square, is reported below, by theta
        with np.errstate(over="ignore"):
            x = np.concatenate([inv(t, u[:, a:b].ravel()).reshape(len(block), b - a)
                                for t, a, b in parts], axis=1)
            if outside(x):
                row = next(r for r in x if outside(r))
                bad, part = ((scenario.theta_post, row[cut:]) if cut and not outside(row[:cut])
                             else (scenario.theta_pre, row[:cut or None]))
                what = "out-of-support" if np.isfinite(part).all() else "non-finite"
                raise ValueError(f"theta={bad!r} gives {what} {spec.kind.value} observations"
                                 + ("" if spec.shape is None else f" at shape {spec.shape!r}"))
        yield x


def generate(scenario: Scenario) -> np.ndarray:
    """Deterministic stream for the scenario; same seed, same bits.

    Raises ValueError naming a theta whose draws are not finite (inf or NaN)
    or outside the support (gamma draws that underflow to 0), and the shape.
    """
    return next(_draws(scenario, [scenario.seed]))[0]
