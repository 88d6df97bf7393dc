"""One-parameter exponential families and their closed-form quantities.

Each family is written as f(x | theta) = exp[a(theta) * g(x) - b(theta) + d(x)]
with a, b increasing on the parameter domain and g the sufficient statistic.
The d(x) term cancels in every likelihood ratio and is never evaluated.

Conventions fixed here:

* ``gauss_var`` is parametrized by the **variance** (not the standard
  deviation): a(theta) = -1/(2 theta), b(theta) = log(theta)/2, so the mean
  map mu(theta) = b'/a' is the identity and matches the x^2 statistic.
  An observation whose square is 0 (x = 0, or |x| below about 1.5e-162) is
  outside its support: it carries infinite evidence for a smaller variance
  and would make a segment degenerate.  So is one whose square overflows.
* ``gauss_mean`` uses b(theta) = theta^2 / 2, making f the exact unit-variance
  normal density.  Pruning and likelihood-ratio values are invariant under a
  joint rescaling of (a, b), so this choice is cosmetic.
* Boundary conventions: 0 * log 0 = 0 for the Poisson and Binomial conjugates;
  Gamma and gauss_var reject non-positive means with an explicit error because
  a zero mean of a positive statistic means degenerate data.

Every family is one row of ``_FAMILIES``: a builder that takes the family's
extra parameter (binomial trials, gamma shape) and returns its closed forms,
which `FamilySpec` binds once at construction.

Nothing here imports numpy or scipy at module load: the detector needs only
`math`.  The inverse CDFs import numpy and `scipy.special` when first called
and `suff_arr` and `conjugate_arr` import numpy, so only the simulation and
Monte Carlo paths pay for them.  The Poisson and binomial inverse CDFs are
an exact search on the CDFs `scipy.special` provides (`_search_quantile`);
`scipy.stats` is never imported.
"""

from __future__ import annotations

import enum
import importlib
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import (
    DegenerateSegmentError,
    MeanRangeError,
    ParamDomainError,
    SupportError,
)

_INF = float("inf")
_TWO53 = float(2**53)  # integers past this are not all exact floats

# Largest gap, in units in the last place of ``math.log(x)``, between
# ``numpy.log(x)`` and ``math.log(x)`` on any positive float x.  Two
# faithfully rounded logs differ by at most one ulp; a test measures the
# gap.  `FamilySpec.conjugate_arr`'s bounds, and so the exactness of the
# Monte Carlo paths, rest on it.
LOG_ULP_GAP = 1
_EPS = 2.0**-52  # ulp(y) <= _EPS * |y| for normal y
_TINY = 2.0**-1022  # smallest normal: ulp(y) <= _EPS * max(|y|, _TINY) for all y


def _special():
    """``scipy.special``, imported at its first use."""
    return importlib.import_module("scipy.special")


def _search_quantile(cdf, u, mean: float, sd: float, top: float):
    """Smallest integer k in [0, top] with ``cdf(k) >= u``, for each uniform u.

    Inversion by search (Devroye, *Non-Uniform Random Variate Generation*,
    1986, ch. III).  From the normal-approximation guess
    floor(mean + sd * ndtri(u)), probes at doubling distances from the guess
    bracket the answer and bisection closes the bracket, so a draw costs
    O(log |guess error|) CDF evaluations.  NaN where the CDF is NaN or the
    answer would reach 2**53.  An element's probes depend only on its own
    uniform and on the pass count (w doubles each pass for every element),
    so its answer does not depend on the other elements of ``u``.
    """
    import numpy as np

    top = min(top, _TWO53)
    # cdf is never called at top or -1: every probe after this one lies
    # strictly inside the bracket
    k = np.minimum(np.maximum(np.floor(mean + sd * _special().ndtri(u)), 0.0), top - 1.0)
    c = cdf(k)
    # bracket lo < answer <= hi: cdf(lo) < u with cdf(-1) = 0, and cdf(hi) >= u,
    # assumed for hi = top: cdf(n) = 1 for binomial, and a Poisson answer of
    # 2**53 becomes NaN at the end
    hit = c >= u
    out = np.where(hit, k, top)
    lo = np.where(hit, -1.0, k)
    out[np.isnan(c)] = np.nan
    idx = np.flatnonzero(out - lo > 1.0)
    u, k, lo, hi = u[idx], k[idx], lo[idx], out[idx]
    w = 1.0
    while idx.size:
        # the midpoint, held within w of the guess: a doubling step until
        # the bracket fits inside [k - w, k + w], bisection after
        p = np.minimum(np.maximum(np.floor(0.5 * (lo + hi)), k - w), k + w)
        hit = cdf(p) >= u
        hi = np.where(hit, p, hi)
        lo = np.where(hit, lo, p)
        w *= 2.0
        wide = hi - lo > 1.0
        if not wide.all():
            out[idx] = hi
            idx, u, k, lo, hi = idx[wide], u[wide], k[wide], lo[wide], hi[wide]
    out[out >= _TWO53] = np.nan
    return out


class FamilyKind(enum.Enum):
    GAUSS_MEAN = "gauss-mean"
    GAUSS_VAR = "gauss-var"
    POISSON = "poisson"
    BINOMIAL = "binomial"
    GAMMA = "gamma"


class Direction(enum.Enum):
    """Side of the pre-change parameter on which the alternative lives."""

    UP = 1
    DOWN = -1

    @property
    def sign(self) -> int:
        return self.value


class _Forms(NamedTuple):
    """Closed forms of one family with its extra parameter bound.

    ``alpha``/``beta_fn``/``mean_suff`` assume theta in the domain; ``suff``
    validates support; ``inverse_cdf(theta, u)`` maps uniforms to
    observations.
    """

    param_domain: tuple[float, float]
    transcendental_cost: int  # log calls per curve or conjugate evaluation
    integral: bool  # observations are integers
    alpha: Callable[[float], float]
    beta_fn: Callable[[float], float]
    mean_suff: Callable[[float], float]
    suff: Callable[[float], float]
    suff_arr: Callable  # (numpy, observations) -> suff of each, or None where one is outside the support
    conjugate: Callable[[float], float]
    # (numpy, means array, e) -> (values, bounds), or None where a mean is
    # outside the family's range; see `FamilySpec.conjugate_arr`
    conjugate_arr: Callable
    inverse_cdf: Callable  # (theta, uniforms array) -> observations array


def _gauss_mean(_) -> _Forms:
    def suff(x):
        if not math.isfinite(x):
            raise SupportError(f"non-finite observation {x!r}")
        return x

    return _Forms(
        (-_INF, _INF), 0, False,
        alpha=lambda t: t,
        beta_fn=lambda t: t * t / 2.0,
        mean_suff=lambda t: t,
        suff=suff,
        suff_arr=lambda np, x: x if np.isfinite(x).all() else None,
        conjugate=lambda g: g * g / 2.0,
        # no log: the same two roundings as the scalar form, so exact
        conjugate_arr=lambda np, g, e: (g * g / 2.0, np.zeros_like(g)),
        inverse_cdf=lambda t, u: t + _special().ndtri(u),
    )


def _gauss_var(_) -> _Forms:
    def suff(x):
        y = x * x
        if not 0.0 < y < _INF:  # NaN, infinities, 0, and squares that underflow or overflow
            raise SupportError(f"non-finite observation {x!r}" if not math.isfinite(x)
                               else "gauss-var observation must be non-zero, got 0" if x == 0
                               else f"gauss-var observation {x!r} squares to {y!r}, outside (0, inf)")
        return y

    def conjugate(gbar):
        if not gbar > 0:
            raise DegenerateSegmentError(
                f"segment mean {gbar!r} is not positive; degenerate for gauss-var"
            )
        return -0.5 * (1.0 + math.log(gbar))

    def conjugate_arr(np, g, e):
        if not g.min(initial=1.0) > 0:
            return None
        lg = np.log(g)
        y = 1.0 + lg
        # -0.5 * y is exact
        return -0.5 * y, (np.abs(lg) + np.abs(y) + _TINY) * e

    def suff_arr(np, x):
        with np.errstate(over="ignore"):  # a square that overflows fails the test below
            y = x * x
        return y if 0.0 < y.min(initial=1.0) and y.max(initial=1.0) < _INF else None

    return _Forms(
        (0.0, _INF), 1, False,
        alpha=lambda t: -1.0 / (2.0 * t),
        beta_fn=lambda t: 0.5 * math.log(t),
        mean_suff=lambda t: t,
        suff=suff,
        suff_arr=suff_arr,
        conjugate=conjugate,
        conjugate_arr=conjugate_arr,
        inverse_cdf=lambda t, u: math.sqrt(t) * _special().ndtri(u),
    )


def _poisson(_) -> _Forms:
    def suff(x):
        if not math.isfinite(x) or x < 0 or x != math.floor(x):
            raise SupportError(f"Poisson observation must be a non-negative integer, got {x!r}")
        return x

    def conjugate(gbar):
        if gbar < 0:
            raise MeanRangeError(f"gbar={gbar!r} negative for poisson")
        if gbar == 0.0:
            return 0.0
        return gbar * math.log(gbar) - gbar

    def conjugate_arr(np, g, e):
        if not g.min(initial=0.0) >= 0:
            return None
        y = g * np.log(np.where(g > 0, g, 1.0))  # 0 * log 0 = 0
        v = y - g
        return v, (2.0 * np.abs(y) + np.abs(v) + 2.0 * _TINY) * (2.0 * e)

    return _Forms(
        (0.0, _INF), 1, True,
        alpha=math.log,
        beta_fn=lambda t: t,
        mean_suff=lambda t: t,
        suff=suff,
        suff_arr=lambda np, x: x if (np.isfinite(x) & (x >= 0) & (x == np.floor(x))).all() else None,
        conjugate=conjugate,
        conjugate_arr=conjugate_arr,
        inverse_cdf=lambda t, u: _search_quantile(
            lambda k: _special().pdtr(k, t), u, t, math.sqrt(t), _INF),
    )


def _binomial(n) -> _Forms:
    if n is None or not (1 <= n <= _TWO53 and n == math.floor(n)):
        raise ValueError("binomial family requires integer trials from 1 to 2**53")
    n = int(n)

    def suff(x):
        if not math.isfinite(x) or x < 0 or x > n or x != math.floor(x):
            raise SupportError(f"Binomial observation must be an integer in [0, {n}], got {x!r}")
        return x

    def conjugate(gbar):
        if gbar < 0 or gbar > n:
            raise MeanRangeError(f"gbar={gbar!r} outside [0, {n}]")
        if gbar == 0.0 or gbar == n:
            return 0.0
        return gbar * math.log(gbar / (n - gbar)) + n * math.log((n - gbar) / n)

    def conjugate_arr(np, g, e):
        if not (g.min(initial=0.0) >= 0 and g.max(initial=0.0) <= n):
            return None
        inner = (g > 0) & (g < n)  # 0 at both ends
        gs = np.where(inner, g, 0.5 * n)
        y1 = gs * np.log(gs / (n - gs))
        y2 = n * np.log((n - gs) / n)
        v = y1 + y2
        d = (2.0 * (np.abs(y1) + np.abs(y2)) + np.abs(v) + 3.0 * _TINY) * (2.0 * e)
        return np.where(inner, v, 0.0), np.where(inner, d, 0.0)

    return _Forms(
        (0.0, 1.0), 2, True,
        alpha=lambda t: math.log(t / (1.0 - t)),
        beta_fn=lambda t: -n * math.log(1.0 - t),
        mean_suff=lambda t: n * t,
        suff=suff,
        suff_arr=lambda np, x: x if (np.isfinite(x) & (x >= 0) & (x <= n) & (x == np.floor(x))).all() else None,
        conjugate=conjugate,
        conjugate_arr=conjugate_arr,
        # P(X <= k) = 1 - I_t(k + 1, n - k) for k < n, I the regularized
        # incomplete beta function.  betaincc computes it with relative
        # precision in both tails, as scipy.stats' binomial CDF does; bdtr is
        # off by 1e-3 at n = 1e7 and NaN past 2**31, and 1 - betainc rounds
        # lower-tail probabilities to multiples of 2**-53
        inverse_cdf=lambda t, u: _search_quantile(
            lambda k: _special().betaincc(k + 1.0, n - k, t), u, n * t, math.sqrt(n * t * (1.0 - t)), n),
    )


def _gamma(kk) -> _Forms:
    if kk is None or not 0 < kk < _INF:
        raise ValueError("gamma family requires a finite shape > 0")

    def suff(x):
        if not (x > 0) or not math.isfinite(x):
            raise SupportError(f"Gamma observation must be positive, got {x!r}")
        return x

    def conjugate(gbar):
        if not gbar > 0:
            raise DegenerateSegmentError(
                f"segment mean {gbar!r} is not positive; degenerate for gamma"
            )
        return -kk - kk * math.log(gbar / kk)

    def conjugate_arr(np, g, e):
        if not g.min(initial=1.0) > 0:
            return None
        y = kk * np.log(g / kk)
        v = -kk - y
        return v, (2.0 * np.abs(y) + np.abs(v) + 2.0 * _TINY) * (2.0 * e)

    return _Forms(
        (0.0, _INF), 1, False,
        alpha=lambda t: -1.0 / t,
        beta_fn=lambda t: kk * math.log(t),
        mean_suff=lambda t: kk * t,
        suff=suff,
        suff_arr=lambda np, x: x if (np.isfinite(x) & (x > 0)).all() else None,
        conjugate=conjugate,
        conjugate_arr=conjugate_arr,
        inverse_cdf=lambda t, u: t * _special().gammaincinv(kk, u),  # scale parametrization
    )


# kind -> (name of the extra parameter or None, builder taking its value)
_FAMILIES = {
    FamilyKind.GAUSS_MEAN: (None, _gauss_mean),
    FamilyKind.GAUSS_VAR: (None, _gauss_var),
    FamilyKind.POISSON: (None, _poisson),
    FamilyKind.BINOMIAL: ("trials", _binomial),
    FamilyKind.GAMMA: ("shape", _gamma),
}


@dataclass(frozen=True)
class FamilySpec:
    """A concrete one-parameter exponential family.

    ``trials`` is the per-observation trial count (binomial only) and
    ``shape`` the fixed shape parameter (gamma only); both are None
    elsewhere.  Construction binds the family's forms as attributes:
    ``param_domain`` (the open interval of admissible theta),
    ``transcendental_cost`` (log calls per curve or conjugate evaluation, a
    portable cost proxy), ``integral`` (observations are integers), ``suff``
    (g(x), validating data support), ``conjugate`` (per-observation maximized
    log-likelihood A(g) = sup_theta [a(theta) g - b(theta)]) and
    ``inverse_cdf(theta, u)`` (the generator's quantile map).
    """

    kind: FamilyKind
    trials: int | None = None
    shape: float | None = None

    def __post_init__(self):
        extra, build = _FAMILIES[self.kind]
        for name in ("trials", "shape"):
            if name != extra and getattr(self, name) is not None:
                raise ValueError(f"{self.kind.value} family takes no {name} parameter")
        forms = build(getattr(self, extra) if extra else None)
        object.__setattr__(self, "_forms", forms)
        for name in ("param_domain", "transcendental_cost", "integral", "suff", "conjugate",
                     "inverse_cdf"):
            object.__setattr__(self, name, getattr(forms, name))

    def __reduce__(self):
        return (FamilySpec, (self.kind, self.trials, self.shape))

    # -- constructors -------------------------------------------------

    @classmethod
    def gauss_mean(cls) -> "FamilySpec":
        return cls(FamilyKind.GAUSS_MEAN)

    @classmethod
    def gauss_var(cls) -> "FamilySpec":
        return cls(FamilyKind.GAUSS_VAR)

    @classmethod
    def poisson(cls) -> "FamilySpec":
        return cls(FamilyKind.POISSON)

    @classmethod
    def binomial(cls, trials: int) -> "FamilySpec":
        return cls(FamilyKind.BINOMIAL, trials=trials)

    @classmethod
    def gamma(cls, shape: float) -> "FamilySpec":
        return cls(FamilyKind.GAMMA, shape=shape)

    # -- parameter domain ---------------------------------------------

    def in_domain(self, theta: float) -> bool:
        lo, hi = self.param_domain
        return lo < theta < hi and math.isfinite(theta)

    def _require_domain(self, theta: float) -> None:
        if not self.in_domain(theta):
            lo, hi = self.param_domain
            raise ParamDomainError(
                f"theta={theta!r} outside parameter domain ({lo}, {hi}) "
                f"of {self.kind.value}"
            )

    # -- Table-of-forms quantities ------------------------------------

    def alpha(self, theta: float) -> float:
        """Natural-parameter map a(theta)."""
        self._require_domain(theta)
        return self._forms.alpha(theta)

    def beta_fn(self, theta: float) -> float:
        """Log-normalizer b(theta), normalized so f is a proper density."""
        self._require_domain(theta)
        return self._forms.beta_fn(theta)

    def mean_suff(self, theta: float) -> float:
        """Mean map mu(theta) = b'(theta) / a'(theta); strictly increasing."""
        self._require_domain(theta)
        return self._forms.mean_suff(theta)

    def conjugate_arr(self, g):
        """`conjugate` over an array of means, of any shape, priced with numpy's log.

        Returns (v, d): the values, the scalar form's expressions in its
        order with ``numpy.log`` for ``math.log``, and per-element bounds
        d >= |v - conjugate(g)|.  With eps = 2**-52, e = `LOG_ULP_GAP` eps
        and tiny the smallest normal float:

        * the logs differ by at most e |l|, an ulp of the log l being at
          most eps |l| (the log of a positive float is 0 or normal);
        * every later operation is the same IEEE operation on inputs that
          may differ.  If its exact results differ by delta, its rounded
          ones differ by at most delta + eps max(|r|, tiny) to first
          order, r its computed result (half an ulp each way);
        * so, to first order and for a gap of at least 1 (eps <= e),
          |v - conjugate(g)| is at most e times the sum, over the logs, of
          |c l| (c the exact factor that multiplies the log), plus, over
          the roundings after a log, |r| + tiny, each times the exact
          factor applied later.  Each form's bound is twice that sum, which
          covers the second-order terms (relative size e) and the rounding
          of the bound's own arithmetic, with |c l| read as the magnitude
          |y| of the rounded product y = c l.

        Per family, with y, y1, y2 those products:

        * gauss-mean, g * g / 2: no log, so v is exact and d = 0;
        * gauss-var, -0.5 (1 + l): one log and one sum, both halved by the
          exact product: d = e (|l| + |1 + l| + tiny);
        * Poisson, g l - g, and gamma, -k - k l: one product and one
          difference: d = 2e (2 |y| + |v| + 2 tiny);
        * binomial, g l1 + n l2: two products and their sum:
          d = 2e (2 |y1| + 2 |y2| + |v| + 3 tiny), and 0 at the ends.

        At a gap of 0 the two evaluations are the same and every bound is
        0.  Where any mean is outside the
        family's range or not finite, or a value overflows, the scalar form
        is mapped instead, with d = 0, so that its errors and their
        messages are unchanged.
        """
        import numpy as np

        g = np.asarray(g, dtype=float)
        out = self._forms.conjugate_arr(np, g, LOG_ULP_GAP * _EPS)
        if out is None or not np.isfinite(out[0]).all():
            v = np.fromiter(map(self.conjugate, g.ravel().tolist()), float, g.size)
            return v.reshape(g.shape), np.zeros_like(g)
        return out

    def suff_arr(self, x):
        """`suff` over an array of any shape, with the same support validation:
        the family's array test, or where a value fails it the scalar `suff`
        mapped in C order, so that the first bad value raises its usual error."""
        import numpy as np

        x = np.array(x, dtype=float)
        g = self._forms.suff_arr(np, x)
        return g if g is not None else np.array(
            [self.suff(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)
