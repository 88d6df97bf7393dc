"""Monte Carlo threshold calibration, run-length and delay experiments.

Replicate seeds are derived deterministically from the experiment seed, so
every result here is bit-reproducible.  Censoring is always explicit: a run
that never detects within its stream reports None and enters averages at the
censoring length (a downward-biased, conservative convention, noted in the
output metadata).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .counters import CounterSet, derive
from .detector import _DIRECTIONS, Detector, DetectorConfig, step_states
from .errors import CalibrationError
from . import families
from .families import _TINY, FamilySpec
from .pruning import curve_m, q_full
from .simulate import Scenario, _draws, generate, require_int


def _child_seed(seed: int, rep: int) -> int:
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return (seed << 20) + rep


def first_detection(config: DetectorConfig, data: np.ndarray) -> int | None:
    """First time (1-based) the detector fires on ``data``, or None."""
    spec = config.spec
    g_arr = spec.suff_arr(np.asarray(data, dtype=float))
    states = Detector(config).states
    for i, gi in enumerate(g_arr.tolist()):
        if step_states(states, spec, gi, config.threshold)[0] is not None:
            return i + 1
    return None


# (row, step) pairs per block of the Monte Carlo kernels' vector pass: their
# working memory is about this many times the stored candidates per step,
# whatever the stream's length and the number of rows
_BLOCK = 1024


def _curve_m_arr(state, spec, tau, cum_sum, T, St, sign, pre=None):
    """`pruning.curve_m` over arrays of (candidate, step) pairs, priced with
    numpy's log: values v before the clip, and bounds d >= |v - m| with m
    the scalar form's value before its clip.

    Each pair goes through the scalar form's expressions in its order,
    with `FamilySpec.conjugate_arr` for the conjugates.  ``state`` gives
    theta0 and the constants derived from it, ``sign`` the direction of
    each pair.  With theta0 unknown every tau must be positive, and ``pre``
    is (P, dP, i_tau, i_T): the i A(S_i / i) of `_priced` and their
    bounds, and each pair's indices into them of tau A(cum_sum / tau) and
    T A(St / T), read only at the pairs past the pre-change mean.

    The bound follows `FamilySpec.conjugate_arr`'s error model: the
    conjugates' bounds enter times the exact factors that scale them and
    times 1 + 8e for the second-order terms, and each rounding after them
    adds twice e (|r| + tiny), r its result.  theta0 known,
    m = n (A - (a0 g - b0)): d = n (dA (1 + 8e) + 4e tiny) + 5e |m|, with
    n |A - (a0 g - b0)| read as |m| (the 5 instead of 4 covers the
    difference).  theta0 unknown, m = (tau A_pre + n A) - T A_all, rounded
    at y = n A, at the sum s and at m:
    d = (d_pre + d_all + n dA)(1 + 8e) + 2e (|y| + |s| + |m| + 3 tiny).
    d is None when every conjugate was exact, and v then exact too.

    Returns the indices of the pairs whose segment mean is past the
    pre-change mean, and their v and d; every other pair's statistic is 0.
    """
    n = T - tau
    g_seg = (St - cum_sum) / n
    e = families.LOG_ULP_GAP * families._EPS  # the log gap, read at each call
    if state.theta0 is not None:
        ok = np.flatnonzero((g_seg - state.g0) * sign > 0)
        g = g_seg[ok]
        n = n[ok]
        a, d = spec.conjugate_arr(g)
        v = n * (a - (state.alpha0 * g - state.beta0))
        d = n * (d * (1.0 + 8.0 * e) + 4.0 * e * _TINY) + 5.0 * e * np.abs(v) if d.any() else None
    else:
        ok = np.flatnonzero((g_seg - cum_sum / tau) * sign > 0)
        P, dP, it, iT = pre
        it, iT = it[ok], iT[ok]
        b, db, pooled, dpooled = P[it], dP[it], P[iT], dP[iT]
        n = n[ok]
        a, d = spec.conjugate_arr(g_seg[ok])
        y = n * a
        s = b + y
        v = s - pooled
        if d.any() or db.any() or dpooled.any():
            d = ((db + dpooled + n * d) * (1.0 + 8.0 * e)
                 + (np.abs(y) + np.abs(s) + np.abs(v) + 3.0 * _TINY) * (2.0 * e))
        else:
            d = None
    return ok, v, d


def _pop_steps(state, g: list[float]) -> list[int]:
    """A list whose entry tau is the step whose update removes candidate
    tau, born at step tau + 1, or ``len(g) + 1`` if it stays, for ``g`` fed
    to the empty ``state``, which is left as it is.

    The tail-merge cascade and the null barrier of `pruning._absorb`, in
    its order, on one stack of the first three fields of the stored
    candidates' records, (tau, cum_sum, left_mean); a merge pops once.  The
    pass is one-sided: a down state runs it on -g and -g0, whose prefix
    sums and means are the up ones negated bit for bit (rounding to nearest
    is symmetric; only a zero may change sign, and zeros compare equal), so
    each comparison decides as `_absorb`'s.  Neumaier (hi, lo) sums keep
    this.  g0 is NaN with theta0 unknown, which no barrier passes.  Change
    both together.
    """
    end = len(g)
    pop = [end + 1] * end
    g0 = state.g0
    if state.sign < 0:
        g, g0 = [-x for x in g], -g0
    stack: list[tuple[int, float, float]] = []  # the stored candidates but the newest, (lt, lc, left)
    St = mean = 0.0
    for T, gi in enumerate(g, 1):
        lt, lc, left = T - 1, St, mean
        St += gi
        mean = St - lc  # the newest segment spans one step
        while stack and not mean > left:
            pop[lt] = T
            lt, lc, left = stack.pop()
            mean = (St - lc) / (T - lt)
        if not stack and mean - g0 <= 0:  # not mean <= g0: g0 may be inf
            pop[lt] = T
        else:
            stack.append((lt, lc, left))
    return pop


def _block_pairs(pop: np.ndarray, first_tau: int, live: np.ndarray | None = None):
    """Every (row, candidate tau >= ``first_tau``, step T) with tau stored
    in the row after step T, a block of steps at a time: (lo, hi, row, tau,
    T) for the steps lo to hi - 1, the last three as arrays, in birth order.

    Row r of the 2-D ``pop`` is `_pop_steps`'s output for one stream and
    direction: candidate tau is stored after steps tau + 1 to
    pop[r, tau] - 1.  A block spans max(1, `_BLOCK` // rows) steps.  The
    candidate tau of row r has the id tau * rows + r, its index in
    ``pop.T.ravel()``, the log in birth order.  ``live``, a bool per row, is
    read at the start of each block: a row cleared there loses its
    candidates, carried or newborn, and yields no pair from then on.
    """
    rows, end = pop.shape
    step = max(1, _BLOCK // max(rows, 1))
    gone_at = pop.T.ravel()
    carry = np.zeros(0, dtype=np.int64)  # ids of the candidates born before the block, stored at its start
    for lo in range(1, end + 1, step):
        hi = min(lo + step, end + 1)  # steps lo .. hi - 1
        ids = np.concatenate([carry, np.arange(max(lo - 1, first_tau) * rows, (hi - 1) * rows)])
        if live is not None:
            ids = ids[live[ids % rows]]
        gone = gone_at[ids]
        first = np.maximum(ids // rows + 1, lo)
        cnt = np.maximum(np.minimum(gone, hi) - first, 0)
        carry = ids[gone > hi]
        off = np.repeat(np.cumsum(cnt) - cnt - first, cnt)
        tau, row = np.divmod(np.repeat(ids, cnt), rows)
        yield lo, hi, row, tau, np.arange(len(off)) - off


def _priced(config: DetectorConfig, streams, live: np.ndarray | None = None):
    """The priced pairs both Monte Carlo kernels decide on: per
    `_block_pairs` block of the streams' rows, (lo, hi, row, T, ok, v, d,
    exact), with each pair's row and step, `_curve_m_arr`'s (ok, v, d), and
    exact(k) = `pruning.curve_m` of the block's pairs k, each with its row's
    direction state: the exact redo.

    The streams, a list or the rows of a 2-D array, must all have one
    length; two lengths raise ValueError.  Row i * n_dir + k is stream i in
    direction k, with `_pop_steps`' log (a down row's on a negated copy of
    g), and ``live`` is `_block_pairs`' row mask.  S[i, T] is the prefix sum
    g_1 + ... + g_T, accumulated as `update` does.  With theta0 unknown,
    P[i, T] = T A(S[i, T] / T) as priced, with its bound dP[i, T] (one
    rounding after the conjugate, bounded as in `_curve_m_arr`), is the
    pooled term at step T and the pre-change term at tau = T; tau = 0 then
    has no pre-change data and yields no pair.  A pair of stream ln reads
    S, P and dP flat at ln (len + 1) + tau and ln (len + 1) + T, or at tau
    and T if there is one stream.
    """
    spec = config.spec
    states = Detector(config).states
    n_dir = len(states)
    if len({len(s) for s in streams}) > 1:
        raise ValueError("the streams of one call must all have one length")
    end = len(streams[0]) if len(streams) else 0
    G = spec.suff_arr(np.array(streams, dtype=float).reshape(len(streams), end))
    S = np.zeros((len(G), end + 1))
    np.cumsum(G, axis=1, out=S[:, 1:])
    pop = np.empty((len(G) * n_dir, end), dtype=np.int64, order="F")  # so pop.T.ravel() copies nothing
    for i in range(len(G)):
        g = G[i].tolist()  # one stream's observations as a list at a time
        pop[i * n_dir:(i + 1) * n_dir] = [_pop_steps(st, g) for st in states]
    known = config.theta0 is not None
    if not known:
        i = np.arange(1, end + 1)
        a, d = spec.conjugate_arr(S[:, 1:] / i)
        p = i * a
        if d.any():
            e = families.LOG_ULP_GAP * families._EPS
            d = i * d * (1.0 + 8.0 * e) + (np.abs(p) + _TINY) * (2.0 * e)
        P = np.zeros_like(S)
        dP = np.zeros_like(S)
        P[:, 1:], dP[:, 1:] = p, d
        P, dP = P.ravel(), dP.ravel()
    sign = np.array([float(st.sign) for st in states] * len(G))
    S = S.ravel()
    for lo, hi, row, tau, T in _block_pairs(pop, 0 if known else 1, live):
        if len(G) == 1:
            it, iT = tau, T
        else:
            ln = row // n_dir * (end + 1)  # the flat index of the pair's stream at step 0
            it, iT = ln + tau, ln + T
        cs, St = S[it], S[iT]
        ok, v, d = _curve_m_arr(states[0], spec, tau, cs, T, St, sign[row], None if known else (P, dP, it, iT))

        def exact(k, row=row, tau=tau, cs=cs, T=T, St=St):
            return np.array([curve_m(states[r % n_dir], spec, *pair) for r, *pair in zip(
                row[k].tolist(), tau[k].tolist(), cs[k].tolist(), T[k].tolist(), St[k].tolist())])
        yield lo, hi, row, T, ok, v, d, exact


@np.errstate(over="ignore", invalid="ignore")  # overflowing conjugates: inf or NaN, as in the scalar form
def stat_running_max(config: DetectorConfig, data: np.ndarray) -> np.ndarray:
    """Running maximum of the doubled statistic after each step.

    The detector fires at the first step where this path reaches the
    threshold, so one pass prices every threshold at once.  The path is
    that of `update` and `q_full` after every step, bit for bit: `_priced`
    yields every (direction, stored candidate, step) pair priced in numpy a
    block of steps at a time, and only the pairs that can move the path are
    redone exactly, as `_first_detections` redoes its undecided pairs.

    A pair's clipped statistic lies in [max(v - d, 0), max(v + d, 0)].
    ``low`` holds a lower bound on each step's statistic over both
    directions, and ``run`` the running maximum of ``low`` before the
    block, carried across blocks.  The pairs' lower bounds go into ``low``
    first, and ``floor`` is then the running maximum of ``run`` and
    ``low``.  A pair at step j is redone exactly, and its value raised into
    ``low``, if and only if not v + d <= floor[j]; a NaN bound is redone.
    That is exact: every entry of ``low`` stays at most the exact statistic
    of its step, so floor[j] is at most the exact path at step j, and a
    pair that is not redone has its exact m <= v + d <= floor[j].  The
    running maximum of ``low`` is therefore the exact path.  Where every
    conjugate was exact (d is None, as for gauss-mean) the priced values
    go into ``low`` as they are.
    """
    low = np.zeros(len(data) + 1)
    run = 0.0
    for lo, hi, row, T, ok, v, d, exact in _priced(config, [data]):
        j = T[ok] - lo
        low_blk = low[lo:hi]
        if d is None:
            np.maximum.at(low_blk, j, np.where(v > 0.0, v, 0.0))
        else:
            up = v + d
            lw = v - d
            np.maximum.at(low_blk, j, np.where(lw > 0.0, lw, 0.0))
            floor = np.maximum.accumulate(low_blk)
            np.maximum(floor, run, out=floor)
            # a NaN bound (overflow) fails the test: the exact form decides it
            k = ok[np.flatnonzero(~(up <= floor[j]))]
            if k.size:
                np.maximum.at(low_blk, T[k] - lo, exact(k))
        run = max(run, low_blk.max(initial=0.0))
    return 2.0 * np.maximum.accumulate(low[1:])


@dataclass(frozen=True)
class CalibrationResult:
    threshold: float
    achieved_arl: float
    target_arl: int
    reps: int
    rounds: int
    censor_at: int
    history: tuple[tuple[float, float], ...]


def calibrate_threshold(
    config: DetectorConfig,
    target_arl: int,
    reps: int,
    seed: int,
    null_theta: float | None = None,
    null_spec: FamilySpec | None = None,
    square_data: bool = False,
) -> CalibrationResult:
    """Bisection on the threshold until the ARL estimate is within 10% of target.

    Simulates ``reps`` null streams of length 3 * target_arl (common random
    numbers across candidate thresholds), estimates the ARL as the mean of
    possibly-censored run lengths, and stops inside [0.9, 1.1] * target or
    after 30 rounds.  ``null_theta`` sets the simulation parameter when the
    detector's pre-change parameter is unknown; it defaults to theta0.
    ``null_spec``/``square_data`` let the null data come from a different
    family than the detector analyses (e.g. a mean model fed squared
    Gaussian data).
    """
    for name, value in (("target_arl", target_arl), ("reps", reps), ("seed", seed)):
        require_int(name, value)
    if target_arl < 100:
        raise ValueError("target_arl must be at least 100")
    if reps < 50:
        raise ValueError("reps must be at least 50")
    theta_sim = null_theta if null_theta is not None else config.theta0
    if theta_sim is None:
        raise ValueError("null_theta is required when the pre-change parameter is unknown")
    spec_sim = null_spec if null_spec is not None else config.spec
    length = 3 * target_arl
    seeds = [_child_seed(seed, r) for r in range(reps)]
    # the config threshold is irrelevant here; the statistic paths price all
    # thresholds simultaneously
    blocks = _draws(Scenario(spec_sim, theta_sim, theta_sim, 0, length, seeds[0]), seeds)
    paths = np.empty((reps, length))
    for r, stream in enumerate(x for b in blocks for x in (b * b if square_data else b)):
        paths[r] = stat_running_max(config, stream)

    def arl_hat(thr: float) -> float:
        # each path is non-decreasing and never NaN, so the steps below thr
        # are where searchsorted(path, thr, "left") puts it
        idx = np.count_nonzero(paths < thr, axis=1)
        return int(np.where(idx < length, idx + 1, length).sum()) / reps

    lo = hi = None  # lo: below band, hi: above band
    thr = 4.0 * np.log(max(target_arl, 100))
    history = []
    for rounds in range(1, 31):
        a = arl_hat(thr)
        history.append((thr, a))
        if 0.9 * target_arl <= a <= 1.1 * target_arl:
            return CalibrationResult(
                threshold=thr,
                achieved_arl=a,
                target_arl=target_arl,
                reps=reps,
                rounds=rounds,
                censor_at=length,
                history=tuple(history),
            )
        if a < target_arl:
            lo = thr
            thr = thr * 2.0 if hi is None else 0.5 * (thr + hi)
        else:
            hi = thr
            thr = thr * 0.5 if lo is None else 0.5 * (lo + thr)
    raise CalibrationError(
        f"calibration did not converge in 30 rounds (target {target_arl})",
        lo=lo if lo is not None else float("nan"),
        hi=hi if hi is not None else float("nan"),
    )


# ------------------------------------------------------------------
# Detection-delay experiment
# ------------------------------------------------------------------


@dataclass(frozen=True)
class DelayRun:
    """One (model, scenario) arm of a delay study.

    ``square_data`` feeds the squared stream to the detector, for comparing a
    mean model on x^2 against a variance model on x over identical data.
    """

    label: str
    config: DetectorConfig
    scenario: Scenario
    square_data: bool = False


@dataclass(frozen=True)
class DelayRow:
    label: str
    rep: int
    outcome: str  # "detected" | "false_positive" | "censored"
    detect_time: int | None
    delay: int | None


@np.errstate(over="ignore", invalid="ignore")  # overflowing conjugates: inf or NaN, as in the scalar form
def _first_detections(config: DetectorConfig, streams: list[np.ndarray]) -> list[int | None]:
    """`first_detection` of every stream, by `stat_running_max`'s two passes
    run on all streams together.

    The streams must all have one length.  `_priced` yields the priced
    (stored candidate, step) pairs of the live rows, one row per (stream,
    direction), a block of steps at a time; a stream's rows are cleared in
    the row mask once it fires.  A pair fires for certain where 2 (v - d)
    reaches the threshold and cannot fire where 2 (v + d) stays below it;
    only the pairs between are redone exactly.  A stream's detection is the
    smallest step among its firing pairs in the first block where any
    fire, and the pass stops once every stream has fired.

    The prefix bounds of the adaptive check only decide how far `check`
    walks, so without them the detection times equal the scalar path's.
    With theta0 unknown, T A(S_T / T) of each prefix mean is priced once
    per step of each stream, with its bound, and serves as the pooled term
    and as the pre-change term; the exact form takes the conjugates it
    needs itself.

    On degenerate data (a segment mean the family rejects, as after
    prefix-sum cancellation) both paths raise the family's error, but not
    always on the same streams: this one evaluates every prefix mean to
    the stream's end and every stored candidate of each block until the
    stream fires, the scalar path what its bounds and its walk reach.
    """
    thr = config.threshold
    n_streams, n_dir = len(streams), len(_DIRECTIONS[config.direction])
    out: list[int | None] = [None] * n_streams
    live = np.ones(n_streams * n_dir, dtype=bool)
    for lo, hi, row, T, ok, v, d, exact in _priced(config, streams, live):
        if d is None:
            fire = ok[2.0 * v >= thr]
        else:
            # the pairs that may fire (a NaN bound may): for certain where
            # v - d reaches the threshold, redone exactly where v + d does
            c = np.flatnonzero(~(2.0 * (v + d) < thr))
            sure = 2.0 * (v[c] - d[c]) >= thr
            fire, k = ok[c[sure]], ok[c[~sure]]
            if k.size:
                fire = np.concatenate([fire, k[2.0 * exact(k) >= thr]])
        if fire.size:
            at = np.full(n_streams, hi)
            np.minimum.at(at, row[fire] // n_dir, T[fire])
            for i in np.flatnonzero(at < hi).tolist():
                out[i] = int(at[i])
            live.reshape(n_streams, n_dir)[at < hi] = False  # stream i's rows are i n_dir .. (i + 1) n_dir - 1
            if not live.any():
                break
    return out


def delay_experiment(runs: list[DelayRun], reps: int) -> list[DelayRow]:
    """Per-replicate detection delays; detections before the change are
    recorded as false positives, runs without detection as censored.

    Replicates of different runs share seeds, so two models of the same
    scenario see identical data (paired comparison).  The replicates of a
    run all have its scenario's length: they are drawn a block at a time
    (`simulate._draws`) and go through `_first_detections` together, with
    detection times equal to `first_detection` on each replicate's stream.
    """
    require_int("reps", reps)
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    rows: list[DelayRow] = []
    for run in runs:
        seed, cut = run.scenario.seed, run.scenario.change_at
        streams = np.concatenate(list(_draws(run.scenario, [_child_seed(seed, rep) for rep in range(reps)])))
        if run.square_data:
            np.multiply(streams, streams, out=streams)
        for rep, t in enumerate(_first_detections(run.config, streams)):
            if t is None:
                rows.append(DelayRow(run.label, rep, "censored", None, None))
            elif t <= cut:
                rows.append(DelayRow(run.label, rep, "false_positive", t, None))
            else:
                rows.append(DelayRow(run.label, rep, "detected", t, t - cut))
    return rows


def mean_delay(rows: list[DelayRow], label: str, censor_value: int | None = None) -> float:
    """Mean detection delay for one arm; censored reps enter at censor_value
    when given, otherwise they are skipped.  False positives never count."""
    vals = []
    for r in rows:
        if r.label != label:
            continue
        if r.outcome == "detected":
            vals.append(r.delay)
        elif r.outcome == "censored" and censor_value is not None:
            vals.append(censor_value)
    if not vals:
        raise ValueError(f"no post-change detections for {label!r}")
    return sum(vals) / len(vals)


# ------------------------------------------------------------------
# Per-step counter profiles
# ------------------------------------------------------------------


_TALLIES = attrgetter("stored_sum", "evaluated", "bounded", "pooled")


def counter_profile(config: DetectorConfig, scenario: Scenario, mode: str = "adaptive") -> CounterSet:
    """Per-step counters over one stream: a CounterSet of int64 columns,
    summed over the directions, each entry what its step added, so
    ``curves_stored_sum`` holds the curves stored after the step.

    ``mode="adaptive"`` uses the maxima check; ``mode="full"`` runs
    `pruning.q_full` on every direction after each step instead (from the
    second step on with theta0 unknown), whose evaluations the columns
    count.  Detections never stop the run.  Each step appends the
    directions' running tallies; after the last step `counters.derive`
    turns their columns into running counters, and one difference into
    per-step counts.
    """
    if mode not in ("adaptive", "full"):
        raise ValueError("mode must be 'adaptive' or 'full'")
    spec = config.spec
    g_arr = spec.suff_arr(generate(scenario))
    states = Detector(config).states
    thr = config.threshold if mode == "adaptive" else None
    known = config.theta0 is not None
    totals: list[int] = []  # flat ints: nothing per step for the garbage collector to track
    for i, gi in enumerate(g_arr.tolist()):
        step_states(states, spec, gi, thr)
        if thr is None and (known or i >= 1):
            for st in states:
                q_full(st, spec)
        for st in states:
            totals += _TALLIES(st)
    stored_sum, evaluated, bounded, pooled = np.array(totals, dtype=np.int64).reshape(
        len(g_arr), len(states), 4).sum(axis=1).T
    added = len(states) * np.arange(1, len(g_arr) + 1, dtype=np.int64)  # one candidate per direction
    stored = np.diff(stored_sum, prepend=0)
    running = derive(added, stored, stored_sum, bounded, evaluated, pooled, known, spec.transcendental_cost)
    return CounterSet(**{k: np.diff(v, prepend=0) for k, v in vars(running).items()})


# ------------------------------------------------------------------
# CSV output (plot-ready; floats carry 17 significant digits)
# ------------------------------------------------------------------


def write_counter_csv(profile: CounterSet, fh) -> None:
    w = csv.writer(fh)
    w.writerow(["t", "curves_stored", "curves_evaluated", "merges", "transcendental_calls"])
    cols = (profile.curves_stored_sum, profile.curves_evaluated_sum,
            profile.merges, profile.transcendental_calls)
    w.writerows(zip(range(1, len(profile.merges) + 1), *(c.tolist() for c in cols)))


def write_delay_csv(rows: list[DelayRow], fh) -> None:
    w = csv.writer(fh)
    w.writerow(["label", "rep", "outcome", "detect_time", "delay"])
    for r in rows:
        w.writerow(
            [r.label, r.rep, r.outcome, "" if r.detect_time is None else r.detect_time, "" if r.delay is None else r.delay]
        )
