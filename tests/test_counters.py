"""The cost counters, counted from outside the states, step by step.

A state tallies what it does, and `PruneState.counters` derives the four
counts from those tallies, for the fused step and the layered one alike.
Here each count is rebuilt from what a caller sees after every step: the
records before and after it, the evaluations that the walks report or
that `q_full` makes (one per record), and the family's cost model:
- merges: a step adds one candidate, so len_before + 1 - len_after;
- stored: len_after;
- a prefix bound: the newest record has tau == T - 1 and a predecessor,
  1 log evaluation with theta0 known and 3 without;
- a curve: 1 log evaluation known, 2 unknown, and with theta0 unknown each
  walk or maximisation over a non-empty state adds 1 for the pooled term;
each log evaluation costing the family's ``transcendental_cost`` calls.
`counter_profile` derives its per-step columns from the same tallies, so
they must be the step-to-step differences of those counts.
"""

from dataclasses import astuple

import numpy as np
import pytest

from streamcpd import (
    Detector,
    DetectorConfig,
    FamilySpec,
    Scenario,
    attach_bounds,
    check,
    counter_profile,
    generate,
    q_full,
    step_states,
    update,
)
from streamcpd.counters import CounterSet

# family, pre-change theta, post-change thetas (above, below)
FAMILIES = [
    (FamilySpec.gauss_mean(), 0.0, (1.0, -1.0)),
    (FamilySpec.gauss_var(), 1.0, (2.5, 0.4)),
    (FamilySpec.poisson(), 2.0, (3.5, 1.0)),
    (FamilySpec.binomial(4), 0.4, (0.65, 0.2)),
    (FamilySpec.gamma(2.0), 1.0, (1.8, 0.5)),
]
THRESHOLD = 8.0  # low: past the change the walks take their hit path, with no stop


class Outside:
    """The counts of one state, or of several summed, from outside."""

    def __init__(self, spec: FamilySpec, known: bool):
        self.cost, self.known = spec.transcendental_cost, known
        self.merges = self.stored = self.evaluated = self.logs = 0
        self.barriers = self.bounds = 0

    def absorbed(self, st, len_before: int) -> None:
        recs = st.records
        self.merges += len_before + 1 - len(recs)
        self.stored += len(recs)
        self.barriers += not recs
        if len(recs) >= 2 and recs[-1][0] == st.total_count - 1:
            self.bounds += 1
            self.logs += self.cost * (1 if self.known else 3)

    def evaluated_curves(self, evals: int, pooled_terms: int) -> None:
        self.evaluated += evals
        self.logs += self.cost * (evals if self.known else 2 * evals + pooled_terms)

    def counters(self) -> CounterSet:
        return CounterSet(self.merges, self.stored, self.evaluated, self.logs)


def total(states) -> CounterSet:
    c = [st.counters for st in states]
    return CounterSet(*(sum(getattr(x, f) for x in c) for f in
                        ("merges", "curves_stored_sum", "curves_evaluated_sum", "transcendental_calls")))


def cases():
    for spec, pre, posts in FAMILIES:
        for known in (True, False):
            for direction in ("up", "down", "both"):
                yield spec, pre, posts[1] if direction == "down" else posts[0], known, direction


CASES = list(cases())
IDS = [f"{c[0].kind.value}-{'known' if c[3] else 'unknown'}-{c[4]}" for c in CASES]


@pytest.mark.parametrize("spec,pre,post,known,direction", CASES, ids=IDS)
def test_counters_equal_the_counts_seen_from_outside(spec, pre, post, known, direction):
    # null for 150 steps (the barrier fires with theta0 known), then shifted
    scenario = Scenario(spec, pre, post, 150, 300, 73)
    data = generate(scenario).tolist()
    config = DetectorConfig(spec, pre if known else None, THRESHOLD, direction)
    fused, layered, maximised, full = (Detector(config).states for _ in range(4))
    n = len(fused)
    out_fused, out_full = Outside(spec, known), Outside(spec, known)
    out_layered = [Outside(spec, known) for _ in range(n)]
    out_maximised = [Outside(spec, known) for _ in range(n)]
    seen = {"adaptive": [], "full": []}  # the summed counts after each step
    multi_eval_walks = 0
    for T, x in enumerate(data, 1):
        g = spec.suff(x)

        # the fused step: walks only once the statistic is defined
        before = [len(st.records) for st in fused]
        _, evals, stored = step_states(fused, spec, g, THRESHOLD)
        for st, b in zip(fused, before):
            out_fused.absorbed(st, b)
        assert stored == sum(len(st.records) for st in fused)
        walked = n if known or T >= 2 else 0
        out_fused.evaluated_curves(evals, 0 if known else walked)
        multi_eval_walks += evals > walked
        assert total(fused) == out_fused.counters()
        seen["adaptive"].append(out_fused.counters())

        # the public layers, one state at a time, with a check at every step
        for st, out in zip(layered, out_layered):
            b = len(st.records)
            update(st, g)
            attach_bounds(st, spec)
            out.absorbed(st, b)
            res = check(st, spec, THRESHOLD)
            out.evaluated_curves(res.curves_evaluated, 1)  # theta0 unknown: never empty
            assert st.counters == out.counters()

        # no walk, then full maximisation over every record
        before = [len(st.records) for st in maximised]
        step_states(maximised, spec, g, None)
        for st, out, b in zip(maximised, out_maximised, before):
            out.absorbed(st, b)
            q_full(st, spec)
            if st.records:
                out.evaluated_curves(len(st.records), 1)
            assert st.counters == out.counters()

        # counter_profile's full mode: no walk, and q_full over every
        # direction from the second step on with theta0 unknown
        before = [len(st.records) for st in full]
        step_states(full, spec, g, None)
        for st, b in zip(full, before):
            out_full.absorbed(st, b)
            if known or T >= 2:
                q_full(st, spec)
                if st.records:
                    out_full.evaluated_curves(len(st.records), 1)
        assert total(full) == out_full.counters()
        seen["full"].append(out_full.counters())

    # each profile column is the per-step difference of the counts
    for mode, counts in seen.items():
        prof = np.column_stack(astuple(counter_profile(config, scenario, mode)))
        assert prof.dtype == np.int64
        assert np.array_equal(prof, np.diff([astuple(c) for c in counts], axis=0, prepend=0))

    assert out_fused.bounds > 0 and multi_eval_walks > 0
    assert (out_fused.barriers > 0) == known  # the barrier fires only with theta0 known


def test_counters_are_a_snapshot():
    spec = FamilySpec.poisson()
    det = Detector(DetectorConfig(spec, None, THRESHOLD, "both"))
    for x in (1.0, 4.0, 0.0, 2.0, 6.0):
        det.step(x)
    st = det.states[0]
    before = st.counters
    snap = st.counters
    snap.merges += 100
    snap.transcendental_calls = -1
    assert st.counters == before and st.counters is not before
