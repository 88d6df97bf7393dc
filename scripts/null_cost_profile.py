#!/usr/bin/env python3
"""Per-step cost comparison of the three update strategies on a null stream.

Runs (i) root-comparison pruning with full maximisation, (ii) mean-comparison
pruning with full maximisation, and (iii) mean-comparison pruning with the
adaptive maxima check, all on the same Bernoulli null stream with a known
pre-change parameter.  Emits a plot-ready CSV of per-step curve evaluations
and transcendental calls for each strategy, plus a summary to stderr.

Usage: python3 scripts/null_cost_profile.py --length 100000 --seed 1 -o cost.csv
"""

import argparse
import csv
import sys

from root_pruning import update_root_pruning
from streamcpd import (
    Direction,
    FamilySpec,
    Scenario,
    generate,
    new_state,
    q_full,
    step_states,
    update,
)
from streamcpd.counters import CounterSet


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--length", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--theta", type=float, default=0.5)
    ap.add_argument("--threshold", type=float, default=30.0)
    ap.add_argument("--root-tol", type=float, default=1e-10)
    ap.add_argument("--output", "-o", default="-")
    args = ap.parse_args()

    fam = FamilySpec.binomial(1)
    stream = generate(Scenario(fam, args.theta, args.theta, 0, args.length, args.seed))
    g_list = fam.suff_arr(stream).tolist()  # Python floats: numpy scalars cost about 1.4x per step

    st_root = new_state(Direction.UP, args.theta, fam)
    roots: list[float] = []  # st_root's candidate roots, beside its records
    st_mean = new_state(Direction.UP, args.theta, fam)
    st_adap = new_state(Direction.UP, args.theta, fam)

    fout = sys.stdout if args.output == "-" else open(args.output, "w")
    w = csv.writer(fout)
    w.writerow([
        "t",
        "eval_root", "trans_root",
        "eval_mean", "trans_mean",
        "eval_adaptive", "trans_adaptive",
    ])
    root_logs = CounterSet()  # the root solves' log calls, added to st_root's

    # each step's counts are the running totals less the previous step's
    def snap():
        counts = [st.counters for st in (st_root, st_mean, st_adap)]
        counts[0].transcendental_calls += root_logs.transcendental_calls
        return counts

    before = [(c.curves_evaluated_sum, c.transcendental_calls) for c in snap()]
    for i, g in enumerate(g_list):
        update_root_pruning(st_root, roots, g, fam, args.theta, args.root_tol, root_logs)
        q_full(st_root, fam)
        update(st_mean, g)
        q_full(st_mean, fam)
        step_states([st_adap], fam, g, args.threshold)
        after = [(c.curves_evaluated_sum, c.transcendental_calls) for c in snap()]
        row = [i + 1]
        for b, a in zip(before, after):
            row.extend([a[0] - b[0], a[1] - b[1]])
        w.writerow(row)
        before = after
    if fout is not sys.stdout:
        fout.close()

    n = args.length
    for name, c in zip(("root+full", "mean+full", "mean+adaptive"), snap()):
        print(
            f"{name:14s} evaluated/step={c.curves_evaluated_sum / n:.3f} "
            f"transcendental/step={c.transcendental_calls / n:.3f} "
            f"merges/step={c.merges / n:.3f} stored/step={c.curves_stored_sum / n:.3f}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
