"""Benchmark a change against its parent in alternating pairs of runs.

    python3 tests/bench_pairs.py PARENT CHANGE [--pairs 10] [--seconds T] \
        [--seed 0] [--workload W ...]

PARENT and CHANGE are source checkouts, for instance two ``git archive``
extracts.  Each pair runs

    python3 perfbench/run.py --workload W --seed SEED --seconds T --trace 0

once in each checkout, the parent first in even pairs and the change
first in odd ones, and reads the JSON result on the last line of its
stdout.  The pairs cycle through the workloads (default: every workload
of the parent's BENCHMARK.json), so that host drift hits all of them
alike; T defaults to its ``run_seconds``.

Per workload it prints each side's failed runs over attempted runs, and
per end-to-end metric each side's median and quartiles, the change's
relative difference of medians, how many pairs the change won (ties
count for neither side) and the first verdict that holds of:

* ``worse``: the change's median is worse than the parent's by more
  than the metric's bound, read as a share of the parent median, as
  ``perfbench/suite.py`` reads it;
* ``unresolved``: the parent's spread, its interquartile range as a
  share of its median, is wider than the bound;
* ``gain``: the change wins at least nine tenths of the pairs, and its
  median is better than the parent's by more than the parent's
  interquartile range;
* ``same``.

It exits 1 on a ``worse`` verdict, or when the change has more failed
runs than the parent on some workload.  A run of ``perfbench/run.py``
that exits nonzero or prints no result counts as one failed run.  The
script uses the standard library only and writes nothing under the
checkouts but what ``perfbench/run.py`` writes; pytest does not collect
it.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# the share of pairs the change must win for a gain
GAIN_SHARE = 0.9


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """The result line of one perfbench run in `checkout`; a failed
    result when the run exits nonzero or prints no result."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(argv, cwd=checkout, capture_output=True,
                              text=True, timeout=seconds + 600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode == 0 and "metrics" in result:
            return result
        error = f"exit {proc.returncode}: {proc.stderr[-500:]}"
    except (subprocess.SubprocessError, IndexError, ValueError) as exc:
        error = repr(exc)
    print(f"  {checkout}: {workload} failed: {error}", file=sys.stderr)
    return {"attempted": 1, "failed": 1, "metrics": {}}


def summarize(parent: list, change: list, better: str,
              bound: float) -> dict:
    """Statistics and verdict of one metric.  parent[i] and change[i]
    are the two sides' values in pair i, None where a side's run
    failed; each side needs two values at least."""
    sign = 1.0 if better == "lower" else -1.0
    sides = {}
    for name, values in (("parent", parent), ("change", change)):
        q1, median, q3 = statistics.quantiles(
            [v for v in values if v is not None], n=4)
        sides[name] = {"q1": q1, "median": median, "q3": q3}
    base, new = sides["parent"]["median"], sides["change"]["median"]
    # positive when the change is worse
    worse_by = sign * (new - base) / base
    iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
    won = sum(1 for p, c in zip(parent, change)
              if p is not None and c is not None and sign * (c - p) < 0)
    if worse_by > bound:
        verdict = "worse"
    elif iqr / base > bound:
        verdict = "unresolved"
    elif won >= GAIN_SHARE * len(parent) and sign * (base - new) > iqr:
        verdict = "gain"
    else:
        verdict = "same"
    return {**sides, "relative": new / base - 1, "won": won,
            "pairs": len(parent), "verdict": verdict}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    with open(args.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    sides = {"parent": args.parent, "change": args.change}
    results = {(w, side): [] for w in workloads for side in sides}
    for pair in range(args.pairs):
        for w in workloads:
            order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
            for side in order:
                result = run_once(sides[side], w, args.seed, seconds)
                results[(w, side)].append(result)
                shown = " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in result["metrics"].items())
                print(f"pair {pair} {w} {side}: {shown or 'failed'}",
                      file=sys.stderr, flush=True)

    status = 0
    for w in workloads:
        failed = {side: (sum(r["failed"] for r in results[(w, side)]),
                         sum(r["attempted"] for r in results[(w, side)]))
                  for side in sides}
        print(f"{w}: failed runs parent {failed['parent'][0]}/"
              f"{failed['parent'][1]}, change {failed['change'][0]}/"
              f"{failed['change'][1]}")
        if failed["change"][0] > failed["parent"][0]:
            status = 1
        for metric in metrics:
            name = metric["name"]
            values = {side: [r["metrics"].get(name, {}).get("value")
                             for r in results[(w, side)]] for side in sides}
            try:
                s = summarize(values["parent"], values["change"],
                              metric["better"], metric["bound"])
            except statistics.StatisticsError:
                print(f"  {name:12s} too few runs to compare")
                status = 1
                continue
            p, c = s["parent"], s["change"]
            print(f"  {name:12s} parent {p['median']:.4g} "
                  f"[{p['q1']:.4g}, {p['q3']:.4g}]  change {c['median']:.4g}"
                  f" [{c['q1']:.4g}, {c['q3']:.4g}] {metric['unit']}  "
                  f"{s['relative']:+.2%}  won {s['won']}/{s['pairs']}  "
                  f"{s['verdict']}")
            if s["verdict"] == "worse":
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
