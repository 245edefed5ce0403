"""Run every workload over several seeds and report medians and spreads.

    python3 perfbench/suite.py --seeds 10 --sets 2 --trace 0
    python3 perfbench/suite.py --seeds 2 --trace 1

Runs ``perfbench/run.py`` once per (seed, workload, set), interleaving
the workloads and the sets so that host drift hits all of them alike.
For each workload and metric it prints the median over seeds, the
spread (third minus first quartile, as a share of the median) and, with
two sets, how much the second set's median differs from the first's.
Every run lasts BENCHMARK.json's run_seconds.  Each end-to-end metric's
spread, and the difference between the sets in either direction, must
stay within the metric's bound; otherwise the exit code is 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10,
                        help="seeds 0 .. N-1")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]

    results = {(w, s): [] for w in names for s in range(args.sets)}
    for seed in range(args.seeds):
        for w in names:
            order = range(args.sets)
            if seed % 2:
                order = reversed(order)
            for s in order:
                result = run_once(w, seed, seconds, args.trace)
                results[(w, s)].append(result)
                shown = " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in result["metrics"].items())
                print(f"seed {seed} {w} set {s}: correct={result['correct']}"
                      f" {result['attempted']} runs: {shown}", flush=True)

    ok = True
    print()
    for w in names:
        base = results[(w, 0)]
        failed = sum(r["failed"] for s in range(args.sets)
                     for r in results[(w, s)])
        attempted = sum(r["attempted"] for s in range(args.sets)
                        for r in results[(w, s)])
        print(f"{w}: failed_ratio {failed}/{attempted}")
        ok &= failed == 0
        for key in base[0]["metrics"]:
            unit = base[0]["metrics"][key]["unit"]
            medians, line = [], []
            for s in range(args.sets):
                values = [r["metrics"][key]["value"] for r in results[(w, s)]]
                medians.append(statistics.median(values))
                line.append(f"median {medians[-1]:.6g} {unit}")
                if len(values) >= 2 and medians[-1]:
                    line.append(f"spread {spread(values):.4f}")
                    if key in bounds and spread(values) > bounds[key]:
                        line.append("OVER BOUND")
                        ok = False
            if args.sets > 1 and medians[0]:
                drift = medians[1] / medians[0] - 1
                line.append(f"second/first {drift:+.4f}")
                if key in bounds and abs(drift) > bounds[key]:
                    line.append("OVER BOUND")
                    ok = False
            print(f"  {key:24s} " + ", ".join(line))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
