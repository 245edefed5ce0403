"""Benchmark of the h2discord command line.

    python3 perfbench/run.py --workload closed-pure --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout.  The program is run from
``src/`` as it stands, one cold subprocess at a time (closed loop, one
client), with the BLAS thread count pinned in the child's environment.

Runs follow one another while the next one is expected to end within
``--seconds`` seconds.  Set-up, ``h2discord validate`` on the generated
config (interpreter start, imports and config resolution), goes before
each run and after the last; ``setup_s`` is its median.  The set-ups
are spread over the window, as the runs are, so that a burst of host
load moves one sample of each, not all of them.

* ``--trace 0``: repeated ``h2discord run`` subprocesses.  Reports the
  median wall time and the median peak RSS of the child, from the
  child's own rusage.
* ``--trace 1``: alternates untraced runs with runs under
  ``perfbench/tracer.py``, which records a span around every public
  layer function.  Reports the per-layer busy times and counts of the
  traced runs, and the tracer's own time in them.  The wall time of each
  traced run minus that of the untraced run before it goes to the
  ``detail`` line: host drift between runs is far larger than the
  tracer's cost, so that difference does not measure it.

Every run's outputs are checked (see ``workloads.check_outputs``).  The
last line of stdout is the JSON result; a summary goes to stderr.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"

BLAS_THREADS = min(2, os.cpu_count() or 1)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
RUN_TIMEOUT_S = 120
SETUP_TIMEOUT_S = 20
PURE_TOL = 1e-10


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def run_child(argv, env, timeout, log_path):
    """Run argv to completion; returns (exit code, wall s, peak RSS in MiB).

    The RSS comes from this child's own rusage (wait4), not from the
    maximum over every child the benchmark has reaped.
    """
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=log)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return code, wall, usage.ru_maxrss / 1024.0


def environment() -> dict:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = child_env()
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "child_threads": {var: env[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


# ---- per-layer metrics from the spans of one traced run -----------------

def _busy(spans, names) -> float:
    """Time inside calls to `names`, counting nested calls once."""
    total = 0.0
    for name, start, end, parent, _ in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def expected_calls(workload: str) -> tuple:
    """Functions every run of the workload must call at least once."""
    space = "statespace.generate_space" \
        if workloads.WORKLOADS[workload]["fixed"]["space_mode"] == "closure" \
        else "statespace.table_space"
    names = (space, "operators.build_hamiltonian",
             "operators.build_jump_channels", "dynamics.evolve",
             "discord.discord", "analysis.run_discord_series",
             "analysis.population", "analysis.state_population",
             "cli.resolve_config", "cli.run")
    if workload == "closed-pure":
        names += ("analysis.fit_sinusoid", "analysis.envelope")
    return names


def layer_metrics(doc: dict, workload: str) -> dict:
    names, spans = doc["names"], doc["spans"]
    called = {span[0] for span in spans}
    missing = [name for name in expected_calls(workload)
               if name not in called]
    if missing:
        raise RuntimeError(f"traced {workload} run recorded no call to "
                           f"{', '.join(missing)}")

    dims = {s[4] for s in spans if s[0].startswith("statespace.")
            and s[4] is not None}
    if dims != {workloads.WORKLOADS[workload]["dim"]}:
        raise RuntimeError(f"traced {workload} run built spaces of size "
                           f"{sorted(dims)}")

    def layer(prefix):
        return {n for n in names if n.startswith(prefix)}

    discord_calls = [s for s in spans if s[0] == "discord.discord"]
    cli_self = 0.0
    for index, span in enumerate(spans):
        if span[0] == "cli.run":
            children = sum(c[2] - c[1] for c in spans if c[3] == index)
            cli_self += span[2] - span[1] - children
    return {
        "discord.busy_s": _busy(spans, layer("discord.")),
        "discord.calls": len(discord_calls),
        "discord.durations_ms": [1e3 * (s[2] - s[1]) for s in discord_calls],
        "discord.pure_share": sum(s[4] < PURE_TOL for s in discord_calls)
        / len(discord_calls),
        "dynamics.evolve_s": _busy(spans, {"dynamics.evolve"}),
        "dynamics.records": sum(s[4] for s in spans
                                if s[0] == "dynamics.evolve"),
        "statespace.build_s": _busy(spans, {
            "statespace.table_space", "statespace.full_space",
            "statespace.generate_space"}),
        "statespace.dim": dims.pop(),
        "operators.build_s": _busy(spans, layer("operators.")),
        "analysis.fit_s": _busy(spans, {"analysis.fit_sinusoid",
                                        "analysis.envelope"}),
        "analysis.observables_s": _busy(spans, {
            "analysis.population", "analysis.state_population"}),
        "cli.config_s": _busy(spans, {"cli.parse_config",
                                      "cli.resolve_config"}),
        "cli.self_s": cli_self,
        "cli.main_s": _busy(spans, {"cli.main"}),
        "trace.overhead_s": doc["overhead_s"],
    }


# busy times reported as shares of the traced cli.main span
SHARE_KEYS = ("discord.busy_s", "dynamics.evolve_s", "statespace.build_s",
              "operators.build_s", "analysis.fit_s",
              "analysis.observables_s", "cli.config_s", "cli.self_s")


def _percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def aggregate_layers(per_run: list) -> dict:
    """Medians over the traced runs and pooled call-time percentiles.
    Includes values that are not declared metrics."""
    durations = [d for run in per_run for d in run["discord.durations_ms"]]
    out = {key: statistics.median(run[key] for run in per_run)
           for key in per_run[0] if key != "discord.durations_ms"}
    out["discord.call_ms_p50"] = _percentile(durations, 50)
    out["discord.call_ms_p90"] = _percentile(durations, 90)
    return out


# ---- the benchmark --------------------------------------------------------

def declared_units(trace: bool) -> dict:
    """{metric: unit} that BENCHMARK.json declares for this mode."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def load_reference(workload: str, seed: int):
    """The stored output fingerprint, if it was taken with this seed."""
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    if seed != reference["fingerprint_seed"]:
        return None
    return reference["fingerprints"][workload]


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              work: Path) -> dict:
    env = child_env()
    cfg = work / "bench.cfg"
    cfg.write_text(workloads.config_text(workload, seed), encoding="utf-8")
    cli = [sys.executable, "-m", "h2discord.cli"]
    reference = load_reference(workload, seed)

    setup = []

    def validate():
        code, wall, _ = run_child(cli + ["validate", str(cfg)], env,
                                  SETUP_TIMEOUT_S, work / "validate.log")
        if code != 0:
            raise RuntimeError(f"h2discord validate exited {code}: "
                               + (work / "validate.log").read_text())
        setup.append(wall)

    runs = []           # dicts: traced, wall, rss, problems, layers
    start = time.perf_counter()
    # start another set-up and run only while they are expected to end
    # inside the window
    while not runs or time.perf_counter() - start + runs[-1]["wall"] \
            + setup[-1] <= seconds \
            or (trace and not any(r["traced"] for r in runs)):
        validate()
        traced = trace and len(runs) % 2 == 1
        out = work / f"out{len(runs)}"
        spans = work / f"spans{len(runs)}.json"
        argv = cli + ["run", str(cfg), "--out", str(out)]
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans)] \
                + argv[3:]
        code, wall, rss = run_child(argv, env, RUN_TIMEOUT_S,
                                    work / f"run{len(runs)}.log")
        problems = workloads.check_outputs(workload, out, code, reference)
        if problems:
            log = (work / f"run{len(runs)}.log").read_text()
            print(f"run {len(runs)} failed: {problems[:5]}\n{log[-2000:]}",
                  file=sys.stderr)
        run = {"traced": traced, "wall": wall, "rss": rss,
               "problems": problems}
        if traced and code == 0:
            with open(spans, encoding="utf-8") as fh:
                run["layers"] = layer_metrics(json.load(fh), workload)
        runs.append(run)
        shutil.rmtree(out, ignore_errors=True)
    validate()

    plain = [r for r in runs if not r["traced"]]
    good_traced = [r for r in runs if "layers" in r]
    if trace:
        if not good_traced:
            raise RuntimeError("no traced run completed")
        metrics = aggregate_layers([r["layers"] for r in good_traced])
    else:
        metrics = {"wall_s": statistics.median(r["wall"] for r in plain),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": statistics.median(r["rss"] for r in plain)}
    # traced runs have odd indices, each after an untraced one
    paired = [r["wall"] - runs[i - 1]["wall"]
              for i, r in enumerate(runs) if "layers" in r]
    return {"runs": runs, "setup": setup, "metrics": metrics,
            "traced_minus_untraced_s": paired,
            "attempted": len(runs),
            "failed": sum(1 for r in runs if r["problems"]),
            "discord_samples": sum(r["layers"]["discord.calls"]
                                   for r in good_traced)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "h2discord" / "cli.py").is_file():
        print(f"no h2discord sources under {SRC}", file=sys.stderr)
        return 2
    env_record = environment()
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    env_record["loadavg_end"] = os.getloadavg()

    units = declared_units(bool(args.trace))
    missing = set(units) - set(result["metrics"])
    if missing:
        raise RuntimeError(f"BENCHMARK.json declares {sorted(missing)}, "
                           "which this run did not measure")
    metrics = {key: result["metrics"][key] for key in units}
    detail = {
        "env": env_record,
        "failed_ratio": f"{result['failed']}/{result['attempted']}",
        "run_walls_s": [round(r["wall"], 4) for r in result["runs"]],
        "traced": [r["traced"] for r in result["runs"]],
        "setup_walls_s": [round(w, 4) for w in result["setup"]],
    }
    if args.trace:
        # measured but not metrics: analysis.fit_s reads exactly 0 on the
        # workloads that skip the fit
        detail["other_layers"] = {key: value for key, value
                                  in result["metrics"].items()
                                  if key not in units}
        main_s = result["metrics"]["cli.main_s"]
        detail["layer_shares"] = {
            key: float(f"{result['metrics'][key] / main_s:.3g}")
            for key in SHARE_KEYS}
        detail["discord_call_samples"] = result["discord_samples"]
        detail["traced_minus_untraced_s"] = [
            round(d, 4) for d in result["traced_minus_untraced_s"]]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"failed {detail['failed_ratio']} runs", file=sys.stderr)
    for key, value in metrics.items():
        print(f"  {key:24s} {value:12.6g} {units[key]}", file=sys.stderr)
    for key, value in detail.items():
        print(f"  {key}: {value}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
