"""Workload configs drawn from a seed, and the check of a run's outputs.

Each workload is a ``discord-series`` config.  The seed draws only the
physics parameters, inside fixed ranges; ``dt``, ``t_end`` and
``record_stride`` are written out explicitly, so every seed evolves the
same number of steps, records the same number of snapshots and runs the
same number of discord searches.
"""

import csv
import math
import random
from pathlib import Path

# name -> fixed keys, drawn keys {key: (low, high) in units of g} and
# the expected state-space size.
WORKLOADS = {
    # fig4a's resolved horizon and record grid; every snapshot is pure
    "closed-pure": {
        "fixed": {"space_mode": "table-compat", "zeta": "g",
                  "dt": "1e-10", "t_end": "4.5553093477052e-06",
                  "record_stride": "393"},
        "drawn": {"g_omega": (0.15, 0.25)},
        "dim": 26,
    },
    # dt follows the damped-run rule 2e-5/gamma at the top of the gamma
    # range, and the stride keeps the default record spacing pi/(8g)
    "open-mixed": {
        "fixed": {"space_mode": "table-compat", "zeta": "g",
                  "dt": "8e-12", "t_end": "3.6e-06",
                  "record_stride": "4909", "dump_rho": "true"},
        "drawn": {"gamma": (0.15, 0.25), "g_omega": (0.4, 0.6)},
        "dim": 26,
    },
    # fig9a's horizon on the 36-state closure space
    "open-closure": {
        "fixed": {"space_mode": "closure", "zeta": "g", "g_omega": "g",
                  "dt": "1.6e-12", "t_end": "9.1106186954104e-07",
                  "record_stride": "24544"},
        "drawn": {"gamma": (0.8, 1.2)},
        "dim": 36,
    },
}

DEFAULT_SEED = 0


def draw_params(workload: str, seed: int) -> dict:
    """The seed's physics parameters, as multiples of g."""
    rng = random.Random(f"{workload}:{seed}")
    drawn = WORKLOADS[workload]["drawn"]
    return {key: round(rng.uniform(low, high), 6)
            for key, (low, high) in sorted(drawn.items())}


def config_text(workload: str, seed: int) -> str:
    """The generated config file; the same seed gives the same bytes."""
    spec = WORKLOADS[workload]
    lines = [f"# perfbench workload {workload}, seed {seed}",
             "kind = discord-series"]
    lines += [f"{key} = {value}" for key, value in spec["fixed"].items()]
    lines += [f"{key} = {value!r}g"
              for key, value in draw_params(workload, seed).items()]
    return "\n".join(lines) + "\n"


def expected_rows(workload: str) -> int:
    """Snapshots the fixed grid records: the initial state, every
    record_stride-th step, and the final step."""
    fixed = WORKLOADS[workload]["fixed"]
    n_steps = max(1, round(float(fixed["t_end"]) / float(fixed["dt"])))
    return 1 + math.ceil(n_steps / int(fixed["record_stride"]))


def _rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return [{key: float(value) for key, value in row.items()}
                for row in csv.DictReader(fh)]


def fingerprint(out_dir) -> dict:
    """Peak discord, final vacuum and photon populations and, if fitted,
    the period.  The photon population is nonzero on every workload, so
    the population check can fail even where the vacuum stays empty."""
    out = Path(out_dir)
    final = _rows(out / "observables.csv")[-1]
    result = {
        "peak_D": max(row["D"] for row in _rows(out / "discord.csv")),
        "final_pop_0000000": final["pop_0000000"],
        "final_pop_photons_present": final["pop_photons_present"],
    }
    if (out / "fit.csv").exists():
        result["period"] = _rows(out / "fit.csv")[0]["period"]
    return result


# Absolute tolerance for peak_D and the final populations, relative for
# the period.  Far wider than a change of propagator or of the discord
# refine moves them (below 1e-4), far narrower than a wrong model does.
FINGERPRINT_ABS_TOL = 1e-3
FINGERPRINT_REL_TOL = 1e-3


def check_outputs(workload: str, out_dir, returncode: int,
                  reference=None) -> list:
    """Problems with one run's outputs; an empty list means correct.

    ``reference`` is the stored fingerprint of this workload's default
    seed, or None for any other seed.
    """
    if returncode != 0:
        return [f"exit code {returncode}"]
    out = Path(out_dir)
    problems = []
    try:
        discord_rows = _rows(out / "discord.csv")
        obs_rows = _rows(out / "observables.csv")
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc}"]
    rows = expected_rows(workload)
    for name, table in (("discord.csv", discord_rows),
                        ("observables.csv", obs_rows)):
        if len(table) != rows:
            problems.append(f"{name}: {len(table)} rows, expected {rows}")
    for i, row in enumerate(discord_rows):
        d = row["D"]
        if abs(d - (row["I"] - row["J"])) > 1e-9:
            problems.append(f"discord.csv row {i}: D != I - J")
        if not -1e-9 <= d <= min(row["I"], row["S_A"]) + 1e-6:
            problems.append(f"discord.csv row {i}: D={d!r} outside "
                            f"[0, min(I, S_A)]")
        if abs(row["p0"] + row["p1"] + row["p2"] + row["p3"] - 1) > 1e-9:
            problems.append(f"discord.csv row {i}: p0..p3 do not sum to 1")
    for i, row in enumerate(obs_rows):
        if abs(row["trace"] - 1) > 1e-9:
            problems.append(f"observables.csv row {i}: trace {row['trace']!r}")
    if WORKLOADS[workload]["fixed"].get("dump_rho") == "true" \
            and not (out / "rho.csv").exists():
        problems.append("rho.csv missing")
    if reference is not None:
        got = fingerprint(out)
        for key, want in reference.items():
            have = got.get(key)
            tol = FINGERPRINT_REL_TOL * abs(want) if key == "period" \
                else FINGERPRINT_ABS_TOL
            if have is None or abs(have - want) > tol:
                problems.append(f"fingerprint {key}: {have!r}, "
                                f"reference {want!r}")
    return problems
