"""Run every reproduction config and compare the artifacts with a reference.

    PYTHONPATH=src python tests/compare_runs.py OUT \
        [--against REF [--atol X] [--rtol R]]

Each ``configs/*.cfg`` runs through ``h2discord run`` into
``OUT/<name>``, in this process; the script prints each config's
``wall_time_s`` from its ``run-metadata.txt``, and their total.  With
``--against``, every artifact of ``OUT/<name>`` is compared byte for
byte with ``REF/<name>``; the ``wall_time_s`` line of
``run-metadata.txt`` is ignored.  With ``--atol X`` or ``--rtol R``
(each 0 when not given) as well, a CSV matches when its shape and
non-numeric cells are equal and every pair of numeric cells a, b has
|a - b| <= X + R max(|a|, |b|), and the script prints the largest
|delta| and the largest |delta| / max(|a|, |b|) of each CSV that is not
byte-identical.  It prints each artifact that differs or is present on
one side only, under each differing ``run-metadata.txt`` the keys
removed, added or changed (``phi_points: 17 -> 1``), and exits
1 on any difference.  pytest does not collect it.
"""

import argparse
import contextlib
import io
import math
import sys
from pathlib import Path

from h2discord.cli import main as h2discord

ROOT = Path(__file__).resolve().parent.parent


def _content(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name == "run-metadata.txt":
        data = b"\n".join(line for line in data.split(b"\n")
                          if not line.startswith(b"wall_time_s="))
    return data


def wall_time(run_dir: Path) -> float:
    """The wall_time_s that a run recorded in its run-metadata.txt."""
    for line in (run_dir / "run-metadata.txt").read_text().splitlines():
        if line.startswith("wall_time_s="):
            return float(line.split("=", 1)[1])
    raise ValueError(f"{run_dir} records no wall_time_s")


def csv_deviation(a: bytes, b: bytes, atol=0.0, rtol=0.0) -> tuple:
    """(largest |delta|, largest |delta| / max(|x|, |y|), whether every
    |delta| <= atol + rtol max(|x|, |y|)) over the numeric cells x, y of
    two CSVs; (inf, inf, False) when their shapes or their other cells
    differ."""
    unequal = (math.inf, math.inf, False)
    rows_a = [line.split(",") for line in a.decode().splitlines()]
    rows_b = [line.split(",") for line in b.decode().splitlines()]
    if [len(row) for row in rows_a] != [len(row) for row in rows_b]:
        return unequal
    worst, worst_rel, match = 0.0, 0.0, True
    for row_a, row_b in zip(rows_a, rows_b):
        for x, y in zip(row_a, row_b):
            if x == y:
                continue
            try:
                x, y = float(x), float(y)
            except ValueError:
                return unequal
            delta, size = abs(x - y), max(abs(x), abs(y))
            if not math.isfinite(delta):
                return unequal
            if not delta:  # 0.0 against -0.0
                continue
            worst, worst_rel = max(worst, delta), max(worst_rel, delta / size)
            match = match and delta <= atol + rtol * size
    return worst, worst_rel, match


def metadata_changes(ours: bytes, theirs: bytes) -> list:
    """One line per key of two run-metadata.txt files that differs:
    `removed key=value`, `added key=value` or `key: theirs -> ours`."""
    def keys(data):
        return dict(line.split("=", 1) for line in data.decode().splitlines()
                    if "=" in line)

    new, old = keys(ours), keys(theirs)
    lines = []
    for key in sorted(new.keys() | old.keys()):
        if key not in new:
            lines.append(f"removed {key}={old[key]}")
        elif key not in old:
            lines.append(f"added {key}={new[key]}")
        elif new[key] != old[key]:
            lines.append(f"{key}: {old[key]} -> {new[key]}")
    return lines


def differences(out: Path, ref: Path, atol=None, rtol=None) -> tuple:
    """Artifact paths, relative to `out`, that differ from `ref`'s, and
    with `atol` or `rtol` the largest |delta| and relative |delta| of
    each CSV that is not byte for byte equal, by path."""
    names = {p.relative_to(out) for p in out.rglob("*") if p.is_file()}
    names |= {p.relative_to(ref) for p in ref.rglob("*") if p.is_file()}
    diffs, deviations = [], {}
    for name in sorted(names):
        if not ((out / name).is_file() and (ref / name).is_file()):
            diffs.append(str(name))
            continue
        ours, theirs = _content(out / name), _content(ref / name)
        if ours == theirs:
            continue
        if (atol, rtol) != (None, None) and name.suffix == ".csv":
            *deviations[str(name)], match = csv_deviation(
                ours, theirs, atol or 0.0, rtol or 0.0)
            if match:
                continue
        diffs.append(str(name))
    return diffs, deviations


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--against", type=Path, metavar="REF")
    parser.add_argument("--atol", type=float, metavar="X",
                        help="compare CSV numbers within X")
    parser.add_argument("--rtol", type=float, metavar="R",
                        help="compare CSV numbers within R max(|a|, |b|)")
    args = parser.parse_args(argv)
    configs = sorted((ROOT / "configs").glob("*.cfg"))
    total = 0.0
    for config in configs:
        with contextlib.redirect_stdout(io.StringIO()):
            code = h2discord(["run", str(config),
                              "--out", str(args.out / config.stem)])
        if code:
            print(f"{config.stem}: h2discord run exited {code}")
            return 1
        seconds = wall_time(args.out / config.stem)
        total += seconds
        print(f"{config.stem:10s} wall_time_s={seconds:.3f}")
    print(f"total      wall_time_s={total:.3f}")
    if args.against is None:
        return 0
    diffs, deviations = differences(args.out, args.against, args.atol,
                                    args.rtol)
    for name, (delta, relative) in deviations.items():
        print(f"max|delta| {delta:.2e} relative {relative:.2e}: {name}")
    for name in diffs:
        print(f"differs: {name}")
        ours, theirs = args.out / name, args.against / name
        if ours.name == "run-metadata.txt" and ours.is_file() \
                and theirs.is_file():
            for line in metadata_changes(_content(ours), _content(theirs)):
                print(f"    {line}")
    print(f"{len(diffs)} differing artifacts over {len(configs)} configs")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
