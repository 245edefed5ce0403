"""Run every reproduction config and compare the artifacts with a reference.

    PYTHONPATH=src python tests/compare_runs.py OUT [--against REF]

Each ``configs/*.cfg`` runs through ``h2discord run`` into
``OUT/<name>``, in this process; the script prints each config's
``wall_time_s`` from its ``run-metadata.txt``, and their total.  With
``--against``, every artifact of ``OUT/<name>`` is compared byte for
byte with ``REF/<name>``; the ``wall_time_s`` line of
``run-metadata.txt`` is ignored.  The script prints each artifact that
differs or is present on one side only, and exits 1 on any difference.
pytest does not collect it; the configs' ``wall_time_s`` sum to about
20 s on a 2-core host.
"""

import argparse
import contextlib
import io
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


def differences(out: Path, ref: Path) -> list:
    """Artifact paths, relative to `out`, that differ from `ref`'s."""
    names = {p.relative_to(out) for p in out.rglob("*") if p.is_file()}
    names |= {p.relative_to(ref) for p in ref.rglob("*") if p.is_file()}
    return sorted(
        str(name) for name in names
        if not ((out / name).is_file() and (ref / name).is_file())
        or _content(out / name) != _content(ref / name))


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--against", type=Path, metavar="REF")
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
    diffs = differences(args.out, args.against)
    for name in diffs:
        print(f"differs: {name}")
    print(f"{len(diffs)} differing artifacts over {len(configs)} configs")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
