"""The reproduction's figures match tests/reproduction.json.

Criteria 2, 3 and 5 hold c within 15% and the peaks monotone, so small
drifts would pass them.  This test pins every sweep point's discord and
observable columns (sum, largest, final), its record count, each closed
point's fitted period and each period law's c, within 1e-12 x
max(1, |value|).  `tests/pin_reproduction.py` rewrites the file.
"""

import json

import pytest

from pin_reproduction import PINNED, SWEEPS, figures

PINS = json.loads(PINNED.read_text(encoding="utf-8"))


def mismatches(want, got, path=""):
    """The paths at which two pinned trees differ beyond the tolerance."""
    if isinstance(want, dict):
        if set(want) != set(got):
            return [f"{path}: keys {sorted(want)} != {sorted(got)}"]
        return [m for key in want
                for m in mismatches(want[key], got[key], f"{path}/{key}")]
    if isinstance(want, list):
        return [m for i, (w, g) in enumerate(zip(want, got, strict=True))
                for m in mismatches(w, g, f"{path}[{i}]")]
    if abs(got - want) > 1e-12 * max(1.0, abs(want)):
        return [f"{path}: {got!r} != {want!r}"]
    return []


def test_every_sweep_config_is_pinned():
    assert sorted(PINS) == sorted(SWEEPS)


@pytest.mark.parametrize("name", SWEEPS)
def test_figures_match_the_pinned_ones(sweep_runs, name):
    got = figures(sweep_runs(name)[0])
    assert mismatches(PINS[name], got) == []
