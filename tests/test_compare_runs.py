"""The artifact comparison of tests/compare_runs.py."""

import math

from compare_runs import csv_deviation, differences, metadata_changes


def write(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_differences_and_csv_deviation(tmp_path):
    out, ref = tmp_path / "out", tmp_path / "ref"
    common = {"a/run-metadata.txt": "g=1\nwall_time_s=1.0\n",
              "a/same.csv": "t,x\n0.0,1.0\n"}
    write(out, {**common, "a/near.csv": "t,x\n0.0,1.0\n",
                "a/ours_only.csv": "t\n"})
    write(ref, {**common, "a/near.csv": "t,x\n0.0,1.0000000001\n"})
    (ref / "a" / "run-metadata.txt").write_text("g=1\nwall_time_s=2.0\n")
    # the wall time is not compared; an artifact on one side differs
    assert differences(out, ref) == (["a/near.csv", "a/ours_only.csv"], {})
    diffs, deviations = differences(out, ref, atol=1e-9)
    assert diffs == ["a/ours_only.csv"]
    delta, relative = deviations["a/near.csv"]
    assert math.isclose(delta, 1e-10, rel_tol=1e-5)
    assert math.isclose(relative, 1e-10, rel_tol=1e-5)
    assert csv_deviation(b"t,x\n0,1\n", b"t,x\n0,1.5\n", atol=0.1) \
        == (0.5, 0.5 / 1.5, False)
    # another shape or a non-numeric cell is no numeric deviation
    assert csv_deviation(b"t,x\n0,1\n", b"t\n0\n") \
        == (math.inf, math.inf, False)
    assert csv_deviation(b"t,x\n0,1\n", b"t,y\n0,1\n") \
        == (math.inf, math.inf, False)


def test_metadata_changes():
    ours = b"g=1\nomega_up=0.0\nphi_points=1\nfit_skipped=open\n"
    theirs = b"g=1\nomega_up=100000000.0\nphi_points=17\nzero_phases=True\n"
    assert metadata_changes(ours, theirs) == [
        "added fit_skipped=open", "omega_up: 100000000.0 -> 0.0",
        "phi_points: 17 -> 1", "removed zero_phases=True"]
    assert metadata_changes(ours, ours) == []
