"""Tests of the benchmark harness itself (configs, output check, tracer)."""

import json
import subprocess
import sys

import pytest

import run
import workloads
from h2discord.cli import parse_config, resolve_config
from h2discord.dynamics import _record_points
from h2discord.statespace import generate_space

NAMES = sorted(workloads.WORKLOADS)


def _resolve(workload, seed):
    return resolve_config(parse_config(workloads.config_text(workload, seed)))


@pytest.mark.parametrize("workload", NAMES)
def test_same_seed_same_config_bytes(workload, tmp_path):
    for name in ("a.cfg", "b.cfg"):
        (tmp_path / name).write_text(workloads.config_text(workload, 7),
                                     encoding="utf-8")
    assert (tmp_path / "a.cfg").read_bytes() == \
        (tmp_path / "b.cfg").read_bytes()


@pytest.mark.parametrize("workload", NAMES)
def test_seeds_change_physics_not_work(workload):
    first, second = _resolve(workload, 1), _resolve(workload, 2)
    assert first.params != second.params
    for cfg in (first, second):
        space = generate_space(cfg.seeds, cfg.params, cfg.gating,
                               include_dissipation=cfg.include_dissipation,
                               mode=cfg.space_mode)
        assert space.size == workloads.WORKLOADS[workload]["dim"]
        n_steps = max(1, int(round(cfg.t_end / cfg.dt)))
        rows = 1 + len(_record_points(n_steps, cfg.record_stride))
        assert rows == workloads.expected_rows(workload)
    assert (first.dt, first.t_end, first.record_stride) == \
        (second.dt, second.t_end, second.record_stride)


def _write_outputs(out, rows, doctor_row=None):
    out.mkdir()
    lines = ["t,S_A,S_B,S_AB,I,J,D,theta,theta_prime,phi,phi_prime,"
             "p0,p1,p2,p3"]
    for i in range(rows):
        s_a, info, j = 0.5, 0.8, 0.4
        if i == doctor_row:
            j = 0.2     # D = I - J = 0.6 > S_A
        lines.append(f"{i}.0,{s_a},{s_a},0.2,{info},{j},{info - j},"
                     "0.0,0.0,0.0,0.0,0.25,0.25,0.25,0.25")
    (out / "discord.csv").write_text("\n".join(lines) + "\n")
    obs = ["t,pop_bond_formed,pop_bond_broken,pop_photons_zero,"
           "pop_photons_present,pop_0000000,trace,purity"]
    obs += [f"{i}.0,0.5,0.5,0.5,0.5,0.1,1.0,1.0" for i in range(rows)]
    (out / "observables.csv").write_text("\n".join(obs) + "\n")


def test_checker_accepts_consistent_outputs(tmp_path):
    _write_outputs(tmp_path / "out", workloads.expected_rows("closed-pure"))
    assert workloads.check_outputs("closed-pure", tmp_path / "out", 0) == []


def test_checker_rejects_discord_above_marginal_entropy(tmp_path):
    _write_outputs(tmp_path / "out", workloads.expected_rows("closed-pure"),
                   doctor_row=3)
    problems = workloads.check_outputs("closed-pure", tmp_path / "out", 0)
    assert len(problems) == 1 and "row 3" in problems[0]


def test_checker_rejects_nonzero_exit(tmp_path):
    _write_outputs(tmp_path / "out", workloads.expected_rows("closed-pure"))
    assert workloads.check_outputs("closed-pure", tmp_path / "out", 3) \
        == ["exit code 3"]


def test_checker_rejects_wrong_row_count(tmp_path):
    _write_outputs(tmp_path / "out", 5)
    assert workloads.check_outputs("closed-pure", tmp_path / "out", 0)


def test_checker_rejects_far_fingerprint(tmp_path):
    _write_outputs(tmp_path / "out", workloads.expected_rows("closed-pure"))
    near = {"peak_D": 0.4 + 1e-4, "final_pop_0000000": 0.1,
            "final_pop_photons_present": 0.5}
    assert workloads.check_outputs("closed-pure", tmp_path / "out", 0,
                                   near) == []
    for key, wrong in (("peak_D", 0.45), ("final_pop_0000000", 0.0),
                       ("final_pop_photons_present", 0.4)):
        far = dict(near, **{key: wrong})
        problems = workloads.check_outputs("closed-pure", tmp_path / "out",
                                           0, far)
        assert len(problems) == 1 and key in problems[0]


def test_layer_without_calls_fails_loudly():
    doc = {"names": ["cli.run"], "spans": [["cli.run", 0.0, 1.0, -1, None]]}
    with pytest.raises(RuntimeError, match="no call to"):
        run.layer_metrics(doc, "open-mixed")


def test_traced_run_wraps_every_binding(tmp_path):
    """A short open run under the tracer records spans in every layer."""
    text = workloads.config_text("open-mixed", 0).replace(
        "t_end = 3.6e-06", "t_end = 1.2e-07").replace(
        "dump_rho = true", "dump_rho = false")
    cfg = tmp_path / "short.cfg"
    cfg.write_text(text, encoding="utf-8")
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "tracer.py"), str(spans), "run",
         str(cfg), "--out", str(tmp_path / "out")],
        env=run.child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text())
    metrics = run.layer_metrics(doc, "open-mixed")
    # steps 4909, 9818, 14727 and the final 15000, plus the initial state
    assert metrics["discord.calls"] == metrics["dynamics.records"] == 5
    assert metrics["statespace.dim"] == 26
    assert 0 < metrics["discord.busy_s"] < metrics["cli.main_s"]
    assert 0 < metrics["trace.overhead_s"] < metrics["cli.main_s"]


def test_reference_covers_default_seed_of_every_workload():
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    assert reference["fingerprint_seed"] == workloads.DEFAULT_SEED
    assert sorted(reference["fingerprints"]) == NAMES
    for fingerprint in reference["fingerprints"].values():
        # a population that is nonzero, so a wrong one can show
        assert fingerprint["final_pop_photons_present"] > 0.01
