"""Tests of the benchmark itself: its declared metrics and its correctness gate.

    python3 -m pytest perfbench/test_gate.py -q

The sabotage test is the negative control for the sweep: every claim
verdict of the program misses an f-bar frozen at f(3T/4, .), and the gate's
reference comparison must not.  The two strict expected failures are the
program defects that keep `solve` and `verify` out of the workloads; each
starts to fail, as an unexpected pass, once its defect is fixed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import SEED_FREE, SMALL_SWEEP, WORKLOADS  # noqa: E402


def test_benchmark_json_declares_what_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracer.PER_LAYER


def test_numpy_scalar_reprs_fail_the_float_literal_check(tmp_path):
    path = tmp_path / "triple_summary.csv"
    path.write_text("t,mean_Y\n0.0,np.float64(2.5)\n")
    summary, reason = gate.read_numbers(path)
    assert summary is None and "np.float64(2.5)" in reason
    path.write_text("t,mean_Y\n0.0,2.5\n1e-05,-3.\n")
    assert gate.read_numbers(path) == ({"t": [0.0, 1e-05], "mean_Y": [2.5, -3.0]}, None)


def _small_sweep(tmp_path, seed=42):
    from sfrbsde import cli

    config = tmp_path / "sweep.cfg"
    config.write_text(SMALL_SWEEP.config_text(seed))
    out = tmp_path / "out"
    rc = cli.main(["sweep", "--config", str(config), "--out", str(out)])
    g = gate.Gate()
    gate.check_outputs(g, SMALL_SWEEP, out, rc, seed, gate.load_reference())
    return g


def _failed_reference_ops(g):
    return {name for name, _ in g.failures() if name.startswith("reference.")}


def test_small_sweep_passes_the_gate(tmp_path):
    g = _small_sweep(tmp_path)
    assert g.failures() == []
    assert any(name == "reference.monte_carlo.slope" for name, _, _ in g.ops)


def test_frozen_fbar_passes_every_verdict_but_fails_the_reference(tmp_path, monkeypatch):
    from sfrbsde import averaging_lab as al

    def frozen_fbar(gen, T, quad):
        # f(3T/4, .): the benchmark generator's time factor vanishes there
        return al.AveragedGenerator(fn=lambda x, y, z1, z2: gen(0.75 * T, x, y, z1, z2),
                                    provenance="sabotage", name=f"avg[{gen.name}]")

    monkeypatch.setattr(al, "build_fbar", frozen_fbar)
    g = _small_sweep(tmp_path)
    failed = {name for name, _ in g.failures()}
    assert not any(name.startswith(("verdict.", "exit_code")) for name in failed)
    assert {"reference.monte_carlo.sup_mse", "reference.monte_carlo.slope",
            "reference.pinned.sweep_report.csv"} <= _failed_reference_ops(g)


def test_a_changed_byte_fails_determinism():
    g = gate.Gate()
    gate.check_determinism(g, {"a.csv": "1", "b.csv": "2"}, {"a.csv": "1", "b.csv": "3"},
                           "an earlier run")
    assert [name for name, _ in g.failures()] == ["deterministic.b.csv"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_has_a_reference(name):
    ref = gate.load_reference()["workloads"][name]
    for file, columns in SEED_FREE.items():
        assert set(columns) <= set(ref["files"][file])


@pytest.mark.xfail(strict=True, reason="runio.format_value writes repr(np.float64), "
                   "'np.float64(...)' under numpy 2; the fix is repr(float(value))")
def test_solve_writes_plain_float_literals(tmp_path):
    from sfrbsde import cli

    config = tmp_path / "solve.cfg"
    config.write_text("n_time = 32\nn_space = 32\nn_paths = 400\nepsilon = 0.5\n"
                      "seed = 42\nworkers = 1\n")
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(config), "--out", str(out)]) == 0
    for name in ("psi.csv", "triple_summary.csv"):
        summary, reason = gate.read_numbers(out / name)
        assert summary is not None, reason


@pytest.mark.xfail(strict=True, reason="fbm-covariance compares the largest of many "
                   "z-scores with a fixed 3-sigma limit, and fails at seed 10")
def test_verify_passes_at_seed_10(tmp_path):
    from sfrbsde import cli

    assert cli.main(["verify", "--seed", "10", "--workers", "1", "--out", str(tmp_path)]) == 0
