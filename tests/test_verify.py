"""The invariant registry behind `sfrbsde verify`, run check by check."""

import csv
import functools

import pytest

from sfrbsde import cli, frac_kernel, verify
from sfrbsde.config import ExperimentConfig
from sfrbsde.errors import ConfigError


@functools.cache
def at_defaults(name, check):
    """The check's row at ExperimentConfig() (seed 42), computed once per session."""
    return verify.run_check(name, check, ExperimentConfig())


@pytest.mark.parametrize("name, check", verify.ALL_CHECKS,
                         ids=[chk.__name__.removeprefix("check_") for _, chk in verify.ALL_CHECKS])
def test_check_passes_at_defaults(name, check):
    result = at_defaults(name, check)
    assert result.passed, f"{result.name}: {result.margin}"


def test_verify_report_rows_have_three_fields(tmp_path, monkeypatch):
    # the same results `verify` computes at its defaults, without running them twice
    monkeypatch.setattr(cli, "run_all", lambda cfg: [at_defaults(*pair) for pair in verify.ALL_CHECKS])
    assert cli.main(["verify", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "verify_report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["check", "status", "margin"]
    assert len(rows) == len(verify.ALL_CHECKS) + 1
    assert all(len(row) == 3 for row in rows)
    # margins with commas exist; they are the rows that used to split
    assert any("," in row[2] for row in rows[1:])


@pytest.mark.parametrize("run", [verify.run_all, lambda cfg: verify.run_control(cfg, "lemma1-null")],
                         ids=["run_all", "run_control"])
def test_invalid_config_is_refused_before_any_row(monkeypatch, run):
    # beta >= 1/(2H) = 2/3 at H = 0.75: no sweep row could run on it
    ran = []
    monkeypatch.setattr(verify, "run_check", lambda *args: ran.append(args))
    with pytest.raises(ConfigError, match="beta") as err:
        run(ExperimentConfig(beta=0.9))
    assert [v.split(":")[0] for v in err.value.violations] == ["beta"]
    assert ran == []


def test_lambda_fd_reports_a_failed_build(monkeypatch):
    # the build refuses tables above this limit; its row must be a FAIL, not an abort
    monkeypatch.setattr(frac_kernel, "_FD_CHECK_RTOL", 1e-12)
    result = verify.run_check("lambda-fd-consistency", verify.check_lambda_fd, ExperimentConfig())
    assert (result.name, result.passed) == ("lambda-fd-consistency", False)
    assert "does not match the finite differences" in result.margin


def test_quadrature_convergence_reports_an_unconverged_rule(monkeypatch):
    # a 2-node kernel rule: doubling it moves ||sigma2||^2_T far beyond 1e-8
    monkeypatch.setattr(frac_kernel, "_NODES", 2)
    result = verify.run_check("quadrature-convergence", verify.check_quadrature_convergence,
                              ExperimentConfig(h=0.51, sigma2="sinusoidal:1"))
    assert (result.name, result.passed) == ("quadrature-convergence", False)
    assert "quadrature did not converge" in result.margin


KERNEL_ROWS = [(name, check) for name, check in verify.ALL_CHECKS
               if name.startswith("kernel-")
               or name in ("quadrature-convergence", "lambda-fd-consistency")]


@pytest.mark.parametrize("sigma2", ["constant:1", "sinusoidal:1"])
@pytest.mark.parametrize("h", [0.501, 0.51, 0.53])
@pytest.mark.parametrize("name, check", KERNEL_ROWS, ids=[name for name, _ in KERNEL_ROWS])
def test_kernel_rows_pass_near_h_one_half(name, check, h, sigma2):
    # the kernel rule's weights carry both singularities, whatever H > 1/2
    result = verify.run_check(name, check, ExperimentConfig(h=h, sigma2=sigma2))
    assert result.passed, f"{result.name}: {result.margin}"


def test_lambda_fd_builds_the_configured_sigma2(monkeypatch):
    built = []
    real = verify._std_coeffs
    monkeypatch.setattr(verify, "_std_coeffs",
                        lambda cfg, n_steps: built.append(cfg.sigma2) or real(cfg, n_steps))
    for sigma2 in ("linear:1", "constant:1"):
        passed, _ = verify.check_lambda_fd(ExperimentConfig(sigma2=sigma2))
        assert passed
    # the default sigma2 is one of the two fixed ones and is built once
    assert built == ["constant:1", "sinusoidal:1", "linear:1", "constant:1", "sinusoidal:1"]


def test_fbm_methods_agree_at_the_largest_seed():
    # the circulant side draws from the next seed, which wraps to 0 here
    _, margin = verify.check_fbm_methods_agree(ExperimentConfig(seed=2**64 - 1))
    assert margin.startswith("max |z|")


def test_numeric_errors_become_fail_rows(tmp_path):
    # with both sigmas zero |sigma|^2 is flat, and every row that builds the
    # configured coefficients must say so while every other row is still written
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("sigma1 = constant:0\nsigma2 = constant:0\n", encoding="utf-8")
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    with open(tmp_path / "out" / "verify_report.csv", newline="", encoding="utf-8") as fh:
        rows = {row[0]: row[1:] for row in list(csv.reader(fh))[1:]}
    assert list(rows) == [name for name, _ in verify.ALL_CHECKS]
    failed = [margin for status, margin in rows.values() if status == "FAIL"]
    assert len(failed) == 5 and all("d/dt |sigma|^2 must be positive" in m for m in failed)


def test_verify_passes_near_h_one_half(tmp_path):
    # the mini sweeps' eps list is scaled below the largest feasible eps
    cfg = tmp_path / "h055.cfg"
    cfg.write_text("h = 0.55\n", encoding="utf-8")
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("config", [{}, {"sigma1": "constant:0", "sigma2": "sinusoidal:1"}],
                         ids=["defaults", "sigma1-zero-sinusoidal"])
@pytest.mark.parametrize("name", list(verify.CONTROLS))
def test_control_flips_its_row(name, config):
    _, module, attr, _ = verify.CONTROLS[name]
    real = getattr(module, attr)
    result = verify.run_control(ExperimentConfig(**config), name)
    assert result.passed and getattr(module, attr) is real, result.margin


def test_control_needs_its_row_to_pass_plain(monkeypatch):
    # a row that already fails proves nothing when its sabotage fails it too
    row = verify.CONTROLS["lemma1-null"][0]
    monkeypatch.setattr(verify, "ALL_CHECKS", ((row, lambda cfg: (False, "broken")),))
    result = verify.run_control(ExperimentConfig(), "lemma1-null")
    assert (result.name, result.passed) == ("expect-fail:lemma1-null", False), result.margin


def test_lemma1_control_names_the_claim_it_flips():
    # a sabotage that broke c4 or monotone instead would show in the margin
    result = verify.run_control(ExperimentConfig(), "lemma1-null")
    plain, sabotaged = result.margin.split("; sabotaged ")
    assert "failed:" not in plain
    assert sabotaged.endswith("failed: lemma1)"), result.margin
