"""The invariant registry behind `sfrbsde verify`, run check by check."""

import pytest

from sfrbsde import frac_kernel, verify
from sfrbsde.config import ExperimentConfig


@pytest.mark.parametrize("check", verify.ALL_CHECKS,
                         ids=[chk.__name__.removeprefix("check_") for chk in verify.ALL_CHECKS])
def test_check_passes_at_defaults(check):
    result = check(ExperimentConfig())
    assert result.passed, f"{result.name}: {result.margin}"


def test_lambda_fd_reports_a_failed_build(monkeypatch):
    # the build refuses tables above this limit; the check must turn that into a FAIL row
    monkeypatch.setattr(frac_kernel, "_FD_CHECK_RTOL", 1e-12)
    result = verify.check_lambda_fd(ExperimentConfig())
    assert (result.name, result.passed) == ("lambda-fd-consistency", False)
    assert "does not match the finite differences" in result.margin
