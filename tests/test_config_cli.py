import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sfrbsde import averaging_lab, config, frac_kernel, verify
from sfrbsde.bsde_solver import Generator
from sfrbsde.cli import main
from sfrbsde.config import (
    ExperimentConfig,
    config_from_mapping,
    parse_coefficient,
    parse_config,
)
from sfrbsde.errors import ConfigError


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseConfig:
    def test_minimal_file_gets_defaults(self, tmp_path):
        path = write_cfg(tmp_path, "h = 0.75\nt_horizon = 1.0\n")
        cfg = parse_config(path)
        assert cfg.h == 0.75
        assert cfg.n_time == 256
        assert cfg.eps_list == (0.5, 0.35, 0.25, 0.18, 0.125)
        assert cfg.generator == "benchmark"

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = write_cfg(tmp_path, "# leading comment\n\nh = 0.8  # trailing\n")
        assert parse_config(path).h == 0.8

    def test_h_boundary_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "h = 0.5\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert any("H must lie in (0.5, 1)" in v for v in err.value.violations)

    def test_beta_side_condition(self, tmp_path):
        # beta >= 1/(2H) = 2/3 for H = 0.75
        path = write_cfg(tmp_path, "h = 0.75\nbeta = 0.7\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert any("1/(2H)" in v for v in err.value.violations)

    # quad_scheme selected a second kernel quadrature that no longer exists;
    # fbm_method overrode the grid-size rule that picks the fBm sampler; the
    # other retired keys are constants now (each is set here to its old
    # default), and the residual probes of `solve` derive from T
    @pytest.mark.parametrize("key, value", [pytest.param(k, v, id=k) for k, v in (
        ("hh", "0.75"), ("quad_scheme", "graded-mesh"), ("fbm_method", "cholesky"),
        ("theta", "0.5"), ("picard_max_iter", "8"), ("picard_tol", "1e-10"),
        ("quad_panels", "256"), ("quad_tol", "1e-8"), ("gen_a", "0.5"), ("gen_b", "0.25"),
        ("gen_c", "0.25"), ("gen_d", "0.1"), ("t_probe", "0.5"),
    )])
    def test_unknown_key_named(self, tmp_path, capsys, key, value):
        path = write_cfg(tmp_path, f"{key} = {value}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert any(f"'{key}'" in v for v in err.value.violations)
        assert main(["sweep", "--config", path]) == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err

    # 0 was the all-cores default before the thread pools were deleted
    @pytest.mark.parametrize("workers", [0, 2])
    def test_workers_other_than_one_rejected(self, tmp_path, workers):
        path = write_cfg(tmp_path, f"workers = {workers}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert any(v.startswith("workers:") for v in err.value.violations)

    def test_workers_one_parses(self, tmp_path):
        assert parse_config(write_cfg(tmp_path, "workers = 1\n")).workers == 1

    def test_all_violations_reported(self, tmp_path):
        path = write_cfg(tmp_path, "h = 0.4\nbeta = 2.0\nn_paths = 10\nmystery = 1\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        text = "\n".join(err.value.violations)
        assert "H must lie" in text
        assert "beta" in text
        assert "n_paths" in text
        assert "mystery" in text

    def test_eps_list_ordering(self, tmp_path):
        path = write_cfg(tmp_path, "eps_list = 0.2,0.5\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert any("strictly decreasing" in v for v in err.value.violations)

    # two values passed validation, and the sweep crashed in the rate fit after
    # solving every PDE
    @pytest.mark.parametrize("eps_list", ["0.5", "0.5,0.25"])
    def test_eps_list_needs_three_values(self, tmp_path, capsys, eps_list):
        path = write_cfg(tmp_path, f"eps_list = {eps_list}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert any(v.startswith("eps_list: must hold at least 3") for v in err.value.violations)
        assert main(["sweep", "--config", path]) == 2
        assert "eps_list" in capsys.readouterr().err

    def test_duplicate_key(self, tmp_path):
        path = write_cfg(tmp_path, "h = 0.6\nh = 0.7\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert any("duplicate" in v for v in err.value.violations)

    def test_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(h=0.8, n_time=128, eps_list=(0.4, 0.2, 0.1), seed=7,
                               generator="linear_y:0.2", sigma2="sinusoidal:1.5")
        path = write_cfg(tmp_path, cfg.to_text())
        assert parse_config(path) == cfg

    def test_hash_stable_and_sensitive(self):
        a = ExperimentConfig()
        b = ExperimentConfig(seed=43)
        assert a.config_hash() == ExperimentConfig().config_hash()
        assert a.config_hash() != b.config_hash()

    def test_coefficient_presets(self):
        t = np.array([0.0, 0.5, 1.0])
        assert np.allclose(parse_coefficient("constant:2.5", 1.0)(t), 2.5)
        assert np.allclose(parse_coefficient("linear:2.0", 1.0)(t), 2.0 * t)
        sin_fn = parse_coefficient("sinusoidal:1.0", 1.0)
        assert np.all(sin_fn(t) > 0)
        with pytest.raises(ConfigError):
            parse_coefficient("fourier:1", 1.0)

    def test_generator_presets(self):
        cfg = config_from_mapping({"generator": "linear_y:0.3"})
        gen = cfg.make_generator()
        assert gen(0.0, 0.0, np.array([2.0]), 0.0, 0.0)[0] == pytest.approx(0.6)
        with pytest.raises(ConfigError):
            config_from_mapping({"generator": "mystery"})


SMALL = """
h = 0.75
t_horizon = 1.0
n_time = 48
n_space = 64
n_paths = 1000
eps_list = 0.5,0.3,0.2
t0 = 0.75
seed = 42
"""


class TestCli:
    def test_usage_error_exit_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "h = 0.3\n")
        rc = main(["sweep", "--config", path])
        assert rc == 2
        assert "H must lie" in capsys.readouterr().err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == "0.1.0\n"

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_coefficient_exit_3(self, tmp_path, capsys):
        # a finite preset argument whose values overflow on the grid: the
        # coefficient tables refuse it before it reaches the PDE
        path = write_cfg(tmp_path, SMALL + "b = sinusoidal:1.7e308\n"
                         f"out_dir = {tmp_path / 'out'}\n")
        assert main(["solve", "--config", path]) == 3
        assert "b=b:sinusoidal:1.7e308 is not finite" in capsys.readouterr().err

    # each passes every range rule; unrefused, it surfaces later as a
    # traceback, a failed verdict or a misleading numeric error
    @pytest.mark.parametrize("key, value", [
        ("t0", "nan"), ("delta2", "nan"), ("eta0", "nan"), ("kappa", "inf"),
        ("t_horizon", "inf"), ("b", "constant:nan"), ("sigma2", "constant:inf"),
        ("generator", "constant:nan"),
    ])
    def test_non_finite_value_exit_2(self, tmp_path, capsys, key, value):
        path = write_cfg(tmp_path, "n_time = 64\nn_space = 64\nn_paths = 1000\n"
                         f"{key} = {value}\nout_dir = {tmp_path / 'out'}\n")
        assert main(["sweep", "--config", path]) == 2
        assert f"{key}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unconverged_kernel_table_exit_3(self, tmp_path, capsys, monkeypatch):
        # a 2-node kernel rule: doubling it moves ||sigma2||^2_T far beyond 1e-8
        monkeypatch.setattr(frac_kernel, "_NODES", 2)
        path = write_cfg(tmp_path, SMALL.replace("h = 0.75", "h = 0.51")
                         + f"sigma2 = sinusoidal:1\nout_dir = {tmp_path / 'out'}\n")
        assert main(["solve", "--config", path]) == 3
        assert "quadrature did not converge" in capsys.readouterr().err

    def test_small_t0_stops_before_any_pde(self, tmp_path, capsys, monkeypatch):
        # t0 = T/100 leaves no alpha0 for the default eps_list's 0.5
        def solve_psis(*args):
            raise AssertionError("the sweep solved a PDE")
        monkeypatch.setattr(averaging_lab, "solve_psis", solve_psis)
        path = write_cfg(tmp_path, f"n_time = 16\nn_space = 64\nt0 = 0.01\nout_dir = {tmp_path}\n")
        assert main(["sweep", "--config", path]) == 3
        assert "no admissible alpha0 for epsilon=0.5" in capsys.readouterr().err

    def test_fbar_unresolved_on_pde_states_exit_3(self, tmp_path, capsys, monkeypatch):
        # a generator the probe box resolves but 256 panels do not on the PDE's
        # states y = x^2; refused before any PDE, also when f-bar is rebuilt
        # without its panels and nodes, as the benchmark's tracer rebuilds it
        def box_only(T):
            def fn(t, x, y, z1, z2):
                return np.cos(2 * np.pi * t * (np.asarray(y) / 5) ** 4)
            return Generator(fn=fn, name="box-only")

        def solve_psis(*args, **kwargs):
            raise AssertionError("the sweep solved a PDE")

        build_fbar = averaging_lab.build_fbar

        def rebuilt(*args, **kwargs):
            avg = build_fbar(*args, **kwargs)
            return averaging_lab.AveragedGenerator(fn=avg.fn, provenance=avg.provenance,
                                                   name=avg.name)

        monkeypatch.setattr(config, "benchmark_generator", box_only)
        monkeypatch.setattr(averaging_lab, "solve_psis", solve_psis)
        path = write_cfg(tmp_path, f"n_time = 16\nn_space = 64\nout_dir = {tmp_path / 'out'}\n")
        for fbar_route in (build_fbar, rebuilt):
            monkeypatch.setattr(averaging_lab, "build_fbar", fbar_route)
            assert main(["sweep", "--config", path]) == 3
            assert "quadrature did not converge" in capsys.readouterr().err

    def test_default_config_sweeps(self, tmp_path):
        # the auto t0 = 3T/4 gives C1 = 0.6495, enough for the default eps_list's 0.5
        out = tmp_path / "out"
        path = write_cfg(tmp_path, f"out_dir = {out}\n")
        assert main(["sweep", "--config", path]) == 0
        assert (out / "sweep_report.csv").is_file()
        assert "t0,0.75\n" in (out / "constants.csv").read_text()

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "absent.cfg")]) == 2

    @pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "out-is-file",
                                      "out-under-file"])
    def test_unusable_path_exit_2(self, tmp_path, capsys, case):
        # a path the command cannot use is a usage error that names it, met
        # before any output directory is made
        cfg, out, file = tmp_path / "exp.cfg", tmp_path / "out", tmp_path / "file"
        file.write_text("kept\n", encoding="utf-8")
        if case == "directory":
            cfg.mkdir()
        elif case == "not-utf8":
            cfg.write_bytes(b"n_paths = 1000  # \xff\n")
        elif case.startswith("out"):
            out = file if case == "out-is-file" else file / "out"
        argv = ["sweep", "--out", str(out)]
        if not case.startswith("out"):
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(out if case.startswith("out") else cfg) in err
        assert "Traceback" not in err
        assert not out.is_dir()
        assert file.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_coefficient_exit_3(self, tmp_path, capsys):
        # a finite preset argument whose values overflow on the grid: the
        # coefficient tables refuse it before it reaches the PDE
        path = write_cfg(tmp_path, SMALL + "b = sinusoidal:1.7e308\n"
                         f"out_dir = {tmp_path / 'out'}\n")
        assert main(["solve", "--config", path]) == 3
        assert "b=b:sinusoidal:1.7e308 is not finite" in capsys.readouterr().err

    # each passes every range rule; unrefused, it surfaces later as a
    # traceback, a failed verdict or a misleading numeric error
    @pytest.mark.parametrize("key, value", [
        ("t0", "nan"), ("delta2", "nan"), ("eta0", "nan"), ("kappa", "inf"),
        ("t_horizon", "inf"), ("b", "constant:nan"), ("sigma2", "constant:inf"),
        ("generator", "constant:nan"),
    ])
    def test_non_finite_value_exit_2(self, tmp_path, capsys, key, value):
        path = write_cfg(tmp_path, "n_time = 64\nn_space = 64\nn_paths = 1000\n"
                         f"{key} = {value}\nout_dir = {tmp_path / 'out'}\n")
        assert main(["sweep", "--config", path]) == 2
        assert f"{key}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unconverged_kernel_table_exit_3(self, tmp_path, capsys, monkeypatch):
        # a 2-node kernel rule: doubling it moves ||sigma2||^2_T far beyond 1e-8
        monkeypatch.setattr(frac_kernel, "_NODES", 2)
        path = write_cfg(tmp_path, SMALL.replace("h = 0.75", "h = 0.51")
                         + f"sigma2 = sinusoidal:1\nout_dir = {tmp_path / 'out'}\n")
        assert main(["solve", "--config", path]) == 3
        assert "quadrature did not converge" in capsys.readouterr().err

    def test_small_t0_stops_before_any_pde(self, tmp_path, capsys, monkeypatch):
        # t0 = T/100 leaves no alpha0 for the default eps_list's 0.5
        def solve_psis(*args):
            raise AssertionError("the sweep solved a PDE")
        monkeypatch.setattr(averaging_lab, "solve_psis", solve_psis)
        path = write_cfg(tmp_path, f"n_time = 16\nn_space = 64\nt0 = 0.01\nout_dir = {tmp_path}\n")
        assert main(["sweep", "--config", path]) == 3
        assert "no admissible alpha0 for epsilon=0.5" in capsys.readouterr().err

    def test_fbar_unresolved_on_pde_states_exit_3(self, tmp_path, capsys, monkeypatch):
        # a generator the probe box resolves but 256 panels do not on the PDE's
        # states y = x^2; refused before any PDE, also when f-bar is rebuilt
        # without its panels and nodes, as the benchmark's tracer rebuilds it
        def box_only(T):
            def fn(t, x, y, z1, z2):
                return np.cos(2 * np.pi * t * (np.asarray(y) / 5) ** 4)
            return Generator(fn=fn, name="box-only")

        def solve_psis(*args, **kwargs):
            raise AssertionError("the sweep solved a PDE")

        build_fbar = averaging_lab.build_fbar

        def rebuilt(*args, **kwargs):
            avg = build_fbar(*args, **kwargs)
            return averaging_lab.AveragedGenerator(fn=avg.fn, provenance=avg.provenance,
                                                   name=avg.name)

        monkeypatch.setattr(config, "benchmark_generator", box_only)
        monkeypatch.setattr(averaging_lab, "solve_psis", solve_psis)
        path = write_cfg(tmp_path, f"n_time = 16\nn_space = 64\nout_dir = {tmp_path / 'out'}\n")
        for fbar_route in (build_fbar, rebuilt):
            monkeypatch.setattr(averaging_lab, "build_fbar", fbar_route)
            assert main(["sweep", "--config", path]) == 3
            assert "quadrature did not converge" in capsys.readouterr().err

    def test_default_config_sweeps(self, tmp_path):
        # the auto t0 = 3T/4 gives C1 = 0.6495, enough for the default eps_list's 0.5
        out = tmp_path / "out"
        path = write_cfg(tmp_path, f"out_dir = {out}\n")
        assert main(["sweep", "--config", path]) == 0
        assert (out / "sweep_report.csv").is_file()
        assert "t0,0.75\n" in (out / "constants.csv").read_text()

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "absent.cfg")]) == 2

    @pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "out-is-file",
                                      "out-under-file"])
    def test_bad_path_exit_2(self, tmp_path, capsys, case):
        # every path the command cannot use is a usage error that names it,
        # refused before any output directory is made
        out, cfg = tmp_path / "out", tmp_path / "exp.cfg"
        if case == "directory":
            cfg.mkdir()
        elif case == "not-utf8":
            cfg.write_bytes(b"n_paths = 1000 # \xff\xfe\n")
        elif case != "missing":
            cfg = None
            (tmp_path / "file").write_text("kept\n", encoding="utf-8")
            out = tmp_path / "file" if case == "out-is-file" else tmp_path / "file" / "out"
        argv = ["sweep", "--out", str(out)] + ([] if cfg is None else ["--config", str(cfg)])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(cfg if case in ("missing", "directory", "not-utf8") else out) in err
        assert "Traceback" not in err
        assert not out.is_dir()
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["exp.cfg"] if case in ("directory", "not-utf8") else [] if case == "missing"
            else ["file"])
        if cfg is None:
            assert (tmp_path / "file").read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_picard_iterate_exit_3(self, tmp_path, capsys):
        # y' = 1e150 y overflows to inf within the first backward step
        path = write_cfg(tmp_path, SMALL + "generator = linear_y:1e150\n"
                         f"out_dir = {tmp_path / 'out'}\n")
        assert main(["solve", "--config", path]) == 3
        assert "Picard" in capsys.readouterr().err

    def test_overflowing_linear_rate_exit_2(self, tmp_path, capsys):
        # 1e308 is a float, but the declared Lipschitz constant 1e308^2 is not
        path = write_cfg(tmp_path, SMALL + "generator = linear_y:1e308\n"
                         f"out_dir = {tmp_path / 'out'}\n")
        assert main(["sweep", "--config", path]) == 2
        assert "linear_y rate" in capsys.readouterr().err

    def test_simulate_fbm_outputs(self, tmp_path):
        path = write_cfg(tmp_path, SMALL + f"out_dir = {tmp_path / 'out'}\n")
        assert main(["simulate-fbm", "--config", path]) == 0
        out = tmp_path / "out"
        for name in ("paths.csv", "covariance_check.csv", "manifest.csv"):
            assert (out / name).exists()
        manifest = (out / "manifest.csv").read_text()
        assert "paths.csv" in manifest and "covariance_check.csv" in manifest
        header = (out / "paths.csv").read_text().splitlines()[0]
        assert header == "path_id,t,B,BH,eta"

    def test_solve_outputs(self, tmp_path):
        path = write_cfg(tmp_path, SMALL + f"out_dir = {tmp_path / 'out'}\n")
        assert main(["solve", "--config", path]) == 0
        out = tmp_path / "out"
        for name in ("psi.csv", "triple_summary.csv", "residual_check.csv"):
            assert (out / name).exists()
        # 48 steps draw B^H by Cholesky; the manifest says which sampler ran
        assert "\nfbm_method,cholesky\n" in (out / "manifest.csv").read_text()

    # no key may default to an absolute time that a short horizon leaves behind
    @pytest.mark.parametrize("command", ["sweep", "solve"])
    def test_horizon_below_half_runs(self, tmp_path, command):
        path = write_cfg(tmp_path, "t_horizon = 0.4\nn_time = 64\nn_space = 64\n"
                         "n_paths = 1000\neps_list = 0.3,0.2,0.1\nt0 = 0.3\n"
                         f"out_dir = {tmp_path / 'out'}\n")
        assert main([command, "--config", path]) == 0
        if command == "solve":
            rows = (tmp_path / "out" / "residual_check.csv").read_text().splitlines()[1:]
            probes = [float(row.split(",")[0]) for row in rows]
            assert probes == pytest.approx([0.1, 0.2, 0.3])

    def test_sweep_outputs_and_exit(self, tmp_path):
        path = write_cfg(tmp_path, SMALL + f"out_dir = {tmp_path / 'out'}\n")
        assert main(["sweep", "--config", path]) == 0
        out = tmp_path / "out"
        report = (out / "sweep_report.csv").read_text().splitlines()
        assert report[0] == ("epsilon,t_lo,sup_mse,sup_mse_stderr,z_err_integral,"
                             "z_err_stderr,exceed_prob,exceed_stderr,c4_bound,"
                             "lemma1_lhs,lemma1_rhs,pass_lemma1,pass_theorem,"
                             "pass_chebyshev")
        assert len(report) == 4
        constants = (out / "constants.csv").read_text()
        for name in ("L,", "C0,", "C1,", "alpha0[eps=0.5]", "C4[eps=0.2]"):
            assert name in constants
        assert "PASS" in (out / "summary.txt").read_text()
        manifest = (out / "manifest.csv").read_text()
        assert "\nfbar_panels,8\nfbar_nodes,1\n" in manifest

    def test_sweep_manifest_times_the_noise_stream(self, tmp_path):
        path = write_cfg(tmp_path, SMALL + f"out_dir = {tmp_path / 'out'}\n")
        assert main(["sweep", "--config", path]) == 0
        with open(tmp_path / "out" / "manifest.csv", encoding="utf-8", newline="") as fh:
            entries = dict(csv.reader(fh))
        # the producer's busy seconds and the sweep's wait on it, 3 decimals like
        # every duration
        for key in ("duration_s.noise_draw", "duration_s.noise_wait"):
            assert re.fullmatch(r"\d+\.\d{3}", entries[key])
            assert float(entries[key]) >= 0.0

    # a numpy scalar's repr is np.float64(...), which no CSV reader parses
    @pytest.mark.parametrize("command, files", [
        ("simulate-fbm", ("paths.csv", "covariance_check.csv")),
        ("solve", ("psi.csv", "triple_summary.csv")),
    ], ids=["simulate-fbm", "solve"])
    def test_csv_cells_are_plain_numbers(self, tmp_path, command, files):
        path = write_cfg(tmp_path, SMALL + f"out_dir = {tmp_path / 'out'}\n")
        assert main([command, "--config", path]) == 0
        for name in files:
            rows = (tmp_path / "out" / name).read_text().splitlines()[1:]
            assert rows
            for row in rows:
                for cell in row.split(","):
                    float(cell)

    def test_seed_override_changes_hash(self, tmp_path):
        path = write_cfg(tmp_path, SMALL + f"out_dir = {tmp_path / 'a'}\n")
        assert main(["simulate-fbm", "--config", path, "--seed", "7"]) == 0
        manifest = (tmp_path / "a" / "manifest.csv").read_text()
        assert "seed,7" in manifest

    # command-line overrides are validated like the keys of a config file
    @pytest.mark.parametrize("flag, value, key", [
        ("--seed", "-1", "seed"), ("--workers", "2", "workers"), ("--workers", "0", "workers"),
    ])
    def test_bad_override_exit_2(self, tmp_path, capsys, flag, value, key):
        path = write_cfg(tmp_path, SMALL + f"out_dir = {tmp_path / 'out'}\n")
        assert main(["sweep", "--config", path, flag, value]) == 2
        assert f"  - {key}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SFRBSDE_OUT", str(tmp_path / "envout"))
        cfg = ExperimentConfig()
        assert cfg.resolved_out_dir() == str(tmp_path / "envout")

    @pytest.mark.parametrize("name", list(verify.CONTROLS))
    def test_expect_fail_negative_control(self, tmp_path, name):
        path = write_cfg(tmp_path, SMALL + f"out_dir = {tmp_path / 'out'}\n")
        assert main(["verify", "--config", path, "--expect-fail", name]) == 0

    def test_expect_fail_unknown_name(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SMALL + f"out_dir = {tmp_path / 'out'}\n")
        rc = main(["verify", "--config", path, "--expect-fail", "no-such-check"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown negative control" in err and f"(known: {', '.join(verify.CONTROLS)})" in err
        # the name is checked before the output directory is made, as a bad --seed is
        assert not (tmp_path / "out").exists()

    def test_sweep_pins_blas_to_one_thread(self, tmp_path):
        # at 256 steps the Cholesky factor's rounding depends on the BLAS thread
        # count, so a run with OPENBLAS_NUM_THREADS unset writes the bytes of a
        # run with it set to 1 only because the CLI pins it
        config = write_cfg(tmp_path, "n_time = 256\nn_space = 64\nn_paths = 1000\n")
        env = {key: value for key, value in os.environ.items()
               if key != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(averaging_lab.__file__).parents[1])
        for name, threads in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
            subprocess.run([sys.executable, "-m", "sfrbsde.cli", "sweep", "--config", config,
                            "--out", str(tmp_path / name)],
                           env={**env, **threads}, capture_output=True, check=True)
            manifest = (tmp_path / name / "manifest.csv").read_text(encoding="utf-8")
            assert "\nblas_threads,1\n" in manifest
        for file in ("sweep_report.csv", "constants.csv", "summary.txt"):
            assert (tmp_path / "unset" / file).read_bytes() == (tmp_path / "one" / file).read_bytes()

    def test_manifest_lists_every_output(self, tmp_path):
        path = write_cfg(tmp_path, SMALL + f"out_dir = {tmp_path / 'out'}\n")
        main(["sweep", "--config", path])
        out = tmp_path / "out"
        manifest = (out / "manifest.csv").read_text()
        written = {p.name for p in out.iterdir()} - {"manifest.csv"}
        for name in written:
            assert name in manifest
