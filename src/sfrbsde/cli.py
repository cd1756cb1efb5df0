"""Command-line orchestration.

Subcommands: simulate-fbm, solve, sweep, verify.  Exit codes: 0 success,
1 check failure, 2 usage/config error, 3 numeric error.  All randomness
flows from the single configured seed; rerunning any command with the same
config and seed reproduces byte-identical numeric CSV content.
"""

from __future__ import annotations

import os

# OpenBLAS's idle worker spins on a core after every call and buys no wall
# time here; one BLAS thread leaves that core to the sweep's noise producer
# process, and leaves the sweep with no thread but its own when it forks that
# process.  A value the caller sets wins.  This runs before anything imports numpy.
BLAS_THREADS = os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import sys
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from . import averaging_lab as al
from . import bsde_solver as bs
from . import path_engine as pe
from .config import ExperimentConfig, parse_config, validated
from .errors import ConfigError, NumericError, SfrbsdeError
from .runio import MAX_CSV_ROWS, RunManifest, write_csv
from .verify import check_control, run_all, run_control


def _load_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    overrides = {key: value for key, value in (("seed", args.seed), ("out_dir", args.out),
                                               ("workers", args.workers)) if value is not None}
    return validated(replace(cfg, **overrides)) if overrides else cfg


def _manifest(cfg: ExperimentConfig) -> RunManifest:
    return RunManifest(config_hash=cfg.config_hash(), seed=cfg.seed,
                       artifact_version=__version__)


def _outdir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.resolved_out_dir())
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError([f"cannot make output directory {out}: {exc.strerror}"]) from None
    return out


# covariance_check.csv's nodes per axis; all n_steps^2 pairs took 12 s to write at 1024 steps
COVARIANCE_NODES = 64


def cmd_simulate_fbm(cfg: ExperimentConfig) -> int:
    out = _outdir(cfg)
    manifest = _manifest(cfg)
    manifest.begin("simulate")
    coeffs = cfg.coefficient_set()
    grid, nodes = coeffs.grid, coeffs.grid.nodes
    keep = max(1, min(cfg.n_paths, MAX_CSV_ROWS // nodes.size))
    # the covariance check's nodes: every stride-th, ending at t_n, at most COVARIANCE_NODES
    stride = -(-grid.n_steps // COVARIANCE_NODES)
    checked = slice(grid.n_steps % stride or stride, None, stride)
    t_cov = nodes[checked]
    # B, B^H and eta of the first `keep` paths, and the co-moments of B^H over all
    kept = np.empty((3, keep, nodes.size))
    mean, comoments = np.zeros(t_cov.size), np.zeros((t_cov.size, t_cov.size))
    for start, rows, rng in pe.path_blocks(cfg.n_paths, nodes.size, cfg.rng()):
        ens = pe.make_ensemble(grid, coeffs.hurst, rows, rng)
        pe.merge_moments(start, mean, comoments, ens.BH[:, checked])
        if start < keep:
            kept[:, start:start + rows] = np.stack([ens.B, ens.BH, pe.simulate_eta(
                coeffs, ens, cfg.epsilon, cfg.eta0)])[:, :keep - start]
        del ens  # the block is freed before the next one is drawn
    manifest.end("simulate")

    manifest.begin("write")
    path_rows = ((p, *cells) for p in range(keep) for cells in zip(nodes, *kept[:, p]))
    manifest.record_file(write_csv(out / "paths.csv",
                                   ("path_id", "t", "B", "BH", "eta"), path_rows))
    manifest.note("paths_written", keep)

    t_j, t_k = np.meshgrid(t_cov, t_cov, indexing="ij")
    emp, ana, z = pe.fbm_covariance_zscores(t_cov, coeffs.hurst, cfg.n_paths, comoments)
    manifest.record_file(write_csv(out / "covariance_check.csv",
                                   ("t_j", "t_k", "empirical", "analytic", "z_score"),
                                   zip(*(a.ravel() for a in (t_j, t_k, emp, ana, z)))))
    manifest.note("covariance_stride", stride)
    manifest.end("write")
    manifest.write(out / "manifest.csv")
    print(f"simulate-fbm: wrote {keep} paths and the covariance check to {out}")
    return 0


def cmd_solve(cfg: ExperimentConfig) -> int:
    out = _outdir(cfg)
    manifest = _manifest(cfg)
    coeffs = cfg.coefficient_set()
    gen = cfg.make_generator()
    term = cfg.make_terminal()

    manifest.begin("solve")
    field = bs.solve_psi(gen, term, coeffs, cfg.epsilon, cfg.pde(), cfg.eta0)
    manifest.end("solve")

    # per block: the (mean, M2) per node of Y, Z1 and Z2 merged, the residual
    # terms folded, the Malliavin deviation maxed and the clamped nodes counted
    manifest.begin("extract")
    t = coeffs.grid.nodes
    mean, m2 = np.zeros(3 * t.size), np.zeros(3 * t.size)
    residuals = bs.ResidualCheck(gen, coeffs, cfg.epsilon, (
        cfg.t_horizon / 4, cfg.t_horizon / 2, 3 * cfg.t_horizon / 4))
    outside, mal_dev = 0, 0.0
    for start, rows, rng in pe.path_blocks(cfg.n_paths, t.size, cfg.rng()):
        ens = pe.make_ensemble(coeffs.grid, coeffs.hurst, rows, rng)
        triple = bs.extract_triple(field, pe.simulate_eta(coeffs, ens, cfg.epsilon, cfg.eta0),
                                   coeffs)
        pe.merge_moments(start, mean, m2, np.hstack([triple.Y, triple.Z1, triple.Z2]))
        residuals.fold(triple)
        mal = bs.malliavin_representation_check(triple, field, coeffs)
        mal_dev = max(mal_dev, mal.max_deviation)
        outside += triple.outside
        fbm_method = ens.fbm_method
        del ens, triple  # the block is freed before the next one is drawn
    clamp_fraction = bs.check_clamp(outside, cfg.n_paths * t.size, field.x_nodes)
    manifest.end("extract")

    manifest.begin("write")
    # psi.csv: every stride-th time row of the field, within MAX_CSV_ROWS rows
    stride = max(1, int(np.ceil(field.psi.size / MAX_CSV_ROWS)))
    t_cells, x_cells = np.meshgrid(field.t_nodes[::stride], field.x_nodes, indexing="ij")
    manifest.record_file(write_csv(out / "psi.csv", ("t", "x", "psi", "psi_x"), zip(
        t_cells.ravel(), x_cells.ravel(), field.psi[::stride].ravel(),
        field.psi_x[::stride].ravel())))
    mean_y, mean_z1, mean_z2 = mean.reshape(3, t.size)
    manifest.record_file(write_csv(out / "triple_summary.csv",
                                   ("t", "mean_Y", "var_Y", "mean_Z1", "mean_Z2"),
                                   zip(t, mean_y, m2[:t.size] / (cfg.n_paths - 1),
                                       mean_z1, mean_z2)))
    manifest.record_file(write_csv(out / "residual_check.csv",
                                   ("t_probe", "residual", "stderr", "holds"),
                                   ((rep.probe, rep.residual, rep.stderr,
                                     rep.residual <= 3 * rep.stderr + coeffs.grid.dt)
                                    for rep in residuals.reports())))
    manifest.note("malliavin_applicable", mal.applicable)
    manifest.note("malliavin_max_deviation", mal_dev)
    manifest.note("clamp_fraction", clamp_fraction)
    manifest.note("fbm_method", fbm_method)
    manifest.end("write")
    manifest.write(out / "manifest.csv")
    print(f"solve: psi, triple summary and residual checks written to {out}")
    return 0


def _sweep_config(cfg: ExperimentConfig) -> al.SweepConfig:
    return al.SweepConfig(
        n_paths=cfg.n_paths, beta=cfg.beta, delta1=cfg.delta1, delta2=cfg.delta2,
        t0=cfg.t0, eta0=cfg.eta0, pde=cfg.pde(), rng=cfg.rng(),
    )


# sweep_report.csv's columns: (header, the value of one eps's stats)
SWEEP_COLUMNS = tuple((column, attrgetter(attr)) for column, attr in (
    ("epsilon", "epsilon"), ("t_lo", "t_lo"), ("sup_mse", "sup_mse"),
    ("sup_mse_stderr", "sup_mse_stderr"), ("z_err_integral", "z_err_integral"),
    ("z_err_stderr", "z_err_stderr"), ("exceed_prob", "exceed_prob"),
    ("exceed_stderr", "exceed_stderr"), ("c4_bound", "constants.theorem_bound"),
    ("lemma1_lhs", "z_err_integral"), ("lemma1_rhs", "lemma1_rhs"),
    ("pass_lemma1", "lemma1_pass"), ("pass_theorem", "c4_pass"),
    ("pass_chebyshev", "chebyshev_pass"),
))


def constants_rows(report: al.SweepReport):
    yield ("L", report.L)
    yield ("C0", report.stats[0].constants.C0)
    for name in ("C1", "beta", "phi_bound", "t0", "delta1", "delta2"):
        yield (name, getattr(report, name))
    for s in report.stats:
        tag = f"[eps={format(s.epsilon, 'g')}]"
        for name in ("alpha0", "L1", "C2", "C3", "C4"):
            yield (f"{name}{tag}", getattr(s.constants, name))


def sweep_summary_text(report: al.SweepReport) -> str:
    lines = [
        "averaging sweep summary",
        "=======================",
        f"epsilon grid : {', '.join(format(e, 'g') for e in report.eps_list)}",
        f"paths        : {report.n_paths}",
        f"beta         : {report.beta:g}   (window [T*eps^(1-beta), T])",
        f"delta1       : {report.delta1:g}",
        f"delta2       : {report.delta2:g}",
        f"L / C1 / phi : {report.L:g} / {report.C1:.6g} / {report.phi_bound:.6g}",
        "",
        "claim verdicts",
        "--------------",
    ]
    verdict = {claim: "PASS" if ok else "FAIL"
               for claim, ok in al.claim_verdicts(report).items()}
    lines.append(f"Z-error lemma (per eps)      : {verdict['lemma1']}")
    lines.append(f"mean-square bound C4*eps^r   : {verdict['c4']}")
    lines.append(f"sup-MSE non-increasing       : {verdict['monotone']}")
    lines.append(f"fitted log-log slope         : {report.fitted_slope:.4f} "
                 f"({verdict['slope']})")
    lines.append(f"Chebyshev bound (per eps)    : {verdict['chebyshev']}")
    lines.append(f"exceedance trend (last<=first): {verdict['trend']}")
    eps1 = "none" if report.epsilon1 is None else format(report.epsilon1, "g")
    lines.append(f"epsilon1 for delta1          : {eps1}")
    lines.append("")
    lines.append("per-epsilon table")
    lines.append("-----------------")
    lines.append("eps      t_lo      sup_mse      z_int        exceed   c4_bound")
    for s in report.stats:
        lines.append(f"{s.epsilon:<8g} {s.t_lo:<9.4f} {s.sup_mse:<12.4e} "
                     f"{s.z_err_integral:<12.4e} {s.exceed_prob:<8.4f} "
                     f"{s.constants.theorem_bound:.4e}")
    lines.append("")
    lines.append(f"note: {al.WINDOW_NOTE}")
    return "\n".join(lines) + "\n"


def cmd_sweep(cfg: ExperimentConfig) -> int:
    out = _outdir(cfg)
    manifest = _manifest(cfg)
    manifest.begin("sweep")
    coeffs = cfg.coefficient_set()
    report = al.run_sweep(cfg.make_generator(), coeffs, cfg.make_terminal(),
                          cfg.eps_list, _sweep_config(cfg))
    manifest.end("sweep")
    manifest.duration("noise_draw", report.noise_draw_s)
    manifest.duration("noise_wait", report.noise_wait_s)
    manifest.note("fbar_panels", report.fbar_panels)
    manifest.note("fbar_nodes", report.fbar_nodes)
    manifest.note("blas_threads", BLAS_THREADS)

    manifest.begin("write")
    manifest.record_file(write_csv(
        out / "sweep_report.csv", [column for column, _ in SWEEP_COLUMNS],
        ([get(s) for _, get in SWEEP_COLUMNS] for s in report.stats)))
    manifest.record_file(write_csv(out / "constants.csv", ("name", "value"),
                                   constants_rows(report)))
    summary = sweep_summary_text(report)
    summary_path = out / "summary.txt"
    summary_path.write_text(summary, encoding="utf-8")
    manifest.record_file(summary_path)
    manifest.end("write")
    manifest.write(out / "manifest.csv")
    sys.stdout.write(summary)
    return 0 if all(al.claim_verdicts(report).values()) else 1


def cmd_verify(cfg: ExperimentConfig, expect_fail: str | None = None) -> int:
    if expect_fail is not None:
        check_control(expect_fail)   # before any directory is made
    out = _outdir(cfg)
    manifest = _manifest(cfg)
    manifest.begin("verify")
    if expect_fail is not None:
        results = [run_control(cfg, expect_fail)]
    else:
        results = run_all(cfg)
    manifest.end("verify")

    width = max(len(r.name) for r in results)
    print(f"{'check'.ljust(width)}  status  margin")
    for r in results:
        print(f"{r.name.ljust(width)}  {'PASS' if r.passed else 'FAIL':6}  {r.margin}")
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} checks passed")

    manifest.record_file(write_csv(out / "verify_report.csv",
                                   ("check", "status", "margin"),
                                   ((r.name, "PASS" if r.passed else "FAIL", r.margin)
                                    for r in results)))
    manifest.write(out / "manifest.csv")
    return 0 if passed == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfrbsde",
        description="BSDEs driven by standard and fractional Brownian motions: "
                    "simulation, solving, and averaging-principle sweeps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("simulate-fbm", "generate matched (B, B^H, eta) paths and a covariance check"),
        ("solve", "solve the backward equation and extract (Y, Z1, Z2)"),
        ("sweep", "run the epsilon sweep and test the averaging claims"),
        ("verify", "run the reduced-scale invariant suite"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=str, default=None, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--workers", type=int, default=None,
                       help="must be 1: no worker count is configurable")
        if name == "verify":
            p.add_argument("--expect-fail", type=str, default=None, metavar="CONTROL",
                           help="run a negative control: its row must pass, then fail sabotaged")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "verify":
            return cmd_verify(cfg, expect_fail=args.expect_fail)
        commands = {"simulate-fbm": cmd_simulate_fbm, "solve": cmd_solve, "sweep": cmd_sweep}
        return commands[args.command](cfg)
    except ConfigError as exc:
        print("configuration error:", file=sys.stderr)
        for v in exc.violations:
            print(f"  - {v}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except SfrbsdeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
