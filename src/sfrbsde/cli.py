"""Command-line orchestration.

Subcommands: simulate-fbm, solve, sweep, verify.  Exit codes: 0 success,
1 check failure, 2 usage/config error, 3 numeric error.  All randomness
flows from the single configured seed; rerunning any command with the same
config and seed reproduces byte-identical numeric CSV content.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from . import averaging_lab as al
from . import bsde_solver as bs
from . import path_engine as pe
from .config import ExperimentConfig, parse_config, validated
from .errors import ConfigError, NumericError, SfrbsdeError
from .runio import MAX_CSV_ROWS, RunManifest, write_csv
from .verify import run_all, run_control


def _load_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.workers is not None:
        overrides["workers"] = args.workers
    return validated(replace(cfg, **overrides)) if overrides else cfg


def _manifest(cfg: ExperimentConfig) -> RunManifest:
    return RunManifest(config_hash=cfg.config_hash(), seed=cfg.seed,
                       artifact_version=__version__)


def _outdir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.resolved_out_dir())
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate_fbm(cfg: ExperimentConfig) -> int:
    out = _outdir(cfg)
    manifest = _manifest(cfg)
    manifest.begin("simulate")
    coeffs = cfg.coefficient_set()
    ens = pe.make_ensemble(cfg.grid(), cfg.hurst(), cfg.n_paths, cfg.rng())
    eta = pe.simulate_eta(coeffs, ens, cfg.epsilon, cfg.eta0)
    manifest.end("simulate")

    manifest.begin("write")
    nodes = cfg.grid().nodes
    keep = max(1, min(cfg.n_paths, MAX_CSV_ROWS // nodes.size))
    rows = (
        (p, t, ens.B[p, k], ens.BH[p, k], eta[p, k])
        for p in range(keep)
        for k, t in enumerate(nodes)
    )
    manifest.record_file(write_csv(out / "paths.csv",
                                   ("path_id", "t", "B", "BH", "eta"), rows))
    manifest.note("paths_written", keep)

    interior = nodes[1:]
    emp, ana, z = pe.fbm_covariance_zscores(ens)
    cov_rows = (
        (interior[j], interior[k], emp[j, k], ana[j, k], z[j, k])
        for j in range(interior.size)
        for k in range(interior.size)
    )
    manifest.record_file(write_csv(out / "covariance_check.csv",
                                   ("t_j", "t_k", "empirical", "analytic", "z_score"),
                                   cov_rows))
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

    manifest.begin("extract")
    ens = pe.make_ensemble(cfg.grid(), cfg.hurst(), cfg.n_paths, cfg.rng())
    eta = pe.simulate_eta(coeffs, ens, cfg.epsilon, cfg.eta0)
    triple = bs.extract_triple(field, eta, coeffs)
    manifest.end("extract")

    manifest.begin("write")
    manifest.record_file(field.export_csv(out / "psi.csv"))
    t = cfg.grid().nodes
    summary_rows = (
        (t[k], triple.Y[:, k].mean(), triple.Y[:, k].var(ddof=1),
         triple.Z1[:, k].mean(), triple.Z2[:, k].mean())
        for k in range(t.size)
    )
    manifest.record_file(write_csv(out / "triple_summary.csv",
                                   ("t", "mean_Y", "var_Y", "mean_Z1", "mean_Z2"),
                                   summary_rows))
    residual_rows = []
    for probe in (cfg.t_horizon / 4, cfg.t_horizon / 2, 3 * cfg.t_horizon / 4):
        rep = bs.residual_mean_check(triple, gen, coeffs, cfg.epsilon, probe)
        residual_rows.append((rep.probe, rep.residual, rep.stderr,
                              rep.residual <= 3 * rep.stderr + coeffs.grid.dt))
    manifest.record_file(write_csv(out / "residual_check.csv",
                                   ("t_probe", "residual", "stderr", "holds"),
                                   residual_rows))
    mal = bs.malliavin_representation_check(triple, field, coeffs)
    manifest.note("malliavin_applicable", mal.applicable)
    manifest.note("malliavin_max_deviation", mal.max_deviation)
    manifest.note("clamp_fraction", triple.clamp_fraction)
    manifest.note("fbm_method", ens.fbm_method)
    manifest.end("write")
    manifest.write(out / "manifest.csv")
    print(f"solve: psi, triple summary and residual checks written to {out}")
    return 0


def _sweep_config(cfg: ExperimentConfig) -> al.SweepConfig:
    # 0 in the config file selects the sweep's own default
    return al.SweepConfig(
        n_paths=cfg.n_paths, beta=cfg.beta, delta1=cfg.delta1,
        delta2=cfg.delta2 or None, t0=cfg.t0 or None, eta0=cfg.eta0,
        pde=cfg.pde(), rng=cfg.rng(),
    )


def sweep_report_rows(report: al.SweepReport):
    for s in report.stats:
        yield (s.epsilon, s.t_lo, s.sup_mse, s.sup_mse_stderr,
               s.z_err_integral, s.z_err_stderr, s.exceed_prob, s.exceed_stderr,
               s.constants.theorem_bound, s.lemma1_lhs, s.lemma1_rhs,
               s.lemma1_pass, s.c4_pass, s.chebyshev_pass)


SWEEP_HEADER = ("epsilon", "t_lo", "sup_mse", "sup_mse_stderr", "z_err_integral",
                "z_err_stderr", "exceed_prob", "exceed_stderr", "c4_bound",
                "lemma1_lhs", "lemma1_rhs", "pass_lemma1", "pass_theorem",
                "pass_chebyshev")


def constants_rows(report: al.SweepReport):
    yield ("L", report.L)
    yield ("C0", report.stats[0].constants.C0)
    yield ("C1", report.C1)
    yield ("beta", report.beta)
    yield ("phi_bound", report.phi_bound)
    yield ("t0", report.t0)
    yield ("delta1", report.delta1)
    yield ("delta2", report.delta2)
    for s in report.stats:
        c = s.constants
        tag = f"[eps={format(s.epsilon, 'g')}]"
        yield (f"alpha0{tag}", c.alpha0)
        yield (f"L1{tag}", c.L1)
        yield (f"C2{tag}", c.C2)
        yield (f"C3{tag}", c.C3)
        yield (f"C4{tag}", c.C4)


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
    manifest.note("fbar_panels", report.fbar_panels)

    manifest.begin("write")
    manifest.record_file(write_csv(out / "sweep_report.csv", SWEEP_HEADER,
                                   sweep_report_rows(report)))
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
                       help="must be 1: the program runs on one thread")
        if name == "verify":
            p.add_argument("--expect-fail", type=str, default=None, metavar="CONTROL",
                           help="run a negative control: its row must pass, then fail sabotaged")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "simulate-fbm":
            return cmd_simulate_fbm(cfg)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, expect_fail=args.expect_fail)
        raise AssertionError(f"unhandled command {args.command!r}")
    except ConfigError as exc:
        print("configuration error:", file=sys.stderr)
        for v in exc.violations:
            print(f"  - {v}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except SfrbsdeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
