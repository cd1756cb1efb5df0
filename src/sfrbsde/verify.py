"""Built-in invariant suite behind `sfrbsde verify`.

Every module's invariants run here at reduced scale with the configured
seed; each check returns a pass/fail plus a human-readable margin, and a
numeric error inside a check is that check's FAIL, with the error as its
margin.  Each negative control in `CONTROLS` (--expect-fail) sabotages one
module attribute; its row must PASS as is and FAIL sabotaged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import averaging_lab as al
from . import bsde_solver as bs
from . import frac_kernel as fk
from . import path_engine as pe
from .config import ExperimentConfig, benchmark_generator, config_from_mapping
from .errors import ConfigError, NumericError
from .grids import TimeGrid


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: str


def run_check(name, check, cfg: ExperimentConfig) -> CheckResult:
    """One report row: `check(cfg)` gives (passed, margin); a numeric error is a FAIL."""
    try:
        passed, margin = check(cfg)
    except NumericError as exc:
        return CheckResult(name=name, passed=False, margin=str(exc))
    return CheckResult(name=name, passed=bool(passed), margin=margin)


def _std_coeffs(cfg: ExperimentConfig, n_steps=64):
    return replace(cfg, n_time=n_steps).coefficient_set()


# --------------------------------------------------------------------------
# frac_kernel invariants
# --------------------------------------------------------------------------

def check_kernel_symmetry(cfg):
    h = cfg.hurst()
    rng = np.random.default_rng(cfg.seed)
    t = rng.uniform(0.01, cfg.t_horizon, 64)
    shift = rng.uniform(0.01, 0.5, 64)
    worst = np.abs(fk.rho(t + shift, t, h) - fk.rho(t, t + shift, h)).max()
    return worst == 0.0, f"max asym {worst:.1e} (limit 0)"


def check_kernel_bilinearity(cfg):
    h = cfg.hurst()
    xi1 = fk.DeterministicFn.linear(1.0)
    xi2 = fk.DeterministicFn(fn=lambda t: np.cos(t), name="cos")
    eta = fk.DeterministicFn(fn=lambda t: 1.0 + 0.5 * t**2, name="poly")
    a, b = 1.75, -0.6
    combo = fk.DeterministicFn(fn=lambda t: a * t + b * np.cos(t), name="combo")
    lhs = fk.inner_product(combo, eta, cfg.t_horizon, h)
    rhs = a * fk.inner_product(xi1, eta, cfg.t_horizon, h) + b * fk.inner_product(
        xi2, eta, cfg.t_horizon, h
    )
    err = abs(lhs - rhs) / max(1.0, abs(lhs))
    limit = 10 * fk.REFINE_TOL
    return err <= limit, f"rel dev {err:.1e} (limit {limit:.0e})"


def check_kernel_cauchy_schwarz(cfg):
    h = cfg.hurst()
    rng = np.random.default_rng(cfg.seed + 1)
    worst = -np.inf
    for _ in range(8):
        c1, c2 = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
        xi = fk.DeterministicFn(fn=lambda t, c=c1: c[0] + c[1] * t + c[2] * t**2)
        eta = fk.DeterministicFn(fn=lambda t, c=c2: c[0] + c[1] * t + c[2] * t**2)
        ip = fk.inner_product(xi, eta, cfg.t_horizon, h)
        bound = fk.norm_sq(xi, cfg.t_horizon, h) * fk.norm_sq(eta, cfg.t_horizon, h)
        worst = max(worst, ip**2 - bound * (1 + 1e-9))
    return worst <= 1e-9, f"max excess {worst:.1e}"


def check_kernel_closed_forms(cfg):
    worst = 0.0
    for hv in (0.6, 0.75, 0.9):
        h = fk.HurstModel(hv)
        for t in (0.25, 1.0, 2.0):
            for c in (1.0, 2.5):
                xi = fk.DeterministicFn.const(c)
                got = fk.norm_sq(xi, t, h)
                want = c**2 * t ** (2 * hv)
                worst = max(worst, abs(got - want) / want)
                grid = TimeGrid(T=t, n_steps=8)
                coeffs = fk.CoefficientSet.build(
                    fk.DeterministicFn.const(0.0), fk.DeterministicFn.const(1.0),
                    xi, grid, h)
                worst = max(worst, abs(coeffs.norm_sq_table[-1] - want) / want)
                got2 = coeffs.sigma2_hat_table[-1]
                want2 = c * hv * t ** (2 * hv - 1)
                worst = max(worst, abs(got2 - want2) / abs(want2))
    return worst <= 1e-6, f"max rel err {worst:.1e} (limit 1e-6)"


def check_quadrature_convergence(cfg):
    sigma2 = cfg.coefficient_fn("sigma2")
    # the build runs the same guard at T
    _, drift = fk.guarded_inner_product(sigma2, sigma2, cfg.t_horizon, cfg.hurst())
    return (True, f"doubling moved ||sigma2||^2_T by "
            f"{drift:.1e} (limit {fk.REFINE_TOL:.0e} x max(1, |value|))")


def check_lambda_fd(cfg):
    worst = 0.0
    for sigma2 in dict.fromkeys(("constant:1", "sinusoidal:1", cfg.sigma2)):
        # the build enforces the same limit and raises ConsistencyError above it
        coeffs = _std_coeffs(replace(cfg, sigma2=sigma2), n_steps=128)
        worst = max(worst, coeffs.fd_rel_error)
    return worst <= 1e-3, f"max rel err {worst:.1e} (limit 1e-3)"


# --------------------------------------------------------------------------
# path_engine invariants
# --------------------------------------------------------------------------

def check_fbm_covariance(cfg):
    h = cfg.hurst()
    grid = TimeGrid(T=cfg.t_horizon, n_steps=8)
    n = min(cfg.n_paths, 20_000)
    _, _, z = pe.fbm_covariance_zscores(pe.fbm_cholesky(grid, h, n, cfg.rng()))
    worst = np.abs(z).max()
    return worst <= 3.0, f"max |z| {worst:.2f} (limit 3)"


def check_fbm_methods_agree(cfg):
    h = cfg.hurst()
    grid = TimeGrid(T=cfg.t_horizon, n_steps=16)
    n = min(cfg.n_paths, 20_000)
    a = pe.fbm_cholesky(grid, h, n, pe.RngSpec(seed=cfg.seed))
    # the next seed, wrapped so that the largest legal seed has one too
    b = pe.fbm_circulant(grid, h, n, pe.RngSpec(seed=(cfg.seed + 1) % 2**64))
    var_a = a.BH[:, 1:].var(axis=0, ddof=1)
    var_b = b.BH[:, 1:].var(axis=0, ddof=1)
    se = np.sqrt(2.0 / (n - 1)) * np.sqrt(var_a**2 + var_b**2)
    worst = np.abs((var_a - var_b) / se).max()
    mean_se = np.sqrt((var_a + var_b) / n)
    worst = max(worst, np.abs((a.BH[:, 1:].mean(axis=0) - b.BH[:, 1:].mean(axis=0)) / mean_se).max())
    return worst <= 4.0, f"max |z| {worst:.2f} (limit 4)"


def check_wiener_zero_mean(cfg):
    h = cfg.hurst()
    grid = TimeGrid(T=cfg.t_horizon, n_steps=64)
    n = min(cfg.n_paths, 20_000)
    ens = pe.make_ensemble(grid, h, n, cfg.rng())
    worst = 0.0
    for xi in (fk.DeterministicFn.const(1.0), fk.DeterministicFn.linear(1.0),
               fk.DeterministicFn(fn=np.sin, name="sin")):
        for which in ("B", "BH"):
            vals = pe.wiener_integral_det(xi, ens, which)
            z = abs(vals.mean()) / (vals.std(ddof=1) / np.sqrt(n))
            worst = max(worst, z)
    return worst <= 3.0, f"max |z| {worst:.2f} (limit 3)"


def check_lemma_var_bound(cfg):
    h = cfg.hurst()
    grid = TimeGrid(T=cfg.t_horizon, n_steps=64)
    ens = pe.fbm_cholesky(grid, h, min(cfg.n_paths, 20_000), cfg.rng())
    slack = np.inf
    for xi in (fk.DeterministicFn.const(1.0), fk.DeterministicFn.const(0.0),
               fk.DeterministicFn.linear(1.0)):
        rep = pe.check_lemma_var_bound(xi, ens)
        if not rep.holds:
            return False, f"violated for {xi.name}: lhs {rep.lhs:.3f} rhs {rep.rhs:.3f}"
        slack = min(slack, rep.rhs + 3 * rep.stderr - rep.lhs)
    return True, f"min slack {slack:.3f}"


def check_path_determinism(cfg):
    h = cfg.hurst()
    grid = TimeGrid(T=cfg.t_horizon, n_steps=32)
    a = pe.make_ensemble(grid, h, 512, cfg.rng())
    b = pe.make_ensemble(grid, h, 512, cfg.rng())
    same = np.array_equal(a.dB, b.dB) and np.array_equal(a.dBH, b.dBH)
    return same, "bitwise equal" if same else "mismatch"


def check_crn_contract(cfg):
    sub = replace(cfg, sigma2="constant:0", b="constant:0", sigma1="constant:1")
    coeffs = _std_coeffs(sub, n_steps=32)
    ens = pe.make_ensemble(coeffs.grid, cfg.hurst(), 1024, cfg.rng())
    h = cfg.h
    e1, e2 = 0.5, 0.2
    eta1 = pe.simulate_eta(coeffs, ens, e1)
    eta2 = pe.simulate_eta(coeffs, ens, e2)
    dev = np.abs(eta1[:, 1:] / e1**h - eta2[:, 1:] / e2**h)
    scale = np.abs(eta1[:, 1:] / e1**h).max()
    worst = dev.max() / scale
    return worst <= 1e-12, f"max rel dev {worst:.1e} (limit 1e-12)"


# --------------------------------------------------------------------------
# bsde_solver invariants
# --------------------------------------------------------------------------

def _closed_form_errors(cfg, n):
    """Sup-norm errors of the three closed-form cases on |x - m| <= 4 std."""
    sub = replace(cfg, sigma1="constant:1", sigma2="constant:1", b="constant:0")
    coeffs = _std_coeffs(sub, n_steps=n)
    pde = bs.PdeConfig(kappa=10.0, n_space=n)
    r = 0.1
    f1 = bs.solve_psi(bs.Generator.zero(), bs.TerminalCondition.identity(), coeffs, 1.0, pde)
    f2 = bs.solve_psi(bs.Generator.zero(), bs.TerminalCondition.square(), coeffs, 1.0, pde)
    f3 = bs.solve_psi(bs.Generator.linear_y(r), bs.TerminalCondition.identity(), coeffs, 1.0, pde)
    std = np.sqrt(coeffs.sigma_abs_sq_table[-1])
    mask = np.abs(f1.x_nodes) <= 4 * std
    x = f1.x_nodes[None, mask]
    t = f1.t_nodes[:, None]
    shift = (coeffs.sigma_abs_sq_table[-1] - coeffs.sigma_abs_sq_table)[:, None]
    e1 = np.abs(f1.psi[:, mask] - x).max()
    e2 = np.abs(f2.psi[:, mask] - (x**2 + shift)).max()
    e3 = np.abs(f3.psi[:, mask] - x * np.exp(r * (cfg.t_horizon - t))).max()
    return e1, e2, e3


def check_pde_closed_forms(cfg):
    errs = _closed_form_errors(cfg, 256)
    worst = max(errs)
    return worst <= 1e-3, f"sup errors {errs[0]:.1e}/{errs[1]:.1e}/{errs[2]:.1e} (limit 1e-3)"


def check_pde_refinement(cfg):
    # cases that are exact under the integrated-coefficient scheme sit at the
    # rounding floor; the ratio requirement applies to genuinely resolvable error
    floor = 1e-9
    coarse = _closed_form_errors(cfg, 128)
    fine = _closed_form_errors(cfg, 256)
    ok = all(f <= floor or f <= c / 3.0 for c, f in zip(coarse, fine))
    ratios = "/".join("floor" if f <= floor else f"{c / f:.1f}x" for c, f in zip(coarse, fine))
    return ok, f"shrink {ratios} (need >=3x or floor)"


def _zero_generator_triple(cfg, term, n_paths):
    """Zero-generator psi on 48 steps, eta at eps = 1 on `n_paths` paths, and their triple."""
    coeffs = _std_coeffs(cfg, n_steps=48)
    pde = bs.PdeConfig(kappa=6.0, n_space=96)
    f = bs.solve_psi(bs.Generator.zero(), term, coeffs, 1.0, pde, cfg.eta0)
    ens = pe.make_ensemble(coeffs.grid, cfg.hurst(), n_paths, cfg.rng())
    eta = pe.simulate_eta(coeffs, ens, 1.0, cfg.eta0)
    return coeffs, f, eta, bs.extract_triple(f, eta, coeffs, max_clamp_fraction=1.0)


def check_pde_terminal(cfg):
    term = cfg.make_terminal()
    _, f, eta, trip = _zero_generator_triple(cfg, term, 1024)
    exact = np.array_equal(f.psi[-1], term(f.x_nodes))
    dx = f.x_nodes[1] - f.x_nodes[0]
    inside = (eta[:, -1] >= f.x_nodes[0]) & (eta[:, -1] <= f.x_nodes[-1])
    dev = np.abs(trip.Y[inside, -1] - term(eta[inside, -1])).max()
    limit = term.growth_degree * dx**2
    return exact and dev <= limit, f"grid exact={exact}, interp dev {dev:.1e} (limit {limit:.1e})"


def check_pde_monotonicity(cfg):
    # the scheme's max principle needs the explicit half positive,
    # i.e. 2 (1 - THETA) D dt / dx^2 <= 1; the grid here satisfies it
    coeffs = _std_coeffs(cfg, n_steps=256)
    pde = bs.PdeConfig(kappa=6.0, n_space=64)
    g1 = bs.TerminalCondition.identity()
    g2 = bs.TerminalCondition(fn=lambda x: x + 0.5 * (1 + np.tanh(x)), name="above")
    f1 = bs.solve_psi(bs.Generator.zero(), g1, coeffs, 1.0, pde, cfg.eta0)
    f2 = bs.solve_psi(bs.Generator.zero(), g2, coeffs, 1.0, pde, cfg.eta0)
    # interior nodes only: the boundary values are linear extrapolations,
    # which undershoot convex difference fields by design
    worst = float((f1.psi[:, 1:-1] - f2.psi[:, 1:-1]).max())
    return worst <= 1e-9, f"max interior violation {worst:.1e} (limit 1e-9)"


def check_z_proportionality(cfg):
    sub = replace(cfg, sigma2="constant:2")  # exact power-of-two multiple
    coeffs, _, _, trip = _zero_generator_triple(sub, bs.TerminalCondition.square(), 1024)
    t = coeffs.grid.nodes
    s1 = coeffs.sigma1(t)[None, :]
    s2 = coeffs.sigma2(t)[None, :]
    same = np.array_equal(trip.Z2 * s1, trip.Z1 * s2)
    return same, "Z2*sigma1 == Z1*sigma2 bitwise" if same else "mismatch"


def check_malliavin(cfg):
    coeffs, f, _, trip = _zero_generator_triple(cfg, bs.TerminalCondition.square(), 512)
    chk = bs.malliavin_representation_check(trip, f, coeffs)
    return (chk.applicable and chk.max_deviation <= 1e-12,
            f"max dev {chk.max_deviation:.1e} (limit 1e-12)")


def check_residual_mean(cfg):
    coeffs = _std_coeffs(cfg, n_steps=64)
    pde = bs.PdeConfig(kappa=8.0, n_space=128)
    ens = pe.make_ensemble(coeffs.grid, cfg.hurst(), min(cfg.n_paths, 20_000), cfg.rng())
    eta = pe.simulate_eta(coeffs, ens, 1.0, cfg.eta0)
    dx_sq = ((2 * 8.0 * np.sqrt(coeffs.sigma_abs_sq_table[-1])) / pde.n_space) ** 2
    allowance = coeffs.grid.dt + dx_sq
    worst = -np.inf
    for gen, term in ((bs.Generator.zero(), bs.TerminalCondition.identity()),
                      (bs.Generator.zero(), bs.TerminalCondition.square()),
                      (bs.Generator.linear_y(0.1), bs.TerminalCondition.identity())):
        f = bs.solve_psi(gen, term, coeffs, 1.0, pde, cfg.eta0)
        trip = bs.extract_triple(f, eta, coeffs)
        rep = bs.residual_mean_check(trip, gen, coeffs, 1.0, cfg.t_horizon / 2)
        worst = max(worst, rep.residual - (3 * rep.stderr + allowance))
    return worst <= 0, f"max excess {worst:.1e} (limit 0)"


# --------------------------------------------------------------------------
# averaging_lab invariants
# --------------------------------------------------------------------------

def check_fbar_idempotence(cfg):
    gen = bs.Generator(fn=lambda t, x, y, z1, z2: 0.3 * np.asarray(y) - 0.2 * np.asarray(z1) + 1.0,
                       name="flat", time_dependent=False)
    q = al.QuadratureSpec()
    fbar = al.build_fbar(gen, cfg.t_horizon, q)
    rng = np.random.default_rng(cfg.seed + 2)
    pts = rng.uniform(-3, 3, (256, 4))
    dev = np.abs(fbar(*pts.T) - gen(0.0, *pts.T)).max()
    quad_route = al.build_fbar(replace(gen, time_dependent=True), cfg.t_horizon, q)
    dev_quad = np.abs(quad_route(*pts.T) - gen(0.0, *pts.T)).max()
    worst = max(dev, dev_quad)
    return worst <= q.tol, f"max dev {worst:.1e} (limit {q.tol:.0e})"


def _mini_sweep(cfg, generator=None):
    sub = replace(cfg, sigma1="constant:1", sigma2="constant:1", b="constant:0")
    coeffs = _std_coeffs(sub, n_steps=64)
    gen = generator if generator is not None else benchmark_generator(cfg.t_horizon)
    sweep_cfg = al.SweepConfig(
        n_paths=max(1000, min(cfg.n_paths, 4000)), beta=cfg.beta, delta1=cfg.delta1,
        t0=0.75 * cfg.t_horizon, eta0=cfg.eta0,
        pde=bs.PdeConfig(kappa=cfg.kappa, n_space=64), rng=cfg.rng(),
    )
    # eps (0.5, 0.3, 0.2), scaled down where 0.5 exceeds 0.9 x the largest with an alpha0
    top = 0.9 * al.max_feasible_eps(fk.c1_lower_bound(coeffs, sweep_cfg.t0), coeffs.hurst)
    eps = tuple(e * min(1.0, top / 0.5) for e in (0.5, 0.3, 0.2))
    return al.run_sweep(gen, coeffs, cfg.make_terminal(), eps, sweep_cfg)


def check_degenerate_sweep(cfg):
    gen = bs.Generator(fn=lambda t, x, y, z1, z2: 0.5 * np.asarray(y) + 0.1,
                       name="flat", lipschitz_sq=0.25, time_dependent=False)
    rep = _mini_sweep(cfg, generator=gen)
    worst = max(max(s.sup_mse for s in rep.stats),
                max(s.z_err_integral for s in rep.stats),
                max(s.exceed_prob for s in rep.stats))
    return worst == 0.0, f"max statistic {worst:.1e} (limit 0)"


def check_benchmark_sweep(cfg):
    rep = _mini_sweep(cfg)
    ok = all(al.claim_verdicts(rep).values())
    return ok, f"slope {rep.fitted_slope:.2f}, all claims pass={ok}"


def check_alpha0(cfg):
    """alpha0 solves the Z-lemma equation (eps^H / a) min{a - L eps^H, a C1 - L eps^H}
    = eps^2H with both braces positive."""
    h = cfg.hurst()
    worst, braces_ok = 0.0, True
    for L in (0.5, 1.5, 4.0):
        for c1 in (0.4, 0.8, 2.0):
            for eps in (0.05, 0.15, 0.3):
                e = eps**h.h
                if e >= min(1.0, c1) * 0.98:
                    continue
                a = al.solve_alpha0(L, c1, eps, h)
                braces = (a - L * e, a * c1 - L * e)
                braces_ok &= min(braces) > 0
                worst = max(worst, abs((e / a) * min(braces) - e * e))
    return (worst <= 1e-12 and braces_ok,
            f"max |g(alpha0)| {worst:.1e} (limit 1e-12), braces positive={braces_ok}")


def check_rate_fit(cfg):
    h = cfg.hurst()
    eps = (0.5, 0.35, 0.25, 0.18, 0.125)
    stats = []
    for e in eps:
        cons = al.compute_constants(1.0, 0.9, 0.0, 0.0, cfg.t_horizon, e, 0.0, h, (0, 0, 0))
        stats.append(al.PerEpsilonStats(
            epsilon=e, t_lo=0.0, sup_mse=e**h.two_h,
            sup_mse_stderr=0.0, z_err_integral=0.0, z_err_stderr=0.0,
            dy_integral=0.0, dy_integral_stderr=0.0, mean_sup_sq=0.0,
            path_sup_abs=np.zeros(1), constants=cons))
    # the rate fit reads no t0
    rep = al.SweepReport(eps_list=eps, T=cfg.t_horizon, beta=0.0, delta1=1.0, delta2=1.0,
                         t0=float("nan"), L=1.0, C1=0.9, phi_bound=0.0,
                         n_paths=1, stats=stats)
    al.check_theorem_rate(rep)
    dev = abs(rep.fitted_slope - h.two_h)
    return (dev <= 1e-10 and rep.epsilon1 == 0.5,
            f"slope dev {dev:.1e} (limit 1e-10), eps1={rep.epsilon1}")


def check_beta_feasibility(cfg):
    try:
        al.check_beta(cfg.beta, cfg.h)
    except ValueError as exc:
        return False, str(exc)
    return True, f"beta {cfg.beta} < 1/(2H) = {1.0 / (2.0 * cfg.h):.4f}"


def check_config_roundtrip(cfg):
    text = cfg.to_text()
    raw = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        raw[key.strip()] = value.strip()
    again = config_from_mapping(raw)
    return again == cfg, "parse(serialize(config)) == config" if again == cfg else "mismatch"


# (row name, check) in report order
ALL_CHECKS = (
    ("kernel-symmetry", check_kernel_symmetry),
    ("kernel-bilinearity", check_kernel_bilinearity),
    ("kernel-cauchy-schwarz", check_kernel_cauchy_schwarz),
    ("kernel-closed-forms", check_kernel_closed_forms),
    ("quadrature-convergence", check_quadrature_convergence),
    ("lambda-fd-consistency", check_lambda_fd),
    ("fbm-covariance", check_fbm_covariance),
    ("fbm-methods-agree", check_fbm_methods_agree),
    ("wiener-zero-mean", check_wiener_zero_mean),
    ("lemma-var-bound", check_lemma_var_bound),
    ("path-determinism", check_path_determinism),
    ("crn-contract", check_crn_contract),
    ("pde-terminal-consistency", check_pde_terminal),
    ("pde-closed-forms", check_pde_closed_forms),
    ("pde-refinement", check_pde_refinement),
    ("pde-monotonicity", check_pde_monotonicity),
    ("z-proportionality", check_z_proportionality),
    ("malliavin-representation", check_malliavin),
    ("residual-mean", check_residual_mean),
    ("fbar-idempotence", check_fbar_idempotence),
    ("degenerate-sweep-identity", check_degenerate_sweep),
    ("benchmark-sweep-claims", check_benchmark_sweep),
    ("alpha0-closed-form", check_alpha0),
    ("rate-fit-synthetic", check_rate_fit),
    ("beta-feasibility", check_beta_feasibility),
    ("config-roundtrip", check_config_roundtrip),
)


def run_all(cfg: ExperimentConfig) -> list[CheckResult]:
    return [run_check(name, chk, cfg) for name, chk in ALL_CHECKS]


# --------------------------------------------------------------------------
# negative controls
# --------------------------------------------------------------------------

# name -> (the ALL_CHECKS row it must flip, module, attribute, original -> sabotaged)
CONTROLS = {
    "lemma1-null": ("benchmark-sweep-claims", al, "compute_constants",
                    lambda real: lambda *a: replace(real(*a), alpha0=0.0, L1=0.0, C2=0.0)),
    # the guard's two values halve with the rule: only the lambda FD gate can tell
    "norm-table-halved": ("lambda-fd-consistency", fk, "_inner_product_once",
                          lambda real: lambda *a: 0.5 * real(*a)),
}


def run_control(cfg: ExperimentConfig, name: str) -> CheckResult:
    """Row `expect-fail:<name>`: PASS iff the control's row passes as is and fails
    sabotaged; the attribute is restored whatever happens."""
    if name not in CONTROLS:
        raise ConfigError([f"unknown negative control {name!r} (known: {', '.join(CONTROLS)})"])
    row, module, attr, sabotage = CONTROLS[name]
    check = dict(ALL_CHECKS)[row]
    real = getattr(module, attr)
    results = [run_check(row, check, cfg)]
    setattr(module, attr, sabotage(real))
    try:
        results.append(run_check(row, check, cfg))
    finally:
        setattr(module, attr, real)
    plain, broken = (f"{'PASS' if r.passed else 'FAIL'} ({r.margin})" for r in results)
    return CheckResult(f"expect-fail:{name}", results[0].passed and not results[1].passed,
                       f"{row} plain {plain}; sabotaged {broken}")
