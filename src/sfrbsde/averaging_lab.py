"""Averaging principle test bench.

Builds the time-averaged generator fbar, estimates the assumption constants
(Lipschitz L, kernel ratio C1, the averaging-deviation functional), solves the
alpha0 fixed-point equation from the Z-estimate lemma, assembles every
constant in the mean-square convergence bound, runs epsilon sweeps that
solve the original and averaged systems on common random numbers, and
evaluates the three quantitative claims:

  * Z-error lemma:    E int_u^T |dZ1|^2 + |dZ2|^2 ds
                        <= L1 E int_u^T |dY|^2 ds + C2 (T - u)
  * mean-square rate: sup_{T eps^(1-beta) <= t <= T} E|dY_t|^2
                        <= C4 eps^(1 - 2 H beta)
  * Chebyshev:        P(sup_t |dY_t| > delta2) <= C4 eps^(1-2H beta) / delta2^2

C2/C3/C4 are recomputed per epsilon because the window start u = T eps^(1-beta)
enters them; the stated rate's window and the alternative K eps^(-2H beta)
window from the source derivation are mutually inconsistent for small eps,
which is surfaced in the report notes rather than reconciled.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .bsde_solver import (
    Generator,
    PdeConfig,
    TerminalCondition,
    extract_triple,
    solve_psi,
)
from .errors import ContractError, InfeasibleAlphaError, NumericError
from .frac_kernel import CoefficientSet, HurstModel, QuadratureSpec, c0_const, c1_lower_bound
from .path_engine import PathEnsemble, RngSpec, make_ensemble, simulate_eta

WINDOW_NOTE = (
    "rate window is [T*eps^(1-beta), T] per the stated theorem; the proof's "
    "alternative window K*eps^(-2H*beta) grows as eps -> 0 and is not used"
)


@dataclass(frozen=True)
class AveragedGenerator:
    """Time-independent surrogate fbar(x, y, z1, z2)."""

    fn: Callable
    provenance: str = "quadrature-of-f"
    name: str = "fbar"

    def __call__(self, x, y, z1, z2):
        return np.asarray(self.fn(x, y, z1, z2), dtype=float)

    def as_generator(self) -> Generator:
        return Generator(
            fn=lambda t, x, y, z1, z2: self.fn(x, y, z1, z2),
            name=self.name,
            time_dependent=False,
        )


def build_fbar(gen: Generator, T: float, quad: QuadratureSpec) -> AveragedGenerator:
    """fbar = (1/T) int_0^T f(s, .) ds by composite Gauss-Legendre.

    The assumption set only constrains fbar; the full-interval time average
    is the canonical admissible choice and is what every sweep here uses.
    A generator declared time-independent is its own average, exactly, so it
    is passed through untouched (this keeps the degenerate sweep identically
    zero instead of zero-up-to-quadrature-rounding).  Otherwise each call of
    fbar evaluates f once, with the 256 quadrature nodes on a leading axis of
    t, and contracts that axis with the weights.
    """
    if not gen.time_dependent:
        return AveragedGenerator(
            fn=lambda x, y, z1, z2: gen.fn(0.0, x, y, z1, z2),
            provenance="analytic", name=f"avg[{gen.name}]",
        )
    gx, gw = np.polynomial.legendre.leggauss(4)
    # f is smooth in t; 64 panels of GL-4 integrate it to rounding
    edges = np.linspace(0.0, T, min(quad.panels, 64) + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    weights = ((half[:, None] * gw[None, :]).ravel()) / T

    def fbar(x, y, z1, z2):
        # one call of f with the nodes on a leading axis; broadcast_to covers
        # an f that ignores t and returns the state shape
        shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(z1), np.shape(z2))
        s = nodes.reshape(nodes.shape + (1,) * len(shape))
        values = np.broadcast_to(gen(s, x, y, z1, z2), nodes.shape + shape)
        return np.tensordot(weights, values, axes=1)

    return AveragedGenerator(fn=fbar, provenance="quadrature-of-f",
                             name=f"avg[{gen.name}]")


@dataclass(frozen=True)
class BoxSampler:
    """Uniform samples of (x, y, z1, z2) in a centered box, corners included.

    `half_width` is a scalar or one value per coordinate (0 pins an axis).
    Drawing is sequential from one stream, so enlarging n_samples extends the
    sample set (sup estimates can only grow).
    """

    half_width: float | tuple = 5.0
    n_samples: int = 2048
    seed: int = 20240

    def draw(self):
        widths = np.broadcast_to(np.asarray(self.half_width, dtype=float), (4,))
        rng = np.random.Generator(np.random.Philox(key=np.array([self.seed, 77], dtype=np.uint64)))
        pts = widths * (2.0 * rng.random((self.n_samples, 4)) - 1.0)
        corners = widths * np.array(
            [[sx, sy, sz, sw] for sx in (-1, 1) for sy in (-1, 1)
             for sz in (-1, 1) for sw in (-1, 1)], dtype=float
        )
        pts = np.vstack([pts, corners, np.zeros((1, 4))])
        return pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3]


@dataclass(frozen=True)
class PhiEstimate:
    """Empirical lower estimate of sup phi with its sampled arg-max."""

    value: float
    at_window: tuple
    at_point: tuple


def estimate_phi(gen: Generator, fbar: AveragedGenerator, sampler: BoxSampler,
                 t_grid: Sequence[tuple], n_time_nodes: int = 1025) -> PhiEstimate:
    """sup over samples of the averaging-deviation ratio

        (1/(T1-t)) int_t^T1 |f(s,x,y,z1,z2) - fbar(x,y,z1,z2)|^2 ds
            / (1 + y^2 + z1^2 + z2^2).

    A lower estimate of sup phi by construction; the sampled arg-max is
    reported so suspicious values can be inspected.
    """
    x, y, z1, z2 = sampler.draw()
    t_pairs = [(float(a), float(b)) for a, b in t_grid]
    if not t_pairs:
        raise ValueError("t_grid must contain at least one (t, T1) window")
    t_max = max(b for _, b in t_pairs)
    s_nodes = np.linspace(0.0, t_max, n_time_nodes)
    fb = fbar(x, y, z1, z2)
    gaps_sq = np.empty((s_nodes.size, x.size))
    for i, s in enumerate(s_nodes):
        gaps_sq[i] = (gen(s, x, y, z1, z2) - fb) ** 2
    # cumulative trapezoid along s for O(1) window averages
    ds = np.diff(s_nodes)
    cum = np.zeros_like(gaps_sq)
    cum[1:] = np.cumsum(0.5 * (gaps_sq[1:] + gaps_sq[:-1]) * ds[:, None], axis=0)
    denom = 1.0 + y**2 + z1**2 + z2**2

    best = PhiEstimate(0.0, t_pairs[0], (0.0, 0.0, 0.0, 0.0))
    for a, b in t_pairs:
        if not b > a:
            raise ValueError(f"window ({a}, {b}) must have T1 > t")
        ia = int(round(a / t_max * (n_time_nodes - 1)))
        ib = int(round(b / t_max * (n_time_nodes - 1)))
        window_mean = (cum[ib] - cum[ia]) / (s_nodes[ib] - s_nodes[ia])
        ratio = window_mean / denom
        j = int(np.argmax(ratio))
        if ratio[j] > best.value:
            best = PhiEstimate(float(ratio[j]), (a, b),
                               (float(x[j]), float(y[j]), float(z1[j]), float(z2[j])))
    return best


def estimate_lipschitz(gen: Generator, sampler: BoxSampler, T: float = 1.0,
                       n_anchors: int = 16) -> float:
    """Empirical A1 constant: sup of |f - f'|^2 / (|dy|^2 + |dz1|^2 + |dz2|^2).

    If the generator declares a constant, the samples validate it (a sampled
    exceedance is a contract error) and the declared value is returned.
    """
    x_all, y_all, z1_all, z2_all = sampler.draw()
    m = y_all.size // 2
    y, yp = y_all[:m], y_all[m:2 * m]
    z1, z1p = z1_all[:m], z1_all[m:2 * m]
    z2, z2p = z2_all[:m], z2_all[m:2 * m]
    dist = (y - yp) ** 2 + (z1 - z1p) ** 2 + (z2 - z2p) ** 2
    keep = dist > 1e-14
    worst = 0.0
    for t in np.linspace(0.0, T, n_anchors + 1):
        for xa in np.linspace(-sampler.half_width, sampler.half_width, 5):
            df = gen(t, xa, y, z1, z2) - gen(t, xa, yp, z1p, z2p)
            ratio = df[keep] ** 2 / dist[keep]
            worst = max(worst, float(ratio.max(initial=0.0)))
    if gen.lipschitz_sq is not None:
        if worst > gen.lipschitz_sq * (1.0 + 1e-9) + 1e-12:
            raise ContractError(
                f"declared Lipschitz-squared constant {gen.lipschitz_sq} violated "
                f"by a sampled ratio {worst}"
            )
        return float(gen.lipschitz_sq)
    return worst


def solve_alpha0(L: float, C1: float, epsilon: float, hurst: HurstModel,
                 residual_tol: float = 1e-12) -> tuple[float, float]:
    """Root of (eps^H / a) min{a - L eps^H, a C1 - L eps^H} = eps^2H.

    The left side increases from 0 (at a = L eps^H / min(1, C1)) to
    eps^H min(1, C1), so an admissible root with both braces positive exists
    iff eps^H < min(1, C1).  Bisection is the contract; callers cross-check
    against the closed form L eps^H / (min(1, C1) - eps^H).

    Returns (alpha0, residual).
    """
    if L < 0 or C1 <= 0:
        raise ValueError("need L >= 0 and C1 > 0")
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    e = epsilon**hurst.h
    m = min(1.0, C1)
    if e >= m:
        raise InfeasibleAlphaError(epsilon, m ** (1.0 / hurst.h))
    if L == 0.0:
        # degenerate: every alpha > 0 removes the (vanishing) E1 term
        return 0.0, 0.0

    def g(a):
        return (e / a) * min(a - L * e, a * C1 - L * e) - e * e

    lo = (L * e / m) * (1.0 + 1e-12)
    hi = max(2.0 * lo, 1.0)
    for _ in range(200):
        if g(hi) > 0:
            break
        hi *= 2.0
    else:
        raise InfeasibleAlphaError(epsilon, m ** (1.0 / hurst.h))
    mid = 0.5 * (lo + hi)
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        val = g(mid)
        if abs(val) <= residual_tol:
            break
        if val < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    residual = abs(g(mid))
    if residual > residual_tol:
        raise NumericError(f"alpha0 bisection stalled at residual {residual:.3e}")
    return float(mid), float(residual)


@dataclass(frozen=True)
class AveragingConstants:
    """Every constant from the Z-lemma / rate-theorem chain, for one epsilon."""

    epsilon: float
    beta: float
    u: float
    L: float
    C0: float
    C1: float
    phi_bound: float
    alpha0: float
    alpha0_residual: float
    L1: float
    C2: float
    C3: float
    C4: float
    theorem_bound: float
    t0: float = float("nan")

    def __post_init__(self):
        if not (0.0 <= self.beta < 1.0):
            raise ValueError(f"beta must lie in [0, 1), got {self.beta!r}")


def compute_constants(
    L: float,
    C1: float,
    phi_bound: float,
    u: float,
    T: float,
    epsilon: float,
    beta: float,
    hurst: HurstModel,
    averaged_moments: tuple[float, float, float],
    t0: float = float("nan"),
) -> AveragingConstants:
    """Assemble C2, C3, L1 and the rate prefactor C4 exactly as derived.

    averaged_moments = (sup E|Ybar|^2, sup E|Zbar1|^2, sup E|Zbar2|^2) over
    the window [u, T], from an averaged-system Monte-Carlo run.  C4 uses the
    configured window start u wherever the derivation writes its window
    expressions, and multiplies the bracketed prefactor by
    eps^(2H(1+beta)-1) and the exponential factor.
    """
    if beta >= 1.0 / hurst.two_h:
        raise ValueError(f"beta={beta} violates beta < 1/(2H) = {1.0 / hurst.two_h}")
    if not 0 <= u < T:
        raise ValueError(f"window start u must lie in [0, T), got {u!r}")
    moment_sum = 1.0 + float(sum(averaged_moments))
    under = (T - u) * phi_bound * moment_sum
    if under < 0 or phi_bound < 0:
        raise NumericError("negative quantity under the C2 square root")
    c2 = math.sqrt(under)
    c3 = 4.0 * phi_bound * moment_sum
    alpha0, residual = solve_alpha0(L, C1, epsilon, hurst)
    l1 = alpha0 + (L / alpha0 if alpha0 > 0 else 0.0) + c2
    c0 = c0_const(hurst, T)
    two_h = hurst.two_h
    e2h = epsilon**two_h
    e4h = e2h**2
    hpow = hurst.h * T ** (two_h - 1.0)
    bracket = (
        (4.0 * (T - u) * L * e2h + 2.0 * hpow) * c2 * (T - u)
        + c3 * (T - u) ** 2 * e2h
        + 4.0 * c0 * T**2
    )
    expo = (T - u) * (4.0 * (T - u) * L * e4h * (l1 + 1.0) + 2.0 * l1 * e2h * hpow)
    c4 = bracket * epsilon ** (two_h * (1.0 + beta) - 1.0) * math.exp(expo)
    return AveragingConstants(
        epsilon=epsilon, beta=beta, u=u, L=L, C0=c0, C1=C1, phi_bound=phi_bound,
        alpha0=alpha0, alpha0_residual=residual, L1=l1, C2=c2, C3=c3, C4=c4,
        theorem_bound=c4 * epsilon ** (1.0 - two_h * beta), t0=t0,
    )


@dataclass(frozen=True)
class SweepConfig:
    """Policy knobs for an epsilon sweep (the path/PDE modules stay policy-free)."""

    n_paths: int = 10_000
    beta: float = 0.25
    delta1: float = 0.01
    delta2: float | None = None
    t0: float | None = None
    eta0: float = 1.0
    pde: PdeConfig = field(default_factory=PdeConfig)
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)
    rng: RngSpec = field(default_factory=lambda: RngSpec(seed=42))
    fbm_method: str = "auto"
    workers: int = 1
    phi_sampler: BoxSampler = field(default_factory=BoxSampler)
    phi_windows: int = 16


@dataclass
class PerEpsilonStats:
    epsilon: float
    t_lo: float
    window_start_index: int
    sup_mse: float
    sup_mse_stderr: float
    sup_mse_at: float
    z_err_integral: float
    z_err_stderr: float
    dy_integral: float
    dy_integral_stderr: float
    mean_sup_sq: float
    path_sup_abs: np.ndarray
    constants: AveragingConstants
    exceed_prob: float = float("nan")
    exceed_stderr: float = float("nan")
    lemma1_lhs: float = float("nan")
    lemma1_rhs: float = float("nan")
    lemma1_pass: bool = False
    c4_pass: bool = False
    chebyshev_bound: float = float("nan")
    chebyshev_pass: bool = False


@dataclass
class SweepReport:
    """Per-epsilon error statistics, constants and claim verdicts."""

    eps_list: tuple
    T: float
    beta: float
    delta1: float
    delta2: float
    t0: float
    L: float
    C1: float
    phi_bound: float
    n_paths: int
    stats: list[PerEpsilonStats]
    fitted_slope: float = float("nan")
    fitted_intercept: float = float("nan")
    epsilon1: float | None = None
    chebyshev_trend_pass: bool = False
    notes: str = WINDOW_NOTE

    def stat_for(self, epsilon: float) -> PerEpsilonStats:
        for s in self.stats:
            if s.epsilon == epsilon:
                return s
        raise KeyError(f"epsilon {epsilon!r} not in sweep")


def _window_stats(stat_args):
    (epsilon, grid, i_lo, dY, dZ_sq, Ya, Z1a, Z2a) = stat_args
    t = grid.nodes
    n_paths = dY.shape[0]
    w = slice(i_lo, None)
    dY_sq = dY[:, w] ** 2
    mse = dY_sq.mean(axis=0)
    mse_se = dY_sq.std(axis=0, ddof=1) / np.sqrt(n_paths)
    j = int(np.argmax(mse))
    z_int = np.trapezoid(dZ_sq[:, w], t[w], axis=1)
    dy_int = np.trapezoid(dY_sq, t[w], axis=1)
    sup_abs = np.abs(dY[:, w]).max(axis=1)
    moments = tuple(
        float((arr[:, w] ** 2).mean(axis=0).max()) for arr in (Ya, Z1a, Z2a)
    )
    return {
        "sup_mse": float(mse[j]),
        "sup_mse_stderr": float(mse_se[j]),
        "sup_mse_at": float(t[w][j]),
        "z_err_integral": float(z_int.mean()),
        "z_err_stderr": float(z_int.std(ddof=1) / np.sqrt(n_paths)),
        "dy_integral": float(dy_int.mean()),
        "dy_integral_stderr": float(dy_int.std(ddof=1) / np.sqrt(n_paths)),
        "mean_sup_sq": float((sup_abs**2).mean()),
        "path_sup_abs": sup_abs,
        "moments": moments,
    }


def run_sweep(
    original: Generator,
    coeffs: CoefficientSet,
    term: TerminalCondition,
    eps_list: Sequence[float],
    cfg: SweepConfig,
    ensemble: PathEnsemble | None = None,
) -> SweepReport:
    """Solve original vs averaged systems across eps on shared noise.

    For each eps both PDEs share the drift/diffusion coefficients (the
    averaged system keeps eta^eps); triples are read on the SAME eta^eps
    paths, so every error statistic is a common-random-number estimate.
    """
    eps = [float(e) for e in eps_list]
    if not eps or any(not 0 < e <= 1 for e in eps) or any(
        not a > b for a, b in zip(eps, eps[1:])
    ):
        raise ValueError("eps_list must be strictly decreasing inside (0, 1]")

    grid = coeffs.grid
    T = coeffs.T
    hurst = coeffs.hurst
    t0 = cfg.t0 if cfg.t0 is not None else T / 100.0
    if ensemble is None:
        ensemble = make_ensemble(grid, hurst, cfg.n_paths, cfg.rng,
                                 method=cfg.fbm_method, workers=cfg.workers)

    fbar = build_fbar(original, T, cfg.quad)
    averaged = fbar.as_generator()
    L = estimate_lipschitz(original, cfg.phi_sampler, T=T)
    C1 = c1_lower_bound(coeffs, t0)
    starts = np.linspace(0.0, T * (1.0 - 1.0 / cfg.phi_windows), cfg.phi_windows)
    phi = estimate_phi(original, fbar, cfg.phi_sampler, [(s, T) for s in starts])

    def solve_for(epsilon: float) -> PerEpsilonStats:
        field_orig = solve_psi(original, term, coeffs, epsilon, cfg.pde, cfg.eta0)
        field_avg = solve_psi(averaged, term, coeffs, epsilon, cfg.pde, cfg.eta0)
        eta = simulate_eta(coeffs, ensemble, epsilon, cfg.eta0)
        trip_o = extract_triple(field_orig, eta, coeffs)
        trip_a = extract_triple(field_avg, eta, coeffs)
        i_lo = grid.first_index_at_or_after(T * epsilon ** (1.0 - cfg.beta))
        i_lo = min(i_lo, grid.n_steps - 1)  # keep a nonempty window
        u = float(grid.nodes[i_lo])
        dZ_sq = (trip_o.Z1 - trip_a.Z1) ** 2 + (trip_o.Z2 - trip_a.Z2) ** 2
        raw = _window_stats((epsilon, grid, i_lo, trip_o.Y - trip_a.Y, dZ_sq,
                             trip_a.Y, trip_a.Z1, trip_a.Z2))
        constants = compute_constants(
            L, C1, phi.value, u, T, epsilon, cfg.beta, hurst,
            raw.pop("moments"), t0=t0,
        )
        return PerEpsilonStats(
            epsilon=epsilon, t_lo=u, window_start_index=i_lo,
            constants=constants, **raw,
        )

    if cfg.workers > 1 and len(eps) > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            stats = list(pool.map(solve_for, eps))
    else:
        stats = [solve_for(e) for e in eps]

    delta2 = cfg.delta2
    if delta2 is None:
        # degenerate sweeps have sup-MSE identically 0; any positive threshold
        # then gives exceedance 0 and a trivial Chebyshev pass
        delta2 = 2.0 * math.sqrt(max(s.sup_mse for s in stats)) or 1.0
    for s in stats:
        exceed = s.path_sup_abs > delta2
        p_hat = float(exceed.mean())
        s.exceed_prob = p_hat
        s.exceed_stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / exceed.size)

    report = SweepReport(
        eps_list=tuple(eps), T=T, beta=cfg.beta, delta1=cfg.delta1,
        delta2=float(delta2), t0=t0, L=L, C1=C1, phi_bound=phi.value,
        n_paths=ensemble.n_paths, stats=stats,
    )
    check_lemma1(report)
    check_theorem_rate(report)
    check_chebyshev(report)
    return report


def check_lemma1(report: SweepReport, constants: Sequence[AveragingConstants] | None = None,
                 u: float | None = None) -> list[bool]:
    """Per-eps verdicts for the Z-error lemma at 3 combined standard errors."""
    out = []
    for i, s in enumerate(report.stats):
        cons = constants[i] if constants is not None else s.constants
        start = s.t_lo if u is None else u
        lhs = s.z_err_integral
        rhs = cons.L1 * s.dy_integral + cons.C2 * (report.T - start)
        se = math.sqrt(s.z_err_stderr**2 + (cons.L1 * s.dy_integral_stderr) ** 2)
        ok = lhs <= rhs + 3.0 * se
        s.lemma1_lhs = lhs
        s.lemma1_rhs = rhs
        s.lemma1_pass = bool(ok)
        out.append(bool(ok))
    return out


@dataclass(frozen=True)
class RateCheck:
    slope: float
    intercept: float
    epsilon1: float | None
    c4_pass: tuple


def check_theorem_rate(report: SweepReport, delta1: float | None = None) -> RateCheck:
    """Least-squares slope of log sup-MSE vs log eps, the delta1 threshold
    epsilon1, and the explicit C4 eps^(1-2H beta) domination check."""
    if len(report.stats) < 3:
        raise ValueError("rate fit needs at least 3 epsilon points")
    delta1 = report.delta1 if delta1 is None else delta1
    eps = np.array([s.epsilon for s in report.stats])
    mse = np.array([s.sup_mse for s in report.stats])
    pos = mse > 0
    if pos.sum() >= 3:
        slope, intercept = np.polyfit(np.log(eps[pos]), np.log(mse[pos]), 1)
    else:
        slope, intercept = float("nan"), float("nan")
    flags = mse <= delta1
    epsilon1 = None
    for i in range(len(eps)):
        if np.all(flags[i:]):
            epsilon1 = float(eps[i])
            break
    c4_pass = []
    for s in report.stats:
        ok = s.sup_mse <= s.constants.theorem_bound
        s.c4_pass = bool(ok)
        c4_pass.append(bool(ok))
    report.fitted_slope = float(slope)
    report.fitted_intercept = float(intercept)
    report.epsilon1 = epsilon1
    return RateCheck(slope=float(slope), intercept=float(intercept),
                     epsilon1=epsilon1, c4_pass=tuple(c4_pass))


def check_chebyshev(report: SweepReport, delta2: float | None = None) -> list[bool]:
    """Exceedance frequency vs the C4 bound / delta2^2, plus the eps trend.

    Also enforces the distribution-free empirical Markov inequality
    p_hat <= mean(sup_t |dY|^2) / delta2^2, which holds exactly on the
    empirical measure.
    """
    delta2 = report.delta2 if delta2 is None else delta2
    out = []
    for s in report.stats:
        bound = s.constants.theorem_bound / delta2**2
        ok = s.exceed_prob <= bound + 3.0 * s.exceed_stderr
        markov_ok = s.exceed_prob <= s.mean_sup_sq / delta2**2 + 1e-12
        s.chebyshev_bound = float(bound)
        s.chebyshev_pass = bool(ok and markov_ok)
        out.append(bool(ok and markov_ok))
    report.chebyshev_trend_pass = bool(
        report.stats[-1].exceed_prob <= report.stats[0].exceed_prob + 1e-12
    )
    return out
