"""Averaging principle test bench.

Builds the time-averaged generator fbar, estimates the assumption constants
(Lipschitz L, kernel ratio C1, the averaging-deviation functional), solves the
alpha0 fixed-point equation from the Z-estimate lemma, assembles every
constant in the mean-square convergence bound, runs epsilon sweeps that
solve the original and averaged systems on common random numbers, and
judges the three quantitative claims by pure checks, from which
`checked_report` builds each sweep's frozen report once:

  * Z-error lemma:    E int_u^T |dZ1|^2 + |dZ2|^2 ds
                        <= L1 E int_u^T |dY|^2 ds + C2 (T - u)
  * mean-square rate: sup_{T eps^(1-beta) <= t <= T} E|dY_t|^2
                        <= C4 eps^(1 - 2 H beta)
  * Chebyshev:        P(sup_t |dY_t| > delta2) <= C4 eps^(1-2H beta) / delta2^2

C2/C3/C4 are recomputed per epsilon because the window start u = T eps^(1-beta)
enters them; the stated rate's window and the alternative K eps^(-2H beta)
window from the source derivation are mutually inconsistent for small eps,
which the sweep summary states (WINDOW_NOTE) rather than reconciles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .bsde_solver import (
    Generator,
    PdeConfig,
    SolutionField,
    TerminalCondition,
    cell_table,
    check_clamp,
    first_sweep_states,
    interp_at,
    locate,
    solve_psis,
)
from .errors import ContractError, InfeasibleAlphaError, NumericError, QuadratureConvergenceError
from .frac_kernel import CoefficientSet, HurstModel, c0_const, c1_lower_bound
from .path_engine import RngSpec, block_rows, eta_marginals, merge_moments, noise_stream

WINDOW_NOTE = (
    "rate window is [T*eps^(1-beta), T] per the stated theorem; the proof's "
    "alternative window K*eps^(-2H*beta) grows as eps -> 0 and is not used"
)


@dataclass(frozen=True)
class AveragedGenerator:
    """Time-independent surrogate fbar(x, y, z1, z2).

    `panels` is the GL-4 panel count of the quadrature behind `fn`, and
    `nodes` the number of time nodes at which `fn` evaluates f: 4 * panels,
    or fewer when `build_fbar` found a reduced rule.  Both were chosen on
    the points `build_fbar` was given; both are 0 when fbar is analytic or
    built by hand.
    """

    fn: Callable
    provenance: str = "quadrature-of-f"
    name: str = "fbar"
    panels: int = 0
    nodes: int = 0

    def __call__(self, x, y, z1, z2):
        return np.asarray(self.fn(x, y, z1, z2), dtype=float)

    def as_generator(self) -> Generator:
        return Generator(
            fn=lambda t, x, y, z1, z2: self(x, y, z1, z2),
            name=self.name,
            time_dependent=False,
        )


# f-bar's panel counts: the first tried (a single GL-4 panel integrates
# sin(2 pi t / T) exactly by symmetry, so agreement of very coarse counts
# would prove nothing) and the last; a count is kept once doubling it moves
# f-bar by at most FBAR_TOL * max(1, |fbar|)
MIN_FBAR_PANELS = 8
MAX_FBAR_PANELS = 256
FBAR_TOL = 1e-8


def _gl_rule(T: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes and weights of (1/T) int_0^T by `panels` panels of GL-4."""
    gx, gw = np.polynomial.legendre.leggauss(4)
    edges = np.linspace(0.0, T, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    weights = ((half[:, None] * gw[None, :]).ravel()) / T
    return nodes, weights


def _node_average(gen: Generator, nodes: np.ndarray, weights: np.ndarray) -> Callable:
    """sum_j weights_j f(nodes_j, .), as one call of f.

    The nodes sit on a leading axis of t and the weights contract that axis,
    one last-axis row of the state at a time: BLAS rounds an element near
    the end of a vector differently, so contracting rows together would make
    a row's value depend on the rows evaluated with it.
    """
    def fbar(x, y, z1, z2):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(z1), np.shape(z2))
        values = gen(nodes.reshape(nodes.shape + (1,) * len(shape)), x, y, z1, z2)
        if values.shape != nodes.shape + shape:
            # an f that ignores t returns the state shape
            values = np.broadcast_to(values, nodes.shape + shape)
        rows = values.reshape(nodes.size, -1, shape[-1] if shape else 1)
        out = np.empty(rows.shape[1:])
        for i in range(out.shape[0]):
            np.matmul(weights, rows[:, i], out=out[i])
        return out.reshape(shape)

    return fbar


def _first_excess(got: np.ndarray, want: np.ndarray, tol: float) -> int | None:
    """The first flat index where got misses want by more than tol * max(1, |want|)
    (a NaN misses), or None."""
    misses = ~(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))
    return int(np.argmax(misses)) if misses.any() else None


# a reduced f-bar rule keeps a node while some row of f(t_j, points) lies
# farther than NODE_TOL x the largest row from the span of the rows kept; it
# must then meet the full rule within NODE_TOL * max(1, |fbar|).  Each node
# picked costs a pass over the 4n x points samples, so a rule that needs more
# than MAX_REDUCED_NODES is not sought.
NODE_TOL = 1e-13
MAX_REDUCED_NODES = 64


def _pivoted_rows(samples: np.ndarray, tol: float, limit: int) -> np.ndarray | None:
    """The rows that column-pivoted Gram-Schmidt picks from `samples`, ascending,
    or None when more than `limit` rows are needed.

    Each step takes the row farthest from the span of those taken, until
    every row lies within tol x the largest row norm of that span.
    """
    residual = samples.copy()
    floor = tol * np.sqrt(np.einsum("ij,ij->i", samples, samples).max())
    chosen: list[int] = []
    while True:
        norms = np.sqrt(np.einsum("ij,ij->i", residual, residual))
        j = int(np.argmax(norms))
        if not norms[j] > floor:
            return np.sort(np.array(chosen, dtype=int))
        if len(chosen) == limit:
            return None
        chosen.append(j)
        unit = residual[j] / norms[j]
        residual -= np.outer(residual @ unit, unit)


def _reduced_rule(nodes: np.ndarray, table: np.ndarray, full: np.ndarray):
    """The nodes and weights of a rule on fewer of `nodes` that meets the full
    rule (values `full` on the points) within NODE_TOL * max(1, |fbar|) on
    every point, or None.

    `table` holds f(nodes_j, points) row by row.  The nodes are its
    `_pivoted_rows`, and their weights reproduce `full` by least squares.
    """
    chosen = _pivoted_rows(table, NODE_TOL, min(MAX_REDUCED_NODES, nodes.size - 1))
    if chosen is None or not chosen.size:
        return None
    weights = np.linalg.lstsq(table[chosen].T, full, rcond=None)[0]
    if _first_excess(weights @ table[chosen], full, NODE_TOL) is not None:
        return None
    return nodes[chosen], weights


def build_fbar(gen: Generator, T: float, points) -> AveragedGenerator:
    """fbar = (1/T) int_0^T f(s, .) ds by composite Gauss-Legendre, resolved
    on `points`, the 1-D coordinate arrays (x, y, z1, z2) of the states at
    which fbar will be read.

    The assumption set only constrains fbar; the full-interval time average
    is the canonical admissible choice and is what every sweep here uses.
    A generator declared time-independent is its own average, exactly, so it
    is passed through untouched (this keeps the degenerate sweep identically
    zero instead of zero-up-to-quadrature-rounding).

    Otherwise the rule is chosen from one table of f per panel count n
    tried, f on the 4n nodes of `_gl_rule(T, n)` x the points, whose
    weighted sum over the nodes is fbar on the points.  Starting at
    MIN_FBAR_PANELS and doubling, n is the first count <= MAX_FBAR_PANELS
    whose fbar on every point moves by at most FBAR_TOL * max(1, |fbar|)
    when refined to 2n panels.  If no count qualifies,
    QuadratureConvergenceError is raised.  The n table is held while the 2n
    one is built: 14 + 27 MB for 128 -> 256 panels on a sweep's 3 350
    points, 1.5x the largest table.

    Then the kept table's 4n nodes are cut to the r that f's time dependence
    needs on the points (`_reduced_rule`): r = 1 for f = a(t) h(x, y, z1,
    z2), at most d + 1 for f polynomial of degree d in t.  The cut is kept
    only if it meets the 4n-node rule within NODE_TOL * max(1, |fbar|) on
    every point; otherwise fbar is the 4n-node rule.  Each call of the
    returned fbar evaluates f once, with its nodes on a leading axis of t.
    `run_sweep` passes the probe box joined with the PDE's first states.
    """
    if not gen.time_dependent:
        return AveragedGenerator(
            fn=lambda x, y, z1, z2: gen.fn(0.0, x, y, z1, z2),
            provenance="analytic", name=f"avg[{gen.name}]",
        )
    n_points = np.broadcast(*points).size

    def sampled(panels):
        """The `panels`-panel rule, f on its nodes x the points, and fbar there."""
        rule = _gl_rule(T, panels)
        # no contiguous copy: an f that ignores t gives a stride-0 view, summed as is
        table = np.broadcast_to(gen(rule[0][:, None], *points), (rule[0].size, n_points))
        return rule, table, rule[1] @ table

    panels = MIN_FBAR_PANELS
    rule, table, coarse = sampled(panels)
    while True:
        fine_rule, fine_table, fine = sampled(2 * panels)
        k = _first_excess(coarse, fine, FBAR_TOL)
        if k is None:
            break
        if 2 * panels > MAX_FBAR_PANELS:
            raise QuadratureConvergenceError(float(coarse[k]), float(fine[k]), FBAR_TOL)
        panels, rule, table, coarse = 2 * panels, fine_rule, fine_table, fine
    del fine_table   # only the kept count's table is read from here
    rule = _reduced_rule(rule[0], table, coarse) or rule
    return AveragedGenerator(fn=_node_average(gen, *rule),
                             provenance="quadrature-of-f", name=f"avg[{gen.name}]",
                             panels=panels, nodes=rule[0].size)


# the probe set of L, phi and f-bar's rule choice: BOX_SAMPLES uniform draws
# from the box |x|, |y|, |z1|, |z2| <= BOX_HALF_WIDTH, then its 16 corners and the origin
BOX_HALF_WIDTH = 5.0
BOX_SAMPLES = 2048


def box_points():
    """The probe set's coordinates (x, y, z1, z2), each of BOX_SAMPLES + 17 values."""
    rng = np.random.Generator(np.random.Philox(key=np.array([20240, 77], dtype=np.uint64)))
    pts = BOX_HALF_WIDTH * (2.0 * rng.random((BOX_SAMPLES, 4)) - 1.0)
    corners = BOX_HALF_WIDTH * np.array(
        [[sx, sy, sz, sw] for sx in (-1, 1) for sy in (-1, 1)
         for sz in (-1, 1) for sw in (-1, 1)], dtype=float
    )
    pts = np.vstack([pts, corners, np.zeros((1, 4))])
    return pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3]


# phi is estimated on the PHI_WINDOWS windows [kT/PHI_WINDOWS, T] by a
# trapezoid on PHI_TIME_NODES uniform nodes of [0, T]
PHI_WINDOWS = 16
PHI_TIME_NODES = 1025


def estimate_phi(gen: Generator, fbar: AveragedGenerator, T: float) -> float:
    """sup over the probe set and the windows [t, T] of the averaging-deviation ratio

        (1/(T-t)) int_t^T |f(s,x,y,z1,z2) - fbar(x,y,z1,z2)|^2 ds
            / (1 + y^2 + z1^2 + z2^2),

    a lower estimate of sup phi by construction.

    The integral is a cumulative trapezoid on PHI_TIME_NODES uniform nodes
    of [0, T], formed window by window: f is evaluated once per slice
    between two window starts, and the slice's steps are added in node
    order onto the integral up to its first node.
    """
    x, y, z1, z2 = box_points()
    s_nodes = np.linspace(0.0, T, PHI_TIME_NODES)
    stride = (PHI_TIME_NODES - 1) // PHI_WINDOWS   # window k starts at node k * stride
    head = np.zeros((PHI_WINDOWS + 1, x.size))     # the integral up to each start, then to T

    fb = fbar(x, y, z1, z2)
    for k in range(PHI_WINDOWS):
        s = s_nodes[k * stride:(k + 1) * stride + 1]
        gaps_sq = np.broadcast_to(gen(s[:, None], x, y, z1, z2), (s.size, x.size)) - fb
        gaps_sq **= 2
        steps = 0.5 * (gaps_sq[1:] + gaps_sq[:-1]) * np.diff(s)[:, None]
        steps[0] += head[k]
        # cumsum adds rows in order at any point count; sum adds one column pairwise
        head[k + 1] = np.cumsum(steps, axis=0, out=steps)[-1]
    denom = 1.0 + y**2 + z1**2 + z2**2
    window_means = (head[-1] - head[:-1]) / (T - s_nodes[:-1:stride])[:, None]
    return float((window_means / denom).max())


def estimate_lipschitz(gen: Generator, T: float) -> float:
    """Empirical A1 constant: sup of |f - f'|^2 / (|dy|^2 + |dz1|^2 + |dz2|^2)
    over pairs of probe points, at 17 evenly spaced times of [0, T] and 5 x values.

    If the generator declares a constant, the samples validate it (a sampled
    exceedance is a contract error) and the declared value is returned.
    """
    _, y_all, z1_all, z2_all = box_points()
    m = y_all.size // 2
    y, yp = y_all[:m], y_all[m:2 * m]
    z1, z1p = z1_all[:m], z1_all[m:2 * m]
    z2, z2p = z2_all[:m], z2_all[m:2 * m]
    dist = (y - yp) ** 2 + (z1 - z1p) ** 2 + (z2 - z2p) ** 2
    keep = dist > 1e-14
    worst = 0.0
    for t in np.linspace(0.0, T, 17):
        for xa in np.linspace(-BOX_HALF_WIDTH, BOX_HALF_WIDTH, 5):
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


def solve_alpha0(L: float, C1: float, epsilon: float, hurst: HurstModel) -> float:
    """Root of (eps^H / a) min{a - L eps^H, a C1 - L eps^H} = eps^2H.

    With m = min(1, C1) and e = eps^H the braces' minimum is a m - L e, so
    the equation reads e m - L e^2 / a = e^2 and its root is
    alpha0 = L e / (m - e).  Both braces are positive there iff e < m.
    """
    if L < 0 or C1 <= 0:
        raise ValueError("need L >= 0 and C1 > 0")
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    e = epsilon**hurst.h
    m = min(1.0, C1)
    if e >= m:
        raise InfeasibleAlphaError(epsilon, max_feasible_eps(C1, hurst))
    return float(L * e / (m - e))


def max_feasible_eps(C1: float, hurst: HurstModel) -> float:
    """min(1, C1)^(1/H): `solve_alpha0` has a root exactly for eps below it."""
    return min(1.0, C1) ** (1.0 / hurst.h)


def check_beta(beta: float, h: float) -> None:
    """Raise ValueError unless 0 <= beta < min(1, 1/(2H)); for any float H (limit 1 if H <= 1/2)."""
    limit = 1.0 / max(1.0, 2.0 * h)
    if not 0.0 <= beta < limit:
        raise ValueError(f"beta: must satisfy 0 <= beta < min(1, 1/(2H)) = {limit:.6g}, "
                         f"got {beta!r}")


# the fewest epsilons a sweep takes: the rate fit is a line through at least three points
MIN_EPS_POINTS = 3


def check_eps_list(eps: Sequence[float]) -> None:
    """Raise ValueError unless eps holds at least MIN_EPS_POINTS values, strictly
    decreasing inside (0, 1]."""
    eps = tuple(float(e) for e in eps)
    if len(eps) < MIN_EPS_POINTS or any(not 0 < e <= 1 for e in eps) or any(
        not a > b for a, b in zip(eps, eps[1:])
    ):
        raise ValueError(f"eps_list: must hold at least {MIN_EPS_POINTS} values, strictly "
                         f"decreasing inside (0, 1], got {eps!r}")


@dataclass(frozen=True)
class AveragingConstants:
    """The constants `compute_constants` derives for one epsilon; its inputs
    live in the sweep report (L, C1, phi, beta) and its stats (u as t_lo)."""

    C0: float
    alpha0: float
    L1: float
    C2: float
    C3: float
    C4: float
    theorem_bound: float


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
) -> AveragingConstants:
    """C0, alpha0, L1, C2, C3, the rate prefactor C4 and the theorem's bound
    C4 eps^(1 - 2H beta), exactly as derived.

    averaged_moments = (sup E|Ybar|^2, sup E|Zbar1|^2, sup E|Zbar2|^2) over
    the window [u, T], from an averaged-system Monte-Carlo run.  C4 uses the
    configured window start u wherever the derivation writes its window
    expressions, and multiplies the bracketed prefactor by
    eps^(2H(1+beta)-1) and the exponential factor.
    """
    check_beta(beta, hurst.h)
    if not 0 <= u < T:
        raise ValueError(f"window start u must lie in [0, T), got {u!r}")
    moment_sum = 1.0 + float(sum(averaged_moments))
    under = (T - u) * phi_bound * moment_sum
    if under < 0 or phi_bound < 0:
        raise NumericError("negative quantity under the C2 square root")
    c2 = math.sqrt(under)
    c3 = 4.0 * phi_bound * moment_sum
    alpha0 = solve_alpha0(L, C1, epsilon, hurst)
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
        C0=c0, alpha0=alpha0, L1=l1, C2=c2, C3=c3, C4=c4,
        theorem_bound=c4 * epsilon ** (1.0 - two_h * beta),
    )


@dataclass(frozen=True)
class SweepConfig:
    """Policy knobs for an epsilon sweep (the path/PDE modules stay policy-free).

    `t0` 0 means 3T/4 (`window_t0`); `delta2` 0 means 2 sqrt(max sup-MSE),
    or 1 when that is 0 (`exceed_threshold`).  `n_paths` sets the work and
    the standard errors; the sweep's memory does not grow with it.
    """

    n_paths: int = 10_000
    beta: float = 0.25
    delta1: float = 0.01
    delta2: float = 0.0
    t0: float = 0.0
    eta0: float = 1.0
    pde: PdeConfig = field(default_factory=PdeConfig)
    rng: RngSpec = field(default_factory=lambda: RngSpec(seed=42))

    def window_t0(self, T: float) -> float:
        """The start of C1's window [t0, T]: t0, or 3T/4 when t0 is 0."""
        return self.t0 or 0.75 * T


@dataclass(frozen=True)
class PerEpsilonStats:
    """One eps's window statistics, constants, exceedance and verdicts (lemma lhs:
    z_err_integral; exceed_prob: the share of all n_paths paths whose sup |dY|
    over the window exceeds delta2, with its binomial exceed_stderr;
    chebyshev_pass: exceed_prob against C4 eps^r / delta2^2 alone).  No
    per-path value is kept."""

    epsilon: float
    t_lo: float
    sup_mse: float
    sup_mse_stderr: float
    z_err_integral: float
    z_err_stderr: float
    dy_integral: float
    dy_integral_stderr: float
    constants: AveragingConstants
    exceed_prob: float
    exceed_stderr: float
    lemma1_rhs: float
    lemma1_pass: bool
    c4_pass: bool
    chebyshev_pass: bool


@dataclass(frozen=True)
class SweepReport:
    """Per-epsilon error statistics, constants and claim verdicts, built by `checked_report`.

    `delta2` is the exceedance threshold every eps was counted against
    (`exceed_threshold`): the configured value or the one the sweep chose.
    `noise_draw_s` and `noise_wait_s` are the noise stream's producer busy
    seconds and the seconds the sweep waited on it (the `draw_s` and
    `wait_s` of `noise_stream`'s times): timings, not results, so equality
    ignores them.
    """

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
    stats: tuple[PerEpsilonStats, ...]
    fitted_slope: float
    epsilon1: float | None
    chebyshev_trend_pass: bool
    fbar_panels: int
    fbar_nodes: int
    noise_draw_s: float = field(default=0.0, compare=False)
    noise_wait_s: float = field(default=0.0, compare=False)


class _WindowFold:
    """One epsilon's error statistics over the window [u, T], folded path block by block.

    Both fields share the x grid `linspace(lo, hi, n + 1)` (the domain
    depends only on the coefficients, eps, eta0 and kappa), and eta is read
    in grid units: u = (eta - lo) g with g = n / (hi - lo) is a N + c_k, with
    a = eps^H g and c_k = (mean_k - lo) g fixed here, mean_k eta's mean at
    t_k (`eta_marginals`), so a block is read straight from its eps-free
    noise N through `locate`, the reader `extract_triple` uses too.

    The fields may start after t = 0 (`solve_psis`' `first_row`), but not
    after the window start `i_lo`, a row of the whole time grid.  The four
    tables (`cell_table`), copies of the window rows, hold psi_o -
    psi_a, d_x psi_o - d_x psi_a, psi_a and d_x psi_a, in the order
    `_window_stats` reads them: dY and dZ come from one read each.  Per
    window column the fold keeps Chan's mergeable (count, mean, M2) of dY^2
    and the sums of Ybar^2, Zbar1^2 and Zbar2^2; over paths, the (mean, M2)
    of the trapezoid integrals of |dY|^2 and |dZ|^2.  Of the paths' sup |dY|
    it keeps in `kept` only those above `floor`, a value no greater than the
    exceedance threshold delta2, which may be known only after the last
    block: a dropped sup cannot exceed delta2, so the exceedance count read
    from `kept` is exact.  `run_sweep` raises the floor after every block
    (`raise_floor`).
    """

    def __init__(self, epsilon: float, i_lo: int, field_orig: SolutionField,
                 field_avg: SolutionField, coeffs: CoefficientSet, eta0: float):
        t = coeffs.grid.nodes
        self.i_lo = i_lo
        lo, hi = field_orig.x_nodes[0], field_orig.x_nodes[-1]
        self.n_cells = field_orig.x_nodes.size - 1
        g = self.n_cells / (hi - lo)
        self.a = epsilon**coeffs.hurst.h * g
        self.c = ((eta_marginals(coeffs, epsilon, eta0)[0] - lo) * g)[i_lo:]
        row = i_lo - (t.size - field_orig.t_nodes.size)   # i_lo's row in the fields
        self.tables = [cell_table(table) for table in (
            field_orig.psi[row:] - field_avg.psi[row:],
            field_orig.psi_x[row:] - field_avg.psi_x[row:],
            field_avg.psi[row:], field_avg.psi_x[row:])]
        self.t = t[i_lo:]
        # trapezoid weights on the window; |dZ|^2 = (sigma1^2 + sigma2^2) |d psi_x|^2
        half_steps = np.diff(self.t) / 2.0
        self.weights = np.zeros(self.t.size)
        self.weights[1:] += half_steps
        self.weights[:-1] += half_steps
        self.sig_sq = np.stack([np.asarray(sigma(t), dtype=float)[i_lo:] ** 2
                                for sigma in (coeffs.sigma1, coeffs.sigma2)])
        self.z_weights = self.weights * self.sig_sq.sum(axis=0)
        self.count = 0
        self.mean = np.zeros(self.t.size)
        self.m2 = np.zeros(self.t.size)
        self.sq_sums = np.zeros((3, self.t.size))
        # the integrals of |dY|^2 and |dZ|^2 over paths
        self.int_mean = np.zeros(2)
        self.int_m2 = np.zeros(2)
        self.floor = 0.0
        self.kept = np.empty(0)

    def raise_floor(self, floor: float) -> None:
        """Keep only the sup |dY| values above `floor` from here on."""
        self.floor = floor
        self.kept = self.kept[self.kept > floor]

    def result(self) -> dict:
        """The statistics of every path folded so far."""
        n = self.count
        root_n = np.sqrt(n)
        mse_se = np.sqrt(self.m2 / (n - 1)) / root_n
        dy_se, z_se = np.sqrt(self.int_m2 / (n - 1)) / root_n
        j = int(np.argmax(self.mean))
        return {
            "sup_mse": float(self.mean[j]),
            "sup_mse_stderr": float(mse_se[j]),
            "z_err_integral": float(self.int_mean[1]),
            "z_err_stderr": float(z_se),
            "dy_integral": float(self.int_mean[0]),
            "dy_integral_stderr": float(dy_se),
            "kept_sup_abs": self.kept,
            "moments": tuple(float(m) for m in (self.sq_sums / n).max(axis=1)),
        }


def _window_stats(fold: _WindowFold, noise: np.ndarray, start: int, ws: dict) -> None:
    """Fold the block of paths start, start+1, ... (eps-free noise `noise`) into `fold`;
    of the block's sup |dY| only those above `fold.floor` are kept.

    `ws` holds the flat buffers `run_sweep` allocates once, `frac`, `read`,
    `scratch` and `cell`, each read as its C-contiguous (block rows, window
    columns) prefix.  The four reads share the `read` buffer, and each feeds
    its statistics before the next overwrites it.  Every block-sized array
    lives in `ws`; what is allocated per call is O(window columns + block rows).
    """
    n_b, n_nodes = noise.shape
    frac, cell, read, scratch = (ws[name][:n_b * (n_nodes - fold.i_lo)].reshape(n_b, -1)
                                 for name in ("frac", "cell", "read", "scratch"))
    np.multiply(noise[:, fold.i_lo:], fold.a, out=frac)
    frac += fold.c
    locate(frac, fold.n_cells, cell)
    d_y, d_z, y_avg, slope_avg = fold.tables
    path_ints = np.empty((2, n_b))   # per path: the integrals of |dY|^2 and |dZ|^2

    dY = interp_at(d_y, cell, frac, read, scratch)
    sup_abs = np.abs(dY, out=scratch).max(axis=1)
    fold.kept = np.concatenate((fold.kept, sup_abs[sup_abs > fold.floor]))
    dY_sq = np.square(dY, out=dY)
    np.matmul(dY_sq, fold.weights, out=path_ints[0])
    merge_moments(fold.count, fold.mean, fold.m2, dY_sq, scratch)

    dZ = interp_at(d_z, cell, frac, read, scratch)
    np.matmul(np.square(dZ, out=dZ), fold.z_weights, out=path_ints[1])
    merge_moments(fold.count, fold.int_mean, fold.int_m2, path_ints.T)

    Y_a = interp_at(y_avg, cell, frac, read, scratch)
    fold.sq_sums[0] += np.einsum("ij,ij->j", Y_a, Y_a)
    slope_a = interp_at(slope_avg, cell, frac, read, scratch)
    fold.sq_sums[1:] += np.einsum("ij,ij->j", slope_a, slope_a) * fold.sig_sq
    fold.count += n_b


def run_sweep(
    original: Generator,
    coeffs: CoefficientSet,
    term: TerminalCondition,
    eps_list: Sequence[float],
    cfg: SweepConfig,
) -> SweepReport:
    """Solve original vs averaged systems across eps on shared noise.

    For each eps both PDEs share the drift/diffusion coefficients (the
    averaged system keeps eta^eps); triples are read on the SAME eta^eps
    paths, so every error statistic is a common-random-number estimate.

    f-bar is built once (`build_fbar`), resolved on the probe box joined
    with the states at which the PDE first reads a generator
    (`first_sweep_states`), before any PDE is solved or path drawn; so is
    each eps's domain, which `check_clamp` judges by eta's law.  Every
    field is then solved, all 2 x len(eps) in one
    backward pass (`solve_psis`) that stops at the earliest window start,
    and each eps's fold copies the window rows it reads, so
    the fields are freed before the paths stream.  The paths then come in
    the fixed blocks of `path_blocks` from `noise_stream`, whose forked
    producer process draws each block's (B, B^H) from the per-path streams
    of its global path indices, and its eps-free noise N, while this process
    folds the block before: every eps reads both fields in grid units
    straight from N, through one dict of four flat buffers made here and
    shared by every block and eps (`_window_stats`); eta^eps itself is
    never formed.  The producer is
    joined before this returns or raises, and the stream's times, its
    `draw_s` and `wait_s`, are the report's `noise_draw_s` and
    `noise_wait_s`.  The sweep starts no thread, and the caller must run
    none while it forks.  Nothing the sweep holds grows with n_paths: after
    each block every fold's floor is raised to delta2 when it is configured,
    else to a lower bound of the auto delta2 (`exceed_threshold` of a lower
    bound of the largest sup-MSE), and a fold keeps only the sup |dY| values
    above its floor, which a path must pass to count as an exceedance.
    Reruns are byte-identical.  The folds' statistics go to
    `checked_report`, which builds the frozen report once through the pure
    claim checks.
    """
    check_eps_list(eps_list)
    eps = [float(e) for e in eps_list]
    if cfg.n_paths < 2:
        raise ValueError(f"n_paths must be >= 2 for standard errors, got {cfg.n_paths!r}")
    check_beta(cfg.beta, coeffs.hurst.h)

    grid = coeffs.grid
    T = grid.T
    hurst = coeffs.hurst
    t0 = cfg.window_t0(T)

    states = first_sweep_states(coeffs, term, eps, cfg.pde, cfg.eta0)
    fbar = build_fbar(original, T, [np.concatenate((box, state.ravel()))
                                    for box, state in zip(box_points(), states)])
    averaged = fbar.as_generator()
    L = estimate_lipschitz(original, T)
    C1 = c1_lower_bound(coeffs, t0)
    # an eps without an alpha0, or whose domain eta's law leaves too often
    # (`check_clamp`), fails here, before any PDE is solved or path drawn
    for epsilon, x_nodes in zip(eps, states[0]):
        solve_alpha0(L, C1, epsilon, hurst)
        check_clamp(coeffs, epsilon, cfg.eta0, x_nodes)
    phi = estimate_phi(original, fbar, T)

    # each eps's window start, kept below the last node so the window is nonempty
    i_los = [min(grid.first_index_at_or_after(T * e ** (1.0 - cfg.beta)), grid.n_steps - 1)
             for e in eps]
    fields = solve_psis((original, averaged), term, coeffs, eps, cfg.pde, cfg.eta0,
                        first_row=min(i_los))
    folds = [_WindowFold(e, i_lo, o, a, coeffs, cfg.eta0)
             for e, i_lo, o, a in zip(eps, i_los, fields, fields[len(eps):])]
    del fields  # the folds hold copies of their window rows: this frees the batch

    # the fold's flat buffers, shared by every block and eps: one block over every node each
    size = min(block_rows(grid.n_nodes), cfg.n_paths) * grid.n_nodes
    ws = {name: np.empty(size) for name in ("frac", "read", "scratch")}
    ws["cell"] = np.empty(size, dtype=np.intp)
    floor = cfg.delta2
    with noise_stream(coeffs, cfg.n_paths, cfg.rng) as (blocks, times):
        for start, noise in blocks:
            for fold in folds:
                _window_stats(fold, noise, start, ws)
            if not cfg.delta2:
                # a lower bound of the final largest sup-MSE, as the paths still to
                # come add >= 0 to every column's sum of dY^2; the 1e-9 margin
                # covers the rounding of the running means
                lower = max(f.count * float(f.mean.max()) for f in folds) / cfg.n_paths
                floor = (1.0 - 1e-9) * exceed_threshold(0.0, lower) if lower > 0.0 else 0.0
            for fold in folds:
                fold.raise_floor(floor)

    report = checked_report([fold.result() for fold in folds], [float(f.t[0]) for f in folds],
                            eps, T, t0, L, C1, phi, hurst, cfg, fbar.panels, fbar.nodes)
    return replace(report, noise_draw_s=times.draw_s, noise_wait_s=times.wait_s)


def exceed_threshold(delta2: float, sup_mse: float) -> float:
    """The exceedance threshold delta2: the configured `delta2`, else 2 sqrt(sup_mse)
    for the largest sup-MSE over eps, else 1.  A degenerate sweep has sup-MSE
    identically 0; any positive threshold then gives exceedance 0 and a
    trivial Chebyshev pass."""
    return float(delta2 or 2.0 * math.sqrt(sup_mse) or 1.0)


def checked_report(raws: Sequence[dict], us: Sequence[float], eps: Sequence[float], T: float,
                   t0: float, L: float, C1: float, phi: float, hurst: HurstModel,
                   cfg: SweepConfig, fbar_panels: int, fbar_nodes: int) -> SweepReport:
    """The sweep report, built once from each eps's window statistics `raws`
    (`_WindowFold.result()`) and window start `us`: its constants, delta2,
    exceedance frequency (the kept sup |dY| above delta2, over cfg.n_paths
    paths) and every claim verdict.  The Chebyshev verdict
    compares the exceedance frequency with the theorem's bound only
    (`check_chebyshev`)."""
    delta2 = exceed_threshold(cfg.delta2, max(r["sup_mse"] for r in raws))
    slope, epsilon1 = check_theorem_rate(eps, [r["sup_mse"] for r in raws], cfg.delta1)
    stats = []
    for epsilon, u, raw in zip(eps, us, raws):
        constants = compute_constants(L, C1, phi, u, T, epsilon, cfg.beta, hurst, raw["moments"])
        p_hat = float(np.count_nonzero(raw["kept_sup_abs"] > delta2) / cfg.n_paths)
        p_se = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / cfg.n_paths)
        rhs, lemma1_ok = check_lemma1(raw["z_err_integral"], raw["z_err_stderr"],
                                      raw["dy_integral"], raw["dy_integral_stderr"],
                                      constants.L1, constants.C2, T - u)
        stats.append(PerEpsilonStats(
            epsilon=epsilon, t_lo=u, constants=constants,
            **{k: v for k, v in raw.items() if k not in ("moments", "kept_sup_abs")},
            exceed_prob=p_hat, exceed_stderr=p_se, lemma1_rhs=rhs, lemma1_pass=lemma1_ok,
            c4_pass=bool(raw["sup_mse"] <= constants.theorem_bound),
            chebyshev_pass=check_chebyshev(p_hat, p_se, constants.theorem_bound, delta2),
        ))
    return SweepReport(
        eps_list=tuple(eps), T=T, beta=cfg.beta, delta1=cfg.delta1, delta2=delta2, t0=t0,
        L=L, C1=C1, phi_bound=phi, n_paths=cfg.n_paths, stats=tuple(stats),
        fitted_slope=slope, epsilon1=epsilon1,
        chebyshev_trend_pass=bool(stats[-1].exceed_prob <= stats[0].exceed_prob + 1e-12),
        fbar_panels=fbar_panels, fbar_nodes=fbar_nodes,
    )


def check_lemma1(lhs: float, lhs_stderr: float, dy_integral: float, dy_stderr: float,
                 L1: float, C2: float, window: float) -> tuple[float, bool]:
    """The Z-error lemma's right side L1 E int |dY|^2 + C2 (T - u) for a window of
    length `window`, and whether `lhs` stays within 3 combined standard errors of it."""
    rhs = L1 * dy_integral + C2 * window
    se = math.sqrt(lhs_stderr**2 + (L1 * dy_stderr) ** 2)
    return rhs, bool(lhs <= rhs + 3.0 * se)


def check_theorem_rate(eps: Sequence[float], sup_mse: Sequence[float],
                       delta1: float) -> tuple[float, float | None]:
    """The least-squares slope of log sup-MSE vs log eps over the positive sup-MSE
    (nan below MIN_EPS_POINTS of them), and epsilon1: the largest eps from which
    on every sup-MSE is at most delta1, or None."""
    if len(eps) < MIN_EPS_POINTS:
        raise ValueError(f"rate fit needs at least {MIN_EPS_POINTS} epsilon points")
    eps, mse = np.array(eps, dtype=float), np.array(sup_mse, dtype=float)
    pos = mse > 0
    slope = (np.polyfit(np.log(eps[pos]), np.log(mse[pos]), 1)[0]
             if pos.sum() >= MIN_EPS_POINTS else float("nan"))
    epsilon1 = next((float(e) for i, e in enumerate(eps) if np.all(mse[i:] <= delta1)), None)
    return float(slope), epsilon1


def check_chebyshev(p_hat: float, p_stderr: float, theorem_bound: float,
                    delta2: float) -> bool:
    """Whether the exceedance frequency p_hat = P(sup_t |dY| > delta2) is within
    3 standard errors of the theorem's Chebyshev bound C4 eps^r / delta2^2.

    Markov's inequality on the sample, p_hat <= mean(sup_t |dY|^2) / delta2^2,
    holds for every sample, so it is not checked."""
    return bool(p_hat <= theorem_bound / delta2**2 + 3.0 * p_stderr)


def claim_verdicts(report: SweepReport) -> dict[str, bool]:
    """Every claim verdict of a checked sweep by claim; the sweep passes iff all hold."""
    stats = report.stats
    # an f-bar without panels (f itself when f ignores t) and a sup-MSE of exactly 0
    # at every eps leave no rate to fit
    exact = report.fbar_panels == 0 and all(s.sup_mse == 0.0 for s in stats)
    return {
        "lemma1": all(s.lemma1_pass for s in stats),
        "c4": all(s.c4_pass for s in stats),
        "monotone": all(
            b.sup_mse <= a.sup_mse + 3 * np.hypot(a.sup_mse_stderr, b.sup_mse_stderr)
            for a, b in zip(stats, stats[1:])
        ),
        "slope": exact or report.fitted_slope > 0,
        "chebyshev": all(s.chebyshev_pass for s in stats),
        "trend": report.chebyshev_trend_pass,
    }
