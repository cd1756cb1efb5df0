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
    block_rows,
    cell_table,
    check_clamp,
    interp_at,
    locate,
    solve_psis,
)
from .errors import ContractError, InfeasibleAlphaError, NumericError, QuadratureConvergenceError
from .frac_kernel import CoefficientSet, HurstModel, c0_const, c1_lower_bound
from .path_engine import RngSpec, eta_noise, make_ensemble

WINDOW_NOTE = (
    "rate window is [T*eps^(1-beta), T] per the stated theorem; the proof's "
    "alternative window K*eps^(-2H*beta) grows as eps -> 0 and is not used"
)


@dataclass(frozen=True)
class AveragedGenerator:
    """Time-independent surrogate fbar(x, y, z1, z2).

    `panels` is the GL-4 panel count of the quadrature behind `fn`; 0 when
    fbar is analytic.
    """

    fn: Callable
    provenance: str = "quadrature-of-f"
    name: str = "fbar"
    panels: int = 0

    def __call__(self, x, y, z1, z2):
        return np.asarray(self.fn(x, y, z1, z2), dtype=float)

    def as_generator(self) -> Generator:
        return Generator(
            fn=lambda t, x, y, z1, z2: self.fn(x, y, z1, z2),
            name=self.name,
            time_dependent=False,
        )


# the first panel count tried; a single GL-4 panel integrates sin(2 pi t / T)
# exactly by symmetry, so agreement of very coarse counts would prove nothing
MIN_FBAR_PANELS = 8


@dataclass(frozen=True)
class QuadratureSpec:
    """build_fbar's panel cap and tolerance; frac_kernel's integrals have a fixed rule."""

    panels: int = 256
    tol: float = 1e-8

    def __post_init__(self):
        if self.panels < MIN_FBAR_PANELS:
            raise ValueError(f"panel count must be >= {MIN_FBAR_PANELS}, got {self.panels!r}")
        if not self.tol > 0:
            raise ValueError(f"tolerance must be > 0, got {self.tol!r}")


def _gl_time_average(gen: Generator, T: float, panels: int) -> Callable:
    """(1/T) int_0^T f(s, .) ds by `panels` panels of GL-4, as one call of f.

    The nodes sit on a leading axis of t and the weights contract that axis,
    one last-axis row of the state at a time: BLAS rounds an element near
    the end of a vector differently, so contracting rows together would make
    a row's value depend on the rows evaluated with it.
    """
    gx, gw = np.polynomial.legendre.leggauss(4)
    edges = np.linspace(0.0, T, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    weights = ((half[:, None] * gw[None, :]).ravel()) / T

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


def build_fbar(gen: Generator, T: float, quad: QuadratureSpec) -> AveragedGenerator:
    """fbar = (1/T) int_0^T f(s, .) ds by composite Gauss-Legendre.

    The assumption set only constrains fbar; the full-interval time average
    is the canonical admissible choice and is what every sweep here uses.
    A generator declared time-independent is its own average, exactly, so it
    is passed through untouched (this keeps the degenerate sweep identically
    zero instead of zero-up-to-quadrature-rounding).

    Otherwise the panel count is chosen here, once: starting at
    MIN_FBAR_PANELS and doubling, the first count n <= quad.panels whose
    fbar on every `box_points()` point moves by at most
    quad.tol * max(1, |fbar|) when refined to 2n panels.  If no count
    qualifies, QuadratureConvergenceError is raised.  Each call of the
    returned fbar evaluates f once, with the 4n quadrature nodes on a
    leading axis of t.
    """
    if not gen.time_dependent:
        return AveragedGenerator(
            fn=lambda x, y, z1, z2: gen.fn(0.0, x, y, z1, z2),
            provenance="analytic", name=f"avg[{gen.name}]",
        )
    points = box_points()
    panels = MIN_FBAR_PANELS
    coarse = _gl_time_average(gen, T, panels)(*points)
    while True:
        fine = _gl_time_average(gen, T, 2 * panels)(*points)
        excess = np.abs(fine - coarse) - quad.tol * np.maximum(1.0, np.abs(fine))
        if np.all(excess <= 0.0):
            break
        if 2 * panels > quad.panels:
            k = int(np.argmin(excess <= 0.0))  # the first point that failed
            raise QuadratureConvergenceError(float(coarse[k]), float(fine[k]), quad.tol)
        panels *= 2
        coarse = fine
    return AveragedGenerator(fn=_gl_time_average(gen, T, panels),
                             provenance="quadrature-of-f", name=f"avg[{gen.name}]",
                             panels=panels)


# the probe set of f-bar's panel choice, L and phi: BOX_SAMPLES uniform draws
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
# time nodes per call of f in estimate_phi: ~1 MB per (nodes, points)
# temporary at the probe set's 2065 points
PHI_CHUNK_NODES = 64


def estimate_phi(gen: Generator, fbar: AveragedGenerator, T: float) -> float:
    """sup over the probe set and the windows [t, T] of the averaging-deviation ratio

        (1/(T-t)) int_t^T |f(s,x,y,z1,z2) - fbar(x,y,z1,z2)|^2 ds
            / (1 + y^2 + z1^2 + z2^2),

    a lower estimate of sup phi by construction.

    The integral is a cumulative trapezoid on PHI_TIME_NODES uniform nodes
    of [0, T].  f is evaluated PHI_CHUNK_NODES nodes per call, and the
    running integral is carried from chunk to chunk (the carry row heads
    each chunk's cumsum, so every sum is formed in node order); only the
    rows at window starts and at T are kept.
    """
    x, y, z1, z2 = box_points()
    s_nodes = np.linspace(0.0, T, PHI_TIME_NODES)
    stride = (PHI_TIME_NODES - 1) // PHI_WINDOWS   # window k starts at node k * stride
    kept = np.zeros((PHI_WINDOWS + 1, x.size))     # the integral up to each start, then to T

    fb = fbar(x, y, z1, z2)
    carry = np.zeros((1, x.size))   # the integral from 0 to the chunk's first node
    for lo in range(0, PHI_TIME_NODES - 1, PHI_CHUNK_NODES):
        s = s_nodes[lo:lo + PHI_CHUNK_NODES + 1]   # one node shared with the next chunk
        gaps_sq = np.broadcast_to(gen(s[:, None], x, y, z1, z2), (s.size, x.size)) - fb
        gaps_sq **= 2
        steps = 0.5 * (gaps_sq[1:] + gaps_sq[:-1]) * np.diff(s)[:, None]
        cum = np.cumsum(np.concatenate([carry, steps]), axis=0)
        for i in range(lo, lo + s.size):
            if i % stride == 0:
                kept[i // stride] = cum[i - lo]
        carry = cum[-1:]
    denom = 1.0 + y**2 + z1**2 + z2**2
    window_means = (kept[-1] - kept[:-1]) / (T - s_nodes[:-1:stride])[:, None]
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

    `t0` None means 3T/4; `delta2` None means 2 sqrt(max sup-MSE).
    """

    n_paths: int = 10_000
    beta: float = 0.25
    delta1: float = 0.01
    delta2: float | None = None
    t0: float | None = None
    eta0: float = 1.0
    pde: PdeConfig = field(default_factory=PdeConfig)
    rng: RngSpec = field(default_factory=lambda: RngSpec(seed=42))


@dataclass
class PerEpsilonStats:
    epsilon: float
    t_lo: float
    sup_mse: float
    sup_mse_stderr: float
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
    epsilon1: float | None = None
    chebyshev_trend_pass: bool = False
    fbar_panels: int = 0


class _WindowFold:
    """One epsilon's error statistics over the window [u, T], folded path block by block.

    Both fields share the x grid `linspace(lo, hi, n + 1)` (the domain
    depends only on the coefficients, eps, eta0 and kappa), and eta is read
    in grid units: u = (eta - lo) g with g = n / (hi - lo) is a N + c_k, with
    a = eps^H g and c_k = (eta0 + eps^2H int_0^t_k b ds - lo) g fixed here,
    so a block is read straight from its eps-free noise N through `locate`,
    the reader `extract_triple` uses too.

    The four tables, copies of the window rows, hold values and per-cell
    differences of psi_o - psi_a, psi_a, d_x psi_o - d_x psi_a and d_x psi_a:
    dY and dZ come from one read each.  Per window column the fold keeps
    Chan's mergeable (count, mean, M2) of dY^2 and the sums of Ybar^2,
    Zbar1^2 and Zbar2^2; per path, the trapezoid integrals of |dZ|^2 and
    |dY|^2 and sup |dY|, in disjoint rows.
    """

    def __init__(self, epsilon: float, i_lo: int, field_orig: SolutionField,
                 field_avg: SolutionField, coeffs: CoefficientSet, n_paths: int, eta0: float):
        t = coeffs.grid.nodes
        self.i_lo, self.n_nodes = i_lo, t.size
        self.x_nodes = field_orig.x_nodes.copy()
        lo, hi = self.x_nodes[0], self.x_nodes[-1]
        n = self.x_nodes.size - 1
        g = n / (hi - lo)
        self.a = epsilon**coeffs.hurst.h * g
        c = (eta0 + epsilon**coeffs.hurst.two_h * coeffs.b_int_table - lo) * g
        self.c = c[i_lo:]
        # eta_k < x_0 exactly when N_k < -c_k / a, and eta_k > x_n when N_k > (n - c_k) / a
        self.below, self.above = -c / self.a, (n - c) / self.a
        self.n_cells = n
        self.tables = [cell_table(table) for table in (
            field_orig.psi[i_lo:] - field_avg.psi[i_lo:], field_avg.psi[i_lo:].copy(),
            field_orig.psi_x[i_lo:] - field_avg.psi_x[i_lo:], field_avg.psi_x[i_lo:].copy())]
        self.t = t[i_lo:]
        self.row_starts = np.arange(self.t.size) * (n + 1)
        # trapezoid weights on the window; |dZ|^2 = (sigma1^2 + sigma2^2) |d psi_x|^2
        half_steps = np.diff(self.t) / 2.0
        self.weights = np.zeros(self.t.size)
        self.weights[1:] += half_steps
        self.weights[:-1] += half_steps
        self.sig_sq = np.stack([np.asarray(sigma(t), dtype=float)[i_lo:] ** 2
                                for sigma in (coeffs.sigma1, coeffs.sigma2)])
        self.z_weights = self.weights * self.sig_sq.sum(axis=0)
        self.outside = 0
        self.count = 0
        self.mean = np.zeros(self.t.size)
        self.m2 = np.zeros(self.t.size)
        self.sq_sums = np.zeros((3, self.t.size))
        self.z_int = np.empty(n_paths)
        self.dy_int = np.empty(n_paths)
        self.sup_abs = np.empty(n_paths)

    def result(self) -> dict:
        """The statistics of every path folded so far.

        Raises DomainTooSmallError when more than 1% of all path nodes
        (t = 0 included) lie outside the PDE domain, as extract_triple does.
        """
        n = self.count
        check_clamp(self.outside, n * self.n_nodes, self.x_nodes)
        root_n = np.sqrt(n)
        mse_se = np.sqrt(self.m2 / (n - 1)) / root_n
        j = int(np.argmax(self.mean))
        return {
            "sup_mse": float(self.mean[j]),
            "sup_mse_stderr": float(mse_se[j]),
            "z_err_integral": float(self.z_int.mean()),
            "z_err_stderr": float(self.z_int.std(ddof=1) / root_n),
            "dy_integral": float(self.dy_int.mean()),
            "dy_integral_stderr": float(self.dy_int.std(ddof=1) / root_n),
            "mean_sup_sq": float((self.sup_abs**2).mean()),
            "path_sup_abs": self.sup_abs,
            "moments": tuple(float(m) for m in (self.sq_sums / n).max(axis=1)),
        }


class _FoldWorkspace:
    """Buffers for folding one path block, allocated once per sweep and shared by every eps.

    Each buffer is flat, with room for a full block over every node; `view`
    hands out a C-contiguous (rows, cols) prefix, so a short last block and
    the window of any eps reuse the same memory.
    """

    READS = ("dy", "y_avg", "dz", "slope_avg")  # one per table of the fold, in its order
    FLOAT = ("frac", "scratch") + READS

    def __init__(self, rows: int, n_nodes: int):
        size = rows * n_nodes
        self.buffers = {name: np.empty(size) for name in self.FLOAT}
        self.buffers["cell"] = np.empty(size, dtype=np.intp)
        self.buffers["mask"] = np.empty(size, dtype=bool)

    def view(self, name: str, rows: int, cols: int) -> np.ndarray:
        return self.buffers[name][:rows * cols].reshape(rows, cols)


def _window_stats(fold: _WindowFold, noise: np.ndarray, start: int,
                  ws: _FoldWorkspace) -> None:
    """Fold the block of paths start, start+1, ... (eps-free noise `noise`) into `fold`.

    Every block-sized array lives in `ws`; what is allocated per call is
    O(window columns + block rows).
    """
    n_b, n_nodes = noise.shape
    cols = n_nodes - fold.i_lo

    def view(name, width=cols):
        return ws.view(name, n_b, width)

    mask = view("mask", n_nodes)
    fold.outside += (np.count_nonzero(np.less(noise, fold.below, out=mask))
                     + np.count_nonzero(np.greater(noise, fold.above, out=mask)))
    frac = np.multiply(noise[:, fold.i_lo:], fold.a, out=view("frac"))
    frac += fold.c
    cell = locate(frac, fold.n_cells, fold.row_starts, view("cell"))
    scratch = view("scratch")
    dY, Y_a, dZ, slope_a = (interp_at(*table, cell, frac, view(name), scratch)
                            for table, name in zip(fold.tables, ws.READS))
    rows = slice(start, start + n_b)
    np.abs(dY, out=scratch).max(axis=1, out=fold.sup_abs[rows])
    dY_sq = np.square(dY, out=dY)
    np.matmul(dY_sq, fold.weights, out=fold.dy_int[rows])
    np.matmul(np.square(dZ, out=dZ), fold.z_weights, out=fold.z_int[rows])

    mean_b = dY_sq.mean(axis=0)
    np.subtract(dY_sq, mean_b, out=scratch)
    m2_b = np.einsum("ij,ij->j", scratch, scratch)
    n = fold.count + n_b
    delta = mean_b - fold.mean
    fold.m2 += m2_b + delta**2 * (fold.count * n_b / n)
    fold.mean += delta * (n_b / n)
    fold.count = n
    fold.sq_sums[0] += np.einsum("ij,ij->j", Y_a, Y_a)
    fold.sq_sums[1:] += np.einsum("ij,ij->j", slope_a, slope_a) * fold.sig_sq


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

    Every field is solved first, all 2 x len(eps) in one backward pass
    (`solve_psis`), and each eps's fold copies the window rows it reads, so
    the fields are freed before the paths stream.  The paths then come in
    fixed blocks of `block_rows(n_nodes)` paths: each block draws (B, B^H)
    once from the per-path streams of its global path indices, and every eps
    folds the block by reading both fields in grid units straight from the
    block's eps-free noise N; eta^eps itself is never formed.
    No n_paths x n_nodes array is ever held; what grows with n_paths is
    three per-path vectors per eps.  The sweep starts no threads of its own,
    and reruns are byte-identical.
    """
    check_eps_list(eps_list)
    eps = [float(e) for e in eps_list]
    if cfg.n_paths < 2:
        raise ValueError(f"n_paths must be >= 2 for standard errors, got {cfg.n_paths!r}")
    check_beta(cfg.beta, coeffs.hurst.h)

    grid = coeffs.grid
    T = grid.T
    hurst = coeffs.hurst
    t0 = cfg.t0 if cfg.t0 is not None else 0.75 * T

    fbar = build_fbar(original, T, QuadratureSpec())
    averaged = fbar.as_generator()
    L = estimate_lipschitz(original, T)
    C1 = c1_lower_bound(coeffs, t0)
    # an eps without an alpha0 fails here, before any PDE is solved or path drawn
    for epsilon in eps:
        solve_alpha0(L, C1, epsilon, hurst)
    phi = estimate_phi(original, fbar, T)

    def fold_for(epsilon: float, field_orig, field_avg) -> _WindowFold:
        i_lo = grid.first_index_at_or_after(T * epsilon ** (1.0 - cfg.beta))
        i_lo = min(i_lo, grid.n_steps - 1)  # keep a nonempty window
        return _WindowFold(epsilon, i_lo, field_orig, field_avg, coeffs, cfg.n_paths, cfg.eta0)

    fields = solve_psis((original, averaged), term, coeffs, eps, cfg.pde, cfg.eta0)
    folds = [fold_for(e, o, a) for e, o, a in zip(eps, fields, fields[len(eps):])]
    del fields  # the folds hold copies of their window rows: this frees the batch

    rows = block_rows(grid.n_nodes)
    ws = _FoldWorkspace(min(rows, cfg.n_paths), grid.n_nodes)
    for start in range(0, cfg.n_paths, rows):
        # path p of the block draws from the sub-stream of global path start + p
        block = make_ensemble(grid, hurst, min(rows, cfg.n_paths - start),
                              replace(cfg.rng, stream=cfg.rng.stream + start))
        noise = eta_noise(coeffs, block)
        for fold in folds:
            _window_stats(fold, noise, start, ws)

    stats = []
    for epsilon, fold in zip(eps, folds):
        raw = fold.result()
        u = float(grid.nodes[fold.i_lo])
        constants = compute_constants(
            L, C1, phi, u, T, epsilon, cfg.beta, hurst, raw.pop("moments"),
        )
        stats.append(PerEpsilonStats(
            epsilon=epsilon, t_lo=u, constants=constants, **raw,
        ))

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
        delta2=float(delta2), t0=t0, L=L, C1=C1, phi_bound=phi,
        n_paths=cfg.n_paths, stats=stats, fbar_panels=fbar.panels,
    )
    check_lemma1(report)
    check_theorem_rate(report)
    check_chebyshev(report)
    return report


def check_lemma1(report: SweepReport) -> None:
    """Write each eps's Z-error lemma sides and verdict, at 3 combined standard
    errors, into its stats; returns nothing."""
    for s in report.stats:
        s.lemma1_lhs = s.z_err_integral
        s.lemma1_rhs = s.constants.L1 * s.dy_integral + s.constants.C2 * (report.T - s.t_lo)
        se = math.sqrt(s.z_err_stderr**2 + (s.constants.L1 * s.dy_integral_stderr) ** 2)
        s.lemma1_pass = bool(s.lemma1_lhs <= s.lemma1_rhs + 3.0 * se)


def check_theorem_rate(report: SweepReport) -> None:
    """Write the least-squares slope of log sup-MSE vs log eps and the delta1
    threshold epsilon1 into the report, and each eps's C4 eps^(1-2H beta)
    domination verdict into its stats; returns nothing."""
    if len(report.stats) < MIN_EPS_POINTS:
        raise ValueError(f"rate fit needs at least {MIN_EPS_POINTS} epsilon points")
    eps = np.array([s.epsilon for s in report.stats])
    mse = np.array([s.sup_mse for s in report.stats])
    pos = mse > 0
    if pos.sum() >= MIN_EPS_POINTS:
        slope = np.polyfit(np.log(eps[pos]), np.log(mse[pos]), 1)[0]
    else:
        slope = float("nan")
    flags = mse <= report.delta1
    epsilon1 = None
    for i in range(len(eps)):
        if np.all(flags[i:]):
            epsilon1 = float(eps[i])
            break
    for s in report.stats:
        s.c4_pass = bool(s.sup_mse <= s.constants.theorem_bound)
    report.fitted_slope = float(slope)
    report.epsilon1 = epsilon1


def check_chebyshev(report: SweepReport) -> None:
    """Write each eps's Chebyshev verdict into its stats and the eps trend
    verdict into the report; returns nothing.

    The exceedance frequency is compared with C4 eps^r / delta2^2, and the
    distribution-free empirical Markov inequality
    p_hat <= mean(sup_t |dY|^2) / delta2^2, which holds exactly on the
    empirical measure, is enforced too.
    """
    delta2 = report.delta2
    for s in report.stats:
        bound = s.constants.theorem_bound / delta2**2
        ok = s.exceed_prob <= bound + 3.0 * s.exceed_stderr
        markov_ok = s.exceed_prob <= s.mean_sup_sq / delta2**2 + 1e-12
        s.chebyshev_pass = bool(ok and markov_ok)
    report.chebyshev_trend_pass = bool(
        report.stats[-1].exceed_prob <= report.stats[0].exceed_prob + 1e-12
    )


def claim_verdicts(report: SweepReport) -> dict[str, bool]:
    """Every claim verdict of a checked sweep by claim; the sweep passes iff all hold."""
    stats = report.stats
    return {
        "lemma1": all(s.lemma1_pass for s in stats),
        "c4": all(s.c4_pass for s in stats),
        "monotone": all(
            b.sup_mse <= a.sup_mse + 3 * np.hypot(a.sup_mse_stderr, b.sup_mse_stderr)
            for a, b in zip(stats, stats[1:])
        ),
        "slope": report.fitted_slope > 0,
        "chebyshev": all(s.chebyshev_pass for s in stats),
        "trend": report.chebyshev_trend_pass,
    }
