"""Matched Brownian / fractional-Brownian increments and Wiener integrals.

An ensemble holds the increments dB and dB^H, (paths, n_steps) each, on a
shared uniform grid: eta and both BSDEs are driven only through sums over
them.  `levels` forms B and B^H for the callers that want levels.

Increments come from per-path counter-based RNG streams: Philox keyed by
(master seed, purpose), counter block = path index.  Each call draws its
rows through one bit generator whose counter is reset before every path,
by setting a plain-int state in which only the path's counter word
changes, so every row is bitwise the draw of that path's own stream and
results do not depend on how the paths are split into blocks.  dB and
dB^H come from distinct purposes and are therefore independent.

Two exact fGn samplers are provided: the row-differenced Cholesky factor
of the node covariance (reference) and Davies-Harte circulant embedding
(fast path for long grids).  Both target the fBm covariance
(1/2)(t^2H + s^2H - |t-s|^2H).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import EmbeddingError, FactorizationError
from .frac_kernel import CoefficientSet, HurstModel, _gl_panel_integrals, c0_const
from .grids import TimeGrid

_PURPOSE_BM = 1
_PURPOSE_FBM = 2

# Cholesky is the correctness anchor; circulant embedding takes over where
# an n^2 factor row per path starts to hurt.
CHOLESKY_MAX_STEPS = 512


@dataclass(frozen=True)
class RngSpec:
    """Master seed plus stream id; one sub-stream per path."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.stream < 0:
            raise ValueError("stream id must be nonnegative")

    def fill_normals(self, purpose: int, first_path: int, out: np.ndarray) -> None:
        """Fill row r of `out` (C-contiguous rows) with path first_path + r's normals.

        Path p's sub-stream is Philox keyed by (seed, purpose), counter
        (0, 0, 0, stream + p).  Each call builds one bit generator and sets
        its state before every row, which resets the counter and empties the
        output buffer, so each row is bitwise what a fresh generator draws.
        The state holds plain ints, which the setter reads about twice as
        fast as uint64 arrays; only counter[3] changes from row to row.
        """
        bitgen = np.random.Philox(key=np.array([self.seed, purpose], dtype=np.uint64))
        draw = np.random.Generator(bitgen).standard_normal
        counter = [0, 0, 0, 0]
        state = {"bit_generator": "Philox",
                 "state": {"counter": counter, "key": [self.seed, purpose]},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        for path, row in enumerate(out, self.stream + first_path):
            counter[3] = path
            bitgen.state = state
            draw(out=row)


def levels(increments: np.ndarray) -> np.ndarray:
    """Path levels W_0 = 0, W_k = sum_{j<k} dW_j from (paths, n_steps) increments."""
    out = np.zeros((increments.shape[0], increments.shape[1] + 1))
    np.cumsum(increments, axis=1, out=out[:, 1:])
    return out


@dataclass
class PathEnsemble:
    """Monte-Carlo increments of B and/or B^H on a shared grid."""

    grid: TimeGrid
    hurst: HurstModel | None = None
    dB: np.ndarray | None = None
    dBH: np.ndarray | None = None
    fbm_method: str | None = None

    @cached_property
    def B(self) -> np.ndarray | None:
        """Brownian levels at every node, formed on first read."""
        return None if self.dB is None else levels(self.dB)

    @cached_property
    def BH(self) -> np.ndarray | None:
        """Fractional-Brownian levels at every node, formed on first read."""
        return None if self.dBH is None else levels(self.dBH)


def bm_paths(grid: TimeGrid, n_paths: int, rng: RngSpec) -> PathEnsemble:
    """Standard Brownian increments: independent N(0, dt) draws."""
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    dB = np.empty((n_paths, grid.n_steps))
    rng.fill_normals(_PURPOSE_BM, 0, dB)
    np.multiply(dB, np.sqrt(grid.dt), out=dB)
    return PathEnsemble(grid=grid, dB=dB)


def fbm_covariance(nodes: np.ndarray, hurst: HurstModel) -> np.ndarray:
    """Gamma_jk = (1/2)(t_j^2H + t_k^2H - |t_j - t_k|^2H)."""
    two_h = hurst.two_h
    t = np.asarray(nodes, dtype=float)
    return 0.5 * (t[:, None] ** two_h + t[None, :] ** two_h
                  - np.abs(t[:, None] - t[None, :]) ** two_h)


# the factors depend only on (grid, hurst): a sweep that draws its paths
# block by block builds each once
@lru_cache(maxsize=4)
def cholesky_factor(grid: TimeGrid, hurst: HurstModel) -> np.ndarray:
    """Read-only D L: the lower Cholesky factor L of the fBm covariance at
    t_1..t_n with its rows differenced (row k is L_k - L_{k-1}), so that
    Z (D L)^T for standard normal rows Z are fGn increments.

    If the covariance is not numerically positive definite, 1e-12 * I is
    added once; a second failure raises FactorizationError.
    """
    cov = fbm_covariance(grid.nodes[1:], hurst)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        try:
            chol = np.linalg.cholesky(cov + 1e-12 * np.eye(grid.n_steps))
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(
                "fBm covariance is not positive definite even after adding "
                "1e-12 * I jitter once; aborting"
            ) from exc
    chol[1:] -= chol[:-1].copy()
    chol.setflags(write=False)
    return chol


def fbm_cholesky(grid: TimeGrid, hurst: HurstModel, n_paths: int, rng: RngSpec) -> PathEnsemble:
    """Exact fGn samples via the differenced Cholesky factor of the covariance."""
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    Z = np.empty((n_paths, grid.n_steps))
    rng.fill_normals(_PURPOSE_FBM, 0, Z)
    return PathEnsemble(grid=grid, hurst=hurst, dBH=Z @ cholesky_factor(grid, hurst).T,
                        fbm_method="cholesky")


def fbm_increment_autocov(lag, hurst: HurstModel, dt: float = 1.0):
    """gamma(k) = (1/2) dt^2H (|k+1|^2H - 2|k|^2H + |k-1|^2H)."""
    k = np.abs(np.asarray(lag, dtype=float))
    two_h = hurst.two_h
    out = 0.5 * dt**two_h * ((k + 1) ** two_h - 2 * k**two_h + np.abs(k - 1) ** two_h)
    return float(out) if out.ndim == 0 else out


def circulant_eigenvalues(n_steps: int, hurst: HurstModel, dt: float) -> np.ndarray:
    """Eigenvalues of the 2n circulant embedding of the increment autocovariance."""
    gamma = fbm_increment_autocov(np.arange(n_steps + 1), hurst, dt)
    first_row = np.concatenate([gamma[:-1], gamma[-1:], gamma[-2:0:-1]])
    eig = np.fft.fft(first_row).real
    if eig.min() < -1e-10:
        raise EmbeddingError(
            f"circulant embedding produced eigenvalue {eig.min():.3e} < -1e-10; "
            "this cannot happen for fBm increments and signals a bug"
        )
    return np.maximum(eig, 0.0)


def fbm_circulant(grid: TimeGrid, hurst: HurstModel, n_paths: int, rng: RngSpec) -> PathEnsemble:
    """Davies-Harte sampling: stationary increments via circulant embedding."""
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    n = grid.n_steps
    m = 2 * n
    sqrt_eig = np.sqrt(circulant_eigenvalues(n, hurst, grid.dt))
    dBH = np.empty((n_paths, n))
    # per block of paths: real normals, Hermitian-symmetric complex rows, FFT
    block = 4096
    for start in range(0, n_paths, block):
        stop = min(start + block, n_paths)
        u = np.empty((stop - start, m))
        rng.fill_normals(_PURPOSE_FBM, start, u)
        y = np.empty((stop - start, m), dtype=complex)
        y[:, 0] = u[:, 0]
        y[:, n] = u[:, 1]
        y[:, 1:n] = (u[:, 2::2] + 1j * u[:, 3::2]) / np.sqrt(2.0)
        y[:, m - 1:n:-1] = np.conj(y[:, 1:n])
        dBH[start:stop] = (np.fft.fft(sqrt_eig * y, axis=1).real / np.sqrt(m))[:, :n]
    return PathEnsemble(grid=grid, hurst=hurst, dBH=dBH, fbm_method="circulant")


def make_ensemble(grid: TimeGrid, hurst: HurstModel, n_paths: int, rng: RngSpec) -> PathEnsemble:
    """Matched (dB, dB^H) draws from independent purposes under one seed.

    B^H comes from Cholesky up to CHOLESKY_MAX_STEPS steps and from
    circulant embedding beyond; `fbm_method` of the result records which.
    """
    if grid.n_steps <= CHOLESKY_MAX_STEPS:
        frac = fbm_cholesky(grid, hurst, n_paths, rng)
    else:
        frac = fbm_circulant(grid, hurst, n_paths, rng)
    bm = bm_paths(grid, n_paths, rng)
    return PathEnsemble(grid=grid, hurst=hurst, dB=bm.dB, dBH=frac.dBH,
                        fbm_method=frac.fbm_method)


def fbm_covariance_zscores(ensemble: PathEnsemble):
    """(empirical, analytic, z) covariance of B^H at t_1..t_n, each (n, n).

    A Gaussian sample covariance has standard error
    sqrt((Gamma_jj Gamma_kk + Gamma_jk^2) / (n_paths - 1)).
    """
    ana = fbm_covariance(ensemble.grid.nodes[1:], ensemble.hurst)
    emp = np.cov(ensemble.BH[:, 1:].T)
    se = np.sqrt((np.outer(np.diag(ana), np.diag(ana)) + ana**2) / (ensemble.dBH.shape[0] - 1))
    return emp, ana, (emp - ana) / se


def wiener_integral_det(xi, ensemble: PathEnsemble, which: str = "BH") -> np.ndarray:
    """Per-path forward sum  sum_k xi(t_k) (W_{k+1} - W_k).

    For deterministic xi the Skorohod correction vanishes, so this converges
    to the Ito-Skorohod integral: mean 0, variance int xi^2 ds for B and
    ||xi||_T^2 for B^H.
    """
    if which not in ("B", "BH"):
        raise ValueError("which must be 'B' or 'BH'")
    dW = ensemble.dB if which == "B" else ensemble.dBH
    if dW is None:
        raise ValueError(f"ensemble carries no {which} paths")
    return dW @ np.asarray(xi(ensemble.grid.nodes[:-1]), dtype=float)


@dataclass(frozen=True)
class VarBoundReport:
    """Empirical left side vs the C0 bound, with its Monte-Carlo margin."""

    lhs: float
    rhs: float
    stderr: float
    holds: bool


def check_lemma_var_bound(xi, ensemble: PathEnsemble) -> VarBoundReport:
    """E[(int |xi| dB^H)^2] <= C0 int xi^2 ds + C0 T^2, C0 = H T^(2H-1)."""
    if ensemble.hurst is None:
        raise ValueError("ensemble carries no Hurst model")
    grid = ensemble.grid
    abs_xi = lambda t: np.abs(np.asarray(xi(t), dtype=float))
    integral = wiener_integral_det(abs_xi, ensemble, "BH")
    sq = integral**2
    lhs = float(sq.mean())
    stderr = float(sq.std(ddof=1) / np.sqrt(sq.size))
    c0 = c0_const(ensemble.hurst, grid.T)
    xi_sq_int = float(_gl_panel_integrals(lambda t: np.asarray(xi(t)) ** 2, grid.nodes).sum())
    rhs = c0 * xi_sq_int + c0 * grid.T**2
    return VarBoundReport(lhs=lhs, rhs=rhs, stderr=stderr, holds=lhs <= rhs + 3.0 * stderr)


def eta_noise(coeffs: CoefficientSet, ensemble: PathEnsemble) -> np.ndarray:
    """The epsilon-free martingale part of eta at nodes t_0..t_n, per path:

        N_k = sum_{j<k} (sigma1(t_j) dB_j + sigma2(t_j) dBH_j),  N_0 = 0.
    """
    if ensemble.dB is None or ensemble.dBH is None:
        raise ValueError("ensemble must carry matched B and BH paths")
    left = ensemble.grid.nodes[:-1]
    incr = ensemble.dB * np.asarray(coeffs.sigma1(left), dtype=float)
    incr += ensemble.dBH * np.asarray(coeffs.sigma2(left), dtype=float)
    return levels(incr)


def simulate_eta(coeffs: CoefficientSet, ensemble: PathEnsemble, epsilon: float,
                 eta0: float = 0.0) -> np.ndarray:
    """Forward process on the grid:

        eta^eps_t = eta0 + eps^2H int_0^t b ds
                         + eps^H sum sigma1(t_k) dB_k
                         + eps^H sum sigma2(t_k) dBH_k,

    that is eta0 + eps^2H int_0^t b ds + eps^H N with N from `eta_noise`.
    eps = 1 recovers the unscaled process.  All eps values reuse the same
    (dB, dBH) draws, so sweeps are common-random-number coupled by design.
    """
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    eta = np.multiply(eta_noise(coeffs, ensemble), epsilon**coeffs.hurst.h)
    # a + b == b + a exactly, so this is (eta0 + drift) + eps^H N bit for bit;
    # at t_0 the drift integral and N are 0, so eta starts at eta0
    eta += eta0 + epsilon**coeffs.hurst.two_h * coeffs.b_int_table
    return eta
