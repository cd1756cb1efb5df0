"""Matched Brownian / fractional-Brownian increments and Wiener integrals.

An ensemble holds the increments dB and dB^H, (paths, n_steps) each, on a
shared uniform grid: eta and both BSDEs are driven only through sums over
them.  `levels` forms B and B^H for the callers that want levels.

Increments come from per-path counter-based RNG streams: Philox keyed by
(master seed, purpose), counter block = path index.  Each call draws its
rows through one bit generator whose counter is reset before every path,
by setting a plain-int state in which only the path's counter word
changes, so every row's normals are bitwise the draw of that path's own
stream, however the paths are split into blocks.  The increments are not
always: the Cholesky product Z L^T can differ by 1-2 ulp with the number
of rows it multiplies, so every command draws the same fixed blocks.  dB
and dB^H come from distinct purposes and are therefore independent.

Every command draws its paths in the blocks of `path_blocks` and merges
each block into running moments (`merge_moments`), so no command's memory
grows with the number of paths.  The sweep takes its blocks' eps-free
noise from `noise_stream`, one function that holds both ends of one pipe:
its producer loop, run in a process forked for the stream, draws the next
blocks into a shared ring of STREAM_SLOTS slots, while the generator it
yields, with a record of the draw and wait seconds, hands the sweep the
current one and releases the one before.  A thread would share the sweep's
interpreter lock: `RngSpec.fill_normals` runs a Python loop of one short
draw per path, and beside the fold that loop took back the lock the
fold's numpy calls need.  The producer's BLAS calls run beside the
sweep's: a caller that leaves OpenBLAS its default threads gets an idle
BLAS thread spinning on the core the producer needs, which is why the CLI
pins OPENBLAS_NUM_THREADS to 1.

Two exact fGn samplers are provided: the Cholesky factor of the increments'
covariance (reference) and Davies-Harte circulant embedding (fast path for
long grids).  Both target the Toeplitz covariance of the increment
autocovariance `fbm_increment_autocov`, whose partial sums have the fBm
covariance (1/2)(t^2H + s^2H - |t-s|^2H).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from types import SimpleNamespace

import numpy as np

from .errors import EmbeddingError, FactorizationError
from .frac_kernel import CoefficientSet, HurstModel, _gl_panel_integrals, c0_const
from .grids import TimeGrid

_PURPOSE_BM = 1
_PURPOSE_FBM = 2

# Cholesky is the correctness anchor; circulant embedding takes over where
# an n^2 factor row per path starts to hurt.
CHOLESKY_MAX_STEPS = 512

# paths stream in blocks of ~2^17 (path, t) cells, whose read temporaries stay
# cache-resident (reading all rows at once was ~35% slower)
BLOCK_CELLS = 1 << 17

# a noise stream's ring: the block being read, the next one ready and one being drawn
STREAM_SLOTS = 3

# how long a closed stream waits for its producer to finish the block it is
# drawing and exit, before it terminates it
STREAM_JOIN_S = 10.0


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

    def fill_normals(self, purpose: int, out: np.ndarray) -> None:
        """Fill row p of `out` (C-contiguous rows) with path p's normals.

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
        for path, row in enumerate(out, self.stream):
            counter[3] = path
            bitgen.state = state
            draw(out=row)


def block_rows(n_nodes: int) -> int:
    """Paths per block for paths of n_nodes nodes."""
    return max(1, BLOCK_CELLS // n_nodes)


def path_blocks(n_paths: int, n_nodes: int, rng: RngSpec):
    """(first path, rows, block rng) of each block of `block_rows(n_nodes)` paths;
    the block rng's streams start at the first path, so its draws are those
    paths' rows bit for bit."""
    rows = block_rows(n_nodes)
    for start in range(0, n_paths, rows):
        yield start, min(rows, n_paths - start), replace(rng, stream=rng.stream + start)


@contextmanager
def noise_stream(coeffs: CoefficientSet, n_paths: int, rng: RngSpec):
    """The eps-free noise N of every `path_blocks` block, drawn ahead in one
    forked producer process.

    Yields (blocks, times): `blocks` iterates over (first path, noise) of
    each block in turn, and `times` holds `draw_s`, the producer's busy
    seconds up to the last block read, and `wait_s`, the seconds this
    process spent blocked on the pipe.  A block's noise, (rows, n_nodes),
    equals eta_noise(coeffs, make_ensemble(grid, hurst, rows, block rng))
    bit for bit.  Block i is drawn into slot i % STREAM_SLOTS of a ring in
    anonymous shared memory, allocated once, and stays valid until the
    iterator is advanced, which hands its slot back to the producer: at
    most STREAM_SLOTS - 1 blocks are drawn beyond the one the caller holds.
    The producer keeps the increments' buffers and reports each block over
    a pipe.  Leaving the `with` block, normally or by an error, closes the
    pipe and joins the producer, which is terminated if it has not exited
    within STREAM_JOIN_S.

    The draws' own errors (FactorizationError, EmbeddingError) depend only
    on the grid and H, which every block shares: the caller draws path 0
    once before it forks and raises them there, with their own type, before
    any process starts.  A producer that fails all the same exits with code
    1, its traceback printed by `multiprocessing`, and the iterator raises
    a RuntimeError naming its exit code and the block it did not draw.

    The producer is forked, so it inherits the caller's state as it is:
    the memoised Cholesky factor and any function rebound on the modules.
    This needs a POSIX fork, and the caller must run no other thread while
    the stream starts, since a fork copies only the forking thread.
    """
    # imported here, by their one user: multiprocessing at module level would
    # add about 9 ms (python -X importtime) to the start-up of every command
    import mmap
    import multiprocessing

    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    grid = coeffs.grid
    # path 0's draw; the producer inherits the Cholesky factor it memoises
    eta_noise(coeffs, make_ensemble(grid, coeffs.hurst, 1, rng))
    shape = (STREAM_SLOTS, min(block_rows(grid.n_nodes), n_paths), grid.n_nodes)
    slots = np.ndarray(shape, buffer=mmap.mmap(-1, 8 * shape[0] * shape[1] * shape[2]))
    blocks = list(path_blocks(n_paths, grid.n_nodes, rng))
    fork = multiprocessing.get_context("fork")
    conn, child_conn = fork.Pipe()

    def produce():
        # draw block i into slot i % STREAM_SLOTS, once the caller has left the
        # block the slot held, and send the busy seconds so far; the caller
        # closing the pipe ends the process
        conn.close()  # the caller's end: held open here, it would hide the caller's close
        work = np.empty((2, shape[1], grid.n_steps))
        busy = 0.0
        try:
            for i, (_, n, block_rng) in enumerate(blocks):
                if i >= STREAM_SLOTS:
                    child_conn.recv()
                drawn = time.perf_counter()
                eta_noise(coeffs, make_ensemble(grid, coeffs.hurst, n, block_rng, work[:, :n]),
                          out=slots[i % STREAM_SLOTS, :n])
                busy += time.perf_counter() - drawn
                child_conn.send(busy)
        except (EOFError, ConnectionError):
            pass  # the caller has left the stream

    def read():
        for i, (start, n, _) in enumerate(blocks):
            if 0 < i <= len(blocks) - STREAM_SLOTS:
                # the caller has left block i - 1, whose slot block i - 1 + STREAM_SLOTS takes
                try:
                    conn.send(None)
                except ConnectionError:
                    pass  # the producer has stopped; the blocks it drew are still queued
            waited = time.perf_counter()
            try:
                times.draw_s = conn.recv()
            except (EOFError, ConnectionError):
                producer.join(STREAM_JOIN_S)
                raise RuntimeError(f"the noise producer exited (code {producer.exitcode}) "
                                   f"before drawing block {i}") from None
            times.wait_s += time.perf_counter() - waited
            yield start, slots[i % STREAM_SLOTS, :n]

    times = SimpleNamespace(draw_s=0.0, wait_s=0.0)
    producer = fork.Process(target=produce, name="noise-stream", daemon=True)
    producer.start()
    child_conn.close()
    try:
        yield read(), times
    finally:
        conn.close()
        producer.join(STREAM_JOIN_S)
        if producer.is_alive():
            producer.terminate()
            producer.join()


def merge_moments(count: int, mean: np.ndarray, m2: np.ndarray, block: np.ndarray,
                  centred: np.ndarray | None = None) -> None:
    """Merge the rows of `block` into the column means and M2 (or, for a square
    m2, co-moments) of `count` earlier rows, in place, by Chan's pairwise update.

    `centred`, of block's shape, receives block minus its column means; it is
    allocated when None.
    """
    n_b = block.shape[0]
    mean_b = block.mean(axis=0)
    centred = np.subtract(block, mean_b, out=centred)
    n = count + n_b
    delta = mean_b - mean
    if m2.ndim == 2:
        m2 += centred.T @ centred + np.outer(delta, delta) * (count * n_b / n)
    else:
        m2 += np.einsum("ij,ij->j", centred, centred) + delta**2 * (count * n_b / n)
    mean += delta * (n_b / n)


def levels(increments: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Path levels W_0 = 0, W_k = sum_{j<k} dW_j from (paths, n_steps) increments,
    written into `out` (paths, n_steps + 1) when given."""
    if out is None:
        out = np.empty((increments.shape[0], increments.shape[1] + 1))
    out[:, 0] = 0.0
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


def bm_paths(grid: TimeGrid, n_paths: int, rng: RngSpec,
             out: np.ndarray | None = None) -> PathEnsemble:
    """Standard Brownian increments: independent N(0, dt) draws, into `out`
    (n_paths, n_steps) when given."""
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    dB = np.empty((n_paths, grid.n_steps)) if out is None else out
    rng.fill_normals(_PURPOSE_BM, dB)
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
    """Read-only lower Cholesky factor L of the fGn covariance, the Toeplitz
    matrix gamma(|j - k|) of the increment autocovariance on the grid's
    steps, so that Z L^T for standard normal rows Z are fGn increments.

    If the covariance is not numerically positive definite, 1e-12 * I is
    added once; a second failure raises FactorizationError.
    """
    steps = np.arange(grid.n_steps)
    cov = fbm_increment_autocov(steps, hurst, grid.dt)[np.abs(steps[:, None] - steps)]
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        try:
            chol = np.linalg.cholesky(cov + 1e-12 * np.eye(grid.n_steps))
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(
                "fGn covariance is not positive definite even after adding "
                "1e-12 * I jitter once; aborting"
            ) from exc
    chol.setflags(write=False)
    return chol


def fbm_cholesky(grid: TimeGrid, hurst: HurstModel, n_paths: int, rng: RngSpec,
                 out: np.ndarray | None = None,
                 normals: np.ndarray | None = None) -> PathEnsemble:
    """Exact fGn samples via the Cholesky factor of the increments' covariance,
    into `out` (n_paths, n_steps) when given; `normals`, of the same shape,
    receives the standard normal draws."""
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    Z = np.empty((n_paths, grid.n_steps)) if normals is None else normals
    rng.fill_normals(_PURPOSE_FBM, Z)
    return PathEnsemble(grid=grid, hurst=hurst,
                        dBH=np.matmul(Z, cholesky_factor(grid, hurst).T, out=out),
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


def fbm_circulant(grid: TimeGrid, hurst: HurstModel, n_paths: int, rng: RngSpec,
                  out: np.ndarray | None = None) -> PathEnsemble:
    """Davies-Harte sampling: stationary increments via circulant embedding,
    into `out` (n_paths, n_steps) when given."""
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    n = grid.n_steps
    m = 2 * n
    sqrt_eig = np.sqrt(circulant_eigenvalues(n, hurst, grid.dt))
    # real normals, Hermitian-symmetric complex rows, FFT
    u = np.empty((n_paths, m))
    rng.fill_normals(_PURPOSE_FBM, u)
    y = np.empty((n_paths, m), dtype=complex)
    y[:, 0] = u[:, 0]
    y[:, n] = u[:, 1]
    y[:, 1:n] = (u[:, 2::2] + 1j * u[:, 3::2]) / np.sqrt(2.0)
    y[:, m - 1:n:-1] = np.conj(y[:, 1:n])
    dBH = np.divide(np.fft.fft(sqrt_eig * y, axis=1)[:, :n].real, np.sqrt(m), out=out)
    return PathEnsemble(grid=grid, hurst=hurst, dBH=dBH, fbm_method="circulant")


def make_ensemble(grid: TimeGrid, hurst: HurstModel, n_paths: int, rng: RngSpec,
                  work: np.ndarray | None = None) -> PathEnsemble:
    """Matched (dB, dB^H) draws from independent purposes under one seed.

    B^H comes from Cholesky up to CHOLESKY_MAX_STEPS steps and from
    circulant embedding beyond; `fbm_method` of the result records which.
    `work`, (2, n_paths, n_steps) with C-contiguous halves, receives dB and
    dB^H when given; the Cholesky sampler's normals go to dB's half first.
    """
    dB, dBH = (None, None) if work is None else work
    if grid.n_steps <= CHOLESKY_MAX_STEPS:
        frac = fbm_cholesky(grid, hurst, n_paths, rng, out=dBH, normals=dB)
    else:
        frac = fbm_circulant(grid, hurst, n_paths, rng, out=dBH)
    bm = bm_paths(grid, n_paths, rng, out=dB)
    return PathEnsemble(grid=grid, hurst=hurst, dB=bm.dB, dBH=frac.dBH,
                        fbm_method=frac.fbm_method)


def fbm_covariance_zscores(nodes: np.ndarray, hurst: HurstModel, n_paths: int,
                           comoments: np.ndarray):
    """(empirical, analytic, z) covariance of B^H at the m positive `nodes`, each
    (m, m), from the co-moments of n_paths paths' levels there (`merge_moments`).

    A Gaussian sample covariance has standard error
    sqrt((Gamma_jj Gamma_kk + Gamma_jk^2) / (n_paths - 1)).
    """
    ana = fbm_covariance(nodes, hurst)
    emp = comoments / (n_paths - 1)
    se = np.sqrt((np.outer(np.diag(ana), np.diag(ana)) + ana**2) / (n_paths - 1))
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


def eta_noise(coeffs: CoefficientSet, ensemble: PathEnsemble,
              out: np.ndarray | None = None) -> np.ndarray:
    """The epsilon-free martingale part of eta at nodes t_0..t_n, per path:

        N_k = sum_{j<k} (sigma1(t_j) dB_j + sigma2(t_j) dBH_j),  N_0 = 0.

    With `out` (paths, n_nodes), N is written there and the ensemble's dB
    and dB^H are overwritten as scratch.
    """
    if ensemble.dB is None or ensemble.dBH is None:
        raise ValueError("ensemble must carry matched B and BH paths")
    left = ensemble.grid.nodes[:-1]
    dB, dBH = (None, None) if out is None else (ensemble.dB, ensemble.dBH)
    incr = np.multiply(ensemble.dB, np.asarray(coeffs.sigma1(left), dtype=float), out=dB)
    incr += np.multiply(ensemble.dBH, np.asarray(coeffs.sigma2(left), dtype=float), out=dBH)
    return levels(incr, out)


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
