"""Markovian solver for the jointly-driven backward equation.

The backward equation with terminal value g(eta_T) and generator f is solved
through its Markovian representation Y_t = psi(t, eta^eps_t): matching the
fractional Ito expansion of psi(t, eta^eps_t) against the backward dynamics
forces psi to solve the semilinear parabolic terminal-value problem

    psi_t + eps^2H b(t) psi_x + (1/2) eps^2H lambda(t) psi_xx
          + eps^2H f(t, x, psi, sigma1 psi_x, sigma2 psi_x) = 0,
    psi(T, .) = g,

with lambda(t) = d/dt |sigma|^2_t, and the controls read off as

    Z1 = sigma1(t) psi_x(t, eta_t),   Z2 = sigma2(t) psi_x(t, eta_t).

Discretization: backward theta-scheme on a truncated domain, linear part
implicit via tridiagonal solves, generator term by Picard iteration per step.
The diffusion coefficient is applied as its exact panel average
(1/2) eps^2H (|sigma|^2_{k+1} - |sigma|^2_k) / dt, which integrates the
t^(2H-1) cusp of lambda at t = 0 exactly and reproduces quadratic solutions
to rounding.  Boundary condition: zero second spatial derivative at both ends
(linear extrapolation).

`solve_psis` runs the scheme for several generators and epsilons in one
backward pass.  A step's matrix depends only on (epsilon, step), so one pass
over the rows gives the Thomas pivots and multipliers of every (epsilon,
step) at once (`thomas_factors`); each Picard sweep then solves all systems
together, laid end to end in one lane vector, by two log-depth doubling
scans (`TridiagonalLanes`), and each generator is called once per sweep on
all of its systems.  Every field equals, bit for bit, the one its system
gets alone; `solve_psi` is the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainTooSmallError, NumericError, PicardError
from .frac_kernel import CoefficientSet
from .path_engine import eta_marginals


def __getattr__(name: str):
    # perfbench's tracer still rebinds `solve_banded`, which nothing here
    # calls; SciPy loads only when that name is read
    if name == "solve_banded":
        from scipy.linalg import solve_banded
        return solve_banded
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class Generator:
    """Driver f(t, x, y, z1, z2); vectorized over numpy array arguments.

    `t` may be a scalar or an array that broadcasts against the state
    arguments: the averaged generator evaluates f once with t shaped
    (n_nodes, 1, ...) against states of shape (...).  An f that ignores t
    may return the state shape alone.

    `lipschitz_sq` is the declared squared-Lipschitz constant L with
    |f(t,x,y,z) - f(t,x,y',z')|^2 <= L (|dy|^2 + |dz1|^2 + |dz2|^2); leave
    None to have it estimated by sampling.
    """

    fn: Callable
    name: str = "f"
    lipschitz_sq: float | None = None
    time_dependent: bool = True

    def __call__(self, t, x, y, z1, z2):
        return np.asarray(self.fn(t, x, y, z1, z2), dtype=float)

    @classmethod
    def zero(cls) -> "Generator":
        return cls(fn=lambda t, x, y, z1, z2: np.zeros_like(np.asarray(y, dtype=float)),
                   name="zero", lipschitz_sq=0.0, time_dependent=False)

    @classmethod
    def linear_y(cls, rate: float) -> "Generator":
        return cls(fn=lambda t, x, y, z1, z2, r=rate: r * np.asarray(y, dtype=float),
                   name=f"linear_y[{rate}]", lipschitz_sq=rate**2, time_dependent=False)


@dataclass(frozen=True)
class TerminalCondition:
    """Terminal payoff g(eta_T); growth degree bounds the truncation error."""

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "g"
    growth_degree: int = 2

    def __call__(self, x):
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)

    @classmethod
    def identity(cls) -> "TerminalCondition":
        return cls(fn=lambda x: x, name="identity", growth_degree=1)

    @classmethod
    def square(cls) -> "TerminalCondition":
        return cls(fn=lambda x: x**2, name="square", growth_degree=2)


# the time stepping: Crank-Nicolson weight, and the Picard sweeps per step with
# their stopping tolerance (relative to max(1, |psi|) at the later node)
THETA = 0.5
PICARD_MAX_ITER = 8
PICARD_TOL = 1e-10


@dataclass(frozen=True)
class PdeConfig:
    """Truncated-domain controls for the backward solver."""

    kappa: float = 6.0
    n_space: int = 256

    def __post_init__(self):
        if self.n_space < 64:
            raise ValueError(f"n_space must be >= 64, got {self.n_space!r}")
        if self.kappa < 4:
            raise ValueError(f"kappa must be >= 4, got {self.kappa!r}")


@dataclass
class SolutionField:
    """psi and its space derivative on the time x space grid."""

    t_nodes: np.ndarray
    x_nodes: np.ndarray
    psi: np.ndarray
    psi_x: np.ndarray


@dataclass
class TriplePath:
    """(Y, Z1, Z2) along rows of eta, and the rows themselves."""

    eta: np.ndarray
    Y: np.ndarray
    Z1: np.ndarray
    Z2: np.ndarray


def domain_bounds(coeffs: CoefficientSet, epsilon: float, eta0: float, kappa: float):
    """Truncation interval [m - kappa s, m + kappa s] around the law of eta_T."""
    mean, std = (law[-1] for law in eta_marginals(coeffs, epsilon, eta0))
    return mean - kappa * std, mean + kappa * std


def central_gradient(values: np.ndarray, dx, out: np.ndarray | None = None) -> np.ndarray:
    """d/dx along the last axis: central differences inside, one-sided at both ends.

    `dx` is a scalar or one spacing per row, shaped to broadcast against
    values[..., 0].  np.gradient(values, dx, axis=-1) written out, bit for
    bit, so the Picard sweep can fill a reused buffer.
    """
    if out is None:
        out = np.empty_like(values)
    dx = np.asarray(dx)
    np.subtract(values[..., 2:], values[..., :-2], out=out[..., 1:-1])
    out[..., 1:-1] /= 2.0 * dx[..., None]
    out[..., 0] = (values[..., 1] - values[..., 0]) / dx
    out[..., -1] = (values[..., -1] - values[..., -2]) / dx
    return out


def thomas_factors(sub, main, sup):
    """Thomas elimination (no pivoting) of tridiagonal n x n matrices, all at once.

    Row i of every matrix is (sub[i], main[i], sup[i]) = (A[i, i-1], A[i, i],
    A[i, i+1]); each entry is an array over the matrices (any shape S) or a
    scalar, and sub[0] and sup[n-1] are not read.  Returns (fwd, piv, bwd),
    each of shape S + (n,), the coefficients of a solve's two recurrences

        y_i = r_i + fwd_i y_{i-1},    x_i = y_i / piv_i + bwd_i x_{i+1},

    with fwd_0 = bwd_{n-1} = 0, so systems laid end to end never mix.  A zero
    pivot stays in `piv` and may make later ones non-finite; no warning is
    raised, so a caller checks every pivot.
    """
    # rows lead while the rows are eliminated, so each row is contiguous
    shape = (len(main),) + np.broadcast_shapes(*map(np.shape, (*sub[1:], *main, *sup[:-1])))
    fwd, piv, bwd = np.zeros(shape), np.empty(shape), np.zeros(shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        piv[0] = main[0]
        for i in range(1, len(main)):
            bwd[i - 1] = -sup[i - 1] / piv[i - 1]
            fwd[i] = -sub[i] / piv[i - 1]
            piv[i] = main[i] + fwd[i] * sup[i - 1]
    return tuple(np.moveaxis(factor, 0, -1) for factor in (fwd, piv, bwd))


class TridiagonalLanes:
    """Tridiagonal systems of n rows laid end to end in one lane vector.

    `load` lays out the systems' Thomas factors (`thomas_factors`' fwd, piv
    and bwd) and builds the doubling levels of both recurrences: level l
    holds each coefficient times the 2^l - 1 before it (after it, for the
    backward one).  `solve` then solves the right-hand sides written into
    `rhs` in place by Hillis-Steele doubling scans, the forward recurrence,
    the division by the pivots and the backward recurrence, with one multiply
    and one add per level.  A system's first fwd and last bwd coefficient is
    zero, so systems never mix; the entries of a level that no product
    reaches stay zero.  Every buffer and view is made here, once.
    """

    def __init__(self, n_systems: int, n: int):
        size = n_systems * n
        n_levels = max(1, (n - 1).bit_length())
        self.fwd = np.zeros((n_levels, size))
        self.bwd = np.zeros((n_levels, size))
        self.piv = np.empty(size)
        self.rhs = np.empty(size)
        tmp = np.empty(size)
        offsets = [1 << level for level in range(n_levels)]
        fwd, bwd, rhs = self.fwd, self.bwd, self.rhs
        self._doubling = [(prev[d:], prev[:-d], nxt[d:])
                          for d, prev, nxt in zip(offsets, fwd, fwd[1:])]
        self._doubling += [(prev[:-d], prev[d:], nxt[:-d])
                           for d, prev, nxt in zip(offsets, bwd, bwd[1:])]
        self._forward = [(a[d:], rhs[:-d], tmp[d:], rhs[d:]) for d, a in zip(offsets, fwd)]
        self._backward = [(b[:-d], rhs[d:], tmp[:-d], rhs[:-d]) for d, b in zip(offsets, bwd)]

    def load(self, fwd: np.ndarray, piv: np.ndarray, bwd: np.ndarray) -> None:
        """Lay out factors for whole systems, repeated over the lanes, and double them."""
        for lanes, factor in ((self.fwd[0], fwd), (self.piv, piv), (self.bwd[0], bwd)):
            lanes.reshape(-1, factor.size)[:] = factor.reshape(-1)
        for a, shifted, out in self._doubling:
            np.multiply(a, shifted, out=out)

    def solve(self) -> np.ndarray:
        """Overwrite `rhs` with the solution of the loaded systems; returns it."""
        for a, earlier, scratch, later in self._forward:
            np.multiply(a, earlier, out=scratch)
            np.add(later, scratch, out=later)
        np.divide(self.rhs, self.piv, out=self.rhs)
        for b, later, scratch, earlier in self._backward:
            np.multiply(b, later, out=scratch)
            np.add(earlier, scratch, out=earlier)
        return self.rhs


def solve_psi(
    gen: Generator,
    term: TerminalCondition,
    coeffs: CoefficientSet,
    epsilon: float,
    pde: PdeConfig,
    eta0: float = 0.0,
) -> SolutionField:
    """Backward theta-scheme for the terminal-value problem stated above.

    The batch of one system of `solve_psis`.
    """
    return solve_psis([gen], term, coeffs, [epsilon], pde, eta0)[0]


def space_grid(coeffs: CoefficientSet, epsilon: float, eta0: float, pde: PdeConfig) -> np.ndarray:
    """The n_space + 1 x nodes of an epsilon's truncated domain."""
    return np.linspace(*domain_bounds(coeffs, epsilon, eta0, pde.kappa), pde.n_space + 1)


def first_sweep_states(coeffs: CoefficientSet, term: TerminalCondition, eps: Sequence[float],
                       pde: PdeConfig, eta0: float) -> tuple[np.ndarray, ...]:
    """The states (x, y, z1, z2), one row per eps, at which `solve_psis` first
    evaluates a generator, on its terminal row: each eps's x grid
    (`space_grid`), y = g(x) and z_i = sigma_i(T) d_x g(x) (`central_gradient`).
    `solve_psis` takes its x grids and terminal row from here."""
    x = np.array([space_grid(coeffs, e, eta0, pde) for e in eps])
    y = term(x)
    grad = central_gradient(y, x[:, 1] - x[:, 0])
    z1, z2 = (np.asarray(sigma(coeffs.grid.nodes), dtype=float)[-1] * grad
              for sigma in (coeffs.sigma1, coeffs.sigma2))
    return x, y, z1, z2


def solve_psis(
    gens: Sequence[Generator],
    term: TerminalCondition,
    coeffs: CoefficientSet,
    eps_list: Sequence[float],
    pde: PdeConfig,
    eta0: float = 0.0,
    first_row: int = 0,
) -> list[SolutionField]:
    """The backward theta-scheme for every generator x every epsilon in one pass.

    System g * len(eps_list) + e pairs gens[g] with eps_list[e]; the fields
    come back in that order.  The pass steps back from T to time node
    `first_row` only, the first row a caller reads, and each field's
    `t_nodes`, `psi` and `psi_x` start there; a row depends only on the rows
    after it, so every row equals the full pass's row bit for bit.

    The step matrices depend on (epsilon, step) only: one `thomas_factors`
    pass gives the pivots and multipliers of all of them.  Each backward step
    lays its factors out over every system's rows in one lane vector and
    builds their doubling levels once; each Picard sweep then solves all
    systems by `TridiagonalLanes.solve`, and each generator is called once
    per sweep on its systems' rows.  Picard starts from the linear
    extrapolation 2 psi_{k+1} - psi_{k+2} (from psi_{k+1} at the last step).
    A system stops updating once it meets its own tolerance, so every field
    equals, bit for bit, the one its system gets when solved alone.
    """
    eps = [float(e) for e in eps_list]
    if not gens or not eps:
        raise ValueError("solve_psis needs at least one generator and one epsilon")
    for e in eps:
        if not 0 < e <= 1:
            raise ValueError(f"epsilon must lie in (0, 1], got {e!r}")
    n_time = coeffs.grid.n_steps
    if not 0 <= first_row < n_time:
        raise ValueError(f"first_row must lie in [0, {n_time}), got {first_row!r}")
    n_gens, n_eps = len(gens), len(eps)
    n_sys = n_gens * n_eps
    # row r of every per-node array below is time node first_row + r; the
    # coefficients are evaluated on the whole grid, so a row does not depend
    # on where the cut falls
    nodes = coeffs.grid.nodes
    t = nodes[first_row:]
    n_rows = t.size
    dt = coeffs.grid.dt
    # the x grid, terminal row and eps^2H scale of each epsilon, shared by every generator
    x, terminal, _, _ = first_sweep_states(coeffs, term, eps, pde, eta0)
    dx = x[:, 1] - x[:, 0]
    scale = np.array([e**coeffs.hurst.two_h for e in eps])
    sys_dx = np.tile(dx, n_gens)[:, None]

    sig1 = np.asarray(coeffs.sigma1(nodes), dtype=float)[first_row:]
    sig2 = np.asarray(coeffs.sigma2(nodes), dtype=float)[first_row:]

    psi = np.empty((n_sys, n_rows, x.shape[1]))
    psi.reshape(n_gens, n_eps, n_rows, -1)[:, :, -1] = terminal

    grad = np.empty_like(x)

    def source(r: int, values: np.ndarray, out: np.ndarray, active=None) -> np.ndarray:
        """eps^2H f at row r into `out`, skipping generators with no `active` system."""
        for g, gen in enumerate(gens):
            own = slice(g * n_eps, (g + 1) * n_eps)
            if active is None or active[own].any():
                central_gradient(values[own], dx, out=grad)
                out[own] = scale[:, None] * gen(t[r], x, values[own], sig1[r] * grad,
                                                sig2[r] * grad)
        return out

    # the step coefficients of every step and epsilon, (steps, eps): panel
    # averages of eps^2H b and (1/2) eps^2H lambda, exact integrals over each step
    steps = np.diff(t)[:, None]
    mu = scale * np.diff(coeffs.b_int_table[first_row:])[:, None] / steps
    diff = 0.5 * scale * np.diff(coeffs.sigma_abs_sq_table[first_row:])[:, None] / steps
    lower = THETA * dt * (diff / dx**2 - mu / (2.0 * dx))
    upper = THETA * dt * (diff / dx**2 + mu / (2.0 * dx))
    diag = 1.0 + THETA * dt * 2.0 * diff / dx**2
    # the matrices of the interior nodes; the zero-curvature boundary
    # u_0 = 2u_1 - u_2 and u_N = 2u_{N-1} - u_{N-2} folds into the end rows
    n_int = x.shape[1] - 2
    inner = n_int - 2
    fwd, piv, bwd = thomas_factors(
        [0.0, *[-lower] * inner, -(lower - upper)],
        [diag - 2.0 * lower, *[diag] * inner, diag - 2.0 * upper],
        [-(upper - lower), *[-upper] * inner, 0.0])
    singular = ~(np.isfinite(piv) & (piv != 0.0)).all(axis=(1, 2))
    lanes = TridiagonalLanes(n_sys, n_int)
    rhs = lanes.rhs.reshape(n_sys, n_int)

    mu, diff = np.tile(mu, n_gens), np.tile(diff, n_gens)
    src_next = source(n_rows - 1, psi[:, -1], np.empty_like(psi[:, -1]))
    src = np.empty_like(src_next)
    for r in range(n_rows - 2, -1, -1):
        k = first_row + r   # the backward step from node k + 1 to node k
        if singular[r]:
            raise NumericError(f"tridiagonal step matrix is singular at backward step {k}")
        lanes.load(fwd[r], piv[r], bwd[r])

        # the explicit half, on the interior nodes the solve reads
        prev = psi[:, r + 1]
        operator = (mu[r, :, None] * (prev[:, 2:] - prev[:, :-2]) / (2.0 * sys_dx)
                    + diff[r, :, None] * (prev[:, 2:] - 2.0 * prev[:, 1:-1] + prev[:, :-2])
                    / sys_dx**2)
        base_rhs = prev[:, 1:-1] + dt * (1.0 - THETA) * (operator + src_next[:, 1:-1])

        iterate = psi[:, r + 1].copy()
        tol = PICARD_TOL * np.maximum(1.0, np.abs(iterate).max(axis=1))
        if r + 2 < n_rows:
            iterate += psi[:, r + 1] - psi[:, r + 2]
        change = np.full(n_sys, np.inf)
        active = np.ones(n_sys, dtype=bool)
        for _ in range(PICARD_MAX_ITER):
            np.multiply(source(r, iterate, src, active)[:, 1:-1], dt * THETA, out=rhs)
            rhs += base_rhs
            # a zero coefficient times a non-finite value is NaN: settled systems
            # solve zeros, and a non-finite system fails before the shared solve
            rhs[~active] = 0.0
            finite = np.isfinite(rhs).all(axis=1)
            if not finite.all():
                s = int(np.argmin(finite))
                raise PicardError(step=k, residual=float("nan"), tol=float(tol[s]))
            interior = lanes.solve().reshape(n_sys, n_int)
            new = np.empty_like(iterate)
            new[:, 1:-1] = interior
            new[:, 0] = 2.0 * interior[:, 0] - interior[:, 1]
            new[:, -1] = 2.0 * interior[:, -1] - interior[:, -2]
            change[active] = np.abs(new - iterate)[active].max(axis=1)
            iterate[active] = new[active]
            # a non-finite iterate never converges: stop and report it
            active &= (change > tol) & np.isfinite(change)
            if not active.any():
                break
        failed = ~(change <= tol)
        if failed.any():
            s = int(np.argmax(failed))
            raise PicardError(step=k, residual=float(change[s]), tol=float(tol[s]))
        psi[:, r] = iterate
        src_next, src = source(r, iterate, src), src_next

    psi_x = central_gradient(psi, sys_dx)
    t_nodes = t.copy()
    return [SolutionField(t_nodes=t_nodes, x_nodes=x[s % n_eps], psi=psi[s], psi_x=psi_x[s])
            for s in range(n_sys)]


MAX_CLAMP_FRACTION = 0.01


def check_clamp(coeffs: CoefficientSet, epsilon: float, eta0: float,
                 x_nodes: np.ndarray) -> float:
    """The share of path nodes that eta's law (`eta_marginals`) puts outside
    [x_0, x_n], (1 / (n + 1)) sum_k P(eta_k outside), from no path; raises
    DomainTooSmallError above MAX_CLAMP_FRACTION.  A node of std 0, t_0 where
    eta = eta0, counts 1 when it lies strictly beyond an end."""
    lo, hi = float(x_nodes[0]), float(x_nodes[-1])
    mean, std = eta_marginals(coeffs, epsilon, eta0)
    # P(eta_k < lo) + P(eta_k > hi), each tail the erfc of its distance in sqrt(2) std
    clamp_fraction = math.fsum(
        0.5 * (math.erfc((m - lo) / w) + math.erfc((hi - m) / w)) if w > 0.0
        else float(m < lo or m > hi)
        for m, w in zip(mean.tolist(), (std * math.sqrt(2.0)).tolist())) / mean.size
    if clamp_fraction > MAX_CLAMP_FRACTION:
        raise DomainTooSmallError(clamp_fraction, (hi - lo) / 2.0)
    return clamp_fraction


def locate(u: np.ndarray, n: int, cell: np.ndarray) -> np.ndarray:
    """Flat cells of grid positions u in a `cell_table` of n + 1 nodes per row;
    u becomes the fraction.

    u (in x grid spacings from x_0) is clipped to [0, n] in place, `cell`
    gets int(u) plus its column's row start, c (n + 2) for column c, and
    u -= int(u).  The last node is a flat cell, so u at or beyond an end
    reads the end value.  Returns `cell`.
    """
    np.clip(u, 0.0, n, out=u)
    np.copyto(cell, u, casting="unsafe")
    u -= cell
    cell += np.arange(u.shape[-1]) * (n + 2)
    return cell


def cell_table(values: np.ndarray) -> np.ndarray:
    """A (rows, n_x) table, flat, with each row's last value repeated (row stride
    n_x + 1), for reads in grid units: the last node's cell is flat, so a read
    at the last node returns its value.
    """
    table = np.empty((values.shape[0], values.shape[1] + 1))
    table[:, :-1] = values
    table[:, -1] = values[:, -1]
    return table.ravel()


def interp_at(values: np.ndarray, cell: np.ndarray, frac: np.ndarray,
              out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """(f_j+1 - f_j) frac + f_j at flat cells: with a `cell_table` and `locate`'s
    cells and fractions, np.interp's arithmetic on the unit grid, so a read
    equals np.interp(u, arange(n + 1), f) bit for bit.

    `out` receives the result and `scratch` is a temporary, both of cell's
    shape; they are allocated when None.
    """
    out = np.take(values[1:], cell, out=out, mode="clip")
    f_j = np.take(values, cell, out=scratch, mode="clip")
    out -= f_j
    out *= frac
    out += f_j
    return out


def extract_triple(field: SolutionField, eta: np.ndarray, coeffs: CoefficientSet) -> TriplePath:
    """Read (Y, Z1, Z2) along rows of eta by interpolating psi and psi_x.

    A row is eta at every node: a sampled path or a row of `eta_law_rows`.
    eta is read in grid units, u = (eta - x_0) g with g = n / (x_n - x_0),
    through `locate`, as the sweep's fold reads it.  Nodes beyond the
    domain read its end values; `check_clamp` bounds their expected share.
    Z2 sigma1 = Z1 sigma2 holds exactly at every node because both controls
    share the one interpolated psi_x value.
    """
    t = field.t_nodes
    if eta.ndim != 2 or eta.shape[1] != t.size:
        raise ValueError("eta rows do not match the solution field's time grid")
    lo, hi = field.x_nodes[0], field.x_nodes[-1]
    n = field.x_nodes.size - 1
    u = eta - lo
    u *= n / (hi - lo)
    cell = locate(u, n, np.empty(u.shape, np.intp))
    slope = interp_at(cell_table(field.psi_x), cell, u)
    return TriplePath(eta=eta, Y=interp_at(cell_table(field.psi), cell, u),
                      Z1=slope * np.asarray(coeffs.sigma1(t), dtype=float),
                      Z2=slope * np.asarray(coeffs.sigma2(t), dtype=float))


@dataclass(frozen=True)
class MalliavinCheck:
    applicable: bool
    max_deviation: float


def malliavin_representation_check(triple: TriplePath, field: SolutionField,
                                   coeffs: CoefficientSet) -> MalliavinCheck:
    """Compare D^H_t Y_t = sigma2_hat(t) psi_x(t, eta_t) with (sigma2_hat/sigma2) Z2.

    Both sides interpolate the same psi_x table at the same eta: the left by
    np.interp in x units, the right through extract_triple's grid-unit read,
    so they differ by rounding only.  This validates the extraction
    plumbing; deviations beyond rounding indicate a wiring bug.
    """
    t = field.t_nodes
    sig2 = np.asarray(coeffs.sigma2(t), dtype=float)
    usable = (np.abs(sig2) > 0) & (t > 0)
    if not np.any(usable):
        return MalliavinCheck(applicable=False, max_deviation=0.0)
    s2hat = coeffs.sigma2_hat_table
    max_dev = 0.0
    for k in np.nonzero(usable)[0]:
        lhs = s2hat[k] * np.interp(triple.eta[:, k], field.x_nodes, field.psi_x[k])
        rhs = (s2hat[k] / sig2[k]) * triple.Z2[:, k]
        max_dev = max(max_dev, float(np.abs(lhs - rhs).max()))
    return MalliavinCheck(applicable=True, max_deviation=max_dev)


def residual_terms(gen: Generator, coeffs: CoefficientSet, epsilon: float, probes,
                   triple: TriplePath) -> tuple[np.ndarray, np.ndarray]:
    """(the probes' nodes, terms): per row of `triple`, one column per probe tp
    (snapped to the first node at or after it), Y_tp - xi - eps^2H int_tp^T f ds
    with xi = Y_T, from one generator call.  Taking expectations kills both
    stochastic integrals, so the terms' mean vanishes up to discretization:
    weights @ terms over `eta_law_rows`' rows, terms.mean(0) over sampled paths.
    """
    t = coeffs.grid.nodes
    k0 = [coeffs.grid.first_index_at_or_after(p) for p in probes]
    first = min(k0)
    f_vals = gen(t[first:], triple.eta[:, first:], triple.Y[:, first:],
                 triple.Z1[:, first:], triple.Z2[:, first:])
    scale = epsilon**coeffs.hurst.two_h
    return t[k0], np.stack([triple.Y[:, k] - triple.Y[:, -1] - scale
                            * np.trapezoid(f_vals[:, k - first:], t[k:], axis=1)
                            for k in k0], axis=1)
