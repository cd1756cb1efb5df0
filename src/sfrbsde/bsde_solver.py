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
backward pass: each step factors one block-diagonal tridiagonal matrix for
all systems and solves it once per Picard sweep, and each generator is
called once per sweep on all of its systems.  Every field equals, bit for
bit, the one its system gets alone; `solve_psi` is the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import solve_banded  # noqa: F401  (perfbench's tracer counts calls to this name)
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import DomainTooSmallError, NumericError, PicardError
from .frac_kernel import CoefficientSet
from .runio import MAX_CSV_ROWS, write_csv


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

    def export_csv(self, path):
        stride = max(1, int(np.ceil(self.psi.size / MAX_CSV_ROWS)))
        rows = (
            (self.t_nodes[k], x, self.psi[k, j], self.psi_x[k, j])
            for k in range(0, self.t_nodes.size, stride)
            for j, x in enumerate(self.x_nodes)
        )
        return write_csv(path, ("t", "x", "psi", "psi_x"), rows)


@dataclass
class TriplePath:
    """(Y, Z1, Z2) along simulated eta paths, plus the paths themselves."""

    eta: np.ndarray
    Y: np.ndarray
    Z1: np.ndarray
    Z2: np.ndarray
    clamp_fraction: float = 0.0


def domain_bounds(coeffs: CoefficientSet, epsilon: float, eta0: float, kappa: float):
    """Truncation interval [m - kappa s, m + kappa s] around the law of eta_T."""
    mean = eta0 + epsilon**coeffs.hurst.two_h * coeffs.b_int_table[-1]
    std = epsilon**coeffs.hurst.h * np.sqrt(coeffs.sigma_abs_sq_table[-1])
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


def solve_psis(
    gens: Sequence[Generator],
    term: TerminalCondition,
    coeffs: CoefficientSet,
    eps_list: Sequence[float],
    pde: PdeConfig,
    eta0: float = 0.0,
) -> list[SolutionField]:
    """The backward theta-scheme for every generator x every epsilon in one pass.

    System g * len(eps_list) + e pairs gens[g] with eps_list[e]; the fields
    come back in that order.  Each backward step stacks the systems'
    tridiagonal matrices into one block-diagonal matrix with zero couplings,
    factors it once and solves it once per Picard sweep, and each generator
    is called once per sweep on its systems' rows.  A system stops updating
    once it meets its own tolerance, so every field equals, bit for bit, the
    one its system gets when solved alone.
    """
    eps = [float(e) for e in eps_list]
    if not gens or not eps:
        raise ValueError("solve_psis needs at least one generator and one epsilon")
    for e in eps:
        if not 0 < e <= 1:
            raise ValueError(f"epsilon must lie in (0, 1], got {e!r}")
    n_eps, n_sys = len(eps), len(gens) * len(eps)
    t = coeffs.grid.nodes
    n_time = coeffs.grid.n_steps
    dt = coeffs.grid.dt
    # the x grid and the eps^2H scale of each epsilon, shared by every generator
    x = np.array([np.linspace(*domain_bounds(coeffs, e, eta0, pde.kappa), pde.n_space + 1)
                  for e in eps])
    dx = x[:, 1] - x[:, 0]
    scale = np.array([[e**coeffs.hurst.two_h] for e in eps])
    sys_dx = np.tile(dx, len(gens))[:, None]

    sig1 = np.asarray(coeffs.sigma1(t), dtype=float)
    sig2 = np.asarray(coeffs.sigma2(t), dtype=float)

    psi = np.empty((n_sys, n_time + 1, x.shape[1]))
    psi.reshape(len(gens), n_eps, n_time + 1, -1)[:, :, n_time] = term(x)

    grad = np.empty_like(x)

    def source(k: int, values: np.ndarray, out: np.ndarray, active=None) -> np.ndarray:
        """eps^2H f at node k into `out`, skipping generators with no `active` system."""
        for g, gen in enumerate(gens):
            own = slice(g * n_eps, (g + 1) * n_eps)
            if active is None or active[own].any():
                central_gradient(values[own], dx, out=grad)
                out[own] = scale * gen(t[k], x, values[own], sig1[k] * grad, sig2[k] * grad)
        return out

    def apply_operator(diff, mu, values: np.ndarray) -> np.ndarray:
        out = np.zeros_like(values)
        out[:, 1:-1] = (
            mu * (values[:, 2:] - values[:, :-2]) / (2.0 * sys_dx)
            + diff * (values[:, 2:] - 2.0 * values[:, 1:-1] + values[:, :-2]) / sys_dx**2
        )
        return out

    # the step coefficients of every system and step, (systems, steps): panel
    # averages of eps^2H b and (1/2) eps^2H lambda, exact integrals over each step
    steps = np.diff(t)
    mu = np.tile(scale * np.diff(coeffs.b_int_table) / steps, (len(gens), 1))
    diff = np.tile(0.5 * scale * np.diff(coeffs.sigma_abs_sq_table) / steps, (len(gens), 1))
    lower = THETA * dt * (diff / sys_dx**2 - mu / (2.0 * sys_dx))
    upper = THETA * dt * (diff / sys_dx**2 + mu / (2.0 * sys_dx))
    diag = 1.0 + THETA * dt * 2.0 * diff / sys_dx**2

    n_int = x.shape[1] - 2
    sub = np.zeros((n_sys, n_int))
    main = np.empty((n_sys, n_int))
    sup = np.zeros((n_sys, n_int))
    src_next = source(n_time, psi[:, n_time], np.empty_like(psi[:, n_time]))
    src = np.empty_like(src_next)
    for k in range(n_time - 1, -1, -1):
        lo, up, dg = lower[:, k, None], upper[:, k, None], diag[:, k, None]
        # row s holds system s's bands; the last entry of a sub or sup row is
        # the zero coupling to system s + 1 (cut off after the last system)
        sub[:, :-2] = -lo
        main[:] = dg
        sup[:, 1:-1] = -up
        # zero-curvature boundary: u_0 = 2u_1 - u_2 and u_N = 2u_{N-1} - u_{N-2}
        main[:, :1] = dg - 2.0 * lo
        sup[:, :1] = -(up - lo)
        main[:, -1:] = dg - 2.0 * up
        sub[:, -2:-1] = -(lo - up)
        # the matrix is fixed for the step: factor it once, solve every Picard sweep
        *lu, info = dgttrf(sub.ravel()[:-1], main.ravel(), sup.ravel()[:-1])
        if info != 0:
            raise NumericError(f"tridiagonal step matrix is singular at backward step {k}")

        explicit = psi[:, k + 1] + dt * (1.0 - THETA) * (
            apply_operator(diff[:, k, None], mu[:, k, None], psi[:, k + 1]) + src_next
        )
        base_rhs = explicit[:, 1:-1]

        iterate = psi[:, k + 1].copy()
        tol = PICARD_TOL * np.maximum(1.0, np.abs(iterate).max(axis=1))
        change = np.full(n_sys, np.inf)
        active = np.ones(n_sys, dtype=bool)
        for _ in range(PICARD_MAX_ITER):
            rhs = base_rhs + dt * THETA * source(k, iterate, src, active)[:, 1:-1]
            # a zero coupling times a non-finite value is NaN: settled systems
            # solve zeros, and a non-finite system fails before the shared solve
            rhs[~active] = 0.0
            finite = np.isfinite(rhs).all(axis=1)
            if not finite.all():
                s = int(np.argmin(finite))
                raise PicardError(step=k, residual=float("nan"), tol=float(tol[s]))
            interior, _ = dgttrs(*lu, rhs.ravel(), overwrite_b=1)
            interior = interior.reshape(n_sys, n_int)
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
        psi[:, k] = iterate
        src_next, src = source(k, iterate, src), src_next

    psi_x = central_gradient(psi, sys_dx)
    t_nodes = t.copy()
    return [SolutionField(t_nodes=t_nodes, x_nodes=x[s % n_eps], psi=psi[s], psi_x=psi_x[s])
            for s in range(n_sys)]


# Paths are read in row blocks of ~2^17 (path, t) cells: the index and offset
# temporaries stay small and cache-resident (one block over all rows was ~35%
# slower), and a sweep streams its paths in blocks of the same size.
BLOCK_CELLS = 1 << 17
MAX_CLAMP_FRACTION = 0.01


def block_rows(n_nodes: int) -> int:
    """Paths per block for paths of n_nodes nodes."""
    return max(1, BLOCK_CELLS // n_nodes)


def count_outside(x_nodes: np.ndarray, eta: np.ndarray) -> int:
    """Number of eta values outside [x_0, x_N]."""
    return int(np.count_nonzero(eta < x_nodes[0]) + np.count_nonzero(eta > x_nodes[-1]))


def check_clamp(outside: int, cells: int, x_nodes: np.ndarray,
                max_clamp_fraction: float = MAX_CLAMP_FRACTION) -> float:
    """The share of path nodes read clamped to the domain ends; raises above the limit."""
    clamp_fraction = outside / cells
    if clamp_fraction > max_clamp_fraction:
        raise DomainTooSmallError(clamp_fraction, (x_nodes[-1] - x_nodes[0]) / 2.0)
    return clamp_fraction


def brackets(x_nodes: np.ndarray, eta: np.ndarray):
    """Flat cell index into a (n_cols, n_x) table and offset eta - x_j, per (path, column).

    Column c of eta is read from row c of the table.  x_nodes is a linspace,
    so the cell is found in O(1) from the scaled position and then nudged by
    one where rounding put it off the node values.  eta is clamped to
    [x_0, x_N] first, and the last node is a cell of its own, so eta at or
    beyond either end reads the end value exactly, as np.interp does.
    """
    j, tmp = np.empty(eta.shape, np.intp), np.empty(eta.shape)
    mask = np.empty(eta.shape, bool)
    n = x_nodes.size - 1
    lo, hi = x_nodes[0], x_nodes[-1]
    e = np.clip(eta, lo, hi)
    np.subtract(e, lo, out=tmp)
    np.multiply(tmp, n / (hi - lo), out=tmp)
    np.copyto(j, tmp, casting="unsafe")
    np.minimum(j, n, out=j)
    # every index is in [0, n] here; mode="clip" gathers without buffering
    ext = np.append(x_nodes, np.inf)
    j -= np.greater(np.take(ext, j, out=tmp, mode="clip"), e, out=mask)
    j += np.less_equal(np.take(ext[1:], j, out=tmp, mode="clip"), e, out=mask)
    e -= np.take(x_nodes, j, out=tmp, mode="clip")
    j += np.arange(eta.shape[1]) * (n + 1)
    return j, e


def cell_table(values: np.ndarray, dx=1.0):
    """Flat values and per-cell slopes (differences / dx) of a (rows, n_x) table.

    The last node's cell is flat, so a read at the last node returns its value.
    """
    slopes = np.zeros_like(values)
    np.subtract(values[:, 1:], values[:, :-1], out=slopes[:, :-1])
    slopes[:, :-1] /= dx
    return values.ravel(), slopes.ravel()


def field_tables(field: SolutionField):
    """Flat (psi, psi slopes, psi_x, psi_x slopes) of every time row, slopes per
    cell as np.interp forms them."""
    dx = np.diff(field.x_nodes)
    return (*cell_table(field.psi, dx), *cell_table(field.psi_x, dx))


def interp_at(values: np.ndarray, slopes: np.ndarray, cell: np.ndarray,
              offset: np.ndarray, out: np.ndarray | None = None,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """slope * offset + f_j at flat cells: with `brackets`' cells and offsets,
    np.interp's arithmetic, so the values match it.

    `out` receives the result and `scratch` is a temporary, both of cell's
    shape; they are allocated when None.
    """
    out = np.take(slopes, cell, out=out, mode="clip")
    out *= offset
    out += np.take(values, cell, out=scratch, mode="clip")
    return out


def extract_triple(field: SolutionField, eta: np.ndarray, coeffs: CoefficientSet,
                   max_clamp_fraction: float = MAX_CLAMP_FRACTION) -> TriplePath:
    """Read (Y, Z1, Z2) along eta paths by interpolating psi and psi_x.

    Z2 sigma1 = Z1 sigma2 holds exactly at every node because both controls
    share the one interpolated psi_x value.
    """
    t = field.t_nodes
    if eta.ndim != 2 or eta.shape[1] != t.size:
        raise ValueError("eta paths do not match the solution field's time grid")
    clamp_fraction = check_clamp(count_outside(field.x_nodes, eta), eta.size,
                                 field.x_nodes, max_clamp_fraction)

    sig1 = np.asarray(coeffs.sigma1(t), dtype=float)
    sig2 = np.asarray(coeffs.sigma2(t), dtype=float)
    Y = np.empty_like(eta)
    Z1 = np.empty_like(eta)
    Z2 = np.empty_like(eta)
    psi, dpsi, psi_x, dpsi_x = field_tables(field)
    rows = block_rows(t.size)
    for r in range(0, eta.shape[0], rows):
        block = slice(r, r + rows)
        cell, offset = brackets(field.x_nodes, eta[block])
        Y[block] = interp_at(psi, dpsi, cell, offset)
        slope = interp_at(psi_x, dpsi_x, cell, offset)
        np.multiply(slope, sig1, out=Z1[block])
        np.multiply(slope, sig2, out=Z2[block])
    return TriplePath(eta=eta, Y=Y, Z1=Z1, Z2=Z2, clamp_fraction=clamp_fraction)


@dataclass(frozen=True)
class MalliavinCheck:
    applicable: bool
    max_deviation: float


def malliavin_representation_check(triple: TriplePath, field: SolutionField,
                                   coeffs: CoefficientSet) -> MalliavinCheck:
    """Compare D^H_t Y_t = sigma2_hat(t) psi_x(t, eta_t) with (sigma2_hat/sigma2) Z2.

    Both sides reduce to the same interpolated psi_x, so this validates the
    extraction plumbing; deviations beyond rounding indicate a wiring bug.
    """
    t = field.t_nodes
    sig2 = np.asarray(coeffs.sigma2(t), dtype=float)
    usable = (np.abs(sig2) > 0) & (t > 0)
    if not np.any(usable):
        return MalliavinCheck(applicable=False, max_deviation=0.0)
    s2hat = coeffs.sigma2_hat_table
    max_dev = 0.0
    for k in np.nonzero(usable)[0]:
        slope = np.interp(triple.eta[:, k], field.x_nodes, field.psi_x[k])
        lhs = s2hat[k] * slope
        rhs = (s2hat[k] / sig2[k]) * triple.Z2[:, k]
        max_dev = max(max_dev, float(np.abs(lhs - rhs).max()))
    return MalliavinCheck(applicable=True, max_deviation=max_dev)


@dataclass(frozen=True)
class ResidualReport:
    """Zero-mean balance of the backward equation at a probe time."""

    residual: float
    stderr: float
    probe: float


def residual_mean_check(triple: TriplePath, gen: Generator, coeffs: CoefficientSet,
                        epsilon: float, probe: float) -> ResidualReport:
    """| E Y_tp - E xi - eps^2H E int_tp^T f(s, eta, Y, Z1, Z2) ds |.

    Taking expectations in the backward equation kills both stochastic
    integrals (zero-mean property), so this must vanish up to discretization
    plus Monte-Carlo noise.  The estimate is path-paired, so the stderr
    reflects the coupled difference.
    """
    grid = coeffs.grid
    k0 = grid.first_index_at_or_after(probe)
    t = grid.nodes
    f_vals = np.empty((triple.Y.shape[0], t.size - k0))
    for j, k in enumerate(range(k0, t.size)):
        f_vals[:, j] = gen(t[k], triple.eta[:, k], triple.Y[:, k],
                           triple.Z1[:, k], triple.Z2[:, k])
    integral = np.trapezoid(f_vals, t[k0:], axis=1)
    per_path = triple.Y[:, k0] - triple.Y[:, -1] - epsilon**coeffs.hurst.two_h * integral
    mean = float(per_path.mean())
    stderr = float(per_path.std(ddof=1) / np.sqrt(per_path.shape[0]))
    return ResidualReport(residual=abs(mean), stderr=stderr, probe=float(t[k0]))
