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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded  # noqa: F401  (perfbench's tracer counts calls to this name)
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import CoefficientError, DomainTooSmallError, NumericError, PicardError
from .frac_kernel import CoefficientSet
from .grids import TimeGrid


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

    def export_csv(self, path, max_rows: int = 2_000_000):
        from .runio import write_csv

        stride = max(1, int(np.ceil(self.psi.size / max_rows)))
        rows = (
            (self.t_nodes[k], x, self.psi[k, j], self.psi_x[k, j])
            for k in range(0, self.t_nodes.size, stride)
            for j, x in enumerate(self.x_nodes)
        )
        return write_csv(path, ("t", "x", "psi", "psi_x"), rows)


@dataclass
class TriplePath:
    """(Y, Z1, Z2) along simulated eta paths, plus the paths themselves."""

    grid: TimeGrid
    eta: np.ndarray
    Y: np.ndarray
    Z1: np.ndarray
    Z2: np.ndarray
    clamp_fraction: float = 0.0


@dataclass(frozen=True)
class PdeCoefficients:
    """Time-dependent PDE coefficients mu(t) = eps^2H b(t), diff(t) = 0.5 eps^2H lambda(t).

    Node values are the contract surface; panel averages (exact integrals of
    the same quantities over each step) are what the stepping scheme consumes.
    """

    t_nodes: np.ndarray
    mu_nodes: np.ndarray
    diff_nodes: np.ndarray
    mu_panel: np.ndarray = field(repr=False)
    diff_panel: np.ndarray = field(repr=False)


def build_pde_coefficients(coeffs: CoefficientSet, epsilon: float) -> PdeCoefficients:
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    scale = epsilon**coeffs.hurst.two_h
    t = coeffs.grid.nodes
    dt = np.diff(t)
    diff_nodes = 0.5 * scale * coeffs.lam_table
    if np.any(diff_nodes[1:] <= 0.0):
        raise CoefficientError("diffusion coefficient must be positive on (0, T]")
    return PdeCoefficients(
        t_nodes=t,
        mu_nodes=scale * coeffs.b(t),
        diff_nodes=diff_nodes,
        mu_panel=scale * np.diff(coeffs.b_int_table) / dt,
        diff_panel=0.5 * scale * np.diff(coeffs.sigma_abs_sq_table) / dt,
    )


def domain_bounds(coeffs: CoefficientSet, epsilon: float, eta0: float, kappa: float):
    """Truncation interval [m - kappa s, m + kappa s] around the law of eta_T."""
    mean = eta0 + epsilon**coeffs.hurst.two_h * coeffs.b_int_table[-1]
    std = epsilon**coeffs.hurst.h * np.sqrt(coeffs.sigma_abs_sq_table[-1])
    return mean - kappa * std, mean + kappa * std


def central_gradient(values: np.ndarray, dx: float, out: np.ndarray | None = None) -> np.ndarray:
    """d/dx along the last axis: central differences inside, one-sided at both ends.

    np.gradient(values, dx, axis=-1) written out, bit for bit, so the Picard
    sweep can fill a reused buffer.
    """
    if out is None:
        out = np.empty_like(values)
    np.subtract(values[..., 2:], values[..., :-2], out=out[..., 1:-1])
    out[..., 1:-1] /= 2.0 * dx
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
    """Backward theta-scheme for the terminal-value problem stated above."""
    pc = build_pde_coefficients(coeffs, epsilon)
    t = coeffs.grid.nodes
    n_time = coeffs.grid.n_steps
    dt = coeffs.grid.dt
    lo, hi = domain_bounds(coeffs, epsilon, eta0, pde.kappa)
    x = np.linspace(lo, hi, pde.n_space + 1)
    dx = x[1] - x[0]
    scale = epsilon**coeffs.hurst.two_h

    sig1 = np.asarray(coeffs.sigma1(t), dtype=float)
    sig2 = np.asarray(coeffs.sigma2(t), dtype=float)

    psi = np.empty((n_time + 1, x.size))
    psi[n_time] = term(x)

    grad = np.empty_like(x)

    def source(k: int, values: np.ndarray) -> np.ndarray:
        central_gradient(values, dx, out=grad)
        return scale * gen(t[k], x, values, sig1[k] * grad, sig2[k] * grad)

    def apply_operator(diff, mu, values: np.ndarray) -> np.ndarray:
        out = np.zeros_like(values)
        out[1:-1] = (
            mu * (values[2:] - values[:-2]) / (2.0 * dx)
            + diff * (values[2:] - 2.0 * values[1:-1] + values[:-2]) / dx**2
        )
        return out

    n_int = x.size - 2
    src_next = source(n_time, psi[n_time])
    for k in range(n_time - 1, -1, -1):
        diff = pc.diff_panel[k]
        mu = pc.mu_panel[k]
        lower = THETA * dt * (diff / dx**2 - mu / (2.0 * dx))
        upper = THETA * dt * (diff / dx**2 + mu / (2.0 * dx))
        diag = 1.0 + THETA * dt * 2.0 * diff / dx**2

        sub = np.full(n_int - 1, -lower)
        main = np.full(n_int, diag)
        sup = np.full(n_int - 1, -upper)
        # zero-curvature boundary: u_0 = 2u_1 - u_2 and u_N = 2u_{N-1} - u_{N-2}
        main[0] = diag - 2.0 * lower
        sup[0] = -(upper - lower)
        main[-1] = diag - 2.0 * upper
        sub[-1] = -(lower - upper)
        # the matrix is fixed for the step: factor it once, solve every Picard sweep
        *lu, info = dgttrf(sub, main, sup, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        if info != 0:
            raise NumericError(f"tridiagonal step matrix is singular at backward step {k}")

        explicit = psi[k + 1] + dt * (1.0 - THETA) * (
            apply_operator(diff, mu, psi[k + 1]) + src_next
        )
        base_rhs = explicit[1:-1]

        iterate = psi[k + 1].copy()
        tol = PICARD_TOL * max(1.0, float(np.abs(psi[k + 1]).max()))
        change = np.inf
        for _ in range(PICARD_MAX_ITER):
            rhs = base_rhs + dt * THETA * source(k, iterate)[1:-1]
            interior, _ = dgttrs(*lu, rhs, overwrite_b=1)
            new = np.empty_like(iterate)
            new[1:-1] = interior
            new[0] = 2.0 * interior[0] - interior[1]
            new[-1] = 2.0 * interior[-1] - interior[-2]
            change = float(np.abs(new - iterate).max())
            iterate = new
            # a non-finite iterate never converges: stop and report it
            if change <= tol or not np.isfinite(change):
                break
        if not change <= tol:
            raise PicardError(step=k, residual=change, tol=tol)
        psi[k] = iterate
        src_next = source(k, psi[k])

    psi_x = central_gradient(psi, dx)
    return SolutionField(t_nodes=t.copy(), x_nodes=x, psi=psi, psi_x=psi_x)


# Paths are read in row blocks of ~2^17 (path, t) cells: the index and offset
# temporaries stay small and cache-resident (one block over all rows was ~35%
# slower), and a sweep streams its paths in blocks of the same size.
BLOCK_CELLS = 1 << 17
MAX_CLAMP_FRACTION = 0.01


def block_rows(n_nodes: int) -> int:
    """Paths per block for paths of n_nodes nodes."""
    return max(1, BLOCK_CELLS // n_nodes)


def count_outside(x_nodes: np.ndarray, eta: np.ndarray, mask: np.ndarray | None = None) -> int:
    """Number of eta values outside [x_0, x_N]; `mask` (bool, eta's shape) is scratch."""
    if mask is None:
        mask = np.empty(eta.shape, dtype=bool)
    below = np.count_nonzero(np.less(eta, x_nodes[0], out=mask))
    return int(below + np.count_nonzero(np.greater(eta, x_nodes[-1], out=mask)))


def check_clamp(outside: int, cells: int, x_nodes: np.ndarray,
                max_clamp_fraction: float = MAX_CLAMP_FRACTION) -> float:
    """The share of path nodes read clamped to the domain ends; raises above the limit."""
    clamp_fraction = outside / cells
    if clamp_fraction > max_clamp_fraction:
        raise DomainTooSmallError(clamp_fraction, (x_nodes[-1] - x_nodes[0]) / 2.0)
    return clamp_fraction


def brackets(x_nodes: np.ndarray, eta: np.ndarray, work=None):
    """Flat cell index into a (n_cols, n_x) table and offset eta - x_j, per (path, column).

    Column c of eta is read from row c of the table.  x_nodes is a linspace,
    so the cell is found in O(1) from the scaled position and then nudged by
    one where rounding put it off the node values.  eta is clamped to
    [x_0, x_N] first, and the last node is a cell of its own, so eta at or
    beyond either end reads the end value exactly, as np.interp does.

    `work` = (cell, offset, scratch, mask), arrays of eta's shape with dtypes
    intp, float, float and bool: the first two receive the result, the last
    two are temporaries.  They are allocated when `work` is None.
    """
    if work is None:
        work = tuple(np.empty(eta.shape, dtype) for dtype in (np.intp, float, float, bool))
    j, e, tmp, mask = work
    n = x_nodes.size - 1
    lo, hi = x_nodes[0], x_nodes[-1]
    np.clip(eta, lo, hi, out=e)
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


def field_tables(field: SolutionField, start: int = 0):
    """Flat (psi, psi slopes, psi_x, psi_x slopes) of the time rows from `start` on.

    Slopes are per cell, as np.interp forms them; the last node's cell is flat.
    """
    dx = np.diff(field.x_nodes)
    out = []
    for table in (field.psi[start:], field.psi_x[start:]):
        slopes = np.zeros_like(table)
        slopes[:, :-1] = np.diff(table, axis=1) / dx
        out += [table.ravel(), slopes.ravel()]
    return tuple(out)


def interp_at(values: np.ndarray, slopes: np.ndarray, cell: np.ndarray,
              offset: np.ndarray, out: np.ndarray | None = None,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """slope * (eta - x_j) + f_j at bracketed cells: np.interp's arithmetic, so the values match it.

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
    return TriplePath(grid=TimeGrid(T=float(t[-1]), n_steps=t.size - 1), eta=eta,
                      Y=Y, Z1=Z1, Z2=Z2, clamp_fraction=clamp_fraction)


@dataclass(frozen=True)
class MalliavinCheck:
    applicable: bool
    max_deviation: float
    detail: str = ""


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
        return MalliavinCheck(applicable=False, max_deviation=0.0,
                              detail="sigma2 vanishes identically: not applicable")
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
    n_paths: int


def residual_mean_check(triple: TriplePath, gen: Generator, coeffs: CoefficientSet,
                        epsilon: float, probe: float) -> ResidualReport:
    """| E Y_tp - E xi - eps^2H E int_tp^T f(s, eta, Y, Z1, Z2) ds |.

    Taking expectations in the backward equation kills both stochastic
    integrals (zero-mean property), so this must vanish up to discretization
    plus Monte-Carlo noise.  The estimate is path-paired, so the stderr
    reflects the coupled difference.
    """
    grid = triple.grid
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
    return ResidualReport(residual=abs(mean), stderr=stderr, probe=float(t[k0]),
                          n_paths=per_path.shape[0])
