"""Fractional covariance kernel, Hilbert norms and the sigma machinery.

For a Hurst index H in (1/2, 1) the kernel is

    rho(t, s) = H(2H-1) |t-s|^(2H-2),

with the scalar product  <xi, eta>_t = int_0^t int_0^t rho(u,v) xi(u) eta(v) du dv
and  ||xi||_t^2 = <xi, xi>_t.  With s = 2H - 1 both singularities sit in the
weights of one m-node Gauss-Jacobi rule per axis.  The inner transform

    A_g(u) = int_0^u rho(u, v) g(v) dv = H s u^s int_0^1 (1-x)^(s-1) g(u x) dx

(`kernel_transform`) takes the weight (1-x)^(s-1); the outer integral
<xi, eta>_t = int_0^t (xi A_eta + eta A_xi)(u) du, u^s times a smooth
integrand, takes x^s on u = t x.  Both are exact for constant g, so
||1||^2_t = t^(2H) to rounding at every H.  `inner_product`, `norm_sq` and
every node of `CoefficientSet.norm_sq_table` run this one 2-D rule.

Everything here is deterministic; after a `CoefficientSet` is built all of
its tables are read-only, so concurrent readers are safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    CoefficientError,
    ConsistencyError,
    QuadratureConvergenceError,
    SingularKernelError,
)
from .grids import TimeGrid

# Central finite differences of |sigma|^2_t near t=0 cannot resolve the
# t^(2H-1) cusp to 1e-3 relative accuracy at any uniform resolution (the
# relative error at node k scales like 1/k^2 independent of the step), so
# the lambda consistency check starts at this node index.
_FD_CHECK_FIRST_NODE = 8
_FD_CHECK_RTOL = 1e-3
# Gauss-Jacobi nodes per axis of the one kernel rule, for the tables and inner products alike
_NODES = 32
REFINE_TOL = 1e-8  # how far doubling the nodes may move a value, times max(1, |value|)


@dataclass(frozen=True)
class HurstModel:
    """Hurst parameter H in the open interval (1/2, 1) and derived exponents."""

    h: float

    def __post_init__(self):
        if not (0.5 < self.h < 1.0):
            raise ValueError(f"H must lie in (0.5, 1), got {self.h!r}")

    @property
    def two_h(self) -> float:
        return 2.0 * self.h

    @property
    def increment_exponent(self) -> float:
        """s = 2H - 1 in (0, 1); |u-v|^(s-1) is the singular factor."""
        return 2.0 * self.h - 1.0


@dataclass(frozen=True)
class DeterministicFn:
    """A deterministic function of time on [0, T]."""

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "f"

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.asarray(self.fn(t), dtype=float)
        return np.broadcast_to(out, t.shape).copy() if out.shape != t.shape else out

    @classmethod
    def const(cls, c: float, name: str | None = None) -> "DeterministicFn":
        return cls(
            fn=lambda t, c=c: np.full_like(np.asarray(t, dtype=float), c),
            name=name or f"const[{c}]",
        )

    @classmethod
    def linear(cls, c: float, name: str | None = None) -> "DeterministicFn":
        return cls(
            fn=lambda t, c=c: c * np.asarray(t, dtype=float),
            name=name or f"linear[{c}]",
        )

    @classmethod
    def sinusoidal(cls, c: float, period: float, name: str | None = None) -> "DeterministicFn":
        """c * (1 + sin(2 pi t / period) / 2); nonvanishing for c != 0."""
        w = 2.0 * np.pi / period
        return cls(
            fn=lambda t, c=c, w=w: c * (1.0 + 0.5 * np.sin(w * np.asarray(t, dtype=float))),
            name=name or f"sinusoidal[{c}]",
        )


def rho(t, s, hurst: HurstModel):
    """Kernel H(2H-1)|t-s|^(2H-2); symmetric, positive, singular on t == s."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(t < 0) or np.any(s < 0):
        raise ValueError("rho is defined for nonnegative times")
    gap = np.abs(t - s)
    if np.any(gap == 0.0):
        raise SingularKernelError(
            "rho(t, s) diverges on the diagonal t == s; integrate it with a "
            "singularity-aware quadrature instead of point evaluation"
        )
    h = hurst.h
    out = h * (2.0 * h - 1.0) * gap ** (2.0 * h - 2.0)
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=32)
def _unit_gauss_jacobi(m: int, a: float, b: float):
    """Nodes x in (0, 1) and weights of the m-point Gauss rule for (1-x)^a x^b on [0, 1].

    Golub-Welsch: x = (1+y)/2 for the eigenvalues y of the Jacobi matrix of
    P^(a, b) on [-1, 1], and the weights are B(a+1, b+1) times the squared
    first eigenvector components; exact for polynomials of degree < 2m."""
    n = np.arange(1, m, dtype=float)
    k = 2.0 * n + a + b
    diag = np.append((b - a) / (a + b + 2.0), (b * b - a * a) / (k * (k + 2.0)))
    off = np.sqrt(4.0 * n * (n + a) * (n + b) * (n + a + b) / (k * k * (k + 1.0) * (k - 1.0)))
    y, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    beta = math.gamma(a + 1.0) * math.gamma(b + 1.0) / math.gamma(a + b + 2.0)
    x, w = 0.5 * (1.0 + y), beta * vec[0] ** 2
    for arr in (x, w):  # cached: shared by every caller
        arr.setflags(write=False)
    return x, w


def kernel_transform(g, t, hurst: HurstModel, m: int):
    """A_g(t) = int_0^t rho(t, v) g(v) dv = H s t^s sum_j w_j g(t x_j), elementwise
    over an array t >= 0, by the m-node rule for the weight (1-x)^(s-1)."""
    t_values = np.asarray(t, dtype=float)
    if np.any(t_values < 0):
        raise ValueError("kernel transform needs t >= 0")
    s = hurst.increment_exponent
    x, w = _unit_gauss_jacobi(m, s - 1.0, 0.0)
    out = hurst.h * s * t_values**s * (g(t_values[..., None] * x) @ w)
    return float(out) if out.ndim == 0 else out


def _inner_product_once(xi, eta, t, hurst: HurstModel, m: int):
    """<xi, eta>_t by the m-node rule on both axes; elementwise over an array t."""
    t = np.asarray(t, dtype=float)
    s = hurst.increment_exponent
    x, w = _unit_gauss_jacobi(m, 0.0, s)
    # the weight x^s is the u^s factor that kernel_transform's values carry
    w = w / x**s
    u = t[..., None] * x
    a_eta = kernel_transform(eta, u, hurst, m)
    if eta is xi:
        return 2.0 * t * ((xi(u) * a_eta) @ w)
    a_xi = kernel_transform(xi, u, hurst, m)
    return t * ((xi(u) * a_eta + eta(u) * a_xi) @ w)


def guarded_inner_product(xi, eta, t: float, hurst: HurstModel) -> tuple[float, float]:
    """<xi, eta>_t by the kernel rule, and how far doubling its nodes moves it.

    The one refinement guard: a drift above REFINE_TOL * max(1, |value|) raises
    rather than returning a silently unconverged number."""
    if not t > 0:
        raise ValueError(f"inner product needs t in (0, T], got {t!r}")
    value = float(_inner_product_once(xi, eta, t, hurst, _NODES))
    fine = float(_inner_product_once(xi, eta, t, hurst, 2 * _NODES))
    drift = abs(fine - value)
    if drift > REFINE_TOL * max(1.0, abs(value)):
        raise QuadratureConvergenceError(value, fine, REFINE_TOL)
    return value, drift


def inner_product(xi, eta, t: float, hurst: HurstModel) -> float:
    """<xi, eta>_t, splitting the square into the two triangles around u = v."""
    return guarded_inner_product(xi, eta, t, hurst)[0]


def norm_sq(xi, t: float, hurst: HurstModel) -> float:
    """||xi||_t^2 = <xi, xi>_t >= 0."""
    return max(inner_product(xi, xi, t, hurst), 0.0)


def c0_const(hurst: HurstModel, t_horizon: float) -> float:
    """Variance-bound constant C0(H, T) = H T^(2H-1)."""
    if not t_horizon > 0:
        raise ValueError("time horizon must be positive")
    return hurst.h * t_horizon ** (2.0 * hurst.h - 1.0)


def _gl_panel_integrals(f, nodes: np.ndarray):
    """Integral of f over each grid panel by 8-point Gauss-Legendre."""
    gx, gw = np.polynomial.legendre.leggauss(8)
    a, b = nodes[:-1], nodes[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * gx[None, :]
    return (f(x) * gw[None, :]).sum(axis=1) * half


@dataclass(frozen=True)
class CoefficientSet:
    """Deterministic coefficients b, sigma1, sigma2 with cached kernel tables.

    Tables live on the shared simulation grid and are reused by every
    Monte-Carlo path and PDE step:

      norm_sq_table[k]      = ||sigma2||^2_{t_k}  (the 2-D rule at every node;
                              its refinement guard runs at T)
      sigma2_hat_table[k]   = sigma2_hat(t_k)
      sigma_abs_sq_table[k] = |sigma|^2_{t_k} = int_0^{t_k} sigma1(s)^2 ds
                              + ||sigma2||^2_{t_k}
      lam_table[k]          = d/dt |sigma|^2 at t_k
      b_int_table[k]        = trapezoid int_0^{t_k} b(s) ds  (matches the
                              path engine's drift discretization)

    rho is symmetric, so d/dt ||sigma2||^2_t = 2 sigma2(t) sigma2_hat(t) and
    lambda = sigma1^2 + 2 sigma2 sigma2_hat.  Construction checks lambda
    against central finite differences of the |sigma|^2 table and raises
    ConsistencyError when they disagree; the worst relative deviation is
    kept as `fd_rel_error`.
    """

    b: DeterministicFn
    sigma1: DeterministicFn
    sigma2: DeterministicFn
    hurst: HurstModel
    grid: TimeGrid
    norm_sq_table: np.ndarray = field(repr=False)
    sigma2_hat_table: np.ndarray = field(repr=False)
    sigma_abs_sq_table: np.ndarray = field(repr=False)
    lam_table: np.ndarray = field(repr=False)
    b_int_table: np.ndarray = field(repr=False)
    fd_rel_error: float = 0.0

    @classmethod
    def build(
        cls,
        b: DeterministicFn,
        sigma1: DeterministicFn,
        sigma2: DeterministicFn,
        grid: TimeGrid,
        hurst: HurstModel,
    ) -> "CoefficientSet":
        t = grid.nodes
        interior = t[1:]

        b_vals = b(t)
        sig1_on_grid = sigma1(interior)
        sig2_on_grid = sigma2(interior)
        # first: an infinite sigma would pass for one that vanishes below
        for label, fn, values in (("b", b, b_vals), ("sigma1", sigma1, sig1_on_grid),
                                  ("sigma2", sigma2, sig2_on_grid)):
            if not np.all(np.isfinite(values)):
                raise CoefficientError(f"{label}={fn.name} is not finite on the grid")
        degenerate2 = bool(np.all(sig2_on_grid == 0.0))
        degenerate1 = bool(np.all(sig1_on_grid == 0.0))
        # relative threshold: a coefficient crossing zero lands near but not
        # exactly on 0.0 in floating point
        tiny2 = 1e-12 * max(np.abs(sig2_on_grid).max(), 1.0)
        tiny1 = 1e-12 * max(np.abs(sig1_on_grid).max(), 1.0)
        if not degenerate2 and np.any(np.abs(sig2_on_grid) <= tiny2):
            raise CoefficientError(f"sigma2={sigma2.name} vanishes inside (0, T]")
        if not degenerate1 and np.any(np.abs(sig1_on_grid) <= tiny1):
            raise CoefficientError(f"sigma1={sigma1.name} vanishes inside (0, T]")

        s2hat = kernel_transform(sigma2, t, hurst, _NODES)
        nsq = _inner_product_once(sigma2, sigma2, t, hurst, _NODES)
        # the 2-D rule's refinement guard runs once, at T; it only raises
        guarded_inner_product(sigma2, sigma2, t[-1], hurst)

        sig1_sq_int = np.zeros_like(t)
        sig1_sq_int[1:] = np.cumsum(
            _gl_panel_integrals(lambda x: sigma1(x) ** 2, t)
        )

        abs_sq = sig1_sq_int + nsq

        base = sigma2(t) * s2hat
        lam = sigma1(t) ** 2 + 2.0 * base
        fd_err = _lambda_fd_error(t, abs_sq, base, lam)

        if np.any(lam[1:] <= 0.0):
            raise CoefficientError(
                "d/dt |sigma|^2 must be positive on (0, T]; "
                f"min over the grid is {lam[1:].min():.3e}"
            )
        if np.any(np.diff(abs_sq) <= 0.0):
            raise CoefficientError("|sigma|^2_t is not strictly increasing on the grid")

        b_int = np.zeros_like(t)
        b_int[1:] = np.cumsum(0.5 * (b_vals[1:] + b_vals[:-1]) * np.diff(t))

        for arr in (nsq, s2hat, abs_sq, lam, b_int):
            arr.setflags(write=False)

        return cls(
            b=b,
            sigma1=sigma1,
            sigma2=sigma2,
            hurst=hurst,
            grid=grid,
            norm_sq_table=nsq,
            sigma2_hat_table=s2hat,
            sigma_abs_sq_table=abs_sq,
            lam_table=lam,
            b_int_table=b_int,
            fd_rel_error=fd_err,
        )


def _lambda_fd_error(t, abs_sq, base, lam) -> float:
    """Worst relative deviation of lambda from central differences of |sigma|^2.

    `base` is sigma2 * sigma2_hat on the grid.  Raises ConsistencyError
    above the tolerance; 0.0 when the grid is too short or sigma2 == 0.
    """
    fd = (abs_sq[2:] - abs_sq[:-2]) / (t[2:] - t[:-2])
    sl = slice(max(_FD_CHECK_FIRST_NODE - 1, 0), None)
    if not fd[sl].size or np.all(base[1:-1] == 0.0):
        return 0.0
    err = np.max(np.abs(lam[1:-1][sl] - fd[sl]) / np.maximum(np.abs(fd[sl]), 1e-300))
    # the central difference itself carries O(dt^2 lambda''/lambda) error,
    # so the tight gate applies only once the grid resolves it; on coarse
    # grids a table bug still shows up as an O(1) relative error
    rtol = _FD_CHECK_RTOL if len(t) - 1 >= 128 else 0.2
    if err > rtol:
        raise ConsistencyError(
            "lambda = sigma1^2 + 2 sigma2 sigma2_hat does not match the finite "
            f"differences of |sigma|^2 (rel err {err:.3e}, limit {rtol:.0e})"
        )
    return float(err)


def c1_lower_bound(coeffs: CoefficientSet, t0: float) -> float:
    """min over grid nodes in [t0, T] of sigma2_hat(t) / sigma2(t).

    The ratio tends to 0 as t -> 0 for constant sigma2, so the infimum is
    taken away from the origin; t0 must sit in (0, T].
    """
    if not 0 < t0 <= coeffs.grid.T:
        raise ValueError(f"t0 must lie in (0, T], got {t0!r}")
    k = max(coeffs.grid.first_index_at_or_after(t0), 1)
    sig2 = coeffs.sigma2(coeffs.grid.nodes[k:])
    if np.any(sig2 == 0.0):
        raise CoefficientError("sigma2 vanishes on [t0, T]; C1 is undefined")
    ratio = coeffs.sigma2_hat_table[k:] / sig2
    c1 = float(ratio.min())
    if c1 <= 0:
        raise CoefficientError(f"C1 lower bound must be positive, got {c1!r}")
    return c1
