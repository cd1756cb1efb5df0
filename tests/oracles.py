"""Independent oracles used to freeze expected values.

The brute-force quadratures import no production code: the double integral
is done by plain product integration (the singular factor integrated exactly
per panel, the smooth factor at panel midpoints) on meshes graded toward the
singularity.  Deliberately simple and slow.  `sigma2_hat` is the production
Gauss-Jacobi rule at 128 nodes, four times the kernel rule's 32, and
`mp_sinusoidal_kernel` the quadrature-free series route beside both.  The
per-node f-bar, the whole-table phi and the per-column extraction are the
loop forms of vectorised production layers (the extraction is np.interp per
time column; on the unit grid, with eta's grid positions, it is
extract_triple's grid-unit read bit for bit), the whole-ensemble sweep and
`simulate-fbm` statistics are the array forms of the streamed ones, the
whole-ensemble `solve` statistics the Monte-Carlo route and `law_solve`
the quadrature route beside `solve`'s rows of eta's law, and the per-path
samplers draw each path
from a freshly built generator where production resets one bit generator per
chunk, and the alpha0 bisection is the numeric root finder beside
production's closed form, the closed-form f-bar of the benchmark generator
is the analytic route beside production's quadrature, and the level route of
eta's noise (each level array differenced back into increments) is the
second route beside production's one cumsum of increments, and the
row-differenced factor of the fBm level covariance the second route beside
production's factor of the fGn covariance, and SciPy's normal tails the
second route beside production's erfc sum for the clamp fraction; all are
kept here as cross-checks.
"""

import numpy as np


def brute_force_inner_product(xi, eta, t, H, panels=2560, grade=3.0):
    """<xi, eta>_t by triangle splitting and graded product integration.

    Inner integral over v in [0, u]: the factor (u-v)^(2H-2) is integrated
    exactly on each panel, eta at the panel midpoint.  Outer integral over u
    in [0, t]: midpoint rule on a mesh graded toward u = 0 (the transformed
    integrand has a u^(2H-1) cusp there).
    """
    s = 2.0 * H - 1.0

    def half(f_outer, f_inner):
        edges_u = t * (np.linspace(0.0, 1.0, panels + 1)) ** grade
        u_mid = 0.5 * (edges_u[:-1] + edges_u[1:])
        du = np.diff(edges_u)
        # gap fractions for the inner graded mesh, shared across u
        frac = (np.linspace(0.0, 1.0, panels + 1)) ** grade
        total = 0.0
        gap_weight_unit = frac[1:] ** s - frac[:-1] ** s  # of int s*g^(s-1) dg on [0,1]
        gap_mid_unit = 0.5 * (frac[1:] + frac[:-1])
        for u, w_u in zip(u_mid, du):
            v_mid = u - u * gap_mid_unit
            inner = H * u**s * float(gap_weight_unit @ f_inner(v_mid))
            total += w_u * float(f_outer(u)) * inner
        return total

    return half(xi, eta) + half(eta, xi)


def brute_force_norm_sq(xi, t, H, panels=2560):
    return brute_force_inner_product(xi, xi, t, H, panels=panels)


def brute_force_sigma2_hat(sigma2, t, H, panels=4096, grade=3.0):
    """int_0^t rho(t, v) sigma2(v) dv by graded product integration."""
    s = 2.0 * H - 1.0
    frac = (np.linspace(0.0, 1.0, panels + 1)) ** grade
    gaps = t * frac
    weight = gaps[1:] ** s - gaps[:-1] ** s
    v_mid = t - 0.5 * (gaps[1:] + gaps[:-1])
    return H * float(weight @ sigma2(v_mid))


# frozen mpmath values (40-digit working precision; the inner singular
# integral is reduced by two integrations by parts to exact boundary terms
# plus a smooth remainder before tanh-sinh quadrature):
#   <u^2, sin(u)>_1 at H = 0.6
IP_USQ_SINU_H06_T1 = 0.20444119783761959
#   sigma2_hat(1) for sigma2(v) = 1 + 0.5 sin(2 pi v) at H = 0.75
S2HAT_SINUSOIDAL_H075_T1 = 0.6856095603068066


def sigma2_hat(t, coeffs, nodes=128):
    """sigma2_hat(t) by the production Gauss-Jacobi rule at `nodes` nodes;
    `CoefficientSet.sigma2_hat_table` uses the kernel rule's 32."""
    from sfrbsde.frac_kernel import kernel_transform

    return kernel_transform(coeffs.sigma2, t, coeffs.hurst, nodes)


def mp_sinusoidal_kernel(H, dps=40, terms=80):
    """(sigma2_hat(1), ||sigma2||^2_1) for sigma2(u) = 1 + sin(2 pi u)/2, to double precision.

    Term by term over sigma2's Taylor series sum_j c_j u^j, with s = 2H - 1:
    int_0^t (t-v)^(s-1) v^j dv = t^(s+j) B(s, j+1), so
    sigma2_hat(1) = H s sum_j c_j B(s, j+1) and
    <u^i, u^j>_1 = H s (B(s, j+1) + B(s, i+1)) / (i + j + s + 1).
    No quadrature: mpmath carries the series' cancellation at `dps` digits.
    """
    import mpmath as mp

    with mp.workdps(dps):
        h = mp.mpf(H)
        s = 2 * h - 1
        a = 2 * mp.pi
        c = [mp.mpf(1)] + [mp.mpf(0)] * (terms - 1)
        for k in range(terms // 2):
            c[2 * k + 1] = (-1) ** k * a ** (2 * k + 1) / mp.factorial(2 * k + 1) / 2
        beta = [mp.beta(s, j + 1) for j in range(terms)]
        hat = h * s * mp.fsum(cj * bj for cj, bj in zip(c, beta))
        norm = h * s * mp.fsum(c[i] * c[j] * (beta[j] + beta[i]) / (i + j + s + 1)
                               for i in range(terms) for j in range(terms))
        return float(hat), float(norm)


def monomial_norm_sq(t, H):
    """||s -> s||_t^2 = t^(2H+2) / (2H+2); from the Beta-integral reduction
    int_0^u (u-v)^(2H-2) v dv = u^2H / (2H(2H-1))."""
    return t ** (2.0 * H + 2.0) / (2.0 * H + 2.0)


def fbm_cov(t, s, H):
    return 0.5 * (t ** (2 * H) + s ** (2 * H) - abs(t - s) ** (2 * H))


def discrete_wiener_variance(xi_values, nodes, H):
    """Exact variance of sum xi(t_k)(B^H_{k+1} - B^H_k) from the fBm covariance."""
    n = len(nodes) - 1
    var = 0.0
    for j in range(n):
        for k in range(n):
            cov_inc = (
                fbm_cov(nodes[j + 1], nodes[k + 1], H)
                - fbm_cov(nodes[j + 1], nodes[k], H)
                - fbm_cov(nodes[j], nodes[k + 1], H)
                + fbm_cov(nodes[j], nodes[k], H)
            )
            var += xi_values[j] * xi_values[k] * cov_inc
    return var


def per_node_fbar(gen, T, panels):
    """(1/T) int_0^T f(s, .) ds by `panels` panels of GL-4, one call of f per node.

    The same nodes and weights as the production quadrature, accumulated
    node by node with scalar s; the production route makes one broadcast
    call over all nodes instead.
    """
    gx, gw = np.polynomial.legendre.leggauss(4)
    edges = np.linspace(0.0, T, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    weights = ((half[:, None] * gw[None, :]).ravel()) / T

    def fbar(x, y, z1, z2):
        acc = weights[0] * np.asarray(gen(nodes[0], x, y, z1, z2), dtype=float)
        for s, w in zip(nodes[1:], weights[1:]):
            acc = acc + w * gen(s, x, y, z1, z2)
        return acc

    return fbar


def table_phi(gen, fbar, T):
    """sup phi from the whole (nodes, points) table of |f - fbar|^2, one call
    of f per node, and its cumulative trapezoid, on the windows [kT/16, T]."""
    from sfrbsde.averaging_lab import box_points

    x, y, z1, z2 = box_points()
    s_nodes = np.linspace(0.0, T, 1025)
    fb = fbar(x, y, z1, z2)
    gaps_sq = np.empty((s_nodes.size, x.size))
    for i, s in enumerate(s_nodes):
        gaps_sq[i] = (gen(s, x, y, z1, z2) - fb) ** 2
    ds = np.diff(s_nodes)
    cum = np.zeros_like(gaps_sq)
    cum[1:] = np.cumsum(0.5 * (gaps_sq[1:] + gaps_sq[:-1]) * ds[:, None], axis=0)
    denom = 1.0 + y**2 + z1**2 + z2**2
    return max(float(((cum[-1] - cum[64 * k]) / (s_nodes[-1] - s_nodes[64 * k]) / denom).max())
               for k in range(16))


def per_column_triple(x_nodes, psi, psi_x, eta, sig1, sig2):
    """(Y, Z1, Z2) along eta by two np.interp calls per time column on the x grid x_nodes."""
    Y = np.empty_like(eta)
    Z1 = np.empty_like(eta)
    Z2 = np.empty_like(eta)
    for k in range(eta.shape[1]):
        Y[:, k] = np.interp(eta[:, k], x_nodes, psi[k])
        slope = np.interp(eta[:, k], x_nodes, psi_x[k])
        Z1[:, k] = sig1[k] * slope
        Z2[:, k] = sig2[k] * slope
    return Y, Z1, Z2


def array_window_stats(grid, i_lo, dY, dZ_sq, Ya, Z1a, Z2a):
    """Window statistics of one eps from whole-ensemble (n_paths, n_nodes) arrays."""
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
        "z_err_integral": float(z_int.mean()),
        "z_err_stderr": float(z_int.std(ddof=1) / np.sqrt(n_paths)),
        "dy_integral": float(dy_int.mean()),
        "dy_integral_stderr": float(dy_int.std(ddof=1) / np.sqrt(n_paths)),
        "kept_sup_abs": sup_abs,   # every path kept: a superset of the fold's
        "moments": moments,
    }


def bisect_alpha0(L, C1, epsilon, h, residual_tol=1e-12):
    """Root of (eps^H / a) min{a - L eps^H, a C1 - L eps^H} = eps^2H by bisection.

    The left side increases from 0 (at a = L eps^H / min(1, C1)) to
    eps^H min(1, C1); needs L > 0 and eps^H < min(1, C1).  Returns
    (alpha0, residual).
    """
    e = epsilon**h
    m = min(1.0, C1)
    assert L > 0 and e < m

    def g(a):
        return (e / a) * min(a - L * e, a * C1 - L * e) - e * e

    lo = (L * e / m) * (1.0 + 1e-12)
    hi = max(2.0 * lo, 1.0)
    while g(hi) <= 0:
        hi *= 2.0
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
    assert residual <= residual_tol, f"bisection stalled at residual {residual:.3e}"
    return float(mid), float(residual)


def benchmark_fbar():
    """Closed-form time average of the benchmark generator (sin averages to 0)."""
    from sfrbsde.config import BENCHMARK_COEFFS

    a, b, c, d = BENCHMARK_COEFFS

    def fn(x, y, z1, z2):
        return a * np.asarray(y, dtype=float) + b * np.asarray(z1) + c * np.asarray(z2) + d

    return fn


def whole_ensemble_sweep(original, coeffs, term, eps_list, cfg):
    """The eps-sweep on one whole-ensemble draw: every eta^eps as an array,
    both triples extracted in full, statistics from the arrays, then the
    production `checked_report`."""
    from sfrbsde import averaging_lab as al
    from sfrbsde.bsde_solver import extract_triple, first_sweep_states, solve_psi
    from sfrbsde.path_engine import make_ensemble, simulate_eta

    grid, T, hurst = coeffs.grid, coeffs.grid.T, coeffs.hurst
    t0 = cfg.window_t0(T)
    ensemble = make_ensemble(grid, hurst, cfg.n_paths, cfg.rng)
    states = first_sweep_states(coeffs, term, eps_list, cfg.pde, cfg.eta0)
    fbar = al.build_fbar(original, T, [np.concatenate((box, state.ravel()))
                                       for box, state in zip(al.box_points(), states)])
    averaged = fbar.as_generator()
    L = al.estimate_lipschitz(original, T)
    C1 = al.c1_lower_bound(coeffs, t0)
    phi = al.estimate_phi(original, fbar, T)
    raws, us = [], []
    for epsilon in eps_list:
        trip_o = extract_triple(solve_psi(original, term, coeffs, epsilon, cfg.pde, cfg.eta0),
                                simulate_eta(coeffs, ensemble, epsilon, cfg.eta0), coeffs)
        trip_a = extract_triple(solve_psi(averaged, term, coeffs, epsilon, cfg.pde, cfg.eta0),
                                trip_o.eta, coeffs)
        i_lo = min(grid.first_index_at_or_after(T * epsilon ** (1.0 - cfg.beta)),
                   grid.n_steps - 1)
        us.append(float(grid.nodes[i_lo]))
        dZ_sq = (trip_o.Z1 - trip_a.Z1) ** 2 + (trip_o.Z2 - trip_a.Z2) ** 2
        raws.append(array_window_stats(grid, i_lo, trip_o.Y - trip_a.Y, dZ_sq,
                                       trip_a.Y, trip_a.Z1, trip_a.Z2))
    return al.checked_report(raws, us, eps_list, T, t0, L, C1, phi, hurst, cfg, fbar.panels,
                             fbar.nodes)


def whole_ensemble_solve(cfg):
    """`solve`'s statistics by Monte Carlo, from one whole-ensemble draw of
    cfg.n_paths paths, each with its standard error: (summary, summary_se,
    residuals).  summary holds triple_summary.csv's rows (t, mean_Y, var_Y,
    mean_Z1, mean_Z2) by np.mean / np.var over every path, and summary_se the
    errors of its last four columns, var_Y's from the fourth central moment;
    residuals holds (t_probe, mean, stderr) of the per-path residual terms."""
    from sfrbsde import bsde_solver as bs
    from sfrbsde.path_engine import make_ensemble, simulate_eta

    coeffs, gen = cfg.coefficient_set(), cfg.make_generator()
    field = bs.solve_psi(gen, cfg.make_terminal(), coeffs, cfg.epsilon, cfg.pde(), cfg.eta0)
    eta = simulate_eta(coeffs, make_ensemble(coeffs.grid, coeffs.hurst, cfg.n_paths, cfg.rng()),
                       cfg.epsilon, cfg.eta0)
    trip = bs.extract_triple(field, eta, coeffs)
    t, n = coeffs.grid.nodes, cfg.n_paths
    centred = trip.Y - trip.Y.mean(axis=0)
    var_y = trip.Y.var(axis=0, ddof=1)
    summary = np.column_stack([t, trip.Y.mean(axis=0), var_y, trip.Z1.mean(axis=0),
                               trip.Z2.mean(axis=0)])
    summary_se = np.column_stack([
        # at t_0, where every path reads eta0, rounding can leave the fourth moment below 0
        np.sqrt(var_y / n), np.sqrt(np.maximum((centred**4).mean(axis=0) - var_y**2, 0.0) / n),
        trip.Z1.std(axis=0, ddof=1) / np.sqrt(n), trip.Z2.std(axis=0, ddof=1) / np.sqrt(n)])
    residuals = []
    for probe in (cfg.t_horizon / 4, cfg.t_horizon / 2, 3 * cfg.t_horizon / 4):
        k0 = coeffs.grid.first_index_at_or_after(probe)
        f_vals = np.empty((n, t.size - k0))
        for j, k in enumerate(range(k0, t.size)):
            f_vals[:, j] = gen(t[k], eta[:, k], trip.Y[:, k], trip.Z1[:, k], trip.Z2[:, k])
        integral = np.trapezoid(f_vals, t[k0:], axis=1)
        per_path = trip.Y[:, k0] - trip.Y[:, -1] - cfg.epsilon**coeffs.hurst.two_h * integral
        residuals.append((t[k0], per_path.mean(), per_path.std(ddof=1) / np.sqrt(n)))
    return summary, summary_se, np.array(residuals)


def law_solve(cfg, nodes):
    """`solve`'s statistics from eta's Gaussian law, with no path and no row of
    `eta_law_rows`: (summary, residuals).  summary holds triple_summary.csv's
    rows at the time indices `nodes`; residuals holds residual_check.csv's
    (t_probe, residual) at T/4, T/2 and 3T/4, the integral of E f by
    np.trapezoid over the nodes.  Each expectation E h(eta_t) is one
    scipy.integrate.quad of h against the normal density of eta_t, mean
    eta0 + eps^2H int_0^t b and std eps^H |sigma|_t (at t_0 eta is eta0), over
    the PDE's domain and 12 std on either side of the mean, split at the x
    nodes.  psi and psi_x are read by np.interp, so beyond the domain they
    take its end values."""
    from scipy.integrate import quad
    from sfrbsde import bsde_solver as bs

    coeffs, gen = cfg.coefficient_set(), cfg.make_generator()
    field = bs.solve_psi(gen, cfg.make_terminal(), coeffs, cfg.epsilon, cfg.pde(), cfg.eta0)
    t, x = field.t_nodes, field.x_nodes
    mean = cfg.eta0 + cfg.epsilon ** (2.0 * coeffs.hurst.h) * coeffs.b_int_table
    std = cfg.epsilon**coeffs.hurst.h * np.sqrt(coeffs.sigma_abs_sq_table)
    sig1, sig2 = (np.asarray(sigma(t), dtype=float) for sigma in (coeffs.sigma1, coeffs.sigma2))

    def expect(k, h):
        """E h(eta, psi(t_k, eta), psi_x(t_k, eta)) at time node k."""
        def read(e):
            return h(e, np.interp(e, x, field.psi[k]), np.interp(e, x, field.psi_x[k]))
        m, s = mean[k], std[k]
        if s == 0.0:
            return float(read(m))
        lo, hi = min(x[0], m - 12.0 * s), max(x[-1], m + 12.0 * s)
        inner = x[(x > lo) & (x < hi)]
        density = lambda e: np.exp(-0.5 * ((e - m) / s) ** 2) / (s * np.sqrt(2.0 * np.pi))
        return quad(lambda e: read(e) * density(e), lo, hi, points=inner,
                    limit=2 * inner.size + 50, epsabs=1e-13, epsrel=1e-12)[0]

    summary = []
    for k in nodes:
        mean_y = expect(k, lambda e, y, y_x: y)
        slope = expect(k, lambda e, y, y_x: y_x)
        summary.append((t[k], mean_y, expect(k, lambda e, y, y_x: (y - mean_y) ** 2),
                        sig1[k] * slope, sig2[k] * slope))
    probes = [coeffs.grid.first_index_at_or_after(p)
              for p in (cfg.t_horizon / 4, cfg.t_horizon / 2, 3 * cfg.t_horizon / 4)]
    mean_f = [expect(k, lambda e, y, y_x, k=k: float(gen(t[k], e, y, sig1[k] * y_x,
                                                         sig2[k] * y_x)))
              for k in range(min(probes), t.size)]
    mean_y_end = expect(t.size - 1, lambda e, y, y_x: y)
    scale = cfg.epsilon ** (2.0 * coeffs.hurst.h)
    residuals = [(t[k0], abs(expect(k0, lambda e, y, y_x: y) - mean_y_end - scale
                             * np.trapezoid(mean_f[k0 - min(probes):], t[k0:])))
                 for k0 in probes]
    return np.array(summary), np.array(residuals)


def normal_tail_clamp_fraction(coeffs, epsilon, eta0, lo, hi):
    """The mean over nodes of P(eta_k outside [lo, hi]) under eta's Gaussian
    marginals, by scipy.stats.norm's tails; t_0, where eta = eta0, by the
    strict indicator."""
    from scipy.stats import norm

    mean = eta0 + epsilon ** (2.0 * coeffs.hurst.h) * coeffs.b_int_table
    std = epsilon**coeffs.hurst.h * np.sqrt(coeffs.sigma_abs_sq_table)
    tails = norm.cdf(lo, mean[1:], std[1:]) + norm.sf(hi, mean[1:], std[1:])
    return (tails.sum() + float(mean[0] < lo or mean[0] > hi)) / mean.size


def whole_ensemble_simulate_fbm(cfg, max_rows, max_nodes):
    """`simulate-fbm`'s paths.csv rows (at most `max_rows`) and covariance_check.csv
    rows, as arrays, from one whole-ensemble draw, the covariance by np.cov at
    every stride-th node counted back from t_n, the smallest stride that keeps
    at most `max_nodes` of them."""
    from sfrbsde.path_engine import fbm_covariance, make_ensemble, simulate_eta

    coeffs = cfg.coefficient_set()
    nodes = coeffs.grid.nodes
    ens = make_ensemble(coeffs.grid, coeffs.hurst, cfg.n_paths, cfg.rng())
    eta = simulate_eta(coeffs, ens, cfg.epsilon, cfg.eta0)
    keep = max(1, min(cfg.n_paths, max_rows // nodes.size))
    path_id, t = np.meshgrid(np.arange(keep), nodes, indexing="ij")
    paths = np.column_stack([a[:keep].ravel() for a in (path_id, t, ens.B, ens.BH, eta)])
    n = coeffs.grid.n_steps
    stride = next(s for s in range(1, n + 1) if len(range(n, 0, -s)) <= max_nodes)
    cols = np.arange(n, 0, -stride)[::-1]
    interior = nodes[cols]
    ana = fbm_covariance(interior, coeffs.hurst)
    emp = np.cov(ens.BH[:, cols].T)
    se = np.sqrt((np.outer(np.diag(ana), np.diag(ana)) + ana**2) / (cfg.n_paths - 1))
    t_j, t_k = np.meshgrid(interior, interior, indexing="ij")
    cov = np.column_stack([a.ravel() for a in (t_j, t_k, emp, ana, (emp - ana) / se)])
    return paths, cov


# Philox key purposes of the production samplers: B draws from 1, B^H from 2
PURPOSE_BM = 1
PURPOSE_FBM = 2


def per_path_generator(rng, purpose, path):
    """A fresh generator on one path's sub-stream: Philox keyed by
    (seed, purpose), counter (0, 0, 0, stream + path)."""
    key = np.array([rng.seed, purpose], dtype=np.uint64)
    counter = np.array([0, 0, 0, rng.stream + path], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def per_path_normals(rng, purpose, first_path, n_rows, n):
    return np.array([per_path_generator(rng, purpose, first_path + r).standard_normal(n)
                     for r in range(n_rows)])


def per_path_bm(grid, n_paths, rng):
    """Brownian increments, one generator per path."""
    return np.sqrt(grid.dt) * per_path_normals(rng, PURPOSE_BM, 0, n_paths, grid.n_steps)


def differenced_cholesky(cov):
    """D L: the rows of cov's lower Cholesky factor L differenced (row 0 kept).

    For the fBm covariance at t_1..t_n this is the second route to the fGn
    factor: the level covariance's condition number grows like n^2H, so its
    rounding does too, where production factors the fGn covariance itself."""
    chol = np.linalg.cholesky(cov)
    dl = chol.copy()
    dl[1:] = chol[1:] - chol[:-1]
    return dl


def fgn_covariance(grid, hurst):
    """The fGn covariance on the grid's steps: gamma(|j - k|) from the whole
    (n, n) lag matrix, where production indexes one length-n vector."""
    from sfrbsde.path_engine import fbm_increment_autocov

    steps = np.arange(grid.n_steps)
    return fbm_increment_autocov(np.abs(steps[:, None] - steps[None, :]), hurst, grid.dt)


def per_path_fbm_cholesky(grid, hurst, n_paths, rng):
    """Cholesky fGn from per-path normals and the fGn covariance factored here."""
    chol = np.linalg.cholesky(fgn_covariance(grid, hurst))
    return per_path_normals(rng, PURPOSE_FBM, 0, n_paths, grid.n_steps) @ chol.T


def per_path_fbm_circulant(grid, hurst, n_paths, rng):
    """Davies-Harte fGn, the Hermitian normals assembled path by path."""
    from sfrbsde.path_engine import circulant_eigenvalues

    n = grid.n_steps
    m = 2 * n
    y = np.empty((n_paths, m), dtype=complex)
    for p in range(n_paths):
        u = per_path_generator(rng, PURPOSE_FBM, p).standard_normal(m)
        row = y[p]
        row[0] = u[0]
        row[n] = u[1]
        row[1:n] = (u[2::2] + 1j * u[3::2]) / np.sqrt(2.0)
        row[m - 1:n:-1] = np.conj(row[1:n])
    sqrt_eig = np.sqrt(circulant_eigenvalues(n, hurst, grid.dt))
    return (np.fft.fft(sqrt_eig * y, axis=1).real / np.sqrt(m))[:, :n]


def level_route_noise(coeffs, B, BH):
    """eta's eps-free noise at t_1..t_n from path levels: each level array
    differenced, scaled and cumsummed on its own, then the two added."""
    left = coeffs.grid.nodes[:-1]
    noise = np.cumsum(np.diff(B, axis=1) * coeffs.sigma1(left), axis=1)
    noise += np.cumsum(np.diff(BH, axis=1) * coeffs.sigma2(left), axis=1)
    return noise
