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
extract_triple's grid-unit read bit for bit), the whole-ensemble sweep is
the array form of the streamed one, and the per-path samplers draw each path
from a freshly built generator where production resets one bit generator per
chunk, and the alpha0 bisection is the numeric root finder beside
production's closed form, the closed-form f-bar of the benchmark generator
is the analytic route beside production's quadrature, and the level route of
eta's noise (each level array differenced back into increments) is the
second route beside production's one cumsum of increments; all are kept here
as cross-checks.
"""

import math

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
        "mean_sup_sq": float((sup_abs**2).mean()),
        "path_sup_abs": sup_abs,
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
    both triples extracted in full, statistics from the arrays."""
    from sfrbsde import averaging_lab as al
    from sfrbsde.bsde_solver import extract_triple, solve_psi
    from sfrbsde.path_engine import make_ensemble, simulate_eta

    grid, T, hurst = coeffs.grid, coeffs.grid.T, coeffs.hurst
    t0 = cfg.t0 if cfg.t0 is not None else 0.75 * T
    ensemble = make_ensemble(grid, hurst, cfg.n_paths, cfg.rng)
    fbar = al.build_fbar(original, T, al.QuadratureSpec())
    averaged = fbar.as_generator()
    L = al.estimate_lipschitz(original, T)
    C1 = al.c1_lower_bound(coeffs, t0)
    phi = al.estimate_phi(original, fbar, T)
    stats = []
    for epsilon in eps_list:
        trip_o = extract_triple(solve_psi(original, term, coeffs, epsilon, cfg.pde, cfg.eta0),
                                simulate_eta(coeffs, ensemble, epsilon, cfg.eta0), coeffs)
        trip_a = extract_triple(solve_psi(averaged, term, coeffs, epsilon, cfg.pde, cfg.eta0),
                                trip_o.eta, coeffs)
        i_lo = min(grid.first_index_at_or_after(T * epsilon ** (1.0 - cfg.beta)),
                   grid.n_steps - 1)
        u = float(grid.nodes[i_lo])
        dZ_sq = (trip_o.Z1 - trip_a.Z1) ** 2 + (trip_o.Z2 - trip_a.Z2) ** 2
        raw = array_window_stats(grid, i_lo, trip_o.Y - trip_a.Y, dZ_sq,
                                 trip_a.Y, trip_a.Z1, trip_a.Z2)
        constants = al.compute_constants(L, C1, phi, u, T, epsilon, cfg.beta,
                                         hurst, raw.pop("moments"))
        stats.append(al.PerEpsilonStats(epsilon=epsilon, t_lo=u, constants=constants, **raw))
    delta2 = cfg.delta2
    if delta2 is None:
        delta2 = 2.0 * math.sqrt(max(s.sup_mse for s in stats)) or 1.0
    for s in stats:
        exceed = s.path_sup_abs > delta2
        s.exceed_prob = float(exceed.mean())
        s.exceed_stderr = math.sqrt(max(s.exceed_prob * (1.0 - s.exceed_prob), 0.0)
                                    / exceed.size)
    report = al.SweepReport(eps_list=tuple(eps_list), T=T, beta=cfg.beta, delta1=cfg.delta1,
                            delta2=float(delta2), t0=t0, L=L, C1=C1, phi_bound=phi,
                            n_paths=cfg.n_paths, stats=stats, fbar_panels=fbar.panels)
    al.check_lemma1(report)
    al.check_theorem_rate(report)
    al.check_chebyshev(report)
    return report


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
    """D L: the rows of cov's lower Cholesky factor L differenced (row 0 kept)."""
    chol = np.linalg.cholesky(cov)
    dl = chol.copy()
    dl[1:] = chol[1:] - chol[:-1]
    return dl


def per_path_fbm_cholesky(grid, hurst, n_paths, rng):
    """Cholesky fGn from per-path normals and a D L factored here."""
    from sfrbsde.path_engine import fbm_covariance

    dl = differenced_cholesky(fbm_covariance(grid.nodes[1:], hurst))
    return per_path_normals(rng, PURPOSE_FBM, 0, n_paths, grid.n_steps) @ dl.T


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
