"""Independent oracles used to freeze expected values.

Nothing here imports production quadrature code: the double integral is done
by plain product integration (the singular factor integrated exactly per
panel, the smooth factor at panel midpoints) on meshes graded toward the
singularity.  Deliberately simple and slow.  The per-node f-bar and the
per-column extraction are the loop forms of two vectorised production layers,
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


def per_node_fbar(gen, T, panels=64):
    """(1/T) int_0^T f(s, .) ds by composite GL-4, one call of f per node.

    The same nodes and weights as the production quadrature, accumulated
    node by node with scalar s; the production route makes one broadcast
    call over all nodes instead.
    """
    gx, gw = np.polynomial.legendre.leggauss(4)
    edges = np.linspace(0.0, T, min(panels, 64) + 1)
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


def per_column_triple(x_nodes, psi, psi_x, eta, sig1, sig2):
    """(Y, Z1, Z2) along eta by two np.interp calls per time column."""
    Y = np.empty_like(eta)
    Z1 = np.empty_like(eta)
    Z2 = np.empty_like(eta)
    for k in range(eta.shape[1]):
        Y[:, k] = np.interp(eta[:, k], x_nodes, psi[k])
        slope = np.interp(eta[:, k], x_nodes, psi_x[k])
        Z1[:, k] = sig1[k] * slope
        Z2[:, k] = sig2[k] * slope
    return Y, Z1, Z2
