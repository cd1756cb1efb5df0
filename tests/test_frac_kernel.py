import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfrbsde import frac_kernel
from sfrbsde.errors import (
    CoefficientError,
    QuadratureConvergenceError,
    SingularKernelError,
)
from sfrbsde.frac_kernel import (
    CoefficientSet,
    DeterministicFn,
    HurstModel,
    c0_const,
    c1_lower_bound,
    guarded_inner_product,
    inner_product,
    norm_sq,
    rho,
)
from sfrbsde.grids import TimeGrid

from oracles import (
    IP_USQ_SINU_H06_T1,
    S2HAT_SINUSOIDAL_H075_T1,
    brute_force_inner_product,
    brute_force_norm_sq,
    brute_force_sigma2_hat,
    monomial_norm_sq,
    mp_sinusoidal_kernel,
    sigma2_hat,
)

H75 = HurstModel(0.75)
ONE = DeterministicFn.const(1.0)
ZERO = DeterministicFn.const(0.0)
IDENT = DeterministicFn.linear(1.0)


def build_coeffs(sigma2=ONE, sigma1=ONE, b=ZERO, T=1.0, n=64, hurst=H75):
    return CoefficientSet.build(b, sigma1, sigma2, TimeGrid(T=T, n_steps=n), hurst)


class TestHurstModel:
    def test_bounds_enforced(self):
        for bad in (0.5, 1.0, 0.3, 1.2):
            with pytest.raises(ValueError):
                HurstModel(bad)

    def test_exponents(self):
        h = HurstModel(0.6)
        assert h.two_h == pytest.approx(1.2)
        assert -1 < h.two_h - 2 < 0


class TestRho:
    def test_direct_value(self):
        assert rho(2.0, 1.0, H75) == pytest.approx(0.375, abs=1e-15)

    def test_symmetry_case(self):
        assert rho(1.0, 2.0, H75) == pytest.approx(0.375, abs=1e-15)

    def test_high_precision_oracle(self):
        import mpmath as mp

        mp.mp.dps = 30
        want = float(mp.mpf("0.6") * mp.mpf("0.2") * mp.mpf("0.25") ** mp.mpf("-0.8"))
        assert rho(1.25, 1.0, HurstModel(0.6)) == pytest.approx(want, rel=1e-14)

    def test_diagonal_rejected(self):
        with pytest.raises(SingularKernelError):
            rho(1.0, 1.0, H75)
        with pytest.raises(SingularKernelError):
            rho(np.array([1.0, 2.0]), np.array([1.0, 3.0]), H75)

    @given(st.floats(0.01, 10.0), st.floats(0.01, 5.0), st.floats(0.51, 0.99))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_positive(self, t, gap, h):
        model = HurstModel(h)
        a, b = rho(t + gap, t, model), rho(t, t + gap, model)
        assert a == b
        assert a > 0


class TestInnerProduct:
    def test_constant_closed_form(self):
        assert inner_product(ONE, ONE, 1.0, H75) == pytest.approx(1.0, rel=1e-10)

    def test_zero_function(self):
        assert inner_product(ZERO, IDENT, 1.0, H75) == 0.0

    def test_monomial_closed_form(self):
        # hand derivation: <id, id>_t = t^(2H+2)/(2H+2); 2/7 at H=0.75, t=1
        got = inner_product(IDENT, IDENT, 1.0, H75)
        assert got == pytest.approx(2.0 / 7.0, rel=1e-10)
        assert got == pytest.approx(monomial_norm_sq(1.0, 0.75), rel=1e-10)

    def test_brute_force_oracle_agreement(self):
        got = inner_product(IDENT, IDENT, 1.0, H75)
        oracle = brute_force_inner_product(lambda u: u, lambda u: u, 1.0, 0.75)
        assert got == pytest.approx(oracle, abs=1e-6)

    def test_mpmath_frozen_value(self):
        xi = DeterministicFn(fn=lambda t: t**2, name="t^2")
        eta = DeterministicFn(fn=np.sin, name="sin")
        got = inner_product(xi, eta, 1.0, HurstModel(0.6))
        assert got == pytest.approx(IP_USQ_SINU_H06_T1, rel=1e-8)

    def test_refinement_failure_raises(self):
        rough = DeterministicFn(fn=lambda t: np.sin(200.0 * t**2), name="rough")
        with pytest.raises(QuadratureConvergenceError) as err:
            inner_product(rough, rough, 1.0, H75)
        assert err.value.coarse != err.value.fine

    @given(st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=20, deadline=None)
    def test_bilinearity(self, a, b):
        xi1, xi2 = IDENT, DeterministicFn(fn=np.cos, name="cos")
        eta = DeterministicFn(fn=lambda t: 1.0 + 0.5 * t, name="affine")
        combo = DeterministicFn(fn=lambda t: a * t + b * np.cos(t), name="combo")
        lhs = inner_product(combo, eta, 1.0, H75)
        rhs = a * inner_product(xi1, eta, 1.0, H75) + b * inner_product(
            xi2, eta, 1.0, H75
        )
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @given(
        st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)),
        st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)),
        st.floats(0.55, 0.95),
    )
    @settings(max_examples=25, deadline=None)
    def test_cauchy_schwarz(self, c1, c2, h):
        model = HurstModel(h)
        xi = DeterministicFn(fn=lambda t: c1[0] + c1[1] * t + c1[2] * t**2)
        eta = DeterministicFn(fn=lambda t: c2[0] + c2[1] * t + c2[2] * t**2)
        ip = inner_product(xi, eta, 1.0, model)
        assert ip**2 <= norm_sq(xi, 1.0, model) * norm_sq(eta, 1.0, model) + 1e-9


class TestNormSq:
    @pytest.mark.parametrize("h", [0.6, 0.75, 0.9])
    @pytest.mark.parametrize("t", [0.25, 1.0, 2.0])
    @pytest.mark.parametrize("c", [1.0, 3.0])
    def test_constant_closed_form(self, h, t, c):
        got = norm_sq(DeterministicFn.const(c), t, HurstModel(h))
        assert got == pytest.approx(c**2 * t ** (2 * h), rel=1e-8)

    def test_zero(self):
        assert norm_sq(ZERO, 1.0, H75) == 0.0

    def test_monotone_in_t(self):
        xi = DeterministicFn(fn=lambda t: 1.0 + t, name="pos")
        values = [norm_sq(xi, t, H75) for t in (0.25, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_brute_force_oracle(self):
        xi = DeterministicFn(fn=lambda t: np.exp(-t), name="decay")
        got = norm_sq(xi, 1.5, HurstModel(0.65))
        oracle = brute_force_norm_sq(lambda u: np.exp(-u), 1.5, 0.65)
        assert got == pytest.approx(oracle, abs=1e-6)


class TestSigma2Hat:
    def test_constant_closed_form(self):
        coeffs = build_coeffs()
        assert sigma2_hat(1.0, coeffs) == pytest.approx(0.75, rel=1e-12)

    def test_constant_closed_form_t4(self):
        coeffs = build_coeffs(T=4.0)
        assert sigma2_hat(4.0, coeffs) == pytest.approx(1.5, rel=1e-12)

    def test_zero_sigma2(self):
        coeffs = build_coeffs(sigma2=ZERO)
        assert sigma2_hat(1.0, coeffs) == 0.0

    def test_sinusoidal_mpmath_oracle(self):
        coeffs = build_coeffs(sigma2=DeterministicFn.sinusoidal(1.0, 1.0))
        assert sigma2_hat(1.0, coeffs) == pytest.approx(S2HAT_SINUSOIDAL_H075_T1, rel=1e-9)

    def test_graded_mesh_scheme_agrees(self):
        got = brute_force_sigma2_hat(DeterministicFn.sinusoidal(1.0, 1.0), 1.0, 0.75, panels=2048)
        assert got == pytest.approx(S2HAT_SINUSOIDAL_H075_T1, abs=1e-5)


class TestGaussJacobi:
    # int_0^1 (1-x)^a x^b x^k dx = B(a+1, b+k+1), for every degree k < 2m
    @pytest.mark.parametrize("h", [0.501, 0.75, 0.99])
    @pytest.mark.parametrize("axis", ["inner", "outer"])
    def test_exact_on_jacobi_moments(self, h, axis):
        s = 2.0 * h - 1.0
        a, b = (s - 1.0, 0.0) if axis == "inner" else (0.0, s)
        m = frac_kernel._NODES
        x, w = frac_kernel._unit_gauss_jacobi(m, a, b)
        for k in range(2 * m):
            want = math.exp(math.lgamma(a + 1) + math.lgamma(b + k + 1)
                            - math.lgamma(a + b + k + 2))
            assert w @ x**k == pytest.approx(want, rel=1e-13), k


class TestSeriesOracle:
    def test_oracle_reproduces_the_frozen_value(self):
        assert mp_sinusoidal_kernel(0.75)[0] == pytest.approx(S2HAT_SINUSOIDAL_H075_T1, rel=1e-15)

    @pytest.mark.parametrize("h", [0.501, 0.75])
    def test_sinusoidal_sigma2_hat_and_norm(self, h):
        sigma2 = DeterministicFn.sinusoidal(1.0, 1.0)
        want_hat, want_norm = mp_sinusoidal_kernel(h)
        coeffs = build_coeffs(sigma2=sigma2, hurst=HurstModel(h))
        assert coeffs.sigma2_hat_table[-1] == pytest.approx(want_hat, rel=1e-13)
        assert coeffs.norm_sq_table[-1] == pytest.approx(want_norm, rel=1e-13)
        assert norm_sq(sigma2, 1.0, HurstModel(h)) == pytest.approx(want_norm, rel=1e-13)


class TestCoefficientSet:
    def test_sigma_abs_sq_pure_brownian(self):
        coeffs = build_coeffs(sigma2=ZERO)
        abs_sq = np.interp(0.7, coeffs.grid.nodes, coeffs.sigma_abs_sq_table)
        assert abs_sq == pytest.approx(0.7, rel=1e-12)
        assert np.interp(0.7, coeffs.grid.nodes, coeffs.lam_table) == pytest.approx(1.0, rel=1e-12)

    def test_sigma_abs_sq_pure_fractional(self):
        coeffs = build_coeffs(sigma1=ZERO)
        assert coeffs.sigma_abs_sq_table[-1] == pytest.approx(1.0, rel=1e-8)
        # lambda = sigma1^2 + 2 sigma2 sigma2_hat = 2H t^(2H-1)
        t = coeffs.grid.nodes
        want = ZERO(t) ** 2 + 2.0 * ONE(t) * coeffs.sigma2_hat_table
        assert np.array_equal(coeffs.lam_table, want)
        assert coeffs.lam_table[-1] == pytest.approx(1.5, rel=1e-10)

    def test_sigma_abs_sq_sum(self):
        coeffs = build_coeffs()
        assert coeffs.sigma_abs_sq_table[-1] == pytest.approx(2.0, rel=1e-8)

    def test_fd_consistency_recorded(self):
        coeffs = build_coeffs(sigma2=DeterministicFn.sinusoidal(1.0, 1.0), n=128)
        assert coeffs.fd_rel_error <= 1e-3

    @pytest.mark.parametrize("hurst, rtol", [(0.501, 1e-10), (0.51, 1e-10), (0.75, 1e-13),
                                             (0.95, 1e-13)])
    def test_norm_table_at_T_matches_closed_form(self, hurst, rtol):
        # ||1||^2_1 = 1; both Gauss-Jacobi rules are exact for constants
        coeffs = build_coeffs(n=256, hurst=HurstModel(hurst))
        assert coeffs.norm_sq_table[-1] == pytest.approx(1.0, rel=rtol)

    def test_no_per_node_kernel_work(self, monkeypatch):
        real = frac_kernel.kernel_transform
        calls = []
        monkeypatch.setattr(frac_kernel, "kernel_transform",
                            lambda *args: calls.append(1) or real(*args))
        counts = []
        for n in (8, 256, 1024):
            calls.clear()
            build_coeffs(sigma2=DeterministicFn.sinusoidal(1.0, 1.0), n=n)
            counts.append(len(calls))
        assert counts[0] == counts[1] == counts[2]

    def test_strictly_increasing_table(self):
        coeffs = build_coeffs(sigma2=DeterministicFn.sinusoidal(2.0, 1.0))
        assert np.all(np.diff(coeffs.sigma_abs_sq_table) > 0)
        assert np.all(coeffs.lam_table[1:] > 0)

    def test_vanishing_sigma_rejected(self):
        crossing = DeterministicFn(fn=lambda t: np.sin(2 * np.pi * t), name="crossing")
        with pytest.raises(CoefficientError):
            build_coeffs(sigma2=crossing)

    # an infinite sigma used to be reported as vanishing, and a non-finite b
    # built a set whose tables were NaN
    @pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("which", ["b", "sigma1", "sigma2"])
    def test_non_finite_coefficient_named(self, which, value):
        bad = DeterministicFn.const(value, name="bad")
        with pytest.raises(CoefficientError, match=rf"^{which}=bad is not finite"):
            build_coeffs(**{which: bad})

    def test_tables_readonly(self):
        coeffs = build_coeffs()
        with pytest.raises(ValueError):
            coeffs.lam_table[0] = 99.0


class TestC1:
    def test_constant_sigma2(self):
        coeffs = build_coeffs(n=256)
        # ratio H t^(2H-1) is increasing, so the min sits at t0
        assert c1_lower_bound(coeffs, 0.25) == pytest.approx(0.375, rel=1e-6)

    def test_t0_equal_T(self):
        coeffs = build_coeffs(n=256)
        assert c1_lower_bound(coeffs, 1.0) == pytest.approx(0.75, rel=1e-9)

    def test_scale_invariance(self):
        a = c1_lower_bound(build_coeffs(n=128), 0.25)
        b = c1_lower_bound(build_coeffs(sigma2=DeterministicFn.const(3.0), n=128), 0.25)
        assert a == pytest.approx(b, rel=1e-12)

    def test_invalid_t0(self):
        coeffs = build_coeffs()
        with pytest.raises(ValueError):
            c1_lower_bound(coeffs, 0.0)

    # C1's first node is the window start's rule, TimeGrid.first_index_at_or_after
    @pytest.mark.parametrize("offset", [-1e-13, 1e-13], ids=["below", "above"])
    def test_t0_within_rounding_of_a_node_takes_that_node(self, offset):
        coeffs = build_coeffs(n=256)
        node = coeffs.grid.nodes[64]
        t0 = node + offset * coeffs.grid.dt
        assert t0 != node
        assert c1_lower_bound(coeffs, t0) == c1_lower_bound(coeffs, node)


class TestC0:
    def test_values(self):
        assert c0_const(H75, 1.0) == pytest.approx(0.75)
        assert c0_const(H75, 4.0) == pytest.approx(1.5)

    @given(st.floats(0.51, 0.99))
    @settings(max_examples=20, deadline=None)
    def test_unit_horizon(self, h):
        assert c0_const(HurstModel(h), 1.0) == pytest.approx(h)


class TestRefinementGuard:
    def test_doubling_converged(self):
        value, drift = guarded_inner_product(IDENT, IDENT, 1.0, H75)
        assert value == inner_product(IDENT, IDENT, 1.0, H75)
        assert drift < 1e-8

    # about 64 half-periods on [0, 1]: doubling the rule's 32 nodes moves
    # ||sigma2||^2_1 by about 0.56, far beyond the guard's 1e-8
    def test_build_refuses_an_unconverged_table(self):
        rough = DeterministicFn(fn=lambda t: 1.5 + np.sin(200.0 * t**2), name="rough")
        with pytest.raises(QuadratureConvergenceError) as err:
            build_coeffs(sigma2=rough, hurst=HurstModel(0.51))
        assert err.value.tol == frac_kernel.REFINE_TOL

    def test_table_is_the_rule_of_inner_product(self):
        # every node of the table is inner_product's rule, in one vectorised call
        # whose sums run in another order than the scalar call's
        sigma2 = DeterministicFn.sinusoidal(1.0, 1.0)
        coeffs = build_coeffs(sigma2=sigma2, n=8)
        want = np.array([inner_product(sigma2, sigma2, t, H75) for t in coeffs.grid.nodes[1:]])
        assert coeffs.norm_sq_table[0] == 0.0
        assert coeffs.norm_sq_table[1:] == pytest.approx(want, rel=1e-14, abs=0.0)
