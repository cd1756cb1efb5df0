import math
import threading
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfrbsde import averaging_lab, cli, path_engine
from sfrbsde.averaging_lab import (
    BOX_HALF_WIDTH,
    AveragingConstants,
    PerEpsilonStats,
    QuadratureSpec,
    SweepConfig,
    SweepReport,
    box_points,
    build_fbar,
    check_chebyshev,
    claim_verdicts,
    check_lemma1,
    check_theorem_rate,
    compute_constants,
    estimate_lipschitz,
    estimate_phi,
    run_sweep,
    solve_alpha0,
)
from sfrbsde.bsde_solver import (
    Generator,
    PdeConfig,
    TerminalCondition,
    block_rows,
    domain_bounds,
    solve_psi,
    solve_psis,
)
from sfrbsde.config import BENCHMARK_COEFFS, benchmark_generator, parse_config
from sfrbsde.errors import (
    ConfigError,
    ContractError,
    DomainTooSmallError,
    InfeasibleAlphaError,
    QuadratureConvergenceError,
)
from sfrbsde.frac_kernel import CoefficientSet, DeterministicFn, HurstModel
from sfrbsde.grids import TimeGrid
from sfrbsde.path_engine import RngSpec, eta_noise, make_ensemble, simulate_eta

from oracles import (
    benchmark_fbar,
    bisect_alpha0,
    per_node_fbar,
    table_phi,
    whole_ensemble_sweep,
)

H75 = HurstModel(0.75)
QUAD = QuadratureSpec()
ONE = DeterministicFn.const(1.0)
ZERO = DeterministicFn.const(0.0)


def sample_points(n=128, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-3, 3, n) for _ in range(4)]


class TestBuildFbar:
    def test_full_period_sine_averages_out(self):
        for k in (1, 2, 5):
            gen = Generator(
                fn=lambda t, x, y, z1, z2, k=k: (1.0 + np.sin(2 * np.pi * k * t))
                * (0.5 * np.asarray(y) + 0.1),
                name="sin-mod",
            )
            fbar = build_fbar(gen, 1.0, QUAD)
            x, y, z1, z2 = sample_points()
            assert np.allclose(fbar(x, y, z1, z2), 0.5 * y + 0.1, atol=1e-9)

    def test_time_independent_passthrough(self):
        gen = Generator(fn=lambda t, x, y, z1, z2: np.asarray(y) * 2.0,
                        name="flat", time_dependent=False)
        fbar = build_fbar(gen, 1.0, QUAD)
        assert fbar.provenance == "analytic"
        assert fbar.panels == 0
        x, y, z1, z2 = sample_points()
        assert np.array_equal(fbar(x, y, z1, z2), gen(0.0, x, y, z1, z2))

    def test_linear_time_factor_halves(self):
        gen = Generator(fn=lambda t, x, y, z1, z2: t * (np.asarray(y) + np.asarray(z1)),
                        name="ramp")
        fbar = build_fbar(gen, 1.0, QUAD)
        x, y, z1, z2 = sample_points()
        assert np.allclose(fbar(x, y, z1, z2), 0.5 * (y + z1), atol=1e-10)

    def test_benchmark_matches_analytic_average(self):
        gen = benchmark_generator(1.0)
        fbar = build_fbar(gen, 1.0, QUAD)
        analytic = benchmark_fbar()
        x, y, z1, z2 = sample_points()
        assert np.allclose(fbar(x, y, z1, z2), analytic(x, y, z1, z2), atol=1e-9)


def within_quad_tol(got, want, tol=QUAD.tol):
    return np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))


class TestQuadratureSpec:
    def test_panel_floor(self):
        with pytest.raises(ValueError):
            QuadratureSpec(panels=4)


class TestFbarPanels:
    """build_fbar picks its panel count once, from 8 up, by refinement on the probe set."""

    def test_benchmark_takes_the_floor(self):
        fbar = build_fbar(benchmark_generator(1.0), 1.0, QUAD)
        assert fbar.panels == 8
        assert fbar.provenance == "quadrature-of-f"
        pts = box_points()
        assert within_quad_tol(fbar(*pts), benchmark_fbar()(*pts), tol=1e-13)

    def test_smooth_mixed_generator_meets_tolerance(self):
        gen = FBAR_GENERATORS["x-and-t"]
        fbar = build_fbar(gen, 1.0, QUAD)
        pts = [a[:33] for a in box_points()]
        assert within_quad_tol(fbar(*pts), per_node_fbar(gen, 1.0, 4096)(*pts))

    def test_fast_oscillation_refines(self):
        gen = Generator(fn=lambda t, x, y, z1, z2: (1.0 + np.sin(2 * np.pi * 20.5 * t))
                        * np.asarray(y), name="fast")
        fbar = build_fbar(gen, 1.0, QUAD)
        assert 8 < fbar.panels <= QUAD.panels
        # (1/T) int_0^1 sin(2 pi 20.5 t) dt = 2 / (41 pi)
        x, y, z1, z2 = box_points()
        assert within_quad_tol(fbar(x, y, z1, z2), (1.0 + 2.0 / (41.0 * np.pi)) * y)
        with pytest.raises(QuadratureConvergenceError):
            build_fbar(gen, 1.0, QuadratureSpec(panels=fbar.panels // 2))

    def test_unresolved_generator_raises(self):
        # the sqrt(t) cusp converges like h^1.5: never to 1e-8 within 256 panels
        gen = Generator(fn=lambda t, x, y, z1, z2: np.sqrt(t) * np.asarray(y), name="sqrt-t")
        with pytest.raises(QuadratureConvergenceError) as err:
            build_fbar(gen, 1.0, QUAD)
        assert err.value.tol == QUAD.tol
        assert abs(err.value.fine - err.value.coarse) > QUAD.tol


FBAR_GENERATORS = {
    "benchmark": benchmark_generator(1.0),
    # t ignored but declared time-dependent: the quadrature route must still
    # broadcast the state-shaped result over the node axis
    "t-ignoring": replace(Generator.linear_y(0.3), time_dependent=True),
    "t-ignoring-constant": Generator(
        fn=lambda t, x, y, z1, z2: np.full_like(np.asarray(y, dtype=float), 0.7),
        name="const"),
    "x-and-t": Generator(
        fn=lambda t, x, y, z1, z2: np.cos(3.0 * t + np.asarray(x)) * np.asarray(z2)
        + t**2 * np.asarray(y),
        name="mixed"),
}


def assert_fbar_matches_oracle(gen, T, args):
    fbar = build_fbar(gen, T, QUAD)
    got = fbar(*args)
    want = per_node_fbar(gen, T, fbar.panels)(*args)
    assert np.shape(got) == np.shape(want)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


class TestFbarOracle:
    """The broadcast f-bar against the per-node loop it replaces."""

    @pytest.mark.parametrize("name", sorted(FBAR_GENERATORS))
    def test_arrays(self, name):
        assert_fbar_matches_oracle(FBAR_GENERATORS[name], 1.0, sample_points(n=257))

    @pytest.mark.parametrize("name", sorted(FBAR_GENERATORS))
    def test_scalars(self, name):
        assert_fbar_matches_oracle(FBAR_GENERATORS[name], 1.0, (0.3, -1.2, 0.4, 2.0))

    @pytest.mark.parametrize("name", sorted(FBAR_GENERATORS))
    def test_mixed_shapes(self, name):
        _, y, z1, _ = sample_points(n=24)
        assert_fbar_matches_oracle(FBAR_GENERATORS[name], 1.0,
                                   (0.5, y.reshape(4, 6), z1.reshape(4, 6), 1.5))

    @given(st.floats(0.1, 5.0), st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_benchmark_any_horizon(self, T, seed):
        assert_fbar_matches_oracle(benchmark_generator(T), T, sample_points(n=33, seed=seed))


class TestBoxPoints:
    def test_draws_then_corners_then_origin(self):
        pts = np.stack(box_points(), axis=1)
        assert pts.shape == (2065, 4)
        assert np.all(np.abs(pts) <= BOX_HALF_WIDTH)
        w = (-BOX_HALF_WIDTH, BOX_HALF_WIDTH)
        corners = {tuple(c) for c in pts[2048:2064]}
        assert corners == {(sx, sy, sz, sw) for sx in w for sy in w for sz in w for sw in w}
        assert np.array_equal(pts[-1], np.zeros(4))


def benchmark_phi(T):
    """phi of the benchmark generator on the probe set, in closed form.

    f - fbar = sin(2 pi s / T) g with g = a y + b z1 + c z2 + d, and the mean
    of sin^2 over [kT/16, T] is 1/2 + sin(4 pi k / 16) / (8 pi (1 - k/16)).
    """
    a, b, c, d = BENCHMARK_COEFFS
    x, y, z1, z2 = box_points()
    g = a * y + b * z1 + c * z2 + d
    k = np.arange(16)
    mean_sin_sq = 0.5 + np.sin(4 * np.pi * k / 16) / (8 * np.pi * (1 - k / 16))
    return mean_sin_sq.max() * (g**2 / (1.0 + y**2 + z1**2 + z2**2)).max()


class TestEstimatePhi:
    def test_time_independent_is_zero(self):
        gen = Generator(fn=lambda t, x, y, z1, z2: np.asarray(y) * 0.7 - 0.1,
                        name="flat", time_dependent=False)
        fbar = build_fbar(gen, 1.0, QUAD)
        assert estimate_phi(gen, fbar, 1.0) == 0.0

    @pytest.mark.parametrize("T", [1.0, 2.5])
    def test_benchmark_closed_form(self, T):
        gen = benchmark_generator(T)
        got = estimate_phi(gen, build_fbar(gen, T, QUAD), T)
        assert got == pytest.approx(benchmark_phi(T), rel=1e-5)

    @pytest.mark.parametrize("chunk", [1, 2, 63, 64, 65, 66, 130, 1024, 1025])
    def test_streamed_matches_whole_table(self, chunk, monkeypatch):
        # chunk edges fall on, inside and beside the window starts (every 64
        # nodes); 1024 and 1025 take the whole range in one chunk
        monkeypatch.setattr(averaging_lab, "PHI_CHUNK_NODES", chunk)
        gen = FBAR_GENERATORS["x-and-t"]
        fbar = build_fbar(gen, 1.0, QUAD)
        assert estimate_phi(gen, fbar, 1.0) == table_phi(gen, fbar, 1.0)

    def test_memory_with_default_sampler(self):
        gen = benchmark_generator(1.0)
        fbar = build_fbar(gen, 1.0, QUAD)
        tracemalloc.start()
        try:
            estimate_phi(gen, fbar, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestEstimateLipschitz:
    def test_pure_y_slope(self):
        gen = Generator(fn=lambda t, x, y, z1, z2: 0.8 * np.asarray(y), name="ay")
        got = estimate_lipschitz(gen, 1.0)
        assert got == pytest.approx(0.64, rel=0.05)
        assert got <= 0.64 + 1e-12

    def test_linear_combination_bound(self):
        a, b, c = 0.5, 0.25, 0.25
        gen = Generator(fn=lambda t, x, y, z1, z2: a * np.asarray(y)
                        + b * np.asarray(z1) + c * np.asarray(z2), name="abc")
        got = estimate_lipschitz(gen, 1.0)
        want = a**2 + b**2 + c**2
        assert got <= want + 1e-12
        assert got >= 0.5 * want

    def test_constant_generator(self):
        gen = Generator(fn=lambda t, x, y, z1, z2: np.full_like(np.asarray(y, dtype=float), 3.0),
                        name="const")
        assert estimate_lipschitz(gen, 1.0) == 0.0

    def test_declared_value_returned(self):
        gen = benchmark_generator(1.0)
        got = estimate_lipschitz(gen, 1.0)
        assert got == 4.0 * (0.5**2 + 0.25**2 + 0.25**2)

    def test_declared_violation_raises(self):
        gen = Generator(fn=lambda t, x, y, z1, z2: 2.0 * np.asarray(y),
                        name="lying", lipschitz_sq=0.1)
        with pytest.raises(ContractError):
            estimate_lipschitz(gen, 1.0)


class TestSolveAlpha0:
    def test_hand_case_single_branch(self):
        # C1 = 1, L = 2, eps^H = 0.5: (0.5/a)(a - 1) = 0.25 => a = 2
        eps = 0.5 ** (1.0 / 0.75)
        a = solve_alpha0(2.0, 1.0, eps, H75)
        assert a == pytest.approx(2.0, rel=1e-10)
        assert abs((0.5 / a) * (a - 1.0) - 0.25) <= 1e-12

    def test_hand_case_min_branch(self):
        # C1 = 2 >= 1 so the binding brace is a - L eps^H:
        # eps^H = 0.25: (0.25/a)(a - 0.5) = 0.0625 => a = 2/3
        eps = 0.25 ** (1.0 / 0.75)
        a = solve_alpha0(2.0, 2.0, eps, H75)
        assert a == pytest.approx(2.0 / 3.0, rel=1e-10)

    def test_asymptotic_small_eps(self):
        for eps in (1e-2, 1e-3):
            a = solve_alpha0(2.0, 0.8, eps, H75)
            assert a / eps**0.75 == pytest.approx(2.0 / 0.8, rel=0.05)

    @pytest.mark.parametrize("L", [0.3, 1.5, 4.0])
    @pytest.mark.parametrize("c1", [0.4, 0.9, 2.5])
    def test_closed_form_cross_check(self, L, c1):
        for eps in (0.05, 0.2):
            if eps**0.75 >= min(1.0, c1):
                continue
            root, _ = bisect_alpha0(L, c1, eps, 0.75)
            assert solve_alpha0(L, c1, eps, H75) == pytest.approx(root, rel=1e-10)

    def test_infeasible_reports_max_eps(self):
        with pytest.raises(InfeasibleAlphaError) as err:
            solve_alpha0(1.5, 0.1, 0.5, H75)
        assert err.value.max_feasible_eps == pytest.approx(0.1 ** (1 / 0.75), rel=1e-12)

    def test_degenerate_zero_lipschitz(self):
        assert solve_alpha0(0.0, 0.9, 0.25, H75) == 0.0


class TestComputeConstants:
    def test_phi_zero_collapses(self):
        cons = compute_constants(1.5, 0.8, 0.0, 0.25, 1.0, 0.3, 0.25, H75, (0.5, 0.5, 0.5))
        assert cons.C2 == 0.0
        assert cons.C3 == 0.0
        assert cons.L1 == pytest.approx(cons.alpha0 + 1.5 / cons.alpha0)

    def test_plugin_values(self):
        cons = compute_constants(1.0, 0.9, 1.0, 0.0, 1.0, 0.3, 0.25, H75, (0.0, 0.0, 0.0))
        assert cons.C2 == pytest.approx(1.0, rel=1e-12)
        assert cons.C3 == pytest.approx(4.0, rel=1e-12)

    def test_worked_constant_set(self):
        # independent plug-in evaluation of the printed formulas
        L, c1, phi, u, T, eps, beta = 1.5, 0.65, 0.25, 0.59, 1.0, 0.5, 0.25
        moments = (0.4, 0.3, 0.2)
        h = 0.75
        cons = compute_constants(L, c1, phi, u, T, eps, beta, H75, moments)

        S = 1.0 + sum(moments)
        C2 = math.sqrt((T - u) * phi * S)
        C3 = 4.0 * phi * S
        e = eps**h
        alpha0 = L * e / (min(1.0, c1) - e)
        L1 = alpha0 + L / alpha0 + C2
        C0 = h * T ** (2 * h - 1)
        e2h, e4h = eps ** (2 * h), eps ** (4 * h)
        bracket = (4 * (T - u) * L * e2h + 2 * h * T ** (2 * h - 1)) * C2 * (T - u) \
            + C3 * (T - u) ** 2 * e2h + 4 * C0 * T**2
        expo = (T - u) * (4 * (T - u) * L * e4h * (L1 + 1) + 2 * L1 * e2h * h * T ** (2 * h - 1))
        C4 = bracket * eps ** (2 * h * (1 + beta) - 1) * math.exp(expo)

        assert cons.C2 == pytest.approx(C2, rel=1e-12)
        assert cons.C3 == pytest.approx(C3, rel=1e-12)
        assert cons.alpha0 == pytest.approx(alpha0, rel=1e-10)
        assert cons.L1 == pytest.approx(L1, rel=1e-10)
        assert cons.C0 == pytest.approx(C0, rel=1e-12)
        assert cons.C4 == pytest.approx(C4, rel=1e-9)
        assert cons.theorem_bound == pytest.approx(C4 * eps ** (1 - 2 * h * beta), rel=1e-9)

    def test_beta_side_condition(self):
        # beta >= 1/(2H) = 2/3, and a negative beta
        for beta in (0.7, -0.1):
            with pytest.raises(ValueError, match="beta"):
                compute_constants(1.0, 0.9, 0.1, 0.0, 1.0, 0.3, beta, H75, (0, 0, 0))


def synthetic_report(eps, mse, T=1.0, beta=0.0, bounds=None, exceed=None,
                     mean_sup_sq=None, delta1=1.0, delta2=1.0):
    stats = []
    for i, (e, m) in enumerate(zip(eps, mse)):
        cons = compute_constants(1.0, 0.9, 0.0, 0.0, T, e, beta, H75, (0, 0, 0))
        if bounds is not None:
            object.__setattr__(cons, "C4", bounds[i] / e ** (1 - 2 * H75.h * beta))
            object.__setattr__(cons, "theorem_bound", bounds[i])
        stats.append(PerEpsilonStats(
            epsilon=e, t_lo=0.0, sup_mse=m, sup_mse_stderr=0.0,
            z_err_integral=0.0, z_err_stderr=0.0, dy_integral=0.0,
            dy_integral_stderr=0.0,
            mean_sup_sq=(mean_sup_sq[i] if mean_sup_sq else 0.0),
            path_sup_abs=np.zeros(4), constants=cons,
            exceed_prob=(exceed[i] if exceed else 0.0), exceed_stderr=0.0))
    return SweepReport(eps_list=tuple(eps), T=T, beta=beta, delta1=delta1,
                       delta2=delta2, t0=0.01, L=1.0, C1=0.9, phi_bound=0.0,
                       n_paths=4, stats=stats)


class TestRateCheck:
    def test_synthetic_exponent_recovered(self):
        eps = (0.5, 0.35, 0.25, 0.18, 0.125)
        rep = synthetic_report(eps, [e**1.5 for e in eps])
        check_theorem_rate(rep)
        assert abs(rep.fitted_slope - 1.5) <= 1e-10

    def test_epsilon1_largest_when_all_pass(self):
        eps = (0.5, 0.25, 0.125)
        rep = synthetic_report(eps, [0.0, 0.0, 0.0])
        check_theorem_rate(rep)
        assert rep.epsilon1 == 0.5

    def test_epsilon1_threshold(self):
        eps = (0.5, 0.25, 0.125)
        rep = synthetic_report(eps, [0.9, 0.4, 0.1], delta1=0.5)
        check_theorem_rate(rep)
        assert rep.epsilon1 == 0.25

    def test_epsilon1_none(self):
        eps = (0.5, 0.25, 0.125)
        rep = synthetic_report(eps, [0.9, 0.4, 0.6], delta1=0.5)
        check_theorem_rate(rep)
        assert rep.epsilon1 is None

    def test_needs_three_points(self):
        rep = synthetic_report((0.5, 0.25), [0.1, 0.05])
        with pytest.raises(ValueError):
            check_theorem_rate(rep)

    def test_c4_bound_flags(self):
        eps = (0.5, 0.25, 0.125)
        rep = synthetic_report(eps, [0.1, 0.1, 0.1], bounds=[1.0, 1.0, 0.05])
        check_theorem_rate(rep)
        assert [s.c4_pass for s in rep.stats] == [True, True, False]


class TestChebyshevCheck:
    def test_bound_respected(self):
        eps = (0.5, 0.25, 0.125)
        rep = synthetic_report(eps, [0.1] * 3, bounds=[1.0] * 3,
                               exceed=[0.2, 0.1, 0.0], mean_sup_sq=[1.0, 1.0, 1.0],
                               delta2=1.0)
        check_chebyshev(rep)
        assert [s.chebyshev_pass for s in rep.stats] == [True, True, True]
        assert rep.chebyshev_trend_pass

    def test_bound_violation_detected(self):
        eps = (0.5, 0.25, 0.125)
        rep = synthetic_report(eps, [0.1] * 3, bounds=[1e-6] * 3,
                               exceed=[0.5, 0.5, 0.5], mean_sup_sq=[1.0] * 3,
                               delta2=1.0)
        check_chebyshev(rep)
        assert [s.chebyshev_pass for s in rep.stats] == [False, False, False]

    def test_trend_violation_detected(self):
        eps = (0.5, 0.25, 0.125)
        rep = synthetic_report(eps, [0.1] * 3, bounds=[1.0] * 3,
                               exceed=[0.0, 0.1, 0.2], mean_sup_sq=[1.0] * 3,
                               delta2=1.0)
        check_chebyshev(rep)
        assert not rep.chebyshev_trend_pass

    def test_empirical_markov_enforced(self):
        eps = (0.5, 0.25, 0.125)
        rep = synthetic_report(eps, [0.1] * 3, bounds=[10.0] * 3,
                               exceed=[0.9, 0.9, 0.9], mean_sup_sq=[1e-6] * 3,
                               delta2=1.0)
        check_chebyshev(rep)
        assert [s.chebyshev_pass for s in rep.stats] == [False, False, False]


class TestClaimVerdicts:
    EPS = (0.5, 0.35, 0.25, 0.18, 0.125)

    def checked_report(self, mse):
        rep = synthetic_report(self.EPS, mse, bounds=[1.0] * len(self.EPS))
        check_lemma1(rep)
        check_theorem_rate(rep)
        check_chebyshev(rep)
        return rep

    @pytest.mark.parametrize("bump", [False, True])
    def test_monotonicity_alone_decides_the_sweep_status(self, tmp_path, monkeypatch, bump):
        mse = [e**1.5 for e in self.EPS]
        if bump:
            mse[2] = mse[1] * 1.5  # the slope stays positive
        rep = self.checked_report(mse)
        assert claim_verdicts(rep) == {
            "lemma1": True, "c4": True, "monotone": not bump, "slope": True,
            "chebyshev": True, "trend": True,
        }
        monkeypatch.setattr(averaging_lab, "run_sweep", lambda *args: rep)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"n_time = 16\nn_space = 64\nout_dir = {tmp_path}\n", encoding="utf-8")
        assert cli.main(["sweep", "--config", str(cfg)]) == (1 if bump else 0)
        summary = (tmp_path / "summary.txt").read_text()
        assert ("sup-MSE non-increasing       : FAIL" in summary) == bump
        assert summary.count("FAIL") == int(bump)


@pytest.fixture(scope="module")
def small_sweep():
    grid = TimeGrid(T=1.0, n_steps=64)
    coeffs = CoefficientSet.build(ZERO, ONE, ONE, grid, H75)
    cfg = SweepConfig(n_paths=2000, beta=0.25, t0=0.75, eta0=1.0,
                      pde=PdeConfig(kappa=6.0, n_space=64), rng=RngSpec(seed=42))
    report = run_sweep(benchmark_generator(1.0), coeffs,
                       TerminalCondition.square(), (0.5, 0.3, 0.2), cfg)
    return report


class TestRunSweep:
    def test_degenerate_time_independent(self):
        grid = TimeGrid(T=1.0, n_steps=48)
        coeffs = CoefficientSet.build(ZERO, ONE, ONE, grid, H75)
        gen = Generator(fn=lambda t, x, y, z1, z2: 0.5 * np.asarray(y) + 0.1,
                        name="flat", lipschitz_sq=0.25, time_dependent=False)
        cfg = SweepConfig(n_paths=1000, t0=0.75, pde=PdeConfig(kappa=6.0, n_space=64),
                          rng=RngSpec(seed=5))
        rep = run_sweep(gen, coeffs, TerminalCondition.square(), (0.5, 0.3, 0.2), cfg)
        for s in rep.stats:
            assert s.sup_mse == 0.0
            assert s.z_err_integral == 0.0
            assert s.exceed_prob == 0.0
            assert s.lemma1_pass and s.c4_pass and s.chebyshev_pass
        assert rep.epsilon1 == 0.5

    def test_benchmark_monotone_decrease(self, small_sweep):
        stats = small_sweep.stats
        for a, b in zip(stats, stats[1:]):
            combined = 3 * np.hypot(a.sup_mse_stderr, b.sup_mse_stderr)
            assert b.sup_mse <= a.sup_mse + combined

    def test_benchmark_all_claims(self, small_sweep):
        assert all(s.lemma1_pass for s in small_sweep.stats)
        assert all(s.c4_pass for s in small_sweep.stats)
        assert all(s.chebyshev_pass for s in small_sweep.stats)
        assert small_sweep.fitted_slope > 0
        assert small_sweep.chebyshev_trend_pass

    def test_window_start_matches_rate_window(self, small_sweep):
        for s in small_sweep.stats:
            want = 1.0 * s.epsilon ** (1.0 - small_sweep.beta)
            assert s.t_lo >= want - 1e-12
            assert s.t_lo - want <= 1.0 / 64 + 1e-12

    def test_mc_consistency_under_more_paths(self):
        grid = TimeGrid(T=1.0, n_steps=48)
        coeffs = CoefficientSet.build(ZERO, ONE, ONE, grid, H75)
        gen = benchmark_generator(1.0)
        term = TerminalCondition.square()
        reports = []
        for n_paths in (1500, 3000):
            cfg = SweepConfig(n_paths=n_paths, t0=0.75,
                              pde=PdeConfig(kappa=6.0, n_space=64), rng=RngSpec(seed=21))
            reports.append(run_sweep(gen, coeffs, term, (0.4, 0.3, 0.2), cfg))
        for a, b in zip(reports[0].stats, reports[1].stats):
            combined = 3 * np.hypot(a.sup_mse_stderr, b.sup_mse_stderr)
            assert abs(a.sup_mse - b.sup_mse) <= combined

    def test_eps_list_validated(self):
        grid = TimeGrid(T=1.0, n_steps=48)
        coeffs = CoefficientSet.build(ZERO, ONE, ONE, grid, H75)
        cfg = SweepConfig(n_paths=1000, t0=0.75, rng=RngSpec(seed=1))
        for bad in ((0.2, 0.5), (0.5, 0.5), (1.5, 0.5), ()):
            with pytest.raises(ValueError):
                run_sweep(benchmark_generator(1.0), coeffs,
                          TerminalCondition.square(), bad, cfg)
        # one path has no standard errors: they would divide by n - 1 = 0
        for n_paths in (0, 1):
            with pytest.raises(ValueError, match="n_paths"):
                run_sweep(benchmark_generator(1.0), coeffs, TerminalCondition.square(),
                          (0.5, 0.3, 0.2), replace(cfg, n_paths=n_paths))


class _LateStage(Exception):
    """Raised by a sweep stage that an invalid input should never reach."""


class TestSweepFailsEarly:
    """Inputs the sweep cannot finish with fail before phi, any PDE or any path."""

    @pytest.fixture
    def coeffs(self, monkeypatch):
        def late(*args, **kwargs):
            raise _LateStage
        for name in ("estimate_phi", "solve_psis", "make_ensemble"):
            monkeypatch.setattr(averaging_lab, name, late)
        return CoefficientSet.build(ZERO, ONE, ONE, TimeGrid(T=1.0, n_steps=16), H75)

    def sweep(self, coeffs, eps=(0.5, 0.3, 0.2), **cfg):
        cfg = SweepConfig(**{"n_paths": 1000, "t0": 0.75, "rng": RngSpec(seed=1), **cfg})
        run_sweep(benchmark_generator(1.0), coeffs, TerminalCondition.square(), eps, cfg)

    def test_stages_reached_with_valid_inputs(self, coeffs):
        with pytest.raises(_LateStage):
            self.sweep(coeffs)

    @pytest.mark.parametrize("eps", [(0.5,), (0.5, 0.25)], ids=["one", "two"])
    def test_too_few_epsilons(self, coeffs, eps):
        with pytest.raises(ValueError, match="eps_list: must hold at least 3"):
            self.sweep(coeffs, eps)

    @pytest.mark.parametrize("eps", [(0.5, 0.25), (0.5, 0.5, 0.2), (1.5, 0.5, 0.2),
                                     (0.2, 0.3, 0.5)])
    def test_config_and_sweep_share_the_eps_rule(self, coeffs, tmp_path, eps):
        path = tmp_path / "eps.cfg"
        path.write_text(f"eps_list = {','.join(map(str, eps))}\n")
        with pytest.raises(ConfigError) as config_err:
            parse_config(str(path))
        with pytest.raises(ValueError) as sweep_err:
            self.sweep(coeffs, eps)
        assert [v for v in config_err.value.violations if v.startswith("eps_list")] \
            == [str(sweep_err.value)]

    @pytest.mark.parametrize("beta", [2.0 / 3.0, 0.7, -0.1])
    def test_beta_out_of_range(self, coeffs, beta):
        with pytest.raises(ValueError, match="beta"):
            self.sweep(coeffs, beta=beta)

    def test_infeasible_alpha0(self, coeffs):
        # t0 = T/100: C1 = sigma2_hat(1/16) = 0.1875 < 0.5^H, so eps = 0.5 has no alpha0
        with pytest.raises(InfeasibleAlphaError):
            self.sweep(coeffs, t0=coeffs.grid.T / 100)


def assert_same_value(got, want, rtol, where):
    if isinstance(want, (float, np.ndarray)):
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0, err_msg=where)
    else:
        assert got == want, where


def assert_reports_match(got, want, rtol):
    """Every SweepReport, PerEpsilonStats and AveragingConstants field; floats within rtol."""
    for f in fields(SweepReport):
        if f.name != "stats":
            assert_same_value(getattr(got, f.name), getattr(want, f.name), rtol, f.name)
    assert len(got.stats) == len(want.stats)
    for a, b in zip(got.stats, want.stats):
        for f in fields(PerEpsilonStats):
            if f.name != "constants":
                assert_same_value(getattr(a, f.name), getattr(b, f.name), rtol,
                                  f"eps={b.epsilon} {f.name}")
        for f in fields(AveragingConstants):
            assert_same_value(getattr(a.constants, f.name), getattr(b.constants, f.name),
                              rtol, f"eps={b.epsilon} constants.{f.name}")


@pytest.fixture(scope="module")
def coeffs128():
    return CoefficientSet.build(ZERO, ONE, ONE, TimeGrid(T=1.0, n_steps=128), H75)


STREAM_CFG = SweepConfig(n_paths=1000, t0=0.75, eta0=1.0, pde=PdeConfig(kappa=6.0, n_space=64),
                         rng=RngSpec(seed=42))


class TestStreamedSweep:
    """The sweep streams its paths in blocks; the whole-ensemble route is its oracle."""

    @pytest.mark.parametrize("blocks, extra, method", [
        (1, -1, "cholesky"), (1, 0, "cholesky"), (1, 1, "cholesky"), (3, 7, "cholesky"),
        (1, 1, "circulant"),
    ])
    def test_matches_whole_ensemble_oracle(self, coeffs128, blocks, extra, method, monkeypatch):
        if method == "circulant":
            monkeypatch.setattr(path_engine, "CHOLESKY_MAX_STEPS", 0)
        n_paths = blocks * block_rows(coeffs128.grid.n_nodes) + extra
        cfg = replace(STREAM_CFG, n_paths=n_paths)
        args = (benchmark_generator(1.0), coeffs128, TerminalCondition.square(),
                (0.5, 0.3, 0.2), cfg)
        got = run_sweep(*args)
        want = whole_ensemble_sweep(*args)
        assert got.stats[0].path_sup_abs.shape == (n_paths,)
        assert_reports_match(got, want, rtol=1e-12)

    def test_matches_whole_ensemble_oracle_with_time_varying_coefficients(self):
        # the fold's grid offsets c_k carry the drift integral and its Z weights
        # carry sigma1(t)^2 + sigma2(t)^2: a slip in either shows only when they vary
        coeffs = CoefficientSet.build(DeterministicFn.sinusoidal(0.5, 0.7),
                                      DeterministicFn.sinusoidal(1.0, 1.0),
                                      DeterministicFn.sinusoidal(1.5, 1.0),
                                      TimeGrid(T=1.0, n_steps=128), H75)
        cfg = replace(STREAM_CFG, n_paths=2 * block_rows(coeffs.grid.n_nodes) + 37)
        args = (benchmark_generator(1.0), coeffs, TerminalCondition.square(), (0.5, 0.3, 0.2), cfg)
        assert_reports_match(run_sweep(*args), whole_ensemble_sweep(*args), rtol=1e-12)

    def test_runs_on_one_thread(self, coeffs128, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"run_sweep started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        cfg = replace(STREAM_CFG, n_paths=block_rows(coeffs128.grid.n_nodes) + 300)
        rep = run_sweep(benchmark_generator(1.0), coeffs128, TerminalCondition.square(),
                        (0.5, 0.3, 0.2), cfg)
        assert [s.epsilon for s in rep.stats] == [0.5, 0.3, 0.2]

    def test_memory_bounded_in_n_paths(self, coeffs128, monkeypatch):
        # a small probe set keeps the path-free phase below the streaming peak
        monkeypatch.setattr(averaging_lab, "BOX_SAMPLES", 64)
        args = (benchmark_generator(1.0), coeffs128, TerminalCondition.square(), (0.5, 0.3, 0.2))

        def peak(n_paths):
            tracemalloc.start()
            try:
                run_sweep(*args, replace(STREAM_CFG, n_paths=n_paths))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        n_paths = 1500
        growth = peak(4 * n_paths) - peak(n_paths)
        assert growth < 8 * n_paths * coeffs128.grid.n_nodes

    def test_warm_block_fold_allocates_no_block(self, coeffs128):
        grid = coeffs128.grid
        rows = block_rows(grid.n_nodes)
        fields = [solve_psi(gen, TerminalCondition.square(), coeffs128, 0.5,
                            STREAM_CFG.pde, STREAM_CFG.eta0)
                  for gen in (benchmark_generator(1.0),
                              build_fbar(benchmark_generator(1.0), 1.0, QUAD).as_generator())]
        fold = averaging_lab._WindowFold(0.5, 20, *fields, coeffs128, 2 * rows, STREAM_CFG.eta0)
        ws = averaging_lab._FoldWorkspace(rows, grid.n_nodes)
        noise = eta_noise(coeffs128, make_ensemble(grid, H75, rows, STREAM_CFG.rng))
        averaging_lab._window_stats(fold, noise, 0, ws)
        tracemalloc.start()
        try:
            averaging_lab._window_stats(fold, noise, rows, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fold.count == 2 * rows
        assert peak < 8 * rows * grid.n_nodes

    def test_fold_shares_no_memory_with_the_fields(self, coeffs128):
        # the folds copy their window rows, so dropping the fields frees the batch
        gens = (benchmark_generator(1.0),
                build_fbar(benchmark_generator(1.0), 1.0, QUAD).as_generator())
        fields = solve_psis(gens, TerminalCondition.square(), coeffs128, (0.5, 0.3),
                            STREAM_CFG.pde, STREAM_CFG.eta0)
        fold = averaging_lab._WindowFold(0.5, 20, fields[0], fields[2], coeffs128, 10,
                                         STREAM_CFG.eta0)
        held = [v for v in vars(fold).values() if isinstance(v, np.ndarray)]
        held += [array for table in fold.tables for array in table]
        for f in fields:
            for array in (f.psi, f.psi_x, f.x_nodes, f.t_nodes):
                assert not any(np.shares_memory(array, h) for h in held)

    def test_domain_error_counts_every_node_of_every_block(self):
        # b = A cos(2 pi t): eta drifts far out of the domain mid-horizon and
        # back by T, where the domain is centred
        amp = 200.0
        b = DeterministicFn(fn=lambda t: amp * np.cos(2 * np.pi * t), name="swing")
        coeffs = CoefficientSet.build(b, ONE, ONE, TimeGrid(T=1.0, n_steps=64), H75)
        cfg = replace(STREAM_CFG, n_paths=2 * block_rows(65) + 5)
        eps = (0.5, 0.3, 0.2)
        lo, hi = domain_bounds(coeffs, eps[0], cfg.eta0, cfg.pde.kappa)
        ens = make_ensemble(coeffs.grid, H75, cfg.n_paths, cfg.rng)
        eta = simulate_eta(coeffs, ens, eps[0], cfg.eta0)
        want = np.count_nonzero((eta < lo) | (eta > hi)) / eta.size
        assert want > 0.01
        with pytest.raises(DomainTooSmallError) as err:
            run_sweep(Generator.zero(), coeffs, TerminalCondition.square(), eps, cfg)
        assert err.value.clamp_fraction == want
        assert err.value.half_width == (hi - lo) / 2.0
