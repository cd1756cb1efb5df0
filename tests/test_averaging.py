import csv
import math
import threading
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfrbsde import averaging_lab, cli, path_engine
from sfrbsde.averaging_lab import (
    BOX_HALF_WIDTH,
    AveragingConstants,
    PerEpsilonStats,
    SweepConfig,
    SweepReport,
    box_points,
    build_fbar,
    check_chebyshev,
    check_lemma1,
    check_theorem_rate,
    checked_report,
    claim_verdicts,
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
    domain_bounds,
    first_sweep_states,
    solve_psi,
    solve_psis,
)
from sfrbsde.config import BENCHMARK_COEFFS, ExperimentConfig, benchmark_generator, parse_config
from sfrbsde.errors import (
    ConfigError,
    ContractError,
    DomainTooSmallError,
    FactorizationError,
    InfeasibleAlphaError,
    QuadratureConvergenceError,
)
from sfrbsde.frac_kernel import CoefficientSet, DeterministicFn, HurstModel
from sfrbsde.grids import TimeGrid
from sfrbsde.runio import format_value
from sfrbsde.path_engine import (
    RngSpec,
    block_rows,
    eta_noise,
    make_ensemble,
    merge_moments,
    simulate_eta,
)

from oracles import (
    benchmark_fbar,
    bisect_alpha0,
    per_node_fbar,
    table_phi,
    whole_ensemble_simulate_fbm,
    whole_ensemble_solve,
    whole_ensemble_sweep,
)

H75 = HurstModel(0.75)
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
            fbar = build_fbar(gen, 1.0, box_points())
            x, y, z1, z2 = sample_points()
            assert np.allclose(fbar(x, y, z1, z2), 0.5 * y + 0.1, atol=1e-9)

    def test_time_independent_passthrough(self):
        gen = Generator(fn=lambda t, x, y, z1, z2: np.asarray(y) * 2.0,
                        name="flat", time_dependent=False)
        fbar = build_fbar(gen, 1.0, box_points())
        assert fbar.provenance == "analytic"
        assert fbar.panels == 0
        x, y, z1, z2 = sample_points()
        assert np.array_equal(fbar(x, y, z1, z2), gen(0.0, x, y, z1, z2))

    def test_linear_time_factor_halves(self):
        gen = Generator(fn=lambda t, x, y, z1, z2: t * (np.asarray(y) + np.asarray(z1)),
                        name="ramp")
        fbar = build_fbar(gen, 1.0, box_points())
        x, y, z1, z2 = sample_points()
        assert np.allclose(fbar(x, y, z1, z2), 0.5 * (y + z1), atol=1e-10)

    def test_benchmark_matches_analytic_average(self):
        gen = benchmark_generator(1.0)
        fbar = build_fbar(gen, 1.0, box_points())
        analytic = benchmark_fbar()
        x, y, z1, z2 = sample_points()
        assert np.allclose(fbar(x, y, z1, z2), analytic(x, y, z1, z2), atol=1e-9)

    def test_the_pde_reads_fbar_through_its_call(self, coeffs64, monkeypatch):
        # the PDE, phi and verify evaluate f-bar by one route, so a wrong
        # __call__ moves the averaged field, not phi alone
        averaged = build_fbar(benchmark_generator(1.0), 1.0, box_points()).as_generator()
        args = (TerminalCondition.square(), coeffs64, (0.5,), PDE64, 1.0)
        (want,) = solve_psis([averaged], *args)
        call = averaging_lab.AveragedGenerator.__call__
        monkeypatch.setattr(averaging_lab.AveragedGenerator, "__call__",
                            lambda fbar, *state: 1.1 * call(fbar, *state))
        (got,) = solve_psis([averaged], *args)
        assert not np.allclose(got.psi, want.psi, rtol=1e-3)


def within_quad_tol(got, want, tol=averaging_lab.FBAR_TOL):
    return np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))


class TestFbarPanels:
    """build_fbar picks its panel count once, from 8 up, by refinement on its points."""

    def test_benchmark_takes_the_floor(self):
        fbar = build_fbar(benchmark_generator(1.0), 1.0, box_points())
        assert fbar.panels == 8
        assert fbar.provenance == "quadrature-of-f"
        pts = box_points()
        assert within_quad_tol(fbar(*pts), benchmark_fbar()(*pts), tol=1e-13)

    def test_smooth_mixed_generator_meets_tolerance(self):
        gen = FBAR_GENERATORS["x-and-t"]
        fbar = build_fbar(gen, 1.0, box_points())
        pts = [a[:33] for a in box_points()]
        assert within_quad_tol(fbar(*pts), per_node_fbar(gen, 1.0, 4096)(*pts))

    def test_fast_oscillation_refines(self, monkeypatch):
        gen = Generator(fn=lambda t, x, y, z1, z2: (1.0 + np.sin(2 * np.pi * 20.5 * t))
                        * np.asarray(y), name="fast")
        fbar = build_fbar(gen, 1.0, box_points())
        assert 8 < fbar.panels <= averaging_lab.MAX_FBAR_PANELS
        # (1/T) int_0^1 sin(2 pi 20.5 t) dt = 2 / (41 pi)
        x, y, z1, z2 = box_points()
        assert within_quad_tol(fbar(x, y, z1, z2), (1.0 + 2.0 / (41.0 * np.pi)) * y)
        monkeypatch.setattr(averaging_lab, "MAX_FBAR_PANELS", fbar.panels // 2)
        with pytest.raises(QuadratureConvergenceError):
            build_fbar(gen, 1.0, box_points())

    def test_unresolved_generator_raises(self):
        # the sqrt(t) cusp converges like h^1.5: never to 1e-8 within 256 panels
        gen = Generator(fn=lambda t, x, y, z1, z2: np.sqrt(t) * np.asarray(y), name="sqrt-t")
        with pytest.raises(QuadratureConvergenceError) as err:
            build_fbar(gen, 1.0, box_points())
        assert err.value.tol == averaging_lab.FBAR_TOL
        assert abs(err.value.fine - err.value.coarse) > averaging_lab.FBAR_TOL


def within_node_tol(got, want):
    return np.all(np.abs(got - want) <= averaging_lab.NODE_TOL * np.maximum(1.0, np.abs(want)))


# the states of the first Picard sweep of a crit7-like sweep on 64 steps: y = x^2
# reaches 36.5 and z 12, far outside the probe box
SWEEP_EPS = (0.5, 0.35, 0.25, 0.18, 0.125)
PDE64 = PdeConfig(n_space=64)
MIN_PANELS = averaging_lab.MIN_FBAR_PANELS


@pytest.fixture(scope="module")
def coeffs64():
    return CoefficientSet.build(ZERO, ONE, ONE, TimeGrid(T=1.0, n_steps=64), H75)


def pde_states(coeffs):
    return first_sweep_states(coeffs, TerminalCondition.square(), SWEEP_EPS, PDE64, 1.0)


def sweep_points(coeffs):
    """The points `run_sweep` resolves f-bar on: the probe box, then `pde_states`."""
    return [np.concatenate((box, state.ravel()))
            for box, state in zip(box_points(), pde_states(coeffs))]


def t_polynomial(degree):
    """f = sum_k t^k h_k(y, z1, z2) with independent h_k: rank degree + 1 in t."""
    def fn(t, x, y, z1, z2):
        return sum(t**k * (np.cos(k * np.asarray(y)) + k * np.asarray(z1) * np.asarray(z2))
                   for k in range(degree + 1))
    return Generator(fn=fn, name=f"t-poly[{degree}]")


class TestFbarNodes:
    """build_fbar evaluates f only at the time nodes its rank on its points needs."""

    def test_benchmark_selects_one_node(self, coeffs64):
        fbar = build_fbar(benchmark_generator(1.0), 1.0, box_points())
        assert (fbar.panels, fbar.nodes) == (8, 1)
        for states in (box_points(), pde_states(coeffs64)):
            assert within_node_tol(fbar(*states), benchmark_fbar()(*states))

    @pytest.mark.parametrize("degree", range(5))
    def test_polynomial_in_t_needs_at_most_degree_plus_one(self, degree):
        gen = t_polynomial(degree)
        fbar = build_fbar(gen, 1.0, box_points())
        assert 1 <= fbar.nodes <= degree + 1
        pts = box_points()
        assert within_node_tol(fbar(*pts),
                               averaging_lab._gl_time_average(gen, 1.0, fbar.panels)(*pts))

    def test_moving_kink_keeps_every_node(self):
        # |t - s(y)|^7 has its kink where t = s(y): the rows of f(t_j, probe
        # set) are independent, so f-bar stays the 4n-node rule, bit for bit
        gen = Generator(fn=lambda t, x, y, z1, z2: np.abs(t - (np.asarray(y) + 5.0) / 10.0) ** 7,
                        name="kink")
        fbar = build_fbar(gen, 1.0, box_points())
        assert fbar.nodes == 4 * fbar.panels
        full = averaging_lab._gl_time_average(gen, 1.0, fbar.panels)
        for args in (box_points(), sample_points(n=257), (0.3, -1.2, 0.4, 2.0)):
            assert np.array_equal(fbar(*args), full(*args))

    def test_oscillating_product_is_cut_within_the_bound(self):
        # sin(2 pi t y) does not factor, but on |y| <= 5 its rows span fewer
        # dimensions than the 64 nodes, to the bound: the cut is kept
        gen = Generator(fn=lambda t, x, y, z1, z2: np.sin(2 * np.pi * t * np.asarray(y)),
                        name="sin-ty")
        fbar = build_fbar(gen, 1.0, box_points())
        assert fbar.panels == 16 and 1 < fbar.nodes < 64
        pts = box_points()
        assert within_node_tol(fbar(*pts), averaging_lab._gl_time_average(gen, 1.0, 16)(*pts))

    def test_selection_gives_up_past_its_limit(self):
        rng = np.random.default_rng(1)
        full_rank = rng.standard_normal((80, 200))
        assert averaging_lab._pivoted_rows(full_rank, averaging_lab.NODE_TOL, 64) is None
        rank_3 = rng.standard_normal((80, 3)) @ rng.standard_normal((3, 200))
        assert averaging_lab._pivoted_rows(rank_3, averaging_lab.NODE_TOL, 64).size == 3

    def test_vanishing_samples_keep_every_node(self):
        # f is 0 on the probe set: no row is chosen, so no cut is made
        gen = Generator(fn=lambda t, x, y, z1, z2: t * np.maximum(np.asarray(y) - 5.0, 0.0),
                        name="outside")
        assert build_fbar(gen, 1.0, box_points()).nodes == 4 * MIN_PANELS


# cos(2 pi t (y/5)^4) makes at most one turn on the probe box and about 2800
# on the states y = x^2 of `pde_states`: 256 panels do not resolve it there
UNRESOLVED_ON_STATES = Generator(
    fn=lambda t, x, y, z1, z2: np.cos(2 * np.pi * t * (np.asarray(y) / BOX_HALF_WIDTH) ** 4),
    name="box-only-quartic")


def rebuilt_without_rule(build):
    """`build` with its f-bar rebuilt without panels and nodes, as the benchmark's
    tracer rebuilds it."""
    def traced(*args, **kwargs):
        avg = build(*args, **kwargs)
        return averaging_lab.AveragedGenerator(fn=avg.fn, provenance=avg.provenance,
                                               name=avg.name)
    return traced


class TestFbarStateGuard:
    """f-bar is resolved on the probe box joined with the states the PDE reads
    first, so a sweep refuses an f-bar unresolved there before any PDE or path."""

    def test_benchmark_passes(self, coeffs64):
        fbar = build_fbar(benchmark_generator(1.0), 1.0, sweep_points(coeffs64))
        assert (fbar.panels, fbar.nodes) == (MIN_PANELS, 1)
        states = pde_states(coeffs64)
        assert within_node_tol(fbar(*states), benchmark_fbar()(*states))

    def test_states_leave_the_probe_box(self, coeffs64):
        x, y, z1, z2 = pde_states(coeffs64)
        assert y.max() > 7 * BOX_HALF_WIDTH and z1.max() > 2 * BOX_HALF_WIDTH
        assert np.array_equal(z1, z2)   # sigma1 = sigma2 = 1

    def test_panels_refined_for_the_states(self, coeffs64):
        # cos(2 pi t y / 5) makes at most one turn on the box, 7 on y = x^2
        gen = Generator(fn=lambda t, x, y, z1, z2: np.cos(2 * np.pi * t * np.asarray(y) / 5),
                        name="box-only")
        assert build_fbar(gen, 1.0, box_points()).panels == MIN_PANELS
        fbar = build_fbar(gen, 1.0, sweep_points(coeffs64))
        assert fbar.panels > MIN_PANELS
        states = pde_states(coeffs64)
        rule = averaging_lab._gl_time_average(gen, 1.0, fbar.panels)(*states)
        assert within_quad_tol(rule,
                               averaging_lab._gl_time_average(gen, 1.0, 2 * fbar.panels)(*states))
        assert within_node_tol(fbar(*states), rule)

    def test_node_cut_wrong_on_the_states_is_refused(self, coeffs64):
        # the t^9 term vanishes on the box, so f-bar built there keeps one
        # node; on the states the cut keeps a second
        gen = Generator(fn=lambda t, x, y, z1, z2: np.asarray(y)
                        + np.maximum(np.abs(y) - BOX_HALF_WIDTH, 0.0) * t**9, name="t9")
        assert build_fbar(gen, 1.0, box_points()).nodes == 1
        fbar = build_fbar(gen, 1.0, sweep_points(coeffs64))
        assert (fbar.panels, fbar.nodes) == (MIN_PANELS, 2)
        states = pde_states(coeffs64)
        assert within_node_tol(fbar(*states),
                               averaging_lab._gl_time_average(gen, 1.0, MIN_PANELS)(*states))

    @pytest.fixture
    def late(self, monkeypatch):
        def late_stage(*args, **kwargs):
            raise _LateStage
        for name in ("solve_psis", "noise_stream"):
            monkeypatch.setattr(averaging_lab, name, late_stage)

    def sweep(self, coeffs, gen):
        cfg = SweepConfig(n_paths=1000, t0=0.75, eta0=1.0, pde=PDE64, rng=RngSpec(seed=1))
        run_sweep(gen, coeffs, TerminalCondition.square(), SWEEP_EPS, cfg)

    def test_panels_unresolved_on_the_states_are_refused(self, coeffs64, late):
        assert build_fbar(UNRESOLVED_ON_STATES, 1.0, box_points()).panels == MIN_PANELS
        with pytest.raises(QuadratureConvergenceError) as err:
            self.sweep(coeffs64, UNRESOLVED_ON_STATES)
        assert err.value.tol == averaging_lab.FBAR_TOL

    def test_refused_when_rebuilt_without_its_rule(self, coeffs64, late, monkeypatch):
        monkeypatch.setattr(averaging_lab, "build_fbar",
                            rebuilt_without_rule(averaging_lab.build_fbar))
        with pytest.raises(QuadratureConvergenceError):
            self.sweep(coeffs64, UNRESOLVED_ON_STATES)

    def test_reached_with_the_benchmark(self, coeffs64, late):
        with pytest.raises(_LateStage):
            self.sweep(coeffs64, benchmark_generator(1.0))

    def test_hand_built_fbar_is_not_checked(self, coeffs64, late, monkeypatch):
        # a build_fbar replaced by a hand-built f-bar, as the benchmark's
        # frozen-f-bar control replaces it, is read as it is
        def frozen(gen, T, points):
            return averaging_lab.AveragedGenerator(fn=lambda x, y, z1, z2: gen(0.75, x, y, z1, z2))
        monkeypatch.setattr(averaging_lab, "build_fbar", frozen)
        with pytest.raises(_LateStage):
            self.sweep(coeffs64, UNRESOLVED_ON_STATES)


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
    fbar = build_fbar(gen, T, box_points())
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
        fbar = build_fbar(gen, 1.0, box_points())
        assert estimate_phi(gen, fbar, 1.0) == 0.0

    @pytest.mark.parametrize("T", [1.0, 2.5])
    def test_benchmark_closed_form(self, T):
        gen = benchmark_generator(T)
        got = estimate_phi(gen, build_fbar(gen, T, box_points()), T)
        assert got == pytest.approx(benchmark_phi(T), rel=1e-5)

    @pytest.mark.parametrize("points", [1, 2, 63, 64, 65, 66, 130, 1024, 1025])
    def test_streamed_matches_whole_table(self, points, monkeypatch):
        # one call of f per window slice against one per node, each window's
        # integral summed in node order by both, on the first `points` probe
        # points: a single column, and counts on and beside powers of two
        probes = averaging_lab.box_points()
        monkeypatch.setattr(averaging_lab, "box_points",
                            lambda: tuple(a[:points] for a in probes))
        gen = FBAR_GENERATORS["x-and-t"]
        fbar = build_fbar(gen, 1.0, averaging_lab.box_points())
        assert estimate_phi(gen, fbar, 1.0) == table_phi(gen, fbar, 1.0)

    def test_memory_with_default_sampler(self):
        gen = benchmark_generator(1.0)
        fbar = build_fbar(gen, 1.0, box_points())
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


def exceeding(fraction, n=10):
    """sup |dY| on n paths, the given fraction of them above 1 (at 2, the rest at 1/2)."""
    return np.where(np.arange(n) < round(fraction * n), 2.0, 0.5)


def hand_made_report(eps, mse, sup_abs=None, delta1=1.0, delta2=1.0, fbar_panels=0):
    """`checked_report` on hand-made window statistics: T = 1, every window from
    u = 0, L = 1, C1 = 0.9, phi = 0, beta = 0 and zero averaged moments, so
    C2 = 0 and the lemma's sides are 0; `sup_abs` gives each eps's sup |dY| per path."""
    sup_abs = sup_abs or [np.zeros(4)] * len(eps)
    raws = [dict(sup_mse=m, sup_mse_stderr=0.0, z_err_integral=0.0, z_err_stderr=0.0,
                 dy_integral=0.0, dy_integral_stderr=0.0, path_sup_abs=a,
                 moments=(0.0, 0.0, 0.0))
            for m, a in zip(mse, sup_abs)]
    cfg = SweepConfig(n_paths=sup_abs[0].size, beta=0.0, delta1=delta1, delta2=delta2)
    return checked_report(raws, [0.0] * len(eps), eps, 1.0, 0.01, 1.0, 0.9, 0.0, H75, cfg,
                          fbar_panels, 0)


class TestRateCheck:
    def test_synthetic_exponent_recovered(self):
        eps = (0.5, 0.35, 0.25, 0.18, 0.125)
        slope, _ = check_theorem_rate(eps, [e**1.5 for e in eps], 1.0)
        assert abs(slope - 1.5) <= 1e-10

    def test_epsilon1_largest_when_all_pass(self):
        assert check_theorem_rate((0.5, 0.25, 0.125), [0.0, 0.0, 0.0], 1.0)[1] == 0.5

    def test_epsilon1_threshold(self):
        assert check_theorem_rate((0.5, 0.25, 0.125), [0.9, 0.4, 0.1], 0.5)[1] == 0.25

    def test_epsilon1_none(self):
        assert check_theorem_rate((0.5, 0.25, 0.125), [0.9, 0.4, 0.6], 0.5)[1] is None

    def test_sup_mse_at_delta1_sets_epsilon1(self):
        assert check_theorem_rate((0.5, 0.25, 0.125), [0.9, 0.5, 0.5], 0.5)[1] == 0.25

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            check_theorem_rate((0.5, 0.25), [0.1, 0.05], 1.0)

    def test_c4_bound_flags(self):
        eps = (0.5, 0.25, 0.125)
        bounds = [compute_constants(1.0, 0.9, 0.0, 0.0, 1.0, e, 0.0, H75, (0, 0, 0)).theorem_bound
                  for e in eps]
        # below, at and one ulp above each eps's bound
        rep = hand_made_report(eps, [0.5 * bounds[0], bounds[1], np.nextafter(bounds[2], 1.0)])
        assert [s.constants.theorem_bound for s in rep.stats] == bounds
        assert [s.c4_pass for s in rep.stats] == [True, True, False]


class TestChebyshevCheck:
    EPS = (0.5, 0.25, 0.125)

    def test_bound_respected(self):
        rep = hand_made_report(self.EPS, [0.1] * 3,
                               sup_abs=[exceeding(p) for p in (0.2, 0.1, 0.0)])
        assert [s.exceed_prob for s in rep.stats] == [0.2, 0.1, 0.0]
        assert [s.chebyshev_pass for s in rep.stats] == [True, True, True]
        assert rep.chebyshev_trend_pass

    def test_bound_violation_detected(self):
        # p_hat 0.5 against a bound of 1e-6 with no standard error
        assert not check_chebyshev(0.5, 0.0, 1e-6, 1.0)

    def test_p_hat_at_bound_plus_three_stderr_passes(self):
        # bound 0.25 + 3 x 0.125 = 0.625, exact in binary
        assert check_chebyshev(0.625, 0.125, 0.25, 1.0)
        assert not check_chebyshev(np.nextafter(0.625, 1.0), 0.125, 0.25, 1.0)

    def test_trend_violation_detected(self):
        rep = hand_made_report(self.EPS, [0.1] * 3,
                               sup_abs=[exceeding(p) for p in (0.0, 0.1, 0.2)])
        assert not rep.chebyshev_trend_pass


class TestLemma1Check:
    def test_sides(self):
        rhs, ok = check_lemma1(1.5, 0.0, 0.5, 0.0, 2.0, 0.25, 0.5)
        assert rhs == 2.0 * 0.5 + 0.25 * 0.5 and not ok

    def test_lhs_at_rhs_plus_three_stderr_passes(self):
        # rhs = 1 x 0.5 + 0.25 x 1 = 0.75, se = hypot(0.375, 1 x 0.5) = 0.625, all exact
        lhs = 0.75 + 3.0 * 0.625
        assert check_lemma1(lhs, 0.375, 0.5, 0.5, 1.0, 0.25, 1.0) == (0.75, True)
        assert not check_lemma1(np.nextafter(lhs, 4.0), 0.375, 0.5, 0.5, 1.0, 0.25, 1.0)[1]


class TestClaimVerdicts:
    EPS = (0.5, 0.35, 0.25, 0.18, 0.125)

    @pytest.mark.parametrize("bump", [False, True])
    def test_monotonicity_alone_decides_the_sweep_status(self, tmp_path, monkeypatch, bump):
        mse = [e**1.5 for e in self.EPS]
        if bump:
            mse[2] = mse[1] * 1.5  # the slope stays positive
        rep = hand_made_report(self.EPS, mse)
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

    @pytest.mark.parametrize("fbar_panels", [0, 8])
    def test_zero_errors_meet_the_slope_claim_only_when_fbar_is_f(self, fbar_panels):
        # every sup-MSE 0 leaves no rate to fit; that is exact only when f-bar is f
        rep = hand_made_report(self.EPS, [0.0] * len(self.EPS), fbar_panels=fbar_panels)
        assert math.isnan(rep.fitted_slope)
        assert claim_verdicts(rep)["slope"] == (fbar_panels == 0)

    @pytest.mark.parametrize("generator", ["zero", "constant:0.5", "linear_y:0.5"])
    def test_sweep_with_fbar_equal_to_f_passes(self, tmp_path, generator):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"n_time = 64\nn_space = 64\nn_paths = 1000\ngenerator = {generator}\n",
                       encoding="utf-8")
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "fitted log-log slope         : nan (PASS)" in summary
        assert "FAIL" not in summary

    def test_report_is_frozen(self):
        rep = hand_made_report(self.EPS, [e**1.5 for e in self.EPS])
        assert isinstance(rep.stats, tuple)
        with pytest.raises(FrozenInstanceError):
            rep.fitted_slope = 0.0
        with pytest.raises(FrozenInstanceError):
            rep.stats[0].lemma1_pass = False


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

    def test_zero_t0_and_delta2_are_auto(self):
        # 0 selects t0 = 3T/4 and delta2 = 2 sqrt(max sup-MSE), as in the config file
        grid = TimeGrid(T=1.0, n_steps=48)
        coeffs = CoefficientSet.build(ZERO, ONE, ONE, grid, H75)
        cfg = SweepConfig(n_paths=1000, t0=0.0, delta2=0.0,
                          pde=PdeConfig(kappa=6.0, n_space=64), rng=RngSpec(seed=5))
        rep = run_sweep(benchmark_generator(1.0), coeffs, TerminalCondition.square(),
                        (0.5, 0.3, 0.2), cfg)
        assert rep.t0 == 0.75
        assert rep.delta2 == 2.0 * math.sqrt(max(s.sup_mse for s in rep.stats)) > 0.0

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
        for name in ("estimate_phi", "solve_psis", "noise_stream"):
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
    """Every SweepReport, PerEpsilonStats and AveragingConstants field that takes
    part in equality (not the stream's timings); floats within rtol."""
    for f in fields(SweepReport):
        if f.name != "stats" and f.compare:
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

    def sweep(self, coeffs, n_paths):
        return run_sweep(benchmark_generator(1.0), coeffs, TerminalCondition.square(),
                         (0.5, 0.3, 0.2), replace(STREAM_CFG, n_paths=n_paths))

    def test_starts_one_producer_process(self, coeffs128, monkeypatch, started_processes):
        started_threads = []
        start = threading.Thread.start

        def counting(thread):
            started_threads.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        rep = self.sweep(coeffs128, 3 * block_rows(coeffs128.grid.n_nodes) + 300)
        assert [s.epsilon for s in rep.stats] == [0.5, 0.3, 0.2]
        assert [p.name for p in started_processes] == ["noise-stream"]
        started_processes.assert_joined([0])
        assert started_threads == []
        assert rep.noise_draw_s > 0.0 and rep.noise_wait_s >= 0.0

    def test_producer_error_reaches_the_caller(self, coeffs128, tmp_path, monkeypatch, capsys,
                                               started_processes):
        def sabotaged(grid, hurst):
            raise FactorizationError("sabotaged factor")

        monkeypatch.setattr(path_engine, "cholesky_factor", sabotaged)
        with pytest.raises(FactorizationError, match="sabotaged factor"):
            self.sweep(coeffs128, 1000)
        # on the command line it is a numeric error: exit code 3
        config = tmp_path / "small.cfg"
        config.write_text("n_time = 64\nn_space = 64\nn_paths = 1000\n", encoding="utf-8")
        assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
        assert "numeric error: sabotaged factor" in capsys.readouterr().err
        # the sweep's own draw met the error before it forked a producer
        started_processes.assert_joined([])

    def test_fold_error_stops_the_producer(self, coeffs128, monkeypatch, started_processes):
        calls = []
        window_stats = averaging_lab._window_stats

        def failing(*args):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("fold failed")
            window_stats(*args)

        monkeypatch.setattr(averaging_lab, "_window_stats", failing)
        with pytest.raises(RuntimeError, match="fold failed"):
            self.sweep(coeffs128, 6 * block_rows(coeffs128.grid.n_nodes))
        assert len(calls) == 2
        started_processes.assert_joined([0])

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

        # every count is above one block of 1016 paths
        small, mid, large = (peak(n) for n in (1500, 6000, 24000))
        # no n_paths x n_nodes array is held
        assert mid - small < 8 * 1500 * coeffs128.grid.n_nodes
        # of the per-path vectors only sup |dY| is kept: 8 B per path and eps, with slack
        assert large - mid < 1.5 * 8 * len(args[3]) * (24000 - 6000)

    def test_warm_block_fold_allocates_no_block(self, coeffs128):
        grid = coeffs128.grid
        rows = block_rows(grid.n_nodes)
        fields = [solve_psi(gen, TerminalCondition.square(), coeffs128, 0.5,
                            STREAM_CFG.pde, STREAM_CFG.eta0)
                  for gen in (benchmark_generator(1.0),
                              build_fbar(benchmark_generator(1.0), 1.0, box_points()).as_generator())]
        fold = averaging_lab._WindowFold(0.5, 20, *fields, coeffs128, 2 * rows, STREAM_CFG.eta0)
        ws = averaging_lab._FoldWorkspace(rows, grid.n_nodes)
        noise = eta_noise(coeffs128, make_ensemble(grid, H75, rows, STREAM_CFG.rng))
        extremes = noise.min(axis=0), noise.max(axis=0)
        averaging_lab._window_stats(fold, noise, 0, ws, extremes)
        tracemalloc.start()
        try:
            averaging_lab._window_stats(fold, noise, rows, ws, extremes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # both blocks are merged into the moments, and count is advanced after them
        assert fold.count == 2 * rows == fold.sup_abs.size
        assert np.all(fold.int_m2 > 0.0)
        assert peak < 8 * rows * grid.n_nodes

    @pytest.mark.parametrize("sizes", [(1, 30, 7, 1, 61), (57, 1, 1, 41), (100,), (1, 1)])
    def test_merge_moments_matches_whole_sample(self, sizes):
        # uneven blocks, one-row blocks among them, merged column by column
        sample = np.random.default_rng(7).normal(3.0, 2.0, size=(sum(sizes), 3))
        mean, m2, count = np.zeros(3), np.zeros(3), 0
        for n_b in sizes:
            merge_moments(count, mean, m2, sample[count:count + n_b])
            count += n_b
        np.testing.assert_allclose(mean, np.mean(sample, axis=0), rtol=1e-13)
        np.testing.assert_allclose(np.sqrt(m2 / (count - 1)), np.std(sample, axis=0, ddof=1),
                                   rtol=1e-13)

    def test_clamp_count_reads_only_crossing_columns(self):
        # bounds that some columns cross below, some above, some both and some
        # neither; the count must equal the whole-block compare
        noise = np.random.default_rng(5).standard_normal((300, 40))
        below = np.full(40, -10.0)
        above = np.full(40, 10.0)
        below[5:15], above[10:20] = -1.5, 1.0
        below[30], above[30] = 0.0, 0.0
        extremes = noise.min(axis=0), noise.max(axis=0)
        want = np.count_nonzero(noise < below) + np.count_nonzero(noise > above)
        assert want > 0
        assert averaging_lab._count_outside(noise, extremes, below, above) == want
        assert averaging_lab._count_outside(noise, extremes, below - 5, above + 5) == 0

    def test_fold_shares_no_memory_with_the_fields(self, coeffs128):
        # the folds copy their window rows, so dropping the fields frees the batch
        gens = (benchmark_generator(1.0),
                build_fbar(benchmark_generator(1.0), 1.0, box_points()).as_generator())
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


def command_config(out_dir, n_time, n_paths):
    """A `solve` / `simulate-fbm` config, built without the CLI's floor of 1000 paths."""
    return replace(ExperimentConfig(), n_time=n_time, n_space=64, n_paths=n_paths,
                   out_dir=str(out_dir))


def capture_tables(monkeypatch):
    """Every table a command writes through cli.write_csv, as a float array by file
    name, in place of its file; psi.csv and the manifest are still written."""
    tables = {}

    def write_csv(path, header, rows):
        tables[Path(path).name] = np.array(list(rows), dtype=float)
        return Path(path)

    monkeypatch.setattr(cli, "write_csv", write_csv)
    return tables


def assert_columns_close(got, want, rel=1e-12):
    """Every cell within rel times the largest magnitude of its column."""
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rel * np.abs(want).max(axis=0))


class TestStreamedCommands:
    """`solve` and `simulate-fbm` stream their paths in the sweep's blocks; the
    whole-ensemble routes are their oracles."""

    @pytest.mark.parametrize("n_time, method", [(64, "cholesky"), (1024, "circulant")])
    def test_solve_matches_whole_ensemble_oracle(self, tmp_path, monkeypatch, n_time, method):
        cfg = command_config(tmp_path, n_time, 2 * block_rows(n_time + 1) + 37)
        tables = capture_tables(monkeypatch)
        assert cli.cmd_solve(cfg) == 0
        summary, residuals, mal, clamp_fraction = whole_ensemble_solve(cfg)
        # var_Y at t = 0 is 0 against ~1e-30: only a column-scaled bound holds
        assert_columns_close(tables["triple_summary.csv"], summary)
        assert_columns_close(tables["residual_check.csv"], residuals)
        with open(tmp_path / "manifest.csv", encoding="utf-8") as fh:
            notes = dict(csv.reader(fh))
        assert notes["fbm_method"] == method
        assert notes["malliavin_applicable"] == format_value(mal.applicable)
        assert notes["malliavin_max_deviation"] == format_value(mal.max_deviation)
        assert notes["clamp_fraction"] == format_value(clamp_fraction)

    @pytest.mark.parametrize("n_time, capped", [(64, False), (64, True), (65, False),
                                                (1024, False)])
    def test_simulate_fbm_matches_whole_ensemble_oracle(self, tmp_path, monkeypatch,
                                                        n_time, capped):
        rows = block_rows(n_time + 1)
        cfg = command_config(tmp_path, n_time, 2 * rows + 37)
        if capped:  # the row cap falls inside the second block
            monkeypatch.setattr(cli, "MAX_CSV_ROWS", (rows + 10) * (n_time + 1))
        tables = capture_tables(monkeypatch)
        assert cli.cmd_simulate_fbm(cfg) == 0
        paths, cov = whole_ensemble_simulate_fbm(cfg, cli.MAX_CSV_ROWS, cli.COVARIANCE_NODES)
        # bit for bit, so paths.csv's text is the same too
        assert np.array_equal(tables["paths.csv"].view(np.int64), paths.view(np.int64))
        assert_columns_close(tables["covariance_check.csv"], cov)
        # at most 64 nodes per axis, ending at t_n: every node at 64 steps,
        # t_1, t_3, ..., t_65 at 65 and every 16th at 1024
        stride, nodes_per_axis = {64: (1, 64), 65: (2, 33), 1024: (16, 64)}[n_time]
        assert len(tables["covariance_check.csv"]) == nodes_per_axis**2
        assert tables["covariance_check.csv"][-1, :2].tolist() == [1.0, 1.0]
        with open(tmp_path / "manifest.csv", encoding="utf-8") as fh:
            assert dict(csv.reader(fh))["covariance_stride"] == str(stride)

    def test_solve_domain_error_counts_every_node_of_every_block(self, tmp_path, monkeypatch,
                                                                  capsys):
        # b = A cos(2 pi t), as the sweep's twin: eta leaves the domain mid-horizon
        amp = 200.0
        swing = DeterministicFn(fn=lambda t: amp * np.cos(2 * np.pi * t), name="swing")
        coefficient_fn = ExperimentConfig.coefficient_fn
        monkeypatch.setattr(ExperimentConfig, "coefficient_fn",
                            lambda cfg, which: swing if which == "b" else coefficient_fn(cfg, which))
        cfg = command_config(tmp_path, 64, 2 * block_rows(65) + 5)
        coeffs = cfg.coefficient_set()
        lo, hi = domain_bounds(coeffs, cfg.epsilon, cfg.eta0, cfg.kappa)
        ens = make_ensemble(coeffs.grid, coeffs.hurst, cfg.n_paths, cfg.rng())
        eta = simulate_eta(coeffs, ens, cfg.epsilon, cfg.eta0)
        want = np.count_nonzero((eta < lo) | (eta > hi)) / eta.size
        assert want > 0.01
        with pytest.raises(DomainTooSmallError) as err:
            cli.cmd_solve(cfg)
        assert err.value.clamp_fraction == want
        assert err.value.half_width == (hi - lo) / 2.0
        # on the command line the error is a numeric one: exit code 3
        config = tmp_path / "swing.cfg"
        config.write_text(f"n_time = 64\nn_space = 64\nn_paths = {cfg.n_paths}\n",
                          encoding="utf-8")
        assert cli.main(["solve", "--config", str(config), "--out", str(tmp_path / "cli")]) == 3
        assert f"{want:.2%} of path nodes left the PDE domain" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "simulate-fbm"])
    def test_command_memory_bounded_in_n_paths(self, tmp_path, monkeypatch, command):
        # both counts write the same 100 paths to paths.csv
        monkeypatch.setattr(cli, "MAX_CSV_ROWS", 100 * 65)
        run = cli.cmd_solve if command == "solve" else cli.cmd_simulate_fbm

        def peak(n_paths):
            cfg = command_config(tmp_path / str(n_paths), 64, n_paths)
            tracemalloc.start()
            try:
                assert run(cfg) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # both counts are above one block of 2016 paths, 4x apart
        small, large = peak(2500), peak(10_000)
        # no n_paths x n_nodes array is held
        assert large - small < 8 * 2500 * 65
