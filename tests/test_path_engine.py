import mmap
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sfrbsde import path_engine
from sfrbsde.errors import EmbeddingError, FactorizationError
from sfrbsde.frac_kernel import (
    CoefficientSet,
    DeterministicFn,
    HurstModel,
    norm_sq,
)
from sfrbsde.grids import TimeGrid
from sfrbsde.path_engine import (
    RngSpec,
    block_rows,
    bm_paths,
    check_lemma_var_bound,
    circulant_eigenvalues,
    cholesky_factor,
    eta_noise,
    fbm_cholesky,
    fbm_covariance,
    fbm_circulant,
    fbm_increment_autocov,
    levels,
    make_ensemble,
    noise_stream,
    path_blocks,
    simulate_eta,
    wiener_integral_det,
)

from oracles import (
    PURPOSE_BM,
    PURPOSE_FBM,
    differenced_cholesky,
    discrete_wiener_variance,
    fbm_cov,
    fgn_covariance,
    level_route_noise,
    per_path_bm,
    per_path_fbm_cholesky,
    per_path_fbm_circulant,
    per_path_normals,
)

H75 = HurstModel(0.75)
RNG = RngSpec(seed=42)
ONE = DeterministicFn.const(1.0)
ZERO = DeterministicFn.const(0.0)
IDENT = DeterministicFn.linear(1.0)

N_PATHS = 20_000


@pytest.fixture(scope="module")
def ensemble_t2():
    """Matched (B, BH) on 8 steps over [0, 2] (contains t = 1 and t = 2)."""
    return make_ensemble(TimeGrid(T=2.0, n_steps=8), H75, N_PATHS, RNG)


@pytest.fixture(scope="module")
def ensemble_t1():
    return make_ensemble(TimeGrid(T=1.0, n_steps=128), H75, N_PATHS, RNG)


def var_se(sample_var, n):
    return sample_var * np.sqrt(2.0 / (n - 1))


class TestFbmCholesky:
    def test_single_step_marginal(self):
        grid = TimeGrid(T=1.0, n_steps=2)  # minimal grid; check marginal at T
        ens = fbm_cholesky(grid, H75, 100_000, RNG)
        v = ens.BH[:, -1].var(ddof=1)
        assert abs(v - 1.0) <= 3 * var_se(1.0, 100_000)

    def test_cov_at_1_2(self, ensemble_t2):
        BH = ensemble_t2.BH
        # nodes t=1 and t=2 are indices 4 and 8 on the 8-step grid over [0,2]
        emp = np.mean(BH[:, 4] * BH[:, 8])
        want = np.sqrt(2.0)
        se = np.sqrt(np.mean((BH[:, 4] * BH[:, 8] - emp) ** 2) / (N_PATHS - 1))
        assert abs(emp - want) <= 3 * se

    def test_self_similar_scaling(self, ensemble_t2):
        t = ensemble_t2.grid.nodes[1:]
        rescaled = ensemble_t2.BH[:, 1:] / t[None, :] ** H75.h
        variances = rescaled.var(axis=0, ddof=1)
        z = np.abs(variances - 1.0) / var_se(1.0, N_PATHS)
        assert z.max() <= 3.5

    def test_covariance_grid(self, ensemble_t2):
        t = ensemble_t2.grid.nodes[1:]
        ana = 0.5 * (t[:, None] ** 1.5 + t[None, :] ** 1.5
                     - np.abs(t[:, None] - t[None, :]) ** 1.5)
        emp = np.cov(ensemble_t2.BH[:, 1:].T)
        se = np.sqrt((np.outer(np.diag(ana), np.diag(ana)) + ana**2) / (N_PATHS - 1))
        assert np.abs((emp - ana) / se).max() <= 3.0

    def test_starts_at_zero(self, ensemble_t2):
        assert np.all(ensemble_t2.BH[:, 0] == 0.0)
        assert np.all(ensemble_t2.B[:, 0] == 0.0)

    @pytest.mark.parametrize("n", [16, 128, 512])
    @pytest.mark.parametrize("h", [0.51, 0.75, 0.95, 0.99])
    def test_factor_reproduces_the_fgn_covariance(self, n, h):
        # the factor of the fGn covariance itself is that matrix to rounding,
        # near H = 1 and at CHOLESKY_MAX_STEPS too
        grid = TimeGrid(T=1.0, n_steps=n)
        cov = fgn_covariance(grid, HurstModel(h))
        chol = cholesky_factor(grid, HurstModel(h))
        assert np.abs(chol @ chol.T - cov).max() <= 1e-14 * np.abs(cov).max()

    @pytest.mark.parametrize("n", [16, 128, 512])
    @pytest.mark.parametrize("h", [0.51, 0.75, 0.95, 0.99])
    def test_factor_matches_the_differenced_route(self, n, h):
        # a Cholesky factor is unique, so both routes give one D L; the
        # differenced route's rounding is the level covariance's condition
        # number times the unit roundoff, relative to the factor's size
        grid = TimeGrid(T=1.0, n_steps=n)
        level = fbm_covariance(grid.nodes[1:], HurstModel(h))
        chol = cholesky_factor(grid, HurstModel(h))
        tol = np.linalg.cond(level) * np.finfo(float).eps * np.abs(chol).max()
        assert np.abs(chol - differenced_cholesky(level)).max() <= tol


class TestLevels:
    def test_levels_of_increments(self, ensemble_t2):
        for levels_of, incr in ((ensemble_t2.B, ensemble_t2.dB), (ensemble_t2.BH, ensemble_t2.dBH)):
            assert incr.shape == (N_PATHS, 8)
            assert levels_of.shape == (N_PATHS, 9)
            assert np.all(levels_of[:, 0] == 0.0)
            assert np.array_equal(levels_of, levels(incr))

    def test_levels_are_cached(self):
        ens = make_ensemble(TimeGrid(T=1.0, n_steps=8), H75, 16, RNG)
        assert ens.B is ens.B
        assert ens.BH is ens.BH

    def test_one_sided_ensemble_has_no_other_levels(self):
        ens = fbm_cholesky(TimeGrid(T=1.0, n_steps=8), H75, 16, RNG)
        assert ens.dB is None and ens.B is None
        with pytest.raises(ValueError):
            wiener_integral_det(ONE, ens, "B")

    def test_differenced_factor_is_the_fgn_covariance(self):
        # the second route to the factor, the fBm level covariance's factor
        # with its rows differenced: (D L)(D L)^T is the Toeplitz matrix of
        # the increment autocovariance too
        for n in (16, 128):
            grid = TimeGrid(T=2.0, n_steps=n)
            dl = differenced_cholesky(fbm_covariance(grid.nodes[1:], H75))
            assert np.allclose(dl @ dl.T, fgn_covariance(grid, H75), rtol=0.0, atol=1e-12)


class TestFbmCirculant:
    def test_increment_autocov_lag0(self):
        dt = 0.25
        assert fbm_increment_autocov(0, H75, dt) == pytest.approx(dt**1.5, rel=1e-14)

    def test_lag1_correlation_formula(self):
        want = (2**1.5 - 2.0) / 2.0
        got = fbm_increment_autocov(1, H75) / fbm_increment_autocov(0, H75)
        assert got == pytest.approx(want, rel=1e-14)

    def test_lag1_correlation_empirical(self):
        grid = TimeGrid(T=1.0, n_steps=64)
        ens = fbm_circulant(grid, H75, N_PATHS, RNG)
        inc = np.diff(ens.BH, axis=1)
        got = np.mean(inc[:, 20] * inc[:, 21]) / fbm_increment_autocov(0, H75, grid.dt)
        want = (2**1.5 - 2.0) / 2.0
        assert abs(got - want) <= 4.0 / np.sqrt(N_PATHS)

    def test_telescoping_variance(self):
        grid = TimeGrid(T=2.0, n_steps=32)
        ens = fbm_circulant(grid, H75, 50_000, RNG)
        v = ens.BH[:, -1].var(ddof=1)
        want = 2.0**1.5
        assert abs(v - want) <= 3 * var_se(want, 50_000)

    def test_eigenvalues_nonnegative(self):
        for h in (0.55, 0.75, 0.95):
            eig = circulant_eigenvalues(256, HurstModel(h), 1.0 / 256)
            assert eig.min() >= 0.0

    def test_negative_eigenvalue_guard(self, monkeypatch):
        import sfrbsde.path_engine as pe

        monkeypatch.setattr(pe, "fbm_increment_autocov",
                            lambda lag, hurst, dt=1.0: np.where(
                                np.asarray(lag) == 0, -1.0, 0.0))
        with pytest.raises(EmbeddingError):
            circulant_eigenvalues(16, H75, 0.1)

    def test_methods_agree_in_moments(self):
        grid = TimeGrid(T=1.0, n_steps=16)
        a = fbm_cholesky(grid, H75, N_PATHS, RngSpec(seed=11))
        b = fbm_circulant(grid, H75, N_PATHS, RngSpec(seed=12))
        va = a.BH[:, 1:].var(axis=0, ddof=1)
        vb = b.BH[:, 1:].var(axis=0, ddof=1)
        se = np.sqrt(var_se(va, N_PATHS) ** 2 + var_se(vb, N_PATHS) ** 2)
        assert np.abs((va - vb) / se).max() <= 4.0
        mean_se = np.sqrt((va + vb) / N_PATHS)
        assert np.abs((a.BH[:, 1:].mean(axis=0) - b.BH[:, 1:].mean(axis=0)) / mean_se).max() <= 4.0


class TestBmPaths:
    def test_terminal_variance(self, ensemble_t2):
        v = ensemble_t2.B[:, -1].var(ddof=1)
        assert abs(v - 2.0) <= 3 * var_se(2.0, N_PATHS)

    def test_min_covariance(self, ensemble_t2):
        B = ensemble_t2.B
        prod = B[:, 2] * B[:, 6]  # t=0.5, t=1.5: Cov = 0.5
        se = prod.std(ddof=1) / np.sqrt(N_PATHS)
        assert abs(prod.mean() - 0.5) <= 3 * se

    def test_independent_of_fbm(self, ensemble_t2):
        corr = np.corrcoef(ensemble_t2.B[:, -1], ensemble_t2.BH[:, -1])[0, 1]
        assert abs(corr) <= 3.0 / np.sqrt(N_PATHS)


class TestWienerIntegral:
    def test_constant_telescopes(self, ensemble_t2):
        # telescopes to BH(T); summation order differs from plain subtraction
        # only at the last ulp
        got = wiener_integral_det(ONE, ensemble_t2, "BH")
        assert np.allclose(got, ensemble_t2.BH[:, -1], rtol=1e-12, atol=1e-13)

    def test_zero_integrand(self, ensemble_t2):
        assert np.all(wiener_integral_det(ZERO, ensemble_t2, "B") == 0.0)

    def test_zero_mean(self, ensemble_t1):
        for which in ("B", "BH"):
            vals = wiener_integral_det(IDENT, ensemble_t1, which)
            assert abs(vals.mean()) <= 3 * vals.std(ddof=1) / np.sqrt(N_PATHS)

    def test_isometry_against_kernel_norm(self, ensemble_t1):
        vals = wiener_integral_det(IDENT, ensemble_t1, "BH")
        emp = vals.var(ddof=1)
        want = norm_sq(IDENT, 1.0, H75)
        assert abs(emp - want) <= 3 * var_se(want, N_PATHS) + abs(
            discrete_wiener_variance(ensemble_t1.grid.nodes[:-1],
                                     ensemble_t1.grid.nodes, 0.75) - want
        )

    def test_discrete_variance_matches_exact_covariance(self, ensemble_t2):
        # exact finite-sum variance from the fBm covariance, no asymptotics
        nodes = ensemble_t2.grid.nodes
        xi = nodes[:-1]
        want = discrete_wiener_variance(xi, nodes, 0.75)
        vals = wiener_integral_det(IDENT, ensemble_t2, "BH")
        emp = vals.var(ddof=1)
        assert abs(emp - want) <= 3 * var_se(want, N_PATHS)


class TestLemmaVarBound:
    def test_constant_integrand(self, ensemble_t1):
        rep = check_lemma_var_bound(ONE, ensemble_t1)
        # lhs is T^2H = 1; rhs = 0.75 + 0.75
        assert rep.lhs == pytest.approx(1.0, abs=0.05)
        assert rep.rhs == pytest.approx(1.5, rel=1e-9)
        assert rep.holds

    def test_zero_integrand(self, ensemble_t1):
        rep = check_lemma_var_bound(ZERO, ensemble_t1)
        assert rep.lhs == 0.0
        assert rep.rhs == pytest.approx(0.75, rel=1e-9)
        assert rep.holds

    def test_linear_integrand(self, ensemble_t1):
        rep = check_lemma_var_bound(IDENT, ensemble_t1)
        assert rep.rhs == pytest.approx(0.75 / 3.0 + 0.75, rel=1e-9)
        assert rep.lhs == pytest.approx(2.0 / 7.0, abs=0.02)
        assert rep.holds


@pytest.fixture(scope="module")
def coeffs():
    grid = TimeGrid(T=1.0, n_steps=128)
    return CoefficientSet.build(ONE, ONE, ONE, grid, H75)


class TestSimulateEta:

    def test_deterministic_case(self):
        # noise channels silenced by zeroing the draws: eta = eps^2H int b
        grid = TimeGrid(T=1.0, n_steps=64)
        coeffs = CoefficientSet.build(ONE, ONE, ONE, grid, H75)
        ens = make_ensemble(grid, H75, 4, RNG)
        ens.dB[:] = 0.0
        ens.dBH[:] = 0.0
        eta = simulate_eta(coeffs, ens, 0.5, eta0=0.0)
        want = 0.5**1.5 * grid.nodes
        assert np.allclose(eta, want[None, :], atol=1e-12)

    def test_variance_scaling(self, coeffs, ensemble_t1):
        coeffs_nodrift = CoefficientSet.build(ZERO, ONE, ONE, coeffs.grid, H75)
        eta = simulate_eta(coeffs_nodrift, ensemble_t1, 0.5, eta0=0.0)
        v = eta[:, -1].var(ddof=1)
        want = 0.5**1.5 * 2.0
        assert abs(v - want) <= 3 * var_se(want, N_PATHS) + 0.01 * want

    def test_epsilon_one_is_unscaled(self, coeffs, ensemble_t1):
        eta = simulate_eta(coeffs, ensemble_t1, 1.0, eta0=0.25)
        drift = coeffs.b_int_table
        noise = np.cumsum(np.diff(ensemble_t1.B, axis=1), axis=1) + np.cumsum(
            np.diff(ensemble_t1.BH, axis=1), axis=1
        )
        want = 0.25 + drift[None, :]
        want = want.repeat(eta.shape[0], axis=0)
        want[:, 1:] += noise
        assert np.allclose(eta, want, atol=1e-12)

    def test_noise_is_one_cumsum_of_increments(self, coeffs, ensemble_t1):
        left = coeffs.grid.nodes[:-1]
        noise = eta_noise(coeffs, ensemble_t1)
        want = np.cumsum(coeffs.sigma1(left) * ensemble_t1.dB
                         + coeffs.sigma2(left) * ensemble_t1.dBH, axis=1)
        assert np.all(noise[:, 0] == 0.0)
        assert np.array_equal(noise[:, 1:], want)

    def test_noise_matches_the_level_route(self):
        # levels from the per-path oracles: a BM cumsum per path, and
        # B^H = Z L^T from the undifferenced Cholesky factor
        grid = TimeGrid(T=1.0, n_steps=128)
        coeffs = CoefficientSet.build(ONE, DeterministicFn.linear(1.0),
                                      DeterministicFn.sinusoidal(1.0, 1.0), grid, H75)
        B = levels(per_path_bm(grid, 500, RNG))
        BH = np.zeros_like(B)
        BH[:, 1:] = (per_path_normals(RNG, PURPOSE_FBM, 0, 500, 128)
                     @ np.linalg.cholesky(fbm_covariance(grid.nodes[1:], H75)).T)
        want = level_route_noise(coeffs, B, BH)
        got = eta_noise(coeffs, make_ensemble(grid, H75, 500, RNG))[:, 1:]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_common_random_numbers_exact(self):
        grid = TimeGrid(T=1.0, n_steps=32)
        coeffs = CoefficientSet.build(ZERO, ONE, DeterministicFn.const(0.0), grid, H75)
        ens = make_ensemble(grid, H75, 256, RNG)
        e1 = simulate_eta(coeffs, ens, 0.6)
        e2 = simulate_eta(coeffs, ens, 0.15)
        ratio1 = e1[:, 1:] / 0.6**0.75
        ratio2 = e2[:, 1:] / 0.15**0.75
        assert np.allclose(ratio1, ratio2, rtol=1e-12, atol=1e-14)

    def test_epsilon_range_enforced(self, coeffs, ensemble_t1):
        for bad in (0.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                simulate_eta(coeffs, ensemble_t1, bad)


class TestDeterminism:
    def test_path_prefix_stable_under_count(self):
        # per-path sub-streams: the first k paths do not depend on n_paths
        grid = TimeGrid(T=1.0, n_steps=32)
        small = make_ensemble(grid, H75, 64, RngSpec(seed=7))
        large = make_ensemble(grid, H75, 256, RngSpec(seed=7))
        assert np.array_equal(small.BH, large.BH[:64])
        assert np.array_equal(small.B, large.B[:64])

    def test_seed_changes_paths(self):
        grid = TimeGrid(T=1.0, n_steps=16)
        a = make_ensemble(grid, H75, 16, RngSpec(seed=1))
        b = make_ensemble(grid, H75, 16, RngSpec(seed=2))
        assert not np.allclose(a.BH, b.BH)


class TestSeedingOracle:
    """One counter-reset bit generator per call draws bitwise what a fresh
    generator per path draws (tests/oracles.py)."""

    N = 300
    RNG = RngSpec(seed=42, stream=1_000)

    # row lengths that end a path's draws at different points of Philox's
    # 4-word output buffer; 1 is shorter than any grid
    @pytest.mark.parametrize("n", [1, 3, 128])
    @pytest.mark.parametrize("purpose", [PURPOSE_BM, PURPOSE_FBM])
    def test_fill_normals_rows(self, n, purpose):
        # rows from path 500 on, offset through the stream as path_blocks does
        out = np.empty((7, n))
        replace(self.RNG, stream=self.RNG.stream + 500).fill_normals(purpose, out)
        assert np.array_equal(out, per_path_normals(self.RNG, purpose, 500, 7, n))

    # the largest seed, and path counters whose last row sits at 2^64 - 1
    @pytest.mark.parametrize("stream, first_path", [(2**64 - 8, 0), (0, 2**64 - 8),
                                                    (2**63, 2**63 - 8)])
    def test_fill_normals_at_uint64_edges(self, stream, first_path):
        rng = RngSpec(seed=2**64 - 1, stream=stream)
        out = np.empty((8, 128))
        replace(rng, stream=stream + first_path).fill_normals(PURPOSE_FBM, out)
        assert np.array_equal(out, per_path_normals(rng, PURPOSE_FBM, first_path, 8, 128))

    @pytest.mark.parametrize("n_steps", [2, 3, 128])
    def test_bm_paths(self, n_steps):
        grid = TimeGrid(T=1.0, n_steps=n_steps)
        got = bm_paths(grid, self.N, self.RNG)
        want = per_path_bm(grid, self.N, self.RNG)
        assert np.array_equal(got.dB, want)
        assert np.array_equal(got.B[:, 1:], np.array([np.cumsum(row) for row in want]))

    @pytest.mark.parametrize("n_steps", [2, 3, 128])
    def test_fbm_cholesky(self, n_steps):
        grid = TimeGrid(T=1.0, n_steps=n_steps)
        got = fbm_cholesky(grid, H75, self.N, self.RNG).dBH
        assert np.array_equal(got, per_path_fbm_cholesky(grid, H75, self.N, self.RNG))

    @pytest.mark.parametrize("n_steps", [2, 3, 128])
    def test_fbm_circulant(self, n_steps):
        grid = TimeGrid(T=1.0, n_steps=n_steps)
        got = fbm_circulant(grid, H75, self.N, self.RNG)
        want = per_path_fbm_circulant(grid, H75, self.N, self.RNG)
        assert np.array_equal(got.dBH, want)
        assert np.array_equal(got.BH[:, 1:], np.array([np.cumsum(row) for row in want]))


class TestPathBlocks:
    """Every command draws through path_blocks; the blocks are the whole ensemble."""

    @pytest.mark.parametrize("n_steps, method", [(64, "cholesky"), (1024, "circulant")])
    def test_blocks_draw_the_whole_ensemble(self, n_steps, method):
        grid = TimeGrid(T=1.0, n_steps=n_steps)
        rows = block_rows(grid.n_nodes)
        n_paths = 2 * rows + 37
        blocks = list(path_blocks(n_paths, grid.n_nodes, RngSpec(seed=42, stream=5)))
        assert [(start, n) for start, n, _ in blocks] == [(0, rows), (rows, rows), (2 * rows, 37)]
        assert [rng.stream for _, _, rng in blocks] == [5, 5 + rows, 5 + 2 * rows]
        drawn = [make_ensemble(grid, H75, n, rng) for _, n, rng in blocks]
        whole = make_ensemble(grid, H75, n_paths, RngSpec(seed=42, stream=5))
        assert whole.fbm_method == method
        for name in ("dB", "dBH"):
            got = np.concatenate([getattr(ens, name) for ens in drawn])
            assert np.array_equal(got, getattr(whole, name))

    def test_one_block_below_its_size(self):
        assert [(s, n) for s, n, _ in path_blocks(3, 65, RNG)] == [(0, 3)]
        assert block_rows(path_engine.BLOCK_CELLS + 1) == 1


class TestNoiseStream:
    """The sweep's producer process draws each block's noise as the serial route
    does, into a ring it shares with the caller."""

    @pytest.mark.parametrize("n_steps", [64, 130, 1024])
    def test_blocks_equal_serial_draws(self, n_steps):
        grid = TimeGrid(T=1.0, n_steps=n_steps)
        coeffs = CoefficientSet.build(ZERO, DeterministicFn.sinusoidal(1.0, 1.0), ONE, grid, H75)
        rng = RngSpec(seed=42, stream=5)
        rows = block_rows(grid.n_nodes)
        # more blocks than ring slots, and a short last block
        n_paths = (path_engine.STREAM_SLOTS + 1) * rows + 37
        with noise_stream(coeffs, n_paths, rng) as (blocks, _):
            got = [(start, noise.copy()) for start, noise in blocks]
        want = [(start, eta_noise(coeffs, make_ensemble(grid, H75, n, block_rng)))
                for start, n, block_rng in path_blocks(n_paths, grid.n_nodes, rng)]
        assert [start for start, _ in got] == [start for start, _ in want]
        assert got[-1][1].shape == (37, grid.n_nodes)
        for (_, noise), (_, serial) in zip(got, want):
            assert np.array_equal(noise.view(np.int64), serial.view(np.int64))

    def test_one_short_block(self, coeffs):
        with noise_stream(coeffs, 3, RNG) as (blocks, _):
            (start, noise), = list(blocks)
        want = eta_noise(coeffs, make_ensemble(coeffs.grid, H75, 3, RNG))
        assert start == 0 and np.array_equal(noise, want)

    def test_a_block_stays_put_until_the_iterator_advances(self, coeffs, monkeypatch):
        # 4-path blocks: a slot handed back before the caller is done with it
        # would change under the caller's reads
        monkeypatch.setattr(path_engine, "BLOCK_CELLS", 4 * coeffs.grid.n_nodes)
        with noise_stream(coeffs, 403, RNG) as (blocks, _):
            for start, noise in blocks:
                first = noise.copy()
                for _ in range(20):
                    assert np.array_equal(noise, first)
                n = noise.shape[0]
                want = eta_noise(coeffs, make_ensemble(
                    coeffs.grid, H75, n, RngSpec(seed=RNG.seed, stream=start)))
                assert np.array_equal(noise, want)
        assert start == 400 and n == 3

    def test_leaving_early_joins_the_producer(self, coeffs, started_processes):
        with noise_stream(coeffs, 10 * block_rows(coeffs.grid.n_nodes), RNG) as (blocks, _):
            next(blocks)
        started_processes.assert_joined([0])

    @pytest.mark.parametrize("n_paths", [0, -1])
    def test_no_paths_is_rejected_before_the_fork(self, coeffs, started_processes, n_paths):
        with pytest.raises(ValueError, match="n_paths must be positive"):
            with noise_stream(coeffs, n_paths, RNG):
                pass
        started_processes.assert_joined([])

    def test_an_error_after_the_producer_waits_reaches_the_caller(self, coeffs, monkeypatch,
                                                                 started_processes):
        # the producer fails on block STREAM_SLOTS and exits while the slower
        # caller still reads earlier blocks and hands their slots back to it
        caller = os.getpid()
        drawn = []
        real = path_engine.make_ensemble

        def failing(*args):
            if os.getpid() != caller:
                drawn.append(1)  # in the producer's memory
                if len(drawn) > path_engine.STREAM_SLOTS:
                    raise FactorizationError("late failure")
            return real(*args)

        monkeypatch.setattr(path_engine, "make_ensemble", failing)
        rows = block_rows(coeffs.grid.n_nodes)
        read = []
        with pytest.raises(RuntimeError, match=r"noise producer exited \(code 1\) before "
                                               f"drawing block {path_engine.STREAM_SLOTS}"):
            with noise_stream(coeffs, 10 * rows, RNG) as (blocks, _):
                for start, _ in blocks:
                    read.append(start)
                    time.sleep(0.1)
        assert read == [0, rows, 2 * rows]
        started_processes.assert_joined([1])

    def test_a_producer_that_dies_is_reported(self, coeffs, monkeypatch, started_processes):
        # only the producer dies: the caller's own one-path draw goes through
        caller = os.getpid()
        real = path_engine.make_ensemble

        def dying(*args):
            if os.getpid() != caller:
                os._exit(7)
            return real(*args)

        monkeypatch.setattr(path_engine, "make_ensemble", dying)
        with pytest.raises(RuntimeError, match=r"noise producer exited \(code 7\) before "
                                               "drawing block 0"):
            with noise_stream(coeffs, 10, RNG) as (blocks, _):
                next(blocks)
        started_processes.assert_joined([7])


class TestMakeEnsemble:
    @pytest.mark.parametrize("n_steps, method", [(512, "cholesky"), (513, "circulant")])
    def test_grid_size_picks_the_sampler(self, n_steps, method):
        grid = TimeGrid(T=1.0, n_steps=n_steps)
        ens = make_ensemble(grid, H75, 4, RNG)
        sampler = fbm_cholesky if method == "cholesky" else fbm_circulant
        assert ens.fbm_method == method
        assert np.array_equal(ens.BH, sampler(grid, H75, 4, RNG).BH)


class TestSeedingWork:
    @pytest.mark.parametrize("method", ["cholesky", "circulant"])
    def test_one_bit_generator_per_purpose(self, monkeypatch, method):
        built = []
        real = np.random.Philox

        def counting(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        if method == "circulant":
            monkeypatch.setattr(path_engine, "CHOLESKY_MAX_STEPS", 0)
        ens = make_ensemble(TimeGrid(T=1.0, n_steps=16), H75, 600, RNG)
        assert ens.fbm_method == method
        # one generator draws all of B, one all of B^H
        assert len(built) == 2


class TestFactorMemo:
    """The Cholesky factor is built once per (grid, hurst); the jitter fallback stays.
    The circulant eigenvalues cost well under 2% of a block's draw and are not kept."""

    GRID = TimeGrid(T=1.0, n_steps=16)

    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        cholesky_factor.cache_clear()
        yield
        cholesky_factor.cache_clear()

    def failing_cholesky(self, monkeypatch, failures):
        real = np.linalg.cholesky
        calls = []

        def cholesky(a):
            calls.append(a.copy())
            if len(calls) <= failures:
                raise np.linalg.LinAlgError("forced failure")
            return real(a)

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        return calls

    def test_factor_is_memoised_and_read_only(self):
        chol = cholesky_factor(self.GRID, H75)
        assert cholesky_factor(TimeGrid(T=1.0, n_steps=16), HurstModel(0.75)) is chol
        assert not chol.flags.writeable
        assert np.array_equal(chol, np.linalg.cholesky(fgn_covariance(self.GRID, H75)))

    def test_one_failure_adds_jitter(self, monkeypatch):
        cov = fgn_covariance(self.GRID, H75)
        want = np.linalg.cholesky(cov + 1e-12 * np.eye(16))
        calls = self.failing_cholesky(monkeypatch, failures=1)
        got = fbm_cholesky(self.GRID, H75, 5, RNG)
        assert len(calls) == 2
        assert np.array_equal(calls[0], cov)
        assert np.array_equal(calls[1], cov + 1e-12 * np.eye(16))
        assert np.array_equal(cholesky_factor(self.GRID, H75), want)
        assert len(calls) == 2  # memoised: the jittered factor is not rebuilt
        assert np.array_equal(got.dBH, per_path_normals(RNG, PURPOSE_FBM, 0, 5, 16) @ want.T)

    def test_two_failures_raise(self, monkeypatch):
        calls = self.failing_cholesky(monkeypatch, failures=2)
        with pytest.raises(FactorizationError):
            fbm_cholesky(self.GRID, H75, 5, RNG)
        assert len(calls) == 2

    @pytest.mark.parametrize("method", ["cholesky", "circulant"])
    def test_one_factorisation_per_sweep(self, monkeypatch, method):
        from sfrbsde.averaging_lab import SweepConfig, run_sweep
        from sfrbsde.bsde_solver import PdeConfig, TerminalCondition
        from sfrbsde.config import benchmark_generator

        # the producer process draws, so it counts in memory it shares with
        # this one: [Cholesky factors, circulant eigenvalue sets]
        built = np.frombuffer(mmap.mmap(-1, 16), dtype=np.int64)

        def counted(index, fn):
            def call(*args):
                built[index] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(path_engine, "circulant_eigenvalues",
                            counted(1, path_engine.circulant_eigenvalues))
        monkeypatch.setattr(np.linalg, "cholesky", counted(0, np.linalg.cholesky))
        if method == "circulant":
            monkeypatch.setattr(path_engine, "CHOLESKY_MAX_STEPS", 0)
        coeffs = CoefficientSet.build(ZERO, ONE, ONE, self.GRID, H75)
        n_paths = 3 * path_engine.block_rows(self.GRID.n_nodes) + 5
        cfg = SweepConfig(n_paths=n_paths, t0=0.75, eta0=1.0,
                          pde=PdeConfig(kappa=6.0, n_space=64), rng=RngSpec(seed=42))
        run_sweep(benchmark_generator(1.0), coeffs, TerminalCondition.square(),
                  (0.5, 0.3, 0.2), cfg)
        # four path blocks, three eps: one Cholesky factor for the sweep, or
        # one set of circulant eigenvalues per block and one for the sweep's
        # own one-path draw before the fork
        assert built[0] == (method == "cholesky")
        assert built[1] == (5 if method == "circulant" else 0)


def test_module_imports_alone(tmp_path):
    """The package re-exports nothing: a module loads only what it imports,
    and no command on the sweep or solve path loads SciPy."""
    src = str(Path(path_engine.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, sfrbsde.path_engine; "
            "print(sorted({'scipy', 'sfrbsde.averaging_lab'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"

    config = tmp_path / "small.cfg"
    config.write_text("n_time = 64\nn_space = 64\nn_paths = 1000\n", encoding="utf-8")
    code = ("import sys; from sfrbsde import cli; "
            "rcs = [cli.main([cmd, '--config', sys.argv[1], '--out', sys.argv[2] + '/' + cmd]) "
            "for cmd in ('sweep', 'solve')]; "
            "print(rcs, 'scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(config), str(tmp_path)],
                         capture_output=True, text=True, check=True, env=env)
    assert out.stdout.splitlines()[-1] == "[0, 0] False"
