import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from sfrbsde import bsde_solver
from sfrbsde.averaging_lab import SweepConfig, box_points, build_fbar, run_sweep
from sfrbsde.bsde_solver import (
    Generator,
    PdeConfig,
    ResidualCheck,
    TerminalCondition,
    TridiagonalLanes,
    cell_table,
    central_gradient,
    check_clamp,
    domain_bounds,
    extract_triple,
    interp_at,
    locate,
    malliavin_representation_check,
    solve_psi,
    solve_psis,
    thomas_factors,
)
from sfrbsde.config import benchmark_generator, config_from_mapping
from sfrbsde.errors import CoefficientError, DomainTooSmallError, NumericError, PicardError
from sfrbsde.frac_kernel import CoefficientSet, DeterministicFn, HurstModel
from sfrbsde.grids import TimeGrid
from sfrbsde.path_engine import RngSpec, make_ensemble, simulate_eta

from oracles import per_column_triple

H75 = HurstModel(0.75)
ONE = DeterministicFn.const(1.0)
ZERO = DeterministicFn.const(0.0)


def build_coeffs(n=128, sigma1=ONE, sigma2=ONE, b=ZERO, T=1.0):
    return CoefficientSet.build(b, sigma1, sigma2, TimeGrid(T=T, n_steps=n), H75)


@pytest.fixture(scope="module")
def coeffs128():
    return build_coeffs(n=128)


@pytest.fixture(scope="module")
def paths128(coeffs128):
    ens = make_ensemble(coeffs128.grid, H75, 20_000, RngSpec(seed=42))
    return simulate_eta(coeffs128, ens, 1.0, eta0=0.0)


def central_errors(field, truth, std, width=4.0):
    mask = np.abs(field.x_nodes) <= width * std
    return np.abs(field.psi[:, mask] - truth[:, mask]).max()


class TestPdeCoefficients:
    """The tables behind the PDE's drift eps^2H b and diffusion (1/2) eps^2H lambda.

    `solve_psis` scales them by eps^2H itself: TestSolvePsi's
    test_epsilon_scaled_quadratic and test_quadratic_terminal_shift check the
    scaling and the exact panel averages through the solution.
    """

    def test_heat_equation_case(self):
        coeffs = build_coeffs(sigma2=DeterministicFn.const(0.0))
        assert np.allclose(coeffs.b_int_table, 0.0)
        assert np.allclose(coeffs.lam_table, 1.0, rtol=1e-10)

    def test_pure_fractional_matches_kernel_rate(self):
        coeffs = build_coeffs(sigma1=DeterministicFn.const(1e-3))
        t = coeffs.grid.nodes[1:]
        want = 1e-6 + 2.0 * 0.75 * t**0.5
        assert np.allclose(coeffs.lam_table[1:], want, rtol=1e-9)

    def test_epsilon_validated(self, coeffs128):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="epsilon"):
                solve_psi(Generator.zero(), TerminalCondition.identity(), coeffs128, bad,
                          PdeConfig(n_space=64))
        with pytest.raises(ValueError, match="epsilon"):
            solve_psis([Generator.zero()], TerminalCondition.identity(), coeffs128,
                       [0.5, 0.0], PdeConfig(n_space=64))


class TestSolvePsi:
    def test_linear_terminal_exact(self, coeffs128):
        field = solve_psi(Generator.zero(), TerminalCondition.identity(),
                          coeffs128, 1.0, PdeConfig(kappa=10.0, n_space=128))
        std = np.sqrt(coeffs128.sigma_abs_sq_table[-1])
        err = central_errors(field, field.x_nodes[None, :].repeat(field.psi.shape[0], 0), std)
        assert err <= 1e-12
        assert np.allclose(field.psi_x, 1.0, atol=1e-10)

    def test_quadratic_terminal_shift(self, coeffs128):
        field = solve_psi(Generator.zero(), TerminalCondition.square(),
                          coeffs128, 1.0, PdeConfig(kappa=10.0, n_space=128))
        shift = coeffs128.sigma_abs_sq_table[-1] - coeffs128.sigma_abs_sq_table
        truth = field.x_nodes[None, :] ** 2 + shift[:, None]
        std = np.sqrt(coeffs128.sigma_abs_sq_table[-1])
        assert central_errors(field, truth, std) <= 1e-6
        # the announced value psi(0, 0) = |sigma|^2_T = 2
        mid = field.x_nodes.size // 2
        assert field.x_nodes[mid] == pytest.approx(0.0, abs=1e-12)
        assert field.psi[0, mid] == pytest.approx(2.0, rel=1e-8)

    def test_linear_generator_growth(self, coeffs128):
        r = 0.1
        field = solve_psi(Generator.linear_y(r), TerminalCondition.identity(),
                          coeffs128, 1.0, PdeConfig(kappa=10.0, n_space=128))
        truth = field.x_nodes[None, :] * np.exp(r * (1.0 - field.t_nodes[:, None]))
        std = np.sqrt(coeffs128.sigma_abs_sq_table[-1])
        assert central_errors(field, truth, std) <= 1e-3
        x = field.x_nodes[96]
        assert field.psi[0, 96] / x == pytest.approx(np.exp(0.1), rel=1e-6)

    def test_terminal_row_exact(self, coeffs128):
        term = TerminalCondition.square()
        field = solve_psi(Generator.zero(), term, coeffs128, 1.0, PdeConfig(n_space=64))
        assert np.array_equal(field.psi[-1], term(field.x_nodes))

    def test_refinement_improves_generator_case(self):
        errs = {}
        for n in (128, 256):
            coeffs = build_coeffs(n=n)
            field = solve_psi(Generator.linear_y(0.1), TerminalCondition.identity(),
                              coeffs, 1.0, PdeConfig(kappa=10.0, n_space=n))
            truth = field.x_nodes[None, :] * np.exp(0.1 * (1.0 - field.t_nodes[:, None]))
            std = np.sqrt(coeffs.sigma_abs_sq_table[-1])
            errs[n] = central_errors(field, truth, std)
        assert errs[256] <= errs[128] / 3.0

    def test_epsilon_scaled_quadratic(self, coeffs128):
        eps = 0.5
        field = solve_psi(Generator.zero(), TerminalCondition.square(),
                          coeffs128, eps, PdeConfig(kappa=10.0, n_space=128))
        shift = eps**1.5 * (coeffs128.sigma_abs_sq_table[-1] - coeffs128.sigma_abs_sq_table)
        truth = field.x_nodes[None, :] ** 2 + shift[:, None]
        std = eps**0.75 * np.sqrt(coeffs128.sigma_abs_sq_table[-1])
        assert central_errors(field, truth, std) <= 1e-6


class TestPicardWork:
    """One factorisation pass per solve, one lane layout per backward step and
    one solve per Picard sweep.  Each step's Picard iteration starts from the
    linear extrapolation 2 psi_{k+1} - psi_{k+2}: 240 solves for f and 215
    for f-bar on this problem, against 262 and 257 from psi_{k+1} (the
    solve_banded call count of the earlier solver that re-factored on every
    sweep)."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"factors": 0, "load": 0, "solve": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        lanes = bsde_solver.TridiagonalLanes
        monkeypatch.setattr(bsde_solver, "thomas_factors",
                            counting("factors", bsde_solver.thomas_factors))
        monkeypatch.setattr(lanes, "load", counting("load", lanes.load))
        monkeypatch.setattr(lanes, "solve", counting("solve", lanes.solve))
        return calls

    @pytest.mark.parametrize("averaged, solves", [(False, 240), (True, 215)], ids=["f", "fbar"])
    def test_factor_once_per_step(self, counted, averaged, solves):
        coeffs = build_coeffs(n=64)
        gen = benchmark_generator(1.0)
        if averaged:
            gen = build_fbar(gen, 1.0, box_points()).as_generator()
        solve_psi(gen, TerminalCondition.square(), coeffs, 0.5, PdeConfig(n_space=64), eta0=1.0)
        assert counted["factors"] == 1
        assert counted["load"] == coeffs.grid.n_steps
        assert counted["solve"] == solves

    def test_sweep_factors_once_per_step(self, counted):
        # all 2 x 3 systems of the sweep share one factorisation pass and one
        # lane layout per step, and the pass stops at the smallest eps's window
        # start T eps^(1 - beta), node 20 of 64
        coeffs = build_coeffs(n=64)
        cfg = SweepConfig(n_paths=1000, t0=0.75, pde=PdeConfig(n_space=64), rng=RngSpec(seed=3))
        run_sweep(benchmark_generator(1.0), coeffs, TerminalCondition.square(),
                  (0.5, 0.3, 0.2), cfg)
        first = coeffs.grid.first_index_at_or_after(0.2 ** (1.0 - cfg.beta))
        assert first == 20
        assert counted["factors"] == 1
        assert counted["load"] == coeffs.grid.n_steps - first


def lanes_solve(sub, main, sup, rhs):
    """Solve the (systems, n) banded systems through thomas_factors and one lane vector."""
    fwd, piv, bwd = thomas_factors(sub.T, main.T, sup.T)
    lanes = TridiagonalLanes(*rhs.shape)
    lanes.load(fwd, piv, bwd)
    lanes.rhs[:] = rhs.reshape(-1)
    return lanes.solve().reshape(rhs.shape)


def banded_solve(sub, main, sup, rhs):
    """The same systems one by one through LAPACK's banded solver (partial pivoting)."""
    out = np.empty_like(rhs)
    for s in range(rhs.shape[0]):
        ab = np.zeros((3, rhs.shape[1]))
        ab[0, 1:], ab[1], ab[2, :-1] = sup[s, :-1], main[s], sub[s, 1:]
        out[s] = solve_banded((1, 1), ab, rhs[s])
    return out


class TestTridiagonalLanes:
    """The Thomas factors and doubling scans against LAPACK's banded solve."""

    class Captured(Exception):
        pass

    def step_matrices(self, monkeypatch, b):
        """Every step matrix of perfbench's sweep-crit7 grid (256 x 256, the five
        default eps) as (systems, n) bands, as solve_psis hands them to thomas_factors."""
        cfg = config_from_mapping({"n_time": "256", "n_space": "256", "b": b})
        bands = []

        def capture(sub, main, sup):
            bands.extend(np.stack(np.broadcast_arrays(*band)) for band in (sub, main, sup))
            raise self.Captured

        monkeypatch.setattr(bsde_solver, "thomas_factors", capture)
        with pytest.raises(self.Captured):
            solve_psis([Generator.zero()], cfg.make_terminal(), cfg.coefficient_set(),
                       cfg.eps_list, cfg.pde(), cfg.eta0)
        # (rows, steps, eps) -> (steps x eps, rows)
        return [band.reshape(band.shape[0], -1).T.copy() for band in bands]

    @pytest.mark.parametrize("b", ["constant:0", "constant:50", "constant:-50"])
    def test_crit7_step_matrices(self, monkeypatch, b):
        sub, main, sup = self.step_matrices(monkeypatch, b)
        assert sub.shape == (256 * 5, 255)
        # both boundary rows carry the zero-curvature extrapolation
        assert not np.allclose(main[:, 0], main[:, 1])
        assert not np.allclose(main[:, -1], main[:, -2])
        rhs = np.random.default_rng(0).standard_normal(main.shape)
        got = lanes_solve(sub, main, sup, rhs)
        want = banded_solve(sub, main, sup, rhs)
        # within 1e-13 of each system's largest value (6e-16 to 1.8e-15 seen)
        scale = np.abs(want).max(axis=1, keepdims=True)
        assert (np.abs(got - want) <= 1e-13 * scale).all()

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 255, 256, 257])
    def test_random_diagonally_dominant(self, n):
        rng = np.random.default_rng(n)
        shape = (7, n)
        sub, sup = rng.uniform(-1.0, 1.0, shape), rng.uniform(-1.0, 1.0, shape)
        main = (np.abs(sub) + np.abs(sup) + rng.uniform(0.01, 2.0, shape)) \
            * rng.choice([-1.0, 1.0], shape)
        rhs = rng.standard_normal(shape)
        got = lanes_solve(sub, main, sup, rhs)
        want = banded_solve(sub, main, sup, rhs)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())
        # a system in the batch gets what it gets alone, bit for bit
        for s in range(shape[0]):
            alone = lanes_solve(sub[s:s + 1], main[s:s + 1], sup[s:s + 1], rhs[s:s + 1])
            assert np.array_equal(got[s], alone[0])

    def test_zero_pivot_stays_without_warning(self):
        # a zero leading pivot (main[0] = 0): the next pivot is -inf, and the
        # one after it finite again, so a check must look at every pivot
        sub = sup = np.ones(4)
        main = np.array([0.0, 3.0, 3.0, 3.0])
        fwd, piv, bwd = thomas_factors(sub, main, sup)
        assert piv[0] == 0.0
        assert piv[1] == -np.inf
        assert np.isfinite(piv[2:]).all()


class TestSingularStep:
    @pytest.mark.parametrize("bad", [0.0, np.nan])
    def test_names_the_first_singular_step(self, monkeypatch, bad):
        # steps 20 and 40 get a bad pivot in one epsilon's matrix; the backward
        # pass reaches step 40 first
        real = bsde_solver.thomas_factors

        def with_bad_pivots(sub, main, sup):
            fwd, piv, bwd = real(sub, main, sup)
            piv[20, 1, 7] = piv[40, 1, 30] = bad
            return fwd, piv, bwd

        monkeypatch.setattr(bsde_solver, "thomas_factors", with_bad_pivots)
        with pytest.raises(NumericError, match="singular at backward step 40$"):
            solve_psis([Generator.zero()], TerminalCondition.square(), build_coeffs(n=64),
                       [1.0, 0.5], PdeConfig(n_space=64))


class TestBatchedSolve:
    """solve_psis gives every system the field it gets alone, bit for bit."""

    EPS = (1.0, 0.5, 0.25)
    PDE = PdeConfig(n_space=64)

    def test_mixed_batch_equals_single_solves(self):
        coeffs = build_coeffs(n=64, b=DeterministicFn.const(0.3))
        f = benchmark_generator(1.0)
        gens = [f, build_fbar(f, 1.0, box_points()).as_generator(),
                Generator.zero(), Generator.linear_y(0.3)]
        term = TerminalCondition.square()
        fields = solve_psis(gens, term, coeffs, self.EPS, self.PDE, eta0=0.5)
        assert len(fields) == len(gens) * len(self.EPS)
        for i, field in enumerate(fields):
            gen, eps = gens[i // len(self.EPS)], self.EPS[i % len(self.EPS)]
            alone = solve_psi(gen, term, coeffs, eps, self.PDE, eta0=0.5)
            for name in ("t_nodes", "x_nodes", "psi", "psi_x"):
                assert np.array_equal(getattr(field, name), getattr(alone, name)), (i, name)
            assert field.psi.flags.c_contiguous and field.psi_x.flags.c_contiguous

    @pytest.mark.parametrize("n_rows", [2, 3, 5, 6, 7])
    def test_fbar_rows_do_not_interact(self, n_rows):
        # a batch calls f-bar once on (systems, nodes) states; each row must
        # read what it reads alone, though BLAS rounds near a vector's end
        fbar = build_fbar(benchmark_generator(1.0), 1.0, box_points())
        for seed in range(20):
            state = np.random.default_rng(seed).standard_normal((4, n_rows, 65))
            want = [fbar(*state[:, r]) for r in range(n_rows)]
            assert np.array_equal(fbar(*state), want)

    @pytest.mark.parametrize("bad_first", [False, True])
    def test_non_finite_system_fails_at_its_own_step(self, bad_first):
        # NaN only once the backward pass reaches t < 1/2, so the failing step
        # is not the first; the good system's tolerance differs from the bad one's
        def fn(t, x, y, z1, z2):
            out = 0.5 * np.asarray(y, dtype=float)
            if t < 0.5:
                out[..., out.shape[-1] // 2] = np.nan
            return out

        coeffs = build_coeffs(n=64)
        bad = Generator(fn=fn, name="bad")
        good = Generator.linear_y(3.0)
        term = TerminalCondition.square()
        with pytest.raises(PicardError) as alone:
            solve_psi(bad, term, coeffs, 1.0, self.PDE)
        assert alone.value.step < coeffs.grid.n_steps - 1
        gens = [bad, good] if bad_first else [good, bad]
        with pytest.raises(PicardError) as batch:
            solve_psis(gens, term, coeffs, [1.0], self.PDE)
        assert batch.value.step == alone.value.step
        assert batch.value.tol == alone.value.tol


class TestFirstRow:
    """A pass cut at node k returns the full pass's rows k..n bit for bit."""

    EPS = (0.5, 0.25)
    PDE = PdeConfig(n_space=64)

    @pytest.mark.parametrize("first", [1, 20, 62, 63])
    def test_cut_rows_equal_the_full_pass(self, first):
        coeffs = build_coeffs(n=64, b=DeterministicFn.const(0.3))
        f = benchmark_generator(1.0)
        gens = [f, build_fbar(f, 1.0, box_points()).as_generator()]
        term = TerminalCondition.square()
        full = solve_psis(gens, term, coeffs, self.EPS, self.PDE, eta0=0.5)
        cut = solve_psis(gens, term, coeffs, self.EPS, self.PDE, eta0=0.5, first_row=first)
        for i, (whole, part) in enumerate(zip(full, cut)):
            alone = solve_psis([gens[i // len(self.EPS)]], term, coeffs,
                               [self.EPS[i % len(self.EPS)]], self.PDE, eta0=0.5,
                               first_row=first)[0]
            for field in (part, alone):
                assert np.array_equal(field.t_nodes, whole.t_nodes[first:])
                assert np.array_equal(field.x_nodes, whole.x_nodes)
                assert np.array_equal(field.psi, whole.psi[first:]), i
                assert np.array_equal(field.psi_x, whole.psi_x[first:]), i

    @pytest.mark.parametrize("first", [-1, 64])
    def test_first_row_must_leave_a_step(self, first):
        with pytest.raises(ValueError, match="first_row"):
            solve_psis([Generator.zero()], TerminalCondition.square(), build_coeffs(n=64),
                       [0.5], self.PDE, first_row=first)


class TestNonFiniteIterate:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_raises_picard_error(self, coeffs128, bad):
        def fn(t, x, y, z1, z2):
            out = np.asarray(y, dtype=float).copy()
            out[len(out) // 2] = bad
            return out

        gen = Generator(fn=fn, name="bad", time_dependent=False)
        with pytest.raises(PicardError) as info:
            solve_psi(gen, TerminalCondition.identity(), coeffs128, 1.0, PdeConfig(n_space=64))
        # the CLI maps NumericError onto exit code 3
        assert isinstance(info.value, NumericError)
        assert info.value.step == coeffs128.grid.n_steps - 1


def grid_units(x_nodes, eta):
    """eta's position on the x grid in units of its spacing, as extract_triple forms it."""
    n = x_nodes.size - 1
    return (eta - x_nodes[0]) * (n / (x_nodes[-1] - x_nodes[0]))


def assert_triple_matches_oracle(field, eta, coeffs):
    t = field.t_nodes
    unit_grid = np.arange(field.x_nodes.size, dtype=float)
    want = per_column_triple(unit_grid, field.psi, field.psi_x, grid_units(field.x_nodes, eta),
                             coeffs.sigma1(t), coeffs.sigma2(t))
    trip = extract_triple(field, eta, coeffs)
    for got, ref in zip((trip.Y, trip.Z1, trip.Z2), want):
        assert np.array_equal(got, ref)


class TestExtractOracle:
    """Vectorised extraction against the per-column np.interp loop on the unit grid:
    extract_triple reads eta in grid units, so the two agree bit for bit."""

    @pytest.fixture(scope="class")
    def field_and_coeffs(self):
        coeffs = build_coeffs(n=64, sigma2=DeterministicFn.const(2.0))
        field = solve_psi(benchmark_generator(1.0), TerminalCondition.square(),
                          coeffs, 0.5, PdeConfig(kappa=6.0, n_space=128), eta0=0.5)
        return field, coeffs

    def test_on_paths(self, field_and_coeffs):
        field, coeffs = field_and_coeffs
        ens = make_ensemble(coeffs.grid, H75, 3000, RngSpec(seed=7))
        assert_triple_matches_oracle(field, simulate_eta(coeffs, ens, 0.5, eta0=0.5), coeffs)

    def test_on_grid_nodes(self, field_and_coeffs):
        field, coeffs = field_and_coeffs
        n_t = field.t_nodes.size
        node = np.resize(np.arange(field.x_nodes.size), (7, n_t))
        assert_triple_matches_oracle(field, field.x_nodes[node], coeffs)

    def test_at_and_beyond_ends(self, field_and_coeffs):
        field, coeffs = field_and_coeffs
        lo, hi = field.x_nodes[0], field.x_nodes[-1]
        ends = [lo, hi, np.nextafter(hi, -np.inf), np.nextafter(lo, np.inf),
                lo - 1e-12, hi + 1e-12, lo - 3.0, hi + 3.0]
        eta = np.repeat(np.array(ends)[:, None], field.t_nodes.size, axis=1)
        assert_triple_matches_oracle(field, eta, coeffs)
        # x_0 and every eta beyond an end read the end value exactly
        trip = extract_triple(field, eta, coeffs)
        for row in (0, 4, 6):
            assert np.array_equal(trip.Y[row], field.psi[:, 0])
        for row in (5, 7):
            assert np.array_equal(trip.Y[row], field.psi[:, -1])

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.5))
    @settings(max_examples=25, deadline=None)
    def test_random_positions(self, field_and_coeffs, seed, overshoot):
        field, coeffs = field_and_coeffs
        lo, hi = field.x_nodes[0], field.x_nodes[-1]
        pad = overshoot * (hi - lo)
        rng = np.random.default_rng(seed)
        eta = rng.uniform(lo - pad, hi + pad, (5, field.t_nodes.size))
        # also land some cells exactly on nodes
        eta[0] = rng.choice(field.x_nodes, field.t_nodes.size)
        assert_triple_matches_oracle(field, eta, coeffs)


class TestCentralGradient:
    """solve_psi's written-out differences are np.gradient, bit for bit."""

    @pytest.mark.parametrize("shape", [(3,), (65,), (257,), (9, 129)])
    def test_equals_np_gradient(self, shape):
        values = np.random.default_rng(11).standard_normal(shape)
        dx = np.float64(0.0371)
        want = np.gradient(values, dx, axis=-1)
        assert np.array_equal(central_gradient(values, dx), want)
        out = np.full(shape, np.nan)
        assert central_gradient(values, dx, out=out) is out
        assert np.array_equal(out, want)

    def test_psi_x_of_a_solve(self, coeffs128):
        field = solve_psi(benchmark_generator(1.0), TerminalCondition.square(), coeffs128,
                          0.5, PdeConfig(kappa=6.0, n_space=64), eta0=1.0)
        dx = field.x_nodes[1] - field.x_nodes[0]
        assert np.array_equal(field.psi_x, np.gradient(field.psi, dx, axis=1))


class TestReadBuffers:
    """locate and interp_at write into caller buffers, and give the same bits there."""

    def test_locate_clips_and_splits(self):
        # n = 3 cells per row; row c of the flat cell_table starts at (n + 2) c = 5 c
        u = np.array([[-0.5, 1.25, 3.0], [0.0, 2.5, 9.0]])
        cell = np.full(u.shape, -1, dtype=np.intp)
        assert locate(u, 3, cell) is cell
        assert np.array_equal(cell, [[0, 6, 13], [0, 7, 13]])
        assert np.array_equal(u, [[0.0, 0.25, 0.0], [0.0, 0.5, 0.0]])

    def test_buffers_match_allocating_calls(self, coeffs128, paths128):
        # the eps = 0.5 domain is narrower than the eps = 1 paths: some read clamped
        field = solve_psi(benchmark_generator(1.0), TerminalCondition.square(), coeffs128,
                          0.5, PdeConfig(kappa=4.0, n_space=64))
        eta = paths128[:300]
        n = field.x_nodes.size - 1
        frac = grid_units(field.x_nodes, eta)
        assert ((frac < 0) | (frac > n)).any()
        # a cell_table row holds the n + 1 nodes and the last value once more
        cell = locate(frac, n, np.empty(eta.shape, np.intp))
        scratch = np.full(eta.shape, np.nan)
        for table in (cell_table(field.psi), cell_table(field.psi_x)):
            want = interp_at(table, cell, frac)
            out = np.full(eta.shape, np.nan)
            assert interp_at(table, cell, frac, out, scratch) is out
            assert np.array_equal(out, want)


class TestExtractTriple:
    def test_linear_case_identities(self, coeffs128, paths128):
        field = solve_psi(Generator.zero(), TerminalCondition.identity(),
                          coeffs128, 1.0, PdeConfig(kappa=8.0, n_space=128))
        trip = extract_triple(field, paths128, coeffs128)
        assert np.allclose(trip.Y, paths128, atol=1e-9)
        assert np.allclose(trip.Z1, 1.0, atol=1e-8)
        assert np.allclose(trip.Z2, 1.0, atol=1e-8)

    def test_quadratic_case_slope(self, coeffs128, paths128):
        field = solve_psi(Generator.zero(), TerminalCondition.square(),
                          coeffs128, 1.0, PdeConfig(kappa=8.0, n_space=256))
        trip = extract_triple(field, paths128, coeffs128)
        inner = np.abs(paths128) <= 3.0
        dev = np.abs(trip.Z1 - 2.0 * paths128)[inner]
        assert dev.max() <= 5e-3

    def test_z_proportionality_exact(self, paths128):
        coeffs = build_coeffs(n=128, sigma2=DeterministicFn.const(2.0))
        field = solve_psi(Generator.zero(), TerminalCondition.square(),
                          coeffs, 1.0, PdeConfig(kappa=8.0, n_space=128))
        trip = extract_triple(field, paths128, coeffs)
        t = coeffs.grid.nodes
        s1 = coeffs.sigma1(t)[None, :]
        s2 = coeffs.sigma2(t)[None, :]
        assert np.array_equal(trip.Z2 * s1, trip.Z1 * s2)

    def test_clamp_error(self, coeffs128):
        field = solve_psi(Generator.zero(), TerminalCondition.identity(),
                          coeffs128, 1.0, PdeConfig(kappa=4.0, n_space=64))
        wild = 100.0 * np.ones((50, coeffs128.grid.n_nodes))
        trip = extract_triple(field, wild, coeffs128)
        assert trip.outside == wild.size
        with pytest.raises(DomainTooSmallError) as err:
            check_clamp(trip.outside, wild.size, field.x_nodes)
        # the error reports the half-width in x units, not kappa = 4
        half_width = (field.x_nodes[-1] - field.x_nodes[0]) / 2.0
        assert err.value.half_width == half_width != 4.0
        assert err.value.clamp_fraction == 1.0
        assert f"half-width {half_width:.4g} in x units" in str(err.value)
        # the limit is 1% of the nodes, itself allowed
        assert check_clamp(1, 100, field.x_nodes) == 0.01
        with pytest.raises(DomainTooSmallError):
            check_clamp(2, 100, field.x_nodes)

    def test_clamp_fraction_counts_strictly_outside(self, coeffs128):
        field = solve_psi(Generator.zero(), TerminalCondition.identity(),
                          coeffs128, 1.0, PdeConfig(kappa=4.0, n_space=64))
        lo, hi = field.x_nodes[0], field.x_nodes[-1]
        eta = np.random.default_rng(5).uniform(lo - 1.0, hi + 1.0, (40, coeffs128.grid.n_nodes))
        eta[0], eta[1] = lo, hi  # at the ends: inside
        eta[2], eta[3] = lo - 1e-12, hi + 1e-12  # just beyond: outside
        below, above = np.count_nonzero(eta < lo), np.count_nonzero(eta > hi)
        assert below > eta.shape[1] and above > eta.shape[1]
        trip = extract_triple(field, eta, coeffs128)
        assert trip.outside == below + above

    def test_grid_mismatch_rejected(self, coeffs128):
        field = solve_psi(Generator.zero(), TerminalCondition.identity(),
                          coeffs128, 1.0, PdeConfig(n_space=64))
        with pytest.raises(ValueError):
            extract_triple(field, np.zeros((4, 7)), coeffs128)


class TestMalliavinCheck:
    def test_identity_to_rounding(self, coeffs128, paths128):
        field = solve_psi(Generator.zero(), TerminalCondition.square(),
                          coeffs128, 1.0, PdeConfig(kappa=8.0, n_space=128))
        trip = extract_triple(field, paths128, coeffs128)
        chk = malliavin_representation_check(trip, field, coeffs128)
        assert chk.applicable
        assert chk.max_deviation <= 1e-12

    def test_ratio_value(self, coeffs128):
        # sigma2_hat / sigma2 at t = 1 for constant sigma2 is H = 0.75
        ratio = coeffs128.sigma2_hat_table[-1] / coeffs128.sigma2(np.array([1.0]))[0]
        assert ratio == pytest.approx(0.75, rel=1e-9)

    def test_not_applicable_when_sigma2_zero(self, paths128):
        coeffs = build_coeffs(n=128, sigma2=DeterministicFn.const(0.0))
        field = solve_psi(Generator.zero(), TerminalCondition.square(),
                          coeffs, 1.0, PdeConfig(kappa=8.0, n_space=128))
        trip = extract_triple(field, paths128, coeffs)
        chk = malliavin_representation_check(trip, field, coeffs)
        assert not chk.applicable
        assert chk.max_deviation == 0.0


class TestResidualMean:
    def test_martingale_case(self, coeffs128, paths128):
        gen = Generator.zero()
        field = solve_psi(gen, TerminalCondition.identity(), coeffs128, 1.0,
                          PdeConfig(kappa=8.0, n_space=128))
        trip = extract_triple(field, paths128, coeffs128)
        rep = ResidualCheck(gen, coeffs128, 1.0, [0.5]).fold(trip).reports()[0]
        assert rep.residual <= 3 * rep.stderr + 1e-6

    def test_variance_bookkeeping_case(self, coeffs128, paths128):
        gen = Generator.zero()
        field = solve_psi(gen, TerminalCondition.square(), coeffs128, 1.0,
                          PdeConfig(kappa=8.0, n_space=256))
        trip = extract_triple(field, paths128, coeffs128)
        rep = ResidualCheck(gen, coeffs128, 1.0, [0.5]).fold(trip).reports()[0]
        dx = field.x_nodes[1] - field.x_nodes[0]
        assert rep.residual <= 3 * rep.stderr + coeffs128.grid.dt + dx**2

    def test_linear_generator_case(self, coeffs128, paths128):
        gen = Generator.linear_y(0.1)
        field = solve_psi(gen, TerminalCondition.identity(), coeffs128, 1.0,
                          PdeConfig(kappa=8.0, n_space=128))
        trip = extract_triple(field, paths128, coeffs128)
        rep = ResidualCheck(gen, coeffs128, 1.0, [0.5]).fold(trip).reports()[0]
        assert rep.residual <= 3 * rep.stderr + coeffs128.grid.dt

    def test_probe_snapped_to_grid(self, coeffs128, paths128):
        gen = Generator.zero()
        field = solve_psi(gen, TerminalCondition.identity(), coeffs128, 1.0,
                          PdeConfig(kappa=8.0, n_space=64))
        trip = extract_triple(field, paths128, coeffs128)
        rep = ResidualCheck(gen, coeffs128, 1.0, [0.503]).fold(trip).reports()[0]
        assert rep.probe in coeffs128.grid.nodes


class TestDomainAndConfig:
    def test_domain_centered_on_eta_law(self, coeffs128):
        lo, hi = domain_bounds(coeffs128, 1.0, eta0=2.0, kappa=6.0)
        std = np.sqrt(coeffs128.sigma_abs_sq_table[-1])
        assert lo == pytest.approx(2.0 - 6 * std)
        assert hi == pytest.approx(2.0 + 6 * std)

    def test_pde_config_validation(self):
        with pytest.raises(ValueError):
            PdeConfig(n_space=32)
        with pytest.raises(ValueError):
            PdeConfig(kappa=2.0)

    def test_lambda_guard(self):
        # a coefficient set whose lambda would be nonpositive is rejected at build
        shrinking = DeterministicFn(fn=lambda t: 1.0 / (1.0 + 5.0 * t), name="shrink")
        coeffs = build_coeffs(n=128, sigma2=shrinking)
        assert np.all(coeffs.lam_table[1:] > 0)

    def test_sigma_both_zero_rejected(self):
        with pytest.raises(CoefficientError):
            build_coeffs(sigma1=DeterministicFn.const(0.0),
                         sigma2=DeterministicFn.const(0.0))
