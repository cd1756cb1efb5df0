"""Numerical laboratory for BSDEs driven by standard and fractional Brownian
motions, with an averaging-principle test bench."""

__version__ = "0.1.0"

from .averaging_lab import (
    AveragedGenerator,
    AveragingConstants,
    BoxSampler,
    SweepConfig,
    SweepReport,
    build_fbar,
    check_chebyshev,
    check_lemma1,
    check_theorem_rate,
    compute_constants,
    estimate_lipschitz,
    estimate_phi,
    run_sweep,
    solve_alpha0,
)
from .bsde_solver import (
    Generator,
    PdeConfig,
    SolutionField,
    TerminalCondition,
    TriplePath,
    extract_triple,
    malliavin_representation_check,
    residual_mean_check,
    solve_psi,
    solve_psis,
)
from .config import ExperimentConfig, benchmark_generator, parse_config
from .frac_kernel import (
    CoefficientSet,
    DeterministicFn,
    HurstModel,
    QuadratureSpec,
    c0_const,
    c1_lower_bound,
    inner_product,
    norm_sq,
    rho,
)
from .grids import TimeGrid
from .path_engine import (
    PathEnsemble,
    RngSpec,
    bm_paths,
    check_lemma_var_bound,
    fbm_cholesky,
    fbm_circulant,
    make_ensemble,
    simulate_eta,
    wiener_integral_det,
)

__all__ = [name for name in dir() if not name.startswith("_")]
