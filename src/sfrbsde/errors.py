"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: config problems exit 2, numeric
failures exit 3, failed checks exit 1.
"""


class SfrbsdeError(Exception):
    """Base class for all package errors."""


class ConfigError(SfrbsdeError):
    """Invalid experiment configuration.

    Carries the full list of violations so a user sees every problem in
    one pass, not just the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NumericError(SfrbsdeError):
    """Base class for numerical failures (CLI exit code 3)."""


class QuadratureConvergenceError(NumericError):
    """Successive quadrature refinements disagree beyond tolerance."""

    def __init__(self, coarse, fine, tol):
        self.coarse = coarse
        self.fine = fine
        self.tol = tol
        super().__init__(
            f"quadrature did not converge: coarse={coarse!r} fine={fine!r} "
            f"|diff|={abs(fine - coarse):.3e} tol={tol:.3e}"
        )


class ConsistencyError(NumericError):
    """A closed form disagrees with its independent numerical oracle."""


class CoefficientError(NumericError):
    """Coefficient set violates a structural hypothesis (e.g. lambda <= 0)."""


class FactorizationError(NumericError):
    """Covariance factorization failed even after the jitter fallback."""


class EmbeddingError(NumericError):
    """Circulant embedding produced a materially negative eigenvalue."""


class PicardError(NumericError):
    """Picard iteration did not converge within its sweep budget."""

    def __init__(self, step, residual, tol):
        self.step = step
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"Picard iteration stalled at backward step {step}: "
            f"residual={residual:.3e} > tol={tol:.3e}"
        )


class DomainTooSmallError(NumericError):
    """Too many path nodes fell outside the truncated PDE domain.

    `half_width` is the domain's half-width in x units, kappa times the
    standard deviation of eta_T.
    """

    def __init__(self, clamp_fraction, half_width):
        self.clamp_fraction = clamp_fraction
        self.half_width = half_width
        super().__init__(
            f"{clamp_fraction:.2%} of path nodes left the PDE domain "
            f"(half-width {half_width:.4g} in x units); enlarge kappa, the "
            "half-width multiplier"
        )


class InfeasibleAlphaError(NumericError):
    """The alpha0 fixed-point equation has no admissible root."""

    def __init__(self, epsilon, max_feasible_eps):
        self.epsilon = epsilon
        self.max_feasible_eps = max_feasible_eps
        super().__init__(
            f"no admissible alpha0 for epsilon={epsilon!r}; "
            f"largest feasible epsilon is {max_feasible_eps!r} (exclusive)"
        )


class ContractError(SfrbsdeError):
    """A declared analytic constant was violated by sampled evidence."""
