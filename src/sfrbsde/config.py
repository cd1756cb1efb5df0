"""Experiment configuration: flat key=value files, presets, validation.

The file format is intentionally primitive — one `key = value` per line,
`#` comments — so configs stay language-neutral and diff-friendly.  Parsing
validates every field and reports ALL violations at once.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from .averaging_lab import check_beta, check_eps_list
from .bsde_solver import Generator, PdeConfig, TerminalCondition
from .errors import ConfigError
from .frac_kernel import CoefficientSet, DeterministicFn, HurstModel
from .grids import TimeGrid
from .path_engine import RngSpec

OUT_DIR_ENV = "SFRBSDE_OUT"

_COEFF_PRESETS = ("constant", "linear", "sinusoidal")
_GENERATOR_PRESETS = ("benchmark", "zero", "constant", "linear_y")
_TERMINAL_PRESETS = ("square", "identity")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment parameters; README.md documents every key and default."""

    h: float = 0.75
    t_horizon: float = 1.0
    n_time: int = 256
    n_space: int = 256
    n_paths: int = 10_000
    eps_list: tuple = (0.5, 0.35, 0.25, 0.18, 0.125)
    beta: float = 0.25
    delta1: float = 0.01
    delta2: float = 0.0          # 0 means auto: 2 sqrt(max sup-MSE)
    t0: float = 0.0              # 0 means auto: 3 t_horizon / 4
    seed: int = 42
    eta0: float = 1.0
    epsilon: float = 1.0         # used by `simulate-fbm` and `solve`
    generator: str = "benchmark"
    terminal: str = "square"
    b: str = "constant:0"
    sigma1: str = "constant:1"
    sigma2: str = "constant:1"
    kappa: float = 6.0
    out_dir: str = ""            # empty means $SFRBSDE_OUT or ./out
    workers: int = 1             # kept for old configs; only 1 is accepted

    # -- derived builders ---------------------------------------------------------

    def hurst(self) -> HurstModel:
        return HurstModel(self.h)

    def grid(self) -> TimeGrid:
        return TimeGrid(T=self.t_horizon, n_steps=self.n_time)

    def pde(self) -> PdeConfig:
        return PdeConfig(kappa=self.kappa, n_space=self.n_space)

    def rng(self) -> RngSpec:
        return RngSpec(seed=self.seed)

    def resolved_out_dir(self) -> str:
        return self.out_dir or os.environ.get(OUT_DIR_ENV, "out")

    def coefficient_fn(self, which: str) -> DeterministicFn:
        return parse_coefficient(getattr(self, which), self.t_horizon, name=which)

    def coefficient_set(self) -> CoefficientSet:
        return CoefficientSet.build(
            b=self.coefficient_fn("b"),
            sigma1=self.coefficient_fn("sigma1"),
            sigma2=self.coefficient_fn("sigma2"),
            grid=self.grid(),
            hurst=self.hurst(),
        )

    def make_generator(self) -> Generator:
        return parse_generator(self.generator, self.t_horizon)

    def make_terminal(self) -> TerminalCondition:
        return TerminalCondition.square() if self.terminal == "square" \
            else TerminalCondition.identity()

    # -- serialization ------------------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "eps_list":
                value = ",".join(repr(float(e)) for e in value)
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        """The digest of the config text without `out_dir`: where a run writes
        does not change which experiment it is."""
        return hashlib.sha256(replace(self, out_dir="").to_text().encode()).hexdigest()


def _preset_arg(arg: str, default: float, name: str) -> float:
    """A preset's numeric argument, `default` when empty; it must be finite."""
    try:
        value = float(arg) if arg.strip() else default
    except ValueError:
        raise ConfigError([f"{name}: cannot parse preset argument {arg!r}"])
    if not math.isfinite(value):
        raise ConfigError([f"{name}: preset argument {arg.strip()!r} must be finite"])
    return value


def parse_coefficient(text: str, t_horizon: float, name: str = "coeff") -> DeterministicFn:
    """Presets: 'constant:c', 'linear:c' (c*t), 'sinusoidal:c'."""
    kind, _, arg = text.partition(":")
    kind = kind.strip()
    value = _preset_arg(arg, 1.0, name)
    if kind == "constant":
        return DeterministicFn.const(value, name=f"{name}:{text}")
    if kind == "linear":
        return DeterministicFn.linear(value, name=f"{name}:{text}")
    if kind == "sinusoidal":
        return DeterministicFn.sinusoidal(value, t_horizon, name=f"{name}:{text}")
    raise ConfigError([f"{name}: unknown coefficient preset {kind!r} "
                       f"(legal: {', '.join(_COEFF_PRESETS)})"])


# (a, b, c, d) of the benchmark generator
BENCHMARK_COEFFS = (0.5, 0.25, 0.25, 0.1)


def benchmark_generator(T: float) -> Generator:
    """f(s, x, y, z1, z2) = (1 + sin(2 pi s / T)) (a y + b z1 + c z2 + d).

    Squared-Lipschitz constant L = 4 (a^2 + b^2 + c^2): the modulation factor reaches
    2, so the squared constant carries its square.  The averaging-deviation
    functional is
    bounded (sin^2 window averages), and the time average is available in
    closed form for oracle tests.
    """
    a, b, c, d = BENCHMARK_COEFFS
    w = 2.0 * np.pi / T

    def fn(t, x, y, z1, z2):
        y = np.asarray(y, dtype=float)
        return (1.0 + np.sin(w * t)) * (a * y + b * np.asarray(z1) + c * np.asarray(z2) + d)

    return Generator(fn=fn, name="benchmark", lipschitz_sq=4.0 * (a**2 + b**2 + c**2))


def parse_generator(text: str, t_horizon: float) -> Generator:
    kind, _, arg = text.partition(":")
    kind = kind.strip()
    if kind == "benchmark":
        return benchmark_generator(t_horizon)
    if kind == "zero":
        return Generator.zero()
    if kind == "constant":
        v = _preset_arg(arg, 0.0, "generator")
        return Generator(fn=lambda t, x, y, z1, z2, v=v: np.full_like(np.asarray(y, dtype=float), v),
                         name=f"constant[{v}]", lipschitz_sq=0.0, time_dependent=False)
    if kind == "linear_y":
        r = _preset_arg(arg, 0.1, "generator")
        # the declared Lipschitz constant is r^2, which must be a finite float
        if not math.isfinite(r * r):
            raise ConfigError([f"generator: linear_y rate {r!r} must have a finite square"])
        return Generator.linear_y(r)
    raise ConfigError([f"generator: unknown preset {kind!r} "
                       f"(legal: {', '.join(_GENERATOR_PRESETS)})"])


def _validate(cfg: ExperimentConfig) -> list[str]:
    # nan passes every range test below, and inf several
    bad = [f"{f.name}: must be finite, got {getattr(cfg, f.name)!r}" for f in fields(cfg)
           if isinstance(f.default, float) and not math.isfinite(getattr(cfg, f.name))]
    if not (0.5 < cfg.h < 1.0):
        bad.append(f"h: H must lie in (0.5, 1), got {cfg.h!r}")
    if not cfg.t_horizon > 0:
        bad.append(f"t_horizon: must be > 0, got {cfg.t_horizon!r}")
    if cfg.n_time < 2:
        bad.append(f"n_time: must be >= 2, got {cfg.n_time!r}")
    if cfg.n_space < 64:
        bad.append(f"n_space: must be >= 64, got {cfg.n_space!r}")
    if cfg.n_paths < 1000:
        bad.append(f"n_paths: must be >= 1000 for probabilistic checks, got {cfg.n_paths!r}")
    for check, args in ((check_eps_list, (cfg.eps_list,)), (check_beta, (cfg.beta, cfg.h))):
        try:
            check(*args)
        except ValueError as exc:
            bad.append(str(exc))
    if not cfg.delta1 > 0:
        bad.append(f"delta1: must be > 0, got {cfg.delta1!r}")
    if cfg.delta2 < 0:
        bad.append(f"delta2: must be >= 0 (0 selects auto), got {cfg.delta2!r}")
    if cfg.t0 < 0 or cfg.t0 > cfg.t_horizon:
        bad.append(f"t0: must lie in [0, T] (0 selects auto 3T/4), got {cfg.t0!r}")
    if not 0 <= cfg.seed < 2**64:
        bad.append(f"seed: must fit in 64 bits, got {cfg.seed!r}")
    if not 0 < cfg.epsilon <= 1:
        bad.append(f"epsilon: must lie in (0, 1], got {cfg.epsilon!r}")
    if cfg.kappa < 4:
        bad.append(f"kappa: must be >= 4, got {cfg.kappa!r}")
    if cfg.workers != 1:
        bad.append(f"workers: must be 1 (no worker count is configurable), got {cfg.workers!r}")
    for field_name in ("generator", "b", "sigma1", "sigma2"):
        try:
            if field_name == "generator":
                parse_generator(cfg.generator, max(cfg.t_horizon, 1e-9))
            else:
                parse_coefficient(getattr(cfg, field_name), max(cfg.t_horizon, 1e-9),
                                  name=field_name)
        except (ConfigError, ValueError) as exc:
            bad.append(str(exc))
    if cfg.terminal not in _TERMINAL_PRESETS:
        bad.append(f"terminal: must be one of {', '.join(_TERMINAL_PRESETS)}, "
                   f"got {cfg.terminal!r}")
    return bad


def config_from_mapping(raw: dict) -> ExperimentConfig:
    """Typed, fully-validated config from string key/values; collects all errors."""
    # each key parses as the type of its default: int, float, str or the eps tuple
    default_of = {f.name: f.default for f in fields(ExperimentConfig)}
    violations = [f"unknown key {k!r}" for k in raw if k not in default_of]
    values = {}
    for key, text in raw.items():
        if key not in default_of:
            continue
        text = text.strip()
        try:
            if key == "eps_list":
                values[key] = tuple(float(tok) for tok in text.split(",") if tok.strip())
            else:
                values[key] = type(default_of[key])(text)
        except ValueError:
            violations.append(f"{key}: cannot parse value {text!r}")
    # range-check whatever parsed so one pass reports every problem
    cfg = ExperimentConfig(**values)
    violations.extend(_validate(cfg))
    if violations:
        raise ConfigError(violations)
    return cfg


def validated(cfg: ExperimentConfig) -> ExperimentConfig:
    """`cfg` itself if every field is in range; otherwise a ConfigError listing all violations."""
    violations = _validate(cfg)
    if violations:
        raise ConfigError(violations)
    return cfg


def parse_config(path) -> ExperimentConfig:
    """Parse a flat key=value file; unknown keys and every range violation
    are reported together.  A file that cannot be read as UTF-8 text is a
    ConfigError naming its path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ConfigError([f"config file {path} is not UTF-8 text"]) from None
    except OSError as exc:
        raise ConfigError([f"cannot read config file {path}: {exc.strerror}"]) from None
    raw = {}
    violations = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            violations.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in raw:
            violations.append(f"line {lineno}: duplicate key {key!r}")
            continue
        raw[key] = value.strip()
    if violations:
        raise ConfigError(violations)
    return config_from_mapping(raw)
