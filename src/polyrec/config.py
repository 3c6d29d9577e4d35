"""Central configuration records: tolerances and free constants.

Every numeric tolerance used by the package lives in `Tolerances`, and every
tunable constant of the underlying estimates lives in `Constants`.  Modules
take these as optional arguments and fall back to the module-level defaults,
so a single record swap reconfigures the whole toolkit.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

__all__ = [
    "Tolerances",
    "Constants",
    "ExperimentConfig",
    "ConfigError",
    "DEFAULT_TOLERANCES",
    "DEFAULT_CONSTANTS",
    "validate_config",
    "config_from_dict",
    "load_config",
]


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances, one authority for the whole package."""

    plancherel_rel: float = 1e-10       # norm identity between a function and its transform
    inversion_max: float = 1e-10        # max pointwise error of transform round trips
    spectral_identity: float = 1e-10    # correlation vs. spectral-sum agreement
    decomposition_sum: float = 1e-9     # f1+f2+f3 reassembly error
    unit_norm_slack: float = 1e-9       # slack accepted on "caller normalizes" preconditions
    moment_identity_rel: float = 1e-8   # even moment vs. exact solution count
    poisson_rel: float = 1e-8           # theta function, direct vs. dual side
    average_agreement_rel: float = 1e-7 # Gaussian lattice average, direct vs. dual side
    theta_tail: float = 1e-12           # truncation tail budget for lattice sums


@dataclass(frozen=True)
class Constants:
    """Free constants of the estimates, exposed rather than hidden.

    C1        slack factor in the exceptional-shift census bound
    C_kl      exponent constant of the tower-type reference schedule
    K         even-moment order used by the Weyl-sum machinery
    C_k       exponent constant in Weyl-denominator thresholds
    c_shift   scale factor for the admissible shift range
    B_quality quality threshold the Schmidt scan must beat
    """

    C1: float = 1.0
    C_kl: float = 1.0
    K: int = 8
    C_k: float = 2.0
    c_shift: float = 1.0
    B_quality: float = 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a CLI run needs: seed, constants, tolerances, resources."""

    seed: int = 0
    constants: Constants = field(default_factory=Constants)
    tolerances: Tolerances = field(default_factory=Tolerances)
    threads: int = 1


DEFAULT_TOLERANCES = Tolerances()
DEFAULT_CONSTANTS = Constants()

#: Environment variable consulted for a config-file path when the CLI is
#: invoked without --config.
CONFIG_ENV_VAR = "POLYREC_CONFIG"


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending field."""


def _check_positive(record_name: str, name: str, value) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{record_name}.{name}: expected a number, got {value!r}")
    if not math.isfinite(value) or value <= 0:
        raise ConfigError(f"{record_name}.{name}: must be finite and positive, got {value!r}")


def _build_record(cls, record_name: str, data: dict):
    known = {f.name for f in fields(cls)}
    for key in data:
        if key not in known:
            raise ConfigError(f"{record_name}.{key}: unknown field")
    return cls(**data)


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Validate an assembled config, raising ConfigError naming any bad field."""
    if not isinstance(cfg.seed, int) or isinstance(cfg.seed, bool):
        raise ConfigError(f"seed: expected an integer, got {cfg.seed!r}")
    if not -(2**63) <= cfg.seed < 2**63:
        raise ConfigError("seed: out of 64-bit range")
    for name, value in asdict(cfg.constants).items():
        _check_positive("constants", name, value)
    if not isinstance(cfg.constants.K, int) or cfg.constants.K < 1:
        raise ConfigError(f"constants.K: expected an integer >= 1, got {cfg.constants.K!r}")
    for name, value in asdict(cfg.tolerances).items():
        _check_positive("tolerances", name, value)
    if not isinstance(cfg.threads, int) or cfg.threads < 1:
        raise ConfigError(f"threads: expected an integer >= 1, got {cfg.threads!r}")
    return cfg


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be a JSON object")
    known = {"seed", "constants", "tolerances", "threads"}
    for key in data:
        if key not in known:
            raise ConfigError(f"{key}: unknown field")
    constants = data.get("constants", {})
    tolerances = data.get("tolerances", {})
    if not isinstance(constants, dict):
        raise ConfigError("constants: expected an object")
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances: expected an object")
    cfg = ExperimentConfig(
        seed=data.get("seed", 0),
        constants=_build_record(Constants, "constants", constants),
        tolerances=_build_record(Tolerances, "tolerances", tolerances),
        threads=data.get("threads", 1),
    )
    return validate_config(cfg)


def load_config(path: str | None = None) -> ExperimentConfig:
    """Load a config file; path may instead come from $POLYREC_CONFIG."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path is None:
        return validate_config(ExperimentConfig())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r}: invalid JSON ({exc})") from exc
    return config_from_dict(data)
