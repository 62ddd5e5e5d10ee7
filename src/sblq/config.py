"""Run configuration for the CLI: defaults, presets, schema validation.

Precedence is CLI overrides > config file > preset > built-in defaults.
Presets lock the structural environment fields (dimensions, horizon and the
truth schedule); attempting to override a locked field is a configuration
error.  Scale knobs (trajectory counts, seeds, noise, solver constants) stay
overridable.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path

from .envs import A1_ENV, A2_ENV, EnvSpec
from .errors import ConfigError
from .learner import DEFAULT_LASSO_GRID, AdaptiveConfig

METHODS = ("ls", "lasso", "tikhonov", "gradient-descent", "cutoff")
PRESET_NAMES = ("a1-performance", "a2-interpretability")
LOCKED_ENV_FIELDS = ("d_video", "d_user", "d_action", "horizon", "theta_mode")

_ENV_FIELD_TYPES = {
    "n_users": int, "n_actions": int, "d_video": int, "d_user": int,
    "d_action": int, "horizon": int, "noise_sd": (int, float),
    "reward_low": (int, float), "reward_high": (int, float), "theta_mode": str,
}
_ADAPTIVE_FIELD_TYPES = {f.name: (int, float) for f in dc_fields(AdaptiveConfig)}
_ADAPTIVE_FIELD_TYPES["budget"] = int

# Published schema for config files; unknown keys anywhere are rejected.
CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "preset": {"enum": list(PRESET_NAMES)},
        "seed": {"type": "integer"},
        "n_trajectories": {"type": "integer", "minimum": 1},
        "train_fraction": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "method": {"enum": list(METHODS)},
        "n_episodes": {"type": "integer", "minimum": 1},
        "seeds": {"type": "integer", "minimum": 1},
        "jobs": {"type": "integer", "minimum": 1},
        "topk": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "lasso_grid": {"type": "array", "minItems": 1, "items": {"type": "number", "minimum": 0}},
        "env": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_users": {"type": "integer", "minimum": 1},
                "n_actions": {"type": "integer", "minimum": 1},
                "d_video": {"type": "integer", "minimum": 1},
                "d_user": {"type": "integer", "minimum": 1},
                "d_action": {"type": "integer", "minimum": 1},
                "horizon": {"type": "integer", "minimum": 1},
                "noise_sd": {"type": "number", "minimum": 0},
                "reward_low": {"type": "number"},
                "reward_high": {"type": "number"},
                "theta_mode": {"enum": ["time-varying", "static"]},
            },
        },
        "adaptive": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                name: {"type": "integer" if name == "budget" else "number"}
                for name in _ADAPTIVE_FIELD_TYPES
            },
        },
    },
}

PRESETS = {
    "a1-performance": {
        "env": A1_ENV,
        "n_trajectories": 1000,
        "train_fraction": 0.5,
    },
    "a2-interpretability": {
        "env": A2_ENV,
        "n_trajectories": 1000,
        "train_fraction": 0.5,
    },
}


@dataclass(frozen=True)
class RunConfig:
    preset: str | None = None
    seed: int = 0
    n_trajectories: int = 1000
    train_fraction: float = 0.5
    method: str = "cutoff"
    n_episodes: int = 200
    seeds: int = 5
    jobs: int = 1
    topk: tuple = ()
    lasso_grid: tuple = DEFAULT_LASSO_GRID
    env: EnvSpec = field(default_factory=lambda: A1_ENV)
    adaptive: dict = field(default_factory=dict)


def _type_ok(value, expected) -> bool:
    if expected is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == (int, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, expected)


def _validate_section(obj: dict, allowed: dict, where: str) -> None:
    for key, value in obj.items():
        if key not in allowed:
            raise ConfigError(f"unknown config field {where}{key!r}")
        if not _type_ok(value, allowed[key]):
            raise ConfigError(f"config field {where}{key!r} has the wrong type")


def validate_config(obj) -> None:
    """Check a raw config mapping against CONFIG_SCHEMA."""
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    top_types = {
        "preset": str, "seed": int, "n_trajectories": int,
        "train_fraction": (int, float), "method": str, "n_episodes": int,
        "seeds": int, "jobs": int, "topk": list, "lasso_grid": list,
        "env": dict, "adaptive": dict,
    }
    _validate_section(obj, top_types, "")
    if "preset" in obj and obj["preset"] not in PRESET_NAMES:
        raise ConfigError(f"config field 'preset': unknown preset {obj['preset']!r}")
    if "method" in obj and obj["method"] not in METHODS:
        raise ConfigError(f"config field 'method': unknown method {obj['method']!r}")
    if "train_fraction" in obj and not 0.0 < obj["train_fraction"] < 1.0:
        raise ConfigError("config field 'train_fraction' must lie in (0, 1)")
    for name in ("n_trajectories", "n_episodes", "seeds", "jobs"):
        if name in obj and obj[name] < 1:
            raise ConfigError(f"config field {name!r} must be at least 1")
    if "topk" in obj and any(not _type_ok(k, int) or k < 1 for k in obj["topk"]):
        raise ConfigError("config field 'topk' must list positive integers")
    if "lasso_grid" in obj and (not obj["lasso_grid"] or any(
            not _type_ok(v, (int, float)) or v < 0 for v in obj["lasso_grid"])):
        raise ConfigError("config field 'lasso_grid' must list nonnegative numbers, at least one")
    if "env" in obj:
        _validate_section(obj["env"], _ENV_FIELD_TYPES, "env.")
        if "theta_mode" in obj["env"] and obj["env"]["theta_mode"] not in (
                "time-varying", "static"):
            raise ConfigError("config field 'env.theta_mode' must be "
                              "'time-varying' or 'static'")
    if "adaptive" in obj:
        _validate_section(obj["adaptive"], _ADAPTIVE_FIELD_TYPES, "adaptive.")


def parse_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Resolve a RunConfig from a file and structured overrides.

    ``overrides`` uses the same shape as the config file.  The seed falls
    back to the SBLQ_SEED environment variable when set nowhere else.
    """
    file_cfg: dict = {}
    if path is not None:
        try:
            file_cfg = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
        validate_config(file_cfg)
    overrides = overrides or {}
    validate_config(overrides)

    preset = overrides.get("preset", file_cfg.get("preset"))
    merged: dict = {}
    if preset is not None:
        spec = PRESETS[preset]
        merged["env"] = dict(vars(spec["env"]))
        merged["n_trajectories"] = spec["n_trajectories"]
        merged["train_fraction"] = spec["train_fraction"]
    for layer in (file_cfg, overrides):
        for key, value in layer.items():
            if key in ("env", "adaptive"):
                merged.setdefault(key, {})
                merged[key] = {**merged[key], **value}
            else:
                merged[key] = value
    if preset is not None:
        locked = vars(PRESETS[preset]["env"])
        for layer_name, layer in (("config file", file_cfg), ("override", overrides)):
            for key, value in layer.get("env", {}).items():
                if key in LOCKED_ENV_FIELDS and value != locked[key]:
                    raise ConfigError(
                        f"{layer_name} sets env.{key}={value!r}, but preset "
                        f"{preset!r} locks it to {locked[key]!r}")
    merged["preset"] = preset

    if "seed" not in merged:
        raw = os.environ.get("SBLQ_SEED")
        if raw is not None:
            try:
                merged["seed"] = int(raw)
            except ValueError:
                raise ConfigError(f"SBLQ_SEED must be an integer, got {raw!r}") from None

    try:
        AdaptiveConfig(**merged.get("adaptive", {}))
    except ValueError as exc:
        raise ConfigError(f"invalid adaptive configuration: {exc}") from None

    env_kwargs = merged.pop("env", {})
    base_env = vars(RunConfig().env) | env_kwargs
    try:
        env = EnvSpec(**base_env)
    except ValueError as exc:
        raise ConfigError(f"invalid env configuration: {exc}") from exc
    for seq_key in ("topk", "lasso_grid"):
        if seq_key in merged:
            merged[seq_key] = tuple(merged[seq_key])
    return RunConfig(env=env, **merged)
