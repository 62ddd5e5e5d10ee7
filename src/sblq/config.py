"""Run configuration for the CLI: defaults, presets, schema validation.

Precedence is CLI overrides > config file > preset > built-in defaults.
Presets lock the structural environment fields (dimensions, horizon and the
truth schedule); attempting to override a locked field is a configuration
error.  Scale knobs (trajectory counts, seeds, noise, solver constants) stay
overridable.
"""
from __future__ import annotations

import json
import operator
import os
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path

from .envs import A1_ENV, A2_ENV, STATIC, TIME_VARYING, EnvSpec
from .errors import ConfigError
from .learner import DEFAULT_LASSO_GRID, AdaptiveConfig

METHODS = ("ls", "lasso", "tikhonov", "gradient-descent", "cutoff")
PRESET_NAMES = ("a1-performance", "a2-interpretability")
LOCKED_ENV_FIELDS = ("d_video", "d_user", "d_action", "horizon", "theta_mode")

# Published schema for config files and the one declaration of their keys,
# types and ranges: validate_config walks it.  Unknown keys anywhere are rejected.
CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "preset": {"enum": list(PRESET_NAMES)},
        "seed": {"type": "integer", "minimum": 0},
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
                "theta_mode": {"enum": [TIME_VARYING, STATIC]},
            },
        },
        "adaptive": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                f.name: {"type": "integer" if f.name == "budget" else "number"}
                for f in dc_fields(AdaptiveConfig)
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


_TYPES = {"integer": (int, "an integer"), "number": ((int, float), "a number"),
          "array": (list, "an array"), "object": (dict, "a JSON object")}
_BOUNDS = (("minimum", operator.ge, "at least"),
           ("exclusiveMinimum", operator.gt, "above"),
           ("exclusiveMaximum", operator.lt, "below"))


def _check(value, schema: dict, where: str, what: str) -> None:
    """Check ``value`` against one schema node; ``where`` prefixes the names
    of its properties ("" at the top, "env." inside env) and ``what`` names
    the value itself in errors."""
    if "type" in schema:
        cls, noun = _TYPES[schema["type"]]
        if isinstance(value, bool) or not isinstance(value, cls):  # bool subclasses int
            raise ConfigError(f"{what} must be {noun}")
    if "enum" in schema and value not in schema["enum"]:
        raise ConfigError(f"{what} must be one of {schema['enum']}, got {value!r}")
    for keyword, holds, phrase in _BOUNDS:
        if keyword in schema and not holds(value, schema[keyword]):
            raise ConfigError(f"{what} must be {phrase} {schema[keyword]}, got {value!r}")
    if "minItems" in schema and len(value) < schema["minItems"]:
        raise ConfigError(f"{what} must list at least {schema['minItems']} item(s)")
    if "items" in schema:
        for i, item in enumerate(value):
            _check(item, schema["items"], where, f"{what} item {i}")
    if "properties" in schema:
        properties = schema["properties"]
        for key, item in value.items():
            if key in properties:
                _check(item, properties[key], f"{where}{key}.", f"config field {where}{key!r}")
            elif schema.get("additionalProperties") is False:
                raise ConfigError(f"unknown config field {where}{key!r}")


def validate_config(obj) -> None:
    """Check a raw config mapping against CONFIG_SCHEMA."""
    _check(obj, CONFIG_SCHEMA, "", "config")


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
            _check(merged["seed"], CONFIG_SCHEMA["properties"]["seed"], "", "SBLQ_SEED")

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
    # the simulator's truth <x_t, theta*_t> is the mean outcome only when the
    # uniform reward term u has mean zero
    if env.reward_low + env.reward_high != 0.0:
        raise ConfigError(
            f"env.reward_low {env.reward_low!r} and env.reward_high {env.reward_high!r} "
            "must be centred on zero (reward_low + reward_high == 0)")
    for seq_key in ("topk", "lasso_grid"):
        if seq_key in merged:
            merged[seq_key] = tuple(merged[seq_key])
    return RunConfig(env=env, **merged)
