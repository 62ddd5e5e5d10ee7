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
from dataclasses import dataclass, field
from pathlib import Path

from .data import check, record
from .envs import A1_ENV, A2_ENV, ENV_SPEC_NODE, EnvSpec
from .errors import ConfigError
from .learner import ADAPTIVE_NODE, DEFAULT_LASSO_GRID, LASSO_GRID_NODE, METHODS

PRESET_NAMES = ("a1-performance", "a2-interpretability")
LOCKED_ENV_FIELDS = ("d_video", "d_user", "d_action", "horizon", "theta_mode")

# Published schema for config files and the one declaration of their keys,
# types and ranges: validate_config walks it.  Unknown keys anywhere are rejected.
CONFIG_SCHEMA = record({
    "preset": {"enum": list(PRESET_NAMES)},
    "seed": {"type": "integer", "minimum": 0},
    "n_trajectories": {"type": "integer", "minimum": 1},
    "train_fraction": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
    "method": {"enum": list(METHODS)},
    "n_episodes": {"type": "integer", "minimum": 1},
    "seeds": {"type": "integer", "minimum": 1},
    "topk": {"type": "array", "items": {"type": "integer", "minimum": 1}},
    "lasso_grid": LASSO_GRID_NODE,
    "env": ENV_SPEC_NODE,
    "adaptive": ADAPTIVE_NODE,
}, required=())

PRESETS = {name: {"env": env, "n_trajectories": 1000, "train_fraction": 0.5}
           for name, env in zip(PRESET_NAMES, (A1_ENV, A2_ENV))}


@dataclass(frozen=True)
class RunConfig:
    preset: str | None = None
    seed: int = 0
    n_trajectories: int = 1000
    train_fraction: float = 0.5
    method: str = "cutoff"
    n_episodes: int = 200
    seeds: int = 5
    topk: tuple = ()
    lasso_grid: tuple = DEFAULT_LASSO_GRID
    env: EnvSpec = field(default_factory=lambda: A1_ENV)
    adaptive: dict = field(default_factory=dict)


def validate_config(obj) -> None:
    """Check a raw config mapping against CONFIG_SCHEMA."""
    check(obj, CONFIG_SCHEMA, ConfigError, "config")


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
            check(merged["seed"], CONFIG_SCHEMA["properties"]["seed"], ConfigError, "SBLQ_SEED")

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
