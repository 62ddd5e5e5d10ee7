"""Command-line workbench: dataset generation, training, evaluation,
interpretability reports, and the method-comparison grid.

Commands are idempotent: identical configuration and seed reproduce the same
output bytes, except for the wall-clock column of ``compare``.  Outputs are
assembled in memory and written atomically (write-temp-then-rename), so a
failing command leaves no partial files.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import envs as envs_mod
from .config import CONFIG_SCHEMA, METHODS, PRESET_NAMES, RunConfig, parse_config
from .data import dataset_header_text, dataset_jsonl_text, load_dataset
from .errors import ConfigError, DataError, NumericError
from .experiments import build_world, method_cell
from .interpret import contribution_proportions, topk_feature_rewards
from .learner import default_config, load_model, model_json_text, train
from .policy import GreedyPolicy, direct_value_estimate, evaluate, rollout_reward

HEADER_NAME = "header.json"
TRAJECTORIES_NAME = "trajectories.jsonl"
TRUTH_NAME = "ground_truth.json"
ENV_NAME = "env.json"


def _atomic_write_all(outputs: dict) -> None:
    """Write every output or none; a file that cannot be written is a data
    error naming it."""
    written = []
    try:
        for path, text in outputs.items():
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_text(text)
            written.append(tmp)
            os.replace(tmp, path)
            written[-1] = path
    except BaseException as exc:
        for done in written:
            done.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise DataError(f"cannot write {exc.filename or path}: "
                            f"{exc.strerror or exc}") from exc
        raise


def _json_text(payload) -> str:
    return json.dumps(payload) + "\n"


def _csv_text(header, rows) -> str:
    def cell(v):
        return repr(v) if isinstance(v, float) else str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _train(cfg: RunConfig, dataset, method: str, seed: int, model_cfg=None,
           feature_mask=None):
    """``learner.train`` under the run's adaptive overrides and lasso grid;
    ``model_cfg`` (a loaded model's settings) replaces the overrides when set.
    Returns (bundle, reports)."""
    acfg = model_cfg or default_config(method, dataset.reward_bound, **cfg.adaptive)
    return train(dataset, method, acfg, seed=seed, feature_mask=feature_mask,
                 lasso_grid=cfg.lasso_grid)


def _trace_text(reports) -> str:
    payload = {
        "version": 1,
        "stages": [
            {
                "t": r.stage,
                "ks": r.ks.tolist(),
                "lambdas": r.lambdas.tolist(),
                "diff_norms": r.diff_norms.tolist(),
                "thresholds": r.thresholds.tolist(),
                "phi_next": r.phi_next,
                "selected_k": r.selected_k,
                "selected_lambda": r.selected_lambda,
            }
            for r in reports
        ],
    }
    return _json_text(payload)


def cmd_gen(cfg: RunConfig, out: Path) -> None:
    env = envs_mod.make_env(cfg.env, cfg.seed)
    dataset, truth = envs_mod.generate_trajectories(env, cfg.n_trajectories, seed=cfg.seed)
    _atomic_write_all({
        out / HEADER_NAME: dataset_header_text(dataset),
        out / TRAJECTORIES_NAME: dataset_jsonl_text(dataset),
        out / TRUTH_NAME: envs_mod.ground_truth_json_text(truth),
        out / ENV_NAME: envs_mod.env_json_text(env),
    })


def _read(loader, *paths):
    """Call a file loader, reporting a file it cannot read as a data error."""
    try:
        return loader(*paths)
    except OSError as exc:
        raise DataError(f"cannot read {exc.filename}: {exc.strerror}") from exc


def _load_dataset_dir(path: Path):
    header = path / HEADER_NAME
    traj = path / TRAJECTORIES_NAME
    if not header.exists() or not traj.exists():
        raise DataError(f"dataset directory {path} must contain "
                        f"{HEADER_NAME} and {TRAJECTORIES_NAME}")
    return _read(load_dataset, header, traj)


def cmd_train(cfg: RunConfig, dataset_dir: Path, out: Path) -> None:
    dataset = _load_dataset_dir(dataset_dir)
    bundle, reports = _train(cfg, dataset, cfg.method, cfg.seed)
    _atomic_write_all({
        out / "model.json": model_json_text(bundle),
        out / "trace.json": _trace_text(reports),
    })


def cmd_eval(cfg: RunConfig, model_path: Path, dataset_dir: Path,
             truth_path: Path, env_path: Path | None, out: Path) -> None:
    model = _read(load_model, model_path)
    dataset = _load_dataset_dir(dataset_dir)
    truth = _read(envs_mod.load_ground_truth, truth_path)
    horizon, dim = model.horizon, model.feature_dim
    if truth.theta_star.shape not in ((horizon, dim), (horizon + 1, dim)):
        raise DataError(f"{truth_path}: theta_star has shape {truth.theta_star.shape}, "
                        f"but the model needs ({horizon + 1}, {dim})")
    env = _read(envs_mod.load_env, env_path) if env_path is not None else None
    report = evaluate(model, truth.theta_star, dataset, env=env,
                      n_episodes=cfg.n_episodes, seed=cfg.seed)
    _atomic_write_all({
        out / "metrics.json": _json_text(report.as_dict()),
        out / "metrics.csv": _csv_text(
            ("parameter_gap", "policy_gap", "cumulative_reward"),
            [(report.parameter_gap, report.policy_gap, report.cumulative_reward)]),
    })


def cmd_report(cfg: RunConfig, model_path: Path, dataset_dir: Path | None,
               env_path: Path | None, out: Path) -> None:
    model = _read(load_model, model_path)
    contrib = contribution_proportions(model)
    rank_of = {int(unit): pos for pos, unit in enumerate(contrib.ranking)}
    outputs = {
        out / "contributions.json": _json_text({
            "version": 1,
            "labels": list(contrib.labels),
            "proportions": contrib.proportions.tolist(),
            "ranking": contrib.ranking.tolist(),
        }),
        out / "contributions.csv": _csv_text(
            ("feature", "proportion", "rank"),
            [(contrib.labels[j], float(contrib.proportions[j]), rank_of[j])
             for j in range(len(contrib.labels))]),
    }
    if cfg.topk:
        n_units = len(contrib.labels)
        outside = [k for k in cfg.topk if not 1 <= k <= n_units]
        if outside:
            raise ConfigError(f"topk values {outside} outside 1..{n_units}, "
                              "the model's feature count")
        if dataset_dir is None:
            raise ConfigError("--topk requires --dataset to retrain masked models")
        dataset = _load_dataset_dir(dataset_dir)
        env = _read(envs_mod.load_env, env_path) if env_path is not None else None

        def reward_of(bundle):
            if env is not None:
                pol = GreedyPolicy(bundle, dataset.action_table)
                return rollout_reward(pol, env, cfg.n_episodes, seed=cfg.seed)
            return direct_value_estimate(bundle, dataset)

        curve = topk_feature_rewards(
            contrib, lambda mask: _train(cfg, dataset, model.filter_kind, model.seed,
                                         model.config, mask)[0],
            reward_of, cfg.topk)
        outputs[out / "topk.csv"] = _csv_text(
            ("k", "reward"), [(k, v) for k, v in curve.items()])
    _atomic_write_all(outputs)


def cmd_compare(cfg: RunConfig, out: Path) -> None:
    seeds = [cfg.seed + i for i in range(cfg.seeds)]
    worlds = {seed: build_world(cfg.env, seed, cfg.n_trajectories, cfg.train_fraction)
              for seed in seeds}
    tasks = [(method, seed) for method in METHODS for seed in seeds]

    def run_cell(task):
        method, seed = task
        world = worlds[seed]
        return method_cell(world, method, seed, cfg.adaptive, cfg.lasso_grid,
                           world.env, cfg.n_episodes)

    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            cells = list(pool.map(run_cell, tasks))
    else:
        cells = [run_cell(t) for t in tasks]

    rows = []
    by_method = {m: [] for m in METHODS}
    for (method, seed), cell in zip(tasks, cells):
        m = cell.metrics
        values = (m.parameter_gap, m.policy_gap, m.cumulative_reward, cell.train_s)
        rows.append((method, str(seed), *values))
        by_method[method].append(values)
    for method in METHODS:
        block = np.array(by_method[method])
        rows.append((method, "mean", *[float(v) for v in block.mean(axis=0)]))
        sd = block.std(axis=0, ddof=1) if len(block) > 1 else np.zeros(4)
        rows.append((method, "sd", *[float(v) for v in sd]))
    _atomic_write_all({
        out / "compare.csv": _csv_text(
            ("method", "seed", "parameter_gap", "policy_gap", "reward", "wall_clock_s"),
            rows),
    })


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sblq",
        description="Spectral-filter batch linear Q-learning workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, help="JSON config file")
        p.add_argument("--preset", choices=PRESET_NAMES)
        p.add_argument("--seed", type=int)
        p.add_argument("--jobs", type=int)
        p.add_argument("--out", type=Path, required=True, help="output directory")

    p = sub.add_parser("gen", help="generate a synthetic dataset with ground truth")
    common(p)
    p.add_argument("--n", dest="n_trajectories", type=int, help="number of trajectories")

    p = sub.add_parser("train", help="train a model on a dataset directory")
    common(p)
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--method", choices=list(METHODS))

    p = sub.add_parser("eval", help="evaluate a model against ground truth")
    common(p)
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--truth", type=Path, required=True)
    p.add_argument("--env", dest="env_path", type=Path,
                   help="env file enabling rollout rewards")
    p.add_argument("--n-episodes", type=int)

    p = sub.add_parser("report", help="interpretability reports for a model")
    common(p)
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--dataset", type=Path)
    p.add_argument("--env", dest="env_path", type=Path)
    p.add_argument("--topk", type=str, help="comma-separated k values to retrain")
    p.add_argument("--n-episodes", type=int)

    p = sub.add_parser("compare", help="methods x seeds comparison table")
    common(p)
    p.add_argument("--n", dest="n_trajectories", type=int)
    p.add_argument("--seeds", type=int)
    p.add_argument("--n-episodes", type=int)
    return parser


def _overrides_from_args(args) -> dict:
    """Every flag whose ``dest`` is a config key, with ``--topk`` parsed."""
    overrides = {key: value for key, value in vars(args).items()
                 if key in CONFIG_SCHEMA["properties"] and value is not None}
    topk = overrides.pop("topk", None)
    if topk:
        try:
            overrides["topk"] = [int(v) for v in topk.split(",")]
        except ValueError:
            raise ConfigError(f"--topk must be comma-separated integers, got {topk!r}")
    return overrides


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, _overrides_from_args(args))
        out = args.out
        if args.command == "gen":
            cmd_gen(cfg, out)
        elif args.command == "train":
            cmd_train(cfg, args.dataset, out)
        elif args.command == "eval":
            cmd_eval(cfg, args.model, args.dataset, args.truth, args.env_path, out)
        elif args.command == "report":
            cmd_report(cfg, args.model, args.dataset, args.env_path, out)
        elif args.command == "compare":
            cmd_compare(cfg, out)
    except ConfigError as exc:
        print(f"error: configuration: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 3
    except (NumericError, FloatingPointError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
