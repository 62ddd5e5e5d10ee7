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
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import envs as envs_mod
from . import learner as learner_mod
from . import policy as policy_mod
from .config import METHODS, RunConfig, parse_config
from .data import dataset_header_text, dataset_jsonl_text, load_dataset, split
from .errors import ConfigError, DataError, NumericError
from .interpret import contribution_proportions, topk_feature_rewards
from .learner import default_config, load_model, model_json_text, train, train_baseline
from .policy import GreedyPolicy, direct_value_estimate, evaluate, rollout_reward

HEADER_NAME = "header.json"
TRAJECTORIES_NAME = "trajectories.jsonl"
TRUTH_NAME = "ground_truth.json"
ENV_NAME = "env.json"


def _atomic_write_all(outputs: dict) -> None:
    written = []
    try:
        for path, text in outputs.items():
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_text(text)
            os.replace(tmp, path)
            written.append(path)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def _json_text(payload) -> str:
    return json.dumps(payload) + "\n"


def _csv_text(header, rows) -> str:
    def cell(v):
        return repr(v) if isinstance(v, float) else str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _adaptive_config(cfg: RunConfig, method: str, reward_bound: float):
    return default_config(method, reward_bound=reward_bound, **cfg.adaptive)


def _train_any(cfg: RunConfig, method: str, dataset, seed: int):
    """Train either a spectral-filter model or a baseline; returns (bundle, reports)."""
    if method in ("ls", "lasso"):
        grid = cfg.lasso_grid or learner_mod.DEFAULT_LASSO_GRID
        bundle = train_baseline(dataset, method, lasso_grid=grid, seed=seed)
        return bundle, []
    acfg = _adaptive_config(cfg, method, dataset.reward_bound)
    return train(dataset, method, acfg, seed=seed)


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


def _load_dataset_dir(path: Path):
    header = path / HEADER_NAME
    traj = path / TRAJECTORIES_NAME
    if not header.exists() or not traj.exists():
        raise DataError(f"dataset directory {path} must contain "
                        f"{HEADER_NAME} and {TRAJECTORIES_NAME}")
    return load_dataset(header, traj)


def cmd_train(cfg: RunConfig, dataset_dir: Path, out: Path) -> None:
    dataset = _load_dataset_dir(dataset_dir)
    bundle, reports = _train_any(cfg, cfg.method, dataset, cfg.seed)
    _atomic_write_all({
        out / "model.json": model_json_text(bundle),
        out / "trace.json": _trace_text(reports),
    })


def cmd_eval(cfg: RunConfig, model_path: Path, dataset_dir: Path,
             truth_path: Path, env_path: Path | None, out: Path) -> None:
    model = load_model(model_path)
    dataset = _load_dataset_dir(dataset_dir)
    truth = envs_mod.load_ground_truth(truth_path)
    env = envs_mod.load_env(env_path) if env_path is not None else None
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
    model = load_model(model_path)
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
        env = envs_mod.load_env(env_path) if env_path is not None else None

        def trainer(mask):
            if model.filter_kind in ("ls", "lasso"):
                grid = cfg.lasso_grid or learner_mod.DEFAULT_LASSO_GRID
                return train_baseline(dataset, model.filter_kind, lasso_grid=grid,
                                      seed=model.seed, feature_mask=mask)
            acfg = model.config or _adaptive_config(cfg, model.filter_kind,
                                                    dataset.reward_bound)
            bundle, _ = train(dataset, model.filter_kind, acfg, seed=model.seed,
                              feature_mask=mask)
            return bundle

        def reward_of(bundle):
            if env is not None:
                pol = GreedyPolicy(bundle, dataset.action_table)
                return rollout_reward(pol, env, cfg.n_episodes, seed=cfg.seed)
            return direct_value_estimate(bundle, dataset)

        curve = topk_feature_rewards(contrib, trainer, reward_of, cfg.topk)
        outputs[out / "topk.csv"] = _csv_text(
            ("k", "reward"), [(k, v) for k, v in curve.items()])
    _atomic_write_all(outputs)


def _compare_cell(cfg: RunConfig, method: str, seed: int, dataset_train,
                  dataset_eval, env, truth):
    started = time.monotonic()
    bundle, _ = _train_any(cfg, method, dataset_train, seed)
    elapsed = time.monotonic() - started
    report = evaluate(bundle, truth.theta_star, dataset_eval, env=env,
                      n_episodes=cfg.n_episodes, seed=seed)
    return (method, seed, report.parameter_gap, report.policy_gap,
            report.cumulative_reward, elapsed)


def cmd_compare(cfg: RunConfig, out: Path) -> None:
    seeds = [cfg.seed + i for i in range(cfg.seeds)]
    worlds = {}
    for seed in seeds:
        env = envs_mod.make_env(cfg.env, seed)
        dataset, truth = envs_mod.generate_trajectories(env, cfg.n_trajectories, seed=seed)
        train_set, eval_set = split(dataset, cfg.train_fraction, seed)
        worlds[seed] = (env, train_set, eval_set, truth)

    tasks = [(method, seed) for method in METHODS for seed in seeds]

    def run_cell(task):
        method, seed = task
        env, train_set, eval_set, truth = worlds[seed]
        return _compare_cell(cfg, method, seed, train_set, eval_set, env, truth)

    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(run_cell, tasks))
    else:
        results = [run_cell(t) for t in tasks]

    rows = []
    by_method = {m: [] for m in METHODS}
    for method, seed, pgap, ygap, reward, elapsed in results:
        rows.append((method, str(seed), pgap, ygap, reward, elapsed))
        by_method[method].append((pgap, ygap, reward, elapsed))
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
        p.add_argument("--preset", choices=["a1-performance", "a2-interpretability"])
        p.add_argument("--seed", type=int)
        p.add_argument("--jobs", type=int)
        p.add_argument("--out", type=Path, required=True, help="output directory")

    p = sub.add_parser("gen", help="generate a synthetic dataset with ground truth")
    common(p)
    p.add_argument("--n", type=int, help="number of trajectories")

    p = sub.add_parser("train", help="train a model on a dataset directory")
    common(p)
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--method", choices=list(METHODS))

    p = sub.add_parser("eval", help="evaluate a model against ground truth")
    common(p)
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--truth", type=Path, required=True)
    p.add_argument("--env", type=Path, help="env file enabling rollout rewards")
    p.add_argument("--n-episodes", type=int)

    p = sub.add_parser("report", help="interpretability reports for a model")
    common(p)
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--dataset", type=Path)
    p.add_argument("--env", type=Path)
    p.add_argument("--topk", type=str, help="comma-separated k values to retrain")
    p.add_argument("--n-episodes", type=int)

    p = sub.add_parser("compare", help="methods x seeds comparison table")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--seeds", type=int)
    p.add_argument("--n-episodes", type=int)
    return parser


def _overrides_from_args(args) -> dict:
    overrides: dict = {}
    mapping = {
        "preset": "preset", "seed": "seed", "jobs": "jobs", "n": "n_trajectories",
        "method": "method", "seeds": "seeds", "n_episodes": "n_episodes",
    }
    for attr, key in mapping.items():
        value = getattr(args, attr, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "topk", None):
        try:
            overrides["topk"] = [int(v) for v in args.topk.split(",")]
        except ValueError:
            raise ConfigError(f"--topk must be comma-separated integers, got {args.topk!r}")
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
            cmd_eval(cfg, args.model, args.dataset, args.truth, args.env, out)
        elif args.command == "report":
            cmd_report(cfg, args.model, args.dataset, args.env, out)
        elif args.command == "compare":
            cmd_compare(cfg, out)
    except ConfigError as exc:
        print(f"error: configuration: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error: data: no such file: {exc.filename}", file=sys.stderr)
        return 3
    except (NumericError, FloatingPointError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
