"""Command-line workbench: dataset generation, training, evaluation,
interpretability reports, and the method-comparison grid.

Commands are idempotent: identical configuration and seed reproduce the same
output bytes, except for the wall-clock column of ``compare``.  Outputs are
assembled in memory and written atomically (write-temp-then-rename), so a
failing command leaves no partial files.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric failure
(a NumericError, LinAlgError or FloatingPointError); any other exception is a
defect and escapes with its traceback.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import envs as envs_mod
from .config import CONFIG_SCHEMA, METHODS, PRESET_NAMES, RunConfig, parse_config
from .data import (dataset_header_text, dataset_jsonl_text, file_values, load_dataset,
                   split_size)
from .errors import ConfigError, DataError, NumericError
from .experiments import build_world, method_cell
from .interpret import contribution_proportions, topk_feature_rewards
from .learner import (default_config, lasso_holdout, load_model, model_json_text,
                      stage_spectra, train)
from .policy import evaluate, policy_value

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


def _train(cfg: RunConfig, dataset, method: str, seed: int, model=None, mask=None):
    """``learner.train`` on the dataset's stage spectra under feature ``mask``,
    with the run's adaptive overrides and lasso grid; a loaded ``model``'s
    settings and grid replace them where it has them.  Returns (bundle, reports).
    Unmasked, ``train`` builds the stages itself and fits each as it lands."""
    # a configured adaptive.reward_bound replaces the dataset's
    acfg = (model and model.config) or default_config(
        method, **{"reward_bound": dataset.reward_bound, **cfg.adaptive})
    spectra = None if mask is None else stage_spectra(dataset, mask)
    return train(dataset, method, acfg, seed=seed, spectra=spectra,
                 lasso_grid=(model and model.lasso_grid) or cfg.lasso_grid)


def _trace_text(reports) -> str:
    """trace.json: the ``_json_text`` of each report's record, with each
    array the reports share (their scan grid's ks and lambdas) formatted once."""
    shared = {}  # id of a shared array -> its JSON text

    def once(array):
        if id(array) not in shared:
            shared[id(array)] = json.dumps(array.tolist())
        return shared[id(array)]

    records = ", ".join(
        f'{{"t": {json.dumps(r.stage)}, "ks": {once(r.ks)}, "lambdas": {once(r.lambdas)}, '
        f'"diff_norms": {json.dumps(r.diff_norms.tolist())}, '
        f'"thresholds": {json.dumps(r.thresholds.tolist())}, '
        f'"phi_next": {json.dumps(r.phi_next)}, "selected_k": {json.dumps(r.selected_k)}, '
        f'"selected_lambda": {json.dumps(r.selected_lambda)}}}'
        for r in reports)
    return f'{{"version": 1, "stages": [{records}]}}\n'


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


def _require_fit(model, model_path: Path, dataset, dataset_dir: Path) -> None:
    """A model applies only to a dataset of its horizon and feature count."""
    if (model.horizon, model.feature_dim) != (dataset.horizon, dataset.feature_dim):
        raise DataError(f"{model_path}: model has horizon {model.horizon} and "
                        f"{model.feature_dim} features, but the dataset in {dataset_dir} "
                        f"has horizon {dataset.horizon} and {dataset.feature_dim} features")


def _load_env(env_path: Path | None, dataset, dataset_dir: Path):
    """The env of ``env_path``, or None without one.  Its rollouts step the
    dataset's states and actions, which the model fits, so it must have the
    dataset's horizon, state features and action table shape."""
    if env_path is None:
        return None
    env = _read(envs_mod.load_env, env_path)
    spec = env.spec
    got = (spec.horizon, spec.state_dim, spec.n_actions, spec.d_action)
    want = (dataset.horizon, dataset.state_dim, *dataset.action_table.shape)
    if got != want:
        shape = "horizon {}, {} state features and {} x {} actions"
        raise DataError(f"{env_path}: env has {shape.format(*got)}, but the model and the "
                        f"dataset in {dataset_dir} have {shape.format(*want)}")
    return env


def cmd_train(cfg: RunConfig, dataset_dir: Path, out: Path) -> None:
    dataset = _load_dataset_dir(dataset_dir)
    try:
        bundle, reports = _train(cfg, dataset, cfg.method, cfg.seed)
    except (ConfigError, DataError) as exc:  # the settings do not fit this dataset
        raise type(exc)(f"dataset {dataset_dir}: {exc}") from exc
    _atomic_write_all({
        out / "model.json": model_json_text(bundle),
        out / "trace.json": _trace_text(reports),
    })


def cmd_eval(cfg: RunConfig, model_path: Path, dataset_dir: Path,
             truth_path: Path, env_path: Path | None, out: Path) -> None:
    model = _read(load_model, model_path)
    dataset = _load_dataset_dir(dataset_dir)
    _require_fit(model, model_path, dataset, dataset_dir)
    truth = _read(envs_mod.load_ground_truth, truth_path)
    horizon, dim = model.horizon, model.feature_dim
    if truth.theta_star.shape != (horizon + 1, dim):
        raise DataError(f"{truth_path}: theta_star has shape {truth.theta_star.shape}, "
                        f"but the model needs ({horizon + 1}, {dim})")
    env = _load_env(env_path, dataset, dataset_dir)
    report = evaluate(model, truth.theta_star, dataset, env=env,
                      n_episodes=cfg.n_episodes, seed=cfg.seed)
    stages = [s[key] for s in report.per_stage for key in ("theta_norm", "stage_gap")]
    if not np.all(np.isfinite([report.parameter_gap, report.policy_gap, *stages])):
        raise DataError(f"the metrics of model {model_path} against {truth_path} overflow")
    _atomic_write_all({
        out / "metrics.json": _json_text(report.as_dict()),
        out / "metrics.csv": _csv_text(
            ("parameter_gap", "policy_gap", "cumulative_reward"),
            [(report.parameter_gap, report.policy_gap, report.cumulative_reward)]),
    })


def cmd_report(cfg: RunConfig, model_path: Path, dataset_dir: Path | None,
               env_path: Path | None, out: Path) -> None:
    model = _read(load_model, model_path)
    with file_values(model_path):  # a model whose coefficients are all zero
        contrib = contribution_proportions(model)
    rank_of = {int(j): pos for pos, j in enumerate(contrib.ranking)}
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
        d = model.feature_dim
        outside = [k for k in cfg.topk if not 1 <= k <= d]
        if outside:
            raise ConfigError(f"topk values {outside} outside 1..{d}, "
                              "the model's feature count")
        if dataset_dir is None:
            raise ConfigError("--topk requires --dataset to retrain masked models")
        dataset = _load_dataset_dir(dataset_dir)
        _require_fit(model, model_path, dataset, dataset_dir)
        env = _load_env(env_path, dataset, dataset_dir)

        def refit(mask):
            try:
                return _train(cfg, dataset, model.filter_kind, model.seed, model, mask)[0]
            except (ConfigError, DataError) as exc:
                if isinstance(exc, ConfigError) and model.config is not None:
                    raise DataError(f"{model_path}: field 'config': {exc}") from exc
                raise type(exc)(f"dataset {dataset_dir}: {exc}") from exc

        curve = topk_feature_rewards(
            contrib, refit,
            lambda bundle: policy_value(bundle, dataset, env, cfg.n_episodes, cfg.seed),
            cfg.topk)
        outputs[out / "topk.csv"] = _csv_text(
            ("k", "reward"), [(k, v) for k, v in curve.items()])
    _atomic_write_all(outputs)


def cmd_compare(cfg: RunConfig, out: Path) -> None:
    n_train = split_size(cfg.n_trajectories, cfg.train_fraction)
    if n_train - lasso_holdout(n_train) < 1:
        raise ConfigError(
            f"n_trajectories {cfg.n_trajectories} at train_fraction {cfg.train_fraction} "
            f"leaves lasso {n_train} training trajectories, all held out to choose "
            "its penalty")
    seeds = range(cfg.seed, cfg.seed + cfg.seeds)
    values = {}
    for seed in seeds:
        world = build_world(cfg.env, seed, cfg.n_trajectories, cfg.train_fraction)
        for method in METHODS:
            cell = method_cell(world, method, seed, cfg.adaptive, cfg.lasso_grid,
                               world.env, cfg.n_episodes)
            m = cell.metrics
            values[method, seed] = (m.parameter_gap, m.policy_gap, m.cumulative_reward,
                                    cell.train_s)
        del world  # before the next seed's is built: one world in memory at a time

    rows = [(method, str(seed), *values[method, seed]) for method in METHODS for seed in seeds]
    for method in METHODS:
        block = np.array([values[method, seed] for seed in seeds])
        rows.append((method, "mean", *[float(v) for v in block.mean(axis=0)]))
        sd = block.std(axis=0, ddof=1) if len(block) > 1 else np.zeros(4)
        rows.append((method, "sd", *[float(v) for v in sd]))
    _atomic_write_all({
        out / "compare.csv": _csv_text(
            ("method", "seed", "parameter_gap", "policy_gap", "reward", "wall_clock_s"),
            rows),
    })


@cache  # one parser per process: each parse_args call starts a new namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sblq",
        description="Spectral-filter batch linear Q-learning workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, help="JSON config file")
        p.add_argument("--preset", choices=PRESET_NAMES)
        p.add_argument("--seed", type=int)
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
    except (NumericError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
