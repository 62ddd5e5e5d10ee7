import json
import os
import threading
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from sblq import cli
from sblq.cli import main
from sblq.config import CONFIG_SCHEMA, METHODS, RunConfig, parse_config, validate_config
from sblq.data import load_dataset
from sblq.envs import A1_ENV, A2_ENV, EnvSpec, generate_trajectories, make_env
from sblq.errors import ConfigError
from sblq.experiments import build_world, method_cell
from sblq.learner import AdaptiveConfig, default_config, load_model

from conftest import per_record_jsonl


class TestParseConfig:
    def test_preset_a1_defaults(self):
        cfg = parse_config(overrides={"preset": "a1-performance"})
        assert cfg.env == A1_ENV
        assert cfg.env.horizon == 20
        assert cfg.n_trajectories == 1000
        assert cfg.train_fraction == 0.5
        # effective per-filter constants: grid anchor and budget
        for kind, q0 in (("tikhonov", 100.0), ("gradient-descent", 100.0), ("cutoff", 30.0)):
            acfg = default_config(kind, reward_bound=1.0, **cfg.adaptive)
            assert acfg.q0 == q0
            assert acfg.budget == 100
            assert acfg.q == 0.9

    def test_preset_a2_defaults(self):
        cfg = parse_config(overrides={"preset": "a2-interpretability"})
        assert cfg.env == A2_ENV
        assert cfg.env.horizon == 6
        assert cfg.env.theta_mode == "static"

    def test_override_wins_over_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 3, "n_trajectories": 50}))
        cfg = parse_config(path, overrides={"seed": 9})
        assert cfg.seed == 9
        assert cfg.n_trajectories == 50

    def test_unlocked_field_override_on_preset(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "a1-performance",
                                    "adaptive": {"q": 0.8},
                                    "env": {"n_users": 50}}))
        cfg = parse_config(path)
        assert cfg.adaptive["q"] == 0.8
        assert cfg.env.n_users == 50
        assert cfg.env.horizon == 20  # untouched preset field

    def test_locked_field_conflict_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "a1-performance", "env": {"horizon": 5}}))
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(path)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="gamma"):
            validate_config({"gamma": 0.9})
        with pytest.raises(ConfigError, match=r"env\.'width'"):
            validate_config({"env": {"width": 3}})

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config({"seed": "seven"})

    def test_env_var_seed_fallback(self, monkeypatch):
        monkeypatch.setenv("SBLQ_SEED", "41")
        cfg = parse_config()
        assert cfg.seed == 41
        monkeypatch.setenv("SBLQ_SEED", "oops")
        with pytest.raises(ConfigError):
            parse_config()

    def test_explicit_seed_beats_env_var(self, monkeypatch):
        monkeypatch.setenv("SBLQ_SEED", "41")
        assert parse_config(overrides={"seed": 2}).seed == 2

    def test_schema_is_publishable(self):
        text = json.dumps(CONFIG_SCHEMA)
        assert "additionalProperties" in text

    @pytest.mark.parametrize("config", [
        {"lasso_grid": [float("nan")]},
        {"env": {"noise_sd": float("nan")}},
        {"train_fraction": float("nan")},
    ])
    def test_nan_fails_range_bounds(self, config):
        with pytest.raises(ConfigError, match="got nan"):
            validate_config(config)

    def test_schema_declares_every_config_field(self):
        props = CONFIG_SCHEMA["properties"]
        assert list(props) == [f.name for f in fields(RunConfig)]
        assert list(props["env"]["properties"]) == [f.name for f in fields(EnvSpec)]
        assert list(props["adaptive"]["properties"]) == [f.name for f in fields(AdaptiveConfig)]


class TestSchemaRejections:
    """One bad config per schema keyword and level; each exits 2 naming the field."""

    @pytest.mark.parametrize("config,field", [
        pytest.param([1, 2], "JSON object", id="top-not-object"),
        pytest.param({"seed": 1.5}, "seed", id="integer-type"),
        pytest.param({"n_trajectories": True}, "n_trajectories", id="bool-as-integer"),
        pytest.param({"train_fraction": True}, "train_fraction", id="bool-as-number"),
        pytest.param({"train_fraction": "0.5"}, "train_fraction", id="number-type"),
        pytest.param({"topk": 3}, "topk", id="array-type"),
        pytest.param({"env": [1]}, "env", id="object-type"),
        pytest.param({"preset": "a3"}, "preset", id="preset-enum"),
        pytest.param({"method": "ridge"}, "method", id="method-enum"),
        pytest.param({"n_episodes": 0}, "n_episodes", id="minimum"),
        pytest.param({"seed": -1}, "seed", id="seed-minimum"),
        pytest.param({"train_fraction": 0}, "train_fraction", id="exclusive-minimum"),
        pytest.param({"train_fraction": 1.0}, "train_fraction", id="exclusive-maximum"),
        pytest.param({"lasso_grid": []}, "lasso_grid", id="min-items"),
        pytest.param({"topk": [2, 0]}, "topk", id="item-minimum"),
        pytest.param({"topk": [2, "3"]}, "topk", id="item-type"),
        pytest.param({"lasso_grid": [0.1, -1]}, "lasso_grid", id="number-item-minimum"),
        pytest.param({"lasso_grid": [0.1, False]}, "lasso_grid", id="bool-item"),
        pytest.param({"env": {"horizon": 2.5}}, "horizon", id="env-integer-type"),
        pytest.param({"env": {"n_users": 0}}, "n_users", id="env-minimum"),
        pytest.param({"env": {"noise_sd": -0.1}}, "noise_sd", id="env-number-minimum"),
        pytest.param({"env": {"reward_low": False}}, "reward_low", id="env-bool-as-number"),
        pytest.param({"env": {"theta_mode": "fixed"}}, "theta_mode", id="env-enum"),
        pytest.param({"adaptive": "fast"}, "adaptive", id="adaptive-object-type"),
        pytest.param({"adaptive": {"budget": 10.0}}, "budget", id="adaptive-integer-type"),
        pytest.param({"adaptive": {"q": True}}, "'q'", id="adaptive-bool-as-number"),
        pytest.param({"gamma": 0.9}, "gamma", id="unknown-top"),
        pytest.param({"env": {"width": 3}}, "width", id="unknown-env"),
        pytest.param({"adaptive": {"alpha": 1}}, "alpha", id="unknown-adaptive"),
    ])
    def test_rejected_config_exits_two_naming_field(self, tmp_path, capsys, config, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(["gen", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration" in err and field in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,env_seed,field", [
        pytest.param(["gen", "--seed", "-1"], None, "'seed'", id="gen-flag"),
        pytest.param(["gen"], "-3", "SBLQ_SEED", id="gen-env-var"),
        pytest.param(["compare", "--preset", "a2-interpretability", "--n", "4",
                      "--seeds", "1", "--seed", "-2"], None, "'seed'", id="compare-flag"),
    ])
    def test_negative_seed_exits_two_naming_field(self, tmp_path, capsys, monkeypatch,
                                                   argv, env_seed, field):
        if env_seed is not None:
            monkeypatch.setenv("SBLQ_SEED", env_seed)
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration" in err and field in err and "at least 0" in err
        assert not out.exists()


class TestOverrideFlags:
    """Each flag whose destination is a config key reaches RunConfig."""

    @pytest.mark.parametrize("argv,key,value", [
        (["gen", "--n", "7"], "n_trajectories", 7),
        (["gen", "--seed", "5"], "seed", 5),
        (["gen", "--jobs", "3"], "jobs", 3),
        (["gen", "--preset", "a2-interpretability"], "preset", "a2-interpretability"),
        (["train", "--dataset", "d", "--method", "ls"], "method", "ls"),
        (["eval", "--model", "m", "--dataset", "d", "--truth", "t",
          "--n-episodes", "11"], "n_episodes", 11),
        (["report", "--model", "m", "--topk", "2,3"], "topk", (2, 3)),
        (["compare", "--n", "9"], "n_trajectories", 9),
        (["compare", "--seeds", "4"], "seeds", 4),
    ])
    def test_flag_reaches_run_config(self, monkeypatch, tmp_path, argv, key, value):
        seen = []
        monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda cfg, *rest: seen.append(cfg))
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert getattr(seen[0], key) == value

    @pytest.mark.parametrize("argv", [
        ["eval", "--model", "m", "--dataset", "d", "--truth", "t"],
        ["report", "--model", "m"],
    ])
    def test_env_path_stays_out_of_env_section(self, monkeypatch, tmp_path, argv):
        seen = []
        monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda cfg, *rest: seen.append((cfg, rest)))
        assert main(argv + ["--env", "world.json", "--out", str(tmp_path)]) == 0
        cfg, rest = seen[0]
        assert cfg.env == RunConfig().env
        assert Path("world.json") in rest


SMALL_ENV = {"n_users": 4, "n_actions": 5, "d_video": 3, "d_user": 3,
             "d_action": 3, "horizon": 3, "noise_sd": 0.3}


def write_small_config(tmp_path, **extra):
    cfg = {"env": SMALL_ENV, "n_trajectories": 60, "n_episodes": 20, **extra}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestCommands:
    def test_gen_produces_loadable_dataset(self, tmp_path):
        cfg = write_small_config(tmp_path)
        out = tmp_path / "data"
        assert main(["gen", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
        ds = load_dataset(out / "header.json", out / "trajectories.jsonl")
        assert len(ds) == 60 and ds.horizon == 3
        truth = json.loads((out / "ground_truth.json").read_text())
        assert len(truth["theta_star"]) == 4
        env_payload = json.loads((out / "env.json").read_text())
        assert env_payload["seed"] == 3

    def test_train_eval_report_flow(self, tmp_path):
        cfg = write_small_config(tmp_path)
        data = tmp_path / "data"
        run = tmp_path / "run"
        assert main(["gen", "--config", str(cfg), "--seed", "3", "--out", str(data)]) == 0
        assert main(["train", "--config", str(cfg), "--seed", "3", "--dataset", str(data),
                     "--method", "cutoff", "--out", str(run)]) == 0
        model = load_model(run / "model.json")
        assert model.filter_kind == "cutoff"
        trace = json.loads((run / "trace.json").read_text())
        assert len(trace["stages"]) == 3

        assert main(["eval", "--config", str(cfg), "--seed", "3",
                     "--model", str(run / "model.json"), "--dataset", str(data),
                     "--truth", str(data / "ground_truth.json"),
                     "--env", str(data / "env.json"), "--out", str(run)]) == 0
        metrics = json.loads((run / "metrics.json").read_text())
        assert np.isfinite(metrics["parameter_gap"])
        csv = (run / "metrics.csv").read_text().splitlines()
        assert csv[0] == "parameter_gap,policy_gap,cumulative_reward"

        assert main(["report", "--config", str(cfg), "--seed", "3",
                     "--model", str(run / "model.json"), "--dataset", str(data),
                     "--env", str(data / "env.json"), "--topk", "2,9",
                     "--out", str(run)]) == 0
        contributions = json.loads((run / "contributions.json").read_text())
        assert len(contributions["proportions"]) == 9
        topk = (run / "topk.csv").read_text().splitlines()
        assert topk[0] == "k,reward" and len(topk) == 3

    def test_train_baseline_method(self, tmp_path):
        cfg = write_small_config(tmp_path)
        data = tmp_path / "data"
        run = tmp_path / "run"
        main(["gen", "--config", str(cfg), "--seed", "1", "--out", str(data)])
        assert main(["train", "--config", str(cfg), "--seed", "1", "--dataset", str(data),
                     "--method", "lasso", "--out", str(run)]) == 0
        model = load_model(run / "model.json")
        assert model.filter_kind == "lasso"

    def test_compare_row_count(self, tmp_path):
        cfg = write_small_config(tmp_path, n_trajectories=40, n_episodes=10)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg), "--seed", "0", "--seeds", "2",
                     "--out", str(out)]) == 0
        lines = (out / "compare.csv").read_text().splitlines()
        # header + 5 methods x 2 seeds + 5 x (mean, sd)
        assert len(lines) == 1 + 10 + 10
        assert lines[0] == "method,seed,parameter_gap,policy_gap,reward,wall_clock_s"
        assert sum(1 for l in lines if ",mean," in l) == 5
        # wall-clock column is populated with measured (positive) times
        data_rows = [l.split(",") for l in lines[1:] if l.split(",")[1] not in ("mean", "sd")]
        assert all(float(r[-1]) > 0 for r in data_rows)

    def test_compare_jobs_matches_serial(self, tmp_path):
        cfg = write_small_config(tmp_path, n_trajectories=40, n_episodes=10)
        out1, out2 = tmp_path / "s", tmp_path / "p"
        main(["compare", "--config", str(cfg), "--seed", "0", "--seeds", "2", "--out", str(out1)])
        main(["compare", "--config", str(cfg), "--seed", "0", "--seeds", "2",
              "--jobs", "4", "--out", str(out2)])

        def strip_clock(path):
            rows = [l.split(",") for l in (path / "compare.csv").read_text().splitlines()]
            return [r[:-1] for r in rows]

        assert strip_clock(out1) == strip_clock(out2)

    @pytest.mark.parametrize("jobs,cpus,workers", [
        pytest.param(10_000, 64, 5, id="one-per-cell"),
        pytest.param(10_000, 3, 3, id="one-per-cpu"),
        pytest.param(2, 64, 2, id="jobs"),
        pytest.param(10_000, None, None, id="cpus-unknown-serial"),
    ])
    def test_compare_pool_is_capped(self, tmp_path, monkeypatch, jobs, cpus, workers):
        pools = []

        class SerialPool:  # records the pool size and runs the cells in order
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: pytest.fail("compare started a thread"))
        cfg = write_small_config(tmp_path, n_trajectories=40, n_episodes=10)
        assert main(["compare", "--config", str(cfg), "--seed", "0", "--seeds", "1",
                     "--jobs", str(jobs), "--out", str(tmp_path / "cmp")]) == 0
        assert pools == ([] if workers is None else [workers])

    def test_compare_rows_equal_library_cells(self, tmp_path):
        cfg_path = write_small_config(tmp_path, n_trajectories=40, n_episodes=10)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg_path), "--seed", "0", "--seeds", "2",
                     "--out", str(out)]) == 0
        rows = [l.split(",") for l in (out / "compare.csv").read_text().splitlines()[1:]]
        cells = {(r[0], r[1]): [float(v) for v in r[2:5]] for r in rows
                 if r[1] not in ("mean", "sd")}
        cfg = parse_config(cfg_path, {"seed": 0, "seeds": 2})
        expected = {}
        for seed in (0, 1):
            world = build_world(cfg.env, seed, cfg.n_trajectories, cfg.train_fraction)
            for method in METHODS:
                m = method_cell(world, method, seed, cfg.adaptive, cfg.lasso_grid,
                                world.env, cfg.n_episodes).metrics
                expected[method, str(seed)] = [m.parameter_gap, m.policy_gap,
                                               m.cumulative_reward]
        assert cells == expected

    def test_report_topk_on_baseline_model(self, tmp_path):
        cfg = write_small_config(tmp_path)
        data, run = tmp_path / "data", tmp_path / "run"
        main(["gen", "--config", str(cfg), "--seed", "2", "--out", str(data)])
        main(["train", "--config", str(cfg), "--seed", "2", "--dataset", str(data),
              "--method", "ls", "--out", str(run)])
        assert main(["report", "--config", str(cfg), "--seed", "2",
                     "--model", str(run / "model.json"), "--dataset", str(data),
                     "--topk", "3,9", "--out", str(run)]) == 0
        rows = (run / "topk.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows] == ["k", "3", "9"]

    def test_gen_a1_preset_reloads(self, tmp_path):
        out = tmp_path / "a1"
        assert main(["gen", "--preset", "a1-performance", "--seed", "7",
                     "--out", str(out)]) == 0
        ds = load_dataset(out / "header.json", out / "trajectories.jsonl")
        assert len(ds) == 1000
        assert ds.horizon == 20
        assert ds.feature_dim == 72

    @pytest.mark.parametrize("preset", ["a1-performance", "a2-interpretability"])
    def test_gen_writes_per_record_json(self, tmp_path, preset):
        spec = parse_config(overrides={"preset": preset}).env
        for seed in range(5):
            out = tmp_path / str(seed)
            assert main(["gen", "--preset", preset, "--seed", str(seed), "--n", "200",
                         "--out", str(out)]) == 0
            env = make_env(spec, seed)
            ds, truth = generate_trajectories(env, 200, seed=seed)
            header = {"version": 1, "horizon": ds.horizon, "state_dim": ds.state_dim,
                      "action_dim": ds.action_dim, "reward_bound": ds.reward_bound,
                      "normalize": True, "action_table": ds.action_table.tolist()}
            assert (out / "header.json").read_text() == json.dumps(header) + "\n"
            assert (out / "trajectories.jsonl").read_text() == per_record_jsonl(ds)
            assert json.loads((out / "ground_truth.json").read_text()) == {
                "version": 1, "theta_star": truth.theta_star.tolist()}
            assert json.loads((out / "env.json").read_text()) == {
                "version": 1, "seed": seed, "spec": asdict(spec)}

    def test_non_centred_reward_range_exits_two(self, tmp_path, capsys):
        path = tmp_path / "range.json"
        path.write_text(json.dumps({"env": {"reward_low": 0.0, "reward_high": 1.0}}))
        out = tmp_path / "o"
        assert main(["gen", "--preset", "a1-performance", "--n", "5", "--config", str(path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration" in err and "reward_low" in err and "reward_high" in err
        assert not out.exists()

    def test_centred_reward_range_accepted(self, tmp_path):
        path = tmp_path / "range.json"
        path.write_text(json.dumps({"env": {"reward_low": -1.0, "reward_high": 1.0}}))
        out = tmp_path / "o"
        assert main(["gen", "--preset", "a1-performance", "--n", "5", "--config", str(path),
                     "--out", str(out)]) == 0
        env = json.loads((out / "env.json").read_text())["spec"]
        assert (env["reward_low"], env["reward_high"]) == (-1.0, 1.0)

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nonsense": 1}))
        assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_data_error_exit_code(self, tmp_path):
        cfg = write_small_config(tmp_path)
        missing = tmp_path / "missing"
        assert main(["train", "--config", str(cfg), "--dataset", str(missing),
                     "--out", str(tmp_path / "o")]) == 3

    def test_topk_outside_feature_range_exits_two(self, tmp_path, capsys):
        cfg = write_small_config(tmp_path)
        data, run = tmp_path / "data", tmp_path / "run"
        main(["gen", "--config", str(cfg), "--seed", "2", "--out", str(data)])
        main(["train", "--config", str(cfg), "--seed", "2", "--dataset", str(data),
              "--method", "tikhonov", "--out", str(run)])
        capsys.readouterr()
        assert main(["report", "--config", str(cfg), "--seed", "2",
                     "--model", str(run / "model.json"), "--dataset", str(data),
                     "--topk", "2,99", "--out", str(run)]) == 2
        assert "99" in capsys.readouterr().err
        assert not (run / "topk.csv").exists()

    @pytest.mark.parametrize("flag,is_dir", [
        pytest.param("--model", False, id="--model"),
        pytest.param("--truth", False, id="--truth"),
        pytest.param("--env", False, id="--env"),
        pytest.param("--model", True, id="--model-directory"),
        pytest.param("--truth", True, id="--truth-directory"),
    ])
    def test_missing_input_file_exits_three(self, tmp_path, capsys, flag, is_dir):
        cfg = write_small_config(tmp_path)
        data, run = tmp_path / "data", tmp_path / "run"
        main(["gen", "--config", str(cfg), "--seed", "2", "--out", str(data)])
        main(["train", "--config", str(cfg), "--seed", "2", "--dataset", str(data),
              "--method", "ls", "--out", str(run)])
        paths = {"--model": run / "model.json", "--truth": data / "ground_truth.json",
                 "--env": data / "env.json"}
        paths[flag] = tmp_path / "absent.json"
        if is_dir:
            paths[flag].mkdir()
        capsys.readouterr()
        argv = ["eval", "--config", str(cfg), "--dataset", str(data), "--out", str(run)]
        for name, path in paths.items():
            argv += [name, str(path)]
        assert main(argv) == 3
        assert str(tmp_path / "absent.json") in capsys.readouterr().err
        assert not (run / "metrics.json").exists()

    @pytest.mark.parametrize("flag,corrupt", [
        pytest.param("--model", lambda p: {k: v for k, v in p.items() if k != "stages"},
                     id="model-without-stages"),
        pytest.param("--model", lambda p: "{not json",
                     id="model-not-json"),
        pytest.param("--model", lambda p: {**p, "stages": [
            {k: v for k, v in s.items() if k != "theta"} for s in p["stages"]]},
                     id="model-stage-without-theta"),
        pytest.param("--truth", lambda p: {"version": 1},
                     id="truth-without-theta_star"),
        pytest.param("--truth", lambda p: {**p, "theta_star": [r[:-1] for r in p["theta_star"]]},
                     id="truth-shape-misfits-model"),
        pytest.param("--env", lambda p: {k: v for k, v in p.items() if k != "spec"},
                     id="env-without-spec"),
        pytest.param("--env", lambda p: {**p, "spec": {**p["spec"], "bogus": 1}},
                     id="env-spec-unknown-key"),
        pytest.param("--model", lambda p: {**p, "stages": p["stages"][:-1]},
                     id="model-fewer-stages-than-horizon"),
        pytest.param("--truth", lambda p: {**p, "theta_star": [["x"] * len(r)
                                                               for r in p["theta_star"]]},
                     id="truth-theta_star-strings"),
        pytest.param("--model", lambda p: {**p, "stages": [
            {**s, "theta": [float("nan")] + s["theta"][1:]} if i == 0 else s
            for i, s in enumerate(p["stages"])]},
                     id="model-theta-nan"),
        pytest.param("--model", lambda p: {**p, "stages": [
            {**s, "lambda": float("nan")} for s in p["stages"]]},
                     id="model-lambda-nan"),
        pytest.param("--truth", lambda p: {**p, "theta_star": [
            [float("nan")] + p["theta_star"][0][1:], *p["theta_star"][1:]]},
                     id="truth-theta_star-nan"),
        pytest.param("--truth", lambda p: {**p, "theta_star": [
            [10**400] + p["theta_star"][0][1:], *p["theta_star"][1:]]},
                     id="truth-theta_star-huge-int"),
        pytest.param("--model", lambda p: {**p, "feature_mask": [float("nan")] * p["feature_dim"]},
                     id="model-feature_mask-nan"),
        pytest.param("--model", lambda p: {**p, "feature_mask": [0.5] * p["feature_dim"]},
                     id="model-feature_mask-not-0-1"),
        pytest.param("--model", lambda p: {**p, "feature_mask": [1.0] * (p["feature_dim"] - 1)},
                     id="model-feature_mask-short"),
    ])
    def test_malformed_input_file_exits_three(self, tmp_path, capsys, flag, corrupt):
        cfg = write_small_config(tmp_path)
        data, run = tmp_path / "data", tmp_path / "run"
        main(["gen", "--config", str(cfg), "--seed", "2", "--out", str(data)])
        main(["train", "--config", str(cfg), "--seed", "2", "--dataset", str(data),
              "--method", "ls", "--out", str(run)])
        paths = {"--model": run / "model.json", "--truth": data / "ground_truth.json",
                 "--env": data / "env.json"}
        broken = corrupt(json.loads(paths[flag].read_text()))
        paths[flag] = tmp_path / "broken.json"
        paths[flag].write_text(broken if isinstance(broken, str) else json.dumps(broken))
        capsys.readouterr()
        argv = ["eval", "--config", str(cfg), "--dataset", str(data), "--out", str(run)]
        for name, path in paths.items():
            argv += [name, str(path)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and str(paths[flag]) in err
        assert not (run / "metrics.json").exists()

    @pytest.mark.parametrize("command", ["eval", "report"])
    def test_model_misfitting_dataset_exits_three(self, tmp_path, capsys, command):
        cfg = write_small_config(tmp_path)
        data, other, run = tmp_path / "data", tmp_path / "other", tmp_path / "run"
        main(["gen", "--config", str(cfg), "--seed", "2", "--out", str(data)])
        main(["train", "--config", str(cfg), "--seed", "2", "--dataset", str(data),
              "--method", "ls", "--out", str(run)])
        (tmp_path / "wider").mkdir()
        wider = write_small_config(tmp_path / "wider", env={**SMALL_ENV, "d_user": 5})
        main(["gen", "--config", str(wider), "--seed", "2", "--out", str(other)])
        capsys.readouterr()
        model = run / "model.json"
        argv = [command, "--config", str(cfg), "--model", str(model), "--dataset", str(other),
                "--out", str(run)]
        if command == "eval":
            argv += ["--truth", str(data / "ground_truth.json")]
        else:
            argv += ["--topk", "2"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and str(model) in err and str(other) in err
        assert not (run / "metrics.json").exists() and not (run / "topk.csv").exists()

    def test_output_path_taken_by_file_exits_three(self, tmp_path, capsys):
        cfg = write_small_config(tmp_path)
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 3
        assert f"cannot write {out}" in capsys.readouterr().err
        assert out.read_text() == ""

    def test_write_failure_removes_written_outputs(self, tmp_path, capsys):
        cfg = write_small_config(tmp_path)
        data, run = tmp_path / "data", tmp_path / "run"
        main(["gen", "--config", str(cfg), "--seed", "2", "--out", str(data)])
        main(["train", "--config", str(cfg), "--seed", "2", "--dataset", str(data),
              "--method", "ls", "--out", str(run)])
        (run / "metrics.csv").mkdir()
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--model", str(run / "model.json"),
                     "--dataset", str(data), "--truth", str(data / "ground_truth.json"),
                     "--out", str(run)]) == 3
        assert "metrics.csv" in capsys.readouterr().err
        assert sorted(p.name for p in run.iterdir()) == ["metrics.csv", "model.json", "trace.json"]

    def test_config_directory_exits_two(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["gen", "--config", str(tmp_path), "--out", str(out)]) == 2
        assert str(tmp_path) in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_adaptive_exits_two_before_work(self, tmp_path, capsys):
        cfg = write_small_config(tmp_path)
        data, run = tmp_path / "data", tmp_path / "run"
        main(["gen", "--config", str(cfg), "--seed", "2", "--out", str(data)])
        bad = write_small_config(tmp_path, adaptive={"q": 2.0})
        capsys.readouterr()
        assert main(["train", "--config", str(bad), "--dataset", str(data),
                     "--method", "tikhonov", "--out", str(run)]) == 2
        assert "configuration" in capsys.readouterr().err
        assert not run.exists()

    def test_empty_lasso_grid_exits_two(self, tmp_path):
        cfg = write_small_config(tmp_path)
        data, run = tmp_path / "data", tmp_path / "run"
        main(["gen", "--config", str(cfg), "--seed", "1", "--out", str(data)])
        bad = write_small_config(tmp_path, lasso_grid=[])
        assert main(["train", "--config", str(bad), "--dataset", str(data),
                     "--method", "lasso", "--out", str(run)]) == 2
        assert not run.exists()

    def test_compare_split_leaving_a_side_empty_exits_two(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["compare", "--preset", "a2-interpretability", "--n", "1",
                     "--seeds", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration" in err and "empty side" in err
        assert not out.exists()

    def test_compare_lasso_holdout_leaving_no_training_rows_exits_two(self, tmp_path, capsys):
        # 2 trajectories at train_fraction 0.5 leave lasso one training
        # trajectory, and it holds that one out to choose its penalty
        out = tmp_path / "o"
        assert main(["compare", "--preset", "a2-interpretability", "--n", "2",
                     "--seeds", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration" in err
        assert "n_trajectories 2" in err and "train_fraction 0.5" in err
        assert not out.exists()

    def test_lasso_on_one_trajectory_exits_three_naming_dataset(self, tmp_path, capsys):
        cfg = write_small_config(tmp_path, n_trajectories=1)
        data, run = tmp_path / "data", tmp_path / "run"
        assert main(["gen", "--config", str(cfg), "--seed", "1", "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--dataset", str(data),
                     "--method", "lasso", "--out", str(run)]) == 3
        err = capsys.readouterr().err
        assert "data" in err and str(data) in err and "no training rows" in err
        assert not run.exists()

    def test_missing_required_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_failed_command_leaves_no_partial_outputs(self, tmp_path):
        cfg = write_small_config(tmp_path)
        out = tmp_path / "o"
        main(["train", "--config", str(cfg), "--dataset", str(tmp_path / "missing"),
              "--out", str(out)])
        assert not out.exists() or not any(out.iterdir())
