import json
import math
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
from sblq.learner import (DEFAULT_LASSO_GRID, AdaptiveConfig, ModelBundle, StageModel,
                          default_config, load_model, model_json_text, stage_spectra, train)
from sblq.policy import direct_value_estimate

from conftest import LEAF_MUTATIONS, leaf_paths, mutated, per_record_jsonl


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
        pytest.param({"jobs": 2}, "'jobs'", id="removed-jobs"),
        pytest.param({"adaptive": {"c_tilde": 0.25}}, "'c_tilde'", id="removed-c_tilde"),
        pytest.param({"adaptive": {"c0_effdim": 1.0}}, "'c0_effdim'", id="removed-c0_effdim"),
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
        (["train", "--dataset", "d", "--seed", "3"], "seed", 3),
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


def write_dataset(path, states, table, normalize=True):
    """A dataset directory of horizon-2 trajectories with the given (T, d_s)
    ``states``, action 0 throughout and zero rewards."""
    path.mkdir()
    (path / "header.json").write_text(json.dumps({
        "version": 1, "horizon": 2, "state_dim": 2, "action_dim": 1, "reward_bound": 1.0,
        "normalize": normalize, "action_table": table}))
    (path / "trajectories.jsonl").write_text("".join(
        json.dumps({"states": rows, "actions": [0, 0], "rewards": [0.0, 0.0]}) + "\n"
        for rows in states))
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

    @pytest.mark.parametrize("method", ["cutoff", "lasso"])
    def test_unmasked_train_fits_stage_by_stage_with_the_spectra_bytes(self, tmp_path,
                                                                       monkeypatch, method):
        # with no mask, train builds the stages itself, on the worker where
        # one runs, and writes the model that trained on stage_spectra writes
        import sblq.learner as learner_mod
        data, run = tmp_path / "data", tmp_path / "run"
        assert main(["gen", "--preset", "a1-performance", "--seed", "0", "--n", "100",
                     "--out", str(data)]) == 0
        monkeypatch.setattr(learner_mod, "_spare_cpu", lambda: True)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "stage_spectra", None)
            assert main(["train", "--preset", "a1-performance", "--dataset", str(data),
                         "--method", method, "--out", str(run)]) == 0
        ds = load_dataset(data / "header.json", data / "trajectories.jsonl")
        model = load_model(run / "model.json")
        want = train(ds, method, model.config, spectra=stage_spectra(ds),
                     lasso_grid=model.lasso_grid or DEFAULT_LASSO_GRID)[0]
        assert (run / "model.json").read_text() == model_json_text(want)

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

    def test_compare_builds_each_world_after_the_previous_cells(self, tmp_path,
                                                                  monkeypatch):
        events = []

        def world_of(spec, seed, *rest):
            events.append(("world", seed))
            return build_world(spec, seed, *rest)

        def cell_of(world, method, seed, *rest):
            events.append((method, seed))
            return method_cell(world, method, seed, *rest)

        monkeypatch.setattr(cli, "build_world", world_of)
        monkeypatch.setattr(cli, "method_cell", cell_of)
        cfg = write_small_config(tmp_path, n_trajectories=40, n_episodes=10)
        assert main(["compare", "--config", str(cfg), "--seed", "3", "--seeds", "2",
                     "--out", str(tmp_path / "cmp")]) == 0
        assert events == [event for seed in (3, 4)
                          for event in [("world", seed)] + [(m, seed) for m in METHODS]]

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

    def test_report_topk_refits_lasso_on_its_own_grid(self, tmp_path):
        # the k = d row refits the model itself, under any report config's grid
        data, run = tmp_path / "data", tmp_path / "run"
        cfg = write_small_config(tmp_path, lasso_grid=[0.05])
        main(["gen", "--config", str(cfg), "--seed", "2", "--out", str(data)])
        main(["train", "--config", str(cfg), "--seed", "2", "--dataset", str(data),
              "--method", "lasso", "--out", str(run)])
        model = load_model(run / "model.json")
        assert model.lasso_grid == (0.05,)
        want = direct_value_estimate(model, load_dataset(data / "header.json",
                                                         data / "trajectories.jsonl"))
        assert want != 0.0
        for extra in ({"lasso_grid": [0.05]}, {"lasso_grid": [1.0, 10.0]}, {}):
            cfg = write_small_config(tmp_path, **extra)
            assert main(["report", "--config", str(cfg), "--seed", "2",
                         "--model", str(run / "model.json"), "--dataset", str(data),
                         "--topk", "3,9", "--out", str(run)]) == 0
            k, value = (run / "topk.csv").read_text().splitlines()[-1].split(",")
            assert k == "9" and float(value) == want, extra

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
        pytest.param("--model", lambda p: {**p, "stages": {"t": 1}},
                     id="model-stages-not-a-list"),
        pytest.param("--env", lambda p: {**p, "spec": {**p["spec"], "horizon": True}},
                     id="env-spec-horizon-bool"),
        pytest.param("--env", lambda p: {**p, "spec": {**p["spec"], "n_users": 4.0}},
                     id="env-spec-n_users-float"),
        pytest.param("--env", lambda p: {**p, "seed": False},
                     id="env-seed-bool"),
        pytest.param("--env", lambda p: {**p, "spec": [3]},
                     id="env-spec-not-an-object"),
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

    def test_truth_of_horizon_rows_exits_three_naming_the_shape(self, tmp_path, capsys):
        # a (T, d) theta_star without stage T+1's zero row is refused, not padded
        cfg = write_small_config(tmp_path)
        data, run = tmp_path / "data", tmp_path / "run"
        main(["gen", "--config", str(cfg), "--seed", "2", "--out", str(data)])
        main(["train", "--config", str(cfg), "--seed", "2", "--dataset", str(data),
              "--method", "ls", "--out", str(run)])
        payload = json.loads((data / "ground_truth.json").read_text())
        rows, d = len(payload["theta_star"]), len(payload["theta_star"][0])
        short = tmp_path / "short.json"
        short.write_text(json.dumps({**payload, "theta_star": payload["theta_star"][:-1]}))
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--model", str(run / "model.json"),
                     "--dataset", str(data), "--truth", str(short), "--out", str(run)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and str(short) in err
        assert f"shape ({rows - 1}, {d})" in err and f"needs ({rows}, {d})" in err
        assert not (run / "metrics.json").exists()

    @pytest.mark.parametrize("field,value,message", [
        ("t", "x", "field 't' must be the integer 2, got 'x'"),
        ("t", 3, "field 't' must be the integer 2, got 3"),
        ("t", 2.0, "field 't' must be the integer 2, got 2.0"),
        ("t", True, "field 't' must be the integer 2, got True"),
        ("t", None, "field 't' must be the integer 2, got None"),
        ("t", [], "field 't' must be the integer 2, got []"),
        ("t", 1e308, "field 't' must be the integer 2, got 1e+308"),
        ("theta", [0.5] * 8, "field 'theta' has shape (8,), expected (9,)"),
        ("theta", [[0.5] * 9], "field 'theta' has shape (1, 9), expected (9,)"),
        ("theta", [0.5] * 8 + [[0.5]], "field 'theta'"),
        ("lambda", "x", "stage 2"),
    ])
    def test_malformed_model_stage_exits_three_naming_stage(self, tmp_path, capsys, field,
                                                            value, message):
        cfg = write_small_config(tmp_path)
        data, run = tmp_path / "data", tmp_path / "run"
        main(["gen", "--config", str(cfg), "--seed", "2", "--out", str(data)])
        main(["train", "--config", str(cfg), "--seed", "2", "--dataset", str(data),
              "--method", "ls", "--out", str(run)])
        model = run / "model.json"
        payload = json.loads(model.read_text())
        payload["stages"][1][field] = value
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--model", str(model), "--dataset", str(data),
                     "--truth", str(data / "ground_truth.json"), "--out", str(run)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: data: {model}: stage 2: ") and message in err
        assert not (run / "metrics.json").exists()

    @pytest.mark.parametrize("table", [[[1.0], []], [[1.0], [1.0, 2.0]], [[1.0], 2.0],
                                       [[1.0], ["x"]]])
    def test_malformed_action_table_exits_three_naming_header(self, tmp_path, capsys, table):
        data = write_dataset(tmp_path / "data", [[[1.0, 0.0], [1.0, 1.0]]], table=table)
        run = tmp_path / "run"
        assert main(["train", "--dataset", str(data), "--method", "cutoff",
                     "--out", str(run)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: data: header {data / 'header.json'}: ")
        assert "action_table" in err
        assert not run.exists()

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

    def test_c0_with_zero_reward_bound_exits_two_naming_both(self, tmp_path, capsys):
        cfg = write_small_config(tmp_path)
        data, run = tmp_path / "data", tmp_path / "run"
        main(["gen", "--config", str(cfg), "--seed", "2", "--out", str(data)])
        bad = write_small_config(tmp_path, adaptive={"c0": 0.5, "reward_bound": 0})
        capsys.readouterr()
        assert main(["train", "--config", str(bad), "--dataset", str(data),
                     "--method", "tikhonov", "--out", str(run)]) == 2
        err = capsys.readouterr().err
        assert "configuration" in err and "c0" in err and "reward_bound" in err
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

    def test_zero_state_row_with_zero_action_row_exits_three_naming_line(self, tmp_path,
                                                                          capsys):
        data = write_dataset(tmp_path / "data", [[[1.0, 0.0], [1.0, 1.0]],
                                                 [[0.0, 1.0], [0.0, 0.0]]],
                             table=[[0.0], [1.0]])
        assert main(["train", "--dataset", str(data), "--method", "tikhonov",
                     "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and "all-zero" in err
        assert f"{data / 'trajectories.jsonl'}:2" in err

    def test_gradient_descent_on_unnormalized_features_exits_three(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "data", [[[6.0, 0.0], [1.0, 0.0]],
                                                 [[6.0, 1.0], [0.0, 1.0]]],
                             table=[[1.0]], normalize=False)
        run = tmp_path / "run"
        assert main(["train", "--dataset", str(data), "--method", "gradient-descent",
                     "--out", str(run)]) == 3
        err = capsys.readouterr().err
        rows = np.array([[6.0, 0.0, 1.0], [6.0, 1.0, 1.0]])  # the stage-1 features
        top = np.linalg.eigvalsh(rows.T @ rows / 2)[-1]
        assert err.startswith("error: data:") and str(data) in err
        assert "stage 1" in err and f"{top:.6g}" in err and "gradient-descent" in err
        assert not run.exists()
        assert main(["train", "--dataset", str(data), "--method", "tikhonov",
                     "--out", str(run)]) == 0

    def test_report_on_all_zero_model_exits_three_naming_model(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        stages = tuple(StageModel(t=t, theta=np.zeros(4), lambda_selected=1.0, k_selected=1)
                       for t in (1, 2))
        model.write_text(model_json_text(ModelBundle(horizon=2, feature_dim=4,
                                                     filter_kind="cutoff", stages=stages)))
        run = tmp_path / "run"
        assert main(["report", "--model", str(model), "--out", str(run)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and str(model) in err
        assert "all coefficients are zero" in err
        assert not run.exists()

    def test_commands_in_one_process_share_the_parser_not_its_values(self, monkeypatch,
                                                                     tmp_path):
        seen = []
        for command in ("gen", "train"):
            monkeypatch.setattr(cli, f"cmd_{command}",
                                lambda cfg, *rest: seen.append((cfg, rest)))
        parser = cli._build_parser()
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_episodes": 3}))
        assert main(["gen", "--seed", "5", "--n", "7", "--config", str(config),
                     "--preset", "a2-interpretability", "--out", str(tmp_path / "a")]) == 0
        assert main(["train", "--dataset", "d", "--method", "ls",
                     "--out", str(tmp_path / "b")]) == 0
        assert main(["gen", "--out", str(tmp_path / "c")]) == 0
        assert cli._build_parser() is parser
        (gen_cfg, gen_rest), (train_cfg, train_rest), (bare_cfg, _) = seen
        assert (gen_cfg.seed, gen_cfg.n_trajectories, gen_cfg.n_episodes) == (5, 7, 3)
        assert gen_cfg.preset == "a2-interpretability" and gen_rest == (tmp_path / "a",)
        assert train_cfg == parse_config(overrides={"method": "ls"})
        assert bare_cfg == parse_config()
        assert train_rest == (Path("d"), tmp_path / "b")

    def test_missing_required_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_removed_jobs_flag_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--jobs", "2", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_failed_command_leaves_no_partial_outputs(self, tmp_path):
        cfg = write_small_config(tmp_path)
        out = tmp_path / "o"
        main(["train", "--config", str(cfg), "--dataset", str(tmp_path / "missing"),
              "--out", str(out)])
        assert not out.exists() or not any(out.iterdir())


def plain_trace_text(reports) -> str:
    """trace.json as ``json.dumps`` writes the plain record of each report."""
    return json.dumps({"version": 1, "stages": [
        {"t": r.stage, "ks": r.ks.tolist(), "lambdas": r.lambdas.tolist(),
         "diff_norms": r.diff_norms.tolist(), "thresholds": r.thresholds.tolist(),
         "phi_next": r.phi_next, "selected_k": r.selected_k,
         "selected_lambda": r.selected_lambda}
        for r in reports]}) + "\n"


class TestTraceText:
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("env", [A1_ENV, A2_ENV])
    def test_trace_is_the_json_of_the_plain_records(self, env, masked):
        # the scan grid's ks and lambdas, which every report of a train
        # shares read-only, are formatted once, to the same bytes
        ds = build_world(env, 0, 100, 0.5).train
        mask = None
        if masked:
            mask = np.ones(ds.feature_dim)
            mask[::3] = 0.0
        for method in METHODS:
            _, reports = train(ds, method, spectra=None if mask is None else
                               stage_spectra(ds, mask))
            assert cli._trace_text(reports) == plain_trace_text(reports), method
            if method in ("ls", "lasso"):
                assert cli._trace_text(reports) == '{"version": 1, "stages": []}\n'
                continue
            assert len(reports) == ds.horizon
            for r in reports:
                assert r.ks is reports[0].ks and r.lambdas is reports[0].lambdas
                assert not (r.ks.flags.writeable or r.lambdas.flags.writeable)


class TestExitCodes:
    def test_linalg_failure_exits_four(self, tmp_path, capsys, monkeypatch):
        cfg = write_small_config(tmp_path)
        data, run = tmp_path / "data", tmp_path / "run"
        assert main(["gen", "--config", str(cfg), "--out", str(data)]) == 0

        def eigh(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--dataset", str(data),
                     "--out", str(run)]) == 4
        assert capsys.readouterr().err.startswith("error: numeric: ")
        assert not run.exists()

    def test_value_error_is_not_numeric(self, tmp_path, monkeypatch):
        def cmd_gen(cfg, out):
            raise ValueError("a defect, not a numeric failure")

        monkeypatch.setattr(cli, "cmd_gen", cmd_gen)
        with pytest.raises(ValueError, match="a defect"):
            main(["gen", "--out", str(tmp_path / "o")])


@pytest.fixture(scope="module")
def a1_run(tmp_path_factory):
    """An a1 world-0 dataset of 100 trajectories and its cutoff model."""
    root = tmp_path_factory.mktemp("a1")
    data, run = root / "data", root / "run"
    assert main(["gen", "--preset", "a1-performance", "--seed", "0", "--n", "100",
                 "--out", str(data)]) == 0
    assert main(["train", "--preset", "a1-performance", "--dataset", str(data),
                 "--method", "cutoff", "--out", str(run)]) == 0
    return data, run / "model.json"


class TestMisfitInputs:
    """Inputs that once exited 0, 1 or 4 on a1 files; each exits 3 naming the file."""

    @pytest.mark.parametrize("name,path,value", [
        ("model", ("filter",), "bogus"),
        ("model", ("config", "budget"), 2.5),
        ("model", ("config", "budget"), True),
        ("model", ("seed",), "x"),
        ("model", ("stages", 0, "k"), "x"),
        ("truth", ("version",), 7),
        ("truth", ("theta_star",), "all-true"),
        ("env", ("version",), "x"),
        ("env", ("spec", "horizon"), 5),
        ("env", ("spec", "d_user"), 3),
        ("env", ("spec", "noise_sd"), 1e308),
        ("env", ("spec", "reward_high"), 1e308),
        ("model", ("version",), 1),
    ])
    def test_exits_three_naming_file(self, a1_run, tmp_path, capsys, name, path, value):
        data, model = a1_run
        files = {"model": model, "truth": data / "ground_truth.json", "env": data / "env.json"}
        doc = json.loads(files[name].read_text())
        if value == "all-true":
            value = [[True] * len(row) for row in doc["theta_star"]]
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(mutated(doc, path, value)))
        common = ["--preset", "a1-performance", "--model", str(files["model"]),
                  "--dataset", str(data), "--env", str(files["env"]), "--n-episodes", "5",
                  "--out", str(tmp_path / "out")]
        commands = [["eval", "--truth", str(files["truth"])]]
        if name != "truth":
            commands.append(["report", "--topk", "4"])
        for command in commands:
            capsys.readouterr()
            assert main(command[:1] + common + command[1:]) == 3, command[0]
            err = capsys.readouterr().err
            assert err.startswith("error: data:") and str(files[name]) in err, err
        assert not (tmp_path / "out").exists()

    def test_config_noise_without_finite_reward_bound_exits_two(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["gen", "--preset", "a2-interpretability", "--n", "5",
                     "--config", str(write_small_config(tmp_path, env={"noise_sd": 1e308})),
                     "--out", str(out)]) == 2
        assert "noise_sd" in capsys.readouterr().err
        assert not out.exists()


def finite_outputs(out: Path) -> bool:
    """Whether every number in the JSON and CSV files under ``out`` is finite."""
    for path in out.iterdir():
        text = path.read_text()
        if path.suffix == ".json":
            try:
                json.loads(text, parse_constant=lambda name: 1 / 0)
            except ZeroDivisionError:  # NaN, Infinity or -Infinity
                return False
            continue
        for cell in text.replace("\n", ",").split(","):
            try:
                if not math.isfinite(float(cell)):
                    return False
            except ValueError:
                pass
    return True


CENSUS_CONFIG = {"seed": 0, "n_trajectories": 20, "train_fraction": 0.5, "method": "cutoff",
                 "n_episodes": 5, "seeds": 1, "topk": [2],
                 "lasso_grid": [0.01, 0.1], "env": asdict(A2_ENV),
                 "adaptive": asdict(AdaptiveConfig())}


@pytest.fixture(scope="module")
def census_run(tmp_path_factory):
    """A config naming every key, its a2-sized dataset of 20 trajectories and
    their cutoff model."""
    root = tmp_path_factory.mktemp("census")
    config = root / "config.json"
    config.write_text(json.dumps(CENSUS_CONFIG))
    data, run = root / "data", root / "run"
    assert main(["gen", "--config", str(config), "--out", str(data)]) == 0
    assert main(["train", "--config", str(config), "--dataset", str(data),
                 "--out", str(run)]) == 0
    return root, config, data, run / "model.json"


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestInputCensus:
    """Each leaf of each JSON input the CLI reads (conftest.leaf_paths: every
    value, every array and its first element), set in turn to each of
    conftest.LEAF_MUTATIONS, and run through the commands that read it.  A
    run exits 0, 2 or 3, never 1 (a traceback) or 4 (numeric); a failing run
    names the file on stderr, or the key for a config; a passing run writes
    only finite numbers."""

    @pytest.mark.parametrize("name", ["config", "header", "line", "env", "truth", "model"])
    def test_every_mutation_exits_zero_two_or_three(self, census_run, capsys, name):
        root, config, data, model = census_run
        case, out = root / name, root / f"{name}-out"
        files = {"env": data / "env.json", "truth": data / "ground_truth.json",
                 "model": model}
        lines = (data / "trajectories.jsonl").read_text().splitlines(keepends=True)
        if name == "config":
            doc = CENSUS_CONFIG
        elif name == "header":
            doc = json.loads((data / "header.json").read_text())
        elif name == "line":
            doc = json.loads(lines[0])
        else:
            doc = json.loads(files[name].read_text())
        failures, runs = [], 0
        for path in leaf_paths(doc):
            for value in LEAF_MUTATIONS:
                text = json.dumps(mutated(doc, path, value))
                if name == "config":
                    (root / "mutated.json").write_text(text)
                    commands = [["gen", "--config", str(root / "mutated.json")],
                                ["train", "--config", str(root / "mutated.json"),
                                 "--dataset", str(data)]]
                    named = [key for key in path if isinstance(key, str)][-1]
                elif name in ("header", "line"):
                    case.mkdir(exist_ok=True)
                    header = text if name == "header" else (data / "header.json").read_text()
                    (case / "header.json").write_text(header)
                    (case / "trajectories.jsonl").write_text(
                        "".join(lines) if name == "header" else text + "\n" + "".join(lines[1:]))
                    commands = [["train", "--config", str(config), "--dataset", str(case)]]
                    named = str(case)  # the directory of both dataset files
                else:
                    named = root / f"mutated-{name}.json"
                    named.write_text(text)
                    paths = {**files, name: named}
                    commands = [["eval", "--config", str(config), "--model", str(paths["model"]),
                                 "--dataset", str(data), "--truth", str(paths["truth"]),
                                 "--env", str(paths["env"])]]
                    if name != "truth":
                        commands.append(["report", "--config", str(config),
                                         "--model", str(paths["model"]), "--dataset", str(data),
                                         "--env", str(paths["env"]), "--topk", "2,15"])
                    named = str(named)
                for argv in commands:
                    runs += 1
                    for stale in out.glob("*") if out.exists() else ():
                        stale.unlink()
                    try:
                        code = main(argv + ["--out", str(out)])
                    except Exception as exc:  # noqa: BLE001 - a traceback is exit 1
                        code = f"1 ({type(exc).__name__}: {exc})"
                    err = capsys.readouterr().err
                    if code not in (0, 2, 3):
                        failures.append((path, value, argv[0], code, err))
                    elif code != 0 and named not in err:
                        failures.append((path, value, argv[0], "unnamed", err))
                    elif code == 0 and not finite_outputs(out):
                        failures.append((path, value, argv[0], "non-finite output", ""))
                    if code != 0:
                        break
        assert runs >= 9 * len(list(leaf_paths(doc)))
        assert not failures, "\n".join(map(repr, failures[:20]))
