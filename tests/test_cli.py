import json
import os

import numpy as np
import pytest

from sblq.cli import main
from sblq.config import CONFIG_SCHEMA, RunConfig, parse_config, validate_config
from sblq.data import load_dataset
from sblq.envs import A1_ENV, A2_ENV
from sblq.errors import ConfigError
from sblq.learner import default_config, load_model


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

    @pytest.mark.parametrize("flag", ["--model", "--truth", "--env"])
    def test_missing_input_file_exits_three(self, tmp_path, capsys, flag):
        cfg = write_small_config(tmp_path)
        data, run = tmp_path / "data", tmp_path / "run"
        main(["gen", "--config", str(cfg), "--seed", "2", "--out", str(data)])
        main(["train", "--config", str(cfg), "--seed", "2", "--dataset", str(data),
              "--method", "ls", "--out", str(run)])
        paths = {"--model": run / "model.json", "--truth": data / "ground_truth.json",
                 "--env": data / "env.json"}
        paths[flag] = tmp_path / "absent.json"
        capsys.readouterr()
        argv = ["eval", "--config", str(cfg), "--dataset", str(data), "--out", str(run)]
        for name, path in paths.items():
            argv += [name, str(path)]
        assert main(argv) == 3
        assert str(tmp_path / "absent.json") in capsys.readouterr().err
        assert not (run / "metrics.json").exists()

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
