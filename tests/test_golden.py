"""The refactor gate: a small matrix of trained models and their ``eval
--truth`` metrics, two ``report --topk`` curves run through the CLI's files,
and the rows of one ``compare``, against the numbers in tests/golden.json.

Every stage must select the recorded (lambda, k), every compare row must
name the recorded method and seed in the recorded order, and every theta and
metric must match within ``GOLDEN_RTOL``: round-off from a different order
of the same sums passes, a changed model does not.
``tests/record_golden.py`` re-records the file.
"""
import json

import numpy as np

from record_golden import GOLDEN_PATH, golden_values

# relative to a stage's largest recorded |theta| for theta, to each value for
# a metric; the stage fits move by about 1e-10 relative when only their
# round-off changes
GOLDEN_RTOL = 1e-8
COMPARE_COLUMNS = ("parameter_gap", "policy_gap", "reward")


def assert_close(got, want, what):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, what
    scale = np.max(np.abs(want), initial=0.0)
    assert np.all(np.abs(got - want) <= GOLDEN_RTOL * scale), what


def test_models_and_metrics_match_the_recorded_ones():
    golden = json.loads(GOLDEN_PATH.read_text())["cases"]
    got = golden_values()
    assert sorted(got) == sorted(golden)
    for key, want in golden.items():
        if key.endswith("/topk"):
            assert sorted(got[key]) == sorted(want), key
            for k, reward in want.items():
                assert_close(got[key][k], reward, f"{key} k = {k}")
            continue
        if key.endswith("/compare"):
            assert [row[:2] for row in got[key]] == [row[:2] for row in want], key
            for g, w in zip(got[key], want):
                for name, g_value, w_value in zip(COMPARE_COLUMNS, g[2:], w[2:], strict=True):
                    assert_close(g_value, w_value, f"{key} {w[0]} {w[1]} {name}")
            continue
        stages = got[key]["stages"]
        assert [(s["lambda"], s["k"]) for s in stages] == [
            (s["lambda"], s["k"]) for s in want["stages"]], key
        for t, (g, w) in enumerate(zip(stages, want["stages"]), start=1):
            assert_close(g["theta"], w["theta"], f"{key} stage {t} theta")
        metrics, want_metrics = got[key]["metrics"], want["metrics"]
        for name in ("parameter_gap", "policy_gap", "cumulative_reward"):
            assert_close(metrics[name], want_metrics[name], f"{key} {name}")
        for g, w in zip(metrics["per_stage"], want_metrics["per_stage"], strict=True):
            assert (g["t"], g["lambda"], g["k"]) == (w["t"], w["lambda"], w["k"]), key
            for name in ("theta_norm", "stage_gap"):
                assert_close(g[name], w[name], f"{key} stage {w['t']} {name}")
