import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sblq.data import (
    BatchDataset,
    Trajectory,
    empirical_covariance,
    feature_vector,
    load_dataset,
    save_dataset,
    split,
    stage_design,
)
from sblq.errors import DataError

from conftest import make_dataset


class TestFeatureVector:
    def test_concat_then_normalize(self):
        out = feature_vector([1.0, 0.0], [0.0, 0.0])
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0, 0.0])

    def test_three_four_five(self):
        out = feature_vector([3.0, 0.0], [4.0, 0.0])
        np.testing.assert_allclose(out, [0.6, 0.0, 0.8, 0.0])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            feature_vector([0.0, 0.0], [0.0])

    def test_unnormalized(self):
        out = feature_vector([3.0], [4.0], normalize=False)
        np.testing.assert_allclose(out, [3.0, 4.0])


class TestStageDesign:
    def test_single_trajectory(self):
        ds = make_dataset(n=1, horizon=1)
        design = stage_design(ds, 1)
        want = feature_vector(ds.states[0, 0], ds.action_table[ds.actions[0, 0]])
        np.testing.assert_allclose(design.rows[0], want)
        assert design.rewards[0] == ds.rewards[0, 0]

    def test_identical_rows_for_identical_state_action(self):
        table = np.array([[1.0, 2.0]])
        t1 = Trajectory(np.array([[0.5, -1.0]]), np.array([0]), np.array([0.1]))
        t2 = Trajectory(np.array([[0.5, -1.0]]), np.array([0]), np.array([-0.3]))
        ds = BatchDataset.from_trajectories([t1, t2], table, 1.0)
        design = stage_design(ds, 1)
        np.testing.assert_allclose(design.rows[0], design.rows[1])

    def test_rows_match_per_trajectory_recomputation(self):
        ds = make_dataset(n=7, horizon=4, seed=3)
        for t in (1, 2, 4):
            design = stage_design(ds, t)
            for i in range(len(ds)):
                traj = ds[i]
                want = feature_vector(traj.states[t - 1], ds.action_table[traj.actions[t - 1]])
                np.testing.assert_allclose(design.rows[i], want, atol=1e-12)

    def test_row_norms_are_unit(self):
        design = stage_design(make_dataset(n=20, seed=9), 2)
        np.testing.assert_allclose(np.linalg.norm(design.rows, axis=1), 1.0, atol=1e-10)

    def test_stage_out_of_range(self, small_dataset):
        with pytest.raises(IndexError):
            stage_design(small_dataset, 0)
        with pytest.raises(IndexError):
            stage_design(small_dataset, small_dataset.horizon + 1)


class TestEmpiricalCovariance:
    def test_single_basis_row(self):
        table = np.array([[0.0]])
        traj = Trajectory(np.array([[1.0, 0.0]]), np.array([0]), np.array([0.0]))
        ds = BatchDataset.from_trajectories([traj], table, 1.0)
        cov = empirical_covariance(stage_design(ds, 1))
        want = np.zeros((3, 3))
        want[0, 0] = 1.0
        np.testing.assert_allclose(cov, want, atol=1e-12)

    def test_two_orthogonal_rows(self):
        table = np.array([[0.0]])
        t1 = Trajectory(np.array([[1.0, 0.0]]), np.array([0]), np.array([0.0]))
        t2 = Trajectory(np.array([[0.0, 1.0]]), np.array([0]), np.array([0.0]))
        ds = BatchDataset.from_trajectories([t1, t2], table, 1.0)
        cov = empirical_covariance(stage_design(ds, 1))
        np.testing.assert_allclose(cov, np.diag([0.5, 0.5, 0.0]), atol=1e-12)

    def test_matches_double_loop_oracle(self, rng):
        rows = rng.standard_normal((20, 6))
        design = stage_design(make_dataset(n=1), 1)  # placeholder for type
        design = type(design)(stage=1, rows=rows, rewards=np.zeros(20))
        got = empirical_covariance(design)
        want = np.zeros((6, 6))
        for x in rows:  # naive summation oracle
            for a in range(6):
                for b in range(6):
                    want[a, b] += x[a] * x[b]
        want /= 20
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_eigenvalues_within_norm_bound(self):
        cov = empirical_covariance(stage_design(make_dataset(n=30, seed=4), 1))
        eig = np.linalg.eigvalsh(cov)
        assert eig[0] > -1e-12 and eig[-1] <= 1.0 + 1e-10


class TestSaveLoad:
    def test_minimal_pair(self, tmp_path):
        ds = make_dataset(n=1, horizon=1)
        save_dataset(ds, tmp_path / "h.json", tmp_path / "t.jsonl")
        back = load_dataset(tmp_path / "h.json", tmp_path / "t.jsonl")
        assert len(back) == 1 and back.horizon == 1

    def test_round_trip_identity(self, tmp_path):
        ds = make_dataset(n=5, horizon=3, seed=11)
        save_dataset(ds, tmp_path / "h.json", tmp_path / "t.jsonl")
        back = load_dataset(tmp_path / "h.json", tmp_path / "t.jsonl")
        np.testing.assert_array_equal(back.states, ds.states)
        np.testing.assert_array_equal(back.actions, ds.actions)
        np.testing.assert_array_equal(back.rewards, ds.rewards)
        np.testing.assert_array_equal(back.action_table, ds.action_table)
        assert back.reward_bound == ds.reward_bound
        assert back.normalize == ds.normalize

    def test_wrong_reward_length_names_line(self, tmp_path):
        ds = make_dataset(n=2, horizon=2)
        save_dataset(ds, tmp_path / "h.json", tmp_path / "t.jsonl")
        lines = (tmp_path / "t.jsonl").read_text().splitlines()
        rec = json.loads(lines[1])
        rec["rewards"] = rec["rewards"][:-1]
        lines[1] = json.dumps(rec)
        (tmp_path / "t.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=":2:.*rewards"):
            load_dataset(tmp_path / "h.json", tmp_path / "t.jsonl")

    @pytest.mark.parametrize("line", [
        pytest.param("5", id="number"),
        pytest.param('["states"]', id="array"),
        pytest.param('{"states": "abc", "actions": [0], "rewards": [0.0]}', id="string-states"),
        pytest.param('{"states": [[1.0], [2.0, 3.0]], "actions": [0], "rewards": [0.0]}',
                     id="ragged-states"),
    ])
    def test_malformed_line_is_data_error_naming_line(self, tmp_path, line):
        save_dataset(make_dataset(n=2, horizon=1), tmp_path / "h.json", tmp_path / "t.jsonl")
        lines = (tmp_path / "t.jsonl").read_text().splitlines()
        (tmp_path / "t.jsonl").write_text(f"{lines[0]}\n{line}\n")
        with pytest.raises(DataError, match=":2: "):
            load_dataset(tmp_path / "h.json", tmp_path / "t.jsonl")

    def test_unknown_header_field_rejected(self, tmp_path):
        ds = make_dataset(n=1)
        save_dataset(ds, tmp_path / "h.json", tmp_path / "t.jsonl")
        header = json.loads((tmp_path / "h.json").read_text())
        header["discount"] = 0.9
        (tmp_path / "h.json").write_text(json.dumps(header))
        with pytest.raises(DataError, match="discount"):
            load_dataset(tmp_path / "h.json", tmp_path / "t.jsonl")

    def test_reward_bound_violation_rejected(self):
        table = np.array([[1.0]])
        traj = Trajectory(np.array([[1.0]]), np.array([0]), np.array([5.0]))
        with pytest.raises(DataError, match="bound"):
            BatchDataset.from_trajectories([traj], table, reward_bound=1.0)

    def test_bad_action_id_rejected(self):
        table = np.array([[1.0]])
        traj = Trajectory(np.array([[1.0]]), np.array([3]), np.array([0.0]))
        with pytest.raises(DataError, match="action"):
            BatchDataset.from_trajectories([traj], table, reward_bound=1.0)

    def test_nonfinite_state_rejected(self):
        table = np.array([[1.0]])
        traj = Trajectory(np.array([[np.nan]]), np.array([0]), np.array([0.0]))
        with pytest.raises(DataError, match="finite"):
            BatchDataset.from_trajectories([traj], table, reward_bound=1.0)

    def test_horizon_mismatch_rejected(self):
        table = np.array([[1.0]])
        t1 = Trajectory(np.array([[1.0]]), np.array([0]), np.array([0.0]))
        t2 = Trajectory(np.array([[1.0], [2.0]]), np.array([0, 0]), np.array([0.0, 0.0]))
        with pytest.raises(DataError, match="horizon"):
            BatchDataset.from_trajectories([t1, t2], table, reward_bound=1.0)


class TestSplit:
    def test_even_split_sizes(self):
        ds = make_dataset(n=1000, horizon=1, d_s=2, d_a=1)
        train, test = split(ds, 0.5, seed=7)
        assert len(train) == 500 and len(test) == 500

    def test_deterministic(self):
        ds = make_dataset(n=40)
        a1, b1 = split(ds, 0.3, seed=5)
        a2, b2 = split(ds, 0.3, seed=5)
        np.testing.assert_array_equal(a1.states, a2.states)
        np.testing.assert_array_equal(b1.states, b2.states)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), frac=st.floats(0.2, 0.8))
    def test_partition(self, seed, frac):
        ds = make_dataset(n=12, horizon=2, seed=1)
        train, test = split(ds, frac, seed=seed)
        # identity via the (states, actions, rewards) triple per trajectory
        def keys(d):
            return {(d.states[i].tobytes(), d.actions[i].tobytes(), d.rewards[i].tobytes())
                    for i in range(len(d))}
        ks_train, ks_test, ks_all = keys(train), keys(test), keys(ds)
        assert ks_train | ks_test == ks_all
        assert not (ks_train & ks_test)
        assert len(train) + len(test) == len(ds)

    def test_degenerate_fraction_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            split(small_dataset, 1.0, seed=0)
        with pytest.raises(ValueError):
            split(small_dataset, 0.01, seed=0)
