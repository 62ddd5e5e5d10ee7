import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sblq import data as data_mod
from sblq.data import (
    BatchDataset,
    candidate_scores,
    dataset_header_text,
    dataset_jsonl_text,
    empirical_covariance,
    feature_vector,
    load_dataset,
    split,
    stage_design,
)
from sblq.errors import DataError

from conftest import make_dataset, per_record_jsonl, reference_scores


def write_dataset(dataset, header_path, trajectories_path):
    """Write the header and trajectories files as ``sblq gen`` does."""
    Path(header_path).write_text(dataset_header_text(dataset))
    Path(trajectories_path).write_text(dataset_jsonl_text(dataset))


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


@st.composite
def scoring_cases(draw):
    """States (a strided view, as callers pass), a table, one theta or a
    stack, a 0/1 mask or none, and the normalize flag.  Coarse values make
    ties and all-zero rows common."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, n_actions = draw(st.integers(1, 7)), draw(st.integers(1, 6))
    d_s, d_a = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    d = d_s + d_a
    k = draw(st.sampled_from([None, 1, 2, 3]))
    if draw(st.booleans()):
        def values(*shape):
            return rng.choice([-1.0, 0.0, 0.0, 0.5, 1.0], size=shape)
    else:
        def values(*shape):
            return rng.standard_normal(shape)
    states = values(n, 2, d_s)[:, 1, :]
    table = values(n_actions, d_a)
    theta = values(d) if k is None else values(k, d)
    mask = rng.integers(0, 2, size=d).astype(float) if draw(st.booleans()) else None
    return states, table, theta, mask, draw(st.booleans())


class TestCandidateScores:
    @settings(max_examples=300, deadline=None)
    @given(case=scoring_cases())
    def test_matches_per_context_formula_bit_for_bit(self, case):
        states, table, theta, mask, normalize = case
        n, n_actions = len(states), len(table)
        thetas = theta.reshape(-1, theta.shape[-1])
        try:
            refs = [reference_scores(states, table, th, normalize, mask) for th in thetas]
        except ValueError:
            with pytest.raises(ValueError, match="all-zero"):
                candidate_scores(states, table, theta, normalize=normalize, mask=mask)
            return
        got = candidate_scores(states, table, theta, normalize=normalize, mask=mask)
        assert got.shape == theta.shape[:-1] + (n_actions, n)
        for scores, ref in zip(got.reshape(-1, n_actions, n), refs):
            assert scores.tobytes() == np.ascontiguousarray(ref.T).tobytes()
            assert np.array_equal(scores.max(axis=0), ref.max(axis=1))
            greedy = scores.argmax(axis=0)
            assert np.array_equal(greedy, ref.argmax(axis=1))
            # ties go to the lowest action index
            first_best = [np.flatnonzero(col == col.max())[0] for col in scores.T]
            assert np.array_equal(greedy, first_best)

    def test_all_zero_masked_row_raises(self):
        states = np.array([[1.0, 2.0], [0.5, 0.0]])
        table = np.array([[1.0], [0.0]])
        mask = np.array([0.0, 0.0, 1.0])
        theta = np.ones((2, 3))
        with pytest.raises(ValueError, match="all-zero"):
            candidate_scores(states, table, theta, mask=mask)
        raw = candidate_scores(states, table, theta, normalize=False, mask=mask)
        np.testing.assert_array_equal(raw, [[[1.0, 1.0], [0.0, 0.0]]] * 2)

    @pytest.mark.parametrize("shape", [(4,), (2, 4), (1, 2, 3), ()])
    def test_rejects_theta_of_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="theta has shape"):
            candidate_scores(np.ones((2, 2)), np.ones((3, 1)), np.ones(shape))


def one_stage(states, actions, rewards, table):
    """Horizon-1 dataset of one trajectory per row of ``states``."""
    return BatchDataset(states=np.array(states, dtype=float)[:, None, :],
                        actions=np.array(actions)[:, None],
                        rewards=np.array(rewards, dtype=float)[:, None],
                        action_table=np.array(table, dtype=float), reward_bound=1.0)


class TestStageDesign:
    def test_single_trajectory(self):
        ds = make_dataset(n=1, horizon=1)
        rows = stage_design(ds, 1)
        want = feature_vector(ds.states[0, 0], ds.action_table[ds.actions[0, 0]])
        np.testing.assert_allclose(rows[0], want)
        assert not rows.flags.writeable

    def test_identical_rows_for_identical_state_action(self):
        ds = one_stage([[0.5, -1.0], [0.5, -1.0]], [0, 0], [0.1, -0.3], [[1.0, 2.0]])
        rows = stage_design(ds, 1)
        np.testing.assert_allclose(rows[0], rows[1])

    def test_rows_match_per_trajectory_recomputation(self):
        ds = make_dataset(n=7, horizon=4, seed=3)
        for t in (1, 2, 4):
            rows = stage_design(ds, t)
            for i in range(len(ds)):
                want = feature_vector(ds.states[i, t - 1], ds.action_table[ds.actions[i, t - 1]])
                np.testing.assert_allclose(rows[i], want, atol=1e-12)

    def test_row_norms_are_unit(self):
        rows = stage_design(make_dataset(n=20, seed=9), 2)
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-10)

    def test_stage_out_of_range(self, small_dataset):
        with pytest.raises(IndexError):
            stage_design(small_dataset, 0)
        with pytest.raises(IndexError):
            stage_design(small_dataset, small_dataset.horizon + 1)


class TestEmpiricalCovariance:
    def test_single_basis_row(self):
        ds = one_stage([[1.0, 0.0]], [0], [0.0], [[0.0]])
        cov = empirical_covariance(stage_design(ds, 1))
        want = np.zeros((3, 3))
        want[0, 0] = 1.0
        np.testing.assert_allclose(cov, want, atol=1e-12)

    def test_two_orthogonal_rows(self):
        ds = one_stage([[1.0, 0.0], [0.0, 1.0]], [0, 0], [0.0, 0.0], [[0.0]])
        cov = empirical_covariance(stage_design(ds, 1))
        np.testing.assert_allclose(cov, np.diag([0.5, 0.5, 0.0]), atol=1e-12)

    def test_matches_double_loop_oracle(self, rng):
        rows = rng.standard_normal((20, 6))
        got = empirical_covariance(rows)
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
        write_dataset(ds, tmp_path / "h.json", tmp_path / "t.jsonl")
        back = load_dataset(tmp_path / "h.json", tmp_path / "t.jsonl")
        assert len(back) == 1 and back.horizon == 1

    def test_round_trip_identity(self, tmp_path):
        ds = make_dataset(n=5, horizon=3, seed=11)
        write_dataset(ds, tmp_path / "h.json", tmp_path / "t.jsonl")
        back = load_dataset(tmp_path / "h.json", tmp_path / "t.jsonl")
        np.testing.assert_array_equal(back.states, ds.states)
        np.testing.assert_array_equal(back.actions, ds.actions)
        np.testing.assert_array_equal(back.rewards, ds.rewards)
        np.testing.assert_array_equal(back.action_table, ds.action_table)
        assert back.reward_bound == ds.reward_bound
        assert back.normalize == ds.normalize

    def test_wrong_reward_length_names_line(self, tmp_path):
        ds = make_dataset(n=2, horizon=2)
        write_dataset(ds, tmp_path / "h.json", tmp_path / "t.jsonl")
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
        pytest.param('{"states": [[' + str(10**400) + ', 0.0, 0.0, 0.0]], "actions": [0], '
                     '"rewards": [0.0]}', id="huge-int"),
        pytest.param('{"states": [[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]], '
                     '"actions": [0, 0], "rewards": [0.0, 0.0]}', id="wrong-horizon"),
        pytest.param('{"states": [[NaN, 0.0, 0.0, 0.0]], "actions": [0], "rewards": [0.0]}',
                     id="nan-state"),
        pytest.param('{"states": [[1.0, 0.0, 0.0, 0.0]], "actions": [0], "rewards": [99.0]}',
                     id="reward-over-bound"),
        pytest.param('{"states": [[1.0, 0.0, 0.0, 0.0]], "actions": [999], "rewards": [0.0]}',
                     id="action-outside-table"),
    ])
    def test_malformed_line_is_data_error_naming_line(self, tmp_path, line):
        write_dataset(make_dataset(n=2, horizon=1), tmp_path / "h.json", tmp_path / "t.jsonl")
        lines = (tmp_path / "t.jsonl").read_text().splitlines()
        (tmp_path / "t.jsonl").write_text(f"{lines[0]}\n{line}\n")
        with pytest.raises(DataError, match=":2: "):
            load_dataset(tmp_path / "h.json", tmp_path / "t.jsonl")

    def test_value_error_names_first_bad_line_counting_blank_lines(self, tmp_path):
        write_dataset(make_dataset(n=5, horizon=1), tmp_path / "h.json", tmp_path / "t.jsonl")
        lines = (tmp_path / "t.jsonl").read_text().splitlines()
        bad_reward, bad_action = (json.loads(line) for line in lines[2:4])
        bad_reward["rewards"] = [99.0]
        bad_action["actions"] = [999]
        lines[2:4] = ["", json.dumps(bad_reward), json.dumps(bad_action)]
        (tmp_path / "t.jsonl").write_text("\n".join(lines) + "\n")
        # the action check runs before the reward check, but line 4 comes first
        with pytest.raises(DataError, match=r"t\.jsonl:4: reward magnitude 99 exceeds"):
            load_dataset(tmp_path / "h.json", tmp_path / "t.jsonl")

    def test_nonfinite_action_table_names_header(self, tmp_path):
        write_dataset(make_dataset(n=1), tmp_path / "h.json", tmp_path / "t.jsonl")
        header = json.loads((tmp_path / "h.json").read_text())
        header["action_table"][0][0] = float("inf")
        (tmp_path / "h.json").write_text(json.dumps(header))
        with pytest.raises(DataError, match=r"h\.json: field 'action_table' has non-finite"):
            load_dataset(tmp_path / "h.json", tmp_path / "t.jsonl")

    def test_unknown_header_field_rejected(self, tmp_path):
        ds = make_dataset(n=1)
        write_dataset(ds, tmp_path / "h.json", tmp_path / "t.jsonl")
        header = json.loads((tmp_path / "h.json").read_text())
        header["discount"] = 0.9
        (tmp_path / "h.json").write_text(json.dumps(header))
        with pytest.raises(DataError, match="discount"):
            load_dataset(tmp_path / "h.json", tmp_path / "t.jsonl")

    def test_reward_bound_violation_rejected(self):
        with pytest.raises(DataError, match="bound"):
            one_stage([[1.0]], [0], [5.0], [[1.0]])

    def test_bad_action_id_rejected(self):
        with pytest.raises(DataError, match="action"):
            one_stage([[1.0]], [3], [0.0], [[1.0]])

    def test_nonfinite_state_rejected(self):
        with pytest.raises(DataError, match="finite"):
            one_stage([[np.nan]], [0], [0.0], [[1.0]])


# -0.0, two subnormals, 1e16 (written "1e+16") and integer-valued floats
EDGE_FLOATS = [0.0, -0.0, 5e-324, 1.5e-310, 1e16, 1.0, -2.0, 3.0, 0.1, 1e-7, -1e300]
reals = st.one_of(st.sampled_from(EDGE_FLOATS),
                  st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def datasets(draw):
    """Small datasets whose state rows are all distinct or drawn from a small
    pool, so rows repeat within and across trajectories."""
    n, horizon = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    d_s, n_actions = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    n_rows = n * horizon
    pool_size = n_rows if draw(st.booleans()) else draw(st.integers(1, n_rows))
    pool = draw(st.lists(st.lists(reals, min_size=d_s, max_size=d_s),
                         min_size=pool_size, max_size=pool_size))
    if pool_size == n_rows:
        index = list(range(n_rows))
    else:
        index = draw(st.lists(st.integers(0, pool_size - 1), min_size=n_rows, max_size=n_rows))
    rewards = np.array(draw(st.lists(reals, min_size=n_rows, max_size=n_rows)))
    actions = draw(st.lists(st.integers(0, n_actions - 1), min_size=n_rows, max_size=n_rows))
    return BatchDataset(
        states=np.array(pool)[index].reshape(n, horizon, d_s),
        actions=np.array(actions, dtype=np.int64).reshape(n, horizon),
        rewards=rewards.reshape(n, horizon),
        action_table=np.arange(2.0 * n_actions).reshape(n_actions, 2),
        reward_bound=float(np.max(np.abs(rewards))))


def rows_dataset(kind, n=60, horizon=20, d_s=3):
    """n trajectories whose state rows are all distinct, all drawn from a
    10-row pool, or pooled for the first 10 trajectories and distinct after."""
    rng = np.random.default_rng(0)
    states = rng.standard_normal((n * horizon, d_s))
    pooled = {"distinct": 0, "pooled-then-distinct": 10 * horizon, "pooled": n * horizon}[kind]
    states[:pooled] = states[rng.integers(0, 10, size=pooled)]
    return BatchDataset(states=states.reshape(n, horizon, d_s),
                        actions=rng.integers(0, 3, size=(n, horizon)),
                        rewards=rng.uniform(-1.0, 1.0, size=(n, horizon)),
                        action_table=np.eye(3), reward_bound=1.0)


def bits(dataset):
    return (dataset.states.shape, dataset.states.tobytes(), dataset.actions.tobytes(),
            dataset.rewards.tobytes(), dataset.action_table.tobytes())


def load_outcome(header, trajectories):
    """The loaded arrays' bits, or the error's type and message."""
    try:
        return bits(load_dataset(header, trajectories))
    except DataError as exc:
        return f"{type(exc).__name__}: {exc}"


def mutated_line(kind, rec):
    """``rec`` written in a layout other than the writer's, or changed so it
    no longer holds d_s floats per state row."""
    states = rec["states"]

    def with_first_row(row):
        return json.dumps({**rec, "states": [row] + states[1:]})

    if kind == "reordered":
        return json.dumps({"rewards": rec["rewards"], "actions": rec["actions"],
                           "states": states})
    if kind == "compact":
        return json.dumps(rec, separators=(",", ":"))
    if kind == "spaced-row":
        return json.dumps(rec).replace(", ", ",  ", 1)
    if kind == "spaced-rows":
        return json.dumps(rec).replace("], [", "],  [")
    if kind == "duplicate-states":
        return json.dumps(rec)[:-1] + ', "states": ' + json.dumps(states[::-1]) + "}"
    if kind == "duplicate-states-misshapen":
        return json.dumps(rec)[:-1] + ', "states": [[1.0]]}'
    if kind == "bool":
        return with_first_row([True] + states[0][1:])
    if kind == "int":
        return with_first_row([7] + states[0][1:])
    if kind == "int-rows":
        return json.dumps({**rec, "states": [[round(v) for v in row] for row in states]})
    if kind == "huge-int":
        return with_first_row([10**400] + states[0][1:])
    if kind == "string":
        return with_first_row(["x"] + states[0][1:])
    if kind == "nested":
        return with_first_row([[1.0]] + states[0][1:])
    if kind == "ragged":
        return with_first_row(states[0][:-1])
    if kind == "long-row":
        return with_first_row(states[0] + [1.0])
    if kind == "long-rows":
        return json.dumps({**rec, "states": [row + [1.0] for row in states]})
    if kind == "nan":
        return with_first_row([float("nan")] + states[0][1:])
    if kind == "extra-key":
        return json.dumps({**rec, "note": 1})
    if kind == "float-actions":
        return json.dumps({**rec, "actions": [float(a) for a in rec["actions"]]})
    if kind == "truncated":
        return json.dumps(rec)[:-1]
    raise AssertionError(kind)


MUTATIONS = ["reordered", "compact", "spaced-row", "spaced-rows", "duplicate-states",
             "duplicate-states-misshapen", "bool", "int", "int-rows", "string", "nested", "ragged",
             "long-row", "long-rows", "huge-int", "nan", "extra-key", "float-actions", "truncated"]


class TestJsonlIO:
    @settings(max_examples=60, deadline=None)
    @given(dataset=datasets())
    def test_writer_matches_per_record_dumps(self, dataset):
        assert dataset_jsonl_text(dataset) == per_record_jsonl(dataset)

    @settings(max_examples=60, deadline=None)
    @given(dataset=datasets())
    def test_round_trip_is_bit_for_bit(self, dataset):
        with tempfile.TemporaryDirectory() as tmp:
            header, trajectories = Path(tmp) / "h.json", Path(tmp) / "t.jsonl"
            write_dataset(dataset, header, trajectories)
            back = load_dataset(header, trajectories)
        assert bits(back) == bits(dataset) and back.reward_bound == dataset.reward_bound

    @settings(max_examples=30, deadline=None)
    @given(dataset=datasets())
    def test_writer_lines_parse_each_distinct_row_once(self, dataset):
        parse = data_mod._RecordParser(dataset.state_dim)
        for line in dataset_jsonl_text(dataset).splitlines():
            rec = parse(line)
            want = json.loads(line)
            assert rec.keys() == want.keys()
            assert rec["states"].tobytes() == np.array(want["states"]).tobytes()
            assert rec["actions"] == want["actions"] and rec["rewards"] == want["rewards"]
        distinct = {json.dumps(row.tolist()) for row in dataset.states.reshape(-1, dataset.state_dim)}
        assert len(parse.rows) == len(distinct)

    @pytest.mark.parametrize("kind", ["distinct", "pooled-then-distinct", "pooled"])
    def test_row_memo_kept_only_while_rows_repeat(self, kind):
        dataset = rows_dataset(kind)
        text = dataset_jsonl_text(dataset)
        assert text == per_record_jsonl(dataset)
        parse = data_mod._RecordParser(dataset.state_dim)
        kept = []
        for line in text.splitlines():
            got, want = parse(line)["states"], json.loads(line)["states"]
            assert np.array(got).tobytes() == np.array(want).tobytes()
            kept.append(parse.rows is not None)
        # the route ends once new rows outnumber both repeated ones and 512
        assert kept == {"distinct": [True] * 25 + [False] * 35,
                        "pooled-then-distinct": [True] * 35 + [False] * 25,
                        "pooled": [True] * 60}[kind]
        with tempfile.TemporaryDirectory() as tmp:
            header, trajectories = Path(tmp) / "h.json", Path(tmp) / "t.jsonl"
            write_dataset(dataset, header, trajectories)
            assert bits(load_dataset(header, trajectories)) == bits(dataset)

    def test_integer_rows_keep_the_row_memo(self):
        dataset = rows_dataset("pooled")
        lines = []
        for rec in map(json.loads, dataset_jsonl_text(dataset).splitlines()):
            rec["states"] = [[round(v * 4) for v in row] for row in rec["states"]]
            lines.append(json.dumps(rec))  # still in the writer's layout
        parse = data_mod._RecordParser(dataset.state_dim)
        for line in lines:
            want = np.array(json.loads(line)["states"], dtype=float)
            assert parse(line)["states"].tobytes() == want.tobytes()
        assert parse.rows is not None and len(parse.rows) == 10

    @pytest.mark.parametrize("kind", ["compact", "long-rows"])
    def test_line_the_layout_cannot_take_ends_the_row_memo(self, kind):
        dataset = rows_dataset("pooled")
        lines = dataset_jsonl_text(dataset).splitlines()
        lines[1] = mutated_line(kind, json.loads(lines[1]))
        parse = data_mod._RecordParser(dataset.state_dim)
        parse(lines[0])
        assert parse.rows is not None
        for line in lines[1:]:
            assert parse(line) == json.loads(line)
        assert parse.rows is None

    @settings(max_examples=120, deadline=None)
    @given(dataset=datasets(), kind=st.sampled_from(MUTATIONS), data=st.data())
    def test_other_layouts_read_as_json_loads(self, dataset, kind, data):
        lines = dataset_jsonl_text(dataset).splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i] = mutated_line(kind, json.loads(lines[i]))
        with tempfile.TemporaryDirectory() as tmp:
            header, trajectories = Path(tmp) / "h.json", Path(tmp) / "t.jsonl"
            write_dataset(dataset, header, trajectories)
            trajectories.write_text("\n".join(lines) + "\n")
            got = load_outcome(header, trajectories)
            with mock.patch.object(data_mod, "_RecordParser", lambda d_s: json.loads):
                want = load_outcome(header, trajectories)
        assert got == want


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
