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
    best_scores,
    candidate_scores,
    dataset_header_text,
    dataset_jsonl_text,
    feature_matrix,
    load_dataset,
    split,
)
from sblq.envs import A1_ENV, generate_trajectories, make_env
from sblq.errors import DataError
from sblq.learner import stage_spectra

from conftest import (LEAF_MUTATIONS, design_stage, leaf_paths, make_dataset, mutated,
                      per_record_jsonl, reference_features, reference_scores, stage_rows)


def write_dataset(dataset, header_path, trajectories_path):
    """Write the header and trajectories files as ``sblq gen`` does."""
    Path(header_path).write_text(dataset_header_text(dataset))
    Path(trajectories_path).write_text(dataset_jsonl_text(dataset))


class TestFeatureVector:
    """The simulator's feature map, one state and action per row."""

    def test_concat_then_normalize(self):
        out = feature_matrix([[1.0, 0.0]], [[0.0, 0.0]])
        np.testing.assert_allclose(out, [[1.0, 0.0, 0.0, 0.0]])

    def test_three_four_five(self):
        out = feature_matrix([[3.0, 0.0]], [[4.0, 0.0]])
        np.testing.assert_allclose(out, [[0.6, 0.0, 0.8, 0.0]])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            feature_matrix([[1.0, 0.0], [0.0, 0.0]], [[1.0], [0.0]])


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
        # one theta through candidate_scores, a stack through best_scores
        states, table, theta, mask, normalize = case
        n, n_actions = len(states), len(table)
        thetas = theta.reshape(-1, theta.shape[-1])
        try:
            refs = [reference_scores(states, table, th, normalize, mask) for th in thetas]
        except ValueError:
            with pytest.raises(ValueError, match="all-zero"):
                if theta.ndim == 1:
                    candidate_scores(states, table, theta, normalize=normalize, mask=mask)
                else:
                    best_scores(states, table, [(theta, mask)], normalize=normalize)
            return
        if theta.ndim == 2:
            [best] = best_scores(states, table, [(theta, mask)], normalize=normalize)
            assert best.shape == (len(theta), n)
            for row, ref in zip(best, refs):
                assert row.tobytes() == ref.max(axis=1).tobytes()
            return
        scores = candidate_scores(states, table, theta, normalize=normalize, mask=mask)
        [ref] = refs
        assert scores.shape == (n_actions, n)
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
        thetas = np.ones((2, 3))
        with pytest.raises(ValueError, match="all-zero"):
            candidate_scores(states, table, thetas[0], mask=mask)
        with pytest.raises(ValueError, match="all-zero"):
            best_scores(states, table, [(thetas, mask)])
        raw = candidate_scores(states, table, thetas[0], normalize=False, mask=mask)
        np.testing.assert_array_equal(raw, [[1.0, 1.0], [0.0, 0.0]])
        [best] = best_scores(states, table, [(thetas, mask)], normalize=False)
        np.testing.assert_array_equal(best, [[1.0, 1.0]] * 2)

    # (2, 3): a stack of thetas, which best_scores takes
    @pytest.mark.parametrize("shape", [(4,), (2, 4), (1, 2, 3), (), (2, 3)])
    def test_rejects_theta_of_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="theta has shape"):
            candidate_scores(np.ones((2, 2)), np.ones((3, 1)), np.ones(shape))


def one_stage(states, actions, rewards, table):
    """Horizon-1 dataset of one trajectory per row of ``states``."""
    return BatchDataset.from_states(states=np.array(states, dtype=float)[:, None, :],
                                    actions=np.array(actions)[:, None],
                                    rewards=np.array(rewards, dtype=float)[:, None],
                                    action_table=np.array(table, dtype=float), reward_bound=1.0)


class TestStageDesign:
    """A stage's features, gathered from its parts, are each trajectory's
    state and chosen action concatenated and unit-normalized."""

    def test_single_trajectory(self):
        ds = make_dataset(n=1, horizon=1)
        stage = stage_spectra(ds).stages[0]
        want = reference_features(ds.states[0, 0], ds.action_table[ds.actions[0, 0]])
        np.testing.assert_allclose(stage_rows(stage)[0], want)
        assert not any(arr.flags.writeable for arr in (
            stage.states, stage.table, stage.state_of, stage.action, stage.scale))

    def test_identical_rows_for_identical_state_action(self):
        ds = one_stage([[0.5, -1.0], [0.5, -1.0]], [0, 0], [0.1, -0.3], [[1.0, 2.0]])
        rows = stage_rows(stage_spectra(ds).stages[0])
        np.testing.assert_allclose(rows[0], rows[1])

    def test_rows_match_per_trajectory_recomputation(self):
        ds = make_dataset(n=7, horizon=4, seed=3)
        stages = stage_spectra(ds).stages
        for t in (1, 2, 4):
            rows = stage_rows(stages[t - 1])
            for i in range(len(ds)):
                want = reference_features(ds.states[i, t - 1],
                                          ds.action_table[ds.actions[i, t - 1]])
                np.testing.assert_allclose(rows[i], want, atol=1e-12)

    def test_row_norms_are_unit(self):
        rows = stage_rows(stage_spectra(make_dataset(n=20, seed=9)).stages[1])
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-10)

    def test_stage_out_of_range(self, small_dataset):
        with pytest.raises(IndexError):
            small_dataset.stage_states(0)
        with pytest.raises(IndexError):
            small_dataset.stage_states(small_dataset.horizon + 1)


class TestEmpiricalCovariance:
    """A stage's Sigma_hat, (1/n) sum_i x_i x_i^T (``Stage.gram``)."""

    def test_single_basis_row(self):
        ds = one_stage([[1.0, 0.0]], [0], [0.0], [[0.0]])
        cov = stage_spectra(ds).stages[0].gram()
        want = np.zeros((3, 3))
        want[0, 0] = 1.0
        np.testing.assert_allclose(cov, want, atol=1e-12)

    def test_two_orthogonal_rows(self):
        ds = one_stage([[1.0, 0.0], [0.0, 1.0]], [0, 0], [0.0, 0.0], [[0.0]])
        cov = stage_spectra(ds).stages[0].gram()
        np.testing.assert_allclose(cov, np.diag([0.5, 0.5, 0.0]), atol=1e-12)

    def test_matches_double_loop_oracle(self, rng):
        rows = rng.standard_normal((20, 6))
        got = design_stage(rows).gram()
        want = np.zeros((6, 6))
        for x in rows:  # naive summation oracle
            for a in range(6):
                for b in range(6):
                    want[a, b] += x[a] * x[b]
        want /= 20
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_eigenvalues_within_norm_bound(self):
        cov = stage_spectra(make_dataset(n=30, seed=4)).stages[0].gram()
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
        state_rows=np.array(pool).reshape(pool_size, d_s),
        state_index=np.array(index).reshape(n, horizon),
        actions=np.array(actions, dtype=np.int64).reshape(n, horizon),
        rewards=rewards.reshape(n, horizon),
        action_table=np.arange(2.0 * n_actions).reshape(n_actions, 2),
        reward_bound=float(np.max(np.abs(rewards))))


def rows_dataset(kind, n=60, horizon=20, d_s=3, pool=10):
    """n trajectories whose state rows are all distinct, all drawn from a
    pool of ``pool`` rows, or pooled for the first 10 trajectories and
    distinct after; no number is shared by two distinct rows.  Each distinct
    row is held once, as in a generated dataset."""
    rng = np.random.default_rng(0)
    states = rng.standard_normal((n * horizon, d_s))
    pooled = {"distinct": 0, "pooled-then-distinct": 10 * horizon, "pooled": n * horizon}[kind]
    index = np.arange(n * horizon)
    index[:pooled] = rng.integers(0, pool, size=pooled)
    used, index = np.unique(index, return_inverse=True)
    return BatchDataset(state_rows=states[used], state_index=index.reshape(n, horizon),
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
    if kind == "comma-number":  # a row of d_s texts, one of them holding two numbers
        return json.dumps(rec).replace(", ", ",7, ", 1)
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


MUTATIONS = ["reordered", "compact", "spaced-row", "spaced-rows", "comma-number", "duplicate-states",
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
        # each distinct row text is split once and each distinct number text
        # kept once, and the one-pass arrays are those of per-line json.loads
        d_s = dataset.state_dim
        text = dataset_jsonl_text(dataset)
        read = data_mod._layout_texts(iter(text.splitlines(keepends=True)),
                                      dataset.horizon, d_s)
        assert read is not None
        numbers, row_numbers = read[:2]
        rows = dict.fromkeys(json.dumps(row)[1:-1]
                             for row in dataset.states.reshape(-1, d_s).tolist())
        assert len(row_numbers) == len(rows) * d_s
        assert sorted(numbers) == sorted({v for row in rows for v in row.split(", ")})
        with tempfile.TemporaryDirectory() as tmp:
            header, trajectories = Path(tmp) / "h.json", Path(tmp) / "t.jsonl"
            write_dataset(dataset, header, trajectories)
            table, index, *got = data_mod._read_writer_layout(trajectories, dataset.horizon, d_s)
            want, _ = data_mod._read_lines(trajectories, dataset.horizon, d_s)
        assert len(table) == len(rows)  # one state row per distinct row text
        got.insert(0, table[index])
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert [a.shape for a in got] == [a.shape for a in want]

    @pytest.mark.parametrize("kind", ["distinct", "pooled-then-distinct", "pooled"])
    def test_row_memo_kept_only_while_rows_repeat(self, kind):
        dataset = rows_dataset(kind)
        text = dataset_jsonl_text(dataset)
        assert text == per_record_jsonl(dataset)
        consumed = []

        def lines():
            for line in text.splitlines(keepends=True):
                consumed.append(line)
                yield line

        read = data_mod._layout_texts(lines(), dataset.horizon, dataset.state_dim)
        # the pass ends once new rows outnumber both 512 and the repeated ones
        assert (read is not None, len(consumed)) == {"distinct": (False, 26),
                                                      "pooled-then-distinct": (False, 36),
                                                      "pooled": (True, 60)}[kind]
        with tempfile.TemporaryDirectory() as tmp:
            header, trajectories = Path(tmp) / "h.json", Path(tmp) / "t.jsonl"
            write_dataset(dataset, header, trajectories)
            assert bits(load_dataset(header, trajectories)) == bits(dataset)

    @pytest.mark.parametrize("pool", [30, 300])
    def test_pooled_rows_of_distinct_numbers_are_read_in_one_pass(self, pool, tmp_path):
        # rows that repeat while no two of them share a number: the rule on
        # rows keeps the pass, and each of the pool's numbers is kept once
        dataset = rows_dataset("pooled", n=100, d_s=48, pool=pool)
        with mock.patch.object(data_mod.json, "dumps", wraps=json.dumps) as dumps:
            write_dataset(dataset, tmp_path / "h.json", tmp_path / "t.jsonl")
        # no number repeats, so the writer formats the distinct rows whole
        assert isinstance(dumps.call_args_list[1].args[0][0], list)
        lines = (tmp_path / "t.jsonl").read_text().splitlines(keepends=True)
        assert "".join(lines) == per_record_jsonl(dataset)
        read = data_mod._layout_texts(iter(lines), dataset.horizon, dataset.state_dim)
        rows = np.unique(dataset.states.reshape(-1, dataset.state_dim), axis=0)
        assert read is not None and len(read[0]) == len(rows) * dataset.state_dim
        with mock.patch.object(data_mod.json, "loads", wraps=json.loads) as loads:
            back = load_dataset(tmp_path / "h.json", tmp_path / "t.jsonl")
        assert loads.call_count == 4  # the header, numbers, actions and rewards
        assert bits(back) == bits(dataset)

    @pytest.mark.parametrize("blank", ["\n", "  \n", "\n\n"])
    def test_blank_lines_keep_the_one_pass(self, blank, tmp_path):
        dataset = rows_dataset("pooled")
        write_dataset(dataset, tmp_path / "h.json", tmp_path / "t.jsonl")
        lines = (tmp_path / "t.jsonl").read_text().splitlines(keepends=True)
        lines.insert(7, blank)
        (tmp_path / "t.jsonl").write_text("".join(lines) + blank)
        with mock.patch.object(data_mod.json, "loads", wraps=json.loads) as loads:
            back = load_dataset(tmp_path / "h.json", tmp_path / "t.jsonl")
        assert loads.call_count == 4
        assert bits(back) == bits(dataset)
        (tmp_path / "t.jsonl").write_text(blank * 2)
        assert data_mod._read_writer_layout(tmp_path / "t.jsonl", 20, 3) is None
        with pytest.raises(DataError, match="no trajectories"):
            load_dataset(tmp_path / "h.json", tmp_path / "t.jsonl")

    def test_integer_rows_keep_the_row_memo(self):
        dataset = rows_dataset("pooled")
        lines = []
        for rec in map(json.loads, dataset_jsonl_text(dataset).splitlines()):
            rec["states"] = [[round(v * 4) for v in row] for row in rec["states"]]
            lines.append(json.dumps(rec))  # still in the writer's layout
        read = data_mod._layout_texts(iter(lines), dataset.horizon, dataset.state_dim)
        assert read is not None and len(read[1]) == 10 * dataset.state_dim
        with tempfile.TemporaryDirectory() as tmp:
            trajectories = Path(tmp) / "t.jsonl"
            trajectories.write_text("\n".join(lines) + "\n")
            rows, index = data_mod._read_writer_layout(trajectories, dataset.horizon,
                                                       dataset.state_dim)[:2]
        states = rows[index]
        want = np.array([json.loads(line)["states"] for line in lines], dtype=float)
        assert states.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["compact", "long-rows"])
    def test_line_the_layout_cannot_take_ends_the_row_memo(self, kind):
        dataset = rows_dataset("pooled")
        lines = dataset_jsonl_text(dataset).splitlines()
        lines[1] = mutated_line(kind, json.loads(lines[1]))
        consumed = []

        def counted():
            for line in lines:
                consumed.append(line)
                yield line

        assert data_mod._layout_texts(counted(), dataset.horizon, dataset.state_dim) is None
        assert len(consumed) == 2
        with tempfile.TemporaryDirectory() as tmp:
            header, trajectories = Path(tmp) / "h.json", Path(tmp) / "t.jsonl"
            write_dataset(dataset, header, trajectories)
            trajectories.write_text("\n".join(lines) + "\n")
            got = load_outcome(header, trajectories)
            with mock.patch.object(data_mod, "_read_writer_layout", lambda *args: None):
                assert got == load_outcome(header, trajectories)
        if kind == "compact":
            assert got == bits(dataset)

    @settings(max_examples=120, deadline=None)
    @given(dataset=datasets(), kind=st.sampled_from(MUTATIONS + ["leaf"]), data=st.data())
    def test_other_layouts_read_as_json_loads(self, dataset, kind, data):
        lines = dataset_jsonl_text(dataset).splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        rec = json.loads(lines[i])
        if kind == "leaf":  # a mutation of the input census (tests/test_cli.py)
            path = data.draw(st.sampled_from(list(leaf_paths(rec))))
            lines[i] = json.dumps(mutated(rec, path, data.draw(st.sampled_from(LEAF_MUTATIONS))))
        else:
            lines[i] = mutated_line(kind, rec)
        with tempfile.TemporaryDirectory() as tmp:
            header, trajectories = Path(tmp) / "h.json", Path(tmp) / "t.jsonl"
            write_dataset(dataset, header, trajectories)
            trajectories.write_text("\n".join(lines) + "\n")
            got = load_outcome(header, trajectories)
            # per-line json.loads of every line
            with mock.patch.object(data_mod, "_read_writer_layout", lambda *args: None):
                want = load_outcome(header, trajectories)
        assert got == want

    @pytest.mark.parametrize("rows", ["first", "every"])
    def test_nested_values_in_rows_of_one_number_read_as_json_loads(self, rows, tmp_path):
        # at d_s = 1 a row text "[x]" holds no number separator, so only the
        # parsed values show that it is not one number
        dataset = make_dataset(n=3, horizon=2, d_s=1)
        write_dataset(dataset, tmp_path / "h.json", tmp_path / "t.jsonl")
        lines = []
        for i, rec in enumerate(map(json.loads, dataset_jsonl_text(dataset).splitlines())):
            if rows == "every" or i == 0:
                rec["states"] = [[row] for row in rec["states"]]
            lines.append(json.dumps(rec))
        (tmp_path / "t.jsonl").write_text("\n".join(lines) + "\n")
        got = load_outcome(tmp_path / "h.json", tmp_path / "t.jsonl")
        with mock.patch.object(data_mod, "_read_writer_layout", lambda *args: None):
            assert got == load_outcome(tmp_path / "h.json", tmp_path / "t.jsonl")
        assert "field 'states' has shape (2, 1, 1)" in got

    def test_edge_numbers_keep_their_bits_through_the_memos(self, tmp_path):
        # -0.0 and 0.0 in one file, subnormals, 1e16 and integer-valued floats,
        # each in rows that repeat
        rows = np.array([EDGE_FLOATS[i:i + 4] for i in range(len(EDGE_FLOATS) - 3)])
        states = rows[np.arange(3 * 4) % len(rows)].reshape(3, 4, 4)
        dataset = BatchDataset.from_states(states=states,
                                           actions=np.zeros((3, 4), dtype=np.int64),
                                           rewards=np.array([[0.0, -0.0, 5e-324, 1e16]] * 3),
                                           action_table=np.eye(4), reward_bound=1e16)
        write_dataset(dataset, tmp_path / "h.json", tmp_path / "t.jsonl")
        text = (tmp_path / "t.jsonl").read_text()
        assert text == per_record_jsonl(dataset)
        numbers = data_mod._layout_texts(iter(text.splitlines(keepends=True)), 4, 4)[0]
        assert {"0.0", "-0.0", "5e-324", "1.5e-310", "1e+16", "1.0", "-2.0"} <= set(numbers)
        assert len(numbers) == len(EDGE_FLOATS)
        got = data_mod._read_writer_layout(tmp_path / "t.jsonl", 4, 4)
        assert got[0][got[1]].tobytes() == states.tobytes()
        assert got[3].tobytes() == dataset.rewards.tobytes()
        assert bits(load_dataset(tmp_path / "h.json", tmp_path / "t.jsonl")) == bits(dataset)

    def test_a1_file_formats_and_parses_each_distinct_number_once(self, tmp_path):
        dataset, _ = generate_trajectories(make_env(A1_ENV, 0), 100, seed=0)
        # one json.dumps each for the distinct numbers, the actions and the rewards
        with mock.patch.object(data_mod.json, "dumps", wraps=json.dumps) as dumps:
            write_dataset(dataset, tmp_path / "h.json", tmp_path / "t.jsonl")
        assert dumps.call_count == 1 + 3  # the header, then the trajectories
        assert len(dumps.call_args_list[1].args[0]) == 1040
        text = (tmp_path / "t.jsonl").read_text()
        numbers = data_mod._layout_texts(iter(text.splitlines(keepends=True)),
                                         dataset.horizon, dataset.state_dim)[0]
        states = [rec["states"] for rec in map(json.loads, text.splitlines())]
        distinct = {json.dumps(v) for traj in states for row in traj for v in row}
        assert len(numbers) == len(distinct) == 1040 and set(numbers) == distinct
        # one json.loads each for the header, the distinct numbers, the
        # actions and the rewards
        with mock.patch.object(data_mod.json, "loads", wraps=json.loads) as loads:
            back = load_dataset(tmp_path / "h.json", tmp_path / "t.jsonl")
        assert loads.call_count == 4
        assert bits(back) == bits(dataset)

    def test_a1_files_are_read_in_one_pass(self):
        for world in range(32):
            dataset, _ = generate_trajectories(make_env(A1_ENV, world), 100, seed=world)
            lines = dataset_jsonl_text(dataset).splitlines(keepends=True)
            read = data_mod._layout_texts(iter(lines), dataset.horizon, dataset.state_dim)
            assert read is not None, world


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


class TestStateRows:
    def test_a1_dataset_holds_each_visited_pool_state_once(self):
        dataset, _ = generate_trajectories(make_env(A1_ENV, 0), 1000, seed=0)
        rows, index = dataset.state_rows, dataset.state_index
        assert len(rows) <= A1_ENV.n_users * A1_ENV.n_actions == 300
        assert len(np.unique(rows, axis=0)) == len(rows)
        assert index.shape == (1000, 20) and np.issubdtype(index.dtype, np.integer)
        assert set(index.ravel().tolist()) == set(range(len(rows)))
        for t in (1, 7, 20):
            np.testing.assert_array_equal(dataset.stage_states(t), dataset.states[:, t - 1])

    @pytest.mark.parametrize("source", ["generated", "per-state rows"])
    def test_split_sides_share_the_state_rows_and_write_their_own(self, source, tmp_path):
        if source == "generated":
            dataset, _ = generate_trajectories(make_env(A1_ENV, 1), 100, seed=1)
        else:
            dataset = make_dataset(n=30, horizon=4, d_s=3)
        sides = split(dataset, 0.3, seed=2)
        for side in sides:
            assert side.state_rows is dataset.state_rows
            with mock.patch.object(data_mod, "_number_texts",
                                   wraps=data_mod._number_texts) as formatted:
                write_dataset(side, tmp_path / "h.json", tmp_path / "t.jsonl")
            assert formatted.call_count == 1  # the shared rows are formatted once
            assert (tmp_path / "t.jsonl").read_text() == per_record_jsonl(side)
            assert bits(load_dataset(tmp_path / "h.json", tmp_path / "t.jsonl")) == bits(side)

    def test_states_of_no_features_round_trip(self, tmp_path):
        dataset = BatchDataset.from_states(np.zeros((2, 3, 0)), np.zeros((2, 3), dtype=np.int64),
                                           np.zeros((2, 3)), np.eye(1), 1.0)
        write_dataset(dataset, tmp_path / "h.json", tmp_path / "t.jsonl")
        assert (tmp_path / "t.jsonl").read_text() == per_record_jsonl(dataset)
        assert bits(load_dataset(tmp_path / "h.json", tmp_path / "t.jsonl")) == bits(dataset)

    def test_per_state_rows_are_a_view(self):
        states = np.arange(24.0).reshape(2, 3, 4)
        dataset = BatchDataset.from_states(states, np.zeros((2, 3), dtype=np.int64),
                                           np.zeros((2, 3)), np.eye(1), 1.0)
        assert np.shares_memory(dataset.state_rows, states)
        with pytest.raises(ValueError, match="read-only"):
            states[0, 0, 0] = np.nan
        np.testing.assert_array_equal(dataset.state_index, np.arange(6).reshape(2, 3))
        np.testing.assert_array_equal(dataset.states, states)

    @pytest.mark.parametrize("index,message", [
        ([[0, -1]], "outside the state rows"),
        ([[0, 2]], "outside the state rows"),
        ([[0.0, 1.0]], "must hold integers"),
        ([[True, False]], "must hold integers"),
        ([0, 1], "state index"),
        ([[0], [1]], "disagree on"),
    ])
    def test_bad_state_index_rejected(self, index, message):
        with pytest.raises(DataError, match=message):
            BatchDataset(state_rows=np.eye(2), state_index=np.array(index),
                         actions=np.zeros((1, 2), dtype=np.int64), rewards=np.zeros((1, 2)),
                         action_table=np.eye(2), reward_bound=1.0)

    def test_states_of_wrong_rank_rejected(self):
        with pytest.raises(DataError, match="expected"):
            BatchDataset.from_states(np.zeros((2, 3)), np.zeros((2, 3), dtype=np.int64),
                                     np.zeros((2, 3)), np.eye(1), 1.0)
