"""Batch dataset model, feature construction, and dataset ingestion.

A dataset holds n logged trajectories of horizon T: (m, d_s) state feature
rows with an (n, T) index of each state's row, (n, T) indices into a shared
candidate-action table and (n, T) rewards.  Simulated states are (user,
video) pairs from finite pools, so a generated dataset holds each distinct
state once (a1: at most 300 rows for any n), and the loaded one holds each
distinct row text once; memory is O(m d_s + n T).  Data whose rows never
repeat cost the same state bytes as an (n, T, d_s) array plus the index,
about 1/d_s more.  Trajectory i's features at stage t are the
unit-normalized concatenation of its stage-t state features and its chosen
action's features.  Every method reads a stage through its distinct state
rows, action ids and normalizers (``learner.Stage``), by Sigma_hat and the
moment, and no (n, d) matrix of these features is built.

Datasets are immutable after construction (arrays are marked read-only) and
safe for concurrent use.

File formats
------------
Header (JSON, one object; ``HEADER_SCHEMA``):
    {"version": 1, "horizon": T, "state_dim": d_s, "action_dim": d_a,
     "reward_bound": M, "normalize": true, "action_table": [[...], ...]}
Trajectories (JSON Lines, one object per line; ``LINE_SCHEMA``):
    {"states": [[...d_s reals...] x T], "actions": [int x T], "rewards": [real x T]}
Reals are serialized with full round-trip precision.

Every JSON input the CLI reads (config, header, trajectories line, env,
ground truth, model) is checked by one walker, ``check``, against a schema
declared next to its writer; ``read_json`` reads a file and checks it.  The
loaders add only the cross-field rules a schema cannot state (here: the
action table's width and each line's shape against the header).

Each trajectory line holds the bytes of ``json.dumps`` of its record; the
writer formats each distinct state row, and while numbers repeat each
distinct number, once.  The reader takes a file whose lines are all in that
layout in one pass, keying each distinct row and number text once, while
rows repeat; otherwise it reads the file line by line with ``json.loads``
and the same checks (``_read_writer_layout``, ``_read_lines``).
"""
from __future__ import annotations

import json
import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError


@dataclass(frozen=True)
class BatchDataset:
    """A batch of logged trajectories plus the shared candidate-action table.

    The state of trajectory i at stage t is ``state_rows[state_index[i, t - 1]]``.
    """

    state_rows: np.ndarray    # (m, d_s) state feature rows
    state_index: np.ndarray   # (n, T) int, each state's row in state_rows
    actions: np.ndarray       # (n, T) int
    rewards: np.ndarray       # (n, T)
    action_table: np.ndarray  # (A, d_a)
    reward_bound: float
    normalize: bool = True

    @classmethod
    def from_states(cls, states, actions, rewards, action_table, reward_bound: float,
                    normalize: bool = True) -> "BatchDataset":
        """The dataset of (n, T, d_s) ``states``, one state row per state."""
        states = np.asarray(states)
        states.setflags(write=False)  # the rows are a view of it
        if states.ndim != 3:
            raise DataError(f"states have shape {states.shape}, expected (n, T, d_s)")
        n, horizon, d_s = states.shape
        index = np.arange(n * horizon).reshape(n, horizon)
        return cls(states.reshape(n * horizon, d_s), index, actions, rewards, action_table,
                   reward_bound, normalize)

    def __post_init__(self):
        for name in ("state_rows", "state_index", "actions", "rewards", "action_table"):
            arr = getattr(self, name)
            arr.setflags(write=False)
        if self.state_rows.ndim != 2 or self.state_index.ndim != 2:
            raise DataError("state rows must be (m, d_s) and the state index (n, T)")
        n, t = self.state_index.shape
        if n < 1:
            raise DataError("dataset must contain at least one trajectory")
        if self.actions.shape != (n, t) or self.rewards.shape != (n, t):
            raise DataError("state index, actions and rewards disagree on (n, T)")
        if not np.issubdtype(self.state_index.dtype, np.integer):
            raise DataError("state index must hold integers")
        if np.any(self.state_index < 0) or np.any(self.state_index >= len(self.state_rows)):
            raise DataError("state index outside the state rows")
        if not np.all(np.isfinite(self.state_rows)):
            raise DataError("state features contain non-finite values")
        if not np.all(np.isfinite(self.action_table)):
            raise DataError("action table contains non-finite values")
        if not np.all(np.isfinite(self.rewards)):
            raise DataError("rewards contain non-finite values")
        if np.any(self.actions < 0) or np.any(self.actions >= len(self.action_table)):
            raise DataError("action id outside the candidate-action table")
        # the small table first, so that a table without a zero row costs nothing
        if (self.normalize and not np.all(np.any(self.action_table, axis=1))
                and not np.all(np.any(self.state_rows, axis=1))):
            raise DataError("an all-zero state row meets an all-zero action-table row, "
                            "so their feature vector cannot be normalized")
        worst = float(np.max(np.abs(self.rewards)))
        if worst > self.reward_bound + 1e-9:
            raise DataError(
                f"reward magnitude {worst:.6g} exceeds declared bound {self.reward_bound:.6g}"
            )

    def __len__(self) -> int:
        return self.state_index.shape[0]

    @property
    def horizon(self) -> int:
        return self.state_index.shape[1]

    @property
    def state_dim(self) -> int:
        return self.state_rows.shape[1]

    @property
    def action_dim(self) -> int:
        return self.action_table.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.state_dim + self.action_dim

    def stage_states(self, t: int) -> np.ndarray:
        """The (n, d_s) states of stage t (1-based)."""
        if not 1 <= t <= self.horizon:
            raise IndexError(f"stage {t} outside 1..{self.horizon}")
        return self.state_rows[self.state_index[:, t - 1]]

    @property
    def states(self) -> np.ndarray:
        """All (n, T, d_s) states, gathered anew on each access."""
        return self.state_rows[self.state_index]


def feature_matrix(states, actions) -> np.ndarray:
    """The (n, d) features x(state_i, action_i) of matching (n, d_s) states
    and (n, d_a) actions: their concatenation, unit-normalized row by row."""
    x = np.hstack([np.asarray(states, dtype=float), np.asarray(actions, dtype=float)])
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0.0):
        raise DataError("cannot normalize an all-zero feature vector")
    x /= norms[:, None]
    return x


def _score_blocks(states, action_table, stacks, normalize: bool):
    """Each theta's (A, n) block of inner products <theta, x(state_i,
    action_j)>, in order, for ``stacks`` of (theta, mask) pairs: theta one
    (d,) vector or a (k, d) stack, scored on the features the 0/1 ``mask``
    keeps (None keeps every one).

    Exploits the block structure of the concatenation so the (A, n, d) feature
    tensor is never materialized, and builds the normalizer
    sqrt(|s_i|^2 + |a_j|^2) once per mask, at its first theta.  Each theta
    has its own pair of matrix-vector products, so a score does not depend on
    what else is scored with it.
    """
    s0 = np.asarray(states, dtype=float)
    a0 = np.asarray(action_table, dtype=float)
    d_s = s0.shape[1]
    d = d_s + a0.shape[1]
    norms = {}  # mask bytes -> normalizer
    for theta, mask in stacks:
        theta = np.asarray(theta, dtype=float)
        if theta.ndim not in (1, 2) or theta.shape[-1] != d:
            raise ValueError(f"theta has shape {theta.shape}, expected ({d},) or (k, {d})")
        s, a, key = s0, a0, None
        if mask is not None:
            m = np.asarray(mask, dtype=float)
            s, a, key = s0 * m[None, :d_s], a0 * m[None, d_s:], m.tobytes()
        for th in theta.reshape(-1, d):
            if normalize and key not in norms:
                sq = np.sum(a**2, axis=1)[:, None] + np.sum(s**2, axis=1)[None, :]
                if np.any(sq == 0.0):
                    raise DataError("cannot normalize an all-zero feature vector")
                norms[key] = np.sqrt(sq)
            block = np.add((a @ th[d_s:])[:, None], (s @ th[:d_s])[None, :])
            if normalize:
                block /= norms[key]
            yield block


def candidate_scores(states, action_table, theta, normalize: bool = True,
                     mask: np.ndarray | None = None) -> np.ndarray:
    """Inner products <theta, x(state_i, action_j)>, actions on the
    leading axis: (A, n) for one theta (d,), (k, A, n) for a stack (k, d),
    on the features the 0/1 ``mask`` keeps (None keeps every one)."""
    blocks = list(_score_blocks(states, action_table, [(theta, mask)], normalize))
    return np.stack(blocks) if np.ndim(theta) == 2 else blocks[0]


def best_scores(states, action_table, stacks, normalize: bool = True) -> list:
    """For each (thetas (k, d), mask) pair of ``stacks``, the (k, n) best
    candidate score max_j <theta, x(state_i, action_j)> of each of the
    (n, d_s) ``states`` under each theta: the maximum of ``candidate_scores``
    over actions, taken as each theta's (A, n) block is scored, so one block
    is in memory at a time.  Stacks under the same mask share one
    normalizer."""
    best = [np.empty((len(thetas), len(states))) for thetas, _ in stacks]
    blocks = _score_blocks(states, action_table, stacks, normalize)
    for out, block in zip(chain.from_iterable(best), blocks):
        block.max(axis=0, out=out)
    return best


def split_size(n: int, train_fraction: float) -> int:
    """Trajectories on the training side of a split of n; both sides nonempty."""
    n_train = int(train_fraction * n)
    if n_train < 1 or n - n_train < 1:
        raise ConfigError(f"split of {n} trajectories at train_fraction {train_fraction} "
                          "leaves an empty side")
    return n_train


def partition(n: int, first: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Trajectories 0..n-1 in the order of ``default_rng(seed).permutation(n)``,
    cut after the ``first``: the two parts' indices, each sorted."""
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[:first]), np.sort(perm[first:])


def split(dataset: BatchDataset, train_fraction: float, seed: int):
    """Deterministic shuffled partition into (train, test) datasets, both
    holding the state rows of ``dataset`` itself."""
    n = len(dataset)

    def take(idx):
        return replace(dataset, state_index=dataset.state_index[idx],
                       actions=dataset.actions[idx], rewards=dataset.rewards[idx])

    return tuple(take(idx) for idx in partition(n, split_size(n, train_fraction), seed))


def dataset_header_text(dataset: BatchDataset) -> str:
    header = {"version": 1, "horizon": dataset.horizon, "state_dim": dataset.state_dim,
              "action_dim": dataset.action_dim, "reward_bound": dataset.reward_bound,
              "normalize": dataset.normalize, "action_table": dataset.action_table.tolist()}
    return json.dumps(header) + "\n"


# The writer's own line layout:
# {"states": [[row], [row], ...], "actions": [...], "rewards": [...]}
_STATES_OPEN = '{"states": [['
_ROW_SEP = "], ["
_NUMBER_SEP = ", "
_STATES_CLOSE = ']], "actions": ['
_ACTIONS_CLOSE = '], "rewards": ['
_LINE_CLOSE = "]}"
# The reader keeps its row memo until new rows outnumber both the repeated
# ones and this allowance, which lets through a file's first lines: they are
# mostly new rows even where rows repeat later (a1 has at most 300 distinct
# states).  The same rule bounds the reader's number memo (a row holds d_s
# numbers), and the writer formats each distinct number once only while
# numbers repeat.
_NEW_ROWS_ALLOWED = 512
_NUMBER_TYPES = {int, float}


def _rows_repeat(n_new: int, n_looked_up: int) -> bool:
    """Whether a memo that ``n_looked_up`` lookups filled with ``n_new``
    distinct entries still pays for itself."""
    return n_new <= max(n_looked_up - n_new, _NEW_ROWS_ALLOWED)


def _unbracketed_rows(values) -> list[str]:
    """The text between the brackets of ``json.dumps(row)`` for each row of a
    2-D ``values``, cut from one ``json.dumps`` of the whole list."""
    return json.dumps(values)[2:-2].split(_ROW_SEP)


def _number_texts(values: np.ndarray) -> list[str]:
    """The text between the brackets of ``json.dumps(row)`` for each row of
    the (n, d_s) ``values``: each distinct number (by its bits, so -0.0 and
    0.0 stay apart) formatted once, by one ``json.dumps``, and every row
    joined from its numbers' texts, while numbers repeat; else the rows
    formatted by one ``json.dumps``."""
    flat = np.ascontiguousarray(values).reshape(-1)
    bits = flat.view(np.dtype(f"u{flat.itemsize}"))
    distinct, index = np.unique(bits, return_inverse=True)
    if not _rows_repeat(len(distinct), len(flat)):
        return _unbracketed_rows(values.tolist())
    texts = json.dumps(distinct.view(flat.dtype).tolist())[1:-1].split(_NUMBER_SEP)
    return [_NUMBER_SEP.join([texts[j] for j in row])
            for row in index.reshape(values.shape).tolist()]


def dataset_jsonl_text(dataset: BatchDataset) -> str:
    """One ``json.dumps({"states": ..., "actions": ..., "rewards": ...})`` line
    per trajectory, joined once from its pieces: each state row's text is
    formatted once (``_number_texts``) and each line joins its rows' texts."""
    row_texts = _number_texts(dataset.state_rows)
    actions = _unbracketed_rows(dataset.actions.tolist())
    rewards = _unbracketed_rows(dataset.rewards.tolist())
    parts = []  # one join at the end: the texts of a row repeat, uncopied
    for row_ids, action_text, reward_text in zip(dataset.state_index.tolist(), actions,
                                                 rewards):
        parts.append(_STATES_OPEN)
        for j in row_ids:
            parts += (row_texts[j], _ROW_SEP)
        parts[-1] = _STATES_CLOSE  # in place of the separator after the last row
        parts += (action_text, _ACTIONS_CLOSE, reward_text, _LINE_CLOSE + "\n")
    return "".join(parts)


def record(properties: dict, required=None) -> dict:
    """The schema node of a JSON object of ``properties`` that holds no other
    key and every one of ``required`` (default: all of them)."""
    return {"type": "object", "additionalProperties": False, "properties": properties,
            "required": list(properties if required is None else required)}


# One declaration of each file's keys, types and ranges, which ``check``
# walks: the header (``dataset_header_text``) and one trajectories line
# (``dataset_jsonl_text``).  ``load_dataset`` adds the cross-field rules: the
# action table's width and each line's shape.
HEADER_SCHEMA = record({
    "version": {"const": 1},
    "horizon": {"type": "integer", "minimum": 1},
    "state_dim": {"type": "integer", "minimum": 0},
    "action_dim": {"type": "integer", "minimum": 1},
    "reward_bound": {"type": "number", "minimum": 0},
    "normalize": {"type": "boolean"},
    "action_table": {"type": "numbers", "rank": 2},
})
LINE_SCHEMA = record({
    "states": {"type": "numbers", "rank": 2},
    "actions": {"type": "array", "items": {"type": "integer"}},
    "rewards": {"type": "numbers", "rank": 1},
})

_TYPES = {"integer": (int, "an integer"), "number": ((int, float), "a finite number"),
          "boolean": (bool, "a boolean"), "array": (list, "an array"),
          "numbers": (list, "an array of finite numbers"), "object": (dict, "a JSON object")}
_BOUNDS = (("minimum", operator.ge, "at least"), ("maximum", operator.le, "at most"),
           ("exclusiveMinimum", operator.gt, "above"),
           ("exclusiveMaximum", operator.lt, "below"))


def check(value, schema: dict, error: type, doc: str, where: str = "", what: str = ""):
    """``value`` if it meets ``schema``, with each "numbers" node a float
    array; else ``error`` naming the key path within ``doc`` (a config, a
    file, a model's stage record, a trajectories line).  ``where`` prefixes
    the names of the value's properties ("env." inside env) and ``what``
    names the value (default ``doc``).

    The keywords: "null" (true admits None), "type" (a bool is no integer
    or number, a number is finite, and "numbers" is an array of finite
    numbers, of "rank" axes if given, read by one ``np.asarray``), "const",
    "enum", "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum",
    "minItems", "items", "properties" (every object node is closed, as
    ``record`` declares it: another key is an error) and "required".
    """
    what = what or doc
    if value is None and schema.get("null"):
        return None
    if "const" in schema and (type(value) is not type(schema["const"])
                              or value != schema["const"]):
        raise error(f"{what} must be {schema['const']!r}, got {value!r:.40}")
    if "enum" in schema and value not in schema["enum"]:
        raise error(f"{what} must be one of {schema['enum']}, got {value!r:.40}")
    name = schema.get("type")
    if name is not None:
        cls, noun = _TYPES[name]
        if (not isinstance(value, cls) or isinstance(value, bool) != (name == "boolean")
                or (name == "number" and not math.isfinite(value))):
            raise error(f"{what} must be {noun}, got {value!r:.40}")
        if name == "numbers":
            return _numbers(value, schema.get("rank"), error, what)
    for keyword, holds, phrase in _BOUNDS:
        if keyword in schema and not holds(value, schema[keyword]):
            raise error(f"{what} must be {phrase} {schema[keyword]}, got {value!r}")
    if "minItems" in schema and len(value) < schema["minItems"]:
        raise error(f"{what} must list at least {schema['minItems']} item(s)")
    if "items" in schema:
        return [check(item, schema["items"], error, doc, where, f"{what} item {i}")
                for i, item in enumerate(value)]
    if "properties" not in schema:
        return value
    checked, properties = {}, schema["properties"]
    for key, item in value.items():
        named = f"{doc} field {where}{key!r}"
        if key not in properties:
            raise error(f"{named} is unknown")
        checked[key] = check(item, properties[key], error, doc, f"{where}{key}.", named)
    missing = [key for key in schema.get("required", ()) if key not in value]
    if missing:
        raise error(f"{doc} field {where}{missing[0]!r} is missing")
    return checked


def _numbers(value, rank, error: type, what: str) -> np.ndarray:
    """The float array of nested lists ``value`` whose leaves are numbers, as
    numpy reads them (so a boolean among numbers reads as one, and an int
    past int64 as a float), of ``rank`` axes if given, all finite; else
    ``error``."""
    try:
        arr = np.asarray(value)
        if arr.dtype == object and set(map(type, arr.flat)) <= {int, float, bool}:
            arr = np.asarray(value, dtype=float)  # ints past int64
    except (ValueError, OverflowError):  # ragged, or past the float range
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise error(f"{what} must be an array of finite numbers")
    if rank is not None and arr.ndim != rank:
        raise error(f"{what} has shape {arr.shape}, expected {rank} axes")
    arr = arr.astype(float, copy=False)
    if not np.isfinite(arr).all():
        raise error(f"{what} has non-finite values")
    return arr


def read_json(path, schema: dict, doc: str | None = None):
    """The JSON value of file ``path``, ``check``ed against ``schema`` under
    the name ``doc`` (default: the path).  Content that is not such a value
    is a DataError naming the file; a file that cannot be read raises
    OSError."""
    doc = doc or f"{path}:"
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:  # invalid JSON or undecodable bytes
        raise DataError(f"{doc} invalid JSON ({exc})") from exc
    return check(payload, schema, DataError, doc)


@contextmanager
def file_values(path):
    """Report a ValueError from values read from ``path`` as a DataError
    naming the file: a cross-field rule of a dataclass that a file fills."""
    try:
        yield
    except DataError:
        raise
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _read_writer_layout(path, horizon: int, d_s: int):
    """The (state rows, state index, actions, rewards) arrays of trajectories
    file ``path`` if every line is in the writer's layout, else None, in one
    pass.

    Each distinct state-row text is split once into its number texts and each
    distinct number text is kept once; all of them are parsed by one
    ``json.loads`` at the end.  The state rows are those of the distinct row
    texts, and the index holds each state's row.
    A line out of that layout, a number text that is not one JSON number, a
    shape or type that ``json.loads`` of the line would not give, or new
    rows outnumbering both the repeated ones and ``_NEW_ROWS_ALLOWED`` give
    None, so the caller reads the file line by line instead.
    """
    try:
        with open(path) as fh:
            read = _layout_texts(fh, horizon, d_s)
        if read is None:
            return None
        number_texts, row_numbers, gather, action_texts, reward_texts = read
        # as many ints and floats as texts is one number per text; anything
        # else (a boolean too, which numpy may read as a number) is left to
        # the line's own read
        numbers = json.loads("[" + ",".join(number_texts) + "]")
        if len(numbers) != len(number_texts) or not set(map(type, numbers)) <= _NUMBER_TYPES:
            return None
        table = np.array(numbers, dtype=float)[np.array(row_numbers)].reshape(-1, d_s)
        # a bracket in a text could only add a list, so n lists of T values
        # each are the lines' own
        actions = json.loads("[[" + _ROW_SEP.join(action_texts) + "]]")
        rewards = json.loads("[[" + _ROW_SEP.join(reward_texts) + "]]")
        if (not set(map(type, chain.from_iterable(actions))) <= {int}
                or not set(map(type, chain.from_iterable(rewards))) <= _NUMBER_TYPES):
            return None
        actions = np.array(actions, dtype=np.int64)
        rewards = np.array(rewards, dtype=float)
    except (ValueError, TypeError, OverflowError, RecursionError):
        return None
    n = len(action_texts)
    if actions.shape != (n, horizon) or rewards.shape != (n, horizon):
        return None
    return table, np.array(gather).reshape(n, horizon), actions, rewards


def _layout_texts(lines, horizon: int, d_s: int):
    """The distinct number texts of the writer-layout ``lines``, the number
    indices of each distinct row, the row index of each state, and each
    line's actions and rewards texts; None at the first line out of that
    layout or once new rows outnumber both the repeated ones and
    ``_NEW_ROWS_ALLOWED``.  Blank lines are skipped, as the per-line read
    skips them."""
    row_ids = {}  # row text -> its index among the distinct rows
    gather, action_texts, reward_texts = [], [], []
    for line in lines:
        if not line.startswith(_STATES_OPEN):
            if line.isspace():
                continue
            return None
        # the rows are the line cut at each row separator, less the head of
        # the first and the tail of the last
        texts = line.split(_ROW_SEP)
        last = texts[-1]
        end = last.find(_STATES_CLOSE)
        mid = last.find(_ACTIONS_CLOSE, end + len(_STATES_CLOSE)) if end >= 0 else -1
        if (mid < 0 or len(texts) != horizon
                or not last.endswith((_LINE_CLOSE, _LINE_CLOSE + "\n"))):
            return None
        tail = last.rstrip("\n")
        texts[-1] = tail[:end]
        texts[0] = texts[0][len(_STATES_OPEN):]
        new = [text for text in dict.fromkeys(texts) if text not in row_ids]
        if any(text.count(_NUMBER_SEP) != d_s - 1 for text in new):
            return None
        row_ids.update(zip(new, range(len(row_ids), len(row_ids) + len(new))))
        gather += map(row_ids.__getitem__, texts)
        if not _rows_repeat(len(row_ids), len(gather)):
            return None
        action_texts.append(tail[end + len(_STATES_CLOSE):mid])
        reward_texts.append(tail[mid + len(_ACTIONS_CLOSE):-len(_LINE_CLOSE)])
    if not gather:
        return None
    number_ids = {}  # number text -> its index among the distinct numbers
    row_numbers = [number_ids.setdefault(text, len(number_ids))
                   for row in row_ids for text in row.split(_NUMBER_SEP)]
    return list(number_ids), row_numbers, gather, action_texts, reward_texts


def _read_lines(path, horizon: int, d_s: int):
    """The (states, actions, rewards) arrays of trajectories file ``path``,
    each line read by ``json.loads`` and checked against ``LINE_SCHEMA`` and
    the header's shape on its own, and the line number of each trajectory;
    an error names ``path:line``."""
    states_list, actions_list, rewards_list, linenos = [], [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}:"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{where} invalid JSON ({exc})") from exc
            rec = check(rec, LINE_SCHEMA, DataError, where)
            states, rewards = rec["states"], rec["rewards"]
            actions = np.array(rec["actions"])  # ints past int64 stay objects, out of range
            if states.shape != (horizon, d_s):
                raise DataError(f"{where} field 'states' has shape {states.shape}, "
                                f"expected ({horizon}, {d_s})")
            if actions.shape != (horizon,):
                raise DataError(f"{where} field 'actions' must have length {horizon}")
            if rewards.shape != (horizon,):
                raise DataError(f"{where} field 'rewards' must have length {horizon}")
            states_list.append(states)
            actions_list.append(actions)
            rewards_list.append(rewards)
            linenos.append(lineno)
    if not states_list:
        raise DataError(f"{path}: no trajectories")
    return (np.stack(states_list), np.stack(actions_list), np.stack(rewards_list)), linenos


def load_dataset(header_path, trajectories_path) -> BatchDataset:
    """Load and validate a header/trajectories file pair."""
    doc = f"header {header_path}:"
    header = read_json(header_path, HEADER_SCHEMA, doc)
    horizon, d_s, table = header["horizon"], header["state_dim"], header["action_table"]
    if table.shape[1] != header["action_dim"]:
        raise DataError(f"{doc} field 'action_table' has shape {table.shape}, "
                        f"expected (A, {header['action_dim']})")
    reward_bound, normalize = float(header["reward_bound"]), header["normalize"]

    arrays = _read_writer_layout(trajectories_path, horizon, d_s)
    if arrays is not None:
        try:
            return BatchDataset(*arrays, table, reward_bound, normalize)
        except DataError:
            pass  # the line-by-line read names the line
    (states, actions, rewards), linenos = _read_lines(trajectories_path, horizon, d_s)
    try:
        return BatchDataset.from_states(states, actions, rewards, table, reward_bound,
                                        normalize)
    except DataError as exc:
        error = exc
    # Each value check holds for a batch exactly when it holds for each of its
    # trajectories, so the shortest failing prefix ends at the first bad line.
    lo, hi = 0, len(linenos)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            BatchDataset.from_states(states[:mid], actions[:mid], rewards[:mid], table,
                                     reward_bound, normalize)
            lo = mid
        except DataError as exc:
            error, hi = exc, mid
    raise DataError(f"{trajectories_path}:{linenos[hi - 1]}: {error}") from error
