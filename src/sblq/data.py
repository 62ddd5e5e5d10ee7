"""Batch dataset model, feature construction, and dataset ingestion.

A dataset holds n logged trajectories of horizon T: (m, d_s) state feature
rows with an (n, T) index of each state's row, (n, T) indices into a shared
candidate-action table and (n, T) rewards.  Simulated states are (user,
video) pairs from finite pools, so a generated dataset holds each distinct
state once (a1: at most 300 rows for any n), and the loaded one holds each
distinct row text once; memory is O(m d_s + n T).  Data whose rows never
repeat cost the same state bytes as an (n, T, d_s) array plus the index,
about 1/d_s more.  The regression rows for stage t are the (n, d)
unit-normalized concatenations of each trajectory's stage-t state features
and its chosen action's features.  A spectral or least-squares stage fit
reads them through the stage's distinct state rows, action ids and
normalizers (``learner.Stage``) and never builds them; ``stage_design``
builds them for lasso, which fits the rows themselves.

Datasets and design rows are immutable after construction (arrays are marked
read-only) and safe for concurrent use.

File formats
------------
Header (JSON, one object):
    {"version": 1, "horizon": T, "state_dim": d_s, "action_dim": d_a,
     "reward_bound": M, "normalize": true, "action_table": [[...], ...]}
Trajectories (JSON Lines, one object per line):
    {"states": [[...d_s reals...] x T], "actions": [int x T], "rewards": [real x T]}
Reals are serialized with full round-trip precision.

Each trajectory line holds the bytes of ``json.dumps`` of its record.  The
writer formats each state row once and joins each line from its rows'
texts.
While the numbers of the rows repeat, as those of simulated states do, it
joins each row's text from the texts of its numbers, every distinct number
(by its bits) formatted by one ``json.dumps``.  The reader takes a file
whose lines are all in that layout (blank lines aside) in one pass: each
distinct row text and number text is keyed once, the distinct numbers are
parsed by one ``json.loads``, and the distinct rows become the state rows.
The pass ends once new rows outnumber both the repeated ones and a first
512, and at any line out of the layout; the file is then read again, line
by line, with ``json.loads`` and the same checks, so files of distinct rows
cost what plain ``json`` costs.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, NumericError


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
        return self.state_rows[self.state_index[:, t - 1]]

    @property
    def states(self) -> np.ndarray:
        """All (n, T, d_s) states, gathered anew on each access."""
        return self.state_rows[self.state_index]


def feature_vector(state, action, normalize: bool = True) -> np.ndarray:
    """Concatenate state and action features, optionally unit-normalizing."""
    x = np.concatenate([np.asarray(state, dtype=float), np.asarray(action, dtype=float)])
    if normalize:
        norm = np.linalg.norm(x)
        if norm == 0.0:
            raise ValueError("cannot normalize an all-zero feature vector")
        x = x / norm
    return x


def feature_matrix(states, actions, normalize: bool = True,
                   mask: np.ndarray | None = None) -> np.ndarray:
    """Row-wise feature_vector over matching (n, d_s) states and (n, d_a) actions.

    A boolean/0-1 ``mask`` of length d zeroes excluded columns of the raw
    concatenation before normalization.
    """
    x = np.hstack([np.asarray(states, dtype=float), np.asarray(actions, dtype=float)])
    if mask is not None:
        x *= np.asarray(mask, dtype=float)[None, :]
    if normalize:
        norms = np.linalg.norm(x, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("cannot normalize an all-zero feature vector")
        x /= norms[:, None]
    return x


def candidate_scores(states, action_table, theta, normalize: bool = True,
                     mask: np.ndarray | None = None) -> np.ndarray:
    """Inner products <theta, feature_vector(state_i, action_j)>, actions on the
    leading axis: (A, n) for one theta (d,), (k, A, n) for a stack (k, d).

    Exploits the block structure of the concatenation so the (A, n, d) feature
    tensor is never materialized, and builds the normalizer once for every
    theta scored.  Each theta has its own pair of matrix-vector products, so a
    score does not depend on what else is stacked with it.
    """
    s = np.asarray(states, dtype=float)
    a = np.asarray(action_table, dtype=float)
    theta = np.asarray(theta, dtype=float)
    d_s = s.shape[1]
    d = d_s + a.shape[1]
    if theta.ndim not in (1, 2) or theta.shape[-1] != d:
        raise ValueError(f"theta has shape {theta.shape}, expected ({d},) or (k, {d})")
    if mask is not None:
        m = np.asarray(mask, dtype=float)
        s = s * m[None, :d_s]
        a = a * m[None, d_s:]
    thetas = theta.reshape(-1, d)
    scores = np.empty((len(thetas), len(a), len(s)))
    for out, th in zip(scores, thetas):
        np.add((a @ th[d_s:])[:, None], (s @ th[:d_s])[None, :], out=out)
    if normalize:
        sq = np.sum(a**2, axis=1)[:, None] + np.sum(s**2, axis=1)[None, :]
        if np.any(sq == 0.0):
            raise ValueError("cannot normalize an all-zero feature vector")
        scores /= np.sqrt(sq)
    return scores if theta.ndim == 2 else scores[0]


def stage_design(dataset: BatchDataset, t: int,
                 mask: np.ndarray | None = None) -> np.ndarray:
    """The read-only (n, d) regression rows for stage t (1-based)."""
    if not 1 <= t <= dataset.horizon:
        raise IndexError(f"stage {t} outside 1..{dataset.horizon}")
    states = dataset.stage_states(t)
    chosen = dataset.action_table[dataset.actions[:, t - 1]]
    rows = feature_matrix(states, chosen, normalize=dataset.normalize, mask=mask)
    rows.setflags(write=False)
    return rows


def empirical_covariance(rows: np.ndarray) -> np.ndarray:
    """The d x d matrix (1/n) sum_i x_i x_i^T of the (n, d) rows."""
    n = rows.shape[0]
    if n < 1:
        raise ValueError("empty design")
    return rows.T @ rows / n


def split_size(n: int, train_fraction: float) -> int:
    """Trajectories on the training side of a split of n; both sides nonempty."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError("train_fraction must lie strictly between 0 and 1")
    n_train = int(train_fraction * n)
    if n_train < 1 or n - n_train < 1:
        raise ConfigError(f"split of {n} trajectories at train_fraction {train_fraction} "
                          "leaves an empty side")
    return n_train


def split(dataset: BatchDataset, train_fraction: float, seed: int):
    """Deterministic shuffled partition into (train, test) datasets, both
    holding the state rows of ``dataset`` itself."""
    n = len(dataset)
    n_train = split_size(n, train_fraction)
    perm = np.random.default_rng(seed).permutation(n)
    idx_train = np.sort(perm[:n_train])
    idx_test = np.sort(perm[n_train:])

    def take(idx):
        return BatchDataset(
            state_rows=dataset.state_rows,
            state_index=dataset.state_index[idx],
            actions=dataset.actions[idx],
            rewards=dataset.rewards[idx],
            action_table=dataset.action_table,
            reward_bound=dataset.reward_bound,
            normalize=dataset.normalize,
        )

    return take(idx_train), take(idx_test)


def dataset_header_text(dataset: BatchDataset) -> str:
    header = {
        "version": 1,
        "horizon": dataset.horizon,
        "state_dim": dataset.state_dim,
        "action_dim": dataset.action_dim,
        "reward_bound": dataset.reward_bound,
        "normalize": dataset.normalize,
        "action_table": dataset.action_table.tolist(),
    }
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


_HEADER_FIELDS = {
    "version": int,
    "horizon": int,
    "state_dim": int,
    "action_dim": int,
    "reward_bound": (int, float),
    "normalize": bool,
    "action_table": list,
}


def require_fields(record, fields, where: str) -> dict:
    """Return ``record`` if it is a JSON object holding every one of ``fields``."""
    if not isinstance(record, dict):
        raise DataError(f"{where}: expected a JSON object")
    missing = [name for name in fields if name not in record]
    if missing:
        raise DataError(f"{where}: missing field {missing[0]!r}")
    return record


@contextmanager
def file_values(path):
    """Report a TypeError, ValueError, OverflowError or NumericError from
    values read from ``path`` as a DataError naming the file."""
    try:
        yield
    except DataError:
        raise
    except (TypeError, ValueError, OverflowError, NumericError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def read_json_fields(path, *fields) -> dict:
    """Parse the JSON object in file ``path`` and require ``fields`` in it.

    Content that is not such an object is a DataError naming the file; a file
    that cannot be read raises OSError.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:  # invalid JSON or undecodable bytes
        raise DataError(f"{path}: invalid JSON ({exc})") from exc
    return require_fields(payload, fields, str(path))


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
        # as many scalars as texts is one value per text; a value that is not a
        # number converts as in the line's own read, or fails
        numbers = np.array(json.loads("[" + ",".join(number_texts) + "]"), dtype=float)
        if numbers.shape != (len(number_texts),):
            return None
        table = numbers[np.array(row_numbers)].reshape(-1, d_s)
        # a bracket in a text could only add a list, so n lists of T values
        # each are the lines' own
        actions = json.loads("[[" + _ROW_SEP.join(action_texts) + "]]")
        if not set(map(type, chain.from_iterable(actions))) <= {int}:
            return None
        actions = np.array(actions, dtype=np.int64)
        rewards = np.array(json.loads("[[" + _ROW_SEP.join(reward_texts) + "]]"), dtype=float)
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
    each line read by ``json.loads`` and checked on its own, and the line
    number of each trajectory; an error names ``path:line``."""
    states_list, actions_list, rewards_list, linenos = [], [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{where}: invalid JSON ({exc})") from exc
            require_fields(rec, ("states", "actions", "rewards"), where)
            unknown = set(rec) - {"states", "actions", "rewards"}
            if unknown:
                raise DataError(f"{where}: unknown field {sorted(unknown)[0]!r}")
            with file_values(where):
                states = np.asarray(rec["states"], dtype=float)
                actions = np.asarray(rec["actions"])
                rewards = np.asarray(rec["rewards"], dtype=float)
            if states.shape != (horizon, d_s):
                raise DataError(f"{where}: field 'states' has shape {states.shape}, "
                                f"expected ({horizon}, {d_s})")
            if actions.shape != (horizon,):
                raise DataError(f"{where}: field 'actions' must have length {horizon}")
            if not np.issubdtype(actions.dtype, np.integer):
                raise DataError(f"{where}: field 'actions' must be integers")
            if rewards.shape != (horizon,):
                raise DataError(f"{where}: field 'rewards' must have length {horizon}")
            states_list.append(states)
            actions_list.append(actions.astype(np.int64))
            rewards_list.append(rewards)
            linenos.append(lineno)
    if not states_list:
        raise DataError(f"{path}: no trajectories")
    return (np.stack(states_list), np.stack(actions_list), np.stack(rewards_list)), linenos


def load_dataset(header_path, trajectories_path) -> BatchDataset:
    """Load and validate a header/trajectories file pair."""
    header = read_json_fields(header_path, *_HEADER_FIELDS)
    for field_name, kind in _HEADER_FIELDS.items():
        if not isinstance(header[field_name], kind) or isinstance(header[field_name], bool) != (kind is bool):
            raise DataError(f"header {header_path}: field {field_name!r} has wrong type")
    unknown = set(header) - set(_HEADER_FIELDS)
    if unknown:
        raise DataError(f"header {header_path}: unknown field {sorted(unknown)[0]!r}")
    if header["version"] != 1:
        raise DataError(f"header {header_path}: unsupported version {header['version']}")
    horizon = header["horizon"]
    d_s, d_a = header["state_dim"], header["action_dim"]
    with file_values(f"header {header_path}: field 'action_table'"):
        table = np.asarray(header["action_table"], dtype=float)
    if table.ndim != 2 or table.shape[1] != d_a:
        raise DataError(f"header {header_path}: field 'action_table' must be A x {d_a}")
    if not np.all(np.isfinite(table)):
        raise DataError(f"header {header_path}: field 'action_table' has non-finite values")
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
