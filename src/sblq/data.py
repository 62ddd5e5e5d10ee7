"""Batch dataset model, feature construction, and dataset ingestion.

A dataset holds n logged trajectories of horizon T as (n, T, d_s) state
features, (n, T) indices into a shared candidate-action table and (n, T)
rewards.  The regression rows for stage t are the (n, d) unit-normalized
concatenations of each trajectory's stage-t state features and its chosen
action's features; a stage fit takes those rows and nothing else.

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

Each trajectory line holds the bytes of ``json.dumps`` of its record.  While
state rows repeat, as the (user, video) states of simulated trajectories
do, the writer encodes each distinct row once and the reader parses each
distinct row text of lines in that layout once; both stop memoizing rows
for the rest of the file once new rows outnumber repeated ones (past a
first 512), so files of distinct rows cost what plain ``json`` costs.  Any
other valid JSON line is read by ``json.loads`` with the same checks.
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
    """A batch of logged trajectories plus the shared candidate-action table."""

    states: np.ndarray        # (n, T, d_s)
    actions: np.ndarray       # (n, T) int
    rewards: np.ndarray       # (n, T)
    action_table: np.ndarray  # (A, d_a)
    reward_bound: float
    normalize: bool = True

    def __post_init__(self):
        for name in ("states", "actions", "rewards", "action_table"):
            arr = getattr(self, name)
            arr.setflags(write=False)
        n, t, _ = self.states.shape
        if n < 1:
            raise DataError("dataset must contain at least one trajectory")
        if self.actions.shape != (n, t) or self.rewards.shape != (n, t):
            raise DataError("states, actions and rewards disagree on (n, T)")
        if not np.all(np.isfinite(self.states)):
            raise DataError("state features contain non-finite values")
        if not np.all(np.isfinite(self.action_table)):
            raise DataError("action table contains non-finite values")
        if not np.all(np.isfinite(self.rewards)):
            raise DataError("rewards contain non-finite values")
        if np.any(self.actions < 0) or np.any(self.actions >= len(self.action_table)):
            raise DataError("action id outside the candidate-action table")
        worst = float(np.max(np.abs(self.rewards)))
        if worst > self.reward_bound + 1e-9:
            raise DataError(
                f"reward magnitude {worst:.6g} exceeds declared bound {self.reward_bound:.6g}"
            )

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def horizon(self) -> int:
        return self.states.shape[1]

    @property
    def state_dim(self) -> int:
        return self.states.shape[2]

    @property
    def action_dim(self) -> int:
        return self.action_table.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.state_dim + self.action_dim


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
        x = x * np.asarray(mask, dtype=float)[None, :]
    if normalize:
        norms = np.linalg.norm(x, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("cannot normalize an all-zero feature vector")
        x = x / norms[:, None]
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
    states = dataset.states[:, t - 1, :]
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
    """Deterministic shuffled partition into (train, test) datasets."""
    n = len(dataset)
    n_train = split_size(n, train_fraction)
    perm = np.random.default_rng(seed).permutation(n)
    idx_train = np.sort(perm[:n_train])
    idx_test = np.sort(perm[n_train:])

    def take(idx):
        return BatchDataset(
            states=dataset.states[idx],
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


# The writer's own line layout: {"states": [[row], [row], ...], "actions": ...
_STATES_OPEN = '{"states": [['
_ROW_SEP = "], ["
_STATES_CLOSE = ']], "actions": '
# Rows stay memoized until new ones outnumber both the repeated ones and this
# allowance, which lets through a file's first lines: they are mostly new rows
# even where rows repeat later (a1 has at most 300 distinct states).
_NEW_ROWS_ALLOWED = 512


def _rows_repeat(n_new: int, n_looked_up: int) -> bool:
    """Whether a row memo that ``n_looked_up`` rows filled with ``n_new``
    distinct ones still pays for itself."""
    return n_new <= max(n_looked_up - n_new, _NEW_ROWS_ALLOWED)


def _unbracketed_rows(values) -> list[str]:
    """The text between the brackets of ``json.dumps(row)`` for each row of a
    2-D ``values``, cut from one ``json.dumps`` of the whole list."""
    return json.dumps(values)[2:-2].split(_ROW_SEP)


def dataset_jsonl_text(dataset: BatchDataset) -> str:
    """One ``json.dumps({"states": ..., "actions": ..., "rewards": ...})`` line
    per trajectory, joined once from its pieces.  While state rows repeat,
    each distinct row is encoded once; after that each trajectory's states
    are encoded in one call."""
    d_s, dtype = dataset.state_dim, dataset.states.dtype
    texts = {}  # a row's exact bytes, so -0.0 and 0.0 stay apart -> its JSON text
    looked_up = 0
    actions = _unbracketed_rows(dataset.actions.tolist())
    rewards = _unbracketed_rows(dataset.rewards.tolist())
    parts = []
    for i, states in enumerate(dataset.states):
        tail = ', "actions": [' + actions[i] + '], "rewards": [' + rewards[i] + "]}\n"
        if texts is not None and not _rows_repeat(len(texts), looked_up):
            texts = None
        if texts is None:
            parts += ('{"states": ', json.dumps(states.tolist()), tail)
            continue
        keys = [row.tobytes() for row in states]
        new = [key for key in dict.fromkeys(keys) if key not in texts]
        if new:  # this trajectory's new rows, encoded in one call
            values = np.frombuffer(b"".join(new), dtype=dtype).reshape(len(new), d_s)
            texts.update(zip(new, _unbracketed_rows(values.tolist())))
        looked_up += len(keys)
        parts.append(_STATES_OPEN)
        for key in keys:
            parts += (texts[key], _ROW_SEP)
        parts[-1] = "]]" + tail  # in place of the separator after the last row
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


class _RecordParser:
    """``json.loads`` of trajectory lines that parses each distinct state row
    text once while lines are in the writer's layout and rows repeat.

    Lines the layout does not take whole (other whitespace or key order, a
    repeated key, a row that is not d_s numbers) are parsed by ``json.loads``,
    so both routes give the same record.  The first such line, or new rows
    outnumbering both repeated ones and ``_NEW_ROWS_ALLOWED``, ends the row
    route for the rest of the file: it only pays where rows repeat.
    """

    def __init__(self, d_s: int):
        self.d_s = d_s
        self.rows = {}  # row text -> its (d_s,) values; None once the route ends
        self.looked_up = 0

    def __call__(self, line: str) -> dict:
        rec = None if self.rows is None else self._layout_record(line)
        if rec is None:
            self.rows = None
            return json.loads(line)
        if not _rows_repeat(len(self.rows), self.looked_up):
            self.rows = None
        return rec

    def _layout_record(self, line: str):
        end = line.find(_STATES_CLOSE) if line.startswith(_STATES_OPEN) else -1
        if end < 0:
            return None
        texts = line[len(_STATES_OPEN):end].split(_ROW_SEP)
        new = [text for text in dict.fromkeys(texts) if text not in self.rows]
        if new and not self._add_rows(new):
            return None
        try:
            rec = json.loads('{"actions": ' + line[end + len(_STATES_CLOSE):])
        except (ValueError, RecursionError):
            return None
        if "states" in rec:
            return None
        self.looked_up += len(texts)
        rec["states"] = np.array([self.rows[text] for text in texts])
        return rec

    def _add_rows(self, texts) -> bool:
        """Parse the row ``texts`` in one ``json.loads``; False unless each
        holds exactly d_s JSON numbers (only then, with no bracket inside a
        text, does the parse give one row per text)."""
        try:
            values = json.loads("[[" + _ROW_SEP.join(texts) + "]]")
            kinds = set(map(type, chain.from_iterable(values)))
            if not kinds <= {float, int}:
                return False
            block = np.array(values, dtype=float)
        except (ValueError, TypeError, OverflowError, RecursionError):
            return False
        if block.shape != (len(texts), self.d_s):
            return False
        self.rows.update(zip(texts, block))
        return True


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
    table = np.asarray(header["action_table"], dtype=float)
    if table.ndim != 2 or table.shape[1] != d_a:
        raise DataError(f"header {header_path}: field 'action_table' must be A x {d_a}")
    if not np.all(np.isfinite(table)):
        raise DataError(f"header {header_path}: field 'action_table' has non-finite values")

    states_list, actions_list, rewards_list, linenos = [], [], [], []
    parse = _RecordParser(d_s)
    with open(trajectories_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{trajectories_path}:{lineno}"
            try:
                rec = parse(line)
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
        raise DataError(f"{trajectories_path}: no trajectories")
    states, actions, rewards = (np.stack(states_list), np.stack(actions_list),
                                np.stack(rewards_list))
    reward_bound, normalize = float(header["reward_bound"]), header["normalize"]
    try:
        return BatchDataset(states, actions, rewards, table, reward_bound, normalize)
    except DataError as exc:
        error = exc
    # Each value check holds for a batch exactly when it holds for each of its
    # trajectories, so the shortest failing prefix ends at the first bad line.
    lo, hi = 0, len(linenos)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            BatchDataset(states[:mid], actions[:mid], rewards[:mid], table, reward_bound,
                         normalize)
            lo = mid
        except DataError as exc:
            error, hi = exc, mid
    raise DataError(f"{trajectories_path}:{linenos[hi - 1]}: {error}") from error
