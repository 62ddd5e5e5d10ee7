"""Trajectory data model, feature construction, and dataset ingestion.

A logged trajectory of horizon T holds per-stage state feature vectors,
indices into a shared candidate-action table, and per-stage rewards.  The
regression input for stage t is the unit-normalized concatenation of the
stage-t state features and the chosen action's features.

Datasets are immutable after construction (arrays are marked read-only) and
safe for concurrent use.

File formats
------------
Header (JSON, one object):
    {"version": 1, "horizon": T, "state_dim": d_s, "action_dim": d_a,
     "reward_bound": M, "normalize": true, "action_table": [[...], ...]}
Trajectories (JSON Lines, one object per line):
    {"states": [[...d_s reals...] x T], "actions": [int x T], "rewards": [real x T]}
Reals are serialized with full round-trip precision.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class Trajectory:
    states: np.ndarray   # (T, d_s)
    actions: np.ndarray  # (T,) int
    rewards: np.ndarray  # (T,)

    @property
    def horizon(self) -> int:
        return self.states.shape[0]


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

    def __getitem__(self, i: int) -> Trajectory:
        return Trajectory(self.states[i], self.actions[i], self.rewards[i])

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

    @classmethod
    def from_trajectories(cls, trajectories, action_table, reward_bound,
                          normalize=True) -> "BatchDataset":
        if not trajectories:
            raise DataError("dataset must contain at least one trajectory")
        horizon = trajectories[0].horizon
        for i, traj in enumerate(trajectories):
            if traj.horizon != horizon:
                raise DataError(f"trajectory {i} has horizon {traj.horizon}, expected {horizon}")
        return cls(
            states=np.stack([t.states for t in trajectories]).astype(float),
            actions=np.stack([t.actions for t in trajectories]).astype(np.int64),
            rewards=np.stack([t.rewards for t in trajectories]).astype(float),
            action_table=np.asarray(action_table, dtype=float),
            reward_bound=float(reward_bound),
            normalize=bool(normalize),
        )


@dataclass(frozen=True)
class StageDesign:
    """Regression rows and targets materialized for a single stage."""

    stage: int
    rows: np.ndarray     # (n, d)
    rewards: np.ndarray  # (n,)

    def __post_init__(self):
        self.rows.setflags(write=False)
        self.rewards.setflags(write=False)


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
    """Inner products <theta, feature_vector(state_i, action_j)> as an (n, A) array.

    Exploits the block structure of the concatenation so the (n, A, d) feature
    tensor is never materialized.
    """
    s = np.asarray(states, dtype=float)
    a = np.asarray(action_table, dtype=float)
    theta = np.asarray(theta, dtype=float)
    d_s = s.shape[1]
    if theta.shape != (d_s + a.shape[1],):
        raise ValueError(f"theta has shape {theta.shape}, expected ({d_s + a.shape[1]},)")
    if mask is not None:
        m = np.asarray(mask, dtype=float)
        s = s * m[None, :d_s]
        a = a * m[None, d_s:]
    raw = s @ theta[:d_s]
    raw = raw[:, None] + (a @ theta[d_s:])[None, :]
    if not normalize:
        return raw
    sq = np.sum(s**2, axis=1)[:, None] + np.sum(a**2, axis=1)[None, :]
    if np.any(sq == 0.0):
        raise ValueError("cannot normalize an all-zero feature vector")
    return raw / np.sqrt(sq)


def stage_design(dataset: BatchDataset, t: int,
                 mask: np.ndarray | None = None) -> StageDesign:
    """Materialize the regression rows and rewards for stage t (1-based)."""
    if not 1 <= t <= dataset.horizon:
        raise IndexError(f"stage {t} outside 1..{dataset.horizon}")
    states = dataset.states[:, t - 1, :]
    chosen = dataset.action_table[dataset.actions[:, t - 1]]
    rows = feature_matrix(states, chosen, normalize=dataset.normalize, mask=mask)
    return StageDesign(stage=t, rows=rows, rewards=dataset.rewards[:, t - 1].copy())


def empirical_covariance(design: StageDesign) -> np.ndarray:
    """The d x d matrix (1/n) sum_i x_i x_i^T."""
    n = design.rows.shape[0]
    if n < 1:
        raise ValueError("empty design")
    return design.rows.T @ design.rows / n


def split(dataset: BatchDataset, train_fraction: float, seed: int):
    """Deterministic shuffled partition into (train, test) datasets."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    n = len(dataset)
    n_train = int(train_fraction * n)
    if n_train < 1 or n - n_train < 1:
        raise ValueError(f"split of {n} trajectories at {train_fraction} leaves an empty side")
    perm = np.random.default_rng(seed).permutation(n)
    idx_train = np.sort(perm[:n_train])
    idx_test = np.sort(perm[n_train:])

    def take(idx):
        return BatchDataset(
            states=dataset.states[idx].copy(),
            actions=dataset.actions[idx].copy(),
            rewards=dataset.rewards[idx].copy(),
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


def dataset_jsonl_text(dataset: BatchDataset) -> str:
    lines = []
    for i in range(len(dataset)):
        rec = {
            "states": dataset.states[i].tolist(),
            "actions": dataset.actions[i].tolist(),
            "rewards": dataset.rewards[i].tolist(),
        }
        lines.append(json.dumps(rec))
    return "\n".join(lines) + "\n"


def save_dataset(dataset: BatchDataset, header_path, trajectories_path) -> None:
    Path(header_path).write_text(dataset_header_text(dataset))
    Path(trajectories_path).write_text(dataset_jsonl_text(dataset))


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
    """Report a TypeError or ValueError from values read from ``path`` as a
    DataError naming the file."""
    try:
        yield
    except DataError:
        raise
    except (TypeError, ValueError) as exc:
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

    trajectories = []
    with open(trajectories_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{trajectories_path}:{lineno}: invalid JSON ({exc})") from exc
            for field_name in ("states", "actions", "rewards"):
                if field_name not in rec:
                    raise DataError(f"{trajectories_path}:{lineno}: missing field {field_name!r}")
            unknown = set(rec) - {"states", "actions", "rewards"}
            if unknown:
                raise DataError(
                    f"{trajectories_path}:{lineno}: unknown field {sorted(unknown)[0]!r}")
            states = np.asarray(rec["states"], dtype=float)
            actions = np.asarray(rec["actions"])
            rewards = np.asarray(rec["rewards"], dtype=float)
            if states.shape != (horizon, d_s):
                raise DataError(
                    f"{trajectories_path}:{lineno}: field 'states' has shape "
                    f"{states.shape}, expected ({horizon}, {d_s})")
            if actions.shape != (horizon,):
                raise DataError(
                    f"{trajectories_path}:{lineno}: field 'actions' must have length {horizon}")
            if not np.issubdtype(actions.dtype, np.integer):
                raise DataError(f"{trajectories_path}:{lineno}: field 'actions' must be integers")
            if rewards.shape != (horizon,):
                raise DataError(
                    f"{trajectories_path}:{lineno}: field 'rewards' must have length {horizon}")
            trajectories.append(Trajectory(states, actions.astype(np.int64), rewards))
    if not trajectories:
        raise DataError(f"{trajectories_path}: no trajectories")
    return BatchDataset.from_trajectories(
        trajectories, table, header["reward_bound"], normalize=header["normalize"])
