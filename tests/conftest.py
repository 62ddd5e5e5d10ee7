import copy
import json

import numpy as np
import pytest

from sblq.data import BatchDataset
from sblq.learner import stage_of


def make_dataset(n=6, horizon=3, d_s=4, d_a=3, n_actions=5, seed=0,
                 reward_bound=2.0, normalize=True):
    """Small valid dataset with Gaussian features and bounded rewards."""
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((n_actions, d_a))
    draws = [(rng.standard_normal((horizon, d_s)), rng.integers(0, n_actions, size=horizon),
              rng.uniform(-1.0, 1.0, size=horizon)) for _ in range(n)]
    states, actions, rewards = (np.stack(column) for column in zip(*draws))
    return BatchDataset.from_states(states=states, actions=actions, rewards=rewards,
                                    action_table=table, reward_bound=reward_bound,
                                    normalize=normalize)


def reference_scores(states, action_table, theta, normalize=True, mask=None):
    """The (n, A) candidate scores of one theta by the formula the (A, n)
    layout replaced: state part plus action part, over sqrt(|s_i|^2 + |a_j|^2)."""
    s = np.asarray(states, dtype=float)
    a = np.asarray(action_table, dtype=float)
    d_s = s.shape[1]
    if mask is not None:
        m = np.asarray(mask, dtype=float)
        s = s * m[None, :d_s]
        a = a * m[None, d_s:]
    raw = (s @ theta[:d_s])[:, None] + (a @ theta[d_s:])[None, :]
    if not normalize:
        return raw
    sq = np.sum(s**2, axis=1)[:, None] + np.sum(a**2, axis=1)[None, :]
    if np.any(sq == 0.0):
        raise ValueError("cannot normalize an all-zero feature vector")
    return raw / np.sqrt(sq)


def reference_features(state, action, normalize=True, mask=None):
    """One feature vector: the concatenation of ``state`` and ``action``,
    the columns a 0/1 ``mask`` excludes set to 0, unit-normalized if
    ``normalize``."""
    x = np.concatenate([np.asarray(state, dtype=float), np.asarray(action, dtype=float)])
    if mask is not None:
        x = x * np.asarray(mask, dtype=float)
    if normalize:
        norm = np.linalg.norm(x)
        if norm == 0.0:
            raise ValueError("cannot normalize an all-zero feature vector")
        x = x / norm
    return x


def reference_design(dataset, t, mask=None):
    """The (n, d) stage-t design of ``dataset`` built row by row: each
    trajectory's stage-t state and chosen action, by ``reference_features``."""
    states, actions = dataset.states[:, t - 1], dataset.actions[:, t - 1]
    return np.array([reference_features(state, dataset.action_table[action],
                                        dataset.normalize, mask)
                     for state, action in zip(states, actions)])


def design_stage(rows):
    """The ``learner.Stage`` of the (n, k) design ``rows`` itself: each row its
    own state, and no action columns."""
    n = len(rows)
    return stage_of(rows, None, np.arange(n), np.zeros((1, 0)), np.zeros(n, dtype=np.intp))


def stage_rows(stage):
    """The (n, k) features a ``learner.Stage`` stands for, gathered from its parts."""
    return stage.scale[:, None] * np.hstack([stage.states[stage.state_of],
                                             stage.table[stage.action]])


def per_record_jsonl(dataset):
    """Reference trajectories writer: one ``json.dumps`` of each record."""
    return "".join(json.dumps({"states": dataset.states[i].tolist(),
                               "actions": dataset.actions[i].tolist(),
                               "rewards": dataset.rewards[i].tolist()}) + "\n"
                   for i in range(len(dataset)))


# The census mutations of one leaf of a JSON input: a wrong type, true for an
# integer, null, an empty and a one-element list, NaN, 1e308, -1 and 0
LEAF_MUTATIONS = ("x", True, None, [], [1], float("nan"), 1e308, -1, 0)


def leaf_paths(doc, path=()):
    """The key path of each leaf below the root of JSON value ``doc``: every
    value of an object, every array and its first element, descending into
    each of these."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list) and doc:
        items = [(0, doc[0])]
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from leaf_paths(value, path + (key,))


def mutated(doc, path, value):
    """A copy of JSON value ``doc`` with the leaf at key path ``path`` set to
    ``value``."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.fixture
def small_dataset():
    return make_dataset()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
