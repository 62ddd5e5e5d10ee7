import json

import numpy as np
import pytest

from sblq.data import BatchDataset


def make_dataset(n=6, horizon=3, d_s=4, d_a=3, n_actions=5, seed=0,
                 reward_bound=2.0, normalize=True):
    """Small valid dataset with Gaussian features and bounded rewards."""
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((n_actions, d_a))
    draws = [(rng.standard_normal((horizon, d_s)), rng.integers(0, n_actions, size=horizon),
              rng.uniform(-1.0, 1.0, size=horizon)) for _ in range(n)]
    states, actions, rewards = (np.stack(column) for column in zip(*draws))
    return BatchDataset(states=states, actions=actions, rewards=rewards, action_table=table,
                        reward_bound=reward_bound, normalize=normalize)


def per_record_jsonl(dataset):
    """Reference trajectories writer: one ``json.dumps`` of each record."""
    return "".join(json.dumps({"states": dataset.states[i].tolist(),
                               "actions": dataset.actions[i].tolist(),
                               "rewards": dataset.rewards[i].tolist()}) + "\n"
                   for i in range(len(dataset)))


@pytest.fixture
def small_dataset():
    return make_dataset()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
