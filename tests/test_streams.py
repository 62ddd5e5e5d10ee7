"""EpisodeStreams against numpy, the oracle: seeding, every draw of 1,000 a1
episodes, and the ziggurat tables re-derived from the installed numpy."""
import numpy as np
import pytest

from sblq import streams
from sblq.envs import A1_ENV
from sblq.streams import EpisodeStreams, spawn_states

pytestmark = pytest.mark.filterwarnings("error")  # a uint64 overflow or cast warns

MASK64 = 2**64 - 1


def pcg64_state(stream: EpisodeStreams, i: int):
    return (int(stream.hi[i]) << 64 | int(stream.lo[i]),
            int(stream.inc_hi[i]) << 64 | int(stream.inc_lo[i]))


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**70 + 3, 2**130 + 7])
def test_child_seeding_matches_seed_sequence(seed):
    n = 40
    children = np.random.SeedSequence(seed).spawn(n)
    want = np.array([c.generate_state(4, np.uint64) for c in children])
    got = spawn_states(seed, n)
    assert got.dtype == np.uint64 and got.shape == (n, 4)
    np.testing.assert_array_equal(got, want)
    batch = EpisodeStreams(seed, n)
    for i, child in enumerate(children):
        state = np.random.PCG64(child).state["state"]
        assert pcg64_state(batch, i) == (state["state"], state["inc"])


def test_negative_seed_rejected_as_numpy_does():
    with pytest.raises(ValueError, match="non-negative"):
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError, match="non-negative"):
        spawn_states(-1, 3)


@pytest.mark.parametrize("n", [0, 1])
def test_empty_and_single_batches(n):
    batch = EpisodeStreams(3, n)
    refs = [np.random.default_rng(c) for c in np.random.SeedSequence(3).spawn(n)]
    for _ in range(3):
        np.testing.assert_array_equal(batch.integers(30), [g.integers(30) for g in refs])
        np.testing.assert_array_equal(batch.doubles(), [g.random() for g in refs])
        np.testing.assert_array_equal(batch.normals(), [g.standard_normal() for g in refs])


def test_a1_episode_draws_match_numpy_per_episode():
    # the draw order of 1,000 logged a1 episodes: user, video, then per stage
    # the action, u and e; every draw is compared, and the slow path of the
    # ziggurat (a normal that takes more than one word) must have been taken
    n, seed, spec = 1000, 0, A1_ENV
    batch = EpisodeStreams(seed, n)
    refs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n)]
    np.testing.assert_array_equal(batch.integers(spec.n_users),
                                  [g.integers(spec.n_users) for g in refs])
    np.testing.assert_array_equal(batch.integers(spec.n_actions),
                                  [g.integers(spec.n_actions) for g in refs])
    step = streams.MULTIPLIER
    slow = 0
    for _ in range(spec.horizon):
        np.testing.assert_array_equal(batch.integers(spec.n_actions),
                                      [g.integers(spec.n_actions) for g in refs])
        np.testing.assert_array_equal(batch.doubles(), [g.random() for g in refs])
        want = []
        for g in refs:
            before = g.bit_generator.state["state"]
            want.append(g.standard_normal())
            one_word = (before["state"] * step + before["inc"]) % 2**128
            slow += g.bit_generator.state["state"]["state"] != one_word
        np.testing.assert_array_equal(batch.normals(), want)
    assert slow > 0
    for i, g in enumerate(refs):
        state = g.bit_generator.state
        assert pcg64_state(batch, i) == (state["state"]["state"], state["state"]["inc"])
        assert bool(batch.has_half[i]) == bool(state["has_uint32"])


def craft(bitgen, word: int) -> int:
    """Set ``bitgen`` to a state whose next output is ``word``; return the
    state after that output.  A post-step state with high half 0 is not
    rotated, so its output is its low half."""
    after, inc = word, 1
    before = (after - inc) * pow(streams.MULTIPLIER, -1, 2**128) % 2**128
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": before, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    return after


def test_ziggurat_tables_match_installed_numpy():
    # the word rabs << 9 | sign << 8 | idx: wi[idx] is the normal drawn at
    # rabs = 1, and ki[idx] the smallest rabs that takes a second word
    gen = np.random.Generator(np.random.PCG64(0))
    wi, ki = [], []
    for idx in range(256):
        craft(gen.bit_generator, 1 << 9 | idx)
        wi.append(gen.standard_normal())
        lo, hi = 0, 2**52
        while lo < hi:
            mid = (lo + hi) // 2
            after = craft(gen.bit_generator, mid << 9 | idx)
            gen.standard_normal()
            if gen.bit_generator.state["state"]["state"] != after:
                hi = mid
            else:
                lo = mid + 1
        ki.append(lo)
    assert ki[1] == 0
    assert wi == list(streams._WI)
    assert ki == list(streams._KI)
