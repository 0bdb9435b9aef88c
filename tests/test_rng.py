"""The block-derived worker streams and draws against numpy's own.

WorkerStreams runs SeedSequence's hash and PCG64's seeding step as array
passes over a block of (worker, round) pairs; worker_rngs re-seeds the run's
generators in place.  Every state must equal worker_rng's, the reference.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sparsevote import rng
from sparsevote.rng import WorkerStreams, worker_rng, worker_rngs
from sparsevote.simulator import ExperimentConfig


def state(generator) -> dict:
    return generator.bit_generator.state


def assert_rounds_match(seed, workers, rounds, order):
    streams = WorkerStreams(seed, workers, rounds)
    for t in order:
        generators = worker_rngs(streams, t)
        assert len(generators) == workers
        for m, generator in enumerate(generators):
            assert state(generator) == state(worker_rng(seed, m, t)), (seed, m, t)


@given(
    seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64), st.integers(2**64, 2**128)),
    workers=st.integers(1, 5),
    rounds=st.integers(1, 4),
)
@example(seed=0, workers=3, rounds=2)
@example(seed=2**32 - 1, workers=3, rounds=2)
@example(seed=2**32, workers=3, rounds=2)
@example(seed=2**40 + 5, workers=2, rounds=2)
@example(seed=2**64 + 3, workers=2, rounds=2)
@example(seed=2**100 + 12345, workers=2, rounds=2)
@example(seed=2**128, workers=2, rounds=2)
def test_states_equal_worker_rng_for_seeds_of_any_word_count(seed, workers, rounds):
    assert_rounds_match(seed, workers, rounds, range(rounds))


@pytest.mark.parametrize("block_streams, workers", [(1, 3), (6, 3), (7, 2), (8, 4)])
def test_states_equal_worker_rng_across_block_boundaries(monkeypatch, block_streams, workers):
    monkeypatch.setattr(rng, "_BLOCK_STREAMS", block_streams)
    rounds = 7
    # Forward through every boundary, then back to an earlier block and on.
    assert_rounds_match(11, workers, rounds, [*range(rounds), 0, 5, 2, 6])


def test_a_block_ends_at_the_last_round(monkeypatch):
    monkeypatch.setattr(rng, "_BLOCK_STREAMS", 10)
    streams = WorkerStreams(3, 2, 7)
    worker_rngs(streams, 4)
    assert len(streams._states) == 2 * 3  # rounds 4, 5 and 6
    worker_rngs(streams, 0)
    assert len(streams._states) == 2 * 5


def test_a_buffered_uint32_is_dropped_on_reseeding():
    streams = WorkerStreams(5, 2, 3)
    for generator in worker_rngs(streams, 0):
        generator.integers(0, 2**32, size=3, dtype=np.uint32)  # an odd count leaves one buffered
        assert state(generator)["has_uint32"] == 1
    for m, generator in enumerate(worker_rngs(streams, 1)):
        fresh = worker_rng(5, m, 1)
        np.testing.assert_array_equal(
            generator.integers(0, 2**32, size=5, dtype=np.uint32), fresh.integers(0, 2**32, size=5, dtype=np.uint32)
        )
        assert generator.standard_normal(4).tobytes() == fresh.standard_normal(4).tobytes()


@pytest.mark.parametrize("draw", [
    lambda g: g.integers(0, 5),
    lambda g: g.integers(0, 160, size=3),
    lambda g: g.integers(0, 2**32, size=1, dtype=np.uint32),
    lambda g: g.integers(0, 1, size=4),
    lambda g: g.random(3),
], ids=["one bounded", "three bounded", "one uint32", "bound 1", "doubles"])
def test_a_generator_left_by_any_draw_is_reseeded_to_worker_rngs_whole_state(draw):
    # The whole state, the uint32 buffer and its spent value included.
    streams = WorkerStreams(8, 3, 2)
    for generator in worker_rngs(streams, 0):
        draw(generator)
    for m, generator in enumerate(worker_rngs(streams, 1)):
        assert state(generator) == state(worker_rng(8, m, 1)), m


def test_the_last_round_of_2_32_is_exact():
    # Round 2**32 - 1 is the last round index of one entropy word.
    assert_rounds_match(2**32 + 5, 2, 2**32, [2**32 - 1, 2**32 - 600])


def test_more_than_2_32_workers_are_refused_by_name():
    with pytest.raises(ValueError, match="workers must be at most 4294967296"):
        WorkerStreams(0, 2**32 + 1, 1)


def test_more_than_2_32_rounds_are_refused_by_name():
    with pytest.raises(ValueError, match="^rounds must be at most 4294967296, got 4294967297$"):
        WorkerStreams(0, 2, 2**32 + 1)


def test_a_config_of_more_than_2_32_rounds_is_refused_by_name():
    with pytest.raises(ValueError, match="^t must be at most 4294967296, got 4294967297$"):
        ExperimentConfig(algorithm="S3GD_MV", m=2, t=2**32 + 1)


@pytest.mark.parametrize("t", [-1, 3])
def test_a_round_outside_the_run_is_refused(t):
    message = {-1: "must be non-negative, got -1", 3: "must be at most 2, got 3"}[t]
    with pytest.raises(ValueError, match=f"^round index {message}$"):
        worker_rngs(WorkerStreams(0, 2, 3), t)


def test_a_negative_seed_is_refused():
    with pytest.raises(ValueError, match="master_seed must be non-negative"):
        WorkerStreams(-1, 2, 3)


def test_the_generators_are_reused_in_place():
    streams = WorkerStreams(0, 3, 2)
    first = worker_rngs(streams, 0)
    assert [id(g) for g in worker_rngs(streams, 1)] == [id(g) for g in first]

