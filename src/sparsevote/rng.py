"""Deterministic random-stream derivation.

Every stochastic component draws from a stream derived from the master seed
plus a structural path (stream kind, worker id, round index).  Streams are
independent across paths and reproducible across runs and platforms, which
is what makes whole trajectories bit-identical for a fixed config.

A run's worker streams, one per (worker, round), are the same streams as
worker_rng(seed, m, t), derived a block of rounds at a time: WorkerStreams
runs numpy's SeedSequence hash (O'Neill's seed_seq mixing, whose constants do
not depend on the data) and PCG64's seeding step as array passes over every
(worker, round) pair of the block, and worker_rngs re-seeds the run's M
generators in place each round, so generator m at round t has exactly the
state of worker_rng(seed, m, t).  A run has at most 2**32 workers and 2**32
rounds, so that m and t are one entropy word each.
"""

from __future__ import annotations

import numpy as np

# numpy 2 loads numpy.random on first use; every run draws from it, so it
# loads with the package rather than inside the first task build.
from numpy.random import PCG64, Generator, SeedSequence

from . import _checks

# Namespace tags keep streams for different purposes disjoint even when the
# integer indices collide (e.g. worker 3 vs round 3).
_KIND = {
    "data": 1,
    "partition": 2,
    "init": 3,
    "worker": 4,
}


def derive_rng(master_seed: int, kind: str, *indices: int) -> Generator:
    """Return a Generator for the stream identified by (kind, *indices)."""
    _checks.count(master_seed, "master_seed", "non-negative", high=None)
    if not isinstance(kind, str) or kind not in _KIND:
        raise ValueError(f"unknown stream kind {kind!r}")
    for i, index in enumerate(indices):
        _checks.count(index, f"stream index {i}", "non-negative", high=None)
    entropy = [int(master_seed), _KIND[kind], *map(int, indices)]
    # What np.random.default_rng does with a SeedSequence, without its dispatch.
    return Generator(PCG64(SeedSequence(entropy)))


def worker_rng(master_seed: int, worker_id: int, round_index: int) -> Generator:
    """Per-worker, per-round gradient stream: hash of (seed, worker, round)."""
    return derive_rng(master_seed, "worker", worker_id, round_index)


# numpy's SeedSequence: a pool of 4 uint32 words, hashed with these constants.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1
# A block of WorkerStreams holds about this many streams, whatever the run's length.
_BLOCK_STREAMS = 1024


def _words(n: int) -> list[int]:
    """n as SeedSequence reads an int: little-endian uint32 words, 0 as one word."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _pcg64_states(entropy: list[np.ndarray]) -> list[tuple[int, int]]:
    """(state, inc) of PCG64(SeedSequence(e)) for each column e of entropy.

    entropy[i] holds word i of every column, as a uint32 array; there are at
    least 4 words.  The passes follow SeedSequence's mix_entropy and
    generate_state(4, np.uint64), then pcg64_set_seed, on whole arrays.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state: 8 uint32 words, read pairwise as 4 little-endian uint64.
    hash_const = _INIT_B
    words = np.empty((8, len(entropy[0])), dtype=np.uint64)
    for i in range(8):
        value = pool[i % _POOL] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        words[i] = value ^ (value >> 16)
    seeds = words[0::2] | words[1::2] << np.uint64(32)
    states = []
    for s_high, s_low, i_high, i_low in seeds.T.tolist():
        # pcg64_set_seed: inc = 2 * initseq + 1, then two LCG steps from 0
        # with initstate added in between.
        inc = ((i_high << 64 | i_low) << 1 | 1) & _MASK128
        states.append((((inc + (s_high << 64 | s_low)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


class WorkerStreams:
    """A run's M worker generators and the states worker_rngs gives them.

    The states of rounds [start, start + block) are derived in one pass the
    first time one of those rounds is asked for; a block holds at most
    max(M, _BLOCK_STREAMS) streams and ends at the run's last round.
    """

    def __init__(self, master_seed: int, workers: int, rounds: int):
        _checks.count(master_seed, "master_seed", "non-negative", high=None)
        # A worker id and a round index are one entropy word each, below
        # 2**32, so every stream has the same number of words.
        self.workers = _checks.count(workers, "workers", high=2**32)
        self.rounds = _checks.count(rounds, "rounds", high=2**32)
        self._prefix = [*_words(int(master_seed)), _KIND["worker"]]
        # Placeholders until the first round re-seeds them; sharing one
        # SeedSequence halves what building them costs.
        placeholder = SeedSequence(0)
        self.generators = [Generator(PCG64(placeholder)) for _ in range(workers)]
        # worker_rngs sets each generator to this state with its own (state,
        # inc): a fresh PCG64's, which holds no buffered uint32.
        self._fresh = self.generators[0].bit_generator.state
        self._start, self._states = 0, []

    def _derive(self, start: int) -> None:
        stop = min(self.rounds, start + max(1, _BLOCK_STREAMS // self.workers))
        # Stream (t - start) * M + m is worker m at round t.
        rounds = np.arange(start, stop, dtype=np.uint32)
        size = rounds.size * self.workers
        self._states = _pcg64_states([
            *(np.full(size, word, dtype=np.uint32) for word in self._prefix),
            np.tile(np.arange(self.workers, dtype=np.uint32), rounds.size),
            np.repeat(rounds, self.workers),
        ])
        self._start = start


def worker_rngs(streams: WorkerStreams, round_index: int) -> list[Generator]:
    """The run's M generators, re-seeded in place for round round_index.

    Generator m then draws exactly what worker_rng(seed, m, round_index)
    draws; a half-used uint32 from an earlier round is dropped.
    """
    _checks.count(round_index, "round index", "non-negative", high=streams.rounds - 1)
    m_workers = streams.workers
    offset = (round_index - streams._start) * m_workers
    if not 0 <= offset < len(streams._states):
        streams._derive(round_index)
        offset = 0
    for generator, (state, inc) in zip(streams.generators, streams._states[offset:offset + m_workers]):
        generator.bit_generator.state = {**streams._fresh, "state": {"state": state, "inc": inc}}
    return streams.generators

