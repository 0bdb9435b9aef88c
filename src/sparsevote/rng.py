"""Deterministic random-stream derivation.

Every stochastic component draws from a stream derived from the master seed
plus a structural path (stream kind, worker id, round index).  Streams are
independent across paths and reproducible across runs and platforms, which
is what makes whole trajectories bit-identical for a fixed config.
"""

from __future__ import annotations

# numpy 2 loads numpy.random on first use; every run draws from it, so it
# loads with the package rather than inside the first task build.
from numpy.random import PCG64, Generator, SeedSequence

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
    if master_seed < 0:
        raise ValueError(f"master_seed must be non-negative, got {master_seed}")
    if kind not in _KIND:
        raise ValueError(f"unknown stream kind {kind!r}")
    entropy = [int(master_seed), _KIND[kind], *map(int, indices)]
    if min(entropy) < 0:
        raise ValueError(f"stream indices must be non-negative, got {indices}")
    # What np.random.default_rng does with a SeedSequence, without its dispatch.
    return Generator(PCG64(SeedSequence(entropy)))


def worker_rng(master_seed: int, worker_id: int, round_index: int) -> Generator:
    """Per-worker, per-round gradient stream: hash of (seed, worker, round)."""
    return derive_rng(master_seed, "worker", worker_id, round_index)
