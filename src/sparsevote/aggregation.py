"""Server-side aggregation of worker messages.

Majority vote over sparse sign messages (sign of the per-coordinate tally,
ties yield zero and therefore no update), participation counting, and plain
averaging for the full-precision baselines.  Cost is linear in the total
number of message entries; coordinates nobody voted on are never touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compression import SparseSignVector

__all__ = ["VoteResult", "majority_vote", "participation_count", "average_aggregate"]


@dataclass(frozen=True)
class VoteResult:
    """Outcome of one majority vote.

    ternary is the dense {-1, 0, +1} update direction, tallies the raw
    per-coordinate sign sums, union_support the sorted indices that received
    at least one vote.  sgn(tallies) == ternary by construction.
    """

    dim: int
    ternary: np.ndarray
    union_support: np.ndarray
    tallies: np.ndarray

    def nonzero_message(self) -> SparseSignVector:
        """The vote as a sparse sign message (tied coordinates dropped)."""
        keep = np.flatnonzero(self.ternary)
        return SparseSignVector(self.dim, keep, self.ternary[keep])


def _check_dims(msgs: list[SparseSignVector], dim: int) -> None:
    if dim < 0:
        raise ValueError(f"dim must be non-negative, got {dim}")
    for i, m in enumerate(msgs):
        if m.dim != dim:
            raise ValueError(f"message {i} has dim {m.dim}, expected {dim}")


def majority_vote(msgs: list[SparseSignVector], dim: int) -> VoteResult:
    """Coordinate-wise sign of the summed sign messages."""
    _check_dims(msgs, dim)
    tallies = np.zeros(dim, dtype=np.int64)
    for m in msgs:
        tallies[m.indices] += m.signs
    union = np.flatnonzero(participation_count([m.indices for m in msgs], dim))
    ternary = np.sign(tallies).astype(np.int8)
    return VoteResult(dim, ternary, union, tallies)


def participation_count(supports: list[np.ndarray], dim: int) -> np.ndarray:
    """How many of the index sets hold each coordinate (0 outside their union).

    Each support is an array of distinct coordinate indices in [0, dim).
    """
    counts = np.zeros(dim, dtype=np.int64)
    for support in supports:
        counts[support] += 1
    return counts


def average_aggregate(grads: list[np.ndarray]) -> np.ndarray:
    """Mean of dense gradient vectors (full-precision baselines)."""
    if not grads:
        raise ValueError("average_aggregate needs at least one gradient")
    first = np.asarray(grads[0], dtype=np.float64)
    stacked = np.empty((len(grads), first.size))
    for i, g in enumerate(grads):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != first.shape:
            raise ValueError(f"gradient {i} has shape {g.shape}, expected {first.shape}")
        stacked[i] = g
    return stacked.mean(axis=0)
