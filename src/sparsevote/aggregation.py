"""Server-side aggregation of worker messages.

Majority vote over a round's SignBatch (sign of the per-coordinate tally,
ties yield zero and therefore no update), participation counting, and plain
averaging for the full-precision baselines.  The vote is two bincounts over
the batch's indices, all votes and the positive ones: two passes, not M.
Full sign vectors (SIGNSGD_MV) are voted as dense (M, N) int8 rows: a sum
and a nonzero count down the rows, with no index array.  A VoteResult keeps
only the tallies and the participation counts; its direction, union and
dimension are read from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _checks
from .compression import SignBatch, SparseSignVector

__all__ = ["VoteResult", "majority_vote", "participation_count", "average_aggregate"]


@dataclass(frozen=True)
class VoteResult:
    """Outcome of one majority vote: what the vote counted.

    tallies holds the raw per-coordinate sign sums, counts the number of
    messages holding each coordinate (its participation count).  The rest
    is derived when it is read: dim, the length of tallies; ternary, the
    dense {-1, 0, +1} update direction sgn(tallies), as int8; and
    union_support, the sorted indices that received at least one vote.
    """

    tallies: np.ndarray
    counts: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.tallies)

    @property
    def ternary(self) -> np.ndarray:
        return np.sign(self.tallies, out=np.empty(self.dim, dtype=np.int8), casting="unsafe")

    @property
    def union_support(self) -> np.ndarray:
        return np.flatnonzero(self.counts)

    def nonzero_message(self) -> SparseSignVector:
        """The vote as a sparse sign message (tied coordinates dropped)."""
        ternary = self.ternary
        keep = np.flatnonzero(ternary)
        return SparseSignVector(self.dim, keep, ternary[keep])


def majority_vote(msgs: SignBatch | list[SparseSignVector] | np.ndarray, dim: int) -> VoteResult:
    """Coordinate-wise sign of the summed sign messages: a batch, a list of
    them, or (M, dim) int8 rows of dense signs in {-1, 0, +1} (0: no vote)."""
    _checks.count(dim, "dim", "non-negative")
    if not (isinstance(msgs, (SignBatch, np.ndarray))
            or isinstance(msgs, (list, tuple)) and all(isinstance(v, SparseSignVector) for v in msgs)):
        raise ValueError(f"msgs must be a SignBatch, a list of SparseSignVector or (M, {dim}) int8 rows, got {msgs!r}")
    if isinstance(msgs, np.ndarray):
        if msgs.dtype != np.int8 or msgs.ndim != 2 or msgs.shape[1] != dim:
            raise ValueError(f"dense sign rows must be an (M, {dim}) int8 array, got {msgs.dtype} {msgs.shape}")
        if msgs.size and (msgs.min() < -1 or msgs.max() > 1):
            raise ValueError("dense sign rows must hold -1, 0 and +1")
        counts = np.count_nonzero(msgs, axis=0)
        tallies = msgs.sum(axis=0, dtype=np.int64)
    else:
        batch = msgs if isinstance(msgs, SignBatch) else SignBatch.stack(msgs, dim)
        if batch.dim != dim:
            raise ValueError(f"the messages have dim {batch.dim}, expected {dim}")
        counts = np.bincount(batch.indices, minlength=dim)
        # The positive votes less the negative ones, all in int64 arrays updated
        # in place: at N = 1e5 each fresh (N,) array costs more than its pass.
        tallies = np.bincount(batch.indices[batch.signs > 0], minlength=dim)
        tallies *= 2
        tallies -= counts
    return VoteResult(tallies, counts)


def participation_count(supports, dim: int) -> np.ndarray:
    """How many of the index sets hold each coordinate (0 outside their union).

    Each support (an item or row) holds strictly increasing coordinate
    indices in [0, dim), as every selector gives them; one that repeats an
    index, which would count its worker twice, is refused.
    """
    _checks.count(dim, "dim", "non-negative")
    # Each support on its own: numpy reads an empty list as float64, and
    # concatenated with integer supports it would make them all float.
    try:
        checked = [_checks.indices(support, "supports", dim, f"dim={dim}") for support in supports]
    except TypeError:  # not iterable
        checked = None
    if checked is None or any(support.ndim != 1 for support in checked):
        raise ValueError(f"supports must be a list of 1-D index arrays or an (M, K) array, got {supports!r}")
    supports = checked
    if any(np.count_nonzero(np.diff(support) <= 0) for support in supports):
        raise ValueError("supports must each hold strictly increasing indices")
    return np.bincount(np.concatenate([np.empty(0, np.int64), *supports]), minlength=dim)


def average_aggregate(grads) -> np.ndarray:
    """Mean of dense gradient vectors (full-precision baselines), a list of
    them or the rows of an (M, N) array."""
    stacked = np.asarray(grads, dtype=np.float64)  # ValueError if their shapes differ
    if stacked.ndim != 2 or not len(stacked):
        raise ValueError(f"average_aggregate needs one or more gradient vectors, got shape {stacked.shape}")
    return stacked.mean(axis=0)
