"""Gradient compression operators.

Magnitude top-K selection with a deterministic tie rule, sign quantization
of the selected coordinates, uniform random-K selection, and the error
feedback step that carries unsent mass forward.  Selection is done by
partial partitioning, not a full sort; ties at the K-th magnitude are broken
toward lower coordinate indices so results are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SparseSignVector",
    "ThresholdReport",
    "top_k_select",
    "top_k_sign",
    "rand_k_sign",
    "error_feedback_step",
]


@dataclass(frozen=True, eq=False)
class SparseSignVector:
    """Ternary message: a set of coordinate indices with their signs.

    indices are strictly increasing int64 positions in [0, dim); signs are
    int8 values in {-1, +1}.  Zero signs are never stored, the absent
    coordinates are implicitly zero.
    """

    dim: int
    indices: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        sgn = np.asarray(self.signs, dtype=np.int8)
        if self.dim < 0:
            raise ValueError(f"dim must be non-negative, got {self.dim}")
        if idx.ndim != 1 or sgn.ndim != 1 or idx.size != sgn.size:
            raise ValueError("indices and signs must be 1-D arrays of equal length")
        if idx.size:
            if idx[0] < 0 or idx[-1] >= self.dim:
                raise ValueError(f"indices out of range for dim={self.dim}")
            if np.any(np.diff(idx) <= 0):
                raise ValueError("indices must be strictly increasing")
            if np.any(np.abs(sgn) != 1):
                raise ValueError("signs must be -1 or +1")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "signs", sgn)

    def __len__(self) -> int:
        return int(self.indices.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseSignVector):
            return NotImplemented
        return (
            self.dim == other.dim
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.signs, other.signs)
        )

    @property
    def entries(self) -> list[tuple[int, int]]:
        return [(int(n), int(s)) for n, s in zip(self.indices, self.signs)]

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.int8)
        out[self.indices] = self.signs
        return out


@dataclass(frozen=True)
class ThresholdReport:
    """Diagnostics for one top-K selection.

    rho is a magnitude threshold separating kept from dropped coordinates:
    the midpoint of the K-th and (K+1)-th largest magnitudes for 0 < K < N,
    the K-th magnitude itself when K = N, and +inf when K = 0 (nothing
    kept).  On tie-free input kplus1_mag < rho <= kth_mag.
    """

    rho: float
    kth_mag: float
    kplus1_mag: float


def top_k_select(u: np.ndarray, k: int) -> tuple[np.ndarray, ThresholdReport]:
    """Indices of the k largest-magnitude coordinates of u, plus threshold info.

    Ties at the boundary magnitude are resolved toward lower indices, so the
    result matches a stable sort by (descending magnitude, ascending index).
    Returned indices are sorted ascending.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {u.shape}")
    n = u.size
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    mags = np.abs(u)
    if k == 0:
        top = mags.max() if n else 0.0
        return np.empty(0, dtype=np.int64), ThresholdReport(math.inf, math.inf, float(top))
    if k == n:
        kth = float(mags.min())
        return np.arange(n, dtype=np.int64), ThresholdReport(kth, kth, 0.0)

    part = np.argpartition(mags, n - k)[n - k:]
    kth = float(mags[part].min())
    above = np.flatnonzero(mags > kth)
    short = k - above.size
    if short:
        tied = np.flatnonzero(mags == kth)
        support = np.concatenate([above, tied[:short]])
        kplus1 = kth if tied.size > short else float(mags[mags < kth].max())
    else:
        support = above
        kplus1 = kth
    support = np.sort(support).astype(np.int64)
    return support, ThresholdReport((kth + kplus1) / 2.0, kth, kplus1)


def _sign_message(u: np.ndarray, support: np.ndarray) -> SparseSignVector:
    # sgn maps to {-1, 0, +1}; exact zeros carry no sign and are dropped.
    signs = np.sign(u[support]).astype(np.int8)
    keep = signs != 0
    return SparseSignVector(u.size, support[keep], signs[keep])


def top_k_sign(u: np.ndarray, k: int) -> SparseSignVector:
    """Signs of the k largest-magnitude coordinates of u."""
    support, _ = top_k_select(u, k)
    return _sign_message(np.asarray(u, dtype=np.float64), support)


def rand_k_sign(u: np.ndarray, k: int, rng: np.random.Generator) -> SparseSignVector:
    """Signs of k coordinates drawn uniformly without replacement.

    Every coordinate is selected with marginal probability exactly k/N.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {u.shape}")
    if not 0 <= k <= u.size:
        raise ValueError(f"k must be in [0, {u.size}], got {k}")
    support = np.sort(rng.choice(u.size, size=k, replace=False)).astype(np.int64)
    return _sign_message(u, support)


def error_feedback_step(
    g_tilde: np.ndarray, e: np.ndarray, eta: float, k: int
) -> tuple[SparseSignVector, np.ndarray, np.ndarray, np.ndarray]:
    """One worker-side compression step with error accumulation.

    Forms the corrected gradient g = g_tilde + eta * e, emits the sign
    message on its top-k support, and returns the new memory holding exactly
    the mass that was not selected:

        msg, e_next, g, support  with  top_k(g) + e_next == g  coordinate-wise.

    support is the full top-k selection; msg omits its exact zeros, which
    carry no sign.  With eta = 0 the memory is ignored and e_next depends on
    g_tilde alone.
    """
    g_tilde = np.asarray(g_tilde, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    if g_tilde.shape != e.shape:
        raise ValueError(f"shape mismatch: gradient {g_tilde.shape} vs memory {e.shape}")
    if eta < 0:
        raise ValueError(f"eta must be non-negative, got {eta}")
    g = g_tilde + eta * e
    support, _ = top_k_select(g, k)
    msg = _sign_message(g, support)
    e_next = g.copy()
    e_next[support] = 0.0
    return msg, e_next, g, support
