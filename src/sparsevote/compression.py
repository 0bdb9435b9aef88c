"""Gradient compression operators.

Magnitude top-K selection with a deterministic tie rule, sign quantization
of the selected coordinates, uniform random-K selection, and the error
feedback step that carries unsent mass forward.

Top-K selection is one exact routine.  It finds the K-th largest magnitude
with an in-place ``ndarray.partition`` of a copy of |u|, and takes the
support as ``flatnonzero(|u| >= kth)``, which is already in ascending order,
so neither an index partition nor a sort is needed.  When ties at the K-th
magnitude give more than K candidates, the surplus tied entries are dropped
from the high-index end, so ties go to lower coordinate indices and results
are reproducible.  The error feedback step runs in place in the worker's
memory row: it forms g + eta * e there, reads the signs from it and zeroes
the sent coordinates, so the only (N,) arrays it allocates are |g| and the
partitioned copy, and only the copy when the caller lets it form |g| in
the gradient's own array.
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
            # np.count_nonzero rather than .any(): a message is built for
            # every worker and round, and the method call costs more.
            if np.count_nonzero(idx[1:] <= idx[:-1]):
                raise ValueError("indices must be strictly increasing")
            # Exact in int8: abs(-128) stays -128, so only -1 and +1 pass.
            if np.count_nonzero(np.abs(sgn) != 1):
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


def _top_k_support(mags: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Ascending indices of the k largest entries of mags, ties to lower indices.

    mags holds non-negative magnitudes and 0 <= k <= mags.size.  For 0 < k < N
    the second value is a copy of mags partitioned about position N - k, so
    its element N - k is the k-th largest magnitude; it is None for k = 0 or N.
    """
    n = mags.size
    if k == 0:
        return np.empty(0, dtype=np.int64), None
    if k == n:
        return np.arange(n, dtype=np.int64), None
    part = mags.copy()
    part.partition(n - k)
    support = np.flatnonzero(mags >= part[n - k])
    surplus = support.size - k
    if surplus < 0:
        raise ValueError("cannot rank NaN magnitudes")
    if surplus:
        tied = np.flatnonzero(mags[support] == part[n - k])
        support = np.delete(support, tied[-surplus:])
    return support, part


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
    support, part = _top_k_support(mags, k)
    if k == 0:
        top = mags.max() if n else 0.0
        return support, ThresholdReport(math.inf, math.inf, float(top))
    if k == n:
        kth = float(mags.min())
        return support, ThresholdReport(kth, kth, 0.0)
    # The partition leaves the N - k smallest magnitudes in front of the
    # k-th largest, so the (k+1)-th largest is the greatest of them.
    kth = float(part[n - k])
    kplus1 = float(part[: n - k].max())
    return support, ThresholdReport((kth + kplus1) / 2.0, kth, kplus1)


def _sign_message(dim: int, support: np.ndarray, values: np.ndarray) -> SparseSignVector:
    # sgn maps to {-1, 0, +1}; exact zeros carry no sign and are dropped.
    signs = np.sign(values).astype(np.int8)
    if not signs.all():
        keep = signs != 0
        support, signs = support[keep], signs[keep]
    return SparseSignVector(dim, support, signs)


def top_k_sign(u: np.ndarray, k: int) -> SparseSignVector:
    """Signs of the k largest-magnitude coordinates of u."""
    u = np.asarray(u, dtype=np.float64)
    support, _ = top_k_select(u, k)
    return _sign_message(u.size, support, u[support])


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
    return _sign_message(u.size, support, u[support])


def error_feedback_step(
    g_tilde: np.ndarray, e: np.ndarray, eta: float, k: int, overwrite_g: bool = False
) -> tuple[SparseSignVector, np.ndarray, np.ndarray]:
    """One worker-side compression step with error accumulation, in place in e.

    e is the worker's error memory, a float64 array that the step rewrites:
    it forms the corrected gradient g = g_tilde + eta * e in e, emits the
    sign message on the top-k support of g, and zeroes that support, so e
    ends holding exactly the mass that was not selected:

        msg, support, sent  with  sent == g[support], e[support] == 0 and
        e == g elsewhere.

    support is the full top-k selection; msg omits its exact zeros, which
    carry no sign.  With eta = 0 the old memory is ignored and the new one
    depends on g_tilde alone.  With overwrite_g the step also uses g_tilde's
    array as scratch, which then holds |g| in place of g_tilde.
    """
    g_tilde = np.asarray(g_tilde, dtype=np.float64)
    if not isinstance(e, np.ndarray) or e.dtype != np.float64:
        raise ValueError("memory must be a float64 array, it is updated in place")
    if g_tilde.shape != e.shape or e.ndim != 1:
        raise ValueError(f"shape mismatch: gradient {g_tilde.shape} vs memory {e.shape}")
    if eta < 0:
        raise ValueError(f"eta must be non-negative, got {eta}")
    if not 0 <= k <= e.size:
        raise ValueError(f"k must be in [0, {e.size}], got {k}")
    if eta != 1.0:  # x * 1.0 == x exactly, so the product is skipped
        e *= eta
    e += g_tilde
    support, _ = _top_k_support(np.abs(e, out=g_tilde if overwrite_g else None), k)
    sent = e[support]
    e[support] = 0.0
    return _sign_message(e.size, support, sent), support, sent
