"""Gradient compression operators and the sign messages they produce.

Magnitude top-K selection with a deterministic tie rule, sign quantization
of the selected coordinates, uniform random-K selection, and the error
feedback step that carries unsent mass forward.  A SparseSignVector is one
message, a SignBatch a round's M messages back to back, checked alike.

Top-K selection is one exact routine over a block of rows of |u|: one
``partition`` along the rows finds each row's K-th magnitude and one
``flatnonzero(|u| >= kth)`` the supports, ascending.  Ties at the K-th
magnitude go to lower indices.  The error feedback step runs it in place on
workers' memory rows.  A round's uploads are checked once, when
SignBatch.quantize builds their batch from the (M, K) rows of selected
coordinates and values; the vote and the wire lengths read that batch as
it is.  A one-message operator quantizes its support as one such row.

Scalar arguments (dim, k, eta) and the index range go through _checks, the
package's one set of argument checks.  A sign must equal -1 or +1 before
its int8 cast, so 1.5 or 257 is refused, not cast; a NaN value, which has
no sign, is refused, not dropped as a zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import _checks

__all__ = [
    "SparseSignVector",
    "SignBatch",
    "ThresholdReport",
    "top_k_select",
    "top_k_sign",
    "rand_k_select",
    "rand_k_sign",
    "error_feedback_step",
]


def _checked(dim: int, indices, signs, counts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indices, signs, counts) as int64, int8 and int64 arrays, checked to
    hold messages over dim back to back, counts[m] entries in message m."""
    _checks.count(dim, "dim", "non-negative", high=None)
    idx = _checks.indices(indices, "indices", dim, f"dim={dim}")
    sgn = np.asarray(signs)
    if idx.ndim != 1 or sgn.ndim != 1 or idx.size != sgn.size:
        raise ValueError("indices and signs must be 1-D arrays of equal length")
    rows = _checks.indices(counts, "counts")
    if rows.ndim != 1 or np.count_nonzero(rows < 0) or rows.sum() != idx.size:
        raise ValueError(
            f"counts must be non-negative and sum to the {idx.size} entries, got {rows}")
    if idx.size:
        falls = idx[1:] <= idx[:-1]
        # Entry s may fall below entry s - 1 when it starts a message.
        starts = rows.cumsum()
        falls[starts[(starts > 0) & (starts < idx.size)] - 1] = False
        # np.count_nonzero rather than .any(): the method call costs more.
        if np.count_nonzero(falls):
            raise ValueError("indices must be strictly increasing")
        # Checked before the int8 cast, so 1.5 or 257 is not cast to a sign;
        # in int8 abs(-128) stays -128, so only -1 and +1 pass.
        if sgn.dtype.kind not in "iuf" or np.count_nonzero(np.abs(sgn) != 1):
            raise ValueError("signs must be -1 or +1")
    return idx, sgn.astype(np.int8, copy=False), rows


def _equal_fields(self, other) -> bool:
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


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
        for name, value in zip(("indices", "signs"), _checked(
                self.dim, self.indices, self.signs, [np.size(self.indices)])):
            object.__setattr__(self, name, value)

    __eq__ = _equal_fields

    def __len__(self) -> int:
        return int(self.indices.size)

    @property
    def entries(self) -> list[tuple[int, int]]:
        return [(int(n), int(s)) for n, s in zip(self.indices, self.signs)]

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.int8)
        out[self.indices] = self.signs
        return out


@dataclass(frozen=True, eq=False)
class SignBatch:
    """The M sign messages of a round, back to back: message m, batch[m] as
    a SparseSignVector, is the counts[m] entries after those of messages
    0..m-1, so indices may fall only where a message starts.
    """

    dim: int
    indices: np.ndarray
    signs: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        for name, value in zip(("indices", "signs", "counts"), _checked(
                self.dim, self.indices, self.signs, self.counts)):
            object.__setattr__(self, name, value)

    __eq__ = _equal_fields

    @classmethod
    def stack(cls, messages: list[SparseSignVector], dim: int) -> "SignBatch":
        """The messages as one batch; each must be over dim."""
        if not isinstance(messages, (list, tuple)) or not all(isinstance(v, SparseSignVector) for v in messages):
            raise ValueError(f"messages must be a list of SparseSignVector, got {messages!r}")
        for i, v in enumerate(messages):
            if v.dim != dim:
                raise ValueError(f"message {i} has dim {v.dim}, expected {dim}")
        if not messages:
            return cls(dim, [], [], [])
        return cls(dim, np.concatenate([v.indices for v in messages]),
                   np.concatenate([v.signs for v in messages]), [len(v) for v in messages])

    @classmethod
    def quantize(cls, dim: int, supports: np.ndarray, values: np.ndarray) -> "SignBatch":
        """Message m: the signs of values[m] on supports[m], rows of (M, K)
        arrays of one shape, exact zeros (no sign) dropped."""
        supports, values = np.asarray(supports), np.asarray(values)
        if supports.ndim != 2 or values.shape != supports.shape:
            raise ValueError(f"supports and values must be (M, K) arrays of one shape, "
                             f"got {supports.shape} and {values.shape}")
        counts = np.full(len(supports), supports.shape[1])
        indices, values = supports.reshape(-1), values.reshape(-1)
        # A NaN is neither, so its sign is 0 and it is refused below.
        signs = np.subtract(values > 0, values < 0, dtype=np.int8)
        if not signs.all():
            keep = signs != 0
            if np.isnan(values[~keep]).any():
                raise ValueError("values must not hold NaN, which has no sign")
            indices, signs = indices[keep], signs[keep]
            kept = np.concatenate(([0], keep.cumsum()))
            counts = np.diff(kept[np.concatenate(([0], counts.cumsum()))])
        return cls(dim, indices, signs, counts)

    def __len__(self) -> int:
        return int(self.counts.size)

    def __getitem__(self, m: int) -> SparseSignVector:
        m = range(len(self))[m]  # IndexError past either end
        start, end = int(self.counts[:m].sum()), int(self.counts[:m + 1].sum())
        return SparseSignVector(self.dim, self.indices[start:end], self.signs[start:end])


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


def _top_k_rows(mags: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(flat, columns, part): each C-contiguous row's k largest, ties to lower
    indices, as ascending positions in mags.ravel() and as (R, k) columns; for
    0 < k < N column N - k of part, a partitioned copy, holds the k-th."""
    r, n = mags.shape
    if k in (0, n):  # nothing to rank
        return np.arange(r * k, dtype=np.int64), np.tile(np.arange(k, dtype=np.int64), (r, 1)), None
    part = mags.copy()
    part.partition(n - k, axis=1)
    kth = part[:, n - k]
    flat = np.flatnonzero(mags >= kth[:, None])
    if r == 1 and flat.size == k:
        return flat, flat.reshape(1, k), part
    offsets = np.arange(0, r * n, n)
    if flat.size == r * k:
        columns = flat.reshape(r, k) - offsets[:, None]
        # Ascending: each row holds k when each run of k starts and ends in it.
        if columns[:, 0].min() >= 0 and columns[:, -1].max() < n:
            return flat, columns, part
    starts = flat.searchsorted(np.append(offsets, r * n))
    surplus = starts[1:] - starts[:-1] - k
    if surplus.min() < 0:
        raise ValueError("cannot rank NaN magnitudes")
    keep = np.ones(flat.size, dtype=bool)
    for i in np.flatnonzero(surplus):  # its last entries tied at the k-th magnitude go
        row = slice(starts[i], starts[i + 1])
        keep[row][np.flatnonzero(mags.ravel()[flat[row]] == kth[i])[-surplus[i]:]] = False
    flat = flat[keep]
    return flat, flat.reshape(r, k) - offsets[:, None], part


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
    _checks.count(k, "k", "non-negative", high=n)
    mags = np.abs(u)
    _, (support,), part = _top_k_rows(mags.reshape(1, n), k)
    if k == 0:
        top = mags.max() if n else 0.0
        return support, ThresholdReport(math.inf, math.inf, float(top))
    if k == n:
        kth = float(mags.min())
        return support, ThresholdReport(kth, kth, 0.0)
    # The partition leaves the N - k smallest magnitudes in front of the
    # k-th largest, so the (k+1)-th largest is the greatest of them.
    kth = float(part[0, n - k])
    kplus1 = float(part[0, : n - k].max())
    return support, ThresholdReport((kth + kplus1) / 2.0, kth, kplus1)


def top_k_sign(u: np.ndarray, k: int) -> SparseSignVector:
    """Signs of the k largest-magnitude coordinates of u."""
    u = np.asarray(u, dtype=np.float64)
    support, _ = top_k_select(u, k)
    return SignBatch.quantize(u.size, support[None], u[support][None])[0]


def rand_k_select(u: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Ascending indices of k coordinates of u drawn uniformly without
    replacement, so each is selected with marginal probability exactly k/N."""
    u = np.asarray(u)
    if u.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {u.shape}")
    _checks.count(k, "k", "non-negative", high=u.size)
    _checks.generator(rng, "rng")
    return np.sort(rng.choice(u.size, size=k, replace=False)).astype(np.int64)


def rand_k_sign(u: np.ndarray, k: int, rng: np.random.Generator) -> SparseSignVector:
    """Signs of k coordinates drawn by rand_k_select."""
    u = np.asarray(u, dtype=np.float64)
    support = rand_k_select(u, k, rng)
    return SignBatch.quantize(u.size, support[None], u[support][None])[0]


def _error_feedback_rows(g_tilde: np.ndarray, memory: np.ndarray, eta: float, k: int):
    """error_feedback_step on each row of (R, N) arrays, unchecked, memory
    C-contiguous and g_tilde its scratch: (columns, sent), each (R, k)."""
    if eta != 1.0:  # x * 1.0 == x exactly, so the product is skipped
        memory *= eta
    memory += g_tilde
    flat, columns, _ = _top_k_rows(np.abs(memory, out=g_tilde), k)
    values = memory.reshape(-1, copy=False)
    sent = values[flat]
    values[flat] = 0.0
    return columns, sent.reshape(columns.shape)


def error_feedback_step(
    g_tilde: np.ndarray, e: np.ndarray, eta: float, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """One worker-side compression step with error accumulation, in place in e.

    e, the worker's float64 error memory, takes g = g_tilde + eta * e less
    its top-k support, so it keeps exactly the mass not selected.  Returns
    (support, sent), sent == g[support], whose signs are the message.
    g_tilde is left as it was.
    """
    g_tilde = np.array(g_tilde, dtype=np.float64)  # a copy: the step's scratch
    if not isinstance(e, np.ndarray) or e.dtype != np.float64:
        raise ValueError("memory must be a float64 array, it is updated in place")
    if g_tilde.shape != e.shape or e.ndim != 1:
        raise ValueError(f"shape mismatch: gradient {g_tilde.shape} vs memory {e.shape}")
    _checks.real(eta, "eta", "non-negative")
    _checks.count(k, "k", "non-negative", high=e.size)
    support, sent = _error_feedback_rows(g_tilde[None], e[None], eta, k)
    return support[0], sent[0]
