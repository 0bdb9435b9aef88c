"""Bit-exact wire format for sparse sign messages, plus cost accounting.

Wire layout for a message over N coordinates, big-endian within each field:

    [count : Wc bits] ( [gap : Wi bits] [sign : 1 bit] ) * count

    Wc = ceil(log2(N + 1))      number of entries, 0..N
    Wi = ceil(log2 N)           per-entry index field (0 bits when N = 1)

Indices are strictly increasing and gap coded: the first field holds the
first index itself, each later field holds (index - previous_index - 1).
Sign bit 1 encodes +1, 0 encodes -1.  Decoding consumes exactly bit_len
bits; truncated or overlong streams and any reconstructed index >= N raise
FormatError.  Encoding is lossless: decode(encode(v), N) == v.

Both directions handle the entries as one (count, Wi + 1) bit matrix, packed
and unpacked with numpy.  Indices are int64, so N is at most 2**63.

The analytic cost helpers mirror the standard per-round budgets used to
compare algorithms:

    uplink   K + K * log2(N / K)            bits per sparse sign message
    downlink |U| + |U| * log2(N / |U|)      bits per vote over union U,
                                            capped at the N-bit dense form

and total_cost_bits composes them into whole-run totals for each algorithm.
CommLedger keeps a round-by-round record of bits and exports it as CSV.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .compression import SparseSignVector

__all__ = [
    "FormatError",
    "Bitstream",
    "count_field_width",
    "index_field_width",
    "encode_sparse_sign",
    "decode_sparse_sign",
    "analytic_uplink_bits",
    "analytic_downlink_bits",
    "analytic_round_cost",
    "total_cost_bits",
    "CommLedger",
    "ALGORITHMS",
    "SPARSE_ALGORITHMS",
]

ALGORITHMS = ("VANILLA_SGD", "TOPK_SGD_MEM", "SIGNSGD_MV", "S3GD_MV", "S3GD_MV_RANDK")
# Sign algorithms whose uplink messages are sparse (wire-encodable here).
SPARSE_ALGORITHMS = frozenset({"S3GD_MV", "S3GD_MV_RANDK"})

FLOAT_BITS = 32


class FormatError(ValueError):
    """Malformed wire stream: truncated, overlong, or invalid field value."""


@dataclass(frozen=True)
class Bitstream:
    """bit_len bits packed MSB-first into bytes (final byte zero padded)."""

    data: bytes
    bit_len: int

    def __post_init__(self):
        if self.bit_len < 0:
            raise ValueError(f"bit_len must be non-negative, got {self.bit_len}")
        if len(self.data) != (self.bit_len + 7) // 8:
            raise ValueError(
                f"data holds {len(self.data)} bytes but bit_len {self.bit_len} "
                f"needs {(self.bit_len + 7) // 8}"
            )


def count_field_width(dim: int) -> int:
    """Bits needed for an entry count in [0, dim]."""
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    return dim.bit_length()


def index_field_width(dim: int) -> int:
    """Bits needed for an index or gap in [0, dim - 1] (0 when dim == 1)."""
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    return (dim - 1).bit_length()


def _widths(dim: int) -> tuple[int, int]:
    """(Wc, Wi) for dim; decoded indices are int64, which caps dim at 2**63."""
    if dim > 1 << 63:
        raise ValueError(f"dim must be at most 2**63, got {dim}")
    return count_field_width(dim), index_field_width(dim)


def _field_bits(values, width: int) -> np.ndarray:
    """One row of width bits per value, most significant bit first."""
    octets = np.asarray(values, dtype=">u8").reshape(-1, 1).view(np.uint8)
    return np.unpackbits(octets, axis=1)[:, 64 - width:]


def _field_values(bits: np.ndarray) -> np.ndarray:
    """Inverse of _field_bits: the uint64 value of each row (last axis) of bits."""
    return bits @ (np.uint64(1) << np.arange(bits.shape[-1] - 1, -1, -1, dtype=np.uint64))


def encode_sparse_sign(v: SparseSignVector) -> Bitstream:
    """Serialize a sparse sign message to its wire form."""
    wc, wi = _widths(v.dim)
    gaps = v.indices - np.concatenate(([-1], v.indices[:-1])) - 1
    entries = np.column_stack([_field_bits(gaps, wi), v.signs > 0])
    bits = np.concatenate([_field_bits(len(v), wc)[0], entries.ravel()])
    return Bitstream(np.packbits(bits).tobytes(), bits.size)


def decode_sparse_sign(stream: Bitstream, dim: int) -> SparseSignVector:
    """Parse a wire stream back into the message; FormatError if malformed."""
    wc, wi = _widths(dim)
    bits = np.unpackbits(np.frombuffer(stream.data, dtype=np.uint8), count=stream.bit_len)
    if bits.size < wc:
        raise FormatError(f"truncated stream: needed {wc} count bits, have {bits.size}")
    count = int(_field_values(bits[:wc]))
    if count > dim:
        raise FormatError(f"count field {count} exceeds dim {dim}")
    needed = wc + count * (wi + 1)
    if bits.size != needed:
        kind = "truncated" if bits.size < needed else "overlong"
        raise FormatError(f"{kind} stream: {count} entries need {needed} bits, have {bits.size}")
    entries = bits[wc:].reshape(count, wi + 1)
    # Exact in uint64 up to the first index at or past dim: that one is at most
    # (dim - 1) + 2**Wi < 2**64, so the check below cannot miss a wrap.
    indices = np.cumsum(_field_values(entries[:, :wi]) + 1) - 1
    bad = np.flatnonzero(indices >= dim)
    if bad.size:
        raise FormatError(f"entry {bad[0]}: index {indices[bad[0]]} out of range for dim {dim}")
    return SparseSignVector(dim, indices.astype(np.int64), entries[:, wi].astype(np.int8) * 2 - 1)


def analytic_uplink_bits(dim: int, k: int) -> float:
    """Nominal bits for one K-sparse sign message: K + K * log2(N / K)."""
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if not 0 <= k <= dim:
        raise ValueError(f"k must be in [0, {dim}], got {k}")
    if k == 0:
        return 0.0
    return k + k * math.log2(dim / k)


def analytic_downlink_bits(union_size: int, dim: int) -> float:
    """Nominal bits to broadcast a vote over a union of the given size.

    Same index-coding budget as the uplink, capped at the N-bit dense sign
    form a server would fall back to for near-full unions.
    """
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if not 0 <= union_size <= dim:
        raise ValueError(f"union_size must be in [0, {dim}], got {union_size}")
    if union_size == 0:
        return 0.0
    return min(union_size + union_size * math.log2(dim / union_size), float(dim))


def analytic_round_cost(algorithm: str, m: int, dim: int, k: int) -> tuple[float, float]:
    """Per-round (uplink, downlink) bit budget across all M workers."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if algorithm == "VANILLA_SGD":
        return FLOAT_BITS * m * dim, FLOAT_BITS * m * dim
    if algorithm == "TOPK_SGD_MEM":
        if not 0 <= k <= dim:
            raise ValueError(f"k must be in [0, {dim}], got {k}")
        index_bits = k * math.log2(dim / k) if k else 0.0
        return m * (FLOAT_BITS * k + index_bits), FLOAT_BITS * m * dim
    if algorithm == "SIGNSGD_MV":
        return float(m * dim), float(m * dim)
    # S3GD_MV and its random-K variant share the same message format.
    return m * analytic_uplink_bits(dim, k), float(m * dim)


def total_cost_bits(
    algorithm: str,
    m: int,
    dim: int,
    k: int,
    t: int,
    per_round_unions: list[int] | None = None,
) -> float:
    """Whole-run communication total under the analytic per-round budgets.

    For the sparse vote algorithms, per_round_unions (one vote-union size per
    round) tightens the downlink from the dense N-bit fallback to the
    index-coded broadcast actually needed each round.
    """
    if t < 1:
        raise ValueError(f"t must be positive, got {t}")
    up, down = analytic_round_cost(algorithm, m, dim, k)
    if per_round_unions is not None:
        if algorithm not in SPARSE_ALGORITHMS:
            raise ValueError(f"per-round unions only apply to {sorted(SPARSE_ALGORITHMS)}")
        if len(per_round_unions) != t:
            raise ValueError(f"expected {t} union sizes, got {len(per_round_unions)}")
        down_total = m * sum(analytic_downlink_bits(u, dim) for u in per_round_unions)
        return up * t + down_total
    return (up + down) * t


class CommLedger:
    """Round-by-round record of bits spent, uplink and downlink."""

    def __init__(self, algorithm: str):
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        self.algorithm = algorithm
        self.rounds: list[tuple[int, float, float]] = []

    def record(self, round_index: int, uplink_bits: float, downlink_bits: float) -> None:
        if uplink_bits < 0 or downlink_bits < 0:
            raise ValueError(
                f"negative bit count at round {round_index}: "
                f"({uplink_bits}, {downlink_bits})"
            )
        self.rounds.append((round_index, float(uplink_bits), float(downlink_bits)))

    @property
    def uplink_total(self) -> float:
        return sum(r[1] for r in self.rounds)

    @property
    def downlink_total(self) -> float:
        return sum(r[2] for r in self.rounds)

    @property
    def cumulative_bits(self) -> float:
        return self.uplink_total + self.downlink_total

    def export_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "algorithm", "uplink_bits", "downlink_bits", "cumulative_bits"])
            running = 0.0
            for rnd, up, down in self.rounds:
                running += up + down
                writer.writerow([rnd, self.algorithm, up, down, running])
