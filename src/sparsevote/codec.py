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


class _BitWriter:
    def __init__(self):
        self._bytes = bytearray()
        self._acc = 0
        self._nacc = 0
        self.bit_len = 0

    def write(self, value: int, width: int) -> None:
        if width == 0:
            return
        if not 0 <= value < (1 << width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._acc = (self._acc << width) | value
        self._nacc += width
        self.bit_len += width
        while self._nacc >= 8:
            self._nacc -= 8
            self._bytes.append((self._acc >> self._nacc) & 0xFF)
        self._acc &= (1 << self._nacc) - 1

    def getvalue(self) -> Bitstream:
        data = bytes(self._bytes)
        if self._nacc:
            data += bytes([(self._acc << (8 - self._nacc)) & 0xFF])
        return Bitstream(data, self.bit_len)


class _BitReader:
    def __init__(self, stream: Bitstream):
        self._data = stream.data
        self._bit_len = stream.bit_len
        self.pos = 0

    def read(self, width: int) -> int:
        if width == 0:
            return 0
        if self.pos + width > self._bit_len:
            raise FormatError(
                f"truncated stream: needed {width} bits at offset {self.pos}, "
                f"have {self._bit_len}"
            )
        value = 0
        for _ in range(width):
            byte = self._data[self.pos >> 3]
            bit = (byte >> (7 - (self.pos & 7))) & 1
            value = (value << 1) | bit
            self.pos += 1
        return value


def encode_sparse_sign(v: SparseSignVector) -> Bitstream:
    """Serialize a sparse sign message to its wire form."""
    w = _BitWriter()
    w.write(len(v), count_field_width(v.dim))
    wi = index_field_width(v.dim)
    prev = -1
    for idx, sgn in zip(v.indices, v.signs):
        w.write(int(idx) - prev - 1, wi)
        w.write(1 if sgn > 0 else 0, 1)
        prev = int(idx)
    return w.getvalue()


def decode_sparse_sign(stream: Bitstream, dim: int) -> SparseSignVector:
    """Parse a wire stream back into the message; FormatError if malformed."""
    r = _BitReader(stream)
    count = r.read(count_field_width(dim))
    if count > dim:
        raise FormatError(f"count field {count} exceeds dim {dim}")
    wi = index_field_width(dim)
    indices = np.empty(count, dtype=np.int64)
    signs = np.empty(count, dtype=np.int8)
    prev = -1
    for j in range(count):
        gap = r.read(wi)
        sign_bit = r.read(1)
        idx = prev + 1 + gap
        if idx >= dim:
            raise FormatError(f"entry {j}: index {idx} out of range for dim {dim}")
        indices[j] = idx
        signs[j] = 1 if sign_bit else -1
        prev = idx
    if r.pos != stream.bit_len:
        raise FormatError(
            f"overlong stream: {stream.bit_len - r.pos} bits left after {count} entries"
        )
    return SparseSignVector(dim, indices, signs)


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
