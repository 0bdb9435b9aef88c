"""Bit-exact wire format for sparse sign messages, the algorithm table and its costs.

Wire layout for a message of K entries over N coordinates, big-endian within
each field:

    [count : Wc bits]
    ( [gap & (2**b - 1) : b bits] [sign : 1 bit] ) * K
    ( 1 * (gap >> b), then 0 ) * K

    Wc = ceil(log2(N + 1))                  entry count K, 0..N
    b  = max(floor(log2((N - K) // K)), 0)  Rice parameter (0 when K = 0)

Indices are strictly increasing and gap coded: the first gap is the first
index itself, each later gap is (index - previous_index - 1).  Each gap is
Golomb-Rice coded: its low b bits sit beside its sign bit in one (K, b + 1)
field matrix, and its quotient gap >> b follows after all K rows, in unary,
as that many ones and a zero.  Both sides compute b from K and N, so the
stream carries no parameter.  Sign bit 1 encodes +1, 0 encodes -1.

A message costs Wc + K*(b + 2) + sum(gap >> b) bits.  The gaps sum to at
most N - K and 2**(b + 1) > (N - K) / K, so the unary section holds fewer
than 2K ones, and a message costs at most

    Wc + min(N + K, K * (log2(N / K) + 4)).

When K > N / 3, b = 0 and the unary section is the support bitmap up to the
last index, with a 0 for each sent coordinate and a 1 for each skipped one,
so no separate dense form is needed.

Decoding consumes exactly bit_len bits.  Data that is not exactly
ceil(bit_len / 8) bytes, truncated or overlong streams, quotients summing
past (N - 1) >> b (so any single quotient above it) and any reconstructed
index >= N raise FormatError.  Encoding is lossless:
decode(encode(v), N) == v.  Both directions work on numpy bit arrays.
Indices are int64, so N is at most 2**63.  A malformed stream is a
FormatError; a malformed argument (N, K, a count, a bit length, M) is the
ValueError of _checks, the package's one set of argument checks.

message_bit_lengths is that cost, written out once: the bit_len
encode_sparse_sign gives each message of a support held back to back, as a
SignBatch holds a round's uploads, each message with its own K and b.
encode_sparse_sign sizes its stream with it, and a WIRE round charges its
uplink and its vote broadcast with it without building a stream.  It checks
N, the counts and the indices once a call, not once a message.

ALGORITHMS is the table of the five algorithms, one (selector, server) row
each: which coordinates a worker sends (all, top-K with error feedback or
random-K) and whether the server votes on signs or averages values.  The
simulator runs a row and analytic_round_cost prices it.  A value costs
w = 32 bits for a mean server and w = 1 bit (a sign) for a vote server, so
per round and worker

    uplink   w * N                          when the worker sends all N
             w * K + K * log2(N / K)        when it sends K of them
    downlink w * N                          the aggregate, one value a
                                            coordinate, to every worker

CommLedger keeps a run's running total of bits; the runs write their
per-round bits with simulator.emit_results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _checks
from .compression import SparseSignVector

__all__ = [
    "FormatError",
    "Bitstream",
    "count_field_width",
    "rice_parameter",
    "message_bit_lengths",
    "encode_sparse_sign",
    "decode_sparse_sign",
    "analytic_round_cost",
    "CommLedger",
    "ALGORITHMS",
]


@dataclass(frozen=True)
class _Rule:
    """One algorithm as data.

    selector is the set of coordinates a worker sends: "all", "topk" or
    "randk".  "topk" is error feedback: the worker keeps an error memory e,
    sends the top-K of g + eta * e and keeps what it did not send as its
    next e.  server is "vote" for a majority vote on the signs of the sent
    coordinates, "mean" for the average of their values.
    """

    selector: str
    server: str


ALGORITHMS = {
    "VANILLA_SGD": _Rule("all", server="mean"),
    "TOPK_SGD_MEM": _Rule("topk", server="mean"),
    "SIGNSGD_MV": _Rule("all", server="vote"),
    "S3GD_MV": _Rule("topk", server="vote"),
    "S3GD_MV_RANDK": _Rule("randk", server="vote"),
}


def _rule(algorithm: str) -> _Rule:
    if not isinstance(algorithm, str) or algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return ALGORITHMS[algorithm]


FLOAT_BITS = 32

_SIGN_OF_BIT = np.array([-1, 1], dtype=np.int8)


class FormatError(ValueError):
    """Malformed wire stream: truncated, overlong, or invalid field value."""


@dataclass(frozen=True)
class Bitstream:
    """bit_len bits packed MSB-first into bytes (final byte zero padded).

    The decoder, not the constructor, checks that data holds exactly
    (bit_len + 7) // 8 bytes, so a stream that does not is a FormatError.
    """

    data: bytes
    bit_len: int

    def __post_init__(self):
        if not isinstance(self.data, (bytes, bytearray)):
            raise ValueError(f"data must be bytes, got {self.data!r}")
        _checks.count(self.bit_len, "bit_len", "non-negative", high=None)


def count_field_width(dim: int) -> int:
    """Bits needed for an entry count in [0, dim]; decoded indices are int64,
    which caps dim at 2**63."""
    return int(_checks.count(dim, "dim", high=1 << 63)).bit_length()


def _rice(count: int, dim: int) -> int:
    """rice_parameter without its checks, for counts already known to be in [0, dim]
    (a numpy integer dim too: int() gives the quotient its bit_length)."""
    return max(int((dim - count) // count).bit_length() - 1, 0) if count else 0


def rice_parameter(count: int, dim: int) -> int:
    """Low-bit width b of each Rice-coded gap: floor(log2((dim - count) // count)), at least 0."""
    _checks.count(dim, "dim", high=None)
    return _rice(_checks.count(count, "count", "non-negative", high=dim), dim)


def _field_bits(values, width: int) -> np.ndarray:
    """One row of width bits per value, most significant bit first."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    return np.asarray(values, dtype=np.uint64).reshape(-1, 1) >> shifts & np.uint64(1)


def _field_values(bits: np.ndarray) -> np.ndarray:
    """Inverse of _field_bits: the uint64 value of each row (last axis) of bits."""
    return bits @ (np.uint64(1) << np.arange(bits.shape[-1] - 1, -1, -1, dtype=np.uint64))


def message_bit_lengths(dim: int, indices, counts) -> np.ndarray:
    """The bit_len encode_sparse_sign gives each message of a support, as int64.

    Message m is the counts[m] indices after those of messages 0..m-1, as a
    SignBatch holds them; each message's indices must be integers in
    [0, dim) and strictly increasing, or a ValueError says which is not.  A
    message of K entries costs Wc + K*(b + 2) + sum(gap >> b) bits, with the
    b of its own K.
    """
    wc = count_field_width(dim)
    indices = _checks.indices(indices, "indices", int(dim), f"dim={dim}")
    counts = _checks.indices(counts, "counts", int(dim) + 1, f"dim={dim}")
    if indices.ndim != 1 or counts.ndim != 1:
        raise ValueError(f"indices and counts must be 1-D arrays, got shapes {indices.shape} and {counts.shape}")
    if counts.sum() != indices.size:
        raise ValueError(f"counts must sum to the {indices.size} indices, got {counts}")
    b = np.array([_rice(k, dim) for k in counts.tolist()], dtype=np.int64)
    nonempty = counts > 0
    first = (counts.cumsum() - counts)[nonempty]
    # The gaps: each step less one, and at the start of a message its first index.
    gaps = np.empty_like(indices)
    np.subtract(indices[1:], indices[:-1], out=gaps[1:])
    gaps -= 1
    gaps[first] = indices[first]
    if indices.size and gaps.min() < 0:
        raise ValueError("indices must be strictly increasing within each message")
    gaps >>= np.repeat(b, counts)
    quotients = np.zeros(counts.size, dtype=np.int64)
    quotients[nonempty] = np.add.reduceat(gaps, first)
    return wc + counts * (b + 2) + quotients


def encode_sparse_sign(v: SparseSignVector) -> Bitstream:
    """Serialize a sparse sign message to its wire form."""
    if not isinstance(v, SparseSignVector):
        raise ValueError(f"v must be a SparseSignVector, got {v!r}")
    k, wc, b = len(v), count_field_width(v.dim), _rice(len(v), v.dim)
    bits = np.ones(int(message_bit_lengths(v.dim, v.indices, [k])[0]), dtype=np.uint8)
    gaps = v.indices - np.concatenate(([-1], v.indices[:-1])) - 1
    # Each quotient q is q ones and a zero, so the zeros sit at cumsum(q + 1) - 1
    # within the unary section, which starts after the count and the k rows.
    ends = ((gaps >> b) + 1).cumsum()
    head = wc + k * (b + 1)
    bits[:wc] = _field_bits(k, wc)
    # One (b + 1)-bit row per entry: the gap's low b bits, then the sign bit.
    bits[wc:head].reshape(k, b + 1)[:] = _field_bits(
        (gaps & ((1 << b) - 1)) << 1 | (v.signs > 0), b + 1)
    bits[head - 1 + ends] = 0
    return Bitstream(np.packbits(bits).tobytes(), bits.size)


def _read_header(stream: Bitstream, dim: int, wc: int) -> tuple[int, int]:
    """(count, Rice parameter) of a stream, after every check that needs only
    its length and its count field; FormatError if one fails."""
    if len(stream.data) != (stream.bit_len + 7) // 8:
        raise FormatError(f"{len(stream.data)} bytes cannot hold exactly {stream.bit_len} bits")
    if stream.bit_len < wc:
        raise FormatError(f"truncated stream: needed {wc} count bits, have {stream.bit_len}")
    count = int.from_bytes(stream.data[:(wc + 7) // 8], "big") >> (-wc % 8)
    if count > dim:
        raise FormatError(f"count field {count} exceeds dim {dim}")
    b = _rice(count, dim)
    # Each entry takes its b + 1 row bits and at least the zero of its unary code.
    needed = wc + count * (b + 2)
    if stream.bit_len < needed:
        raise FormatError(f"truncated stream: {count} entries need at least {needed} bits, "
                          f"have {stream.bit_len}")
    # The gaps of a message sum to at most dim - 1, so its quotients sum to at
    # most (dim - 1) >> b.  Checked before any shift: past it, every gap and
    # index fits in uint64, and the indices only grow.
    if stream.bit_len - needed > (dim - 1) >> b:
        raise FormatError(f"{stream.bit_len - needed} bits past the rows and unary zeros, but "
                          f"the quotients for dim {dim} sum to at most {(dim - 1) >> b}")
    return count, b


def _unary_error(zeros: int, count: int) -> FormatError:
    if zeros < count:
        return FormatError(f"truncated stream: {zeros} of {count} unary codes end")
    return FormatError(f"overlong stream: bits follow the last of {count} unary codes")


def _range_error(indices: np.ndarray, dim: int) -> FormatError:
    bad = np.flatnonzero(indices >= dim)[0]
    return FormatError(f"entry {bad}: index {indices[bad]} out of range for dim {dim}")


def decode_sparse_sign(stream: Bitstream, dim: int) -> SparseSignVector:
    """Parse a wire stream back into the message; FormatError if malformed."""
    if not isinstance(stream, Bitstream):
        raise ValueError(f"stream must be a Bitstream, got {stream!r}")
    wc = count_field_width(dim)
    count, b = _read_header(stream, dim, wc)
    bits = np.unpackbits(np.frombuffer(stream.data, dtype=np.uint8), count=stream.bit_len)
    rows = _field_values(bits[wc:wc + count * (b + 1)].reshape(count, b + 1))
    unary = bits[wc + count * (b + 1):]
    ends = np.flatnonzero(unary == 0)
    if ends.size < count or unary.size != (ends[count - 1] + 1 if count else 0):
        raise _unary_error(ends.size, count)
    quotients = ends - np.concatenate(([-1], ends[:-1])) - 1
    gaps = quotients.astype(np.uint64) << np.uint64(b) | rows >> np.uint64(1)
    indices = (gaps + np.uint64(1)).cumsum() - np.uint64(1)
    if count and indices[-1] >= dim:
        raise _range_error(indices, dim)
    return SparseSignVector(dim, indices.view(np.int64), _SIGN_OF_BIT[rows & np.uint64(1)])


def analytic_round_cost(algorithm: str, m: int, dim: int, k: int) -> tuple[float, float]:
    """Per-round (uplink, downlink) bit budget across all M workers.

    A value costs FLOAT_BITS for a mean server and one bit (its sign) for a
    vote server; a worker that sends K of the N coordinates also pays
    K * log2(N / K) bits to say which.  The downlink is one value per
    coordinate to each worker.
    """
    rule = _rule(algorithm)
    _checks.count(m, "m")
    _checks.count(dim, "dim")
    _checks.count(k, "k", "non-negative", high=dim)
    width = FLOAT_BITS if rule.server == "mean" else 1
    if rule.selector == "all":
        up = width * dim
    else:
        up = width * k + k * math.log2(dim / k) if k else 0.0
    return float(m * up), float(m * width * dim)


class CommLedger:
    """The running total of bits spent, uplink plus downlink, added round by round."""

    def __init__(self, algorithm: str):
        _rule(algorithm)
        self.cumulative_bits = 0.0

    def record(self, round_index: int, uplink_bits: float, downlink_bits: float) -> None:
        _checks.real(uplink_bits, f"uplink_bits at round {round_index}", "non-negative")
        _checks.real(downlink_bits, f"downlink_bits at round {round_index}", "non-negative")
        self.cumulative_bits += float(uplink_bits) + float(downlink_bits)
