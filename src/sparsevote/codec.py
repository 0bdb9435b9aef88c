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
Indices are int64, so N is at most 2**63.

encode_round and decode_round do the same for a round's SignBatch, with the
same bytes per message.  An S3GD-MV worker sends K entries, so a round's
messages share one count and one Rice parameter, and the round is one pass:
message m is row m of one bit matrix, and the Rice rows of all M messages
are one (M, K, b + 1) block of it.  A round whose counts differ (a message
dropped an exact zero) goes message by message through encode_sparse_sign
and decode_sparse_sign.

ALGORITHMS is the table of the five algorithms, one row each: which
coordinates a worker sends (all, top-K or random-K), whether it keeps an
error memory, and whether the server votes on signs or averages values.
The simulator runs a row and analytic_round_cost prices it.  A value costs
w = 32 bits for a mean server and w = 1 bit (a sign) for a vote server, so
per round and worker

    uplink   w * N                          when the worker sends all N
             w * K + K * log2(N / K)        when it sends K of them
    downlink w * N                          the aggregate, one value a
                                            coordinate, to every worker

CommLedger keeps a round-by-round record of bits and their total; the runs
write their per-round bits with simulator.emit_results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compression import SignBatch, SparseSignVector, _trusted

__all__ = [
    "FormatError",
    "Bitstream",
    "count_field_width",
    "rice_parameter",
    "encode_sparse_sign",
    "decode_sparse_sign",
    "encode_round",
    "decode_round",
    "analytic_round_cost",
    "CommLedger",
    "ALGORITHMS",
]


@dataclass(frozen=True)
class _Rule:
    """One algorithm as data.

    selector is the set of coordinates a worker sends: "all", "topk" or
    "randk".  memory marks error feedback: the worker selects the top-K of
    g + eta * e and keeps what it did not send as its next e (so memory
    implies "topk").  server is "vote" for a majority vote on the signs of
    the sent coordinates, "mean" for the average of their values.
    """

    selector: str
    memory: bool
    server: str


ALGORITHMS = {
    "VANILLA_SGD": _Rule("all", memory=False, server="mean"),
    "TOPK_SGD_MEM": _Rule("topk", memory=True, server="mean"),
    "SIGNSGD_MV": _Rule("all", memory=False, server="vote"),
    "S3GD_MV": _Rule("topk", memory=True, server="vote"),
    "S3GD_MV_RANDK": _Rule("randk", memory=False, server="vote"),
}

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
        if self.bit_len < 0:
            raise ValueError(f"bit_len must be non-negative, got {self.bit_len}")


def count_field_width(dim: int) -> int:
    """Bits needed for an entry count in [0, dim]."""
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    return dim.bit_length()


def rice_parameter(count: int, dim: int) -> int:
    """Low-bit width b of each Rice-coded gap: floor(log2((dim - count) // count)), at least 0."""
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if not 0 <= count <= dim:
        raise ValueError(f"count must be in [0, {dim}], got {count}")
    return max(((dim - count) // count).bit_length() - 1, 0) if count else 0


def _check_dim(dim: int) -> None:
    """Decoded indices are int64, which caps dim at 2**63."""
    if dim > 1 << 63:
        raise ValueError(f"dim must be at most 2**63, got {dim}")


def _field_bits(values, width: int) -> np.ndarray:
    """One row of width bits per value, most significant bit first."""
    octets = np.asarray(values, dtype=">u8").reshape(-1, 1).view(np.uint8)
    nbytes = (width + 7) // 8
    # Unpacked as one flat array: numpy unpacks along an axis row by row.
    bits = np.unpackbits(octets[:, 8 - nbytes:]).reshape(-1, 8 * nbytes)
    return bits[:, 8 * nbytes - width:]


def _field_values(bits: np.ndarray) -> np.ndarray:
    """Inverse of _field_bits: the uint64 value of each row (last axis) of bits."""
    *rows, width = bits.shape
    nbytes = (width + 7) // 8
    padded = np.zeros((*rows, 8 * nbytes), dtype=np.uint8)
    padded[..., 8 * nbytes - width:] = bits
    octets = np.packbits(padded).reshape(*rows, nbytes)
    values = octets[..., 0].astype(np.uint64)
    for j in range(1, nbytes):
        values = values << np.uint64(8) | octets[..., j]
    return values


def encode_sparse_sign(v: SparseSignVector) -> Bitstream:
    """Serialize a sparse sign message to its wire form."""
    _check_dim(v.dim)
    k, wc, b = len(v), count_field_width(v.dim), rice_parameter(len(v), v.dim)
    gaps = v.indices - np.concatenate(([-1], v.indices[:-1])) - 1
    # Each quotient q is q ones and a zero, so the zeros sit at cumsum(q + 1) - 1
    # within the unary section, which starts after the count and the k rows.
    ends = ((gaps >> b) + 1).cumsum()
    head = wc + k * (b + 1)
    bits = np.ones(head + (int(ends[-1]) if k else 0), dtype=np.uint8)
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
    b = rice_parameter(count, dim)
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
    _check_dim(dim)
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


def encode_round(batch: SignBatch) -> list[Bitstream]:
    """encode_sparse_sign of each message of a batch, byte for byte.

    When all M messages hold K entries, message m is row m of one (M, L) bit
    matrix, written in one pass: its count, its Rice rows (with the others,
    one (M, K, b + 1) block), then its unary codes as zeros on a background
    of ones.  A batch whose counts differ goes message by message.
    """
    m, dim, counts = len(batch), batch.dim, batch.counts
    if not m:
        return []
    k = int(counts[0])
    if np.count_nonzero(counts != k):
        return [encode_sparse_sign(v) for v in batch]
    _check_dim(dim)
    wc, b = count_field_width(dim), rice_parameter(k, dim)
    head = wc + k * (b + 1)
    # The gaps, on a fresh array: the first index, then each step less one.
    # The work below is done in place to keep a round's peak memory down.
    gaps = np.diff(batch.indices.reshape(m, k), axis=1, prepend=-1)
    gaps -= 1
    # Each quotient q is q ones and a zero, so the zeros of a unary section
    # sit at cumsum(q + 1) - 1 within it.
    ends = gaps >> b
    ends += 1
    ends.cumsum(axis=1, out=ends)
    lengths = ends[:, -1] + head if k else np.full(m, head)
    columns = np.arange(-(-int(lengths.max()) // 8) * 8)
    bits = (columns < lengths[:, None]).view(np.uint8)
    bits[:, :wc] = _field_bits(k, wc)
    gaps &= (1 << b) - 1
    gaps <<= 1
    gaps |= batch.signs.reshape(m, k) > 0
    bits[:, wc:head].reshape(m, k, b + 1)[:] = _field_bits(gaps, b + 1).reshape(m, k, b + 1)
    ends += (np.arange(m) * bits.shape[1] + head - 1)[:, None]  # flat positions of the zeros
    bits.reshape(-1)[ends] = 0
    packed = np.packbits(bits, axis=1)
    return [Bitstream(row[:(length + 7) // 8].tobytes(), length)
            for row, length in zip(packed, lengths.tolist())]


def _each_stream(read, streams: list[Bitstream]) -> list:
    """read(stream) for each stream; a FormatError is prefixed with "message i: "."""
    out = []
    for i, stream in enumerate(streams):
        try:
            out.append(read(stream))
        except FormatError as err:
            raise FormatError(f"message {i}: {err}") from None
    return out


def decode_round(streams: list[Bitstream], dim: int) -> SignBatch:
    """The SignBatch of the messages decode_sparse_sign reads from each stream.

    Every stream gets every check of decode_sparse_sign, and a malformed one
    raises its FormatError prefixed with "message i: ".  Streams whose counts
    differ are decoded one by one.  When all hold K entries, stream m is row
    m of one bit matrix padded with ones, read in one pass, and entry j of
    message m is cell (m, j) of the gap, sign and index matrices.  The stream
    named is the first to fail the length and count checks, else (one pass)
    the first with malformed unary codes, then the first with an index past
    dim, or (one by one) the first that decode_sparse_sign refuses.
    """
    _check_dim(dim)
    if not streams:
        return SignBatch(dim, [], [], [])
    wc = count_field_width(dim)
    counts = [count for count, _ in _each_stream(lambda s: _read_header(s, dim, wc), streams)]
    k = counts[0]
    if counts.count(k) < len(counts):
        return SignBatch.stack(_each_stream(lambda s: decode_sparse_sign(s, dim), streams), dim)
    m, b = len(streams), rice_parameter(k, dim)
    head = wc + k * (b + 1)
    lengths = np.array([s.bit_len for s in streams])
    width = max(len(s.data) for s in streams)
    octets = np.frombuffer(bytearray(b"".join(s.data.ljust(width, b"\xff") for s in streams)),
                           dtype=np.uint8)
    # Ones past each stream, so that past the Rice rows only its unary codes hold zeros.
    sizes = (lengths + 7) // 8
    octets[np.arange(m) * width + sizes - 1] |= (0xFF >> (lengths - 8 * sizes + 8)).astype(np.uint8)
    bits = np.unpackbits(octets).reshape(m, -1)
    unary = bits[:, head:] == 0
    zeros = unary.sum(axis=1)
    # A stream's unary codes are well formed when it has exactly k zeros
    # there and, unless it has no entries and so no unary bits, ends in one.
    well_formed = (zeros == k) & ((bits[np.arange(m), lengths - 1] == 0) if k else (lengths == head))
    if not well_formed.all():
        i = int(np.flatnonzero(~well_formed)[0])
        raise FormatError(f"message {i}: {_unary_error(int(zeros[i]), k)}")
    rows = _field_values(bits[:, wc:head].reshape(m, k, b + 1))
    # Where each unary code ends within its section, then in place its
    # quotient, gap and index.
    indices = np.flatnonzero(unary).reshape(m, k)
    indices -= (np.arange(m) * unary.shape[1])[:, None]
    indices[:, 1:] -= indices[:, :-1] + 1
    indices = indices.view(np.uint64)  # every quotient is non-negative
    indices <<= np.uint64(b)
    indices |= rows >> np.uint64(1)
    indices += np.uint64(1)
    indices.cumsum(axis=1, out=indices)
    indices -= np.uint64(1)
    if k:
        bad = np.flatnonzero(indices[:, -1] >= dim)
        if bad.size:
            i = int(bad[0])
            raise FormatError(f"message {i}: {_range_error(indices[i], dim)}")
    # The checks above cover every rule SignBatch checks: no second pass.
    return _trusted(SignBatch, dim, indices.view(np.int64).reshape(-1),
                    _SIGN_OF_BIT[rows & np.uint64(1)].reshape(-1), np.full(m, k, dtype=np.int64))


def analytic_round_cost(algorithm: str, m: int, dim: int, k: int) -> tuple[float, float]:
    """Per-round (uplink, downlink) bit budget across all M workers.

    A value costs FLOAT_BITS for a mean server and one bit (its sign) for a
    vote server; a worker that sends K of the N coordinates also pays
    K * log2(N / K) bits to say which.  The downlink is one value per
    coordinate to each worker.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    rule = ALGORITHMS[algorithm]
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if not 0 <= k <= dim:
        raise ValueError(f"k must be in [0, {dim}], got {k}")
    width = FLOAT_BITS if rule.server == "mean" else 1
    if rule.selector == "all":
        up = width * dim
    else:
        up = width * k + k * math.log2(dim / k) if k else 0.0
    return float(m * up), float(m * width * dim)


class CommLedger:
    """Round-by-round record of bits spent, uplink and downlink."""

    def __init__(self, algorithm: str):
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        self.rounds: list[tuple[int, float, float]] = []

    def record(self, round_index: int, uplink_bits: float, downlink_bits: float) -> None:
        if uplink_bits < 0 or downlink_bits < 0:
            raise ValueError(
                f"negative bit count at round {round_index}: "
                f"({uplink_bits}, {downlink_bits})"
            )
        self.rounds.append((round_index, float(uplink_bits), float(downlink_bits)))

    @property
    def cumulative_bits(self) -> float:
        return sum(r[1] for r in self.rounds) + sum(r[2] for r in self.rounds)
