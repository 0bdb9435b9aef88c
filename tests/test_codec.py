"""Wire format roundtrips, malformed-stream handling, and cost accounting."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsevote.aggregation import majority_vote
from sparsevote.codec import (
    ALGORITHMS,
    Bitstream,
    CommLedger,
    FormatError,
    analytic_round_cost,
    count_field_width,
    decode_sparse_sign,
    encode_sparse_sign,
    message_bit_lengths,
    rice_parameter,
)
from sparsevote.compression import SignBatch, SparseSignVector


def random_message(rng, dim=None):
    dim = dim or int(rng.integers(1, 65))
    n_entries = int(rng.integers(0, dim + 1))
    idx = np.sort(rng.choice(dim, size=n_entries, replace=False)).astype(np.int64)
    sgn = rng.choice([-1, 1], size=n_entries).astype(np.int8)
    return SparseSignVector(dim, idx, sgn)


# Test-only reference: a bit-at-a-time writer and reader of the same layout.
# The numpy codec must give the same bytes and reject the same streams.

class _RefBitWriter:
    def __init__(self):
        self._bytes = bytearray()
        self._acc = 0
        self._nacc = 0
        self.bit_len = 0

    def write(self, value, width):
        if width == 0:
            return
        assert 0 <= value < (1 << width)
        self._acc = (self._acc << width) | value
        self._nacc += width
        self.bit_len += width
        while self._nacc >= 8:
            self._nacc -= 8
            self._bytes.append((self._acc >> self._nacc) & 0xFF)
        self._acc &= (1 << self._nacc) - 1

    def getvalue(self):
        data = bytes(self._bytes)
        if self._nacc:
            data += bytes([(self._acc << (8 - self._nacc)) & 0xFF])
        return Bitstream(data, self.bit_len)


class _RefBitReader:
    def __init__(self, stream):
        self._data = stream.data
        self._bit_len = stream.bit_len
        self.pos = 0

    def read(self, width):
        if width == 0:
            return 0
        if self.pos + width > self._bit_len:
            raise FormatError(f"truncated stream at offset {self.pos}")
        value = 0
        for _ in range(width):
            bit = (self._data[self.pos >> 3] >> (7 - (self.pos & 7))) & 1
            value = (value << 1) | bit
            self.pos += 1
        return value


def ref_rice_parameter(count, dim):
    """floor(log2((dim - count) // count)), at least 0, by doubling."""
    b = 0
    while count and 2 << b <= (dim - count) // count:
        b += 1
    return b


def ref_encode(v):
    w = _RefBitWriter()
    w.write(len(v), count_field_width(v.dim))
    b = ref_rice_parameter(len(v), v.dim)
    quotients = []
    prev = -1
    for idx, sgn in zip(v.indices, v.signs):
        gap = int(idx) - prev - 1
        w.write(gap % 2**b, b)
        w.write(1 if sgn > 0 else 0, 1)
        quotients.append(gap // 2**b)
        prev = int(idx)
    for q in quotients:
        for _ in range(q):
            w.write(1, 1)
        w.write(0, 1)
    return w.getvalue()


def ref_decode(stream, dim):
    if len(stream.data) != (stream.bit_len + 7) // 8:
        raise FormatError("bytes disagree with bit_len")
    r = _RefBitReader(stream)
    count = r.read(count_field_width(dim))
    if count > dim:
        raise FormatError(f"count field {count} exceeds dim {dim}")
    b = ref_rice_parameter(count, dim)
    # Lists, not arrays sized by the count field, so a forged count cannot
    # make the reference allocate before the stream runs out.
    remainders, signs = [], []
    for _ in range(count):
        remainders.append(r.read(b))
        signs.append(1 if r.read(1) else -1)
    indices = []
    prev = -1
    for j in range(count):
        q = 0
        while r.read(1):
            q += 1
        idx = prev + 1 + q * 2**b + remainders[j]
        if idx >= dim:
            raise FormatError(f"entry {j}: index {idx} out of range for dim {dim}")
        indices.append(idx)
        prev = idx
    if r.pos != stream.bit_len:
        raise FormatError("overlong stream")
    return SparseSignVector(dim, np.array(indices, dtype=np.int64), np.array(signs, dtype=np.int8))


def bitstream(bits: str) -> Bitstream:
    """A stream holding the given '0'/'1' string, zero padded."""
    value = int(bits or "0", 2) << (-len(bits) % 8)
    return Bitstream(value.to_bytes((len(bits) + 7) // 8, "big"), len(bits))


def decode_outcome(decode, stream, dim):
    try:
        v = decode(stream, dim)
    except FormatError:
        return "FormatError"
    return v.dim, v.indices.tolist(), v.signs.tolist()


def wide_message(rng):
    """A short message over a dim up to 2**63, so fields up to 63 bits wide."""
    dim = int(rng.integers(1, 2**int(rng.integers(1, 64)), endpoint=True, dtype=np.uint64))
    k = int(rng.integers(0, min(dim, 6) + 1))
    idx = np.unique(rng.integers(0, dim, size=k, dtype=np.uint64)).astype(np.int64)
    return SparseSignVector(dim, idx, rng.choice([-1, 1], size=idx.size).astype(np.int8))


def mutations(rng, stream, dim):
    """Variants of a valid stream: bit flips, cuts, extensions and wrong dims."""
    bits = "".join(f"{b:08b}" for b in stream.data)[: stream.bit_len]
    for _ in range(3):
        if bits:
            flip = rng.choice(len(bits), size=int(rng.integers(1, 4)))
            out = list(bits)
            for p in flip:
                out[p] = "1" if out[p] == "0" else "0"
            yield bitstream("".join(out)), dim
            yield bitstream(bits[: int(rng.integers(0, len(bits)))]), dim
        extra = "".join(rng.choice(["0", "1"], size=int(rng.integers(1, 20))))
        yield bitstream(bits + extra), dim
        wrong = rng.integers(1, min(2 * dim + 2, 2**63), endpoint=True, dtype=np.uint64)
        yield stream, int(wrong)


@st.composite
def supports(draw):
    """A message with any support: spread out, or one run of consecutive
    indices anywhere (packed against the far end too), empty or full."""
    dim = draw(st.integers(1, 300) | st.integers(1, 2**63))
    k = draw(st.integers(0, dim if dim <= 300 else 16))
    if draw(st.booleans()):
        offsets = [draw(st.just(dim - k) | st.integers(0, dim - k))] * k
    else:
        offsets = sorted(draw(st.lists(st.integers(0, dim - k), min_size=k, max_size=k)))
    # offset[i] + i is strictly increasing and below dim
    idx = np.array(offsets, dtype=np.int64) + np.arange(k, dtype=np.int64)
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=k, max_size=k))
    return SparseSignVector(dim, idx, np.array(signs, dtype=np.int8))


class TestFieldWidths:
    def test_examples(self):
        assert count_field_width(8) == 4   # counts 0..8
        assert count_field_width(1) == 1
        assert count_field_width(7) == 3
        assert rice_parameter(2, 8) == 1   # (8 - 2) // 2 = 3
        assert rice_parameter(1, 1024) == 9
        assert rice_parameter(1000, 100_000) == 6
        assert rice_parameter(0, 8) == 0
        assert rice_parameter(1, 1) == 0
        assert rice_parameter(3, 8) == 0   # K > N / 3: the unary run is the bitmap

    def test_rice_parameter_against_doubling(self):
        for dim in [*range(1, 70), 2**62 + 5, 2**63]:
            for count in {*range(min(dim, 70) + 1), dim // 3, dim // 3 + 1, dim}:
                assert rice_parameter(count, dim) == ref_rice_parameter(count, dim)


class TestRoundtrip:
    def test_empty_message_is_count_field_only(self):
        stream = encode_sparse_sign(SparseSignVector(8, np.array([], dtype=int), np.array([], dtype=np.int8)))
        assert stream.bit_len == 4
        assert len(decode_sparse_sign(stream, 8)) == 0

    def test_worked_example(self):
        v = SparseSignVector(8, np.array([0, 5]), np.array([1, -1]))
        stream = encode_sparse_sign(v)
        assert stream.bit_len == 4 + 2 * (3 + 1)
        assert decode_sparse_sign(stream, 8) == v

    def test_dim_one(self):
        v = SparseSignVector(1, np.array([0]), np.array([-1]))
        stream = encode_sparse_sign(v)
        assert stream.bit_len == 3  # 1 count bit + 0 remainder bits + 1 sign bit + unary 0
        assert decode_sparse_sign(stream, 1) == v

    @given(supports())
    @settings(max_examples=300, deadline=None)
    @example(SparseSignVector(1, np.array([0]), np.array([1])))
    @example(SparseSignVector(1, np.array([], dtype=int), np.array([], dtype=np.int8)))
    @example(SparseSignVector(50, np.arange(50), np.ones(50, dtype=np.int8)))
    @example(SparseSignVector(2**63, np.array([2**63 - 1]), np.array([-1])))
    def test_roundtrip_and_size_bound_on_any_support(self, v):
        stream = encode_sparse_sign(v)
        assert decode_sparse_sign(stream, v.dim) == v
        n, k = v.dim, len(v)
        payload = stream.bit_len - count_field_width(n)
        assert payload <= n + k
        assert payload <= (k * (math.log2(n / k) + 4) if k else 0) + 1e-9

    def test_fuzz_roundtrip(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            v = random_message(rng)
            assert decode_sparse_sign(encode_sparse_sign(v), v.dim) == v

    def test_bit_len_formula_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = random_message(rng)
            stream = encode_sparse_sign(v)
            b = rice_parameter(len(v), v.dim)
            gaps = np.diff(v.indices, prepend=-1) - 1
            assert stream.bit_len == (count_field_width(v.dim) + len(v) * (b + 2)
                                      + int((gaps >> b).sum()))


class TestMalformedStreams:
    def test_truncated_stream(self):
        v = SparseSignVector(8, np.array([0, 5]), np.array([1, -1]))
        stream = encode_sparse_sign(v)
        clipped = Bitstream(stream.data[:1], 7)  # cut mid-entry
        with pytest.raises(FormatError):
            decode_sparse_sign(clipped, 8)

    def test_overlong_stream(self):
        v = SparseSignVector(8, np.array([3]), np.array([1]))
        stream = encode_sparse_sign(v)
        padded = Bitstream(stream.data + b"\x00", stream.bit_len + 8)
        with pytest.raises(FormatError):
            decode_sparse_sign(padded, 8)

    def test_out_of_range_index(self):
        # dim=5, count=1 (3 bits 001), so b=2: remainder 10, sign 1, quotient 1
        # (unary 10) -> gap 1*4 + 2 = 6, index 6 >= 5
        bits = "001" + "10" + "1" + "10"
        data = int(bits, 2) << 0  # exactly one byte
        with pytest.raises(FormatError, match="entry 0: index 6 out of range"):
            decode_sparse_sign(Bitstream(bytes([data]), 8), 5)

    def test_second_index_overflow(self):
        # dim=8, count=2, so b=1: gaps 2*2 + 1 = 5 and 1*2 + 1 = 3 decode to
        # indices 5 then 5+1+3=9 >= 8
        bits = "0010" + "1" + "1" + "1" + "1" + "110" + "10"
        value = int(bits, 2) << (16 - len(bits))
        with pytest.raises(FormatError, match="entry 1: index 9 out of range"):
            decode_sparse_sign(Bitstream(value.to_bytes(2, "big"), len(bits)), 8)

    def test_quotient_that_would_wrap_is_format_error(self):
        # dim=2**63, count=1, so b=62 and quotients sum to at most
        # (2**63 - 1) >> 62 = 1.  A quotient of 4 is a gap of 2**64, 0 in uint64.
        dim = 2**63
        stream = bitstream(format(1, "064b") + "0" * 62 + "1" + "11110")
        with pytest.raises(FormatError, match=f"quotients for dim {dim} sum to at most 1"):
            decode_sparse_sign(stream, dim)
        with pytest.raises(FormatError, match=f"entry 0: index {2**64} out of range"):
            ref_decode(stream, dim)

    def test_unary_codes_must_end_the_stream(self):
        # dim=8, count=2, so b=1 and the quotients sum to at most 7 >> 1 = 3.
        # Rows: remainder 1 with sign +1, remainder 0 with sign +1.
        head = "0010" + "11" + "01"
        assert decode_sparse_sign(bitstream(head + "010"), 8).entries == [(1, 1), (4, 1)]
        for tail in ("", "0", "11", "111", "0111"):    # fewer than two zeros
            with pytest.raises(FormatError, match="truncated"):
                decode_sparse_sign(bitstream(head + tail), 8)
        for tail in ("000", "001", "0101"):            # bits after the last code
            with pytest.raises(FormatError, match="overlong"):
                decode_sparse_sign(bitstream(head + tail), 8)
        with pytest.raises(FormatError, match="entry 1: index 8 out of range"):
            decode_sparse_sign(bitstream(head + "01110"), 8)   # quotients 0 and 3
        with pytest.raises(FormatError, match="sum to at most 3"):
            decode_sparse_sign(bitstream(head + "011110"), 8)  # quotients 0 and 4

    def test_bytes_disagree_with_bit_len(self):
        stream = encode_sparse_sign(SparseSignVector(8, np.array([1, 5]), np.array([1, -1])))
        for data in (stream.data[:-1], stream.data + b"\x00"):
            with pytest.raises(FormatError, match="cannot hold exactly"):
                decode_sparse_sign(Bitstream(data, stream.bit_len), 8)

    def test_count_exceeds_dim(self):
        # dim=5: count field is 3 bits, value 7 > 5
        with pytest.raises(FormatError):
            decode_sparse_sign(Bitstream(bytes([0b1110_0000]), 3), 5)

    def test_huge_count_in_short_stream(self):
        # A count of 2**50 entries, then nothing: rejected as truncated
        # before anything is sized by the count.
        dim = 2**62
        stream = bitstream(format(2**50, f"0{count_field_width(dim)}b"))
        with pytest.raises(FormatError, match="truncated"):
            decode_sparse_sign(stream, dim)


class TestAgainstBitLoopReference:
    def test_encoder_bytes_equal(self):
        rng = np.random.default_rng(2024)
        for i in range(3000):
            v = wide_message(rng) if i % 3 == 0 else random_message(rng, int(rng.integers(1, 300)))
            got, want = encode_sparse_sign(v), ref_encode(v)
            assert (got.data, got.bit_len) == (want.data, want.bit_len), v

    def test_decoder_same_outcome_on_random_streams(self):
        rng = np.random.default_rng(2025)
        for _ in range(3000):
            dim = int(rng.integers(1, 70))
            n_bits = int(rng.integers(0, 120))
            data = rng.integers(0, 256, size=(n_bits + 7) // 8, dtype=np.uint8).tobytes()
            stream = Bitstream(data, n_bits)
            assert decode_outcome(decode_sparse_sign, stream, dim) == decode_outcome(
                ref_decode, stream, dim)

    def test_decoder_same_outcome_on_mutated_streams(self):
        rng = np.random.default_rng(2026)
        outcomes = Counter()
        for i in range(1500):
            v = wide_message(rng) if i % 3 == 0 else random_message(rng)
            for stream, dim in mutations(rng, encode_sparse_sign(v), v.dim):
                got = decode_outcome(decode_sparse_sign, stream, dim)
                assert got == decode_outcome(ref_decode, stream, dim), (v, stream, dim)
                outcomes[got == "FormatError"] += 1
        # both outcomes are well represented
        assert min(outcomes.values()) > 1000

    def test_index_past_int64_range_is_format_error(self):
        # dim=2**63 and count=2 give b=61, so the quotients sum to at most 3.
        # Gaps 2**61 - 1 (quotient 0) and 2**63 - 1 (quotient 3), both with every
        # remainder bit set, put entry 1 at 2**63 + 2**61 - 1: past dim and int64.
        dim = 2**63
        assert rice_parameter(2, dim) == 61
        stream = bitstream(format(2, "064b") + ("1" * 61 + "1") * 2 + "0" + "1110")
        for decode in (decode_sparse_sign, ref_decode):
            with pytest.raises(FormatError,
                               match=f"entry 1: index {2**63 + 2**61 - 1} out of range"):
                decode(stream, dim)

    def test_largest_dim(self):
        dim = 2**63
        v = SparseSignVector(dim, np.array([0, 2**62, 2**63 - 1]), np.array([1, -1, 1]))
        stream, want = encode_sparse_sign(v), ref_encode(v)
        assert (stream.data, stream.bit_len) == (want.data, want.bit_len)
        assert decode_sparse_sign(stream, dim) == v
        with pytest.raises(ValueError, match=f"^dim must be at most {2**63}, got {2**63 + 1}$"):
            decode_sparse_sign(stream, dim + 1)


def _malformed():
    """(stream, dim) for each malformed stream of TestMalformedStreams and
    TestAgainstBitLoopReference."""
    two = encode_sparse_sign(SparseSignVector(8, np.array([0, 5]), np.array([1, -1])))
    one = encode_sparse_sign(SparseSignVector(8, np.array([3]), np.array([1])))
    pair = encode_sparse_sign(SparseSignVector(8, np.array([1, 5]), np.array([1, -1])))
    head = "0010" + "11" + "01"
    cases = {
        "truncated": (Bitstream(two.data[:1], 7), 8),
        "overlong": (Bitstream(one.data + b"\x00", one.bit_len + 8), 8),
        "index out of range": (Bitstream(bytes([int("001" + "10" + "1" + "10", 2)]), 8), 5),
        "second index out of range": (bitstream("0010" + "1" + "1" + "1" + "1" + "110" + "10"), 8),
        "quotient that would wrap": (bitstream(format(1, "064b") + "0" * 62 + "1" + "11110"), 2**63),
        "short data": (Bitstream(pair.data[:-1], pair.bit_len), 8),
        "long data": (Bitstream(pair.data + b"\x00", pair.bit_len), 8),
        "count exceeds dim": (Bitstream(bytes([0b1110_0000]), 3), 5),
        "huge count": (bitstream(format(2**50, f"0{count_field_width(2**62)}b")), 2**62),
        "index past int64": (bitstream(format(2, "064b") + ("1" * 61 + "1") * 2 + "0" + "1110"), 2**63),
    }
    for tail in ("", "0", "11", "111", "0111", "000", "001", "0101", "01110", "011110"):
        cases[f"unary tail {tail!r}"] = (bitstream(head + tail), 8)
    return cases


MALFORMED = _malformed()


def _stream_bits(stream):
    return "".join(f"{b:08b}" for b in stream.data)[:stream.bit_len]


def _corrupted(stream, dim, how):
    """stream with the same count, malformed: its last unary bit set, or its
    last unary code lengthened until its index passes dim."""
    bits = _stream_bits(stream)
    if how == "last unary bit":
        return bitstream(bits[:-1] + "1")
    while True:
        bits = bits[:-1] + "10"
        try:
            decode_sparse_sign(bitstream(bits), dim)
        except FormatError as err:
            assert "out of range" in str(err)
            return bitstream(bits)


class TestMalformedCases:
    def test_every_case_is_malformed_alone(self):
        for stream, dim in MALFORMED.values():
            with pytest.raises(FormatError):
                decode_sparse_sign(stream, dim)

    @pytest.mark.parametrize("case", MALFORMED)
    def test_each_case_is_rejected_by_both_decoders(self, case):
        stream, dim = MALFORMED[case]
        assert decode_outcome(decode_sparse_sign, stream, dim) == "FormatError"
        assert decode_outcome(ref_decode, stream, dim) == "FormatError"

    @pytest.mark.parametrize("how", ["last unary bit", "index past dim"])
    @pytest.mark.parametrize("shape", [(170, 17, 10), (100_000, 1000, 16)], ids=["small", "bulk"])
    def test_a_malformed_stream_of_the_same_count_is_rejected(self, shape, how):
        # The benchmark's round shapes, logistic_noniid_wire and
        # quad_large_wire: each message corrupted in turn keeps its count
        # and is rejected by both decoders with the same error.
        dim, k, m = shape
        rng = np.random.default_rng(0)
        for v in (_message(dim, k, rng) for _ in range(m)):
            bad = _corrupted(encode_sparse_sign(v), dim, how)
            with pytest.raises(FormatError) as got:
                decode_sparse_sign(bad, dim)
            if how == "index past dim":
                with pytest.raises(FormatError) as want:
                    ref_decode(bad, dim)
                assert str(got.value) == str(want.value)
            else:
                assert decode_outcome(ref_decode, bad, dim) == "FormatError"


class TestAnalyticCosts:
    # One worker's S3GD_MV uplink is a K-sparse sign message: K + K * log2(N / K) bits.

    def test_uplink_examples(self):
        assert analytic_round_cost("S3GD_MV", 1, 8, 2)[0] == 6.0
        assert analytic_round_cost("S3GD_MV", 1, 1024, 1)[0] == 11.0
        assert analytic_round_cost("S3GD_MV", 1, 16, 0)[0] == 0.0
        assert analytic_round_cost("S3GD_MV", 1, 16, 16)[0] == 16.0

    def test_uplink_errors(self):
        with pytest.raises(ValueError):
            analytic_round_cost("S3GD_MV", 1, 8, 9)
        with pytest.raises(ValueError):
            analytic_round_cost("S3GD_MV", 1, 8, -1)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_round_cost_is_two_floats(self, algorithm):
        for m, dim, k in ((2, 8, 2), (1, 1, 0), (3, 10, 10)):
            assert all(type(bits) is float for bits in analytic_round_cost(algorithm, m, dim, k))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("m, dim, k", [(0, 8, 2), (-1, 8, 2), (2, 0, 0), (2, 8, -1),
                                           (2, 8, 9), (2, 8, 99)])
    def test_round_cost_rejects(self, algorithm, m, dim, k):
        with pytest.raises(ValueError):
            analytic_round_cost(algorithm, m, dim, k)

    def test_wire_at_least_analytic_when_zero_free(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            dim = int(rng.integers(1, 200))
            k = int(rng.integers(1, dim + 1))
            idx = np.sort(rng.choice(dim, size=k, replace=False)).astype(np.int64)
            v = SparseSignVector(dim, idx, rng.choice([-1, 1], size=k).astype(np.int8))
            assert encode_sparse_sign(v).bit_len >= analytic_round_cost("S3GD_MV", 1, dim, k)[0] - 1e-9

    def test_wire_overhead_bounded_for_sparse_messages(self):
        # Rice coding costs at most 2x the analytic budget plus the count
        # field, for K up to sqrt(N)
        rng = np.random.default_rng(12)
        for _ in range(200):
            dim = int(rng.integers(2, 1000))
            k = int(rng.integers(1, math.isqrt(dim) + 1))
            idx = np.sort(rng.choice(dim, size=k, replace=False)).astype(np.int64)
            v = SparseSignVector(dim, idx, rng.choice([-1, 1], size=k).astype(np.int8))
            bound = 2 * analytic_round_cost("S3GD_MV", 1, dim, k)[0] + count_field_width(dim)
            assert encode_sparse_sign(v).bit_len <= bound + 1e-9


class TestTotalCost:
    def test_table_examples(self):
        assert 2 * sum(analytic_round_cost("SIGNSGD_MV", 3, 10, 10)) == 120.0
        assert sum(analytic_round_cost("VANILLA_SGD", 1, 1, 1)) == 64.0
        assert sum(analytic_round_cost("S3GD_MV", 2, 8, 2)) == 28.0

    def test_randk_matches_s3gd(self):
        assert analytic_round_cost("S3GD_MV_RANDK", 4, 32, 3) == analytic_round_cost(
            "S3GD_MV", 4, 32, 3
        )

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            analytic_round_cost("SGD", 1, 8, 2)

    def test_cost_ordering(self):
        # For K < N/2 the sparse vote is strictly cheapest and the dense
        # float baselines strictly most expensive.
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(4, 2048))
            k = int(rng.integers(1, max(2, (n + 1) // 2)))
            m = int(rng.integers(1, 50))
            s3gd, sign, topk, vanilla = (
                sum(analytic_round_cost(alg, m, n, k))
                for alg in ("S3GD_MV", "SIGNSGD_MV", "TOPK_SGD_MEM", "VANILLA_SGD")
            )
            assert s3gd < sign < topk < vanilla


class TestCommLedger:
    def test_additivity(self):
        ledger = CommLedger("S3GD_MV")
        rng = np.random.default_rng(3)
        ups = rng.integers(0, 100, size=20).astype(float)
        downs = rng.integers(0, 100, size=20).astype(float)
        for t, (u, d) in enumerate(zip(ups, downs)):
            ledger.record(t, u, d)
        assert ledger.cumulative_bits == ups.sum() + downs.sum()

    def test_a_running_total_in_record_order(self):
        # Each round's up + down joins the total as it is recorded, the order
        # a run adds its bits in: 1e16 absorbs each lone 1.0, where the sum of
        # the downs, 2.0, would show.
        ledger = CommLedger("S3GD_MV")
        total = 0.0
        for up, down in [(1e16, 1.0), (0.0, 1.0)]:
            ledger.record(0, up, down)
            total += up + down
            assert ledger.cumulative_bits == total
        assert vars(ledger) == {"cumulative_bits": total}

    def test_negative_bits_rejected(self):
        ledger = CommLedger("VANILLA_SGD")
        with pytest.raises(ValueError):
            ledger.record(0, -1.0, 0.0)


# --------------------------------------------------------------------------
# message_bit_lengths against the encoders

def _message(dim, count, rng):
    """A message of count random entries over dim, or (dim past 2**20) of up
    to count entries drawn with replacement, for any dim up to 2**63."""
    if dim <= 2**20:
        idx = np.sort(rng.choice(dim, size=count, replace=False))
    else:
        idx = np.unique(rng.integers(0, dim, size=count, dtype=np.uint64))
    idx = idx.astype(np.int64)
    return SparseSignVector(dim, idx, rng.choice([-1, 1], size=idx.size).astype(np.int8))


def _batch(dim, *counts):
    rng = np.random.default_rng(0)
    return dim, [_message(dim, k, rng) for k in counts]


@st.composite
def batches(draw):
    """(dim, messages): 0 to 16 messages over one dim up to 2**63, each with
    0, 1, N or some entries, so a batch may mix counts and Rice parameters.
    K = N only up to N = 4096, to keep the examples small."""
    dim = draw(st.integers(1, 64) | st.integers(1, 4096) | st.integers(1, 2**20) | st.integers(1, 2**63))
    every = [0, 1, dim] if dim <= 4096 else [0, 1]
    k = st.sampled_from(every) | st.integers(0, min(dim, 200))
    # Equal counts, as S3GD-MV sends them, or each its own.
    counts = draw(st.lists(k, max_size=16) | k.flatmap(lambda c: st.lists(st.just(c), max_size=16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return dim, [_message(dim, c, rng) for c in counts]


class TestMessageBitLengths:
    @given(batches())
    @settings(max_examples=300, deadline=None)
    # The benchmark's round shapes: logistic_noniid_wire and quad_large_wire.
    @example(_batch(170, *[17] * 10))
    @example(_batch(100_000, *[1000] * 16))
    @example(_batch(8))                                 # M = 0
    @example(_batch(1, *[0] * 3))                       # K = 0
    @example(_batch(4096, *[4096] * 3))                 # K = N
    @example(_batch(1000, 1000, 30, 1, 0, 30))          # Rice parameters 0, 5, 9, 0 and 5
    @example((2**63, [SparseSignVector(2**63, np.array([0, 2**62, 2**63 - 1]), np.array([1, -1, 1])),
                      SparseSignVector(2**63, np.array([2**63 - 1]), np.array([-1]))]))
    def test_each_length_is_the_bit_len_of_its_stream(self, case):
        dim, msgs = case
        batch = SignBatch.stack(msgs, dim)
        lengths = message_bit_lengths(dim, batch.indices, batch.counts)
        assert lengths.dtype == np.int64 and lengths.shape == (len(msgs),)
        assert lengths.tolist() == [encode_sparse_sign(v).bit_len for v in msgs]
        # encode_sparse_sign sizes its stream with message_bit_lengths; the
        # bit-at-a-time writer does not.
        assert lengths.tolist() == [ref_encode(v).bit_len for v in msgs]

    @given(batches().filter(lambda case: case[0] <= 2**20))
    @settings(max_examples=200, deadline=None)
    @example(_batch(170, *[17] * 10))
    @example(_batch(100_000, *[1000] * 16))
    @example(_batch(8, 0, 0))                           # every coordinate tied at zero
    @example(_batch(8, 8))                              # every coordinate decided
    def test_the_broadcast_length_is_the_bit_len_of_the_vote_message(self, case):
        dim, msgs = case
        vote = majority_vote(msgs, dim)
        support = np.flatnonzero(vote.ternary)
        assert message_bit_lengths(dim, support, [support.size]).tolist() == [
            encode_sparse_sign(vote.nonzero_message()).bit_len]

    @given(batches().filter(lambda case: case[0] <= 2**20))
    @settings(max_examples=100, deadline=None)
    @example(_batch(1000, 1000, 30, 1, 0, 30))
    def test_each_message_of_a_batch_round_trips(self, case):
        dim, msgs = case
        batch = SignBatch.stack(msgs, dim)
        assert list(batch) == msgs
        for v in batch:
            assert decode_sparse_sign(encode_sparse_sign(v), dim) == v

    def test_one_dim_per_batch(self):
        msgs = [_message(8, 2, np.random.default_rng(0)), _message(9, 2, np.random.default_rng(0))]
        with pytest.raises(ValueError, match="message 1 has dim 9, expected 8"):
            SignBatch.stack(msgs, 8)

    def test_worked_example(self):
        # Over dim 8: [0, 5] costs 4 + 2 * (1 + 2) + (0 >> 1) + (4 >> 1) = 12
        # bits, an empty message its 4 count bits and [3] 4 + (2 + 2) + (3 >> 2) = 8.
        assert message_bit_lengths(8, [0, 5, 3], [2, 0, 1]).tolist() == [12, 4, 8]

    def test_counts_must_cover_the_indices(self):
        with pytest.raises(ValueError, match="counts must sum to the 3 indices"):
            message_bit_lengths(8, [0, 5, 3], [2, 0])
        with pytest.raises(ValueError, match=r"^counts out of range for dim=8: must lie in \[0, 9\), got \[-1, 4\]$"):
            message_bit_lengths(8, [0, 5, 3], [4, -1])
        with pytest.raises(ValueError, match=f"^dim must be at most {2**63}, got {2**63 + 1}$"):
            message_bit_lengths(2**63 + 1, [], [])
