"""Property suite: the crc of two halves, combined, is the crc of the whole.

``crc32_combine`` is how a snapshot load and a large journal frame get
``zlib.crc32`` of a buffer whose halves were checksummed on two threads;
every stored crc must be exactly zlib's.
"""

import zlib

from hypothesis import example, given, strategies as st

from repro.durability import checksum
from repro.durability.checksum import crc32_combine


@given(st.binary(max_size=300), st.binary(max_size=300))
@example(b"", b"")
@example(b"", b"\x00")
@example(b"\xff", b"")
@example(b"\x01", b"\x80")
def test_combined_halves_are_the_whole(a, b):
    assert crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(a + b)


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
       st.integers(0, 2**40))
def test_combining_lengths_is_appending_zeros_stepwise(crc1, crc2, length):
    """Lengths past any buffer a test can hold: shifting by ``m + n`` bytes
    is shifting by ``m`` and then by ``n``, and a zero-length shift is the
    identity, as zlib's combine over real data is."""
    head = length // 3
    stepwise = crc32_combine(crc32_combine(crc1, 0, head), crc2, length - head)
    assert crc32_combine(crc1, crc2, length) == stepwise
    assert crc32_combine(crc1, crc2, 0) == crc1 ^ crc2


@given(st.binary(max_size=2000), st.integers(1, 64), st.integers(1, 300))
def test_a_crc32_in_pieces_on_two_threads_is_zlibs(data, threshold, piece):
    previous = checksum.SPLIT_MIN_BYTES, checksum.PIECE_BYTES
    checksum.SPLIT_MIN_BYTES, checksum.PIECE_BYTES = threshold, piece
    try:
        assert checksum.crc32(data) == zlib.crc32(data)
    finally:
        checksum.SPLIT_MIN_BYTES, checksum.PIECE_BYTES = previous


@given(st.integers(0, 100), st.integers(0, 100), st.integers(1, 16))
def test_pieces_tile_the_range_whole_after_the_first(start, length, piece):
    previous = checksum.PIECE_BYTES
    checksum.PIECE_BYTES = piece
    try:
        parts = checksum.pieces(start, start + length)
    finally:
        checksum.PIECE_BYTES = previous
    assert [low for low, _ in parts[1:]] == [high for _, high in parts[:-1]]
    if parts:
        assert (parts[0][0], parts[-1][1]) == (start, start + length)
    else:
        assert length == 0
    assert all(0 < high - low <= piece for low, high in parts)
    assert all(high - low == piece for low, high in parts[1:])
