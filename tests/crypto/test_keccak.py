"""Keccak-256 correctness against known Ethereum vectors + sponge laws."""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from repro.crypto.keccak import KeccakSponge, keccak_256, keccak_256_packed
from repro.crypto.hashing import keccak256, keccak256_many

# Known Keccak-256 vectors (original padding — the Ethereum variant).
KNOWN_VECTORS = {
    b"": "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
    b"abc": "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45",
    b"hello": "1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8",
    b"The quick brown fox jumps over the lazy dog":
        "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15",
}


@pytest.mark.parametrize("message,expected", sorted(KNOWN_VECTORS.items()))
def test_known_vectors(message: bytes, expected: str) -> None:
    assert keccak_256(message).hex() == expected


def test_differs_from_sha3_256() -> None:
    # FIPS-202 SHA3-256("") starts a7ff...; Keccak-256("") starts c5d2.
    import hashlib

    assert keccak_256(b"") != hashlib.sha3_256(b"").digest()


def test_digest_is_32_bytes() -> None:
    assert len(keccak_256(b"x" * 1000)) == 32


@given(st.binary(max_size=512))
def test_deterministic(data: bytes) -> None:
    assert keccak_256(data) == keccak_256(data)


@given(st.binary(max_size=300), st.integers(min_value=1, max_value=299))
def test_incremental_equals_oneshot(data: bytes, split: int) -> None:
    split = min(split, len(data))
    sponge = KeccakSponge(rate_bytes=136, digest_bytes=32)
    sponge.update(data[:split]).update(data[split:])
    assert sponge.digest() == keccak_256(data)


@given(st.binary(max_size=200), st.binary(max_size=200))
def test_collision_resistance_smoke(a: bytes, b: bytes) -> None:
    if a != b:
        assert keccak_256(a) != keccak_256(b)


def test_boundary_lengths_cross_rate() -> None:
    # Exercise messages straddling the 136-byte rate boundary.
    digests = {keccak_256(b"q" * n) for n in (135, 136, 137, 271, 272, 273)}
    assert len(digests) == 6


def test_update_after_digest_rejected() -> None:
    sponge = KeccakSponge(rate_bytes=136, digest_bytes=32)
    sponge.update(b"abc")
    assert sponge.digest() == keccak_256(b"abc")
    # digest() is pure w.r.t. buffered state: calling twice agrees
    assert sponge.digest() == keccak_256(b"abc")


def test_invalid_rate_rejected() -> None:
    with pytest.raises(ValueError):
        KeccakSponge(rate_bytes=0, digest_bytes=32)
    with pytest.raises(ValueError):
        KeccakSponge(rate_bytes=133, digest_bytes=32)


def test_keccak256_helper_concatenates() -> None:
    assert keccak256(b"ab", b"cd") == keccak_256(b"abcd")


# ----- keccak256_many: packed passes against one message at a time ---------------

#: Lengths on both sides of the one-, two- and three-block boundaries.
_BOUNDARY_MESSAGES = st.sampled_from([0, 135, 136, 137, 271, 272]).flatmap(
    lambda n: st.binary(min_size=n, max_size=n)
)


@given(
    st.lists(st.one_of(_BOUNDARY_MESSAGES, st.binary(max_size=300)), max_size=24),
    st.lists(st.integers(min_value=0, max_value=23), max_size=6),
)
@example([], [])
@example([b"abc"], [])
@example([b"q" * n for n in (0, 136, 272, 135, 137, 271, 1)], [0, 1, 1])
@example([bytes([i]) * 65 for i in range(64)], [])
@example([bytes([i]) * 300 for i in range(24)], [3])
def test_keccak256_many_matches_keccak256(messages: list, repeats: list) -> None:
    """Mixed block counts in one batch, groups of one, repeated
    messages, wide packs and the empty batch all give ``keccak256``,
    in order."""
    batch = messages + [messages[i % len(messages)] for i in repeats if messages]
    assert keccak256_many(batch) == [keccak256(m) for m in batch]


def test_keccak_256_packed_rejects_mixed_block_counts() -> None:
    with pytest.raises(ValueError):
        keccak_256_packed([b"q" * 135, b"q" * 136])
