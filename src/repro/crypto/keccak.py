"""Keccak-256, implemented from the Keccak-f[1600] permutation.

Ethereum addresses are the low 20 bytes of Keccak-256 of the public key,
so the chain substrate needs the *original* Keccak padding (0x01), not
the FIPS-202 SHA-3 padding (0x06).  This module implements the sponge
from first principles; it is validated against known Ethereum test
vectors in the test suite.
"""

from __future__ import annotations

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

# Rotation offsets r[x][y] for the rho step.
_ROTATIONS = (
    (0, 36, 3, 41, 18),
    (1, 44, 10, 45, 2),
    (62, 6, 43, 15, 61),
    (28, 55, 25, 21, 56),
    (27, 20, 39, 8, 14),
)

_MASK = (1 << 64) - 1


def keccak_f1600(state: list[int]) -> list[int]:
    """Apply the 24-round Keccak-f[1600] permutation to a 5x5 lane state.

    ``state`` is a flat list of 25 64-bit lanes indexed as ``x + 5*y``.

    The theta/rho/pi/chi steps are fully unrolled with the state held
    in locals: this permutation is the chain's hashing workhorse
    (every tx hash, address, block hash, and trie node), and the
    rolled-loop version spends most of its time on list indexing and
    call overhead.  Unrolling is a ~3x speedup in pure Python.
    """
    M = _MASK
    (L0, L1, L2, L3, L4, L5, L6, L7, L8, L9, L10, L11, L12,
     L13, L14, L15, L16, L17, L18, L19, L20, L21, L22, L23, L24) = state
    for rc in _ROUND_CONSTANTS:
        # theta
        c0 = L0 ^ L5 ^ L10 ^ L15 ^ L20
        c1 = L1 ^ L6 ^ L11 ^ L16 ^ L21
        c2 = L2 ^ L7 ^ L12 ^ L17 ^ L22
        c3 = L3 ^ L8 ^ L13 ^ L18 ^ L23
        c4 = L4 ^ L9 ^ L14 ^ L19 ^ L24
        d0 = c4 ^ (((c1 << 1) | (c1 >> 63)) & M)
        d1 = c0 ^ (((c2 << 1) | (c2 >> 63)) & M)
        d2 = c1 ^ (((c3 << 1) | (c3 >> 63)) & M)
        d3 = c2 ^ (((c4 << 1) | (c4 >> 63)) & M)
        d4 = c3 ^ (((c0 << 1) | (c0 >> 63)) & M)
        # rho + pi (b[y + 5*((2x+3y)%5)] = rotl(lane[x+5y], r[x][y]))
        t = L0 ^ d0
        b0 = t
        t = L5 ^ d0
        b16 = ((t << 36) | (t >> 28)) & M
        t = L10 ^ d0
        b7 = ((t << 3) | (t >> 61)) & M
        t = L15 ^ d0
        b23 = ((t << 41) | (t >> 23)) & M
        t = L20 ^ d0
        b14 = ((t << 18) | (t >> 46)) & M
        t = L1 ^ d1
        b10 = ((t << 1) | (t >> 63)) & M
        t = L6 ^ d1
        b1 = ((t << 44) | (t >> 20)) & M
        t = L11 ^ d1
        b17 = ((t << 10) | (t >> 54)) & M
        t = L16 ^ d1
        b8 = ((t << 45) | (t >> 19)) & M
        t = L21 ^ d1
        b24 = ((t << 2) | (t >> 62)) & M
        t = L2 ^ d2
        b20 = ((t << 62) | (t >> 2)) & M
        t = L7 ^ d2
        b11 = ((t << 6) | (t >> 58)) & M
        t = L12 ^ d2
        b2 = ((t << 43) | (t >> 21)) & M
        t = L17 ^ d2
        b18 = ((t << 15) | (t >> 49)) & M
        t = L22 ^ d2
        b9 = ((t << 61) | (t >> 3)) & M
        t = L3 ^ d3
        b5 = ((t << 28) | (t >> 36)) & M
        t = L8 ^ d3
        b21 = ((t << 55) | (t >> 9)) & M
        t = L13 ^ d3
        b12 = ((t << 25) | (t >> 39)) & M
        t = L18 ^ d3
        b3 = ((t << 21) | (t >> 43)) & M
        t = L23 ^ d3
        b19 = ((t << 56) | (t >> 8)) & M
        t = L4 ^ d4
        b15 = ((t << 27) | (t >> 37)) & M
        t = L9 ^ d4
        b6 = ((t << 20) | (t >> 44)) & M
        t = L14 ^ d4
        b22 = ((t << 39) | (t >> 25)) & M
        t = L19 ^ d4
        b13 = ((t << 8) | (t >> 56)) & M
        t = L24 ^ d4
        b4 = ((t << 14) | (t >> 50)) & M
        # chi ((~b) & M == b ^ M for 64-bit lanes) + iota on L0
        L0 = b0 ^ ((b1 ^ M) & b2) ^ rc
        L1 = b1 ^ ((b2 ^ M) & b3)
        L2 = b2 ^ ((b3 ^ M) & b4)
        L3 = b3 ^ ((b4 ^ M) & b0)
        L4 = b4 ^ ((b0 ^ M) & b1)
        L5 = b5 ^ ((b6 ^ M) & b7)
        L6 = b6 ^ ((b7 ^ M) & b8)
        L7 = b7 ^ ((b8 ^ M) & b9)
        L8 = b8 ^ ((b9 ^ M) & b5)
        L9 = b9 ^ ((b5 ^ M) & b6)
        L10 = b10 ^ ((b11 ^ M) & b12)
        L11 = b11 ^ ((b12 ^ M) & b13)
        L12 = b12 ^ ((b13 ^ M) & b14)
        L13 = b13 ^ ((b14 ^ M) & b10)
        L14 = b14 ^ ((b10 ^ M) & b11)
        L15 = b15 ^ ((b16 ^ M) & b17)
        L16 = b16 ^ ((b17 ^ M) & b18)
        L17 = b17 ^ ((b18 ^ M) & b19)
        L18 = b18 ^ ((b19 ^ M) & b15)
        L19 = b19 ^ ((b15 ^ M) & b16)
        L20 = b20 ^ ((b21 ^ M) & b22)
        L21 = b21 ^ ((b22 ^ M) & b23)
        L22 = b22 ^ ((b23 ^ M) & b24)
        L23 = b23 ^ ((b24 ^ M) & b20)
        L24 = b24 ^ ((b20 ^ M) & b21)
    return [L0, L1, L2, L3, L4, L5, L6, L7, L8, L9, L10, L11, L12,
            L13, L14, L15, L16, L17, L18, L19, L20, L21, L22, L23, L24]


class KeccakSponge:
    """Incremental Keccak sponge with the original 0x01 domain padding."""

    def __init__(self, rate_bytes: int, digest_bytes: int) -> None:
        if rate_bytes <= 0 or rate_bytes >= 200 or rate_bytes % 8 != 0:
            raise ValueError("rate must be a positive multiple of 8 below 200")
        self._rate = rate_bytes
        self._digest_size = digest_bytes
        self._state = [0] * 25
        self._buffer = bytearray()
        self._finalized = False

    def update(self, data: bytes) -> "KeccakSponge":
        if self._finalized:
            raise ValueError("cannot update a finalized sponge")
        self._buffer.extend(data)
        while len(self._buffer) >= self._rate:
            block = bytes(self._buffer[: self._rate])
            del self._buffer[: self._rate]
            self._absorb(block)
        return self

    def _absorb(self, block: bytes) -> None:
        for i in range(0, len(block), 8):
            lane_index = i // 8
            self._state[lane_index] ^= int.from_bytes(block[i : i + 8], "little")
        self._state = keccak_f1600(self._state)

    def digest(self) -> bytes:
        # Pad: Keccak pad10*1 with domain bit 0x01.
        padded = bytearray(self._buffer)
        pad_len = self._rate - (len(padded) % self._rate)
        padding = bytearray(pad_len)
        padding[0] = 0x01
        padding[-1] |= 0x80
        padded.extend(padding)
        state = list(self._state)
        for offset in range(0, len(padded), self._rate):
            block = padded[offset : offset + self._rate]
            for i in range(0, self._rate, 8):
                state[i // 8] ^= int.from_bytes(block[i : i + 8], "little")
            state = keccak_f1600(state)
        # Squeeze
        output = bytearray()
        while len(output) < self._digest_size:
            for lane in state[: self._rate // 8]:
                output.extend(lane.to_bytes(8, "little"))
                if len(output) >= self._digest_size:
                    break
            if len(output) < self._digest_size:
                state = keccak_f1600(state)
        return bytes(output[: self._digest_size])


def keccak_256(data: bytes) -> bytes:
    """One-shot Keccak-256 (rate 136, original padding) of ``data``."""
    return KeccakSponge(rate_bytes=136, digest_bytes=32).update(data).digest()
