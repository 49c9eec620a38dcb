"""Keccak-256, implemented from the Keccak-f[1600] permutation.

Ethereum addresses are the low 20 bytes of Keccak-256 of the public key,
so the chain substrate needs the *original* Keccak padding (0x01), not
the FIPS-202 SHA-3 padding (0x06).  This module implements the sponge
from first principles; it is validated against known Ethereum test
vectors and, through the 0x06 padding, against ``hashlib``'s SHA-3.

The permutation comes in two forms.  :func:`keccak_f1600` permutes one
state of 25 64-bit lanes.  :func:`keccak_f1600_packed` permutes k
independent states in one pass: lane j of instance i sits at bits
[64i, 64i + 64) of one Python int, the pure-Python form of the
multi-instance permutations (``KeccakP-1600-times2/4/8``) in the Keccak
team's XKCP.  Python's cost is per operation far more than per bit, so
one packed pass costs little more than one scalar pass until k is in
the dozens: per 65-byte hash, 0.35 ms one at a time against 0.20 ms at
k = 2, 0.065 ms at k = 8 and 0.029 ms at k = 24.
:func:`keccak_256_packed` is the sponge over such a pass, for messages
that pad to the same number of blocks.  A single message stays on the
one-lane form, which the per-lane masks would only slow (1.15x at
k = 1).
"""

from __future__ import annotations

import struct
from typing import Sequence

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


#: The distinct nonzero rho offsets, ascending as ``keccak_f1600_packed``
#: unpacks their masks; theta's rotation by 1 is one of them.
_RHO_AMOUNTS = tuple(sorted({r for row in _ROTATIONS for r in row if r}))


def keccak_f1600_packed(state: list[int], instances: int) -> list[int]:
    """Apply Keccak-f[1600] to ``instances`` independent states in one pass.

    Lane j of instance i sits at bits [64i, 64i + 64) of ``state[j]``,
    so each of the 25 entries packs that lane of every instance into
    one int.  XOR and AND already act lane by lane on such an int; NOT
    is XOR with the all-ones mask of every lane, the round constants
    are replicated into every lane, and a rotation by r becomes
    ``((t << r) & hi_r) | ((t >> (64 − r)) & lo_r)``, whose per-lane
    masks drop the bits that would cross into a neighbouring instance.
    The unrolling is :func:`keccak_f1600`'s, step for step.

    Python pays per operation far more than per bit, so a pass over k
    instances costs 1.1x one scalar pass at k = 1, 1.4x at k = 8 and
    1.8x at k = 24.  A single state therefore stays on
    :func:`keccak_f1600`.  The masks depend on ``instances`` and are
    derived on every call (11-47 us for k = 1-64, against a pass of
    0.4-1.1 ms), so nothing is cached.
    """
    rep = ((1 << (64 * instances)) - 1) // _MASK  # a 1 at the bottom of every lane
    M = _MASK * rep
    los = [((1 << r) - 1) * rep for r in _RHO_AMOUNTS]
    (lo1, lo2, lo3, lo6, lo8, lo10, lo14, lo15, lo18, lo20, lo21, lo25, lo27,
     lo28, lo36, lo39, lo41, lo43, lo44, lo45, lo55, lo56, lo61, lo62) = los
    (hi1, hi2, hi3, hi6, hi8, hi10, hi14, hi15, hi18, hi20, hi21, hi25, hi27,
     hi28, hi36, hi39, hi41, hi43, hi44, hi45, hi55, hi56, hi61, hi62) = [
        M ^ lo for lo in los
    ]
    rcs = [rc * rep for rc in _ROUND_CONSTANTS]
    (L0, L1, L2, L3, L4, L5, L6, L7, L8, L9, L10, L11, L12,
     L13, L14, L15, L16, L17, L18, L19, L20, L21, L22, L23, L24) = state
    for rc in rcs:
        # theta
        c0 = L0 ^ L5 ^ L10 ^ L15 ^ L20
        c1 = L1 ^ L6 ^ L11 ^ L16 ^ L21
        c2 = L2 ^ L7 ^ L12 ^ L17 ^ L22
        c3 = L3 ^ L8 ^ L13 ^ L18 ^ L23
        c4 = L4 ^ L9 ^ L14 ^ L19 ^ L24
        d0 = c4 ^ (((c1 << 1) & hi1) | ((c1 >> 63) & lo1))
        d1 = c0 ^ (((c2 << 1) & hi1) | ((c2 >> 63) & lo1))
        d2 = c1 ^ (((c3 << 1) & hi1) | ((c3 >> 63) & lo1))
        d3 = c2 ^ (((c4 << 1) & hi1) | ((c4 >> 63) & lo1))
        d4 = c3 ^ (((c0 << 1) & hi1) | ((c0 >> 63) & lo1))
        # rho + pi (b[y + 5*((2x+3y)%5)] = rotl(lane[x+5y], r[x][y]))
        t = L0 ^ d0
        b0 = t
        t = L5 ^ d0
        b16 = ((t << 36) & hi36) | ((t >> 28) & lo36)
        t = L10 ^ d0
        b7 = ((t << 3) & hi3) | ((t >> 61) & lo3)
        t = L15 ^ d0
        b23 = ((t << 41) & hi41) | ((t >> 23) & lo41)
        t = L20 ^ d0
        b14 = ((t << 18) & hi18) | ((t >> 46) & lo18)
        t = L1 ^ d1
        b10 = ((t << 1) & hi1) | ((t >> 63) & lo1)
        t = L6 ^ d1
        b1 = ((t << 44) & hi44) | ((t >> 20) & lo44)
        t = L11 ^ d1
        b17 = ((t << 10) & hi10) | ((t >> 54) & lo10)
        t = L16 ^ d1
        b8 = ((t << 45) & hi45) | ((t >> 19) & lo45)
        t = L21 ^ d1
        b24 = ((t << 2) & hi2) | ((t >> 62) & lo2)
        t = L2 ^ d2
        b20 = ((t << 62) & hi62) | ((t >> 2) & lo62)
        t = L7 ^ d2
        b11 = ((t << 6) & hi6) | ((t >> 58) & lo6)
        t = L12 ^ d2
        b2 = ((t << 43) & hi43) | ((t >> 21) & lo43)
        t = L17 ^ d2
        b18 = ((t << 15) & hi15) | ((t >> 49) & lo15)
        t = L22 ^ d2
        b9 = ((t << 61) & hi61) | ((t >> 3) & lo61)
        t = L3 ^ d3
        b5 = ((t << 28) & hi28) | ((t >> 36) & lo28)
        t = L8 ^ d3
        b21 = ((t << 55) & hi55) | ((t >> 9) & lo55)
        t = L13 ^ d3
        b12 = ((t << 25) & hi25) | ((t >> 39) & lo25)
        t = L18 ^ d3
        b3 = ((t << 21) & hi21) | ((t >> 43) & lo21)
        t = L23 ^ d3
        b19 = ((t << 56) & hi56) | ((t >> 8) & lo56)
        t = L4 ^ d4
        b15 = ((t << 27) & hi27) | ((t >> 37) & lo27)
        t = L9 ^ d4
        b6 = ((t << 20) & hi20) | ((t >> 44) & lo20)
        t = L14 ^ d4
        b22 = ((t << 39) & hi39) | ((t >> 25) & lo39)
        t = L19 ^ d4
        b13 = ((t << 8) & hi8) | ((t >> 56) & lo8)
        t = L24 ^ d4
        b4 = ((t << 14) & hi14) | ((t >> 50) & lo14)
        # chi (NOT is XOR with M) + iota on L0
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
    """Incremental Keccak sponge with the original 0x01 domain padding.

    Each full block is read as its rate's 64-bit lanes with one
    ``struct`` unpack and XORed into the state; ``digest`` pads the
    buffered tail once and leaves the sponge as it was, so it may be
    called again or updated further.
    """

    def __init__(self, rate_bytes: int, digest_bytes: int) -> None:
        if rate_bytes <= 0 or rate_bytes >= 200 or rate_bytes % 8 != 0:
            raise ValueError("rate must be a positive multiple of 8 below 200")
        self._rate = rate_bytes
        self._digest_size = digest_bytes
        self._lanes = struct.Struct(f"<{rate_bytes // 8}Q")
        self._state = [0] * 25
        self._buffer = b""

    def update(self, data: bytes) -> "KeccakSponge":
        buffer = self._buffer + data
        full = len(buffer) - len(buffer) % self._rate
        for offset in range(0, full, self._rate):
            self._state = self._absorb(self._state, buffer, offset)
        self._buffer = buffer[full:]
        return self

    def _absorb(self, state: list[int], data: bytes, offset: int) -> list[int]:
        """The permuted state after XORing in the block at ``data[offset:]``."""
        words = self._lanes.unpack_from(data, offset)
        absorbed = [lane ^ word for lane, word in zip(state, words)]
        return keccak_f1600(absorbed + state[len(words):])

    def digest(self) -> bytes:
        # Pad: Keccak pad10*1 with domain bit 0x01 (one byte 0x81 when
        # a single byte of the block is left).
        gap = self._rate - len(self._buffer)
        tail = self._buffer + (
            b"\x81" if gap == 1 else b"\x01" + bytes(gap - 2) + b"\x80"
        )
        state = self._absorb(self._state, tail, 0)
        # Squeeze
        output = b""
        while True:
            output += self._lanes.pack(*state[: self._rate // 8])
            if len(output) >= self._digest_size:
                return output[: self._digest_size]
            state = keccak_f1600(state)


def keccak_256(data: bytes) -> bytes:
    """One-shot Keccak-256 (rate 136, original padding) of ``data``."""
    return KeccakSponge(rate_bytes=136, digest_bytes=32).update(data).digest()


def keccak_256_packed(messages: Sequence[bytes]) -> list[bytes]:
    """Keccak-256 of messages that pad to the same number of 136-byte
    blocks, as instances of one :func:`keccak_f1600_packed` pass per block.

    The padded messages sit end to end in one buffer read as 64-bit
    words, so lane j of a block, across every instance, is one strided
    slice of that buffer and one ``int.from_bytes``.  Each of the four
    output lanes leaves with one ``to_bytes`` and is strided back into
    the digests.  Use it for two or more messages: one message is
    cheaper through :func:`keccak_256`.
    """
    instances = len(messages)
    blocks = len(messages[0]) // 136 + 1
    width = 136 * blocks
    padded = []
    for message in messages:
        gap = width - len(message)
        if not 0 < gap <= 136:
            raise ValueError("packed messages must pad to the same block count")
        padded.append(
            message + (b"\x81" if gap == 1 else b"\x01" + bytes(gap - 2) + b"\x80")
        )
    words = memoryview(b"".join(padded)).cast("Q")
    stride = 17 * blocks
    state = [0] * 25
    for block in range(0, stride, 17):
        for lane in range(17):
            state[lane] ^= int.from_bytes(
                words[block + lane :: stride].tobytes(), "little"
            )
        state = keccak_f1600_packed(state, instances)
    digests = bytearray(32 * instances)
    out = memoryview(digests).cast("Q")
    for lane in range(4):
        squeezed = state[lane].to_bytes(8 * instances, "little")
        out[lane::4] = memoryview(squeezed).cast("Q")
    return [bytes(digests[i : i + 32]) for i in range(0, 32 * instances, 32)]
