"""Hash-function front ends used across the library.

SHA-256 is the paper's DApp-layer hash; Keccak-256 backs Ethereum-style
addresses in the chain substrate.  ``hash_to_field`` maps arbitrary
bytes into the BN128 scalar field for circuit public inputs.

:func:`keccak256_many` hashes a batch of independent messages (a Merkle
level) in shared permutation passes: it groups them by padded block
count, runs each group of two or more as the instances of one packed
sponge, and sends a group of one through :func:`keccak256`, because
the one-lane permutation is the faster path for a single message.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from typing import Dict, List, Sequence

from repro.crypto.keccak import keccak_256, keccak_256_packed


def sha256(*parts: bytes) -> bytes:
    """SHA-256 over the concatenation of ``parts``."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.digest()


def keccak256(*parts: bytes) -> bytes:
    """Keccak-256 (Ethereum variant) over the concatenation of ``parts``."""
    return keccak_256(b"".join(parts))


def keccak256_many(messages: Sequence[bytes]) -> List[bytes]:
    """``[keccak256(m) for m in messages]``, sharing permutation passes.

    Messages are grouped by padded block count (``len // 136 + 1``);
    each group of two or more runs as the instances of one
    :func:`~repro.crypto.keccak.keccak_256_packed` call, and a group of
    one goes through :func:`keccak256`, whose one-lane permutation is
    faster than a pass packed with a single instance.  Digests come
    back in input order.
    """
    groups: Dict[int, List[int]] = {}
    for position, message in enumerate(messages):
        groups.setdefault(len(message) // 136 + 1, []).append(position)
    digests: List[bytes] = [b""] * len(messages)
    for members in groups.values():
        if len(members) == 1:
            digests[members[0]] = keccak256(messages[members[0]])
            continue
        batch = keccak_256_packed([messages[position] for position in members])
        for position, digest in zip(members, batch):
            digests[position] = digest
    return digests


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA-256, used by RFC-6979 deterministic ECDSA nonces."""
    return _hmac.new(key, message, hashlib.sha256).digest()


def hash_to_int(data: bytes, modulus: int, domain: bytes = b"") -> int:
    """Hash ``data`` to an integer in ``[0, modulus)`` with negligible bias.

    Expands to 2x the modulus width via counter-mode SHA-256 before
    reducing, so the output distribution is statistically close to
    uniform (bias < 2^-256 for a 254-bit modulus).
    """
    if modulus <= 1:
        raise ValueError("modulus must exceed 1")
    width_bytes = 2 * ((modulus.bit_length() + 7) // 8)
    stream = b""
    counter = 0
    while len(stream) < width_bytes:
        stream += sha256(domain, counter.to_bytes(4, "big"), data)
        counter += 1
    return int.from_bytes(stream[:width_bytes], "big") % modulus
