"""secp256k1 ECDSA from scratch.

This is the Ethereum transaction-signature algorithm: RFC-6979
deterministic nonces, low-s normalization and public-key recovery (so
the chain substrate can derive sender addresses from signatures exactly
the way Ethereum does), and a verification bound to the recovery id
for signers known by key (PoA seals).  The group arithmetic is the
a = 0 curve core in :mod:`repro.crypto.weierstrass`, which BN254's G1
shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.crypto.hashing import hmac_sha256, keccak256, sha256
from repro.crypto.weierstrass import FixedBaseTable, Point, WeierstrassCurve
from repro.errors import SignatureError

# secp256k1 domain parameters.
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
B = 7
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

GENERATOR: Point = (GX, GY)

#: y² = x³ + 7 over F_P, of prime order N.
SECP256K1 = WeierstrassCurve(P, B, N, (GX, GY))

is_on_curve = SECP256K1.is_on_curve
point_add = SECP256K1.add

_G_TABLE: Optional[FixedBaseTable] = None


def generator_table() -> FixedBaseTable:
    """The process-wide fixed-base table for the generator (lazy).

    8-bit signed-digit windows: 33 rows of 128 affine entries, the last
    row for the top carry, since 8 divides the order's 256 bits.
    """
    global _G_TABLE
    if _G_TABLE is None:
        _G_TABLE = SECP256K1.fixed_base(GENERATOR, window=8)
    return _G_TABLE


def point_mul(scalar: int, point: Point) -> Point:
    """Scalar multiplication on secp256k1.

    Generator multiples (every signature, public key, and the u₁·G
    half of each verification and recovery) walk
    :func:`generator_table`: at most 33 mixed additions in place of
    ~256 doublings.  Other points (the u₂ half of verification and
    recovery) take :meth:`WeierstrassCurve.mul`, a width-5 wNAF walk
    over both GLV halves of the scalar.
    """
    if point != GENERATOR:
        return SECP256K1.mul(point, scalar)
    return generator_table().mul(scalar)


@dataclass(frozen=True)
class ECDSASignature:
    """An ECDSA signature with the recovery id ``v`` (Ethereum style)."""

    r: int
    s: int
    v: int

    def to_bytes(self) -> bytes:
        return self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big") + bytes([self.v])

    @classmethod
    def from_bytes(cls, data: bytes) -> "ECDSASignature":
        if len(data) != 65:
            raise SignatureError("serialized signature must be 65 bytes")
        return cls(
            r=int.from_bytes(data[:32], "big"),
            s=int.from_bytes(data[32:64], "big"),
            v=data[64],
        )


def _rfc6979_nonce(private_key: int, message_hash: bytes) -> int:
    """Deterministic nonce per RFC 6979 (HMAC-SHA-256 construction)."""
    holder = private_key.to_bytes(32, "big")
    v = b"\x01" * 32
    k = b"\x00" * 32
    k = hmac_sha256(k, v + b"\x00" + holder + message_hash)
    v = hmac_sha256(k, v)
    k = hmac_sha256(k, v + b"\x01" + holder + message_hash)
    v = hmac_sha256(k, v)
    while True:
        v = hmac_sha256(k, v)
        candidate = int.from_bytes(v, "big")
        if 1 <= candidate < N:
            return candidate
        k = hmac_sha256(k, v + b"\x00")
        v = hmac_sha256(k, v)


class ECDSAKeyPair:
    """A secp256k1 keypair for blockchain transaction signing."""

    def __init__(self, private_key: int) -> None:
        if not 1 <= private_key < N:
            raise SignatureError("private key out of range")
        self.private_key = private_key
        self.public_key: Tuple[int, int] = point_mul(private_key, GENERATOR)  # type: ignore[assignment]
        self._address: Optional[bytes] = None

    @classmethod
    def from_seed(cls, seed: bytes) -> "ECDSAKeyPair":
        """Derive a keypair deterministically from arbitrary seed bytes."""
        candidate = int.from_bytes(sha256(b"ecdsa-seed", seed), "big") % N
        if candidate == 0:
            candidate = 1
        return cls(candidate)

    def address(self) -> bytes:
        """Ethereum-style 20-byte address: keccak256(pubkey)[12:].

        Hashed once per key pair, as a client derives its own address
        once: miners ask for theirs on every block they seal.
        """
        if self._address is None:
            self._address = public_key_address(self.public_key)
        return self._address

    def sign(self, message_hash: bytes) -> ECDSASignature:
        """Sign a 32-byte message hash; low-s normalized, recoverable."""
        if len(message_hash) != 32:
            raise SignatureError("ECDSA signs 32-byte hashes")
        z = int.from_bytes(message_hash, "big")
        k = _rfc6979_nonce(self.private_key, message_hash)
        while True:
            point = point_mul(k, GENERATOR)
            if point is None:
                raise SignatureError("nonce point at infinity")
            r = point[0] % N
            s = (pow(k, -1, N) * (z + r * self.private_key)) % N
            if r == 0 or s == 0:
                k = (k + 1) % N or 1
                continue
            v = point[1] & 1
            if point[0] >= N:  # astronomically rare; affects recovery id
                v += 2
            if s > N // 2:
                s = N - s
                v ^= 1
            return ECDSASignature(r=r, s=s, v=v)


def is_public_key(point: Point) -> bool:
    """A finite curve point with coordinates in [0, P).

    At infinity u₂·Q vanishes in a verification, and a forged (r, s)
    would pass as x(u₁·G) = r; coordinates outside [0, P) would alias
    a valid key under another encoding.
    """
    if point is None:
        return False
    x, y = point
    return 0 <= x < P and 0 <= y < P and is_on_curve(point)


def public_key_address(public_key: Point) -> bytes:
    """The 20-byte Ethereum-style address of a public key.

    keccak256 of the uncompressed key (64 bytes, no 0x04 prefix), low
    20 bytes.
    """
    x, y = public_key
    return keccak256(x.to_bytes(32, "big") + y.to_bytes(32, "big"))[12:]


def _verification_point(
    public_key: Point, message_hash: bytes, sig: ECDSASignature
) -> Point:
    """R' = s⁻¹(z·G + r·Q) = u₁·G + u₂·Q, or None where a check fails.

    The checks: r and s in [1, N) and :func:`is_public_key`.  One
    generator-table and one variable-base multiplication.
    """
    if not (1 <= sig.r < N and 1 <= sig.s < N):
        return None
    if not is_public_key(public_key):
        return None
    z = int.from_bytes(message_hash, "big")
    w = pow(sig.s, -1, N)
    u1 = (z * w) % N
    u2 = (sig.r * w) % N
    return point_add(point_mul(u1, GENERATOR), point_mul(u2, public_key))


def verify(public_key: Point, message_hash: bytes, sig: ECDSASignature) -> bool:
    """Verify a signature against an explicit public key.

    Accepts when R' = s⁻¹(z·G + r·Q) is finite with x(R') ≡ r (mod N);
    the recovery id is ignored.
    """
    point = _verification_point(public_key, message_hash, sig)
    return point is not None and point[0] % N == sig.r


def verify_recoverable(
    public_key: Point, message_hash: bytes, sig: ECDSASignature
) -> bool:
    """Verify a signature against a known key, bound to its recovery id.

    Accepts exactly when :func:`recover_public_key` would return
    ``public_key``, at the cost of one verification: R' must be finite
    with x(R') = r + N·[v ≥ 2] (not merely ≡ r mod N) and
    y(R') ≡ v (mod 2), after :func:`verify`'s checks and v ∈ {0, 1, 2, 3}.

    Why the two agree.  If recovery returns Q, it decompressed R from
    (r, v) and computed Q = r⁻¹(s·R − z·G); then s·R = z·G + r·Q, so
    R = R', which has the x and the parity above.  Conversely, an R'
    with that x and that parity is the point recovery decompresses
    (x < P because it is a coordinate; y ≠ 0 because the group's order
    is odd, so the parity picks R' and not −R').  Recovery then returns
    r⁻¹(s·R' − z·G) = Q, and its re-verify reads x(R') mod N = r.
    Without the recovery-id binding the seal (r, s, v ^ 1) would also
    pass for Q, though it recovers another key.
    """
    if sig.v not in (0, 1, 2, 3):
        return False
    point = _verification_point(public_key, message_hash, sig)
    return (
        point is not None
        and point[0] == sig.r + (N if sig.v >= 2 else 0)
        and point[1] & 1 == sig.v & 1
    )


def require_low_s(sig: ECDSASignature) -> None:
    """Reject the high-s form (EIP-2).

    The twin (r, N − s, v ^ 1) recovers the same key as (r, s, v), so a
    chain that hashes signatures into transaction or block ids admits
    only the low-s form the signer emits.
    """
    if sig.s > N // 2:
        raise SignatureError("high-s signature (EIP-2)")


def recover_public_key(message_hash: bytes, sig: ECDSASignature) -> Tuple[int, int]:
    """Recover the signer's public key from a recoverable signature.

    R is the curve point with x = r (+ N for v ≥ 2) and the parity of
    y given by v; then Q = r⁻¹(s·R − z·G) = u₁·G + u₂·R with
    u₁ = −z·r⁻¹ and u₂ = s·r⁻¹ (mod N): one generator-table and one
    variable-base multiplication.  The candidate is re-verified
    against the signature before it is returned.
    """
    if not (1 <= sig.r < N and 1 <= sig.s < N):
        raise SignatureError("signature components out of range")
    if sig.v not in (0, 1, 2, 3):
        raise SignatureError("recovery id must be 0, 1, 2 or 3")
    x = sig.r + (N if sig.v >= 2 else 0)
    if x >= P:
        raise SignatureError("invalid recovery x-coordinate")
    y_sq = (pow(x, 3, P) + B) % P
    y = pow(y_sq, (P + 1) // 4, P)
    if (y * y) % P != y_sq:
        raise SignatureError("point decompression failed")
    if y & 1 != sig.v & 1:
        y = P - y
    r_point: Point = (x, y)
    z = int.from_bytes(message_hash, "big")
    r_inv = pow(sig.r, -1, N)
    u1 = (-z * r_inv) % N
    u2 = (sig.s * r_inv) % N
    candidate = point_add(point_mul(u1, GENERATOR), point_mul(u2, r_point))
    if candidate is None or not verify(candidate, message_hash, sig):
        raise SignatureError("public-key recovery produced an invalid key")
    return candidate


def recover_address(message_hash: bytes, sig: ECDSASignature) -> bytes:
    """Recover the 20-byte Ethereum-style sender address."""
    return public_key_address(recover_public_key(message_hash, sig))
