"""secp256k1 ECDSA from scratch.

This is the Ethereum transaction-signature algorithm: Jacobian-coordinate
point arithmetic, RFC-6979 deterministic nonces, low-s normalization and
public-key recovery (so the chain substrate can derive sender addresses
from signatures exactly the way Ethereum does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.crypto.hashing import hmac_sha256, keccak256, sha256
from repro.errors import SignatureError
from repro.zksnark.bn128.glv import GLVParams, cube_root_of_unity

# secp256k1 domain parameters.
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
A = 0
B = 7
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

Point = Optional[Tuple[int, int]]  # None is the point at infinity.


def is_on_curve(point: Point) -> bool:
    """Check whether an affine point satisfies y^2 = x^3 + 7 (mod p)."""
    if point is None:
        return True
    x, y = point
    return (y * y - x * x * x - B) % P == 0


def _to_jacobian(point: Point) -> Tuple[int, int, int]:
    if point is None:
        return (0, 1, 0)
    return (point[0], point[1], 1)


def _from_jacobian(point: Tuple[int, int, int]) -> Point:
    x, y, z = point
    if z == 0:
        return None
    z_inv = pow(z, -1, P)
    z_inv2 = (z_inv * z_inv) % P
    return ((x * z_inv2) % P, (y * z_inv2 * z_inv) % P)


def _jacobian_double(pt: Tuple[int, int, int]) -> Tuple[int, int, int]:
    x, y, z = pt
    if y == 0 or z == 0:
        return (0, 1, 0)
    ysq = (y * y) % P
    s = (4 * x * ysq) % P
    m = (3 * x * x) % P  # a == 0 for secp256k1
    nx = (m * m - 2 * s) % P
    ny = (m * (s - nx) - 8 * ysq * ysq) % P
    nz = (2 * y * z) % P
    return (nx, ny, nz)


def _jacobian_add(p1: Tuple[int, int, int], p2: Tuple[int, int, int]) -> Tuple[int, int, int]:
    if p1[2] == 0:
        return p2
    if p2[2] == 0:
        return p1
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    z1sq = (z1 * z1) % P
    z2sq = (z2 * z2) % P
    u1 = (x1 * z2sq) % P
    u2 = (x2 * z1sq) % P
    s1 = (y1 * z2sq * z2) % P
    s2 = (y2 * z1sq * z1) % P
    if u1 == u2:
        if s1 != s2:
            return (0, 1, 0)
        return _jacobian_double(p1)
    h = (u2 - u1) % P
    r = (s2 - s1) % P
    h2 = (h * h) % P
    h3 = (h * h2) % P
    u1h2 = (u1 * h2) % P
    nx = (r * r - h3 - 2 * u1h2) % P
    ny = (r * (u1h2 - nx) - s1 * h3) % P
    nz = (h * z1 * z2) % P
    return (nx, ny, nz)


def point_add(p1: Point, p2: Point) -> Point:
    """Affine point addition (via Jacobian coordinates)."""
    return _from_jacobian(_jacobian_add(_to_jacobian(p1), _to_jacobian(p2)))


_GLV: Optional[Tuple[GLVParams, int]] = None


def _glv_params() -> Tuple[GLVParams, int]:
    """Lazily paired (GLV parameters, β) with φ(G) = λ·G verified.

    secp256k1 has p ≡ 1 (mod 3) and n ≡ 1 (mod 3), so both cube roots
    exist; λ pairs with exactly one of the two β candidates, fixed by
    checking the endomorphism against the windowed ladder once.
    """
    global _GLV
    if _GLV is None:
        params = GLVParams.for_order(N)
        target = _windowed_mul(params.lam, GENERATOR)
        beta = cube_root_of_unity(P)
        if (beta * GX % P, GY) != target:
            beta = beta * beta % P
        if (beta * GX % P, GY) != target:
            raise ArithmeticError("no cube root of unity realizes phi(G) = lam*G")
        _GLV = (params, beta)
    return _GLV


def _windowed_mul(scalar: int, point: Point) -> Point:
    """4-bit fixed-window ladder (the pre-GLV path; also the oracle)."""
    base = _to_jacobian(point)
    table: list = [None] * 16
    table[1] = base
    table[2] = _jacobian_double(base)
    for digit in range(3, 16):
        table[digit] = _jacobian_add(table[digit - 1], base)
    result = (0, 1, 0)
    for shift in range(((scalar.bit_length() + 3) & ~3) - 4, -1, -4):
        if result[2]:
            result = _jacobian_double(
                _jacobian_double(_jacobian_double(_jacobian_double(result)))
            )
        digit = (scalar >> shift) & 15
        if digit:
            result = _jacobian_add(result, table[digit])
    return _from_jacobian(result)


def _glv_mul(scalar: int, point: Point) -> Point:
    """GLV split + interleaved Shamir ladder: half the doubling count."""
    params, beta = _glv_params()
    k1, k2 = params.decompose(scalar)
    x, y = point
    p1 = (x, y if k1 > 0 else -y % P, 1)
    p2 = (x * beta % P, y if k2 > 0 else -y % P, 1)
    k1, k2 = abs(k1), abs(k2)
    p12 = _jacobian_add(p1, p2)
    acc = (0, 1, 0)
    for i in range(max(k1.bit_length(), k2.bit_length()) - 1, -1, -1):
        acc = _jacobian_double(acc)
        b1 = (k1 >> i) & 1
        b2 = (k2 >> i) & 1
        if b1:
            acc = _jacobian_add(acc, p12 if b2 else p1)
        elif b2:
            acc = _jacobian_add(acc, p2)
    return _from_jacobian(acc)


def point_mul(scalar: int, point: Point) -> Point:
    """Scalar multiplication on secp256k1.

    Generator multiples (every signature, public key, and half of each
    recovery) take a fixed-base window table: 64 pre-doubled windows
    turn ~256 doubles + ~128 adds into at most 64 adds.  Arbitrary
    points (signature recovery, verification) use GLV endomorphism
    decomposition — two ~128-bit halves in one interleaved ladder — for
    scalars above 130 bits, and otherwise a 4-bit window ladder, which
    also serves as the differential oracle for the GLV path.
    """
    scalar %= N
    if scalar == 0 or point is None:
        return None
    if point == GENERATOR:
        return _generator_mul(scalar)
    if scalar.bit_length() > 130:
        return _glv_mul(scalar, point)
    return _windowed_mul(scalar, point)


GENERATOR: Point = (GX, GY)

_GENERATOR_TABLE: list | None = None


def _generator_table() -> list:
    """table[w][d] = (d << 4w) * G in Jacobian coordinates (lazy, cached)."""
    global _GENERATOR_TABLE
    if _GENERATOR_TABLE is None:
        table = []
        base = _to_jacobian(GENERATOR)
        for _ in range(64):
            row: list = [None] * 16
            acc = (0, 1, 0)
            for digit in range(1, 16):
                acc = _jacobian_add(acc, base)
                row[digit] = acc
            table.append(row)
            base = _jacobian_double(_jacobian_double(_jacobian_double(_jacobian_double(base))))
        _GENERATOR_TABLE = table
    return _GENERATOR_TABLE


def _generator_mul(scalar: int) -> Point:
    """Fixed-base multiplication of the generator (scalar in [1, N))."""
    table = _generator_table()
    result = (0, 1, 0)
    window = 0
    while scalar:
        digit = scalar & 15
        if digit:
            result = _jacobian_add(result, table[window][digit])
        scalar >>= 4
        window += 1
    return _from_jacobian(result)


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

    @classmethod
    def from_seed(cls, seed: bytes) -> "ECDSAKeyPair":
        """Derive a keypair deterministically from arbitrary seed bytes."""
        candidate = int.from_bytes(sha256(b"ecdsa-seed", seed), "big") % N
        if candidate == 0:
            candidate = 1
        return cls(candidate)

    def public_key_bytes(self) -> bytes:
        """Uncompressed public key (64 bytes, no 0x04 prefix — Ethereum style)."""
        x, y = self.public_key
        return x.to_bytes(32, "big") + y.to_bytes(32, "big")

    def address(self) -> bytes:
        """Ethereum-style 20-byte address: keccak256(pubkey)[12:]."""
        return keccak256(self.public_key_bytes())[12:]

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


def verify(public_key: Tuple[int, int], message_hash: bytes, sig: ECDSASignature) -> bool:
    """Verify a signature against an explicit public key."""
    if not (1 <= sig.r < N and 1 <= sig.s < N):
        return False
    if not is_on_curve(public_key):
        return False
    z = int.from_bytes(message_hash, "big")
    w = pow(sig.s, -1, N)
    u1 = (z * w) % N
    u2 = (sig.r * w) % N
    point = point_add(point_mul(u1, GENERATOR), point_mul(u2, public_key))
    if point is None:
        return False
    return point[0] % N == sig.r


def require_low_s(sig: ECDSASignature) -> None:
    """Reject the high-s form (EIP-2).

    The twin (r, N − s, v ^ 1) recovers the same key as (r, s, v), so a
    chain that hashes signatures into transaction or block ids admits
    only the low-s form the signer emits.
    """
    if sig.s > N // 2:
        raise SignatureError("high-s signature (EIP-2)")


def recover_public_key(message_hash: bytes, sig: ECDSASignature) -> Tuple[int, int]:
    """Recover the signer's public key from a recoverable signature."""
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
    # Q = r^-1 (s*R - z*G)
    candidate = point_mul(
        r_inv,
        point_add(point_mul(sig.s, r_point), point_mul(N - (z % N), GENERATOR)),
    )
    if candidate is None or not verify(candidate, message_hash, sig):
        raise SignatureError("public-key recovery produced an invalid key")
    return candidate


def recover_address(message_hash: bytes, sig: ECDSASignature) -> bytes:
    """Recover the 20-byte Ethereum-style sender address."""
    x, y = recover_public_key(message_hash, sig)
    return keccak256(x.to_bytes(32, "big") + y.to_bytes(32, "big"))[12:]
