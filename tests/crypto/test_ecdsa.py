"""secp256k1 ECDSA: curve laws, signatures, recovery, addresses."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import ecdsa
from repro.crypto.hashing import sha256
from repro.errors import SignatureError

scalars = st.integers(min_value=1, max_value=ecdsa.N - 1)


def test_generator_on_curve() -> None:
    assert ecdsa.is_on_curve(ecdsa.GENERATOR)


def test_group_order() -> None:
    assert ecdsa.point_mul(ecdsa.N, ecdsa.GENERATOR) is None


def test_known_address_for_private_key_one() -> None:
    # Widely known vector: privkey 1 → this Ethereum address.
    kp = ecdsa.ECDSAKeyPair(1)
    assert kp.address().hex() == "7e5f4552091a69125d5dfcb7b8c2659029395bdf"


def test_known_address_for_private_key_two() -> None:
    kp = ecdsa.ECDSAKeyPair(2)
    assert kp.address().hex() == "2b5ad5c4795c026514f8317c7a215e218dccd6cf"


def test_address_is_hashed_once_per_key_pair(monkeypatch) -> None:
    kp = ecdsa.ECDSAKeyPair(3)
    first = kp.address()
    hashed = []
    monkeypatch.setattr(ecdsa, "keccak256", hashed.append)
    assert kp.address() == first
    assert hashed == []


@given(scalars, scalars)
@settings(max_examples=10, deadline=None)
def test_scalar_mul_homomorphic(a: int, b: int) -> None:
    left = ecdsa.point_add(
        ecdsa.point_mul(a, ecdsa.GENERATOR), ecdsa.point_mul(b, ecdsa.GENERATOR)
    )
    right = ecdsa.point_mul((a + b) % ecdsa.N, ecdsa.GENERATOR)
    assert left == right


def test_point_add_identity() -> None:
    p = ecdsa.point_mul(12345, ecdsa.GENERATOR)
    assert ecdsa.point_add(p, None) == p
    assert ecdsa.point_add(None, p) == p


def test_point_add_inverse_is_infinity() -> None:
    p = ecdsa.point_mul(7, ecdsa.GENERATOR)
    neg = (p[0], ecdsa.P - p[1])
    assert ecdsa.point_add(p, neg) is None


def test_sign_verify_roundtrip() -> None:
    kp = ecdsa.ECDSAKeyPair.from_seed(b"signer")
    digest = sha256(b"message")
    signature = kp.sign(digest)
    assert ecdsa.verify(kp.public_key, digest, signature)


def test_verify_rejects_other_message() -> None:
    kp = ecdsa.ECDSAKeyPair.from_seed(b"signer")
    signature = kp.sign(sha256(b"message"))
    assert not ecdsa.verify(kp.public_key, sha256(b"other"), signature)


def test_verify_rejects_tampered_signature() -> None:
    kp = ecdsa.ECDSAKeyPair.from_seed(b"signer")
    digest = sha256(b"message")
    signature = kp.sign(digest)
    bad = ecdsa.ECDSASignature(r=signature.r, s=(signature.s + 1) % ecdsa.N,
                               v=signature.v)
    assert not ecdsa.verify(kp.public_key, digest, bad)


def test_deterministic_signatures_rfc6979() -> None:
    kp = ecdsa.ECDSAKeyPair.from_seed(b"signer")
    digest = sha256(b"message")
    assert kp.sign(digest) == kp.sign(digest)


def test_low_s_normalization() -> None:
    kp = ecdsa.ECDSAKeyPair.from_seed(b"signer")
    for i in range(8):
        signature = kp.sign(sha256(b"m%d" % i))
        assert signature.s <= ecdsa.N // 2


@given(st.binary(min_size=1, max_size=16))
@settings(max_examples=10, deadline=None)
def test_recovery_property(seed: bytes) -> None:
    kp = ecdsa.ECDSAKeyPair.from_seed(seed)
    digest = sha256(b"payload", seed)
    signature = kp.sign(digest)
    assert ecdsa.recover_public_key(digest, signature) == kp.public_key
    assert ecdsa.recover_address(digest, signature) == kp.address()


def test_recovery_wrong_digest_gives_other_key() -> None:
    kp = ecdsa.ECDSAKeyPair.from_seed(b"signer")
    signature = kp.sign(sha256(b"message"))
    try:
        recovered = ecdsa.recover_public_key(sha256(b"other"), signature)
        assert recovered != kp.public_key
    except SignatureError:
        pass  # recovery may also simply fail


def test_signature_serialization_roundtrip() -> None:
    kp = ecdsa.ECDSAKeyPair.from_seed(b"signer")
    signature = kp.sign(sha256(b"m"))
    assert ecdsa.ECDSASignature.from_bytes(signature.to_bytes()) == signature


def test_signature_from_bytes_length_checked() -> None:
    with pytest.raises(SignatureError):
        ecdsa.ECDSASignature.from_bytes(b"\x00" * 64)


def test_private_key_range_enforced() -> None:
    with pytest.raises(SignatureError):
        ecdsa.ECDSAKeyPair(0)
    with pytest.raises(SignatureError):
        ecdsa.ECDSAKeyPair(ecdsa.N)


def test_sign_requires_32_byte_hash() -> None:
    kp = ecdsa.ECDSAKeyPair.from_seed(b"signer")
    with pytest.raises(SignatureError):
        kp.sign(b"short")


def test_verify_rejects_off_curve_key() -> None:
    digest = sha256(b"m")
    kp = ecdsa.ECDSAKeyPair.from_seed(b"signer")
    signature = kp.sign(digest)
    assert not ecdsa.verify((1, 1), digest, signature)
