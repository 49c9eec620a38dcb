"""Wycheproof-style edge vectors for the crypto stack.

Hostile-input cases the happy-path suites never exercise: ECDSA
signature malleability and malformed (r, s, v) components, RSA-OAEP
label binding and ciphertext framing faults, and Keccak inputs sitting
exactly on the sponge's rate boundary — cross-checked against an
independent minimal sponge built directly on ``keccak_f1600``.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto import ecdsa
from repro.crypto.ecdsa import (
    ECDSAKeyPair,
    ECDSASignature,
    N,
    recover_address,
    recover_public_key,
    verify,
)
from repro.crypto.keccak import KeccakSponge, keccak_256, keccak_f1600
from repro.crypto.oaep import max_message_length
from repro.crypto.rsa import RSAKeyPair
from repro.errors import CryptoError, DecryptionError, SignatureError

# ----- ECDSA: malleability and malformed components -------------------------------

HASH = bytes(range(32))


@pytest.fixture(scope="module")
def keypair() -> ECDSAKeyPair:
    return ECDSAKeyPair.from_seed(b"edge-vector-signer")


@pytest.fixture(scope="module")
def signature(keypair: ECDSAKeyPair) -> ECDSASignature:
    return keypair.sign(HASH)


def test_signer_always_emits_low_s(keypair: ECDSAKeyPair) -> None:
    for i in range(16):
        sig = keypair.sign(bytes([i]) * 32)
        assert 1 <= sig.s <= N // 2, "signature not low-s normalized"
        assert sig.v in (0, 1)


def test_high_s_twin_still_passes_raw_verify(
    keypair: ECDSAKeyPair, signature: ECDSASignature
) -> None:
    """(r, N-s) is the classic malleable twin: plain ECDSA verification
    accepts it, which is exactly why the chain relies on address
    recovery (below) rather than raw verify for sender binding."""
    twin = ECDSASignature(r=signature.r, s=N - signature.s, v=signature.v)
    assert twin.s > N // 2
    assert verify(keypair.public_key, HASH, twin) is True


def test_high_s_twin_recovers_a_different_address(
    keypair: ECDSAKeyPair, signature: ECDSASignature
) -> None:
    """Flipping s without flipping v must NOT recover the signer, so a
    malleated transaction cannot impersonate the original sender."""
    twin = ECDSASignature(r=signature.r, s=N - signature.s, v=signature.v)
    try:
        recovered = recover_address(HASH, twin)
    except SignatureError:
        return  # outright rejection is equally acceptable
    assert recovered != keypair.address()
    # The honest twin (s and v both flipped) recovers the signer again.
    honest = ECDSASignature(r=signature.r, s=N - signature.s, v=signature.v ^ 1)
    assert recover_address(HASH, honest) == keypair.address()


@pytest.mark.parametrize("r,s", [(0, 1), (1, 0), (0, 0)])
def test_zero_r_or_s_rejected(keypair: ECDSAKeyPair, r: int, s: int) -> None:
    bogus = ECDSASignature(r=r, s=s, v=0)
    assert verify(keypair.public_key, HASH, bogus) is False
    with pytest.raises(SignatureError):
        recover_public_key(HASH, bogus)


@pytest.mark.parametrize("which", ["r", "s"])
@pytest.mark.parametrize("value", [N, N + 1, 2**256 - 1])
def test_out_of_range_r_or_s_rejected(
    keypair: ECDSAKeyPair, signature: ECDSASignature, which: str, value: int
) -> None:
    bogus = ECDSASignature(
        r=value if which == "r" else signature.r,
        s=value if which == "s" else signature.s,
        v=signature.v,
    )
    assert verify(keypair.public_key, HASH, bogus) is False
    with pytest.raises(SignatureError):
        recover_public_key(HASH, bogus)


def test_wrong_recovery_id_recovers_a_stranger(
    keypair: ECDSAKeyPair, signature: ECDSASignature
) -> None:
    flipped = ECDSASignature(r=signature.r, s=signature.s, v=signature.v ^ 1)
    try:
        recovered = recover_public_key(HASH, flipped)
    except SignatureError:
        return
    assert recovered != keypair.public_key
    assert recover_address(HASH, flipped) != keypair.address()


def test_recovery_id_two_rejected_for_ordinary_r(signature: ECDSASignature) -> None:
    # v >= 2 means r came from an x-coordinate >= N; for any realistic r
    # that pushes x past the field prime, which must be rejected.
    assert signature.r + N >= ecdsa.P  # precondition for this vector
    bogus = ECDSASignature(r=signature.r, s=signature.s, v=signature.v + 2)
    with pytest.raises(SignatureError):
        recover_public_key(HASH, bogus)


@pytest.mark.parametrize("offset", [-2, -4, -256])
def test_negative_recovery_id_rejected(
    signature: ECDSASignature, offset: int
) -> None:
    """Recovery reads ``v >= 2`` and ``v & 1``, so a negative v with the
    signer's parity would recover the signer under a new transaction
    hash; only v in {0, 1, 2, 3} is a recovery id."""
    bogus = ECDSASignature(r=signature.r, s=signature.s, v=signature.v + offset)
    with pytest.raises(SignatureError, match="recovery id"):
        recover_public_key(HASH, bogus)


def test_require_low_s_rejects_only_the_high_s_twin(
    keypair: ECDSAKeyPair, signature: ECDSASignature
) -> None:
    """The primitive still recovers the signer from the honest high-s
    twin; ``require_low_s`` is the EIP-2 gate the chain puts in front."""
    twin = ECDSASignature(r=signature.r, s=N - signature.s, v=signature.v ^ 1)
    assert recover_address(HASH, twin) == keypair.address()
    ecdsa.require_low_s(signature)
    ecdsa.require_low_s(ECDSASignature(r=signature.r, s=N // 2, v=0))
    with pytest.raises(SignatureError, match="high-s"):
        ecdsa.require_low_s(twin)


def test_off_curve_public_key_rejected(signature: ECDSASignature) -> None:
    assert verify((1, 1), HASH, signature) is False


def test_infinity_public_key_rejected() -> None:
    """At infinity u₂·Q vanishes and the check would read x(u₁·G) = r,
    which r = x(k·G) and s = z·k⁻¹ satisfy for any k: a forgery
    without a key."""
    k = 0xC0FFEE
    z = int.from_bytes(HASH, "big")
    r = ecdsa.point_mul(k, ecdsa.GENERATOR)[0] % N
    forged = ECDSASignature(r=r, s=z * pow(k, -1, N) % N, v=0)
    assert verify(None, HASH, forged) is False


@pytest.mark.parametrize(
    "dx,dy",
    [(ecdsa.P, 0), (0, ecdsa.P), (-ecdsa.P, 0), (0, -ecdsa.P)],
    ids=["x+P", "y+P", "x-P", "y-P"],
)
def test_out_of_range_public_key_coordinates_rejected(
    keypair: ECDSAKeyPair, signature: ECDSASignature, dx: int, dy: int
) -> None:
    """(x ± P, y) and (x, y ± P) name the signer's point mod P, but
    they are not its coordinates."""
    x, y = keypair.public_key
    assert verify((x, y), HASH, signature) is True
    assert verify((x + dx, y + dy), HASH, signature) is False


def test_signature_wire_format_is_strict(signature: ECDSASignature) -> None:
    wire = signature.to_bytes()
    assert len(wire) == 65
    assert ECDSASignature.from_bytes(wire) == signature
    for bad_length in (0, 64, 66):
        with pytest.raises(SignatureError):
            ECDSASignature.from_bytes(b"\x00" * bad_length)


# ----- RSA-OAEP: label binding and ciphertext framing -----------------------------


@pytest.fixture(scope="module")
def rsa_keypair() -> RSAKeyPair:
    return RSAKeyPair.generate(1024, random.Random(2024))


def test_oaep_label_mismatch_raises_decryption_error(rsa_keypair: RSAKeyPair) -> None:
    ciphertext = rsa_keypair.public_key.encrypt(
        b"bound to a label", rng=random.Random(1), label=b"task-42"
    )
    assert rsa_keypair.decrypt(ciphertext, label=b"task-42") == b"bound to a label"
    with pytest.raises(DecryptionError):
        rsa_keypair.decrypt(ciphertext, label=b"task-43")
    with pytest.raises(DecryptionError):
        rsa_keypair.decrypt(ciphertext)  # empty label is a different label


@pytest.mark.parametrize("delta", [-1, +1])
def test_oaep_ciphertext_length_off_by_one_raises(
    rsa_keypair: RSAKeyPair, delta: int
) -> None:
    ciphertext = rsa_keypair.public_key.encrypt(b"sized", rng=random.Random(2))
    resized = ciphertext[:delta] if delta < 0 else ciphertext + b"\x00"
    assert len(resized) == len(ciphertext) + delta
    with pytest.raises(CryptoError):
        rsa_keypair.decrypt(resized)


def test_oaep_every_single_byte_flip_is_rejected_somewhere(
    rsa_keypair: RSAKeyPair,
) -> None:
    ciphertext = rsa_keypair.public_key.encrypt(b"fragile", rng=random.Random(3))
    rng = random.Random(4)
    for _ in range(8):
        tampered = bytearray(ciphertext)
        tampered[rng.randrange(len(tampered))] ^= 1 << rng.randrange(8)
        with pytest.raises(CryptoError):  # DecryptionError or range check
            rsa_keypair.decrypt(bytes(tampered))


def test_oaep_message_length_boundary(rsa_keypair: RSAKeyPair) -> None:
    limit = max_message_length(rsa_keypair.public_key.byte_size)
    exactly = b"m" * limit
    ciphertext = rsa_keypair.public_key.encrypt(exactly, rng=random.Random(5))
    assert rsa_keypair.decrypt(ciphertext) == exactly
    with pytest.raises(ValueError):
        rsa_keypair.public_key.encrypt(b"m" * (limit + 1), rng=random.Random(6))


# ----- Keccak: known answers, rate boundary, independent sponge -------------------

_RATE = 136  # Keccak-256 rate in bytes


def _independent_keccak256(data: bytes) -> bytes:
    """A deliberately different formulation (single pass over padded
    input, no incremental buffering) sharing only ``keccak_f1600``."""
    padded = bytearray(data)
    pad_len = _RATE - (len(padded) % _RATE)
    padded.extend(bytes(pad_len))
    padded[len(data)] ^= 0x01
    padded[-1] ^= 0x80
    state = [0] * 25
    for offset in range(0, len(padded), _RATE):
        for i in range(0, _RATE, 8):
            state[i // 8] ^= int.from_bytes(
                padded[offset + i : offset + i + 8], "little"
            )
        state = keccak_f1600(state)
    return b"".join(lane.to_bytes(8, "little") for lane in state[:4])


@pytest.mark.parametrize(
    "message,digest_hex",
    [
        (b"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"),
        (b"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"),
        (
            b"The quick brown fox jumps over the lazy dog",
            "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15",
        ),
    ],
)
def test_keccak256_known_answers(message: bytes, digest_hex: str) -> None:
    assert keccak_256(message).hex() == digest_hex


@pytest.mark.parametrize("length", [_RATE - 1, _RATE, _RATE + 1, 2 * _RATE, 2 * _RATE + 1])
def test_keccak256_rate_boundary_matches_independent_sponge(length: int) -> None:
    """Inputs straddling the 136-byte rate hit the pad-to-fresh-block
    branch; the one-shot sponge must agree with an independent one."""
    data = bytes(i & 0xFF for i in range(length))
    assert keccak_256(data) == _independent_keccak256(data)


def test_keccak256_multi_block_incremental_absorption() -> None:
    data = random.Random(7).randbytes(5 * _RATE + 17)
    expected = _independent_keccak256(data)
    assert keccak_256(data) == expected
    # Incremental absorption in awkward chunk sizes must agree too.
    sponge = KeccakSponge(rate_bytes=_RATE, digest_bytes=32)
    for cut in range(0, len(data), 61):
        sponge.update(data[cut : cut + 61])
    assert sponge.digest() == expected


def test_keccak_sponge_rejects_invalid_rates() -> None:
    for rate in (0, -8, 7, 200, 208):
        with pytest.raises(ValueError):
            KeccakSponge(rate_bytes=rate, digest_bytes=32)
