"""The seal check: a verification bound to the recovery id.

``verify_recoverable(key, h, sig)`` must accept exactly when
``recover_public_key(h, sig) == key`` (a raise counts as a refusal), so
a seeded sweep pins the two against each other over honest signatures,
their malleated variants, out-of-range components and malformed keys.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto import ecdsa
from repro.crypto.hashing import sha256
from repro.errors import SignatureError

N, P = ecdsa.N, ecdsa.P


def _recovered(message_hash: bytes, sig: ecdsa.ECDSASignature):
    """The key recovery returns, or None where it raises."""
    try:
        return ecdsa.recover_public_key(message_hash, sig)
    except SignatureError:
        return None


def _variants(sig: ecdsa.ECDSASignature):
    """The signature, its malleated twins and out-of-range components."""
    r, s, v = sig.r, sig.s, sig.v
    return {
        "honest": sig,
        "v^1": ecdsa.ECDSASignature(r, s, v ^ 1),
        "v+2": ecdsa.ECDSASignature(r, s, v + 2),
        "v-2": ecdsa.ECDSASignature(r, s, v - 2),
        "v=4": ecdsa.ECDSASignature(r, s, 4),
        "high-s twin": ecdsa.ECDSASignature(r, N - s, v ^ 1),
        "s+1": ecdsa.ECDSASignature(r, s + 1, v),
        "r=0": ecdsa.ECDSASignature(0, s, v),
        "r=N": ecdsa.ECDSASignature(N, s, v),
        "s=0": ecdsa.ECDSASignature(r, 0, v),
        "s=N": ecdsa.ECDSASignature(r, N, v),
    }


def _keys(signer, stranger):
    """The signer's key, a stranger's, and keys no signature may match."""
    x, y = signer
    return {
        "signer": signer,
        "stranger": stranger,
        "infinity": None,
        "off-curve": (x, (y + 1) % P),
        "x+P": (x + P, y),
        "y+P": (x, y + P),
    }


def _high_x_case(rng: random.Random):
    """(message hash, signature, key) whose nonce point has x ≥ N.

    Real signatures reach v ∈ {2, 3} with probability ~2⁻¹²⁸, so the
    case is built backwards: take the first curve point R with
    x = N + r past a random offset, a random s, and the key
    Q = r⁻¹(s·R − z·G) that makes (r, s, v) its signature.
    """
    r = rng.randrange(1, P - N - 1000)
    while True:
        x = N + r
        y_sq = (pow(x, 3, P) + ecdsa.B) % P
        y = pow(y_sq, (P + 1) // 4, P)
        if (y * y) % P == y_sq:
            break
        r += 1
    message_hash = sha256(b"high-x", r.to_bytes(32, "big"))
    z = int.from_bytes(message_hash, "big")
    s = rng.randrange(1, N)
    r_inv = pow(r, -1, N)
    key = ecdsa.point_add(
        ecdsa.point_mul((-z * r_inv) % N, ecdsa.GENERATOR),
        ecdsa.point_mul((s * r_inv) % N, (x, y)),
    )
    return message_hash, ecdsa.ECDSASignature(r, s, 2 + (y & 1)), key


def _cases(seed: int, count: int):
    rng = random.Random(seed)
    pairs = [
        ecdsa.ECDSAKeyPair(rng.randrange(1, N)) for _ in range(count + 1)
    ]
    for index in range(count):
        signer, stranger = pairs[index], pairs[index + 1]
        message_hash = sha256(b"seal-sweep", rng.randbytes(32))
        sig = signer.sign(message_hash)
        yield message_hash, sig, signer.public_key, stranger.public_key
    message_hash, sig, key = _high_x_case(rng)
    yield message_hash, sig, key, pairs[0].public_key


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seal_check_agrees_with_recovery(seed: int) -> None:
    accepted = []
    for message_hash, sig, signer, stranger in _cases(seed, count=4):
        for variant, candidate in _variants(sig).items():
            recovered = _recovered(message_hash, candidate)
            for role, key in _keys(signer, stranger).items():
                expected = recovered is not None and recovered == key
                got = ecdsa.verify_recoverable(key, message_hash, candidate)
                assert got == expected, (seed, variant, role)
                if got:
                    accepted.append((variant, role))
    # Not vacuous: in each of the five cases the honest signature and
    # its high-s twin (same key; require_low_s refuses it) pass for the
    # signer, and nothing else passes.
    assert sorted(accepted) == [("high-s twin", "signer")] * 5 + [("honest", "signer")] * 5


def test_high_x_signature_needs_its_recovery_id() -> None:
    message_hash, sig, key = _high_x_case(random.Random(9))
    assert sig.v >= 2
    assert ecdsa.recover_public_key(message_hash, sig) == key
    assert ecdsa.verify_recoverable(key, message_hash, sig)
    # x(R') ≡ r (mod N) holds for either id pair, so plain verify passes
    # v − 2 too; the seal check, like recovery, does not.
    low = ecdsa.ECDSASignature(sig.r, sig.s, sig.v - 2)
    assert ecdsa.verify(key, message_hash, low)
    assert not ecdsa.verify_recoverable(key, message_hash, low)


def test_flipped_parity_passes_verify_but_not_the_seal_check() -> None:
    signer = ecdsa.ECDSAKeyPair.from_seed(b"parity")
    message_hash = sha256(b"parity-message")
    sig = signer.sign(message_hash)
    flipped = ecdsa.ECDSASignature(sig.r, sig.s, sig.v ^ 1)
    assert ecdsa.verify(signer.public_key, message_hash, flipped)
    assert not ecdsa.verify_recoverable(signer.public_key, message_hash, flipped)
    assert ecdsa.recover_public_key(message_hash, flipped) != signer.public_key
