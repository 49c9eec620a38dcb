"""The from-scratch primitives against independent implementations.

- secp256k1 ECDSA against OpenSSL, through the ``cryptography`` package:
  key derivation, and signatures verified in both directions, with
  public-key recovery landing on OpenSSL's key.
- RSA-OAEP and RSA-PSS against OpenSSL, on a key built from OpenSSL's
  primes: ciphertexts decrypt and signatures verify in both directions.
- The shared a = 0 curve core (secp256k1 and BN254 G1) against sympy's
  ``EllipticCurve``: scalar multiplication on both sides of the GLV
  switch point and on chosen GLV components, addition and fixed-base
  tables (one scalar and many); and secp256k1 public-key recovery
  against r⁻¹(s·R − z·G) evaluated there.
- Keccak-f[1600] against ``hashlib``'s SHA-3, which runs the same
  permutation with the FIPS-202 domain byte 0x06, both one state at a
  time and packed (every instance of a multi-instance pass).

``cryptography`` and ``sympy`` come with the ``dev`` extra; a lane
without them skips their cases.
"""

from __future__ import annotations

import functools
import hashlib
import random

import pytest
from hypothesis import example, given, strategies as st

from repro.crypto import ecdsa
from repro.crypto.hashing import sha256
from repro.crypto.keccak import keccak_f1600, keccak_f1600_packed
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey
from repro.errors import DecryptionError, SignatureError
from repro.zksnark.bn128.curve import BN254_G1, g1_generator_table

try:
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives import hashes
    from cryptography.hazmat.primitives.asymmetric import ec, padding, rsa
    from cryptography.hazmat.primitives.asymmetric.utils import (
        Prehashed,
        decode_dss_signature,
        encode_dss_signature,
    )
except ImportError:  # pragma: no cover - the dev extra installs it
    ec = None

try:
    from sympy.ntheory.elliptic_curve import EllipticCurve
    from sympy.ntheory.residue_ntheory import sqrt_mod
except ImportError:  # pragma: no cover - the dev extra installs it
    EllipticCurve = None

needs_openssl = pytest.mark.skipif(ec is None, reason="needs cryptography")
needs_sympy = pytest.mark.skipif(EllipticCurve is None, reason="needs sympy")


# ----- secp256k1 ECDSA against OpenSSL -------------------------------------------


def _private_keys() -> list:
    rng = random.Random(21001)
    return [1, 2, ecdsa.N - 1] + [rng.randrange(1, ecdsa.N) for _ in range(9)]


def _digest(i: int) -> bytes:
    return sha256(b"openssl-oracle", i.to_bytes(4, "big"))


def _openssl_public_key(public_key):
    x, y = public_key
    return ec.EllipticCurvePublicNumbers(x, y, ec.SECP256K1()).public_key()


def _prehashed():
    return ec.ECDSA(Prehashed(hashes.SHA256()))


def _low_s(signature: bytes):
    r, s = decode_dss_signature(signature)
    return r, min(s, ecdsa.N - s)


@needs_openssl
def test_public_key_matches_openssl() -> None:
    for d in _private_keys():
        numbers = ec.derive_private_key(d, ec.SECP256K1()).public_key().public_numbers()
        assert ecdsa.ECDSAKeyPair(d).public_key == (numbers.x, numbers.y)


@needs_openssl
def test_signatures_verify_under_openssl() -> None:
    for i, d in enumerate(_private_keys()):
        key = ecdsa.ECDSAKeyPair(d)
        digest = _digest(i)
        sig = key.sign(digest)
        der = encode_dss_signature(sig.r, sig.s)
        _openssl_public_key(key.public_key).verify(der, digest, _prehashed())
        with pytest.raises(InvalidSignature):
            _openssl_public_key(key.public_key).verify(der, _digest(i + 1), _prehashed())


@needs_openssl
def test_openssl_signatures_verify_and_recover_here() -> None:
    for i, d in enumerate(_private_keys()):
        private = ec.derive_private_key(d, ec.SECP256K1())
        numbers = private.public_key().public_numbers()
        public_key = (numbers.x, numbers.y)
        digest = _digest(i)
        r, s = _low_s(private.sign(digest, _prehashed()))
        assert ecdsa.verify(public_key, digest, ecdsa.ECDSASignature(r, s, 0))
        assert not ecdsa.verify(public_key, _digest(i + 1), ecdsa.ECDSASignature(r, s, 0))
        recovered = []
        for v in (0, 1):
            try:
                recovered.append(
                    ecdsa.recover_public_key(digest, ecdsa.ECDSASignature(r, s, v))
                )
            except SignatureError:
                pass
        assert recovered.count(public_key) == 1


# ----- RSA-OAEP and RSA-PSS against OpenSSL ----------------------------------------


@functools.lru_cache(maxsize=None)
def _rsa_pair():
    """An OpenSSL 2048-bit key and :class:`RSAKeyPair` over the same primes."""
    private = rsa.generate_private_key(public_exponent=65537, key_size=2048)
    numbers = private.private_numbers()
    ours = RSAKeyPair(numbers.p, numbers.q)
    assert ours.public_key == RSAPublicKey(
        n=numbers.public_numbers.n, e=numbers.public_numbers.e
    )
    return private, ours


def _oaep(label=None):
    return padding.OAEP(
        mgf=padding.MGF1(algorithm=hashes.SHA256()),
        algorithm=hashes.SHA256(),
        label=label,
    )


def _pss():
    return padding.PSS(mgf=padding.MGF1(hashes.SHA256()), salt_length=32)


@needs_openssl
@pytest.mark.parametrize("label", [b"", b"task-42"], ids=["no-label", "label"])
@pytest.mark.parametrize("size", [0, 1, 190], ids=["empty", "one-byte", "max"])
def test_rsa_oaep_decrypts_both_ways(size: int, label: bytes) -> None:
    private, ours = _rsa_pair()
    message = bytes(random.Random(f"oaep-{size}").getrandbits(8) for _ in range(size))
    ciphertext = ours.public_key.encrypt(message, rng=random.Random(size), label=label)
    assert private.decrypt(ciphertext, _oaep(label or None)) == message
    theirs = private.public_key().encrypt(message, _oaep(label or None))
    assert ours.decrypt(theirs, label=label) == message
    with pytest.raises(DecryptionError):
        ours.decrypt(theirs, label=label + b"x")


@needs_openssl
@pytest.mark.parametrize("message", [b"", b"answer ciphertext digest"])
def test_rsa_pss_verifies_both_ways(message: bytes) -> None:
    private, ours = _rsa_pair()
    public = private.public_key()
    signature = ours.sign(message, rng=random.Random(len(message)))
    public.verify(signature, message, _pss(), hashes.SHA256())
    with pytest.raises(InvalidSignature):
        public.verify(signature, message + b"x", _pss(), hashes.SHA256())
    theirs = private.sign(message, _pss(), hashes.SHA256())
    assert ours.public_key.verify(message, theirs)
    assert not ours.public_key.verify(message + b"x", theirs)


# ----- the a = 0 curve core against sympy -------------------------------------------

_CURVES = {"secp256k1": ecdsa.SECP256K1, "bn254": BN254_G1}

#: The fixed-base path of each curve: secp256k1's window-8 generator
#: table behind ``point_mul``, and G1's window-8 generator table.
_FIXED_BASE = {
    "secp256k1": lambda k: ecdsa.point_mul(k, ecdsa.GENERATOR),
    "bn254": lambda k: g1_generator_table().mul(k),
}


def _fixed_base_table(name: str):
    """The same tables, for :meth:`FixedBaseTable.mul_many`."""
    if name == "secp256k1":
        return ecdsa.generator_table()
    return g1_generator_table()


def _from_sympy(point):
    if int(point.z) == 0:
        return None
    return (int(point.x), int(point.y))


@functools.lru_cache(maxsize=None)
def _sympy_generator(name: str):
    curve = _CURVES[name]
    return EllipticCurve(0, curve.b, modulus=curve.p)(*curve.generator)


@functools.lru_cache(maxsize=None)
def _sympy_mul(name: str, base: int, k: int):
    """``k · (base · G)`` on sympy's curve, as an affine pair or None."""
    return _from_sympy(_sympy_generator(name) * base * k)


def _from_components(curve, pairs: list) -> list:
    """k = k₁ + k₂·λ (mod n) for each chosen (k₁, k₂), which
    ``decompose`` must hand back to the ladder."""
    params, _ = curve.glv()
    ks = [(k1 + k2 * params.lam) % curve.order for k1, k2 in pairs]
    assert [params.decompose(k) for k in ks] == pairs
    return ks


def _scalars(name: str, kind: str) -> list:
    curve = _CURVES[name]
    params, _ = curve.glv()
    bits = params.max_component_bits()
    rng = random.Random(f"sympy-{name}-{kind}")
    if kind == "bound":
        return [(1 << (bits - 1)) | rng.getrandbits(bits - 1)]
    if kind == "bound+1":
        return [(1 << bits) | rng.getrandbits(bits)]
    if kind == "order-1":
        return [curve.order - 1]
    if kind == "lambda":
        return [params.lam]
    if kind == "signs":
        # Each GLV component's sign is folded into its own wNAF table.
        a, b = rng.getrandbits(120), rng.getrandbits(120)
        return _from_components(curve, [(a, b), (a, -b), (-a, b), (-a, -b)])
    if kind == "ones-runs":
        # 2^j − 1 recodes to the digit −1, a carry through every
        # position and a final +1 (2^124 − 1 is the widest run that
        # decomposes back on both curves).
        r5, r64, r124 = (2**j - 1 for j in (5, 64, 124))
        return _from_components(curve, [(r5, -r124), (-r64, r64), (-r124, -r5)])
    if kind == "digits":
        # 15 is the digit 15; 17 the digit −15 and a carry.
        return _from_components(curve, [(15, -17), (-17, 15)])
    return [rng.randrange(curve.order >> 1, curve.order)]


#: A small multiplier of G, so that the variable-base cases run on a
#: point other than the generator.
_BASE = 0xC0FFEE


@needs_sympy
@pytest.mark.parametrize(
    "kind",
    ["bound", "bound+1", "order-1", "lambda", "full", "signs", "ones-runs", "digits"],
)
@pytest.mark.parametrize("name", sorted(_CURVES))
def test_mul_matches_sympy(name: str, kind: str) -> None:
    curve = _CURVES[name]
    point = _sympy_mul(name, _BASE, 1)
    assert curve.is_on_curve(point)
    for k in _scalars(name, kind):
        assert curve.mul(point, k) == _sympy_mul(name, _BASE, k)


@needs_sympy
@pytest.mark.parametrize("name", sorted(_CURVES))
def test_add_matches_sympy(name: str) -> None:
    curve = _CURVES[name]
    gen = _sympy_generator(name)
    p_sym, q_sym = gen * 0xBEEF, gen * 0xFACADE
    p, q = _from_sympy(p_sym), _from_sympy(q_sym)
    assert curve.add(p, q) == _from_sympy(p_sym + q_sym)
    assert curve.add(p, p) == _from_sympy(p_sym + p_sym)
    assert curve.neg(p) == _from_sympy(-p_sym)
    assert _from_sympy(p_sym + -p_sym) is None
    assert curve.add(p, curve.neg(p)) is None
    assert curve.add(None, p) == p and curve.add(p, None) == p


@needs_sympy
@pytest.mark.parametrize("kind", ["order-1", "full"])
@pytest.mark.parametrize("name", sorted(_CURVES))
def test_fixed_base_mul_matches_sympy(name: str, kind: str) -> None:
    # Both scalars fill the top window, which a short table would miss.
    curve = _CURVES[name]
    (k,) = _scalars(name, kind)
    expected = _sympy_mul(name, 1, k)
    assert _FIXED_BASE[name](k) == expected
    batch = [k, curve.order - k, k]
    assert _fixed_base_table(name).mul_many(batch) == [
        expected,
        _sympy_mul(name, 1, curve.order - k),
        expected,
    ]


@needs_sympy
@pytest.mark.parametrize("name", sorted(_CURVES))
def test_order_times_generator_is_infinity(name: str) -> None:
    curve = _CURVES[name]
    assert curve.is_on_curve(curve.generator)
    # (n − 1)·G = −G in sympy, i.e. n·G = O there.
    assert _sympy_mul(name, 1, curve.order - 1) == curve.neg(curve.generator)
    # The unreduced ladder must walk order · G to infinity, too.
    assert curve.double_and_add(curve.generator, curve.order) is None


# ----- secp256k1 public-key recovery against sympy ------------------------------


@functools.lru_cache(maxsize=None)
def _signed_with_recovery_id(v: int):
    """A seeded key, and the first seeded digest its signature over
    which carries recovery id ``v``."""
    key = ecdsa.ECDSAKeyPair.from_seed(b"recovery-oracle")
    i = 0
    while True:
        digest = _digest(1000 + i)
        sig = key.sign(digest)
        if sig.v == v:
            return key, digest, sig
        i += 1


def _recovery_case(kind: str):
    """(digest, signature, signer's key, whether it recovers the signer)."""
    if kind in ("v=0", "v=1"):
        key, digest, sig = _signed_with_recovery_id(int(kind[-1]))
        return digest, sig, key.public_key, True
    if kind == "high-s-twin":
        key, digest, sig = _signed_with_recovery_id(0)
        twin = ecdsa.ECDSASignature(r=sig.r, s=ecdsa.N - sig.s, v=sig.v ^ 1)
        return digest, twin, key.public_key, True
    key, digest, sig = _signed_with_recovery_id(1)
    stranger = ecdsa.ECDSASignature(r=sig.r, s=sig.s, v=sig.v ^ 1)
    return digest, stranger, key.public_key, False


@needs_sympy
@pytest.mark.parametrize("kind", ["v=0", "v=1", "high-s-twin", "wrong-v"])
def test_recovery_matches_sympy(kind: str) -> None:
    """Q = r⁻¹(s·R − z·G) on sympy's curve, R the point with x = r and
    the y parity of v; the wrong-v stranger recovers a different key,
    which the formula gives as well."""
    digest, sig, signer, recovers_signer = _recovery_case(kind)
    roots = sqrt_mod(sig.r**3 + ecdsa.B, ecdsa.P, all_roots=True)
    (y,) = [root for root in roots if root & 1 == sig.v & 1]
    r_point = EllipticCurve(0, ecdsa.B, modulus=ecdsa.P)(sig.r, y)
    z = int.from_bytes(digest, "big")
    z_g = _sympy_generator("secp256k1") * z
    expected = _from_sympy((r_point * sig.s + -z_g) * pow(sig.r, -1, ecdsa.N))
    recovered = ecdsa.recover_public_key(digest, sig)
    assert recovered == expected
    assert (recovered == signer) is recovers_signer


# ----- Keccak-f[1600] against hashlib's SHA-3 -------------------------------------


def _sha3_pad(data: bytes, rate: int) -> bytes:
    padding = bytearray(rate - len(data) % rate)
    padding[0] = 0x06
    padding[-1] |= 0x80
    return bytes(data) + padding


def _sha3(data: bytes, rate: int, digest_size: int) -> bytes:
    """FIPS-202 SHA-3: the 0x06-domain sponge around ``keccak_f1600``."""
    padded = _sha3_pad(data, rate)
    state = [0] * 25
    for offset in range(0, len(padded), rate):
        for i in range(0, rate, 8):
            chunk = padded[offset + i : offset + i + 8]
            state[i // 8] ^= int.from_bytes(chunk, "little")
        state = keccak_f1600(state)
    squeezed = b"".join(lane.to_bytes(8, "little") for lane in state[: rate // 8])
    return squeezed[:digest_size]


def _sha3_packed(messages: list, rate: int, digest_size: int) -> list:
    """The same sponge over equal-length messages, one instance each of
    ``keccak_f1600_packed`` (instance i in bits [64i, 64i + 64) of a lane)."""
    k = len(messages)
    padded = [_sha3_pad(m, rate) for m in messages]
    state = [0] * 25
    for offset in range(0, len(padded[0]), rate):
        for i in range(0, rate, 8):
            chunks = b"".join(p[offset + i : offset + i + 8] for p in padded)
            state[i // 8] ^= int.from_bytes(chunks, "little")
        state = keccak_f1600_packed(state, k)
    lanes = [lane.to_bytes(8 * k, "little") for lane in state[: rate // 8]]
    return [
        b"".join(lane[8 * n : 8 * n + 8] for lane in lanes)[:digest_size]
        for n in range(k)
    ]


@given(st.binary(max_size=500))
@example(b"")
@example(b"\xa5" * 71)
@example(b"\xa5" * 72)
@example(b"\xa5" * 135)
@example(b"\xa5" * 136)
@example(b"\xa5" * 137)
def test_keccak_f1600_matches_hashlib_sha3(data: bytes) -> None:
    assert _sha3(data, 136, 32) == hashlib.sha3_256(data).digest()
    assert _sha3(data, 72, 64) == hashlib.sha3_512(data).digest()
    # The packed permutation, on every instance of batches of 2, 3 and 24
    # distinct messages of this length.
    for k in (2, 3, 24):
        batch = [bytes((b + n) % 256 for b in data) for n in range(k)]
        assert _sha3_packed(batch, 136, 32) == [
            hashlib.sha3_256(m).digest() for m in batch
        ]
        assert _sha3_packed(batch, 72, 64) == [
            hashlib.sha3_512(m).digest() for m in batch
        ]
