"""Cryptographic substrate, implemented from scratch where the paper
names a primitive (Keccak-256, RSA-OAEP-2048, RSA signatures, secp256k1
ECDSA).  SHA-256 comes from the standard library.

Public surface:

- :func:`repro.crypto.hashing.sha256` / :func:`keccak256` — hash functions;
  :func:`~repro.crypto.hashing.keccak256_many` hashes a batch of
  independent messages in shared Keccak passes.
- :class:`repro.crypto.rsa.RSAKeyPair` with OAEP encryption and PSS
  signatures (the DApp-layer primitives named in Section VI).
- :class:`repro.crypto.ecdsa.ECDSAKeyPair` — secp256k1 signatures used by
  the blockchain substrate for transaction authentication.
- :class:`repro.crypto.weierstrass.WeierstrassCurve` — the a = 0 curve
  group law that secp256k1 and BN254's G1 share.
"""

from repro.crypto.hashing import keccak256, sha256
from repro.crypto.ecdsa import ECDSAKeyPair, ECDSASignature
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey

__all__ = [
    "keccak256",
    "sha256",
    "ECDSAKeyPair",
    "ECDSASignature",
    "RSAKeyPair",
    "RSAPublicKey",
]
