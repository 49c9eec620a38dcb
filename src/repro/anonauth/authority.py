"""The registration authority (RA).

The RA validates each participant's real-world identity once, off-line,
and issues a credential bound to the participant's public key (the
``Register`` phase of the protocol).  One identity gets exactly one
credential — this is what bounds a malicious participant to q
certificates in the common-prefix-linkability game.

Certificate modes:

- ``merkle``: the credential is membership of the identity commitment
  in the RA's append-only MiMC Merkle tree; the RA publishes the root
  (via the on-chain registry contract).  The RA *cannot* de-anonymize
  anyone — it only ever sees pk, never sk, and attestations reveal
  neither.
- ``schnorr``: the credential is a Schnorr signature on pk under the
  RA's master key (the paper's description), verified in-circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.errors import RegistrationError
from repro.profiles import SecurityProfile
from repro.zksnark.gadgets import babyjubjub as bjj
from repro.zksnark.gadgets import schnorr
from repro.zksnark.gadgets.merkle import MerklePath, MerkleTree
from repro.zksnark.gadgets.mimc import MiMCParameters, mimc_hash_native

CERT_MODE_MERKLE = "merkle"
CERT_MODE_SCHNORR = "schnorr"
CERT_MODES = (CERT_MODE_MERKLE, CERT_MODE_SCHNORR)


@dataclass(frozen=True)
class MerkleCertificate:
    """Membership credential: the leaf slot in the registration tree."""

    leaf_index: int
    path: MerklePath


@dataclass(frozen=True)
class SchnorrCertificate:
    """Signature credential: RA's Schnorr signature on pk."""

    signature: schnorr.SchnorrSignature


Certificate = Union[MerkleCertificate, SchnorrCertificate]


class RegistrationAuthority:
    """Issues one credential per unique identity (``CertGen``)."""

    def __init__(
        self,
        profile: SecurityProfile,
        cert_mode: str = CERT_MODE_MERKLE,
        seed: Optional[bytes] = None,
    ) -> None:
        if cert_mode not in CERT_MODES:
            raise ValueError(f"cert_mode must be one of {CERT_MODES}")
        self.profile = profile
        self.cert_mode = cert_mode
        self.mimc = MiMCParameters.for_rounds(profile.mimc_rounds)
        self._identities: Dict[str, int] = {}  # identity -> pk
        self._leaf_index: Dict[int, int] = {}  # pk -> merkle leaf slot
        self._tree = MerkleTree(depth=profile.merkle_depth, params=self.mimc)
        self._schnorr_params = schnorr.SchnorrParameters(
            scalar_bits=profile.scalar_bits, mimc=self.mimc
        )
        self._msk: Optional[int] = None
        self._mpk: Optional[bjj.Point] = None
        if cert_mode == CERT_MODE_SCHNORR:
            self._msk, self._mpk = schnorr.generate_keypair(
                self._schnorr_params, seed=seed
            )

    # ----- public system material -------------------------------------------

    @property
    def schnorr_params(self) -> schnorr.SchnorrParameters:
        return self._schnorr_params

    @property
    def master_public_key(self) -> Optional[bjj.Point]:
        """The RA's mpk (schnorr mode only)."""
        return self._mpk

    def registry_commitment(self) -> int:
        """The public value the Verify algorithm checks certificates against.

        Merkle mode: the current tree root (changes as users register).
        Schnorr mode: a commitment to the fixed master public key.
        """
        if self.cert_mode == CERT_MODE_MERKLE:
            return self._tree.root
        if self._mpk is None:
            raise RegistrationError("schnorr mode needs the RA master key pair")
        return mimc_hash_native([self._mpk[0], self._mpk[1]], self.mimc)

    @property
    def registered_count(self) -> int:
        return len(self._identities)

    # ----- CertGen ------------------------------------------------------------

    def register(self, identity: str, public_key: int) -> Certificate:
        """Bind ``public_key`` to a unique real-world ``identity``.

        Raises :class:`RegistrationError` when the identity already has
        a credential — the one-identity-one-credential rule underpinning
        accountability.
        """
        if identity in self._identities:
            raise RegistrationError(f"identity {identity!r} is already registered")
        if public_key in self._leaf_index:
            raise RegistrationError("public key is already certified")
        if self.cert_mode == CERT_MODE_MERKLE:
            index = self._tree.append(public_key)
            certificate: Certificate = MerkleCertificate(
                leaf_index=index, path=self._tree.path(index)
            )
        else:
            index = len(self._leaf_index)
            certificate = self._schnorr_certificate(public_key)
        self._identities[identity] = public_key
        self._leaf_index[public_key] = index
        return certificate

    def refresh_certificate(self, public_key: int) -> Certificate:
        """Re-issue the current credential for an already-certified key.

        In merkle mode paths go stale as later users register; clients
        refresh before authenticating.  Schnorr certificates are stable.
        """
        if public_key not in self._leaf_index:
            raise RegistrationError("public key is not certified")
        if self.cert_mode == CERT_MODE_MERKLE:
            index = self._leaf_index[public_key]
            return MerkleCertificate(leaf_index=index, path=self._tree.path(index))
        return self._schnorr_certificate(public_key)

    def _schnorr_certificate(self, public_key: int) -> SchnorrCertificate:
        if self._msk is None:
            raise RegistrationError("schnorr mode needs the RA master key pair")
        signature = schnorr.sign(self._schnorr_params, self._msk, [public_key])
        return SchnorrCertificate(signature=signature)

    def is_certified(self, public_key: int) -> bool:
        return public_key in self._leaf_index
