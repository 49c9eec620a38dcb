"""The Auth circuit: the language L_T of Section V-A.

Public statement: (p̂, m̂, registry commitment, t1, t2) where p̂ and m̂
are field digests of the prefix and the full message.  Witness: the
user's secret key and certificate.  Constraints:

- ``pk = MiMC(sk)``                        (the ``pair(pk, sk) = 1`` clause)
- ``t1 = MiMC(p̂, sk)``                    (the prefix-linkability tag)
- ``t2 = MiMC(m̂, sk)``                    (the full-message tag)
- ``CertVrfy(cert, pk, mpk) = 1``          (mode-dependent, see below)

In ``merkle`` mode the certificate clause is a Merkle-membership proof
of pk against the public registry root; in ``schnorr`` mode it is an
in-circuit Schnorr verification against the RA's master key, which is a
circuit constant fixed at setup (the paper's Setup likewise emits the
master keys together with PP).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import AuthenticationError, CircuitError
from repro.profiles import SecurityProfile
from repro.zksnark.backend import CircuitDefinition
from repro.zksnark.circuit import ConstraintSystem
from repro.zksnark.gadgets import babyjubjub as bjj
from repro.zksnark.gadgets import schnorr
from repro.zksnark.gadgets.merkle import merkle_root_gadget
from repro.zksnark.gadgets.mimc import MiMCParameters, mimc_hash, mimc_hash_native
from repro.anonauth.authority import (
    CERT_MODE_MERKLE,
    CERT_MODE_SCHNORR,
    Certificate,
    MerkleCertificate,
    SchnorrCertificate,
)


@dataclass(frozen=True)
class AuthInstance:
    """One concrete Auth statement + witness."""

    prefix_digest: int
    message_digest: int
    registry_commitment: int
    t1: int
    t2: int
    secret_key: int
    certificate: Certificate

    def public_inputs(self) -> list[int]:
        return [
            self.prefix_digest,
            self.message_digest,
            self.registry_commitment,
            self.t1,
            self.t2,
        ]


class AuthCircuit(CircuitDefinition):
    """Circuit template for the common-prefix-linkable Auth statement."""

    name = "anonauth"

    def __init__(
        self,
        profile: SecurityProfile,
        cert_mode: str,
        master_public_key: Optional[bjj.Point] = None,
        example: Optional[AuthInstance] = None,
    ) -> None:
        self.profile = profile
        self.cert_mode = cert_mode
        self.mimc = MiMCParameters.for_rounds(profile.mimc_rounds)
        self.master_public_key = master_public_key
        self._example = example
        if cert_mode == CERT_MODE_SCHNORR and master_public_key is None:
            raise CircuitError("schnorr mode requires the RA master public key")
        self._schnorr_params = schnorr.SchnorrParameters(
            scalar_bits=profile.scalar_bits, mimc=self.mimc
        )

    def example_instance(self) -> AuthInstance:
        if self._example is None:
            raise CircuitError(
                "this AuthCircuit was built without example material; "
                "only setup-side circuits carry one"
            )
        return self._example

    def public_inputs(self, instance: AuthInstance) -> list[int]:
        return instance.public_inputs()

    def synthesize(self, cs: ConstraintSystem, instance: AuthInstance) -> None:
        prefix_digest = cs.alloc_public(instance.prefix_digest)
        message_digest = cs.alloc_public(instance.message_digest)
        commitment = cs.alloc_public(instance.registry_commitment)
        t1_public = cs.alloc_public(instance.t1)
        t2_public = cs.alloc_public(instance.t2)

        secret_key = cs.alloc(instance.secret_key)
        public_key = mimc_hash(cs, [secret_key], self.mimc)

        t1 = mimc_hash(cs, [prefix_digest, secret_key], self.mimc)
        cs.enforce_equal(t1, t1_public, annotation="t1 tag")
        t2 = mimc_hash(cs, [message_digest, secret_key], self.mimc)
        cs.enforce_equal(t2, t2_public, annotation="t2 tag")

        if self.cert_mode == CERT_MODE_MERKLE:
            certificate = instance.certificate
            if not isinstance(certificate, MerkleCertificate):
                raise AuthenticationError("merkle mode requires a Merkle certificate")
            root = merkle_root_gadget(cs, public_key, certificate.path, self.mimc)
            cs.enforce_equal(root, commitment, annotation="registry root")
        else:
            certificate = instance.certificate
            if not isinstance(certificate, SchnorrCertificate):
                raise AuthenticationError("schnorr mode requires a Schnorr certificate")
            mpk = self.master_public_key
            if mpk is None:
                raise CircuitError("schnorr mode requires the RA master public key")
            schnorr.verify_gadget(
                cs,
                self._schnorr_params,
                mpk,
                [public_key],
                [],
                certificate.signature,
            )
            expected = mimc_hash_native([mpk[0], mpk[1]], self.mimc)
            cs.enforce_equal(
                commitment, cs.constant(expected), annotation="mpk commitment"
            )
