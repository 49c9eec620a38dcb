"""The ideal-SNARK-functionality backend.

Protocol-scale simulations (hundreds of tasks, many workers) cannot
afford a pure-Python pairing per message, so this backend models the
SNARK as the ideal functionality the paper's security analysis assumes:

- ``prove`` *refuses* to issue a proof unless the witness satisfies the
  constraint system (soundness by construction);
- the proof is a MAC over (circuit digest, statement) under a key
  created at setup, so a proof can only verify for the exact statement
  it was issued for and the exact circuit it was set up for;
- the proof reveals nothing about the witness (perfect zero-knowledge).

It shares the :class:`CircuitDefinition` interface with Groth16, so the
two backends are interchangeable everywhere (an ablation bench measures
the swap).  The proof payload is padded to the Groth16 proof length so
on-chain size accounting stays faithful.
"""

from __future__ import annotations

import hmac
import os
import secrets
from dataclasses import dataclass
from typing import Any, List, Optional

from repro import observability as obs
from repro.crypto.hashing import sha256
from repro.errors import ProofError
from repro.serialization import encode
from repro.zksnark.backend import (
    BatchProveJob,
    CircuitDefinition,
    KeyPair,
    Proof,
    ProvingBackend,
    fanout_map,
    full_circuit_digest,
)

#: Match the Groth16 proof size (A + B + C, uncompressed) for fair accounting.
_MOCK_PROOF_LEN = 256


@dataclass
class MockProvingKey:
    circuit_digest: bytes
    num_public: int
    mac_key: bytes


@dataclass
class MockVerifyingKey:
    circuit_digest: bytes
    num_public: int
    mac_key: bytes

    def size_bytes(self) -> int:
        # Mirror the Groth16 vk footprint: 4 group elements + 1 IC point
        # per public input (so size-vs-n curves keep the right shape).
        return 64 + 128 * 3 + 64 * (self.num_public + 1)


class MockBackend(ProvingBackend):
    """Ideal SNARK functionality with Groth16-shaped accounting.

    :meth:`prove_many` fans a batch out over the :func:`fanout_map` fork
    pool at ``os.cpu_count()`` width, the same width as the engine's RSA
    keygen pool; single proofs are too cheap to ship to a pool.
    """

    name = "mock"

    def prove_many(self, requests) -> List[Proof]:
        """Prove independent jobs across a fork pool, in request order.

        Proofs are deterministic MACs, so the fan-out is transcript-
        equivalent to the serial loop — only faster.  Falls back to the
        serial base implementation for tiny batches or single-CPU hosts.
        """
        requests = list(requests)
        jobs = os.cpu_count() or 1
        if jobs <= 1 or len(requests) < 2:
            return super().prove_many(requests)
        with obs.span(
            "snark.prove_many", backend=self.name, jobs=len(requests)
        ):
            proofs = fanout_map(BatchProveJob(self), requests, jobs, chunked=False)
        if obs.TRACER.enabled:
            obs.count("snark.prove_many.calls")
            obs.count("snark.prove_many.jobs", len(requests))
        return proofs

    def setup(self, circuit: CircuitDefinition, seed: Optional[bytes] = None) -> KeyPair:
        with obs.span("snark.setup", backend=self.name, circuit=circuit.name):
            cs = circuit.build(circuit.example_instance())
            cs.check_satisfied()
            digest = full_circuit_digest(circuit, cs.to_r1cs())
            mac_key = sha256(b"mock-snark-key", seed if seed is not None else secrets.token_bytes(32), digest)
            proving_key = MockProvingKey(digest, cs.num_public, mac_key)
            verifying_key = MockVerifyingKey(digest, cs.num_public, mac_key)
        obs.count("snark.setup.calls")
        return KeyPair(proving_key=proving_key, verifying_key=verifying_key)

    def prove(
        self, proving_key: MockProvingKey, circuit: CircuitDefinition, instance: Any
    ) -> Proof:
        with obs.span("snark.prove", backend=self.name, circuit=circuit.name):
            proof = self._prove(proving_key, circuit, instance)
        obs.count("snark.prove.calls")
        return proof

    def _prove(
        self, proving_key: MockProvingKey, circuit: CircuitDefinition, instance: Any
    ) -> Proof:
        cs = circuit.build(instance)
        r1cs = cs.to_r1cs()
        if full_circuit_digest(circuit, r1cs) != proving_key.circuit_digest:
            raise ProofError("proving key does not match this circuit structure")
        # The ideal functionality only certifies true statements: both the
        # R1CS part and any native predicates must hold.
        r1cs.check_satisfied(cs.assignment)
        circuit.native_checks(instance)
        mac = self._mac(proving_key.mac_key, proving_key.circuit_digest, cs.public_values())
        padding = sha256(b"mock-padding", mac)
        payload = (mac + padding * 8)[:_MOCK_PROOF_LEN]
        return Proof(backend=self.name, payload=payload)

    def verify(
        self, verifying_key: MockVerifyingKey, public_inputs: List[int], proof: Proof
    ) -> bool:
        with obs.span(
            "snark.verify", backend=self.name, inputs=len(public_inputs)
        ) as verify_span:
            result = self._verify(verifying_key, public_inputs, proof)
            verify_span.set_attrs(valid=result)
        if obs.TRACER.enabled:
            obs.count("snark.verify.calls")
            if not result:
                obs.count("snark.verify.rejections")
        return result

    def _verify(
        self, verifying_key: MockVerifyingKey, public_inputs: List[int], proof: Proof
    ) -> bool:
        self._check_backend(proof)
        if len(proof.payload) != _MOCK_PROOF_LEN:
            return False
        if len(public_inputs) != verifying_key.num_public:
            return False
        expected = self._mac(
            verifying_key.mac_key, verifying_key.circuit_digest, public_inputs
        )
        return hmac.compare_digest(proof.payload[:32], expected)

    @staticmethod
    def _mac(key: bytes, digest: bytes, public_inputs: List[int]) -> bytes:
        statement = encode([digest, [int(v) for v in public_inputs]])
        return sha256(b"mock-snark-proof", key, statement)
