"""A warm-CRS proving service: setup cached per circuit digest.

:class:`ProvingService` wraps a :class:`~repro.zksnark.groth16.Groth16Backend`
behind the same :class:`~repro.zksnark.backend.ProvingBackend`
interface.  ``setup`` is cached per circuit digest, so the trusted setup
for a circuit shape (e.g. the reward circuit for n workers) is paid once
per process instead of once per task.  ``warm()`` exposes the cache
explicitly so a node can pre-generate CRS material at boot; this
amortization is what ``benchmarks/bench_fig4.py`` measures.  Proving and
verification delegate to the wrapped backend.

The service registers as ``"groth16-service"``, so protocol code can
opt in with ``engine_system(..., backend_name="groth16-service")``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro import observability as obs
from repro.zksnark.backend import (
    CircuitDefinition,
    KeyPair,
    Proof,
    ProvingBackend,
    full_circuit_digest,
)
from repro.zksnark.groth16 import Groth16Backend


class ProvingService(ProvingBackend):
    """A drop-in Groth16 backend that amortizes setup."""

    name = "groth16-service"

    def __init__(self) -> None:
        self._backend = Groth16Backend()
        self._warm: Dict[bytes, KeyPair] = {}

    # ----- warm CRS cache ----------------------------------------------------

    def warm(
        self, circuit: CircuitDefinition, seed: Optional[bytes] = None
    ) -> KeyPair:
        """Run (or reuse) the trusted setup for ``circuit``.

        Key material is cached by the full circuit digest, so circuits
        with identical constraint structure and semantics share one
        CRS regardless of object identity.
        """
        digest = full_circuit_digest(circuit)
        keys = self._warm.get(digest)
        if keys is None:
            with obs.span("snark.service.warm", circuit=circuit.name):
                keys = self._backend.setup(circuit, seed=seed)
            self._warm[digest] = keys
            if obs.TRACER.enabled:
                obs.count("snark.service.warm_misses")
            return keys
        if obs.TRACER.enabled:
            obs.count("snark.service.warm_hits")
        return keys

    def warmed_digests(self) -> List[bytes]:
        """Digests with cached key material (diagnostics / tests)."""
        return list(self._warm)

    # ----- ProvingBackend interface ------------------------------------------

    def setup(
        self, circuit: CircuitDefinition, seed: Optional[bytes] = None
    ) -> KeyPair:
        return self.warm(circuit, seed=seed)

    def prove(
        self, proving_key: Any, circuit: CircuitDefinition, instance: Any
    ) -> Proof:
        return self._backend.prove(proving_key, circuit, instance)

    def verify(
        self, verifying_key: Any, public_inputs: List[int], proof: Proof
    ) -> bool:
        return self._backend.verify(verifying_key, public_inputs, proof)

    def batch_verify(self, verifying_key, statements, proofs) -> bool:
        return self._backend.batch_verify(verifying_key, statements, proofs)

    def _check_backend(self, proof: Proof) -> None:
        # Proofs carry the delegate's tag; accept those.
        self._backend._check_backend(proof)
