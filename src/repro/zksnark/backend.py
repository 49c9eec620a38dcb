"""Backend abstraction for proving systems.

A :class:`CircuitDefinition` knows how to synthesize its constraints
into a :class:`~repro.zksnark.circuit.ConstraintSystem` for a concrete
instance (public + private values together).  A
:class:`ProvingBackend` turns circuit definitions into key material,
proofs, and verification decisions.

Two backends ship with the library:

- :class:`repro.zksnark.groth16.Groth16Backend` — the real pairing-based
  SNARK (succinct proofs, slow in pure Python);
- :class:`repro.zksnark.mock.MockBackend` — the ideal SNARK
  functionality (fast; used for protocol-scale simulations and tests).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro import observability as obs
from repro.errors import ProofError
from repro.zksnark.circuit import ConstraintSystem
from repro.zksnark.field import FR, PrimeField


def fanout_map(worker, items: list, jobs: int, chunked: bool):
    """Map ``worker`` over ``items``, forking when ``jobs > 1``.

    The repo's one fork pool: the engine's RSA keygen and
    :meth:`MockBackend.prove_many <repro.zksnark.mock.MockBackend.prove_many>`
    both go through it.  Results always come back in item order
    (``pool.map`` semantics), so callers that need determinism can rely
    on it.  Falls back to serial execution wherever fork is unavailable.
    ``chunked`` is unused (every caller passes False); it stays in the
    signature because the benchmark's traced wrapper forwards it.
    """
    if jobs > 1 and len(items) > 1:
        import multiprocessing as mp

        try:
            ctx = mp.get_context("fork")
        except ValueError:
            ctx = None
        if ctx is not None:
            with ctx.Pool(min(jobs, len(items))) as pool:
                return pool.map(worker, items)
    return [worker(item) for item in items]


class BatchProveJob:
    """Picklable worker mapping one (pk, circuit, instance) to a proof."""

    def __init__(self, backend: "ProvingBackend") -> None:
        self.backend = backend

    def __call__(self, request) -> "Proof":
        proving_key, circuit, instance = request
        return self.backend.prove(proving_key, circuit, instance)


class CircuitDefinition(abc.ABC):
    """A reusable circuit template.

    Subclasses must synthesize an *instance-independent structure*: the
    set of constraints may depend only on the circuit's parameters
    (e.g. number of workers), never on wire values, so that keys
    generated from :meth:`example_instance` fit every real instance.
    """

    #: Human-readable circuit name (appears in key digests and errors).
    name: str = "circuit"

    field: PrimeField = FR

    #: True for circuits whose statement includes native predicates that
    #: have no R1CS encoding (e.g. EM-based reward policies); only the
    #: ideal-functionality MockBackend accepts them.
    requires_ideal_backend: bool = False

    @abc.abstractmethod
    def example_instance(self) -> Any:
        """A syntactically valid instance used to derive the structure."""

    @abc.abstractmethod
    def synthesize(self, cs: ConstraintSystem, instance: Any) -> None:
        """Allocate wires (publics first) and enforce all constraints."""

    def build(self, instance: Any) -> ConstraintSystem:
        """Synthesize a fresh constraint system for ``instance``."""
        cs = ConstraintSystem(self.field)
        self.synthesize(cs, instance)
        return cs

    def public_inputs(self, instance: Any) -> List[int]:
        """The statement vector for ``instance`` (via full synthesis).

        Backends use this when a verifier-side caller hands them an
        instance rather than a raw statement vector; concrete circuits
        may override it with a cheaper direct computation.
        """
        return self.build(instance).public_values()

    def extra_digest(self) -> bytes:
        """Extra semantics folded into the circuit digest.

        Circuits with native predicates (``requires_ideal_backend``)
        must return a digest binding those semantics, so a proof for
        one policy never verifies for another with the same R1CS shell.
        """
        return b""

    def native_checks(self, instance: Any) -> None:
        """Raise if ``instance`` violates predicates outside the R1CS.

        Only consulted by the ideal-functionality backend.
        """


def full_circuit_digest(circuit: CircuitDefinition, r1cs=None) -> bytes:
    """The digest key material binds to: R1CS structure + extra semantics.

    The structure digest is cached on the circuit object: synthesis is
    instance-independent by the :class:`CircuitDefinition` contract, so
    every prove against the same circuit hashes the same structure —
    recomputing it per proof dominated batched proving runs.  With
    ``r1cs=None`` the circuit is synthesized from its example instance
    on a cache miss (used by the proving service's warm-key lookup).
    """
    from repro.crypto.hashing import sha256

    structure = circuit.__dict__.get("_structure_digest_cache")
    if structure is None:
        if r1cs is None:
            r1cs = circuit.build(circuit.example_instance()).to_r1cs()
        structure = r1cs.structure_digest()
        circuit.__dict__["_structure_digest_cache"] = structure
    return sha256(b"circuit-digest", structure, circuit.extra_digest())


@dataclass
class Proof:
    """A proof with its backend tag and serialized payload."""

    backend: str
    payload: bytes

    def size_bytes(self) -> int:
        return len(self.payload)


@dataclass
class KeyPair:
    """Setup output: proving key and verification key."""

    proving_key: Any
    verifying_key: Any


class ProvingBackend(abc.ABC):
    """Interface every proof system implements."""

    name: str = "backend"

    @abc.abstractmethod
    def setup(self, circuit: CircuitDefinition, seed: Optional[bytes] = None) -> KeyPair:
        """Run the (trusted) setup for ``circuit``."""

    @abc.abstractmethod
    def prove(self, proving_key: Any, circuit: CircuitDefinition, instance: Any) -> Proof:
        """Produce a proof that ``instance`` satisfies ``circuit``."""

    @abc.abstractmethod
    def verify(self, verifying_key: Any, public_inputs: List[int], proof: Proof) -> bool:
        """Check a proof against the statement vector."""

    def prove_many(
        self, requests: Sequence[tuple]
    ) -> List[Proof]:
        """Prove a batch of ``(proving_key, circuit, instance)`` jobs.

        Returns proofs in request order.  The default loops over
        :meth:`prove`; the mock backend overrides it to fan the batch
        out over :func:`fanout_map`.
        """
        with obs.span("snark.prove_many", backend=self.name, jobs=len(requests)):
            proofs = [
                self.prove(proving_key, circuit, instance)
                for proving_key, circuit, instance in requests
            ]
        if obs.TRACER.enabled:
            obs.count("snark.prove_many.calls")
            obs.count("snark.prove_many.jobs", len(requests))
        return proofs

    def batch_verify(
        self,
        verifying_key: Any,
        statements: Sequence[List[int]],
        proofs: Sequence[Proof],
    ) -> bool:
        """Check n (statement, proof) pairs under one verifying key.

        The default just loops over :meth:`verify`; backends with an
        amortizable verifier (Groth16's random-linear-combination
        multi-pairing) override this with a genuinely cheaper check.
        An empty batch is vacuously valid.
        """
        if len(statements) != len(proofs):
            raise ProofError(
                f"batch length mismatch: {len(statements)} statements "
                f"vs {len(proofs)} proofs"
            )
        with obs.span(
            "snark.batch_verify", backend=self.name, proofs=len(proofs)
        ) as batch_span:
            result = all(
                self.verify(verifying_key, list(statement), proof)
                for statement, proof in zip(statements, proofs)
            )
            batch_span.set_attrs(valid=result)
        if obs.TRACER.enabled:
            obs.count("snark.batch_verify.calls")
            obs.count("snark.batch_verify.proofs", len(proofs))
        return result

    def _check_backend(self, proof: Proof) -> None:
        if proof.backend != self.name:
            raise ProofError(
                f"proof was produced by backend {proof.backend!r}, "
                f"not {self.name!r}"
            )


_REGISTRY: Dict[str, "ProvingBackend"] = {}


def register_backend(backend: ProvingBackend) -> None:
    """Register a backend instance under its name."""
    _REGISTRY[backend.name] = backend


def get_backend(name: str) -> ProvingBackend:
    """Fetch a registered backend (``groth16`` or ``mock``)."""
    # Import lazily so registration happens on first use.
    if not _REGISTRY:
        from repro.zksnark.groth16 import Groth16Backend
        from repro.zksnark.mock import MockBackend
        from repro.zksnark.service import ProvingService

        register_backend(Groth16Backend())
        register_backend(MockBackend())
        register_backend(ProvingService())
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown proving backend {name!r}; expected one of {sorted(_REGISTRY)}"
        ) from None
