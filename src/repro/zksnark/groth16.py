"""Groth16-style preprocessing zk-SNARK over BN128.

The trusted setup samples toxic waste (τ, α, β, γ, δ), evaluates the QAP
columns at τ and publishes group-encoded key material; proofs are the
classic three group elements (A ∈ G1, B ∈ G2, C ∈ G1); verification is
one multi-pairing plus a statement-dependent MSM — exactly the
asymmetric cost profile the paper exploits with its outsource-then-prove
methodology (heavy proving off-chain, tiny verification on-chain).

Performance layer (all pure Python, no extra dependencies):

- setup's thousands of generator multiplications go through windowed
  fixed-base tables (:func:`g1_generator_table`), one
  :meth:`~repro.crypto.weierstrass.FixedBaseTable.mul_many` call per
  query, so each window step's additions share one field inversion;
- the QAP lives on a radix-2 root-of-unity domain of N ≥ n points, so
  setup evaluates it at τ from the closed-form Lagrange basis and the
  prover's quotient H is seven NTTs (:mod:`repro.zksnark.qap`); the H
  query holds N − 1 powers of τ;
- the prover's five inner products run as Pippenger MSMs (G1 and G2);
- the verifier pairs against *prepared* γ/δ (precomputed Miller-loop
  line coefficients) and uses the decomposed final exponentiation;
- :meth:`Groth16Backend.batch_verify` checks n proofs with a single
  random-linear-combination multi-pairing.

Setup and proving run in-process; batches go through the base-class
``prove_many`` loop.

``Groth16Backend(optimized=False)`` routes every group operation
through the naive reference implementations — the before/after axis of
``benchmarks/bench_fig4.py``.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

from repro import observability as obs
from repro.crypto.hashing import sha256
from repro.errors import ProofError
from repro.zksnark.backend import (
    CircuitDefinition,
    KeyPair,
    Proof,
    ProvingBackend,
    full_circuit_digest,
)
from repro.zksnark.bn128.curve import (
    G1,
    G2,
    G1Point,
    G2Point,
    g1_add,
    g1_from_bytes,
    g1_generator_table,
    g1_msm,
    g1_msm_naive,
    g1_mul,
    g1_neg,
    g1_to_bytes,
    g2_add,
    g2_from_bytes,
    g2_generator_table,
    g2_msm,
    g2_mul,
    g2_mul_naive,
    g2_to_bytes,
)
from repro.zksnark.bn128.fq import CURVE_ORDER
from repro.zksnark.bn128.fq12 import FQ12
from repro.zksnark.bn128.pairing import (
    G2Prepared,
    multi_pairing,
    multi_pairing_naive,
    pairing,
    prepare_g2,
)
from repro.zksnark.qap import QAP


class _Drbg:
    """A tiny SHA-256 counter DRBG for reproducible trusted setups."""

    def __init__(self, seed: bytes) -> None:
        self._seed = seed
        self._counter = 0

    def field_element(self) -> int:
        """A uniform nonzero scalar in [1, r)."""
        while True:
            block = sha256(self._seed, b"drbg", self._counter.to_bytes(8, "big"))
            block += sha256(self._seed, b"drbg2", self._counter.to_bytes(8, "big"))
            self._counter += 1
            value = int.from_bytes(block, "big") % CURVE_ORDER
            if value != 0:
                return value


@dataclass
class Groth16VerifyingKey:
    """Verification material: 4 group elements + one IC point per input."""

    circuit_digest: bytes
    num_public: int
    alpha_g1: G1Point
    beta_g2: G2Point
    gamma_g2: G2Point
    delta_g2: G2Point
    ic: List[G1Point]
    alpha_beta: FQ12  # precomputed e(alpha, beta)
    #: Prepared Miller-loop line coefficients for the two fixed G2
    #: points every verification pairs against (filled lazily).
    gamma_prepared: Optional[G2Prepared] = field(default=None, repr=False, compare=False)
    delta_prepared: Optional[G2Prepared] = field(default=None, repr=False, compare=False)

    def prepared_gamma(self) -> G2Prepared:
        if self.gamma_prepared is None:
            self.gamma_prepared = prepare_g2(self.gamma_g2)
        return self.gamma_prepared

    def prepared_delta(self) -> G2Prepared:
        if self.delta_prepared is None:
            self.delta_prepared = prepare_g2(self.delta_g2)
        return self.delta_prepared

    def __deepcopy__(self, memo) -> "Groth16VerifyingKey":
        # Nothing mutates a key after setup (the prepared line tables are
        # a deterministic cache), so state snapshots share it.
        return self

    def size_bytes(self) -> int:
        """Serialized size (what Table I's "Key" column measures)."""
        return len(self.to_bytes())

    def to_bytes(self) -> bytes:
        parts = [
            g1_to_bytes(self.alpha_g1),
            g2_to_bytes(self.beta_g2),
            g2_to_bytes(self.gamma_g2),
            g2_to_bytes(self.delta_g2),
        ]
        parts.extend(g1_to_bytes(point) for point in self.ic)
        return b"".join(parts)


@dataclass
class Groth16ProvingKey:
    """Proving material (per-wire queries plus the H-polynomial powers)."""

    circuit_digest: bytes
    num_public: int
    alpha_g1: G1Point
    beta_g1: G1Point
    beta_g2: G2Point
    delta_g1: G1Point
    delta_g2: G2Point
    a_query: List[G1Point]
    b_g1_query: List[G1Point]
    b_g2_query: List[G2Point]
    k_query: List[G1Point]  # aux wires only, indexed from num_public+1
    h_query: List[G1Point]

    def size_bytes(self) -> int:
        g1_count = (
            3 + len(self.a_query) + len(self.b_g1_query) + len(self.k_query) + len(self.h_query)
        )
        g2_count = 2 + len(self.b_g2_query)
        return 64 * g1_count + 128 * g2_count


_PROOF_LEN = 64 + 128 + 64

#: Bit width of the batch-verification combination scalars; 2^-127
#: soundness error per forged proof in the batch.
_BATCH_SCALAR_BITS = 127


class Groth16Backend(ProvingBackend):
    """The real pairing-based backend.

    ``optimized=False`` switches every group/pairing operation to the
    naive reference path (double-and-add, per-wire G2 loop, monolithic
    final exponentiation) — kept so benchmarks can measure the speedup
    and tests can cross-check the two implementations.
    """

    name = "groth16"

    def __init__(self, optimized: bool = True) -> None:
        self._optimized = optimized

    def setup(self, circuit: CircuitDefinition, seed: Optional[bytes] = None) -> KeyPair:
        with obs.span(
            "snark.setup",
            backend=self.name,
            circuit=circuit.name,
            optimized=self._optimized,
        ):
            keys = self._setup(circuit, seed)
        obs.count("snark.setup.calls")
        return keys

    def _setup(self, circuit: CircuitDefinition, seed: Optional[bytes]) -> KeyPair:
        if circuit.requires_ideal_backend:
            raise ProofError(
                f"circuit {circuit.name!r} declares native predicates that "
                "Groth16 cannot compile; use the mock backend"
            )
        cs = circuit.build(circuit.example_instance())
        cs.check_satisfied()
        r1cs = cs.to_r1cs()
        digest = full_circuit_digest(circuit, r1cs)
        qap = QAP(r1cs)
        drbg = _Drbg(seed if seed is not None else secrets.token_bytes(32))
        tau = drbg.field_element()
        alpha = drbg.field_element()
        beta = drbg.field_element()
        gamma = drbg.field_element()
        delta = drbg.field_element()

        evaluation = qap.evaluate_at(tau)
        p = CURVE_ORDER
        gamma_inv = pow(gamma, -1, p)
        delta_inv = pow(delta, -1, p)

        num_wires = r1cs.num_wires
        num_public = r1cs.num_public

        def combined(i: int) -> int:
            return (
                beta * evaluation.a_at[i]
                + alpha * evaluation.b_at[i]
                + evaluation.c_at[i]
            ) % p

        ic_scalars = [combined(i) * gamma_inv % p for i in range(num_public + 1)]
        k_scalars = [
            combined(i) * delta_inv % p for i in range(num_public + 1, num_wires)
        ]
        z_delta = evaluation.z_at * delta_inv % p
        h_scalars = []
        power = 1
        for _ in range(max(0, evaluation.degree - 1)):
            h_scalars.append(power * z_delta % p)
            power = power * tau % p

        if self._optimized:
            batch_g1 = g1_generator_table().mul_many
            batch_g2 = g2_generator_table().mul_many
        else:

            def batch_g1(scalars: List[int]) -> List[G1Point]:
                return [g1_mul(G1, s) for s in scalars]

            def batch_g2(scalars: List[int]) -> List[G2Point]:
                return [g2_mul_naive(G2, s) for s in scalars]

        a_query = batch_g1(evaluation.a_at)
        b_g1_query = batch_g1(evaluation.b_at)
        b_g2_query = batch_g2(evaluation.b_at)
        ic = batch_g1(ic_scalars)
        k_query = batch_g1(k_scalars)
        h_query = batch_g1(h_scalars)

        (alpha_g1, beta_g1, delta_g1) = batch_g1([alpha, beta, delta])
        (beta_g2, gamma_g2, delta_g2) = batch_g2([beta, gamma, delta])
        proving_key = Groth16ProvingKey(
            circuit_digest=digest,
            num_public=num_public,
            alpha_g1=alpha_g1,
            beta_g1=beta_g1,
            beta_g2=beta_g2,
            delta_g1=delta_g1,
            delta_g2=delta_g2,
            a_query=a_query,
            b_g1_query=b_g1_query,
            b_g2_query=b_g2_query,
            k_query=k_query,
            h_query=h_query,
        )
        verifying_key = Groth16VerifyingKey(
            circuit_digest=digest,
            num_public=num_public,
            alpha_g1=alpha_g1,
            beta_g2=beta_g2,
            gamma_g2=gamma_g2,
            delta_g2=delta_g2,
            ic=ic,
            alpha_beta=pairing(beta_g2, alpha_g1),
        )
        if self._optimized:
            verifying_key.prepared_gamma()
            verifying_key.prepared_delta()
        return KeyPair(proving_key=proving_key, verifying_key=verifying_key)

    def prove(
        self,
        proving_key: Groth16ProvingKey,
        circuit: CircuitDefinition,
        instance: Any,
        rng: Optional[_Drbg] = None,
    ) -> Proof:
        with obs.span(
            "snark.prove",
            backend=self.name,
            circuit=circuit.name,
            optimized=self._optimized,
        ):
            proof = self._prove(proving_key, circuit, instance, rng)
        obs.count("snark.prove.calls")
        return proof

    def _prove(
        self,
        proving_key: Groth16ProvingKey,
        circuit: CircuitDefinition,
        instance: Any,
        rng: Optional[_Drbg],
    ) -> Proof:
        cs = circuit.build(instance)
        r1cs = cs.to_r1cs()
        if full_circuit_digest(circuit, r1cs) != proving_key.circuit_digest:
            raise ProofError("proving key does not match this circuit structure")
        r1cs.check_satisfied(cs.assignment)
        assignment = cs.assignment
        qap = QAP(r1cs)
        h_coeffs = qap.witness_quotient(assignment)

        num_wires = len(assignment)
        if not (
            len(proving_key.a_query) == num_wires
            and len(proving_key.b_g1_query) == num_wires
            and len(proving_key.b_g2_query) == num_wires
        ):
            raise ProofError(
                "proving key wire count does not match the witness: "
                f"{len(proving_key.a_query)} query points vs {num_wires} wires"
            )
        aux_values = assignment[proving_key.num_public + 1 :]
        if len(aux_values) != len(proving_key.k_query):
            raise ProofError(
                "proving key K-query length does not match the auxiliary witness"
            )
        if len(h_coeffs) > len(proving_key.h_query):
            raise ProofError(
                "quotient degree exceeds the proving key's H powers: "
                f"{len(h_coeffs)} coefficients vs {len(proving_key.h_query)} powers"
            )

        drbg = rng or _Drbg(secrets.token_bytes(32))
        blind_r = drbg.field_element()
        blind_s = drbg.field_element()
        p = CURVE_ORDER

        if self._optimized:
            a_acc = g1_msm(proving_key.a_query, assignment)
            b1_acc = g1_msm(proving_key.b_g1_query, assignment)
            b2_acc = g2_msm(proving_key.b_g2_query, assignment)
            k_acc = g1_msm(proving_key.k_query, aux_values)
            h_acc = g1_msm(proving_key.h_query[: len(h_coeffs)], h_coeffs)
        else:
            a_acc = g1_msm_naive(proving_key.a_query, assignment)
            b1_acc = g1_msm_naive(proving_key.b_g1_query, assignment)
            b2_acc: G2Point = None
            for point, value in zip(proving_key.b_g2_query, assignment):
                if value == 0 or point is None:
                    continue
                b2_acc = g2_add(b2_acc, g2_mul_naive(point, value))
            k_acc = g1_msm_naive(proving_key.k_query, aux_values)
            h_acc = g1_msm_naive(proving_key.h_query[: len(h_coeffs)], h_coeffs)

        proof_a = g1_add(
            g1_add(proving_key.alpha_g1, a_acc), g1_mul(proving_key.delta_g1, blind_r)
        )
        proof_b_g1 = g1_add(
            g1_add(proving_key.beta_g1, b1_acc), g1_mul(proving_key.delta_g1, blind_s)
        )
        proof_b = g2_add(
            g2_add(proving_key.beta_g2, b2_acc), g2_mul(proving_key.delta_g2, blind_s)
        )

        proof_c = k_acc
        proof_c = g1_add(proof_c, h_acc)
        proof_c = g1_add(proof_c, g1_mul(proof_a, blind_s))
        proof_c = g1_add(proof_c, g1_mul(proof_b_g1, blind_r))
        proof_c = g1_add(proof_c, g1_neg(g1_mul(proving_key.delta_g1, blind_r * blind_s % p)))

        payload = g1_to_bytes(proof_a) + g2_to_bytes(proof_b) + g1_to_bytes(proof_c)
        return Proof(backend=self.name, payload=payload)

    def _decode_proof(self, proof: Proof):
        """Parse and validate a proof payload; None when malformed.

        Hardening beyond the curve checks in ``g*_from_bytes``: the
        all-zero (infinity) encodings are rejected for all three proof
        elements — A or B at infinity collapses e(A, B) to 1 and C at
        infinity is never produced by an honest prover.
        """
        if len(proof.payload) != _PROOF_LEN:
            return None
        try:
            proof_a = g1_from_bytes(proof.payload[:64])
            proof_b = g2_from_bytes(proof.payload[64:192])
            proof_c = g1_from_bytes(proof.payload[192:])
        except ValueError:
            return None
        if proof_a is None or proof_b is None or proof_c is None:
            return None
        return proof_a, proof_b, proof_c

    def verify(
        self,
        verifying_key: Groth16VerifyingKey,
        public_inputs: List[int],
        proof: Proof,
    ) -> bool:
        with obs.span(
            "snark.verify",
            backend=self.name,
            inputs=len(public_inputs),
            optimized=self._optimized,
        ) as verify_span:
            result = self._verify(verifying_key, public_inputs, proof)
            verify_span.set_attrs(valid=result)
        if obs.TRACER.enabled:
            obs.count("snark.verify.calls")
            if not result:
                obs.count("snark.verify.rejections")
        return result

    def _verify(
        self,
        verifying_key: Groth16VerifyingKey,
        public_inputs: List[int],
        proof: Proof,
    ) -> bool:
        self._check_backend(proof)
        if len(public_inputs) != verifying_key.num_public:
            return False
        decoded = self._decode_proof(proof)
        if decoded is None:
            return False
        proof_a, proof_b, proof_c = decoded
        ic_acc = verifying_key.ic[0]
        ic_points = verifying_key.ic[1:]
        inputs = [v % CURVE_ORDER for v in public_inputs]
        if self._optimized:
            ic_acc = g1_add(ic_acc, g1_msm(ic_points, inputs))
            lhs = multi_pairing(
                [
                    (proof_b, proof_a),
                    (verifying_key.prepared_gamma(), g1_neg(ic_acc)),
                    (verifying_key.prepared_delta(), g1_neg(proof_c)),
                ]
            )
        else:
            ic_acc = g1_add(ic_acc, g1_msm_naive(ic_points, inputs))
            lhs = multi_pairing_naive(
                [
                    (proof_b, proof_a),
                    (verifying_key.gamma_g2, g1_neg(ic_acc)),
                    (verifying_key.delta_g2, g1_neg(proof_c)),
                ]
            )
        return lhs == verifying_key.alpha_beta

    def batch_verify(
        self,
        verifying_key: Groth16VerifyingKey,
        statements: Sequence[List[int]],
        proofs: Sequence[Proof],
    ) -> bool:
        """Check n proofs with one random-linear-combination multi-pairing.

        Each proof i must satisfy
        ``e(A_i, B_i) = e(α, β) · e(IC_i, γ) · e(C_i, δ)``.  Raising the
        i-th equation to an independent uniform 127-bit power z_i and
        multiplying them together yields a single check

        ``Π e(z_i·A_i, B_i) · e(−Σ z_i·IC_i, γ) · e(−Σ z_i·C_i, δ)
          = e(α, β)^{Σ z_i}``

        with n+2 Miller loops and ONE final exponentiation instead of
        3n Miller loops and n exponentiations.  Soundness: if any single
        equation fails, the combined equation holds with probability at
        most 2^-127 over the verifier's choice of z (the standard
        small-exponent batching argument); z_0 is fixed to 1, which is
        harmless since the combination only needs pairwise-independent
        randomization of the *relative* weights.

        Returns False on any malformed proof; raises
        :class:`ProofError` when statements and proofs differ in length.
        """
        with obs.span(
            "snark.batch_verify", backend=self.name, proofs=len(proofs)
        ) as batch_span:
            result = self._batch_verify(verifying_key, statements, proofs)
            batch_span.set_attrs(valid=result)
        if obs.TRACER.enabled:
            obs.count("snark.batch_verify.calls")
            obs.count("snark.batch_verify.proofs", len(proofs))
        return result

    def _batch_verify(
        self,
        verifying_key: Groth16VerifyingKey,
        statements: Sequence[List[int]],
        proofs: Sequence[Proof],
    ) -> bool:
        if len(statements) != len(proofs):
            raise ProofError(
                f"batch length mismatch: {len(statements)} statements "
                f"vs {len(proofs)} proofs"
            )
        count = len(proofs)
        if count == 0:
            return True
        if count == 1:
            return self.verify(verifying_key, list(statements[0]), proofs[0])
        decoded = []
        for statement, proof in zip(statements, proofs):
            self._check_backend(proof)
            if len(statement) != verifying_key.num_public:
                return False
            parsed = self._decode_proof(proof)
            if parsed is None:
                return False
            decoded.append(parsed)

        weights = [1] + [
            secrets.randbits(_BATCH_SCALAR_BITS) + 1 for _ in range(count - 1)
        ]
        total_weight = sum(weights) % CURVE_ORDER

        # Σ_i z_i·IC_i collapses into ONE MSM over the vk's IC points:
        # the coefficient of ic[0] is Σ z_i and of ic[j] is Σ z_i·x_ij.
        ic_coeffs = [total_weight]
        for j in range(verifying_key.num_public):
            acc = 0
            for statement, z in zip(statements, weights):
                acc += z * (statement[j] % CURVE_ORDER)
            ic_coeffs.append(acc % CURVE_ORDER)
        ic_acc = g1_msm(verifying_key.ic, ic_coeffs)
        c_acc = g1_msm([c for (_, _, c) in decoded], weights)

        pairs = [
            (proof_b, g1_mul(proof_a, z))
            for (proof_a, proof_b, _), z in zip(decoded, weights)
        ]
        pairs.append((verifying_key.prepared_gamma(), g1_neg(ic_acc)))
        pairs.append((verifying_key.prepared_delta(), g1_neg(c_acc)))
        return multi_pairing(pairs) == verifying_key.alpha_beta ** total_weight
