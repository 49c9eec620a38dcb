"""Groth16 end-to-end: completeness, tamper-resistance, zero-knowledge shape."""

from __future__ import annotations

import copy

import pytest

from repro.chain.state import WorldState
from repro.errors import ProofError, UnsatisfiedConstraintError
from repro.zksnark import CircuitDefinition, ConstraintSystem, Groth16Backend, Proof


class CubeCircuit(CircuitDefinition):
    """x^3 + x + 5 == out."""

    name = "cube"

    def example_instance(self):
        return {"x": 3, "out": 35}

    def synthesize(self, cs: ConstraintSystem, instance) -> None:
        out = cs.alloc_public(instance["out"])
        x = cs.alloc(instance["x"])
        x2 = cs.mul(x, x)
        x3 = cs.mul(x2, x)
        cs.enforce_equal(x3 + x + 5, out)


class ProductCircuit(CircuitDefinition):
    """a * b == out with two public inputs (out, a)."""

    name = "product"

    def example_instance(self):
        return {"out": 6, "a": 2, "b": 3}

    def synthesize(self, cs: ConstraintSystem, instance) -> None:
        out = cs.alloc_public(instance["out"])
        a = cs.alloc_public(instance["a"])
        b = cs.alloc(instance["b"])
        cs.enforce(a, b, out)


@pytest.fixture(scope="module")
def backend() -> Groth16Backend:
    return Groth16Backend()


@pytest.fixture(scope="module")
def cube_keys(backend):
    return backend.setup(CubeCircuit(), seed=b"cube-test")


def test_completeness(backend, cube_keys) -> None:
    proof = backend.prove(cube_keys.proving_key, CubeCircuit(), {"x": 3, "out": 35})
    assert backend.verify(cube_keys.verifying_key, [35], proof)


def test_rejects_wrong_statement(backend, cube_keys) -> None:
    proof = backend.prove(cube_keys.proving_key, CubeCircuit(), {"x": 3, "out": 35})
    assert not backend.verify(cube_keys.verifying_key, [36], proof)


def test_rejects_tampered_proof(backend, cube_keys) -> None:
    proof = backend.prove(cube_keys.proving_key, CubeCircuit(), {"x": 3, "out": 35})
    flipped = bytearray(proof.payload)
    flipped[5] ^= 0x01
    bad = Proof(backend=proof.backend, payload=bytes(flipped))
    assert not backend.verify(cube_keys.verifying_key, [35], bad)


def test_rejects_wrong_length_payload(backend, cube_keys) -> None:
    bad = Proof(backend="groth16", payload=b"\x00" * 10)
    assert not backend.verify(cube_keys.verifying_key, [35], bad)


def test_rejects_statement_arity_mismatch(backend, cube_keys) -> None:
    proof = backend.prove(cube_keys.proving_key, CubeCircuit(), {"x": 3, "out": 35})
    assert not backend.verify(cube_keys.verifying_key, [35, 1], proof)


def test_prover_refuses_false_witness(backend, cube_keys) -> None:
    with pytest.raises(UnsatisfiedConstraintError):
        backend.prove(cube_keys.proving_key, CubeCircuit(), {"x": 2, "out": 35})


def test_proof_is_randomized_but_both_verify(backend, cube_keys) -> None:
    p1 = backend.prove(cube_keys.proving_key, CubeCircuit(), {"x": 3, "out": 35})
    p2 = backend.prove(cube_keys.proving_key, CubeCircuit(), {"x": 3, "out": 35})
    assert p1.payload != p2.payload  # fresh (r, s) blinding each time
    assert backend.verify(cube_keys.verifying_key, [35], p1)
    assert backend.verify(cube_keys.verifying_key, [35], p2)


def test_multiple_instances_same_keys(backend, cube_keys) -> None:
    for x in (1, 2, 5):
        out = (x**3 + x + 5)
        proof = backend.prove(cube_keys.proving_key, CubeCircuit(), {"x": x, "out": out})
        assert backend.verify(cube_keys.verifying_key, [out], proof)


def test_keys_bound_to_circuit(backend, cube_keys) -> None:
    with pytest.raises(ProofError):
        backend.prove(cube_keys.proving_key, ProductCircuit(), {"out": 6, "a": 2, "b": 3})


def test_proof_size_constant(backend, cube_keys) -> None:
    product_keys = backend.setup(ProductCircuit(), seed=b"product-test")
    p1 = backend.prove(cube_keys.proving_key, CubeCircuit(), {"x": 3, "out": 35})
    p2 = backend.prove(
        product_keys.proving_key, ProductCircuit(), {"out": 6, "a": 2, "b": 3}
    )
    assert p1.size_bytes() == p2.size_bytes() == 256


def test_vk_size_grows_with_publics(backend, cube_keys) -> None:
    product_keys = backend.setup(ProductCircuit(), seed=b"product-test2")
    # 2 public inputs > 1 public input → one more IC point (64 bytes).
    assert (
        product_keys.verifying_key.size_bytes()
        == cube_keys.verifying_key.size_bytes() + 64
    )


def test_deterministic_setup_with_seed(backend) -> None:
    k1 = backend.setup(CubeCircuit(), seed=b"same-seed")
    k2 = backend.setup(CubeCircuit(), seed=b"same-seed")
    assert k1.verifying_key.to_bytes() == k2.verifying_key.to_bytes()


def test_proof_from_other_setup_rejected(backend, cube_keys) -> None:
    other = backend.setup(CubeCircuit(), seed=b"other-ceremony")
    proof = backend.prove(other.proving_key, CubeCircuit(), {"x": 3, "out": 35})
    assert backend.verify(other.verifying_key, [35], proof)
    assert not backend.verify(cube_keys.verifying_key, [35], proof)


def test_backend_tag_enforced(backend, cube_keys) -> None:
    proof = backend.prove(cube_keys.proving_key, CubeCircuit(), {"x": 3, "out": 35})
    alien = Proof(backend="mock", payload=proof.payload)
    with pytest.raises(ProofError):
        backend.verify(cube_keys.verifying_key, [35], alien)


def test_state_snapshots_share_the_verifying_key(backend, cube_keys) -> None:
    """deepcopy, and so every state snapshot, shares a verifying key
    instead of copying it; the rest of the stored state stays isolated."""
    vk = cube_keys.verifying_key
    assert copy.deepcopy(vk) is vk
    state = WorldState()
    address = b"\x0c" * 20
    state.account(address).storage.update(vk=vk, answers=[1, 2])
    snapshot = state.snapshot()
    stored = snapshot.account(address).storage
    stored["answers"].append(3)
    assert stored["vk"] is vk
    assert state.account(address).storage["answers"] == [1, 2]
    proof = backend.prove(cube_keys.proving_key, CubeCircuit(), {"x": 3, "out": 35})
    assert backend.verify(stored["vk"], [35], proof)
