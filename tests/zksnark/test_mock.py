"""The ideal-functionality backend must mirror Groth16's interface guarantees."""

from __future__ import annotations

import pytest

from repro.errors import ProofError, UnsatisfiedConstraintError
from repro.zksnark import CircuitDefinition, ConstraintSystem, MockBackend, Proof


class SquareCircuit(CircuitDefinition):
    name = "square"

    def example_instance(self):
        return {"x": 4, "out": 16}

    def synthesize(self, cs, instance) -> None:
        out = cs.alloc_public(instance["out"])
        x = cs.alloc(instance["x"])
        cs.enforce(x, x, out)


class NativeCircuit(CircuitDefinition):
    """A circuit with a native predicate (out must be even)."""

    name = "native-even"
    requires_ideal_backend = True

    def example_instance(self):
        return {"x": 4, "out": 16}

    def synthesize(self, cs, instance) -> None:
        out = cs.alloc_public(instance["out"])
        x = cs.alloc(instance["x"])
        cs.enforce(x, x, out)

    def extra_digest(self) -> bytes:
        return b"even-check"

    def native_checks(self, instance) -> None:
        if instance["out"] % 2 != 0:
            raise ProofError("out must be even")


@pytest.fixture(scope="module")
def backend() -> MockBackend:
    return MockBackend()


@pytest.fixture(scope="module")
def keys(backend):
    return backend.setup(SquareCircuit(), seed=b"mock")


def test_complete(backend, keys) -> None:
    proof = backend.prove(keys.proving_key, SquareCircuit(), {"x": 4, "out": 16})
    assert backend.verify(keys.verifying_key, [16], proof)


def test_sound_statement_binding(backend, keys) -> None:
    proof = backend.prove(keys.proving_key, SquareCircuit(), {"x": 4, "out": 16})
    assert not backend.verify(keys.verifying_key, [17], proof)


def test_refuses_false_witness(backend, keys) -> None:
    with pytest.raises(UnsatisfiedConstraintError):
        backend.prove(keys.proving_key, SquareCircuit(), {"x": 4, "out": 17})


def test_proof_size_matches_groth16(backend, keys) -> None:
    proof = backend.prove(keys.proving_key, SquareCircuit(), {"x": 4, "out": 16})
    assert proof.size_bytes() == 256


def test_tampered_proof_rejected(backend, keys) -> None:
    proof = backend.prove(keys.proving_key, SquareCircuit(), {"x": 4, "out": 16})
    flipped = bytearray(proof.payload)
    flipped[0] ^= 1
    assert not backend.verify(keys.verifying_key, [16], Proof("mock", bytes(flipped)))


def test_native_checks_enforced(backend) -> None:
    keys = backend.setup(NativeCircuit(), seed=b"native")
    proof = backend.prove(keys.proving_key, NativeCircuit(), {"x": 4, "out": 16})
    assert backend.verify(keys.verifying_key, [16], proof)
    # 25 = 5^2 satisfies the R1CS but violates the native predicate.
    with pytest.raises(ProofError):
        backend.prove(keys.proving_key, NativeCircuit(), {"x": 5, "out": 25})


def test_extra_digest_separates_keys(backend) -> None:
    plain = backend.setup(SquareCircuit(), seed=b"k")
    native = backend.setup(NativeCircuit(), seed=b"k")
    proof = backend.prove(plain.proving_key, SquareCircuit(), {"x": 4, "out": 16})
    # Same R1CS shell, different semantics: must not cross-verify.
    assert not backend.verify(native.verifying_key, [16], proof)


def test_groth16_refuses_native_circuits() -> None:
    from repro.zksnark import Groth16Backend

    with pytest.raises(ProofError):
        Groth16Backend().setup(NativeCircuit(), seed=b"x")


@pytest.fixture(scope="module")
def reward_requests(backend):
    """Four mock reward-proof requests with distinct statements."""
    from repro.core.policy import MajorityVotePolicy
    from repro.core.reward_circuit import MajorityRewardCircuit, build_reward_instance
    from repro.zksnark.gadgets.mimc import MiMCParameters

    mimc = MiMCParameters.for_rounds(7)
    policy = MajorityVotePolicy(num_choices=4)
    circuit = MajorityRewardCircuit(3, policy, mimc)
    key_pair = backend.setup(circuit, seed=b"fanout")
    requests = []
    for votes in ([1, 1, 2], [0, 3, 3], [2, None, 2], [3, 3, 3]):
        answers = [None if v is None else [v] for v in votes]
        keys = [0 if v is None else 100 + i for i, v in enumerate(votes)]
        instance = build_reward_instance(policy, 120, keys, answers, mimc)
        requests.append((key_pair.proving_key, circuit, instance))
    return requests


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_fork_pool_matches_serial_prove_in_order(
    backend, reward_requests, jobs
) -> None:
    from repro.zksnark.backend import BatchProveJob, fanout_map

    serial = [backend.prove(*request) for request in reward_requests]
    assert len({proof.payload for proof in serial}) == len(serial)
    assert fanout_map(BatchProveJob(backend), reward_requests, jobs, chunked=False) == serial


def test_fork_pool_falls_back_to_serial_without_fork(
    backend, reward_requests, monkeypatch
) -> None:
    import multiprocessing

    from repro.zksnark.backend import BatchProveJob, fanout_map

    asked = []

    def no_fork(method=None):
        asked.append(method)
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    serial = [backend.prove(*request) for request in reward_requests]
    assert fanout_map(BatchProveJob(backend), reward_requests, 4, chunked=False) == serial
    assert asked == ["fork"]


def test_backend_registry() -> None:
    from repro.zksnark import get_backend

    assert get_backend("mock").name == "mock"
    assert get_backend("groth16").name == "groth16"
    with pytest.raises(KeyError):
        get_backend("starks")
