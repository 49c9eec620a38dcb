"""Seeded fuzz sweeps over every wire codec in the stack.

Each codec gets ~200 deterministic random cases in two shapes:

* round-trip: ``decode(encode(x)) == x`` for structurally random ``x``;
* mutation: flipping, truncating or extending encoded bytes either
  raises the codec's declared error type or decodes to a *different*
  value — never crashes with an undeclared exception and never decodes
  back to the original.

Covered codecs: the canonical serializer (``repro.serialization``),
``SignedTransaction`` wire, ``BlockHeader``/``Block`` wire, BN128
G1/G2 point encodings, and Groth16 proof payloads / verifying-key
bytes.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto import ecdsa
from repro.errors import InvalidBlockError, InvalidTransactionError
from repro.serialization import decode, encode
from repro.chain.block import Block, BlockHeader
from repro.chain.transaction import SignedTransaction, Transaction
from repro.zksnark import Groth16Backend, Proof
from repro.zksnark.bn128.curve import (
    G1,
    G2,
    g1_from_bytes,
    g1_mul,
    g1_to_bytes,
    g2_from_bytes,
    g2_mul,
    g2_to_bytes,
)

CASES = 200


# ----- helpers ----------------------------------------------------------------


def _mutate(rng: random.Random, wire: bytes) -> bytes:
    """One random structural mutation: bit flip, truncation, or insertion."""
    kind = rng.randrange(3)
    if kind == 0 or not wire:
        position = rng.randrange(len(wire)) if wire else 0
        flipped = bytearray(wire or b"\x00")
        flipped[position] ^= 1 << rng.randrange(8)
        return bytes(flipped)
    if kind == 1:
        return wire[: rng.randrange(len(wire))]
    position = rng.randrange(len(wire) + 1)
    return wire[:position] + bytes([rng.randrange(256)]) + wire[position:]


def _random_value(rng: random.Random, depth: int = 0):
    """A random encodable value (no pickle-fallback objects)."""
    choices = ["int", "negint", "bytes", "str", "none", "bool"]
    if depth < 3:
        choices += ["list", "dict"]
    kind = rng.choice(choices)
    if kind == "int":
        return rng.getrandbits(rng.randrange(1, 256))
    if kind == "negint":
        return -rng.getrandbits(rng.randrange(1, 64)) - 1
    if kind == "bytes":
        return rng.randbytes(rng.randrange(64))
    if kind == "str":
        alphabet = "abcdef é中\U0001f600"
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(24)))
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "list":
        return [_random_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    keys = [rng.randrange(1 << 32), rng.randbytes(8).hex(), rng.randbytes(4)]
    return {
        rng.choice(keys): _random_value(rng, depth + 1)
        for _ in range(rng.randrange(4))
    }


def _normalize(value):
    """Map a value to its decoded shape (tuples decode as lists, bools as ints)."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (list, tuple)):
        return [_normalize(item) for item in value]
    if isinstance(value, dict):
        return {_normalize(k): _normalize(v) for k, v in value.items()}
    return value


_KEYPAIRS = [ecdsa.ECDSAKeyPair.from_seed(b"fuzz-key-%d" % i) for i in range(4)]


def _random_signed_tx(rng: random.Random) -> SignedTransaction:
    to = None if rng.random() < 0.2 else rng.randbytes(20)
    tx = Transaction(
        nonce=rng.randrange(1 << 16),
        gas_price=rng.randrange(1 << 32),
        gas_limit=rng.randrange(21_000, 1 << 32),
        to=to,
        value=rng.randrange(1 << 48),
        data=rng.randbytes(rng.randrange(128)),
        chain_id=1337,
    )
    return tx.sign(rng.choice(_KEYPAIRS))


def _random_header(rng: random.Random) -> BlockHeader:
    return BlockHeader(
        number=rng.randrange(1 << 32),
        parent_hash=rng.randbytes(32),
        timestamp=rng.randrange(1 << 40),
        miner=rng.randbytes(20),
        state_root=rng.randbytes(32),
        tx_root=rng.randbytes(32),
        receipts_root=rng.randbytes(32),
        gas_used=rng.randrange(1 << 40),
        gas_limit=rng.randrange(1 << 40),
        extra=rng.randbytes(rng.randrange(16)),
        seal=rng.randbytes(rng.randrange(80)),
    )


# ----- canonical serializer ---------------------------------------------------


def test_serialization_roundtrip_fuzz() -> None:
    rng = random.Random(0xC0DEC)
    for _ in range(CASES):
        value = _random_value(rng)
        assert decode(encode(value)) == _normalize(value)


def test_serialization_mutation_fuzz() -> None:
    rng = random.Random(0xBADC0DE)
    survived = 0
    for _ in range(CASES):
        value = _random_value(rng)
        wire = encode(value)
        mutated = _mutate(rng, wire)
        if mutated == wire:
            continue
        try:
            result = decode(mutated)
        except (ValueError, TypeError):
            continue  # clean rejection (UnicodeDecodeError is a ValueError)
        assert result != _normalize(value)
        survived += 1
    # Sanity: mutations must not be rejected 100% of the time, or the
    # "decodes to a different value" arm is untested.
    assert survived > 0


def test_serialization_rejects_empty_and_unknown_tag() -> None:
    with pytest.raises(ValueError):
        decode(b"")
    with pytest.raises(ValueError):
        decode(bytes([0xFE]) + (0).to_bytes(4, "big"))


# ----- transaction wire -------------------------------------------------------


def test_transaction_wire_roundtrip_fuzz() -> None:
    rng = random.Random(0x7A5C)
    for _ in range(CASES):
        stx = _random_signed_tx(rng)
        again = SignedTransaction.from_wire(stx.to_wire())
        assert again == stx
        assert again.tx_hash == stx.tx_hash
        assert again.sender == stx.sender


def test_transaction_wire_mutation_fuzz() -> None:
    rng = random.Random(0x7A5D)
    pool = [_random_signed_tx(rng) for _ in range(20)]
    for _ in range(CASES):
        stx = rng.choice(pool)
        wire = stx.to_wire()
        mutated = _mutate(rng, wire)
        if mutated == wire:
            continue
        try:
            result = SignedTransaction.from_wire(mutated)
        except InvalidTransactionError:
            continue
        # A surviving decode must not impersonate the original payload:
        # any field difference changes the signing hash, hence tx_hash.
        assert result != stx
        assert result.tx_hash != stx.tx_hash


# ----- block wire -------------------------------------------------------------


def test_header_wire_roundtrip_fuzz() -> None:
    rng = random.Random(0xB10C)
    for _ in range(CASES):
        header = _random_header(rng)
        again = BlockHeader.from_wire(header.to_wire())
        assert again == header
        assert again.block_hash() == header.block_hash()


def test_header_wire_mutation_fuzz() -> None:
    rng = random.Random(0xB10D)
    for _ in range(CASES):
        header = _random_header(rng)
        wire = header.to_wire()
        mutated = _mutate(rng, wire)
        if mutated == wire:
            continue
        try:
            result = BlockHeader.from_wire(mutated)
        except InvalidBlockError:
            continue
        assert result != header


def test_block_wire_roundtrip_fuzz() -> None:
    rng = random.Random(0x5EED)
    pool = [_random_signed_tx(rng) for _ in range(12)]
    for _ in range(60):
        transactions = tuple(
            rng.choice(pool) for _ in range(rng.randrange(4))
        )
        block = Block(header=_random_header(rng), transactions=transactions)
        again = Block.from_wire(block.to_wire())
        assert again == block
        assert again.block_hash == block.block_hash


def test_block_wire_mutation_fuzz() -> None:
    rng = random.Random(0x5EEE)
    pool = [_random_signed_tx(rng) for _ in range(8)]
    block = Block(
        header=_random_header(rng), transactions=tuple(pool[:3])
    )
    wire = block.to_wire()
    for _ in range(CASES):
        mutated = _mutate(rng, wire)
        if mutated == wire:
            continue
        try:
            result = Block.from_wire(mutated)
        except InvalidBlockError:
            continue
        assert result != block


# ----- BN128 point encodings --------------------------------------------------


def test_g1_point_roundtrip_fuzz() -> None:
    rng = random.Random(0x6001)
    for _ in range(CASES):
        point = g1_mul(G1, rng.getrandbits(64) + 1)
        assert g1_from_bytes(g1_to_bytes(point)) == point
    assert g1_from_bytes(b"\x00" * 64) is None  # infinity
    assert g1_to_bytes(None) == b"\x00" * 64


def test_g1_point_mutation_fuzz() -> None:
    rng = random.Random(0x6002)
    point = g1_mul(G1, 0xDEADBEEF)
    wire = g1_to_bytes(point)
    for _ in range(CASES):
        mutated = _mutate(rng, wire)
        if mutated == wire:
            continue
        try:
            result = g1_from_bytes(mutated)
        except ValueError:
            continue  # off-curve, over-field, or wrong length
        assert result != point


def test_g2_point_roundtrip_fuzz() -> None:
    rng = random.Random(0x6003)
    for _ in range(40):  # G2 arithmetic is ~4x G1 cost
        point = g2_mul(G2, rng.getrandbits(64) + 1)
        assert g2_from_bytes(g2_to_bytes(point)) == point
    assert g2_from_bytes(b"\x00" * 128) is None


def test_g2_point_mutation_fuzz() -> None:
    rng = random.Random(0x6004)
    point = g2_mul(G2, 0xCAFEF00D)
    wire = g2_to_bytes(point)
    for _ in range(CASES):
        mutated = _mutate(rng, wire)
        if mutated == wire:
            continue
        try:
            result = g2_from_bytes(mutated)
        except ValueError:
            continue
        assert result != point


# ----- Groth16 proof and verifying-key encodings ------------------------------


class _SquareCircuit:
    """x * x == out; the smallest useful Groth16 statement."""

    name = "fuzz-square"

    def example_instance(self):
        return {"x": 4, "out": 16}

    def synthesize(self, cs, instance) -> None:
        out = cs.alloc_public(instance["out"])
        x = cs.alloc(instance["x"])
        cs.enforce(x, x, out)


@pytest.fixture(scope="module")
def groth16_material():
    from repro.zksnark import CircuitDefinition

    class SquareCircuit(_SquareCircuit, CircuitDefinition):
        pass

    backend = Groth16Backend()
    circuit = SquareCircuit()
    keys = backend.setup(circuit, seed=b"fuzz-roundtrip")
    proof = backend.prove(keys.proving_key, circuit, {"x": 4, "out": 16})
    return backend, keys, proof


def test_groth16_proof_roundtrip(groth16_material) -> None:
    backend, keys, proof = groth16_material
    assert len(proof.payload) == 64 + 128 + 64
    # The payload is three canonical point encodings; re-encoding the
    # parsed points must reproduce it bit-for-bit.
    proof_a = g1_from_bytes(proof.payload[:64])
    proof_b = g2_from_bytes(proof.payload[64:192])
    proof_c = g1_from_bytes(proof.payload[192:])
    rebuilt = g1_to_bytes(proof_a) + g2_to_bytes(proof_b) + g1_to_bytes(proof_c)
    assert rebuilt == proof.payload
    assert backend.verify(keys.verifying_key, [16], proof)


def test_groth16_proof_mutation_fuzz(groth16_material) -> None:
    backend, keys, proof = groth16_material
    rng = random.Random(0x9407)
    for _ in range(CASES):
        mutated = _mutate(rng, proof.payload)
        if mutated == proof.payload:
            continue
        bad = Proof(backend=proof.backend, payload=mutated)
        # Mutations must never verify and never escape as exceptions.
        assert backend.verify(keys.verifying_key, [16], bad) is False


def test_groth16_vk_bytes_roundtrip(groth16_material) -> None:
    _, keys, _ = groth16_material
    vk = keys.verifying_key
    wire = vk.to_bytes()
    assert wire == vk.to_bytes()  # deterministic
    assert vk.size_bytes() == len(wire)
    # Layout: alpha G1 | beta, gamma, delta G2 | one G1 IC point per input.
    assert len(wire) == 64 + 3 * 128 + 64 * len(vk.ic)
    offset = 0
    assert g1_from_bytes(wire[offset : offset + 64]) == vk.alpha_g1
    offset += 64
    for expected in (vk.beta_g2, vk.gamma_g2, vk.delta_g2):
        assert g2_from_bytes(wire[offset : offset + 128]) == expected
        offset += 128
    for expected_ic in vk.ic:
        assert g1_from_bytes(wire[offset : offset + 64]) == expected_ic
        offset += 64
    assert offset == len(wire)


def test_groth16_vk_bytes_mutation_fuzz(groth16_material) -> None:
    _, keys, _ = groth16_material
    vk = keys.verifying_key
    wire = vk.to_bytes()
    rng = random.Random(0x9408)
    rejected = 0
    for _ in range(CASES):
        position = rng.randrange(len(wire))
        flipped = bytearray(wire)
        flipped[position] ^= 1 << rng.randrange(8)
        chunk_start = min(position - position % 64, len(wire) - 64)
        # Re-parse the 64-byte-aligned chunk containing the flip with
        # the matching point codec; it must reject or differ.
        if 64 <= position < 64 + 3 * 128:
            start = 64 + ((position - 64) // 128) * 128
            try:
                parsed = g2_from_bytes(bytes(flipped[start : start + 128]))
            except ValueError:
                rejected += 1
                continue
            assert parsed != g2_from_bytes(wire[start : start + 128])
        else:
            start = chunk_start if position >= 64 + 3 * 128 or position < 64 else 0
            try:
                parsed = g1_from_bytes(bytes(flipped[start : start + 64]))
            except ValueError:
                rejected += 1
                continue
            assert parsed != g1_from_bytes(wire[start : start + 64])
    assert rejected > 0


# ----- engine checkpoint codec ------------------------------------------------

from repro.errors import CheckpointError
from repro.core import engine
from repro.core.checkpoint import (
    EngineCheckpoint,
    PendingTxSnapshot,
    TaskSnapshot,
    decode_checkpoint,
    encode_checkpoint,
)

#: Every state a runner can be snapshotted in (PROVING maps to
#: collecting at snapshot time, so it is not a wire state).
_CHECKPOINT_STATES = engine.CHECKPOINT_PHASES
_CHECKPOINT_MODES = (
    engine.REQUESTER_HONEST, engine.REQUESTER_STONEWALL, engine.REQUESTER_VANISH,
)
_CHECKPOINT_STATUSES = (
    "", engine.STATUS_COMPLETED, engine.STATUS_DEFAULTED, engine.STATUS_ABORTED,
    engine.STATUS_FAILED,
)


def _random_pending_snapshot(rng: random.Random) -> PendingTxSnapshot:
    return PendingTxSnapshot(
        nonce=rng.randrange(32),
        gas_price=rng.randrange(1, 200),
        gas_limit=rng.randrange(21_000, 30_000_000),
        to=rng.randbytes(20) if rng.random() < 0.8 else None,
        value=rng.randrange(10**9),
        data=rng.randbytes(rng.randrange(64)),
        chain_id=rng.randrange(1, 4),
        private_key=rng.randrange(1, 2**250) if rng.random() < 0.9 else 0,
        sender=rng.randbytes(20),
        tx_hashes=[rng.randbytes(32) for _ in range(rng.randrange(4))],
        broadcast_height=rng.randrange(64),
        attempts=rng.randrange(1, 6),
    )


def _random_task_snapshot(rng: random.Random, state: str) -> TaskSnapshot:
    workers = rng.randrange(1, 5)
    answers = [
        [rng.randrange(4)] if rng.random() < 0.8 else None
        for _ in range(workers)
    ]
    present = [i for i, a in enumerate(answers) if a is not None]
    return TaskSnapshot(
        index=rng.randrange(64),
        state=state,
        requester_identity=f"requester-{rng.randrange(16)}",
        worker_identities=[f"worker-{i}" for i in range(workers)],
        answers=answers,
        policy_descriptor={"name": "majority-vote",
                           "num_choices": rng.randrange(2, 8)},
        description=f"fuzz-task-{rng.randrange(100)}",
        budget=rng.randrange(100, 10_000),
        answer_window=rng.randrange(4, 64),
        instruction_window=rng.randrange(4, 64),
        rsa_bits=rng.choice((512, 1024)),
        audit=rng.random() < 0.3,
        requester_mode=rng.choice(_CHECKPOINT_MODES),
        equivocators=[rng.choice(present)] if present and rng.random() < 0.3
        else [],
        task_index=rng.randrange(8),
        address=rng.randbytes(20) if state != engine.FUNDING else b"",
        account_nonce=rng.randrange(8),
        phase_blocks={s: rng.randrange(64) for s in
                      _CHECKPOINT_STATES[: rng.randrange(5)]},
        phase_times={s: rng.randrange(10**6) for s in
                     _CHECKPOINT_STATES[: rng.randrange(5)]},
        rewards=[rng.randrange(1_000) for _ in range(rng.randrange(4))],
        status=rng.choice(_CHECKPOINT_STATUSES),
        quarantined=state == engine.QUARANTINED,
        quarantine_reason="circuit breaker open" if state == engine.QUARANTINED
        else "",
        wave=[_random_pending_snapshot(rng) for _ in range(rng.randrange(3))],
        byzantine_wave=[_random_pending_snapshot(rng)
                        for _ in range(rng.randrange(2))],
        failures=rng.randrange(5),
        settling=(
            state in (engine.SETTLING, engine.QUARANTINED) and rng.random() < 0.5
        ),
    )


def _random_checkpoint(rng: random.Random) -> EngineCheckpoint:
    # Cycle through the state list so every phase appears across the
    # sweep regardless of task-count draws.
    base = rng.randrange(len(_CHECKPOINT_STATES))
    tasks = [
        _random_task_snapshot(
            rng, _CHECKPOINT_STATES[(base + i) % len(_CHECKPOINT_STATES)]
        )
        for i in range(rng.randrange(1, 6))
    ]
    return EngineCheckpoint(
        round=rng.randrange(512),
        head_height=rng.randrange(512),
        head_hash=rng.randbytes(32),
        nonce_reservations={rng.randbytes(20): rng.randrange(16)
                            for _ in range(rng.randrange(6))},
        janitor_key=rng.randrange(1, 2**250) if rng.random() < 0.5 else 0,
        tasks=tasks,
    )


def test_checkpoint_roundtrip_fuzz() -> None:
    rng = random.Random(0xC4E7)
    states_seen = set()
    for _ in range(50):
        checkpoint = _random_checkpoint(rng)
        states_seen.update(t.state for t in checkpoint.tasks)
        assert decode_checkpoint(encode_checkpoint(checkpoint)) == checkpoint
    # The sweep must have covered every snapshottable task state.
    assert states_seen == set(_CHECKPOINT_STATES)


def test_checkpoint_mutation_fuzz() -> None:
    """Any damage — flip, truncation, insertion — is rejected loudly.

    Unlike the structural codecs above, a checkpoint is checksummed
    end to end, so there is no 'decodes to a different value' branch:
    every mutation must raise CheckpointError, never a stray exception
    and never a silent wrong restore.
    """
    rng = random.Random(0xF00D)
    wire = encode_checkpoint(_random_checkpoint(rng))
    for _ in range(50):
        mutated = _mutate(rng, wire)
        if mutated == wire:
            continue
        with pytest.raises(CheckpointError):
            decode_checkpoint(mutated)


def test_checkpoint_truncation_fuzz() -> None:
    rng = random.Random(0xCAFE)
    wire = encode_checkpoint(_random_checkpoint(rng))
    for cut in sorted(rng.sample(range(len(wire)), 50)):
        with pytest.raises(CheckpointError):
            decode_checkpoint(wire[:cut])


# ----- canonical field/point encodings (malleability regression) --------------
#
# Every 32-byte limb in the G1/G2/proof/vk codecs must have exactly one
# accepted encoding.  Before the fix, limbs >= q were silently reduced,
# so x and x+q decoded to the SAME element from DIFFERENT bytes — an
# encoding-malleability hole wherever proof bytes are hashed, signed,
# or deduplicated.  These vectors pin the strict behaviour.


def _noncanonical_limbs(value: int):
    """The classic over-field encodings of ``value``: +q, and all-0xFF."""
    from repro.zksnark.bn128.fq import FIELD_MODULUS

    vectors = [b"\xff" * 32]
    if value + FIELD_MODULUS < 1 << 256:
        vectors.append((value + FIELD_MODULUS).to_bytes(32, "big"))
    return vectors


def test_fq_from_bytes_rejects_noncanonical() -> None:
    from repro.zksnark.bn128.fq import FIELD_MODULUS, fq_from_bytes

    assert fq_from_bytes((FIELD_MODULUS - 1).to_bytes(32, "big")) == FIELD_MODULUS - 1
    for bad in (FIELD_MODULUS, FIELD_MODULUS + 1, (1 << 256) - 1):
        with pytest.raises(ValueError):
            fq_from_bytes(bad.to_bytes(32, "big"))
    with pytest.raises(ValueError):
        fq_from_bytes(b"\x00" * 31)  # wrong length


def test_fq2_from_bytes_rejects_noncanonical_limbs() -> None:
    from repro.zksnark.bn128.fq import FIELD_MODULUS
    from repro.zksnark.bn128.fq2 import FQ2

    element = FQ2(5, 7)
    wire = element.to_bytes()
    assert FQ2.from_bytes(wire) == element
    for limb_start in (0, 32):
        value = int.from_bytes(wire[limb_start : limb_start + 32], "big")
        for bad_limb in [
            FIELD_MODULUS.to_bytes(32, "big"),
            (FIELD_MODULUS + 1).to_bytes(32, "big"),
            *_noncanonical_limbs(value),
        ]:
            mutated = wire[:limb_start] + bad_limb + wire[limb_start + 32 :]
            with pytest.raises(ValueError):
                FQ2.from_bytes(mutated)


def test_g1_from_bytes_rejects_noncanonical_limbs() -> None:
    point = g1_mul(G1, 0xA11CE)
    wire = g1_to_bytes(point)
    assert g1_from_bytes(wire) == point
    # x+q (resp. y+q) encodes the same curve point in non-canonical
    # bytes — exactly the malleability vector; must now be rejected.
    for limb_start in (0, 32):
        value = int.from_bytes(wire[limb_start : limb_start + 32], "big")
        for bad_limb in _noncanonical_limbs(value):
            mutated = wire[:limb_start] + bad_limb + wire[limb_start + 32 :]
            with pytest.raises(ValueError):
                g1_from_bytes(mutated)


def test_g2_from_bytes_rejects_noncanonical_limbs() -> None:
    point = g2_mul(G2, 0xB0B)
    wire = g2_to_bytes(point)
    assert g2_from_bytes(wire) == point
    for limb_start in (0, 32, 64, 96):
        value = int.from_bytes(wire[limb_start : limb_start + 32], "big")
        for bad_limb in _noncanonical_limbs(value):
            mutated = wire[:limb_start] + bad_limb + wire[limb_start + 32 :]
            with pytest.raises(ValueError):
                g2_from_bytes(mutated)


def test_groth16_proof_rejects_noncanonical_encoding(groth16_material) -> None:
    """A proof re-encoded with a +q limb must not verify.

    This is the end-to-end consequence of limb canonicality: without
    it, one valid proof has many byte representations that all verify,
    so any dedup/replay protection keyed on proof bytes is bypassable.
    """
    backend, keys, proof = groth16_material
    from repro.zksnark.bn128.fq import FIELD_MODULUS

    for limb_start in range(0, len(proof.payload), 32):
        value = int.from_bytes(proof.payload[limb_start : limb_start + 32], "big")
        if value + FIELD_MODULUS >= 1 << 256:
            continue
        mutated = (
            proof.payload[:limb_start]
            + (value + FIELD_MODULUS).to_bytes(32, "big")
            + proof.payload[limb_start + 32 :]
        )
        bad = Proof(backend=proof.backend, payload=mutated)
        assert backend.verify(keys.verifying_key, [16], bad) is False


def test_groth16_vk_bytes_reject_noncanonical_limbs(groth16_material) -> None:
    from repro.zksnark.bn128.fq import FIELD_MODULUS

    _, keys, _ = groth16_material
    wire = keys.verifying_key.to_bytes()
    # alpha G1 occupies the first 64 bytes; beta G2 the next 128.
    for limb_start, codec, width in ((0, g1_from_bytes, 64), (64, g2_from_bytes, 128)):
        chunk = wire[limb_start : limb_start + width]
        value = int.from_bytes(chunk[:32], "big")
        if value + FIELD_MODULUS >= 1 << 256:
            continue
        mutated = (value + FIELD_MODULUS).to_bytes(32, "big") + chunk[32:]
        with pytest.raises(ValueError):
            codec(mutated)


# ----- framed wire codecs (marketplace, reputation, cross-shard bridge) ---------------
#
# All seven ride the shared checksummed frame (magic | version | payload
# | sha256), so ANY mutation — bit flip, truncation, insertion — must
# surface as ValueError; a mutated frame never silently decodes (the
# sha256 trailer would have to collide), and no frame parses as a
# sibling codec.  For the bridge codecs a frame failing open would mint
# value out of thin air on the destination shard.

from repro.chain.sharding import BeaconBlock, ShardAnchor, XShardMessage
from repro.contracts.marketplace import Bid, DisputeVerdict, EscrowState
from repro.core.reputation import MAX_SCORE, ReputationRecord, ReputationRegistry


def _random_bid(rng: random.Random) -> Bid:
    return Bid(
        listing_id=rng.randrange(1 << 32),
        bidder=rng.randbytes(20),
        tag=rng.getrandbits(rng.randrange(1, 254)),
        stake=rng.randrange(1, 1 << 48),
        block=rng.randrange(1 << 32),
    )


def _random_escrow(rng: random.Random) -> EscrowState:
    return EscrowState(
        listing_id=rng.randrange(1 << 32),
        bonus=rng.randrange(1 << 32),
        validator_reward=rng.randrange(1 << 24),
        stakes=rng.randrange(1 << 40),
        dispute_bond=rng.randrange(1 << 24),
        disbursed=rng.randrange(1 << 40),
        settled=rng.random() < 0.5,
    )


def _random_verdict(rng: random.Random) -> DisputeVerdict:
    alphabet = "abcdef .-é中"
    return DisputeVerdict(
        listing_id=rng.randrange(1 << 32),
        upheld=rng.random() < 0.5,
        worker_share_ppm=rng.randrange(1_000_001),
        rationale="".join(rng.choice(alphabet) for _ in range(rng.randrange(48))),
    )


def _random_record(rng: random.Random) -> ReputationRecord:
    return ReputationRecord(
        tag=rng.getrandbits(rng.randrange(1, 254)),
        score=rng.randrange(MAX_SCORE + 1),
        completed=rng.randrange(1 << 16),
        defaulted=rng.randrange(1 << 16),
        disputes_lost=rng.randrange(1 << 16),
        last_block=rng.randrange(1 << 32),
    )


def _random_xshard_message(rng: random.Random) -> XShardMessage:
    shards = rng.randrange(2, 16)
    source = rng.randrange(shards)
    dest = (source + rng.randrange(1, shards)) % shards
    return XShardMessage(
        source_shard=source,
        dest_shard=dest,
        seq=rng.randrange(1 << 32),
        source_block=rng.randrange(1 << 32),
        sender=rng.randbytes(20),
        recipient=rng.randbytes(20),
        amount=rng.randrange(1, 1 << 64),
    )


def _random_shard_anchor(rng: random.Random) -> ShardAnchor:
    return ShardAnchor(
        shard=rng.randrange(16),
        number=rng.randrange(1 << 32),
        block_hash=rng.randbytes(32),
        receipts_root=rng.randbytes(32),
        state_root=rng.randbytes(32),
    )


def _random_beacon_block(rng: random.Random) -> BeaconBlock:
    anchors = tuple(
        (_random_shard_anchor(rng).to_wire(), rng.randbytes(65))
        for _ in range(rng.randrange(1, 5))
    )
    return BeaconBlock(
        number=rng.randrange(1 << 32),
        parent=rng.randbytes(32),
        anchors=anchors,
    )


#: (id, sampler, parser) for every framed codec (ZLBD, ZLES, ZLDV, ZLRP,
#: ZLXM, ZLSA, ZLBB), marketplace half first; the checkpoint (ZLCP) and
#: registry (ZLRR) codecs have their own shapes.
_FRAMED_CODECS = [
    ("bid", _random_bid, Bid.from_wire),
    ("escrow", _random_escrow, EscrowState.from_wire),
    ("verdict", _random_verdict, DisputeVerdict.from_wire),
    ("reputation", _random_record, ReputationRecord.from_wire),
    ("xshard-message", _random_xshard_message, XShardMessage.from_wire),
    ("shard-anchor", _random_shard_anchor, ShardAnchor.from_wire),
    ("beacon-block", _random_beacon_block, BeaconBlock.from_wire),
]
_MARKET_CODECS, _XSHARD_CODECS = _FRAMED_CODECS[:4], _FRAMED_CODECS[4:]
_FRAMED_PARAMS = pytest.mark.parametrize(
    "sampler,parser", [(s, p) for _, s, p in _FRAMED_CODECS],
    ids=[name for name, _, _ in _FRAMED_CODECS],
)


@_FRAMED_PARAMS
def test_market_wire_roundtrip_fuzz(sampler, parser) -> None:
    rng = random.Random(0xB1D)
    for _ in range(CASES):
        value = sampler(rng)
        assert parser(value.to_wire()) == value


@_FRAMED_PARAMS
def test_market_wire_mutation_fuzz(sampler, parser) -> None:
    rng = random.Random(0xD15)
    for _ in range(CASES):
        wire = sampler(rng).to_wire()
        mutated = _mutate(rng, wire)
        if mutated == wire:
            continue
        with pytest.raises(ValueError):
            parser(mutated)


def _assert_rejects_truncation_prefixes(codecs, rng: random.Random) -> None:
    """Every proper prefix of a valid frame is rejected (no partial reads)."""
    for _, sampler, parser in codecs:
        wire = sampler(rng).to_wire()
        for cut in range(len(wire)):
            with pytest.raises(ValueError):
                parser(wire[:cut])


def _assert_rejects_cross_codec_frames(codecs, rng: random.Random) -> None:
    """No frame of any framed codec decodes as one of ``codecs``."""
    wires = {name: sampler(rng).to_wire() for name, sampler, _ in _FRAMED_CODECS}
    for name, _, parser in codecs:
        for other, wire in wires.items():
            if other == name:
                continue
            with pytest.raises(ValueError):
                parser(wire)


def test_market_wire_rejects_truncation_prefixes() -> None:
    _assert_rejects_truncation_prefixes(_MARKET_CODECS, random.Random(0x7A9))


def test_xshard_wire_rejects_truncation_prefixes() -> None:
    _assert_rejects_truncation_prefixes(_XSHARD_CODECS, random.Random(0x7C21))


def test_market_wire_rejects_cross_codec_frames() -> None:
    _assert_rejects_cross_codec_frames(_MARKET_CODECS, random.Random(0xC0DE))


def test_xshard_wire_rejects_cross_codec_frames() -> None:
    _assert_rejects_cross_codec_frames(_XSHARD_CODECS, random.Random(0xAB1E))


def test_reputation_registry_wire_roundtrip_and_mutation() -> None:
    rng = random.Random(0x12E9)
    for _ in range(CASES // 4):
        registry = ReputationRegistry(half_life=rng.randrange(1, 512))
        for _ in range(rng.randrange(6)):
            record = _random_record(rng)
            registry._records[record.tag] = record.to_storage()
        wire = registry.to_wire()
        rebuilt = ReputationRegistry.from_wire(wire)
        assert rebuilt.half_life == registry.half_life
        assert rebuilt.tags() == registry.tags()
        assert rebuilt.to_wire() == wire
        mutated = _mutate(rng, wire)
        if mutated == wire:
            continue
        with pytest.raises(ValueError):
            ReputationRegistry.from_wire(mutated)


def test_xshard_message_rejects_semantic_junk() -> None:
    """Structurally valid frames with illegal field values are refused."""
    good = XShardMessage(0, 1, 5, 9, b"\x01" * 20, b"\x02" * 20, 77)

    def reframe(fields):
        from repro.serialization import framed_encode

        return framed_encode(b"ZLXM", 1, fields)

    base = [0, 1, 5, 9, b"\x01" * 20, b"\x02" * 20, 77]
    assert XShardMessage.from_wire(reframe(base)) == good
    bad_variants = [
        base[:6],                                  # missing field
        base + [0],                                # extra field
        [1, 1, 5, 9, base[4], base[5], 77],        # source == dest
        [0, 1, 5, 9, b"\x01" * 19, base[5], 77],   # short address
        [0, 1, 5, 9, base[4], base[5], 0],         # zero amount
        [0, 1, 5, 9, base[4], base[5], -3],        # negative amount
        [0, 1, -1, 9, base[4], base[5], 77],       # negative seq
        ["0", 1, 5, 9, base[4], base[5], 77],      # stringly shard
    ]
    for fields in bad_variants:
        with pytest.raises(ValueError):
            XShardMessage.from_wire(reframe(fields))
