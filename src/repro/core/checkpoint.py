"""Durable engine checkpoints: the snapshot codec and its stores.

The chain is the durable half of the system — blocks, receipts and
contract state survive an engine crash because every node journals
them.  What does *not* survive is the engine's client-side state: which
phase each task's state machine is in, which transactions are still
in flight (and under which signing keys they must be retried), and the
shared nonce reservations.  :class:`EngineCheckpoint` captures exactly
that client-side state, versioned and checksummed, so a restarted
engine can re-poll receipts for the recorded transaction hashes,
re-derive every deterministic secret (one-task accounts, task RSA
keys) from the recorded identities, and converge to the same outcomes
with exactly-once payment.

Wire format (the shared :func:`~repro.serialization.framed_encode`
envelope)::

    b"ZLCP" | version (1 byte) | canonical payload | sha256(prefix)

Truncation or corruption anywhere flips the trailing digest, so
:func:`decode_checkpoint` rejects damaged snapshots instead of
restoring from them (:class:`~repro.errors.CheckpointError`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.crypto import ecdsa
from repro.errors import CheckpointError
from repro.serialization import framed_decode, framed_encode
from repro.chain.transaction import Transaction
from repro.chain.txsender import PendingTx

CHECKPOINT_MAGIC = b"ZLCP"
CHECKPOINT_VERSION = 1


@dataclass
class PendingTxSnapshot:
    """One in-flight transaction, with enough material to retry it.

    ``private_key`` is the signer's scalar (0 when the key is unknown,
    e.g. an externally signed transaction) — a checkpoint is the
    engine's *own* private state, so persisting its signing keys is in
    scope; a deployment would encrypt the snapshot at rest.
    """

    nonce: int
    gas_price: int
    gas_limit: int
    to: Optional[bytes]
    value: int
    data: bytes
    chain_id: int
    private_key: int
    sender: bytes
    tx_hashes: List[bytes] = field(default_factory=list)
    broadcast_height: int = 0
    attempts: int = 1

    @classmethod
    def from_pending(cls, pending: PendingTx) -> "PendingTxSnapshot":
        tx = pending.transaction
        key = pending.keypair.private_key if pending.keypair is not None else 0
        return cls(
            nonce=tx.nonce,
            gas_price=tx.gas_price,
            gas_limit=tx.gas_limit,
            to=tx.to,
            value=tx.value,
            data=tx.data,
            chain_id=tx.chain_id,
            private_key=key,
            sender=pending.sender,
            tx_hashes=list(pending.tx_hashes),
            broadcast_height=pending.broadcast_height,
            attempts=pending.attempts,
        )

    def to_pending(self) -> PendingTx:
        tx = Transaction(
            nonce=self.nonce,
            gas_price=self.gas_price,
            gas_limit=self.gas_limit,
            to=self.to,
            value=self.value,
            data=self.data,
            chain_id=self.chain_id,
        )
        keypair = (
            ecdsa.ECDSAKeyPair(self.private_key) if self.private_key else None
        )
        return PendingTx(
            transaction=tx,
            keypair=keypair,
            sender=self.sender,
            tx_hashes=list(self.tx_hashes),
            broadcast_height=self.broadcast_height,
            attempts=self.attempts,
        )

    def to_obj(self) -> list:
        return [
            self.nonce, self.gas_price, self.gas_limit, self.to, self.value,
            self.data, self.chain_id, self.private_key, self.sender,
            list(self.tx_hashes), self.broadcast_height, self.attempts,
        ]

    @classmethod
    def from_obj(cls, obj: Sequence) -> "PendingTxSnapshot":
        (nonce, gas_price, gas_limit, to, value, data, chain_id,
         private_key, sender, tx_hashes, broadcast_height, attempts) = obj
        return cls(
            nonce=nonce, gas_price=gas_price, gas_limit=gas_limit, to=to,
            value=value, data=data, chain_id=chain_id,
            private_key=private_key, sender=sender,
            tx_hashes=list(tx_hashes), broadcast_height=broadcast_height,
            attempts=attempts,
        )


@dataclass
class TaskSnapshot:
    """One task's full state-machine snapshot.

    The spec half (identities, answers, policy descriptor) makes the
    checkpoint self-contained: clients re-derive their keys from the
    identity names, so nothing beyond this snapshot plus the live chain
    is needed to resume the task.
    """

    index: int
    state: str
    requester_identity: str
    worker_identities: List[str]
    answers: List[Optional[List[int]]]
    policy_descriptor: Dict
    description: str
    budget: int
    answer_window: int
    instruction_window: int
    rsa_bits: int
    audit: bool
    requester_mode: str
    equivocators: List[int]
    task_index: int
    address: bytes
    account_nonce: int
    phase_blocks: Dict[str, int]
    phase_times: Dict[str, int]
    rewards: List[int]
    status: str
    quarantined: bool
    quarantine_reason: str
    wave: List[PendingTxSnapshot] = field(default_factory=list)
    byzantine_wave: List[PendingTxSnapshot] = field(default_factory=list)
    failures: int = 0
    #: True when ``wave`` is an in-flight finalize_timeout settlement
    #: (a restored runner must not misread an old phase's confirmed
    #: wave as a settlement receipt).
    settling: bool = False

    def to_obj(self) -> list:
        return [
            self.index, self.state, self.requester_identity,
            list(self.worker_identities),
            [list(a) if a is not None else None for a in self.answers],
            dict(self.policy_descriptor), self.description, self.budget,
            self.answer_window, self.instruction_window, self.rsa_bits,
            int(self.audit), self.requester_mode, list(self.equivocators),
            self.task_index, self.address, self.account_nonce,
            dict(self.phase_blocks), dict(self.phase_times),
            list(self.rewards), self.status, int(self.quarantined),
            self.quarantine_reason,
            [p.to_obj() for p in self.wave],
            [p.to_obj() for p in self.byzantine_wave],
            self.failures,
            int(self.settling),
        ]

    @classmethod
    def from_obj(cls, obj: Sequence) -> "TaskSnapshot":
        (index, state, requester_identity, worker_identities, answers,
         policy_descriptor, description, budget, answer_window,
         instruction_window, rsa_bits, audit, requester_mode, equivocators,
         task_index, address, account_nonce, phase_blocks, phase_times,
         rewards, status, quarantined, quarantine_reason, wave,
         byzantine_wave, failures, settling) = obj
        return cls(
            index=index,
            state=state,
            requester_identity=requester_identity,
            worker_identities=list(worker_identities),
            answers=[list(a) if a is not None else None for a in answers],
            policy_descriptor=dict(policy_descriptor),
            description=description,
            budget=budget,
            answer_window=answer_window,
            instruction_window=instruction_window,
            rsa_bits=rsa_bits,
            audit=bool(audit),
            requester_mode=requester_mode,
            equivocators=list(equivocators),
            task_index=task_index,
            address=address,
            account_nonce=account_nonce,
            phase_blocks=dict(phase_blocks),
            phase_times=dict(phase_times),
            rewards=list(rewards),
            status=status,
            quarantined=bool(quarantined),
            quarantine_reason=quarantine_reason,
            wave=[PendingTxSnapshot.from_obj(p) for p in wave],
            byzantine_wave=[PendingTxSnapshot.from_obj(p) for p in byzantine_wave],
            failures=failures,
            settling=bool(settling),
        )


@dataclass
class EngineCheckpoint:
    """Everything a restarted engine needs beyond the chain itself."""

    round: int
    head_height: int
    head_hash: bytes
    nonce_reservations: Dict[bytes, int]
    janitor_key: int
    tasks: List[TaskSnapshot] = field(default_factory=list)
    #: Engine-level tallies that must survive a restart (e.g. the
    #: byzantine accept/reject gate counts from before the crash).
    counters: Dict[str, int] = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION

    def to_obj(self) -> list:
        return [
            self.round, self.head_height, self.head_hash,
            dict(self.nonce_reservations), self.janitor_key,
            [t.to_obj() for t in self.tasks],
            dict(self.counters),
        ]

    @classmethod
    def from_obj(cls, obj: Sequence, version: int) -> "EngineCheckpoint":
        (round_, head_height, head_hash, nonce_reservations, janitor_key,
         tasks, counters) = obj
        return cls(
            round=round_,
            head_height=head_height,
            head_hash=head_hash,
            nonce_reservations=dict(nonce_reservations),
            janitor_key=janitor_key,
            tasks=[TaskSnapshot.from_obj(t) for t in tasks],
            counters=dict(counters),
            version=version,
        )


def encode_checkpoint(checkpoint: EngineCheckpoint) -> bytes:
    """Serialize a checkpoint in the shared ``ZLCP`` frame."""
    try:
        return framed_encode(CHECKPOINT_MAGIC, checkpoint.version, checkpoint.to_obj())
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"unencodable checkpoint: {exc}") from exc


def decode_checkpoint(data: bytes) -> EngineCheckpoint:
    """Parse and validate a checkpoint; rejects any damage loudly."""
    if not isinstance(data, (bytes, bytearray)):
        raise CheckpointError("checkpoint must be bytes")
    try:
        obj = framed_decode(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, bytes(data))
        return EngineCheckpoint.from_obj(obj, CHECKPOINT_VERSION)
    except (ValueError, TypeError, IndexError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc


class CheckpointStore:
    """An in-memory ring of the ``keep`` most recent snapshots."""

    def __init__(self, keep: int = 4) -> None:
        if keep < 1:
            raise CheckpointError("a store must keep at least one snapshot")
        self.keep = keep
        self._snapshots: List[bytes] = []
        self.saves = 0

    def save(self, data: bytes) -> None:
        self._snapshots.append(bytes(data))
        self.saves += 1
        if len(self._snapshots) > self.keep:
            self._snapshots = self._snapshots[-self.keep:]

    def latest(self) -> Optional[bytes]:
        return self._snapshots[-1] if self._snapshots else None

    def __len__(self) -> int:
        return len(self._snapshots)


class FileCheckpointStore(CheckpointStore):
    """A store that also persists the latest snapshot to one file.

    Writes go to ``<path>.tmp`` first and are renamed into place, so a
    crash mid-write leaves the previous checkpoint intact (the decode
    checksum catches a torn ``.tmp`` that was never renamed).
    """

    def __init__(self, path, keep: int = 4) -> None:
        super().__init__(keep=keep)
        import pathlib

        self.path = pathlib.Path(path)

    def save(self, data: bytes) -> None:
        super().save(data)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_bytes(data)
        tmp.replace(self.path)

    def latest(self) -> Optional[bytes]:
        in_memory = super().latest()
        if in_memory is not None:
            return in_memory
        if self.path.exists():
            return self.path.read_bytes()
        return None
