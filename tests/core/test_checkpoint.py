"""Checkpoint codec and engine crash/restart convergence.

The acceptance sweep crashes one engine per scheduler round across a
16-task cohort — every Algorithm-1 phase boundary (funding, publishing,
worker funding, submission, collection, proving/rewarding) gets a kill
— and requires the resumed engine to converge to the *same* per-task
outcomes as an uninterrupted reference run, with every payment made
exactly once.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import CheckpointError
from repro.core.checkpoint import (
    CheckpointStore,
    EngineCheckpoint,
    FileCheckpointStore,
    PendingTxSnapshot,
    TaskSnapshot,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.core.engine import (
    ProtocolEngine,
    SimulatedEngineCrash,
    engine_system,
    make_uniform_specs,
)

from repro.core.accounting import assert_exactly_once_payouts

SWEEP_TASKS = 16
SWEEP_SEED = 77


def _sample_checkpoint() -> EngineCheckpoint:
    wave = [
        PendingTxSnapshot(
            nonce=0, gas_price=1, gas_limit=21_000, to=b"\x11" * 20,
            value=5, data=b"", chain_id=1, private_key=1234,
            sender=b"\x22" * 20, tx_hashes=[b"\xaa" * 32],
            broadcast_height=3, attempts=2,
        )
    ]
    task = TaskSnapshot(
        index=0, state="submitting", requester_identity="requester-0",
        worker_identities=["worker-0-0", "worker-0-1"],
        answers=[[1], None], policy_descriptor={"name": "majority-vote",
        "num_choices": 4}, description="t", budget=1_200, answer_window=32,
        instruction_window=32, rsa_bits=1024, audit=False,
        requester_mode="honest", equivocators=[], task_index=0,
        address=b"\x33" * 20, account_nonce=1,
        phase_blocks={"funding": 1}, phase_times={"funding": 15},
        rewards=[], status="", quarantined=False, quarantine_reason="",
        wave=wave, byzantine_wave=[], failures=1,
    )
    return EngineCheckpoint(
        round=4, head_height=5, head_hash=b"\x44" * 32,
        nonce_reservations={b"\x22" * 20: 1}, janitor_key=0, tasks=[task],
    )


def test_checkpoint_roundtrip_preserves_everything() -> None:
    checkpoint = _sample_checkpoint()
    decoded = decode_checkpoint(encode_checkpoint(checkpoint))
    assert decoded == checkpoint
    pending = decoded.tasks[0].wave[0].to_pending()
    assert pending.transaction.nonce == 0
    assert pending.keypair is not None
    assert pending.attempts == 2


def test_checkpoint_wire_bytes_are_pinned() -> None:
    """The ZLCP frame is the shared serialization envelope, byte for byte
    the hand-rolled format it replaced: old snapshots still decode."""
    import hashlib

    wire = encode_checkpoint(_sample_checkpoint())
    assert hashlib.sha256(wire).hexdigest() == (
        "92466b7ed7e197de4072b20d397d4b91f3071fc2945d410296154f7244e94740"
    )


def test_checkpoint_rejects_truncation_everywhere() -> None:
    wire = encode_checkpoint(_sample_checkpoint())
    for cut in (0, 1, 4, len(wire) // 2, len(wire) - 1):
        with pytest.raises(CheckpointError):
            decode_checkpoint(wire[:cut])


def test_checkpoint_rejects_corruption_and_bad_version() -> None:
    wire = encode_checkpoint(_sample_checkpoint())
    flipped = bytearray(wire)
    flipped[len(wire) // 2] ^= 0x01
    with pytest.raises(CheckpointError):
        decode_checkpoint(bytes(flipped))
    with pytest.raises(CheckpointError):
        decode_checkpoint(b"NOPE" + wire[4:])
    # A future version must be refused, not misparsed — re-checksum a
    # body whose version byte was bumped.
    from repro.crypto.hashing import sha256

    body = bytearray(wire[:-32])
    body[4] = 99
    with pytest.raises(CheckpointError):
        decode_checkpoint(bytes(body) + sha256(bytes(body)))


def test_checkpoint_store_keeps_a_bounded_ring() -> None:
    store = CheckpointStore(keep=2)
    for i in range(5):
        store.save(bytes([i]))
    assert store.saves == 5
    assert len(store) == 2
    assert store.latest() == bytes([4])


def test_file_checkpoint_store_survives_process_death(tmp_path) -> None:
    path = tmp_path / "engine.ckpt"
    store = FileCheckpointStore(path)
    wire = encode_checkpoint(_sample_checkpoint())
    store.save(wire)
    # A fresh store (a restarted process) reads the file back.
    reborn = FileCheckpointStore(path)
    assert reborn.latest() == wire
    assert decode_checkpoint(reborn.latest()) == _sample_checkpoint()


# ----- the crash/restart acceptance sweep -------------------------------------


def _fresh(num_tasks: int = SWEEP_TASKS):
    system = engine_system(num_tasks, 3, seed=b"crash-sweep")
    specs = make_uniform_specs(system, num_tasks, 3, seed=SWEEP_SEED)
    return system, specs


@pytest.fixture(scope="module")
def reference_lines():
    system, specs = _fresh()
    report = ProtocolEngine(system, specs).run()
    assert all(o.status == "completed" for o in report.outcomes)
    return report.outcome_lines()


def test_crash_restart_converges_at_every_phase_boundary(
    reference_lines,
) -> None:
    phases_crashed_in = set()
    for crash_round in range(1, 7):
        system, specs = _fresh()
        store = CheckpointStore()

        def crash_hook(engine, rounds, at=crash_round):
            if rounds == at:
                raise SimulatedEngineCrash(f"killed at round {at}")

        engine = ProtocolEngine(
            system, specs,
            checkpoint_store=store, checkpoint_every=1, crash_hook=crash_hook,
        )
        with pytest.raises(SimulatedEngineCrash):
            engine.run()

        latest = store.latest()
        assert latest is not None
        checkpoint = decode_checkpoint(latest)
        phases_crashed_in.update(t.state for t in checkpoint.tasks)

        resumed = ProtocolEngine.resume(system, latest)
        report = resumed.run()
        assert report.outcome_lines() == reference_lines, (
            f"crash at round {crash_round} diverged"
        )
        assert_exactly_once_payouts(system, specs, report.outcomes)

    # The sweep must genuinely exercise distinct phase boundaries.
    assert len(phases_crashed_in) >= 6, phases_crashed_in


def test_resume_rejects_checkpoint_from_the_future() -> None:
    system, specs = _fresh(2)
    store = CheckpointStore()
    engine = ProtocolEngine(
        system, specs, checkpoint_store=store, checkpoint_every=1
    )
    engine.run()
    checkpoint = decode_checkpoint(store.latest())
    checkpoint.head_height = system.testnet.height + 100
    fresh_system, _ = _fresh(2)
    with pytest.raises(CheckpointError):
        ProtocolEngine.resume(fresh_system, encode_checkpoint(checkpoint))


@pytest.mark.parametrize("phase", ["proving", "bogus-phase"])
def test_resume_rejects_undeclared_phases(phase) -> None:
    """A checkpoint may only carry the phases ``snapshot()`` writes.

    ``proving`` is recorded as ``collecting`` and an unknown string is
    no phase at all; resuming either would leave a runner that no
    round ever steps, so the engine would mine ``max_rounds`` blocks
    and stall.
    """
    system, specs = _fresh(2)
    store = CheckpointStore()

    def crash_hook(engine, rounds):
        if rounds == 1:
            raise SimulatedEngineCrash("killed at round 1")

    engine = ProtocolEngine(
        system, specs,
        checkpoint_store=store, checkpoint_every=1, crash_hook=crash_hook,
    )
    with pytest.raises(SimulatedEngineCrash):
        engine.run()
    checkpoint = decode_checkpoint(store.latest())
    checkpoint.tasks[1].state = phase
    with pytest.raises(CheckpointError, match=f"task 1 .*'{phase}'"):
        ProtocolEngine.resume(system, encode_checkpoint(checkpoint))


def test_double_resume_is_idempotent(reference_lines) -> None:
    """Resuming, crashing again, and resuming again still converges."""
    system, specs = _fresh()
    store = CheckpointStore()

    def first_crash(engine, rounds):
        if rounds == 2:
            raise SimulatedEngineCrash("first death")

    engine = ProtocolEngine(
        system, specs,
        checkpoint_store=store, checkpoint_every=1, crash_hook=first_crash,
    )
    with pytest.raises(SimulatedEngineCrash):
        engine.run()

    def second_crash(engine, rounds):
        if rounds == 2:
            raise SimulatedEngineCrash("second death")

    resumed = ProtocolEngine.resume(
        system, store.latest(),
        checkpoint_store=store, checkpoint_every=1, crash_hook=second_crash,
    )
    with pytest.raises(SimulatedEngineCrash):
        resumed.run()

    final = ProtocolEngine.resume(system, store.latest())
    report = final.run()
    assert report.outcome_lines() == reference_lines
    assert_exactly_once_payouts(system, specs, report.outcomes)
