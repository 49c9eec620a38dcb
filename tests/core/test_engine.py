"""The concurrent engine: determinism, batching, and serial parity.

The scheduler's contract is bit-determinism: two runs from the same
seeds must produce identical block/receipt/reward transcripts, because
everything that orders work — runner stepping, mempool arrival, nonce
reservation, the proving queue — iterates in insertion order and no
wall clock ever reaches consensus data (block timestamps come from the
SimClock).
"""

from __future__ import annotations

import pytest

from repro.core.engine import (
    HEALTHY_PHASES,
    EngineReport,
    ProtocolEngine,
    _TaskRunner,
    engine_system,
    make_chaos_specs,
    make_uniform_specs,
    run_serial,
)

N_TASKS = 8
WORKERS = 3


def _engine_run(system_seed: bytes, spec_seed: int) -> EngineReport:
    system = engine_system(N_TASKS, WORKERS, backend_name="mock", seed=system_seed)
    specs = make_uniform_specs(system, N_TASKS, WORKERS, seed=spec_seed)
    return ProtocolEngine(system, specs).run()


def test_same_seed_runs_are_bit_identical() -> None:
    """Two fresh N=8 runs from identical seeds: one transcript."""
    first = _engine_run(b"determinism", 11)
    second = _engine_run(b"determinism", 11)
    assert first.transcript() == second.transcript()
    assert first.transcript_digest() == second.transcript_digest()
    # The transcript covers blocks, txs, rewards and phase heights; spot
    # check the pieces anyway so a transcript() regression can't hide one.
    assert first.blocks == second.blocks
    assert [o.rewards for o in first.outcomes] == [o.rewards for o in second.outcomes]
    assert [o.phase_blocks for o in first.outcomes] == [
        o.phase_blocks for o in second.outcomes
    ]
    assert first.transactions == second.transactions


def test_different_seeds_change_the_transcript() -> None:
    """Different system seed (keys, registry) → different transcript,
    and different spec seed (answers) → different transcript."""
    base = _engine_run(b"determinism", 11)
    other_system = _engine_run(b"determinism-2", 11)
    other_specs = _engine_run(b"determinism", 12)
    assert base.transcript_digest() != other_system.transcript_digest()
    assert base.transcript_digest() != other_specs.transcript_digest()


def test_engine_matches_serial_rewards_and_batches_blocks() -> None:
    """Same specs through both drivers: identical reward vectors, and
    the engine amortizes far fewer blocks than the serial baseline."""
    system = engine_system(4, WORKERS, backend_name="mock", seed=b"parity")
    specs = make_uniform_specs(system, 4, WORKERS, seed=3)
    serial = run_serial(system, specs)

    system = engine_system(4, WORKERS, backend_name="mock", seed=b"parity")
    specs = make_uniform_specs(system, 4, WORKERS, seed=3)
    engine = ProtocolEngine(system, specs).run()

    assert [o.rewards for o in engine.outcomes] == [
        o.rewards for o in serial.outcomes
    ]
    assert engine.blocks_mined * 4 <= serial.blocks_mined
    # Every task funded, published, collected, proved and rewarded.
    for outcome in engine.outcomes:
        assert list(outcome.phase_blocks) == list(HEALTHY_PHASES)


def test_absent_workers_close_at_deadline() -> None:
    """⊥ answers: the task closes on the answer window, not on n."""
    system = engine_system(2, 3, backend_name="mock", seed=b"absent")
    specs = make_uniform_specs(
        system, 2, 3, seed=5, absent_probability=0.5
    )
    report = ProtocolEngine(system, specs).run()
    assert all(o.rewards for o in report.outcomes)
    absent = sum(
        1 for spec in specs for answer in spec.answers if answer is None
    )
    present = sum(
        1 for spec in specs for answer in spec.answers if answer is not None
    )
    assert absent >= 1, "seed must produce at least one absent worker"
    assert sum(len(o.rewards) for o in report.outcomes) == present


# ----- transcripts pinned across commits --------------------------------------
#
# The same-seed tests above compare two runs inside one process, so a
# change that moves every transcript the same way still passes them.
# These digests are literal: an engine refactor must reproduce them
# byte for byte, under any PYTHONHASHSEED.


def _pinned_digest(system, specs, **engine_kwargs) -> str:
    return ProtocolEngine(system, specs, **engine_kwargs).run().transcript_digest().hex()


def test_uniform_transcript_is_pinned() -> None:
    system = engine_system(4, 3, seed=b"pin")
    specs = make_uniform_specs(system, 4, 3, seed=5)
    assert _pinned_digest(system, specs) == (
        "7427c4be5ebb008d9e0cbb9cf9bc61b4fcfd255c134590155849d6ba97f55e3a"
    )


def test_chaos_transcript_is_pinned() -> None:
    system = engine_system(4, 3, seed=b"pin-chaos")
    specs = make_chaos_specs(
        system, 4, 3, seed=9, stonewall=[1], empty=[2], equivocate=[3],
        instruction_window=8,
    )
    assert _pinned_digest(system, specs, max_rounds=1024) == (
        "5969ef5c5e6a7a7c24b60086bdff56810393f549516f793cb2dcf4344d5f018f"
    )


def test_sharded_transcript_is_pinned() -> None:
    system = engine_system(4, 3, seed=b"pin-shard", shards=2)
    specs = make_uniform_specs(system, 4, 3, seed=5)
    assert _pinned_digest(system, specs) == (
        "19c8640577cb77c156792fdd8abf9b4976ddd1bace83884b4d9d8f8a35bfdc1b"
    )


def test_step_rejects_an_undeclared_phase() -> None:
    system = engine_system(1, 1, seed=b"undeclared-phase")
    specs = make_uniform_specs(system, 1, 1, rsa_bits=512)
    runner = _TaskRunner(specs[0], 0, ProtocolEngine(system, specs))
    runner.state = "bogus-phase"
    with pytest.raises(RuntimeError, match="bogus-phase"):
        runner.step()
