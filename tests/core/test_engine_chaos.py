"""Engine-scale chaos: network faults × byzantine actors × crashes.

PR 1's fault plans exercised the *chain* under adversity; these tests
compose them with byzantine protocol actors (stonewalling and
vanishing requesters, equivocating workers, empty cohorts) inside
multi-task engine runs.  The acceptance bar: healthy tasks complete,
every honest worker ends paid or refunded exactly once, and no healthy
task is ever stalled behind a quarantined sibling.
"""

from __future__ import annotations

import pytest

from repro.chain.faults import chaos_plan
from repro.core.engine import (
    ProtocolEngine,
    SimulatedEngineCrash,
    engine_system,
    make_chaos_specs,
    make_uniform_specs,
)
from repro.core.checkpoint import CheckpointStore

from repro.core.accounting import assert_exactly_once_payouts
from tests.chain.test_txsender import _DropFirstN

BYZANTINE = {"stonewall": [1], "vanish": [2], "equivocate": [3], "empty": [4]}


def _chaos_engine(seed: int, num_tasks: int = 8, **engine_kwargs):
    system = engine_system(
        num_tasks, 3,
        seed=b"engine-chaos-%d" % seed,
        fault_plan=chaos_plan(seed, horizon=80),
    )
    specs = make_chaos_specs(
        system, num_tasks, 3, seed=seed, instruction_window=8, **BYZANTINE
    )
    engine = ProtocolEngine(system, specs, max_rounds=1024, **engine_kwargs)
    return system, specs, engine


def _assert_chaos_invariants(system, specs, report) -> None:
    by_status = {o.index: o.status for o in report.outcomes}
    # Byzantine requesters: quarantined, budget even-split over the
    # submitters through the contract's timeout path.
    for index in BYZANTINE["stonewall"] + BYZANTINE["vanish"]:
        assert by_status[index] == "defaulted", by_status
        assert report.outcomes[index].quarantined
        assert report.outcomes[index].rewards == [400, 400, 400]
    # Zero-answer cohort: aborted with a full refund, no quarantine.
    for index in BYZANTINE["empty"]:
        assert by_status[index] == "aborted"
        assert report.outcomes[index].rewards == []
    # Everyone else (including the equivocation target) completes.
    unhealthy = {i for ids in BYZANTINE.values() for i in ids}
    for outcome in report.outcomes:
        if outcome.index not in unhealthy:
            assert outcome.status == "completed", outcome
            assert not outcome.quarantined
    for index in BYZANTINE["equivocate"]:
        assert by_status[index] == "completed"
    # The Link check must have rejected every equivocating sybil.
    assert report.resilience["byzantine_accepted"] == 0
    assert report.resilience["byzantine_rejections"] >= len(
        BYZANTINE["equivocate"]
    )
    assert_exactly_once_payouts(system, specs, report.outcomes)


def test_faults_and_byzantine_mix_settles_every_task() -> None:
    system, specs, engine = _chaos_engine(seed=5)
    report = engine.run()
    _assert_chaos_invariants(system, specs, report)
    assert report.resilience["quarantined"] == 2


def test_chaos_runs_are_deterministic() -> None:
    digests = set()
    for _ in range(2):
        _, _, engine = _chaos_engine(seed=11)
        digests.add(engine.run().transcript_digest())
    assert len(digests) == 1


def test_crash_mid_chaos_still_settles_exactly_once() -> None:
    """An engine death on top of faults + byzantine actors converges."""
    system, specs, engine = _chaos_engine(seed=5)
    store = CheckpointStore()
    engine.checkpoint_store = store
    engine.checkpoint_every = 5

    def crash_hook(eng, rounds):
        if rounds == 12:
            raise SimulatedEngineCrash("mid-chaos death")

    engine.crash_hook = crash_hook
    with pytest.raises(SimulatedEngineCrash):
        engine.run()

    resumed = ProtocolEngine.resume(system, store.latest(), max_rounds=1024)
    report = resumed.run()
    _assert_chaos_invariants(system, specs, report)


def test_wave_starved_past_its_attempts_is_rearmed() -> None:
    """The task's funding broadcast and its three retries are all
    dropped, so the transaction sender abandons it; the supervisor's
    recovery re-sends it on a fresh lease and the task still pays
    exactly once."""
    system = engine_system(1, 2, seed=b"engine-rearm")
    specs = make_uniform_specs(system, 1, 2)
    system.testnet.network.adversary = _DropFirstN(4)
    report = ProtocolEngine(system, specs, max_rounds=1024).run()
    assert report.outcomes[0].status == "completed"
    assert report.resilience["recoveries"] == 1
    assert_exactly_once_payouts(system, specs, report.outcomes)


def test_backpressure_keeps_oversized_cohorts_alive() -> None:
    """A bounded mempool + admission gate degrades gracefully."""
    system = engine_system(
        12, 3, seed=b"backpressure", mempool_capacity=20
    )
    specs = make_chaos_specs(system, 12, 3, seed=9)
    engine = ProtocolEngine(system, specs, pause_above=4, max_rounds=1024)
    report = engine.run()
    assert all(o.status == "completed" for o in report.outcomes)
    assert_exactly_once_payouts(system, specs, report.outcomes)
    # The gate actually engaged: later tasks waited for capacity.
    assert report.resilience["pauses"] >= 1
    gated = engine.node.mempool
    assert gated.admission_rejections == 0  # nothing was ever dropped


def test_backpressure_pauses_are_deterministic() -> None:
    runs = set()
    for _ in range(2):
        system = engine_system(
            10, 3, seed=b"backpressure-det", mempool_capacity=18
        )
        specs = make_chaos_specs(system, 10, 3, seed=13)
        engine = ProtocolEngine(system, specs, pause_above=5, max_rounds=1024)
        report = engine.run()
        runs.add((report.transcript_digest(), report.resilience["pauses"]))
    assert len(runs) == 1
