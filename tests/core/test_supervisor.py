"""Per-task supervision: backoff, circuit breaking, quarantine isolation."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.core.engine import (
    ProtocolEngine,
    engine_system,
    make_chaos_specs,
)
from repro.core.supervisor import CircuitBreaker, RetryPolicy, TaskSupervisor

from repro.core.accounting import assert_exactly_once_payouts


# ----- RetryPolicy ------------------------------------------------------------


def test_retry_delay_is_capped_exponential() -> None:
    policy = RetryPolicy(base_delay=2, max_delay=16, jitter=0)
    delays = [policy.delay(attempt, b"seed") for attempt in range(1, 8)]
    assert delays == [2, 4, 8, 16, 16, 16, 16]


def test_retry_jitter_is_deterministic_and_bounded() -> None:
    policy = RetryPolicy(base_delay=1, max_delay=8, jitter=3)
    for attempt in range(1, 10):
        first = policy.delay(attempt, b"task-7")
        assert first == policy.delay(attempt, b"task-7")  # replayable
        base = min(8, 1 << (attempt - 1))
        assert base <= first <= base + 3


def test_retry_jitter_desynchronizes_tasks() -> None:
    policy = RetryPolicy(base_delay=1, max_delay=1, jitter=7)
    delays = {policy.delay(1, bytes([i])) for i in range(32)}
    assert len(delays) > 1  # not a lockstep wave


def test_retry_policy_rejects_bad_shapes() -> None:
    with pytest.raises(ProtocolError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ProtocolError):
        RetryPolicy(base_delay=4, max_delay=2)
    with pytest.raises(ProtocolError):
        RetryPolicy(jitter=-1)


# ----- CircuitBreaker ---------------------------------------------------------


def test_breaker_opens_at_threshold_only() -> None:
    breaker = CircuitBreaker(threshold=3)
    assert breaker.record_failure() is False
    assert breaker.record_failure() is False
    assert breaker.record_failure() is True
    assert breaker.open
    assert breaker.record_failure() is False  # already open


def test_breaker_success_closes_and_resets() -> None:
    breaker = CircuitBreaker(threshold=2)
    breaker.record_failure()
    breaker.record_success()
    assert breaker.failures == 0 and not breaker.open
    breaker.record_failure()
    assert not breaker.open  # the count restarted


# ----- TaskSupervisor over a scripted runner ----------------------------------


class _ScriptedRunner:
    """A fake runner whose steps fail until told otherwise."""

    def __init__(self, failures: int, recover_works: bool = False) -> None:
        self.index = 0
        self.state = "working"
        self.remaining_failures = failures
        self.recover_works = recover_works
        self.steps = 0
        self.quarantined_reason = None

    @property
    def done(self) -> bool:
        return self.state == "done"

    def step(self) -> None:
        self.steps += 1
        if self.remaining_failures > 0:
            self.remaining_failures -= 1
            raise ProtocolError("scripted failure")
        self.state = "done"

    def recover(self, exc) -> bool:
        return self.recover_works

    def quarantine(self, reason: str) -> None:
        self.quarantined_reason = reason
        self.state = "done"


def _drive(supervisor: TaskSupervisor, rounds: int) -> None:
    for round_index in range(rounds):
        supervisor.step(round_index)


def test_supervisor_backs_off_between_retries() -> None:
    runner = _ScriptedRunner(failures=2)
    supervisor = TaskSupervisor(
        runner, policy=RetryPolicy(base_delay=2, max_delay=8, jitter=0),
        breaker_threshold=5,
    )
    _drive(supervisor, 12)
    assert runner.done and runner.quarantined_reason is None
    # 2 failures + 1 success, separated by the 2- and 4-round backoffs.
    assert runner.steps == 3
    assert supervisor.retries == 2


def test_supervisor_recovery_resets_the_breaker() -> None:
    runner = _ScriptedRunner(failures=10, recover_works=True)
    supervisor = TaskSupervisor(runner, breaker_threshold=2)
    _drive(supervisor, 10)
    # Every failure recovers, so the breaker never opens.
    assert runner.quarantined_reason is None
    assert supervisor.recoveries == 10
    assert supervisor.retries == 0


def test_supervisor_quarantines_on_persistent_failure() -> None:
    runner = _ScriptedRunner(failures=100)
    supervisor = TaskSupervisor(
        runner, policy=RetryPolicy(base_delay=1, max_delay=1, jitter=0),
        breaker_threshold=3,
    )
    _drive(supervisor, 10)
    assert runner.quarantined_reason is not None
    assert "scripted failure" in runner.quarantined_reason
    assert supervisor.retries == 3  # no more steps after quarantine


def test_supervisor_restore_failures_reopens_breaker() -> None:
    runner = _ScriptedRunner(failures=0)
    supervisor = TaskSupervisor(runner, breaker_threshold=3)
    supervisor.restore_failures(3)
    assert supervisor.breaker.open
    assert supervisor.failures == 3


# ----- quarantine isolation at engine scale -----------------------------------


def test_quarantined_task_never_stalls_siblings() -> None:
    system = engine_system(3, 3, seed=b"quarantine-isolation")
    specs = make_chaos_specs(
        system, 3, 3, seed=21, stonewall=[0], instruction_window=8
    )
    engine = ProtocolEngine(system, specs)
    report = engine.run()

    byzantine, healthy = report.outcomes[0], report.outcomes[1:]
    assert byzantine.quarantined
    assert byzantine.status == "defaulted"
    # Even split of the stonewalled budget over its three submitters.
    assert byzantine.rewards == [400, 400, 400]
    for outcome in healthy:
        assert not outcome.quarantined
        assert outcome.status == "completed"
        # Healthy tasks settle on the normal schedule: well before the
        # byzantine sibling's instruction window even expires.
        assert outcome.phase_blocks["rewarding"] < byzantine.phase_blocks["settled"]
    assert report.resilience["quarantined"] == 1
    assert_exactly_once_payouts(system, specs, report.outcomes)


def test_zero_answer_task_auto_settles_into_abort() -> None:
    system = engine_system(2, 3, seed=b"zero-answer-abort")
    specs = make_chaos_specs(
        system, 2, 3, seed=4, empty=[0], answer_window=6
    )
    engine = ProtocolEngine(system, specs)
    report = engine.run()

    aborted, healthy = report.outcomes
    # The zero-answer task settled through finalize_timeout WITHOUT
    # tripping the breaker: it is routed, not quarantined.
    assert aborted.status == "aborted"
    assert not aborted.quarantined
    assert aborted.rewards == []
    # Full refund: the whole budget came back to the requester's
    # task account, and the contract kept nothing.
    assert system.node.balance_of(aborted.address) == 0
    assert healthy.status == "completed"
    assert_exactly_once_payouts(system, specs, report.outcomes)
