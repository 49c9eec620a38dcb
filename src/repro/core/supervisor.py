"""Per-task supervision: retry, backoff, circuit breaking, quarantine.

The engine's scheduler steps N task state machines against one shared
chain; without isolation, one task whose transactions keep timing out
(or whose requester turns byzantine) either stalls the whole run or
crashes it.  :class:`TaskSupervisor` wraps each runner so that

- a step that raises a recoverable error is retried under a capped
  exponential backoff with *deterministic* seeded jitter (two runs
  from the same seeds retry on the same rounds — the engine's
  bit-determinism contract extends to its failure handling);
- each failure first gets one targeted ``recover()`` pass, where the
  runner reconciles its in-memory state against the chain (did the
  transaction land under a hash we forgot? is the contract already
  settled?) — this is what makes crash/restart replays converge
  instead of double-paying;
- a task that keeps failing trips a circuit breaker and is
  *quarantined*: it stops consuming scheduler steps on its normal
  phase machinery and is routed into the contract's timeout-refund
  path (Algorithm 1 lines 18-21), so every honest worker still ends
  paid or refunded exactly once while sibling tasks proceed
  unimpeded.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import observability as obs
from repro.crypto.hashing import sha256
from repro.errors import ChainError, ProtocolError
from repro.chain.txsender import TxAbandonedError

#: Errors a supervisor treats as recoverable task-local failures.
RECOVERABLE = (TxAbandonedError, ChainError, ProtocolError)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic seeded jitter.

    ``delay(attempt, seed)`` is the number of scheduler rounds to wait
    before re-stepping a failed task: ``base_delay`` doubling per
    attempt, capped at ``max_delay``, plus a jitter in
    ``[0, jitter]`` drawn from a hash of the seed and the attempt —
    reproducible, but de-synchronized across tasks so a whole wave of
    failures does not retry in lockstep.
    """

    max_attempts: int = 4
    base_delay: int = 1
    max_delay: int = 16
    jitter: int = 1

    def __post_init__(self) -> None:
        if self.max_attempts < 1 or self.base_delay < 1:
            raise ProtocolError("need at least one attempt and one round")
        if self.max_delay < self.base_delay or self.jitter < 0:
            raise ProtocolError("max_delay must cover base_delay; jitter >= 0")

    def delay(self, attempt: int, seed: bytes) -> int:
        attempt = max(1, attempt)
        base = min(self.max_delay, self.base_delay << (attempt - 1))
        if not self.jitter:
            return base
        draw = int.from_bytes(
            sha256(b"retry-jitter", seed, attempt.to_bytes(4, "big")), "big"
        )
        return base + draw % (self.jitter + 1)


class CircuitBreaker:
    """Counts consecutive failures; opens at ``threshold``.

    Success (a completed phase transition) closes it again, so a task
    that limps through transient faults never gets quarantined — only
    one that fails *persistently* at the same phase.
    """

    def __init__(self, threshold: int = 3) -> None:
        if threshold < 1:
            raise ProtocolError("breaker threshold must be >= 1")
        self.threshold = threshold
        self.failures = 0

    def record_failure(self) -> bool:
        """Register one failure; True when this one opens the breaker."""
        self.failures += 1
        return self.failures == self.threshold

    def record_success(self) -> None:
        self.failures = 0

    @property
    def open(self) -> bool:
        return self.failures >= self.threshold


class TaskSupervisor:
    """Supervises one task runner through the scheduler's rounds."""

    def __init__(
        self,
        runner,
        policy: RetryPolicy | None = None,
        breaker_threshold: int = 3,
    ) -> None:
        self.runner = runner
        self.policy = policy or RetryPolicy()
        self.breaker = CircuitBreaker(breaker_threshold)
        self._seed = sha256(b"supervisor", runner.index.to_bytes(4, "big"))
        self.next_round = 0
        self.retries = 0
        self.recoveries = 0
        self.last_error: str = ""

    # restored from checkpoints
    @property
    def failures(self) -> int:
        return self.breaker.failures

    def restore_failures(self, failures: int) -> None:
        self.breaker.failures = failures

    def step(self, round_index: int) -> None:
        runner = self.runner
        if runner.done:
            return
        if round_index < self.next_round:
            return  # backing off
        state_before = runner.state
        try:
            runner.step()
        except RECOVERABLE as exc:
            self._handle_failure(round_index, exc)
            return
        if runner.state != state_before:
            # A completed transition is the supervisor's success signal.
            self.breaker.record_success()

    def _handle_failure(self, round_index: int, exc: Exception) -> None:
        runner = self.runner
        self.last_error = str(exc)
        obs.count("engine.task_failures")
        # One targeted reconciliation pass before counting the failure:
        # the chain may already hold the outcome we were waiting for.
        try:
            with obs.span(
                "engine.recover", task=runner.index, state=runner.state
            ) as recover_span:
                recovered = runner.recover(exc)
                recover_span.set_attrs(recovered=bool(recovered))
        except RECOVERABLE as recover_exc:
            recovered = False
            self.last_error = str(recover_exc)
        if recovered:
            self.recoveries += 1
            self.breaker.record_success()
            obs.count("engine.recoveries")
            return
        opened = self.breaker.record_failure()
        self.retries += 1
        backoff = self.policy.delay(self.breaker.failures, self._seed)
        self.next_round = round_index + backoff
        obs.count("engine.task_retries")
        obs.observe(
            "engine.retry_backoff_rounds", backoff, buckets=(1, 2, 4, 8, 16, 32)
        )
        if opened or self.breaker.failures > self.policy.max_attempts:
            runner.quarantine(f"circuit breaker open: {self.last_error}")
