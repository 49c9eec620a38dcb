"""The concurrent multi-task protocol engine, with resilience built in.

The serial clients in :mod:`repro.core.requester` / ``worker`` drive
one Algorithm-1 instance at a time, mining roughly one block per
transaction.  Real deployments overlap: many requesters run
TaskPublish / AnswerCollection / Reward concurrently against the same
chain, and throughput comes from amortising each block over a whole
wave of transactions.  :class:`ProtocolEngine` reproduces that shape
deterministically:

- a cooperative round-based scheduler steps every task's state machine
  in a fixed order, so two runs from the same seeds produce
  bit-identical block/receipt/reward transcripts;
- all in-flight transactions of a round (funding waves, deployments,
  submissions, reward instructions) coexist in the mempool — per-sender
  nonces come from the shared
  :class:`~repro.chain.txsender.NonceManager` — and land batched into
  the next block;
- the whole cohort registers at the RA under ONE on-chain commitment
  update (:meth:`ZebraLancerSystem.register_participants`);
- reward proofs from every task that finished collecting in the same
  round are proved together through the backend's ``prove_many`` (the
  mock backend fans the batch out over the ``fanout_map`` fork pool;
  Groth16 proves it in turn).

On top of the scheduler sits the resilience layer:

- every runner is wrapped in a
  :class:`~repro.core.supervisor.TaskSupervisor` — recoverable
  failures get one chain-reconciliation pass (:meth:`_TaskRunner
  .recover`), then capped-exponential retries, and a circuit breaker
  that *quarantines* a persistently failing task into the contract's
  timeout-refund path (Algorithm 1 lines 18-21) without stalling its
  siblings;
- the engine can :meth:`~ProtocolEngine.checkpoint` its entire
  client-side state (per-task state machines, in-flight transactions,
  nonce reservations) into a versioned snapshot; a crashed engine
  :meth:`~ProtocolEngine.resume`\\ d from the latest checkpoint
  re-polls receipts and re-derives every secret, converging to the
  same outcomes with exactly-once payment;
- an admission gate (:meth:`~ProtocolEngine.admitting`) pauses new
  broadcast waves while the mempool sits above a high watermark, so
  oversized cohorts degrade into longer runs instead of dropped
  transactions.

The engine never consults the wall clock: block timestamps come from
the :class:`~repro.chain.clock.SimClock` and every data structure is
iterated in insertion order, which is what the determinism tests pin.
Even retry timing is deterministic (seeded-jitter backoff), so chaos
runs replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import os
import random
import time

from repro import observability as obs
from repro.crypto import ecdsa
from repro.crypto.hashing import sha256
from repro.errors import ChainError, CheckpointError, ProtocolError
from repro.chain.transaction import Transaction, encode_call
from repro.chain.txsender import PendingTx, TxAbandonedError
from repro.core.checkpoint import (
    CheckpointStore,
    EngineCheckpoint,
    PendingTxSnapshot,
    TaskSnapshot,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.core.anonymity import derive_one_task_account
from repro.core.encryption import TaskKeyPair
from repro.core.policy import (
    MajorityVotePolicy,
    RewardPolicy,
    policy_from_descriptor,
)
from repro.core.protocol import (
    DEFAULT_GAS_ALLOWANCE,
    DEFAULT_GAS_LIMIT,
    DEFAULT_GAS_PRICE,
    TaskHandle,
    ZebraLancerSystem,
)
from repro.core.requester import PreparedPublish, Requester, RewardJob
from repro.core.simulation import sample_answer
from repro.core.supervisor import RECOVERABLE, TaskSupervisor
from repro.core.worker import PreparedSubmission, Worker
from repro.zksnark.backend import fanout_map

#: Task state-machine phase names; :data:`PHASES` declares their order
#: and how the scheduler treats each.
FUNDING = "funding"
PUBLISHING = "publishing"
FUNDING_WORKERS = "funding-workers"
SUBMITTING = "submitting"
COLLECTING = "collecting"
PROVING = "proving"
REWARDING = "rewarding"
SETTLING = "settling"
QUARANTINED = "quarantined"
DONE = "done"
#: The ``phase_blocks`` key recording when a task settled from the chain.
SETTLED = "settled"

#: Terminal task statuses (chain-derived where a contract exists).
STATUS_COMPLETED = "completed"
STATUS_DEFAULTED = "defaulted"
STATUS_ABORTED = "aborted"
STATUS_FAILED = "failed"
SETTLED_PHASES = (STATUS_COMPLETED, STATUS_DEFAULTED, STATUS_ABORTED)

#: Requester behaviour modes a :class:`TaskSpec` can model.
REQUESTER_HONEST = "honest"
REQUESTER_STONEWALL = "stonewall"  # collects answers, never instructs
REQUESTER_VANISH = "vanish"  # disappears right after publishing


class EngineStallError(ProtocolError):
    """The scheduler ran out of rounds with tasks still in flight."""


class SimulatedEngineCrash(RuntimeError):
    """Raised by a crash hook to kill the engine mid-run.

    Deliberately NOT a :class:`~repro.errors.ProtocolError`: the
    supervisors must never catch a simulated process death — it has to
    unwind the whole scheduler, exactly like a real crash would.
    """


class _KeygenJob:
    """Picklable fork-pool worker: one (seed, bits) → RSA task keypair."""

    def __call__(self, request) -> TaskKeyPair:
        seed, bits = request
        return TaskKeyPair.generate(bits=bits, rng=random.Random(seed))


@dataclass
class TaskSpec:
    """One complete task the engine will drive end to end.

    ``answers`` holds one entry per worker; ``None`` models the
    paper's ⊥ (an absent worker), in which case the task closes at its
    answer deadline instead of on the n-th submission.  A task whose
    answers are ALL absent is legal: the engine routes it through the
    contract's ``finalize_timeout`` abort for a full refund.

    ``requester_mode`` selects a byzantine requester ("stonewall"
    collects answers but never instructs; "vanish" disappears right
    after publishing) — either way the supervisor quarantines the task
    and the timeout path even-splits the budget over the submitters.
    ``equivocators`` lists worker indices that additionally submit a
    *conflicting* answer from a sybil address; the contract's Link
    check must reject those while the honest sibling lands.
    """

    requester: Requester
    workers: List[Worker]
    answers: List[Optional[Sequence[int]]]
    policy: RewardPolicy
    description: str = "task"
    budget: int = 1_000
    answer_window: int = 32
    instruction_window: int = 32
    rsa_bits: int = 1024
    audit: bool = False
    requester_mode: str = REQUESTER_HONEST
    equivocators: List[int] = field(default_factory=list)
    #: Sharded chains only: pin this task's contract to the shard of
    #: another address (a marketplace board static-reads its listed
    #: tasks, so they must share its shard).  Ignored off shards.
    colocate: Optional[bytes] = None

    def __post_init__(self) -> None:
        if len(self.workers) != len(self.answers):
            raise ProtocolError(
                f"{len(self.workers)} workers but {len(self.answers)} answers"
            )
        modes = (REQUESTER_HONEST, REQUESTER_STONEWALL, REQUESTER_VANISH)
        if self.requester_mode not in modes:
            raise ProtocolError(f"unknown requester mode {self.requester_mode!r}")
        for index in self.equivocators:
            if not 0 <= index < len(self.workers):
                raise ProtocolError(f"equivocator index {index} out of range")
            if self.answers[index] is None:
                raise ProtocolError(
                    "an equivocator needs a present honest answer to conflict with"
                )


@dataclass
class TaskOutcome:
    """What one task did, in chain-derived (deterministic) terms."""

    index: int
    requester: str
    address: bytes
    rewards: List[int] = field(default_factory=list)
    audit_passed: Optional[bool] = None
    #: Terminal status: completed / defaulted / aborted / failed.
    status: str = ""
    #: True when the circuit breaker routed this task to the timeout path.
    quarantined: bool = False
    #: Phase-completion block heights, in transition order.
    phase_blocks: Dict[str, int] = field(default_factory=dict)
    #: Phase-completion simulated timestamps (SimClock seconds).
    phase_times: Dict[str, int] = field(default_factory=dict)


@dataclass
class EngineReport:
    """The result of one engine run.

    ``transcript()`` (and its digest) covers everything consensus
    observed — block hashes, included transactions, receipts statuses,
    rewards — which is exactly what two same-seed runs must agree on.
    ``outcome_lines()`` is the weaker, crash-tolerant comparison: two
    runs that crashed and recovered differently still agree on each
    task's (address, status, rewards), even though block heights moved.
    """

    outcomes: List[TaskOutcome]
    rounds: int
    blocks_mined: int
    start_height: int
    end_height: int
    transactions: int
    wall_seconds: float
    sim_seconds: int
    blocks: List[Tuple[int, str, Tuple[str, ...]]] = field(default_factory=list)
    #: Resilience counters: retries, recoveries, quarantined, pauses, …
    resilience: Dict[str, int] = field(default_factory=dict)

    @property
    def tasks(self) -> int:
        return len(self.outcomes)

    @property
    def tasks_per_block(self) -> float:
        return self.tasks / self.blocks_mined if self.blocks_mined else 0.0

    def transcript(self) -> List[str]:
        lines = [
            f"blocks={self.blocks_mined} txs={self.transactions}",
        ]
        for number, block_hash, tx_hashes in self.blocks:
            lines.append(f"block {number} {block_hash} [{','.join(tx_hashes)}]")
        for outcome in self.outcomes:
            phases = " ".join(
                f"{phase}@{height}" for phase, height in outcome.phase_blocks.items()
            )
            lines.append(
                f"task {outcome.index} {outcome.address.hex()} "
                f"rewards={outcome.rewards} audit={outcome.audit_passed} "
                f"status={outcome.status} {phases}"
            )
        return lines

    def transcript_digest(self) -> bytes:
        return sha256("\n".join(self.transcript()).encode())

    def outcome_lines(self) -> List[str]:
        """Crash-invariant per-task results (address, status, rewards)."""
        return [
            f"task {o.index} {o.address.hex()} status={o.status} "
            f"rewards={o.rewards}"
            for o in self.outcomes
        ]


class _TaskRunner:
    """The per-task state machine the scheduler steps each round.

    Every transition only *broadcasts* transactions (never mines); the
    engine owns the block cadence, so a whole wave of runners shares
    each block.  A runner can also be rebuilt from a
    :class:`~repro.core.checkpoint.TaskSnapshot`: the recorded
    transaction hashes are re-polled against the surviving chain, so a
    broadcast that landed before the crash is adopted instead of
    re-sent (exactly-once under restart).
    """

    def __init__(
        self,
        spec: TaskSpec,
        index: int,
        engine: "ProtocolEngine",
        encryption_keys: Optional[TaskKeyPair] = None,
        snapshot: Optional[TaskSnapshot] = None,
    ) -> None:
        self.spec = spec
        self.index = index
        self.engine = engine
        self.state = FUNDING
        self.handle: Optional[TaskHandle] = None
        self.outcome = TaskOutcome(
            index=index, requester=spec.requester.identity, address=b""
        )
        self.reward_job: Optional[RewardJob] = None
        self.quarantine_reason = ""
        #: In-flight subset (``service`` drops confirmed entries) …
        self._pending: List[PendingTx] = []
        #: … while the wave keeps every broadcast of the current phase
        #: in order, receipts included (PendingTx is mutated in place).
        self._wave: List[PendingTx] = []
        self._submissions: List[Tuple[Worker, Sequence[int], PreparedSubmission]] = []
        #: Staged/broadcast equivocating submissions (expected to revert).
        self._byzantine_staged: List[Tuple[Any, Transaction]] = []
        self._byzantine_wave: List[PendingTx] = []
        self._byzantine_pending: List[PendingTx] = []
        #: True once the initial funding wave went out (backpressure gate).
        self._started = False
        #: True while ``_wave`` holds a finalize_timeout settlement.
        self._settling = False
        #: One re-prove allowance per task (see ``recover``).
        self._reproved = False

        # Stage the announcement now (it only reads the chain).  A
        # restored runner pins the derivation index recorded in its
        # snapshot, landing on the same one-task account, RSA keypair
        # and predicted contract address the crashed run used.
        self.task_index = (
            snapshot.task_index if snapshot is not None
            else spec.requester.task_counter
        )
        self.prepared: PreparedPublish = spec.requester.prepare_publish(
            spec.policy,
            spec.description,
            num_answers=len(spec.workers),
            budget=spec.budget,
            answer_window=spec.answer_window,
            instruction_window=spec.instruction_window,
            rsa_bits=spec.rsa_bits,
            encryption_keys=encryption_keys,
            task_index=self.task_index,
        )
        if snapshot is not None:
            self._restore(snapshot)

    @property
    def done(self) -> bool:
        return self.state == DONE

    # ----- wave plumbing --------------------------------------------------------------

    def _broadcast(self, pendings: List[PendingTx]) -> None:
        self._wave = pendings
        self._pending = list(pendings)

    def _service(self) -> bool:
        """Poll/retry in-flight transactions; True when all confirmed."""
        self._pending = self.engine.tx_sender.service(self._pending)
        return not self._pending

    def _mark(self, phase: str) -> None:
        self.outcome.phase_blocks[phase] = self.engine.testnet.height
        self.outcome.phase_times[phase] = self.engine.testnet.clock.now

    def _status(self) -> Dict[str, Any]:
        return self.engine.node.call(self.handle.address, "get_status")

    def _contract_deployed(self) -> bool:
        try:
            self.engine.node.call(self.prepared.predicted_address, "get_phase")
        except ChainError:
            return False
        return True

    # ----- the state machine ----------------------------------------------------------

    def step(self) -> None:
        phase = PHASES.get(self.state)
        if phase is None:
            # Not a ProtocolError: the supervisor would retry and then
            # quarantine the task instead of surfacing the bug.
            raise RuntimeError(
                f"task {self.index} is in undeclared phase {self.state!r}"
            )
        if phase.step is not None:
            phase.step(self)

    def _step_funding(self) -> None:
        if not self._started:
            # The admission gate: while the mempool sits above its high
            # watermark, new tasks wait instead of piling more load on.
            if not self.engine.admitting():
                return
            self._started = True
            if self.spec.colocate is not None:
                bind = getattr(self.engine.testnet, "bind", None)
                if bind is not None:
                    bind(self.prepared.predicted_address, self.spec.colocate)
            self._broadcast(
                [
                    self.engine.testnet.fund_async(
                        self.prepared.account.address,
                        DEFAULT_GAS_ALLOWANCE + self.spec.budget,
                        near=self.prepared.predicted_address,
                    )
                ]
            )
            return
        if not self._service():
            return
        self._mark(FUNDING)
        self._broadcast(
            [
                self.engine.tx_sender.broadcast(
                    self.prepared.transaction, self.prepared.account.keypair
                )
            ]
        )
        self.state = PUBLISHING

    def _step_publishing(self) -> None:
        if not self._service():
            return
        receipt = self._wave[0].receipt
        self.handle = self.spec.requester.complete_publish(self.prepared, receipt)
        self._after_publish()

    def _after_publish(self) -> None:
        """Adopt the deployed contract and stage the worker wave.

        Shared by the happy path and publish-recovery (a deployment
        that landed under a receipt the crashed engine never saw).
        """
        self.outcome.address = self.handle.address
        self._mark(PUBLISHING)
        # Fund every submitter's one-task address (plus any equivocating
        # sybil addresses) as one faucet wave.
        self._stage_submissions()
        accounts = [prepared.account for _, _, prepared in self._submissions]
        accounts += [account for account, _ in self._byzantine_staged]
        self._broadcast(
            [
                self.engine.testnet.fund_async(
                    account.address, DEFAULT_GAS_ALLOWANCE, near=self.handle.address
                )
                for account in accounts
            ]
        )
        self.state = FUNDING_WORKERS

    def _stage_submissions(self, validate: bool = True) -> None:
        """Prepare every present worker's submission and the equivocations."""
        self._submissions = []
        for worker, answer in zip(self.spec.workers, self.spec.answers):
            if answer is not None:
                prepared = worker.prepare_submission(
                    self.handle, answer, validate=validate
                )
                self._submissions.append((worker, answer, prepared))
        self._byzantine_staged = []
        if not self.spec.equivocators:
            return
        from repro.core.attacks import prepare_equivocation

        for attempt, worker_index in enumerate(self.spec.equivocators, start=1):
            worker = self.spec.workers[worker_index]
            answer = self.spec.answers[worker_index]
            conflicting = [value + 1 for value in answer]
            account, tx = prepare_equivocation(
                worker, self.handle, conflicting, attempt=attempt
            )
            self._byzantine_staged.append((account, tx))

    def _step_funding_workers(self) -> None:
        if not self._service():
            return
        self._mark(FUNDING_WORKERS)
        self._broadcast(
            [
                self.engine.tx_sender.broadcast(
                    prepared.transaction, prepared.account.keypair
                )
                for _, _, prepared in self._submissions
            ]
        )
        self._byzantine_wave = [
            self.engine.tx_sender.broadcast(tx, account.keypair)
            for account, tx in self._byzantine_staged
        ]
        self._byzantine_pending = list(self._byzantine_wave)
        self.state = SUBMITTING

    def _step_submitting(self) -> None:
        confirmed = self._service()
        if self._byzantine_pending:
            # Byzantine traffic is best-effort: its *rejection* is the
            # interesting outcome, so abandonment just drops it.
            try:
                self._byzantine_pending = self.engine.tx_sender.service(
                    self._byzantine_pending
                )
            except RECOVERABLE:
                self._byzantine_pending = []
        if not confirmed or self._byzantine_pending:
            return
        for (worker, _, prepared), pending in zip(self._submissions, self._wave):
            receipt = pending.receipt
            if not receipt.success:
                raise ProtocolError(
                    f"submission to task {self.index} failed: {receipt.error}"
                )
            worker.complete_submission(prepared, receipt)
        for pending in self._byzantine_wave:
            if pending.receipt is None:
                continue
            if pending.receipt.success:
                self.engine.byzantine_accepted += 1
            else:
                self.engine.byzantine_rejections += 1
        self._mark(SUBMITTING)
        self.state = COLLECTING

    def _step_collecting(self) -> None:
        if self.spec.requester_mode == REQUESTER_VANISH:
            raise ProtocolError(
                f"task {self.index}: requester vanished after publishing"
            )
        status = self._status()
        if not status["closed"]:
            return  # absent workers: wait for the answer deadline
        if status["answers"] == 0:
            # Algorithm 1's abort: nothing was submitted, so there is no
            # instruction to prove — settle through the contract's
            # timeout path for a full refund.
            self._mark(COLLECTING)
            self._settle_from_requester()
            return
        if self.spec.requester_mode == REQUESTER_STONEWALL:
            raise ProtocolError(
                f"task {self.index}: requester withheld the reward instruction"
            )
        self._mark(COLLECTING)
        self.reward_job = self.spec.requester.prepare_reward(self.handle)
        self.engine.enqueue_proof(self)
        self.state = PROVING

    def deliver_proof(self, proof) -> None:
        """Proving-queue callback: broadcast the proved instruction."""
        self._mark(PROVING)
        tx = self.spec.requester.reward_transaction(self.reward_job, proof)
        account = self.spec.requester.task_account(self.handle)
        self._broadcast([self.engine.tx_sender.broadcast(tx, account.keypair)])
        self.state = REWARDING

    def _step_rewarding(self) -> None:
        if not self._service():
            return
        receipt = self._wave[0].receipt
        if not receipt.success:
            raise ProtocolError(
                f"reward instruction for task {self.index} failed: {receipt.error}"
            )
        self._mark(REWARDING)
        self.outcome.rewards = self.handle.rewards()
        self.outcome.status = STATUS_COMPLETED
        if self.spec.audit:
            self.outcome.audit_passed = self.handle.audit_submissions()
        self.state = DONE

    # ----- settlement (Algorithm 1 lines 18-21) ---------------------------------------

    def _settle_from_requester(self) -> None:
        """Broadcast ``finalize_timeout`` from the task's own account."""
        tx = self.spec.requester.finalize_timeout_transaction(self.handle)
        account = self.spec.requester.task_account(self.handle)
        self._settling = True
        self._broadcast([self.engine.tx_sender.broadcast(tx, account.keypair)])
        self.state = SETTLING

    def _step_settling(self) -> None:
        if not self._service():
            return
        receipt = self._wave[0].receipt
        if not _settles(receipt):
            raise ProtocolError(
                f"settlement for task {self.index} failed: {receipt.error}"
            )
        self._finish_from_chain()

    def _finish_from_chain(self) -> None:
        """Adopt the contract's terminal phase as this task's outcome."""
        self.outcome.status = self.handle.phase()
        self.outcome.rewards = self.handle.rewards()
        self._settling = False
        self._mark(SETTLED)
        obs.count("engine.settlements")
        self.state = DONE

    def quarantine(self, reason: str) -> None:
        """Route this task to the timeout-refund path (breaker open)."""
        if self.state == DONE:
            return
        self.quarantine_reason = reason
        self.outcome.quarantined = True
        self._mark(QUARANTINED)
        obs.count("engine.quarantines")
        with obs.span("engine.quarantine", task=self.index, state=self.state) as span:
            span.set_attrs(reason=reason)
        self.state = QUARANTINED

    def _step_quarantined(self) -> None:
        if self.handle is None:
            self._quarantined_without_contract()
            return
        if self._pending:
            try:
                if not self._service():
                    return
            except RECOVERABLE:
                self._pending = []
                self._settling = False
                self._wave = []
            if self._settling:
                if self._wave and _settles(self._wave[0].receipt):
                    self._finish_from_chain()
                    return
                # Reverted for a timing reason; re-evaluate below.
                self._settling = False
            self._wave = []
        status = self._status()
        if status["phase"] in SETTLED_PHASES:
            self._finish_from_chain()
            return
        if not status["closed"]:
            return  # collection still open — deadlines drive the refund
        if (
            status["answers"] > 0
            and self.engine.testnet.height <= status["instruction_deadline"]
        ):
            return  # the (absent) requester keeps its full window
        # "Anyone may settle": the engine's janitor account invokes the
        # even-split/abort refund on behalf of the stranded workers.
        janitor = self.engine.janitor_ready()
        if janitor is None:
            return  # janitor funding still confirming
        tx = Transaction(
            nonce=self.engine.tx_sender.nonces.reserve(janitor.address()),
            gas_price=DEFAULT_GAS_PRICE,
            gas_limit=DEFAULT_GAS_LIMIT,
            to=self.handle.address,
            value=0,
            data=encode_call("finalize_timeout", []),
        )
        self._settling = True
        self._broadcast([self.engine.tx_sender.broadcast(tx, janitor)])

    def _quarantined_without_contract(self) -> None:
        """Quarantined before the deploy confirmed: adopt or write off."""
        if self._adopt_deployed():
            return  # settle via the normal quarantine flow next round
        if self._pending:
            try:
                if not self._service():
                    return  # the deploy may still land
            except RECOVERABLE:
                pass
            self._pending = []
            if self._contract_deployed():
                return  # adopt on the next round
        self.outcome.status = STATUS_FAILED
        self.outcome.rewards = []
        self.state = DONE

    # ----- recovery -------------------------------------------------------------------

    def _adopt_deployed(self) -> bool:
        """Adopt a deployment that landed under a receipt never seen."""
        if not self._contract_deployed():
            return False
        self.handle = self.spec.requester.adopt_task(
            self.prepared,
            nonce=self.engine.node.nonce_of(self.prepared.account.address),
        )
        self.outcome.address = self.handle.address
        return True

    def recover(self, exc: Exception) -> bool:
        """One reconciliation pass against the chain after a failure.

        The chain may already hold the outcome the failed step was
        driving toward (a transaction that landed under a receipt we
        lost, a contract another party settled).  Returns True when the
        runner made progress — which resets the circuit breaker.
        """
        if self.handle is not None:
            try:
                phase = self.handle.phase()
            except ChainError:
                phase = None
            if phase in SETTLED_PHASES:
                self._finish_from_chain()
                return True
        if (
            self.state == PUBLISHING
            and self.handle is None
            and self._adopt_deployed()
        ):
            self._after_publish()
            return True
        if isinstance(exc, TxAbandonedError) and self._wave:
            return self._rearm_pending()
        if (
            self.state == REWARDING
            and self.handle is not None
            and not self._reproved
        ):
            # The instruction transaction is unrecoverable: resync the
            # account nonce from the chain and re-derive the whole
            # reward job (decrypt → evaluate → prove) once.
            self._reproved = True
            self.spec.requester.resync_nonce(self.handle)
            self._wave = []
            self._pending = []
            self.reward_job = self.spec.requester.prepare_reward(self.handle)
            self.engine.enqueue_proof(self)
            self.state = PROVING
            return True
        return False

    def _rearm_pending(self) -> bool:
        """Give abandoned in-flight transactions a fresh retry lease.

        Re-gossips each unconfirmed transaction under its original
        nonce (same-slot, so at most one attempt can ever land) and
        resets the attempt budget — the recovery for waves starved by
        network faults rather than superseded on-chain.
        """
        rearmed = False
        for pending in self._wave:
            if self.engine.tx_sender.poll(pending) is not None:
                continue
            if pending.keypair is None:
                continue
            pending.attempts = 1
            pending.broadcast_height = self.engine.testnet.height
            stx = pending.transaction.sign(pending.keypair)
            if stx.tx_hash not in pending.tx_hashes:
                pending.tx_hashes.append(stx.tx_hash)
            try:
                self.engine.testnet.send_transaction(stx)
            except ChainError:
                continue
            rearmed = True
        self._pending = [p for p in self._wave if p.receipt is None]
        if rearmed:
            obs.count("engine.rearmed_waves")
        return rearmed

    # ----- checkpointing --------------------------------------------------------------

    def snapshot(self) -> TaskSnapshot:
        """This runner's complete client-side state, as plain data."""
        spec = self.spec
        account_nonce = 0
        if self.handle is not None:
            account_nonce = spec.requester.task_nonce(self.handle)
        return TaskSnapshot(
            index=self.index,
            state=PHASES[self.state].recorded_as or self.state,
            requester_identity=spec.requester.identity,
            worker_identities=[w.identity for w in spec.workers],
            answers=[list(a) if a is not None else None for a in spec.answers],
            policy_descriptor=dict(spec.policy.describe()),
            description=spec.description,
            budget=spec.budget,
            answer_window=spec.answer_window,
            instruction_window=spec.instruction_window,
            rsa_bits=spec.rsa_bits,
            audit=spec.audit,
            requester_mode=spec.requester_mode,
            equivocators=list(spec.equivocators),
            task_index=self.task_index,
            address=self.handle.address if self.handle is not None else b"",
            account_nonce=account_nonce,
            phase_blocks=dict(self.outcome.phase_blocks),
            phase_times=dict(self.outcome.phase_times),
            rewards=list(self.outcome.rewards),
            status=self.outcome.status,
            quarantined=self.outcome.quarantined,
            quarantine_reason=self.quarantine_reason,
            wave=[PendingTxSnapshot.from_pending(p) for p in self._wave],
            byzantine_wave=[
                PendingTxSnapshot.from_pending(p) for p in self._byzantine_wave
            ],
            settling=self._settling,
        )

    def _restore(self, snap: TaskSnapshot) -> None:
        """Rebuild the runner from a snapshot against the live chain."""
        self.state = snap.state
        self._started = True
        self.quarantine_reason = snap.quarantine_reason
        self.outcome.address = snap.address
        self.outcome.rewards = list(snap.rewards)
        self.outcome.status = snap.status
        self.outcome.quarantined = snap.quarantined
        self.outcome.phase_blocks = dict(snap.phase_blocks)
        self.outcome.phase_times = dict(snap.phase_times)
        self._wave = [p.to_pending() for p in snap.wave]
        self._pending = list(self._wave)
        self._byzantine_wave = [p.to_pending() for p in snap.byzantine_wave]
        self._byzantine_pending = list(self._byzantine_wave)
        self._settling = snap.settling
        if snap.state == FUNDING and not snap.wave:
            self._started = False  # crashed before the first broadcast
        if not snap.address:
            return
        # The contract was deployed before the crash: re-adopt it under
        # the checkpointed account nonce (the chain stays the ground
        # truth — ``recover`` resyncs if a broadcast landed after the
        # snapshot was taken).
        self.handle = self.spec.requester.adopt_task(
            self.prepared, nonce=snap.account_nonce
        )
        if snap.state in (FUNDING_WORKERS, SUBMITTING):
            # Rebuild the submission bookkeeping deterministically; the
            # broadcast wave itself comes from the snapshot, so nonces
            # and ciphertexts match what the crashed run signed.
            self._stage_submissions(validate=False)


def _settles(receipt) -> bool:
    """Whether a ``finalize_timeout`` receipt leaves the task settled."""
    return receipt is not None and (
        receipt.success or "already settled" in (receipt.error or "")
    )


@dataclass(frozen=True)
class Phase:
    """How the scheduler treats one task phase (a row of :data:`PHASES`)."""

    #: The runner method one scheduler round calls, or None: PROVING
    #: waits on the engine's per-round proving queue and DONE is final.
    step: Optional[Callable[[_TaskRunner], None]]
    #: On the healthy path, whose completion heights
    #: :attr:`TaskOutcome.phase_blocks` records in this order.
    healthy: bool = False
    #: The phase a checkpoint records it as (None: itself).  A PROVING
    #: runner's reward job is live backend state, so a restart
    #: re-derives and re-proves it from COLLECTING.
    recorded_as: Optional[str] = None


#: Every task phase, in protocol order: Algorithm 1's publish and
#: collect, then the reward or (SETTLING, QUARANTINED) the timeout
#: refund.  The runner's dispatch and snapshot, checkpoint validation in
#: :meth:`ProtocolEngine.resume` and the phase-latency metrics all read
#: this one table.
PHASES: Dict[str, Phase] = {
    FUNDING: Phase(_TaskRunner._step_funding, healthy=True),
    PUBLISHING: Phase(_TaskRunner._step_publishing, healthy=True),
    FUNDING_WORKERS: Phase(_TaskRunner._step_funding_workers, healthy=True),
    SUBMITTING: Phase(_TaskRunner._step_submitting, healthy=True),
    COLLECTING: Phase(_TaskRunner._step_collecting, healthy=True),
    PROVING: Phase(None, healthy=True, recorded_as=COLLECTING),
    REWARDING: Phase(_TaskRunner._step_rewarding, healthy=True),
    SETTLING: Phase(_TaskRunner._step_settling),
    QUARANTINED: Phase(_TaskRunner._step_quarantined),
    DONE: Phase(None),
}
#: A completed task's ``phase_blocks`` keys, in order.
HEALTHY_PHASES = tuple(name for name, phase in PHASES.items() if phase.healthy)
#: The phases a checkpoint may carry.
CHECKPOINT_PHASES = tuple(
    name for name, phase in PHASES.items() if phase.recorded_as is None
)


class ProtocolEngine:
    """Run many :class:`TaskSpec` instances against one shared chain."""

    def __init__(
        self,
        system: ZebraLancerSystem,
        specs: Sequence[TaskSpec],
        max_rounds: int = 512,
        *,
        checkpoint_store: Optional[CheckpointStore] = None,
        checkpoint_every: int = 0,
        crash_hook: Optional[Callable[["ProtocolEngine", int], None]] = None,
        pause_above: Optional[int] = None,
    ) -> None:
        if not specs:
            raise ProtocolError("nothing to run")
        self.system = system
        self.testnet = system.testnet
        self.tx_sender = system.testnet.tx_sender
        self.max_rounds = max_rounds
        self.specs = list(specs)
        self.checkpoint_store = checkpoint_store
        self.checkpoint_every = checkpoint_every
        self.crash_hook = crash_hook
        self.pause_above = pause_above
        self._paused = False
        self.pauses = 0
        self.byzantine_rejections = 0
        self.byzantine_accepted = 0
        self.round = 0
        self.runners: List[_TaskRunner] = []
        self.supervisors: List[TaskSupervisor] = []
        self._prove_queue: List[_TaskRunner] = []
        self._janitor: Optional[ecdsa.ECDSAKeyPair] = None
        self._janitor_funding: Optional[List[PendingTx]] = None
        self._restore_checkpoint: Optional[EngineCheckpoint] = None

    @property
    def node(self):
        """The freshest live node, re-picked per access.

        Chaos plans crash nodes mid-run; pinning one node at
        construction would turn every read after its crash window into
        a hard failure instead of a failover.
        """
        return self.system.node

    # ----- resilience services --------------------------------------------------------

    def admitting(self) -> bool:
        """The backpressure gate new broadcast waves consult.

        Hysteresis on the attached node's mempool depth: pause at
        ``pause_above``, resume at half of it — so a saturated run
        oscillates gently instead of thrashing at one threshold.
        """
        if self.pause_above is None:
            return True
        depth = len(self.node.mempool)
        if self._paused:
            if depth > max(1, self.pause_above // 2):
                return False
            self._paused = False
            return True
        if depth >= self.pause_above:
            self._paused = True
            self.pauses += 1
            obs.count("engine.backpressure_pauses")
            return False
        return True

    def janitor_key(self) -> ecdsa.ECDSAKeyPair:
        """The engine's settlement identity ("anyone may settle")."""
        if self._janitor is None:
            self._janitor = ecdsa.ECDSAKeyPair.from_seed(
                sha256(b"engine-janitor", self.system.seed)
            )
        return self._janitor

    def janitor_ready(self) -> Optional[ecdsa.ECDSAKeyPair]:
        """The funded janitor keypair, or None while funding confirms.

        Admission control rejects transactions whose sender cannot
        cover max gas cost, so the janitor must hold funds *before* its
        ``finalize_timeout`` broadcast — funding is lazy (only chaos
        runs ever need a janitor) and shared by every quarantined task.
        """
        key = self.janitor_key()
        if self._janitor_funding is None:
            if self.node.balance_of(key.address()) > 0:
                return key
            # On a sharded chain the janitor is a replicated sender: it
            # may have to settle a task on any shard, so it is funded on
            # all of them and its transactions broadcast everywhere.
            fund_all = getattr(self.testnet, "fund_all_async", None)
            if fund_all is not None:
                self._janitor_funding = fund_all(key.address(), DEFAULT_GAS_ALLOWANCE)
            else:
                self._janitor_funding = [
                    self.testnet.fund_async(key.address(), DEFAULT_GAS_ALLOWANCE)
                ]
            return None
        try:
            remaining = self.tx_sender.service(self._janitor_funding)
        except RECOVERABLE:
            self._janitor_funding = None
            return None
        if remaining:
            return None
        self._janitor_funding = None
        return key

    def enqueue_proof(self, runner: _TaskRunner) -> None:
        self._prove_queue.append(runner)

    # ----- checkpointing --------------------------------------------------------------

    def checkpoint(self) -> EngineCheckpoint:
        """Snapshot all client-side state the chain does not hold."""
        tasks: List[TaskSnapshot] = []
        for runner, supervisor in zip(self.runners, self.supervisors):
            snap = runner.snapshot()
            snap.failures = supervisor.failures
            tasks.append(snap)
        head = self.node.head_block
        return EngineCheckpoint(
            round=self.round,
            head_height=self.testnet.height,
            head_hash=head.block_hash,
            nonce_reservations=self.tx_sender.nonces.snapshot(),
            janitor_key=self._janitor.private_key if self._janitor else 0,
            tasks=tasks,
            counters={
                "byzantine_rejections": self.byzantine_rejections,
                "byzantine_accepted": self.byzantine_accepted,
                "pauses": self.pauses,
            },
        )

    def checkpoint_bytes(self) -> bytes:
        return encode_checkpoint(self.checkpoint())

    @classmethod
    def resume(
        cls,
        system: ZebraLancerSystem,
        checkpoint,
        **kwargs: Any,
    ) -> "ProtocolEngine":
        """Rebuild an engine from a checkpoint against the live chain.

        ``checkpoint`` is an :class:`EngineCheckpoint` or its encoded
        bytes.  The snapshot is self-contained: specs, clients and
        policies are reconstructed from the recorded identities (keys
        re-derive deterministically; certificates come from the RA,
        which — like the chain — survives an engine crash).
        """
        if isinstance(checkpoint, (bytes, bytearray)):
            checkpoint = decode_checkpoint(checkpoint)
        if checkpoint.head_height > system.testnet.height:
            raise CheckpointError(
                "checkpoint is ahead of the chain: "
                f"height {checkpoint.head_height} > {system.testnet.height}"
            )
        for snap in checkpoint.tasks:
            if snap.state not in CHECKPOINT_PHASES:
                raise CheckpointError(
                    f"task {snap.index} is checkpointed in phase "
                    f"{snap.state!r}, not one of {CHECKPOINT_PHASES}"
                )
        specs: List[TaskSpec] = []
        for snap in checkpoint.tasks:
            requester = Requester(system, snap.requester_identity, register=False)
            workers = [
                Worker(system, identity, register=False)
                for identity in snap.worker_identities
            ]
            specs.append(
                TaskSpec(
                    requester=requester,
                    workers=workers,
                    answers=[
                        list(a) if a is not None else None for a in snap.answers
                    ],
                    policy=policy_from_descriptor(snap.policy_descriptor),
                    description=snap.description,
                    budget=snap.budget,
                    answer_window=snap.answer_window,
                    instruction_window=snap.instruction_window,
                    rsa_bits=snap.rsa_bits,
                    audit=snap.audit,
                    requester_mode=snap.requester_mode,
                    equivocators=list(snap.equivocators),
                )
            )
        engine = cls(system, specs, **kwargs)
        engine._restore_checkpoint = checkpoint
        engine.byzantine_rejections = checkpoint.counters.get(
            "byzantine_rejections", 0
        )
        engine.byzantine_accepted = checkpoint.counters.get(
            "byzantine_accepted", 0
        )
        engine.pauses = checkpoint.counters.get("pauses", 0)
        if checkpoint.janitor_key:
            engine._janitor = ecdsa.ECDSAKeyPair(checkpoint.janitor_key)
        engine.tx_sender.nonces.restore(checkpoint.nonce_reservations)
        obs.count("engine.resumes")
        return engine

    # ----- the scheduler --------------------------------------------------------------

    def _pregenerate_encryption_keys(self) -> List[TaskKeyPair]:
        """Generate every task's RSA keypair across a fork pool.

        The seeds are exactly what each requester's ``prepare_publish``
        would derive on its own (accounting for requesters publishing
        several tasks), so the keys — and therefore the transcript —
        are identical to inline generation, just ~cores times faster.
        RSA keygen is the single largest client-side cost per task.
        """
        with obs.span("engine.keygen", tasks=len(self.specs)):
            restore = self._restore_checkpoint
            requests = []
            if restore is not None:
                for spec, snap in zip(self.specs, restore.tasks):
                    requests.append(
                        (
                            spec.requester.encryption_rng_seed(snap.task_index),
                            spec.rsa_bits,
                        )
                    )
            else:
                offsets: Dict[int, int] = {}
                for spec in self.specs:
                    requester = spec.requester
                    offset = offsets.get(id(requester), 0)
                    offsets[id(requester)] = offset + 1
                    requests.append(
                        (
                            requester.encryption_rng_seed(
                                requester.task_counter + offset
                            ),
                            spec.rsa_bits,
                        )
                    )
            return fanout_map(
                _KeygenJob(), requests, os.cpu_count() or 1, chunked=False
            )

    def run(self) -> EngineReport:
        with obs.span("engine.run", tasks=len(self.specs)) as run_span:
            start = _RunStart(self.system)
            restore = self._restore_checkpoint
            encryption_keys = self._pregenerate_encryption_keys()
            self.runners = [
                _TaskRunner(
                    spec,
                    index,
                    self,
                    encryption_keys=encryption_keys[index],
                    snapshot=restore.tasks[index] if restore is not None else None,
                )
                for index, spec in enumerate(self.specs)
            ]
            self.supervisors = [TaskSupervisor(runner) for runner in self.runners]
            if restore is not None:
                for supervisor, snap in zip(self.supervisors, restore.tasks):
                    supervisor.restore_failures(snap.failures)
            self.round = 0
            while True:
                if self.crash_hook is not None:
                    self.crash_hook(self, self.round)
                with obs.span("engine.round", round=self.round):
                    for supervisor in self.supervisors:
                        supervisor.step(self.round)
                    self._drain_proving()
                if (
                    self.checkpoint_store is not None
                    and self.checkpoint_every
                    and self.round % self.checkpoint_every == 0
                ):
                    self.checkpoint_store.save(self.checkpoint_bytes())
                    obs.count("engine.checkpoints")
                if all(runner.done for runner in self.runners):
                    break
                if self.round >= self.max_rounds:
                    stuck = [r.index for r in self.runners if not r.done]
                    raise EngineStallError(
                        f"tasks {stuck} still in flight after {self.round} rounds"
                    )
                self.testnet.mine_block()
                self.round += 1

            report = start.report(
                [runner.outcome for runner in self.runners],
                rounds=self.round,
                blocks_mined=self.round,  # one block per round
                resilience={
                    "retries": sum(s.retries for s in self.supervisors),
                    "recoveries": sum(s.recoveries for s in self.supervisors),
                    "quarantined": sum(
                        1 for r in self.runners if r.outcome.quarantined
                    ),
                    "pauses": self.pauses,
                    "byzantine_rejections": self.byzantine_rejections,
                    "byzantine_accepted": self.byzantine_accepted,
                    "checkpoints": (
                        self.checkpoint_store.saves if self.checkpoint_store else 0
                    ),
                },
            )
            run_span.set_attrs(blocks=report.blocks_mined, rounds=report.rounds)
        obs.count("engine.runs")
        obs.count("engine.tasks", len(self.specs))
        obs.count("engine.blocks", report.blocks_mined)
        return report

    def _drain_proving(self) -> None:
        """Prove every job staged this round as ONE backend batch."""
        if not self._prove_queue:
            return
        queue, self._prove_queue = self._prove_queue, []
        requests = [
            (r.reward_job.proving_key, r.reward_job.circuit, r.reward_job.instance)
            for r in queue
        ]
        proofs = self.system.backend.prove_many(requests)
        for runner, proof in zip(queue, proofs):
            runner.deliver_proof(proof)


def _chain_heads(system: ZebraLancerSystem) -> List[Tuple[Any, int]]:
    """(reader node, head height) per chain.

    A ShardedChain's facade height is the maximum over its shards and
    its node view reads shard 0 only, so every shard is its own chain;
    a plain testnet is read through the system's freshest live node.
    """
    shards = getattr(system.testnet, "shard_testnets", None)
    if shards is None:
        return [(system.node, system.testnet.height)]
    return [(shard.any_node, shard.height) for shard in shards]


class _RunStart:
    """Where a run started (chain, clocks); builds its :class:`EngineReport`."""

    def __init__(self, system: ZebraLancerSystem) -> None:
        self.system = system
        self.height = system.testnet.height
        self.heads = _chain_heads(system)
        self.sim_time = system.testnet.clock.now
        self.wall_time = time.perf_counter()

    def report(
        self,
        outcomes: List[TaskOutcome],
        rounds: int,
        blocks_mined: int,
        resilience: Optional[Dict[str, int]] = None,
    ) -> EngineReport:
        """The report up to now: every canonical block since the start."""
        testnet = self.system.testnet
        blocks: List[Tuple[int, str, Tuple[str, ...]]] = []
        transactions = 0
        for (_, start_height), (reader, end_height) in zip(
            self.heads, _chain_heads(self.system)
        ):
            for block in reader.canonical_blocks(start_height + 1, end_height):
                tx_hashes = tuple(stx.tx_hash.hex() for stx in block.transactions)
                transactions += len(tx_hashes)
                blocks.append((block.number, block.block_hash.hex(), tx_hashes))
        return EngineReport(
            outcomes=outcomes,
            rounds=rounds,
            blocks_mined=blocks_mined,
            start_height=self.height,
            end_height=testnet.height,
            transactions=transactions,
            wall_seconds=time.perf_counter() - self.wall_time,
            sim_seconds=testnet.clock.now - self.sim_time,
            blocks=blocks,
            resilience=resilience or {},
        )


# ----- spec construction and the serial baseline --------------------------------------


def engine_system(
    num_tasks: int,
    workers_per_task: int,
    backend_name: str = "mock",
    seed: bytes = b"engine-system",
    fault_plan=None,
    mempool_capacity: Optional[int] = None,
    shards: Optional[int] = None,
    **system_kwargs: Any,
) -> ZebraLancerSystem:
    """A :class:`ZebraLancerSystem` sized for a concurrent wave.

    Block selection budgets by each transaction's gas *limit*, so the
    block gas limit must admit a whole wave of client transactions
    (deployments, submissions, reward instructions all reserve
    ``DEFAULT_GAS_LIMIT``) for batching to happen at all.

    ``fault_plan`` wires a seeded :class:`~repro.chain.faults.FaultPlan`
    into the testnet (chaos runs); ``mempool_capacity`` bounds each
    node's pool, which is what the engine's backpressure gate pushes
    against.  ``shards`` puts the whole system on a
    :class:`~repro.chain.sharding.ShardedChain`: each Algorithm-1 task
    runs on the home shard of its task contract, with rewards settled
    cross-shard through the receipt-proven bridge (``shards=1`` is
    byte-identical to the plain testnet).
    """
    import repro.contracts  # noqa: F401  (side effect: registers contract classes)
    from repro.chain.network import Testnet
    from repro.profiles import TEST

    wave = max(1, num_tasks * (workers_per_task + 2))
    chain_kwargs: Dict[str, Any] = dict(
        gas_limit=max(30_000_000, wave * DEFAULT_GAS_LIMIT),
        fault_plan=fault_plan,
        mempool_capacity=mempool_capacity,
    )
    if shards is None:
        testnet = Testnet(**chain_kwargs)
    else:
        from repro.chain.sharding import ShardedChain

        testnet = ShardedChain(shards=shards, **chain_kwargs)
    # The registration tree must hold the whole cohort (N requesters +
    # N·M workers) with headroom for extra registrations by the tests.
    cohort = num_tasks * (workers_per_task + 1)
    depth = TEST.merkle_depth
    while (1 << depth) < 2 * cohort:
        depth += 1
    profile = replace(TEST, name=f"test-d{depth}", merkle_depth=depth)
    return ZebraLancerSystem(
        profile=profile,
        backend_name=backend_name,
        seed=seed,
        testnet=testnet,
        **system_kwargs,
    )


def _register_cohort(
    system: ZebraLancerSystem,
    requester_ids: Sequence[str],
    worker_ids: Sequence[Sequence[str]],
) -> Tuple[List[Requester], List[List[Worker]]]:
    """Build the clients and register them all under ONE commitment update."""
    requesters = [
        Requester(system, identity, register=False) for identity in requester_ids
    ]
    workers = [
        [Worker(system, identity, register=False) for identity in group]
        for group in worker_ids
    ]
    clients = requesters + [worker for group in workers for worker in group]
    certificates = system.register_participants(
        [(client.identity, client.keys.public_key) for client in clients]
    )
    for client, certificate in zip(clients, certificates):
        client.certificate = certificate
    return requesters, workers


def _sampled_specs(
    system: ZebraLancerSystem,
    num_tasks: int,
    workers_per_task: int,
    *,
    prefix: str,
    description: str,
    num_choices: int,
    seed: int,
    accuracy: float,
    absent_probability: float = 0.0,
    empty: Sequence[int] = (),
    **spec_kwargs: Any,
) -> List[TaskSpec]:
    """Majority-vote tasks over a fresh cohort (:func:`make_uniform_specs`).

    Tasks in ``empty`` get no answers at all (the zero-answer abort);
    their ground truth is still drawn, so the rng stays in step.
    """
    rng = random.Random(seed)
    requesters, workers = _register_cohort(
        system,
        [f"{prefix}requester-{i}" for i in range(num_tasks)],
        [
            [f"{prefix}worker-{i}-{j}" for j in range(workers_per_task)]
            for i in range(num_tasks)
        ],
    )
    specs: List[TaskSpec] = []
    for i in range(num_tasks):
        truth = rng.randrange(num_choices)
        answers: List[Optional[Sequence[int]]] = [None] * workers_per_task
        if i not in empty:
            answers = [
                sample_answer(rng, truth, num_choices, accuracy, absent_probability)
                for _ in range(workers_per_task)
            ]
            if all(answer is None for answer in answers):
                answers[0] = [truth]  # keep the task rewardable
        specs.append(
            TaskSpec(
                requester=requesters[i],
                workers=workers[i],
                answers=answers,
                policy=MajorityVotePolicy(num_choices=num_choices),
                description=f"{description}-{i}",
                **spec_kwargs,
            )
        )
    return specs


def make_uniform_specs(
    system: ZebraLancerSystem,
    num_tasks: int,
    workers_per_task: int,
    num_choices: int = 4,
    budget: int = 1_200,
    seed: int = 0,
    accuracy: float = 0.8,
    absent_probability: float = 0.0,
    rsa_bits: int = 1024,
    audit: bool = False,
) -> List[TaskSpec]:
    """Build N homogeneous majority-vote tasks with sampled answers.

    Answers are drawn with :mod:`repro.core.simulation` semantics (a
    uniform ground truth per task; each worker reports it with
    ``accuracy``, is absent with ``absent_probability``), from a
    ``random.Random(seed)`` — the same seed always yields the same
    specs, which is what the determinism tests replay.  All
    ``N·(M+1)`` identities register under one commitment update.
    """
    return _sampled_specs(
        system, num_tasks, workers_per_task,
        prefix="", description="engine-task", num_choices=num_choices,
        seed=seed, accuracy=accuracy, absent_probability=absent_probability,
        budget=budget, rsa_bits=rsa_bits, audit=audit,
    )


def make_chaos_specs(
    system: ZebraLancerSystem,
    num_tasks: int,
    workers_per_task: int,
    num_choices: int = 4,
    budget: int = 1_200,
    seed: int = 0,
    accuracy: float = 0.8,
    stonewall: Sequence[int] = (),
    vanish: Sequence[int] = (),
    equivocate: Sequence[int] = (),
    empty: Sequence[int] = (),
    answer_window: int = 32,
    instruction_window: int = 8,
    rsa_bits: int = 1024,
) -> List[TaskSpec]:
    """Specs with byzantine actors mixed in, for engine-scale chaos.

    ``stonewall``/``vanish`` name task indices whose requester goes
    byzantine; ``equivocate`` names tasks whose first present worker
    also submits a conflicting sybil answer; ``empty`` names tasks in
    which every worker is absent (the zero-answer abort path).  The
    instruction window defaults short so quarantined tasks reach the
    even-split refund within a reasonable round budget.
    """
    specs = _sampled_specs(
        system, num_tasks, workers_per_task,
        prefix="chaos-", description="chaos-task", num_choices=num_choices,
        seed=seed, accuracy=accuracy, empty=empty,
        budget=budget, answer_window=answer_window,
        instruction_window=instruction_window, rsa_bits=rsa_bits,
    )
    for i, spec in enumerate(specs):
        if i in stonewall:
            spec.requester_mode = REQUESTER_STONEWALL
        elif i in vanish:
            spec.requester_mode = REQUESTER_VANISH
        if i in equivocate and i not in empty:
            spec.equivocators = [
                next(j for j, a in enumerate(spec.answers) if a is not None)
            ]
    return specs


def run_serial(system: ZebraLancerSystem, specs: Sequence[TaskSpec]) -> EngineReport:
    """The one-task-at-a-time baseline over the same specs.

    Drives each spec through the synchronous client APIs (mining
    blocks per transaction, proving per task) — what the throughput
    bench compares the engine against.
    """
    start = _RunStart(system)
    outcomes: List[TaskOutcome] = []
    for index, spec in enumerate(specs):
        handle = spec.requester.publish_task(
            spec.policy,
            spec.description,
            num_answers=len(spec.workers),
            budget=spec.budget,
            answer_window=spec.answer_window,
            instruction_window=spec.instruction_window,
            rsa_bits=spec.rsa_bits,
        )
        outcome = TaskOutcome(
            index=index, requester=spec.requester.identity, address=handle.address
        )
        outcome.phase_blocks[PUBLISHING] = system.testnet.height
        for worker, answer in zip(spec.workers, spec.answers):
            if answer is not None:
                worker.submit_answer(handle, answer)
        system.testnet.mine_until(handle.is_collection_closed)
        outcome.phase_blocks[COLLECTING] = system.testnet.height
        receipt = spec.requester.evaluate_and_reward(handle)
        if not receipt.success:
            raise ProtocolError(f"reward for task {index} failed: {receipt.error}")
        outcome.phase_blocks[REWARDING] = system.testnet.height
        outcome.rewards = handle.rewards()
        outcome.status = STATUS_COMPLETED
        if spec.audit:
            outcome.audit_passed = handle.audit_submissions()
        outcomes.append(outcome)
    return start.report(
        outcomes, rounds=0, blocks_mined=system.testnet.height - start.height
    )


# ----- open marketplace layer --------------------------------------------------------


@dataclass
class MarketSpec:
    """One listing's full open-market lifecycle, declaratively.

    ``bidders`` pairs each candidate worker with its stake; ``answers``
    maps worker identity → the answer it will submit IF matched (None
    models an absent winner, who then forfeits its bond).  The same
    worker objects may appear across many specs — that is the point:
    their board handle accrues reputation listing over listing.
    """

    requester: Requester
    bidders: List[Tuple[Worker, int]]
    answers: Dict[str, Optional[Sequence[int]]]
    policy: RewardPolicy
    description: str = "listing"
    num_workers: int = 3
    budget: int = 1_200
    quality_bonus: int = 600
    validator_reward: int = 120
    answer_window: int = 32
    instruction_window: int = 32
    rsa_bits: int = 1024
    #: Whether the requester contests the outcome (routing settlement
    #: through the court instead of the timeout settle path).
    dispute: bool = False


@dataclass
class ListingOutcome:
    """One listing's terminal market state, chain-derived."""

    listing_id: int
    state: str
    task_address: bytes
    matched_tags: List[int]
    claims: Dict[int, int]
    disputed: bool
    payouts: List[List[Any]]
    disbursed: int
    escrow: int


@dataclass
class MarketReport:
    """Everything one open-market wave produced.

    ``task_specs``/``engine.outcomes`` feed the existing exactly-once
    payout check; ``listings`` feeds the market-side escrow
    conservation check (:func:`repro.core.accounting
    .assert_market_conservation`).
    """

    board_address: bytes
    arbiter_address: bytes
    auditor_address: bytes
    listing_ids: List[int]
    listings: List[ListingOutcome]
    engine: EngineReport
    task_specs: List[TaskSpec]

    @property
    def outcomes(self) -> List[TaskOutcome]:
        return self.engine.outcomes


def make_market_specs(
    system: ZebraLancerSystem,
    num_listings: int,
    pool_size: int,
    slots_per_listing: int = 3,
    num_choices: int = 4,
    seed: int = 0,
    budget: int = 1_200,
    quality_bonus: int = 600,
    validator_reward: int = 120,
    accuracy: float = 0.9,
    base_stake: int = 100,
    dispute_listings: Sequence[int] = (),
) -> List[MarketSpec]:
    """N listings bidding over ONE shared certified worker pool.

    Every pool worker bids on every listing (stakes jittered by the
    seeded rng so rankings are not degenerate), so the same handles
    compete repeatedly — the reputation-accrual shape the linkability
    property tests sweep.  ``dispute_listings`` name listings whose
    workers all answer out of range (zero policy rewards) and whose
    requester then takes the court path.
    """
    rng = random.Random(seed)
    requesters, (pool,) = _register_cohort(
        system,
        [f"market-requester-{i}" for i in range(num_listings)],
        [[f"market-worker-{j}" for j in range(pool_size)]],
    )
    specs: List[MarketSpec] = []
    for i in range(num_listings):
        truth = rng.randrange(num_choices)
        bidders = [
            (worker, base_stake + rng.randrange(base_stake)) for worker in pool
        ]
        answers: Dict[str, Optional[Sequence[int]]] = {}
        for worker in pool:
            if i in dispute_listings:
                # Junk work: out-of-range answers earn zero policy
                # reward, so the dispute is upheld.
                answers[worker.identity] = [num_choices]
            else:
                answer = sample_answer(rng, truth, num_choices, accuracy, 0.0)
                answers[worker.identity] = answer
        if i not in dispute_listings and all(
            answers[w.identity] is None for w in pool
        ):
            answers[pool[0].identity] = [truth]
        specs.append(
            MarketSpec(
                requester=requesters[i],
                bidders=bidders,
                answers=answers,
                policy=MajorityVotePolicy(num_choices=num_choices),
                description=f"market-listing-{i}",
                num_workers=min(slots_per_listing, pool_size),
                budget=budget,
                quality_bonus=quality_bonus,
                validator_reward=validator_reward,
                dispute=i in dispute_listings,
            )
        )
    return specs


def run_open_market(
    system: ZebraLancerSystem,
    specs: Sequence[MarketSpec],
    board_address: Optional[bytes] = None,
    arbiter: Optional[Any] = None,
    max_rounds: int = 512,
    auditor_seed: bytes = b"market-auditor",
) -> MarketReport:
    """Drive N listings through the complete open lifecycle.

    Phase A (serial): post each listing, let its bidders stake, mine
    past the bid deadline, and match.  Phase B: run every matched
    cohort's Algorithm-1 task concurrently under the existing
    :class:`ProtocolEngine`.  Phase C (serial): attach each task to its
    listing, let winners claim their submissions by tag-link proof,
    anchor the validator audit, mine out the claim window, and settle —
    through the court for disputed listings.

    When no board is supplied one is deployed with windows sized to
    this wave (its attach window must outlast the engine run).
    """
    from repro.core.market import Arbiter, board_config, deploy_marketplace

    specs = list(specs)
    if not specs:
        raise ProtocolError("nothing to run on the market")
    if arbiter is None:
        arbiter = Arbiter(system)
    if board_address is None:
        # Each bid costs ~3 blocks serially (two funding txs + the bid).
        bid_window = 8 + 4 * max(len(spec.bidders) for spec in specs)
        board_address = deploy_marketplace(
            system,
            arbiter.address,
            board_config(attach_window=max_rounds + 256, bid_window=bid_window),
        )

    with obs.span("market.run", listings=len(specs)):
        report = _run_open_market(
            system, specs, board_address, arbiter, max_rounds, auditor_seed
        )
    obs.count("market.waves")
    return report


def _run_open_market(
    system: ZebraLancerSystem,
    specs: List[MarketSpec],
    board_address: bytes,
    arbiter: Any,
    max_rounds: int,
    auditor_seed: bytes,
) -> MarketReport:
    node = system.node
    testnet = system.testnet

    # ----- Phase A: post, discover, bid, match ------------------------------
    listing_ids: List[int] = []
    for spec in specs:
        listing_id = spec.requester.post_listing(
            board_address,
            spec.description,
            spec.num_workers,
            spec.budget,
            spec.quality_bonus,
            spec.validator_reward,
        )
        listing_ids.append(listing_id)
        if spec.bidders:
            # Workers genuinely *discover* the listing on the board
            # rather than being handed it out of band.
            browsed = spec.bidders[0][0].discover_listings(board_address)
            if listing_id not in {entry["id"] for entry in browsed}:
                raise ProtocolError(
                    f"listing {listing_id} not discoverable while bidding"
                )
        for worker, stake in spec.bidders:
            receipt = worker.place_bid(board_address, listing_id, stake)
            if not receipt.success:
                raise ProtocolError(
                    f"bid on listing {listing_id} failed: {receipt.error}"
                )

    last_deadline = max(
        node.call(board_address, "get_listing", [listing_id])["bid_deadline"]
        for listing_id in listing_ids
    )
    if testnet.height <= last_deadline:
        testnet.mine_blocks(last_deadline - testnet.height + 1)

    matched_workers: List[List[Worker]] = []
    for spec, listing_id in zip(specs, listing_ids):
        spec.requester.match_listing(board_address, listing_id)
        listing = node.call(board_address, "get_listing", [listing_id])
        by_tag = {
            worker.handle_tag(board_address): worker
            for worker, _ in spec.bidders
        }
        matched_workers.append(
            [by_tag[listing["bids"][i]["tag"]] for i in listing["matched"]]
        )

    # ----- Phase B: Algorithm 1 for every matched cohort --------------------
    task_specs = [
        TaskSpec(
            requester=spec.requester,
            workers=winners,
            answers=[spec.answers.get(worker.identity) for worker in winners],
            policy=spec.policy,
            description=f"market:{spec.description}",
            budget=spec.budget,
            answer_window=spec.answer_window,
            instruction_window=spec.instruction_window,
            rsa_bits=spec.rsa_bits,
            colocate=board_address,
        )
        for spec, winners in zip(specs, matched_workers)
    ]
    engine_report = ProtocolEngine(system, task_specs, max_rounds=max_rounds).run()

    # ----- Phase C: attach, claim, validate, settle -------------------------
    auditor = derive_one_task_account(
        auditor_seed, f"auditor:{board_address.hex()}"
    )
    outcome_by_index = {outcome.index: outcome for outcome in engine_report.outcomes}
    for index, (spec, listing_id, winners) in enumerate(
        zip(specs, listing_ids, matched_workers)
    ):
        outcome = outcome_by_index[index]
        spec.requester.attach_listing_task(
            board_address, listing_id, outcome.address
        )
        for worker in winners:
            if spec.answers.get(worker.identity) is None:
                continue  # never submitted; nothing to claim
            receipt = worker.report_work(
                board_address, listing_id, outcome.address
            )
            if not receipt.success:
                raise ProtocolError(
                    f"claim on listing {listing_id} failed: {receipt.error}"
                )
        system.fund_anonymous(auditor.address, near=board_address)
        validate_tx = Transaction(
            nonce=node.nonce_of(auditor.address),
            gas_price=DEFAULT_GAS_PRICE,
            gas_limit=DEFAULT_GAS_LIMIT,
            to=board_address,
            value=0,
            data=encode_call("validate_task", [listing_id]),
        )
        receipt = system.send_reliable(validate_tx, auditor.keypair)
        if not receipt.success:
            raise ProtocolError(
                f"validation of listing {listing_id} failed: {receipt.error}"
            )

    claim_window = node.call(board_address, "get_config")["claim_window"]
    deadlines = [
        node.call(outcome_by_index[i].address, "get_status")["instruction_deadline"]
        for i in range(len(specs))
    ]
    last_deadline = max(d for d in deadlines if d is not None) + claim_window
    if testnet.height <= last_deadline:
        testnet.mine_blocks(last_deadline - testnet.height + 1)

    listings: List[ListingOutcome] = []
    for spec, listing_id in zip(specs, listing_ids):
        if spec.dispute:
            receipt = spec.requester.open_dispute(board_address, listing_id)
            if not receipt.success:
                raise ProtocolError(
                    f"dispute on listing {listing_id} failed: {receipt.error}"
                )
            arbiter.rule(board_address, listing_id)
        else:
            receipt = spec.requester.settle_listing(board_address, listing_id)
            if not receipt.success:
                raise ProtocolError(
                    f"settlement of listing {listing_id} failed: {receipt.error}"
                )
        listing = node.call(board_address, "get_listing", [listing_id])
        listings.append(
            ListingOutcome(
                listing_id=listing_id,
                state=listing["state"],
                task_address=listing["task"],
                matched_tags=[
                    listing["bids"][i]["tag"] for i in listing["matched"]
                ],
                claims=dict(listing["claims"]),
                disputed=listing["dispute"] is not None,
                payouts=listing["payouts"],
                disbursed=listing["disbursed"],
                escrow=listing["escrow"],
            )
        )

    return MarketReport(
        board_address=board_address,
        arbiter_address=arbiter.address,
        auditor_address=auditor.address,
        listing_ids=listing_ids,
        listings=listings,
        engine=engine_report,
        task_specs=task_specs,
    )
