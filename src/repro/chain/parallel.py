"""Optimistic parallel execution of one block's transactions.

A Block-STM-style pipeline in three steps:

1. **Assign.**  Transactions are partitioned into *lanes* by
   sender/recipient affinity (:func:`assign_lanes`): a sender's whole
   nonce chain lands on one lane, and transactions targeting an
   address some lane already touched follow it there.
2. **Speculate.**  Each lane executes its transactions in serial-index
   order against an immutable base state through a
   :class:`~repro.chain.state.LaneState` overlay, capturing per-tx
   read/write sets and effects.  Lanes run one after another in
   process; each lane's wall time is recorded for the critical-path
   model.
3. **Commit.**  A single pass in serial index order applies each
   transaction's captured effects verbatim when its footprint is
   disjoint from every *other* lane's committed impact, and
   deterministically re-executes it against the committed state
   otherwise.

The committed state, receipts and gas accounting are bit-identical to
serial execution for any lane count and any lane assignment — that is
the oracle ``tests/chain/test_parallel_exec.py`` sweeps.

Miner-fee credits are the one deliberate relaxation of the footprint
rule: ``LaneState`` buffers credits to untouched accounts as
commutative deltas, so every transaction paying the same coinbase (or
crediting the same recipient) does not serialize the block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import observability as obs
from repro.errors import InvalidTransactionError
from repro.chain.contract import BlockContext
from repro.chain.receipts import Receipt
from repro.chain.state import LaneState, TxEffects, WorldState
from repro.chain.transaction import SignedTransaction
from repro.chain.vm import VM

#: Sentinel owners in the commit pass's impact map: accounts impacted
#: by a re-executed transaction, or by two different lanes, conflict
#: with every later speculative result regardless of its lane.
_REEXEC = -1
_MIXED = -2


@dataclass
class BlockExecutionStats:
    """Concurrency accounting for one block execution."""

    lanes: int
    transactions: int = 0
    speculative_commits: int = 0
    reexecutions: int = 0
    conflicts: int = 0
    invalid_dropped: int = 0
    #: Wall seconds each lane spent speculating, and the commit pass.
    #: ``max(lane_seconds) + commit_seconds`` is the critical-path time
    #: a host with one core per lane would observe.
    lane_seconds: List[float] = field(default_factory=list)
    commit_seconds: float = 0.0

    @property
    def conflict_rate(self) -> float:
        return self.conflicts / self.transactions if self.transactions else 0.0

    @property
    def abort_rate(self) -> float:
        """Fraction of transactions whose speculative result was discarded."""
        return self.reexecutions / self.transactions if self.transactions else 0.0

    @property
    def critical_path_seconds(self) -> float:
        """Modeled block time with one core per lane (speculation is
        bounded by the slowest lane; the commit pass is sequential)."""
        return (max(self.lane_seconds) if self.lane_seconds else 0.0) + self.commit_seconds

    def as_dict(self) -> Dict[str, float]:
        return {
            "lanes": self.lanes,
            "transactions": self.transactions,
            "speculative_commits": self.speculative_commits,
            "reexecutions": self.reexecutions,
            "conflicts": self.conflicts,
            "invalid_dropped": self.invalid_dropped,
            "conflict_rate": round(self.conflict_rate, 4),
            "abort_rate": round(self.abort_rate, 4),
            "lane_seconds": [round(s, 4) for s in self.lane_seconds],
            "commit_seconds": round(self.commit_seconds, 4),
            "critical_path_seconds": round(self.critical_path_seconds, 4),
        }


@dataclass
class BlockExecution:
    """Result of executing one block's transaction list."""

    included: List[SignedTransaction]
    receipts: List[Receipt]
    stats: BlockExecutionStats

    @property
    def gas_used(self) -> int:
        return sum(receipt.gas_used for receipt in self.receipts)


@dataclass
class _SpecResult:
    """One transaction's speculative outcome (``receipt is None`` →
    the transaction was invalid against the lane's view)."""

    index: int
    lane: int
    receipt: Optional[Receipt]
    effects: Optional[TxEffects]


def assign_lanes(transactions: Sequence[SignedTransaction], lanes: int) -> List[int]:
    """Deterministic affinity-based lane assignment.

    A sender's transactions all share a lane (nonce chains must
    speculate in order), and a transaction whose recipient some lane
    already touched follows it there (single-contract hot spots stay
    lane-local).  Unaffiliated transactions round-robin.
    """
    affinity: Dict[bytes, int] = {}
    counter = 0
    assignment: List[int] = []
    for stx in transactions:
        sender = stx.sender
        to = stx.transaction.to
        lane = affinity.get(sender)
        if lane is None and to is not None:
            lane = affinity.get(to)
        if lane is None:
            lane = counter % lanes
            counter += 1
        affinity.setdefault(sender, lane)
        if to is not None:
            affinity.setdefault(to, lane)
        assignment.append(lane)
    return assignment


def _run_lane(
    vm: VM,
    base: WorldState,
    block_ctx: BlockContext,
    lane: int,
    items: Sequence[Tuple[int, SignedTransaction]],
) -> List[_SpecResult]:
    """Speculatively execute one lane's transactions over ``base``."""
    lane_state = LaneState(base)
    results: List[_SpecResult] = []
    for index, stx in items:
        lane_state.begin_access_window()
        try:
            receipt = vm.execute_transaction(lane_state, stx, block_ctx)
        except InvalidTransactionError:
            # No state was touched (validation precedes any mutation);
            # the commit pass retries this tx against committed state.
            lane_state.finish_access_window()
            results.append(
                _SpecResult(index=index, lane=lane, receipt=None, effects=None)
            )
            continue
        effects = lane_state.finish_access_window()
        results.append(
            _SpecResult(index=index, lane=lane, receipt=receipt, effects=effects)
        )
    return results


def execute_block(
    vm: VM,
    state: WorldState,
    transactions: Sequence[SignedTransaction],
    block_ctx: BlockContext,
    lanes: int = 1,
    mode: str = "verify",
    assignment: Optional[Sequence[int]] = None,
) -> BlockExecution:
    """Execute a block's transactions against ``state``, mutating it.

    ``mode="verify"`` (importers) raises
    :class:`~repro.errors.InvalidTransactionError` on a transaction
    that is invalid in serial order; ``mode="build"`` (miners) silently
    drops it.  ``assignment`` overrides :func:`assign_lanes` — the
    serial-equivalence guarantee holds for *any* assignment, which the
    oracle tests exploit.
    """
    if mode not in ("verify", "build"):
        raise ValueError(f"unknown execution mode {mode!r}")
    txs = list(transactions)
    lanes = max(1, lanes)
    stats = BlockExecutionStats(lanes=lanes, transactions=len(txs))
    if lanes == 1 or len(txs) < 2:
        return _execute_serial(vm, state, txs, block_ctx, mode, stats)

    if assignment is None:
        assignment = assign_lanes(txs, lanes)
    elif len(assignment) != len(txs):
        raise ValueError("lane assignment length must match transaction count")
    lane_items: List[List[Tuple[int, SignedTransaction]]] = [[] for _ in range(lanes)]
    for index, (stx, lane) in enumerate(zip(txs, assignment)):
        if not 0 <= lane < lanes:
            raise ValueError(f"lane {lane} out of range for {lanes} lanes")
        lane_items[lane].append((index, stx))

    spec: List[Optional[_SpecResult]] = [None] * len(txs)
    for lane, items in enumerate(lane_items):
        started = time.perf_counter()
        results = _run_lane(vm, state, block_ctx, lane, items)
        stats.lane_seconds.append(time.perf_counter() - started)
        for result in results:
            spec[result.index] = result

    # Commit pass: serial index order, so the outcome is the serial one.
    commit_started = time.perf_counter()
    impact: Dict[bytes, int] = {}
    included: List[SignedTransaction] = []
    receipts: List[Receipt] = []
    for index, stx in enumerate(txs):
        result = spec[index]
        assert result is not None
        if result.receipt is not None and not _conflicts(result, impact):
            state.apply_effects(result.effects)
            _mark_impact(impact, result.effects, result.lane)
            receipts.append(result.receipt)
            included.append(stx)
            stats.speculative_commits += 1
            continue
        if result.receipt is not None:
            stats.conflicts += 1
        stats.reexecutions += 1
        if result.effects is not None:
            # The discarded speculative footprint still poisons later
            # same-lane results, which were speculated on top of it.
            _mark_impact(impact, result.effects, _REEXEC)
        replay = LaneState(state)
        replay.begin_access_window()
        try:
            receipt = vm.execute_transaction(replay, stx, block_ctx)
        except InvalidTransactionError:
            if mode == "verify":
                raise
            stats.invalid_dropped += 1
            continue
        effects = replay.finish_access_window()
        state.apply_effects(effects)
        _mark_impact(impact, effects, _REEXEC)
        receipts.append(receipt)
        included.append(stx)
    stats.commit_seconds = time.perf_counter() - commit_started

    if obs.TRACER.enabled:
        obs.count("chain.parallel.blocks")
        obs.count("chain.parallel.speculative_commits", stats.speculative_commits)
        obs.count("chain.parallel.reexecutions", stats.reexecutions)
    return BlockExecution(included=included, receipts=receipts, stats=stats)


def _execute_serial(
    vm: VM,
    state: WorldState,
    txs: Sequence[SignedTransaction],
    block_ctx: BlockContext,
    mode: str,
    stats: BlockExecutionStats,
) -> BlockExecution:
    included: List[SignedTransaction] = []
    receipts: List[Receipt] = []
    started = time.perf_counter()
    for stx in txs:
        try:
            receipt = vm.execute_transaction(state, stx, block_ctx)
        except InvalidTransactionError:
            if mode == "verify":
                raise
            stats.invalid_dropped += 1
            continue
        receipts.append(receipt)
        included.append(stx)
    # One "lane" spanning the whole block, so critical_path_seconds is
    # meaningful for serial blocks too (the sharding bench compares
    # per-shard serial block builds against a single serial chain).
    stats.lane_seconds.append(time.perf_counter() - started)
    return BlockExecution(included=included, receipts=receipts, stats=stats)


def _conflicts(result: _SpecResult, impact: Dict[bytes, int]) -> bool:
    """Did any account this tx observed get impacted by another lane?"""
    for address in result.effects.access.touched():
        owner = impact.get(address)
        if owner is not None and owner != result.lane:
            return True
    return False


def _mark_impact(impact: Dict[bytes, int], effects: TxEffects, lane: int) -> None:
    for address in effects.access.writes | set(effects.credits):
        previous = impact.get(address)
        if previous is None:
            impact[address] = lane
        elif previous != lane:
            impact[address] = _MIXED
