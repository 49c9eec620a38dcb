"""A full node: keeps the chain, the state per block, and a mempool.

Every node re-executes every imported block and refuses blocks whose
declared state root disagrees with its own execution — the "correct
computation" guarantee.  Fork choice is longest-chain (lowest hash as a
deterministic tiebreak).

Robustness machinery: every accepted block is appended to an
append-only :class:`~repro.chain.journal.ChainJournal`, so a crashed
node rebuilds its whole in-memory state by re-executing the journal on
restart; a number→hash index over the canonical chain makes
``block_by_number`` and peer sync O(1) per block; and a reorg returns
the abandoned branch's transactions to the mempool instead of silently
dropping them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import observability as obs
from repro.crypto import ecdsa
from repro.errors import ChainError, InvalidBlockError, InvalidTransactionError
from repro.chain.block import Block, BlockHeader, GENESIS_PARENT, transactions_root
from repro.chain.consensus import ConsensusEngine, PoAEngine
from repro.chain.contract import BlockContext
from repro.chain.gas import DEFAULT_SCHEDULE, GasSchedule
from repro.chain.journal import ChainJournal
from repro.chain.mempool import Mempool
from repro.chain.receipts import EMPTY_RECEIPTS_ROOT, Receipt, receipts_root
from repro.chain.state import WorldState
from repro.chain.transaction import SignedTransaction
from repro.chain.vm import VM

DEFAULT_BLOCK_GAS_LIMIT = 30_000_000


@dataclass
class GenesisConfig:
    """Initial balances and chain parameters."""

    allocations: Dict[bytes, int] = field(default_factory=dict)
    gas_limit: int = DEFAULT_BLOCK_GAS_LIMIT
    chain_id: int = 1337
    timestamp: int = 1_500_000_000
    #: Pre-installed contracts: address -> (registered contract name,
    #: initial storage).  Used by the sharded chain to place the
    #: cross-shard outbox/inbox at fixed addresses in every shard's
    #: genesis; empty for ordinary chains.
    contracts: Dict[bytes, Tuple[str, Dict[str, Any]]] = field(default_factory=dict)

    def build_state(self) -> WorldState:
        state = WorldState()
        for address, balance in self.allocations.items():
            state.credit(address, balance)
        for address, (contract_name, storage) in self.contracts.items():
            account = state.account(address)
            account.contract_name = contract_name
            account.storage = {key: value for key, value in storage.items()}
        return state

    def build_genesis_block(self) -> Block:
        state = self.build_state()
        header = BlockHeader(
            number=0,
            parent_hash=GENESIS_PARENT,
            timestamp=self.timestamp,
            miner=b"\x00" * 20,
            state_root=state.state_root(),
            tx_root=transactions_root([]),
            receipts_root=EMPTY_RECEIPTS_ROOT,
            gas_used=0,
            gas_limit=self.gas_limit,
            extra=b"zebralancer-genesis",
        )
        return Block(header=header, transactions=())


def execute_block(
    vm: VM,
    state: WorldState,
    transactions: Sequence[SignedTransaction],
    block_ctx: BlockContext,
    mode: str,
) -> Tuple[List[SignedTransaction], List[Receipt], float]:
    """Execute a block's transactions in order against ``state``, mutating it.

    ``mode="verify"`` (importers) raises
    :class:`~repro.errors.InvalidTransactionError` on an invalid
    transaction; ``mode="build"`` (miners) silently drops it.  Returns
    the included transactions, their receipts and the wall seconds the
    execution loop took.
    """
    if mode not in ("verify", "build"):
        raise ValueError(f"unknown execution mode {mode!r}")
    included: List[SignedTransaction] = []
    receipts: List[Receipt] = []
    started = time.perf_counter()
    for stx in transactions:
        try:
            receipt = vm.execute_transaction(state, stx, block_ctx)
        except InvalidTransactionError:
            if mode == "verify":
                raise
            continue
        receipts.append(receipt)
        included.append(stx)
    return included, receipts, time.perf_counter() - started


class Node:
    """One network participant (miner or plain full node)."""

    def __init__(
        self,
        name: str,
        genesis: GenesisConfig,
        engine: Optional[ConsensusEngine] = None,
        keypair: Optional[ecdsa.ECDSAKeyPair] = None,
        is_miner: bool = False,
        schedule: GasSchedule = DEFAULT_SCHEDULE,
        mempool_capacity: Optional[int] = None,
    ) -> None:
        self.name = name
        self.genesis = genesis
        self.keypair = keypair or ecdsa.ECDSAKeyPair.from_seed(name.encode())
        self.is_miner = is_miner
        self.engine = engine or PoAEngine([self.keypair.public_key])
        self.vm = VM(schedule=schedule, chain_id=genesis.chain_id)
        self.mempool = Mempool(capacity=mempool_capacity)
        self.journal = ChainJournal()
        self.crashed = False
        #: Counters for recovery tests: accepted imports / import calls.
        self.blocks_imported = 0
        self.import_attempts = 0
        #: Wall seconds the last block this node built spent executing
        #: its transactions (the shard throughput bench sums these).
        self.last_build_seconds = 0.0
        self._reset_in_memory_state()

    def _reset_in_memory_state(self) -> None:
        genesis_block = self.genesis.build_genesis_block()
        self._blocks: Dict[bytes, Block] = {genesis_block.block_hash: genesis_block}
        self._states: Dict[bytes, WorldState] = {
            genesis_block.block_hash: self.genesis.build_state()
        }
        self._receipts: Dict[bytes, Receipt] = {}
        # block hash -> ordered receipts (source of receipt proofs).
        self._block_receipts: Dict[bytes, Tuple[Receipt, ...]] = {
            genesis_block.block_hash: ()
        }
        self._head = genesis_block.block_hash
        # number -> hash of the canonical (head-ancestor) chain.
        self._canonical: Dict[int, bytes] = {0: genesis_block.block_hash}

    # ----- chain views --------------------------------------------------------------

    @property
    def address(self) -> bytes:
        return self.keypair.address()

    @property
    def head_block(self) -> Block:
        return self._blocks[self._head]

    @property
    def head_state(self) -> WorldState:
        return self._states[self._head]

    @property
    def height(self) -> int:
        return self.head_block.number

    def block_by_hash(self, block_hash: bytes) -> Optional[Block]:
        return self._blocks.get(block_hash)

    def block_by_number(self, number: int) -> Optional[Block]:
        """The canonical block at ``number`` (O(1) via the index)."""
        block_hash = self._canonical.get(number)
        return self._blocks.get(block_hash) if block_hash is not None else None

    def canonical_hash(self, number: int) -> Optional[bytes]:
        return self._canonical.get(number)

    def canonical_blocks(self, start: int, end: int) -> List[Block]:
        """Canonical blocks with numbers in ``[start, end]`` (for sync)."""
        blocks: List[Block] = []
        for number in range(start, end + 1):
            block = self.block_by_number(number)
            if block is None:
                break
            blocks.append(block)
        return blocks

    def get_receipt(self, tx_hash: bytes) -> Optional[Receipt]:
        return self._receipts.get(tx_hash)

    def receipts_for_block(self, block_hash: bytes) -> Optional[Tuple[Receipt, ...]]:
        """The ordered receipts of a locally executed block."""
        return self._block_receipts.get(block_hash)

    def balance_of(self, address: bytes) -> int:
        return self.head_state.balance_of(address)

    def nonce_of(self, address: bytes) -> int:
        return self.head_state.nonce_of(address)

    def call(
        self,
        address: bytes,
        method: str,
        args: Optional[List[Any]] = None,
        caller: Optional[bytes] = None,
    ) -> Any:
        """Execute a view method against the head state (free)."""
        block_ctx = BlockContext(
            number=self.height,
            timestamp=self.head_block.header.timestamp,
            coinbase=self.head_block.header.miner,
        )
        return self.vm.run_view(
            self.head_state, address, method, args or [], block_ctx, caller
        )

    # ----- mempool --------------------------------------------------------------------

    def submit_transaction(self, stx: SignedTransaction) -> bool:
        """Admit a transaction to the local pool (light validation).

        Inclusion-time validation is strict; admission only requires a
        valid signature, a plausible nonce and fee coverage.
        """
        self._require_live()
        if not stx.verify_signature():
            raise InvalidTransactionError("bad signature")
        if stx.transaction.chain_id != self.genesis.chain_id:
            raise InvalidTransactionError("wrong chain id")
        state = self.head_state
        if stx.transaction.nonce < state.nonce_of(stx.sender):
            raise InvalidTransactionError("stale nonce")
        if state.balance_of(stx.sender) < stx.max_cost():
            raise InvalidTransactionError("cannot cover value + max fee")
        return self.mempool.add(stx)

    # ----- block production --------------------------------------------------------------

    def create_block(self, timestamp: int) -> Block:
        """Mine a block on the current head from the local mempool."""
        self._require_live()
        if not self.is_miner:
            raise InvalidBlockError(f"node {self.name} is not a miner")
        parent = self.head_block
        with obs.span(
            "chain.create_block", node=self.name, number=parent.number + 1
        ) as mine_span:
            state = self.head_state.snapshot()
            block_ctx = BlockContext(
                number=parent.number + 1, timestamp=timestamp, coinbase=self.address
            )
            selected = self.mempool.select_for_block(
                self.genesis.gas_limit, state=self.head_state
            )
            included, receipts, self.last_build_seconds = execute_block(
                self.vm, state, selected, block_ctx, "build"
            )
            gas_used = sum(receipt.gas_used for receipt in receipts)
            header = BlockHeader(
                number=parent.number + 1,
                parent_hash=parent.block_hash,
                timestamp=timestamp,
                miner=self.address,
                state_root=state.state_root(),
                tx_root=transactions_root(included),
                receipts_root=receipts_root(receipts),
                gas_used=gas_used,
                gas_limit=self.genesis.gas_limit,
            )
            seal = self.engine.seal(header, self.keypair)
            sealed = BlockHeader(**{**header.__dict__, "seal": seal})
            block = Block(header=sealed, transactions=tuple(included))
            mine_span.set_attrs(txs=len(included), gas_used=gas_used)
            self.import_block(block)
        return block

    # ----- block import --------------------------------------------------------------------

    def import_block(self, block: Block) -> bool:
        """Validate, re-execute and adopt a block; returns False if known."""
        self._require_live()
        self.import_attempts += 1
        if block.block_hash in self._blocks:
            return False
        with obs.span(
            "chain.import_block",
            node=self.name,
            number=block.number,
            txs=len(block.transactions),
        ):
            return self._import_block_inner(block)

    def _import_block_inner(self, block: Block) -> bool:
        parent_state = self._states.get(block.header.parent_hash)
        parent_block = self._blocks.get(block.header.parent_hash)
        if parent_state is None or parent_block is None:
            raise InvalidBlockError("unknown parent block")
        if block.number != parent_block.number + 1:
            raise InvalidBlockError("non-consecutive block number")
        if block.header.timestamp < parent_block.header.timestamp:
            raise InvalidBlockError("timestamp moves backwards")
        self.engine.validate_seal(block.header)
        if block.header.tx_root != transactions_root(list(block.transactions)):
            raise InvalidBlockError("transaction root mismatch")

        state = parent_state.snapshot()
        block_ctx = BlockContext(
            number=block.number,
            timestamp=block.header.timestamp,
            coinbase=block.header.miner,
        )
        try:
            _, receipts, _ = execute_block(
                self.vm, state, block.transactions, block_ctx, "verify"
            )
        except InvalidTransactionError as exc:
            raise InvalidBlockError(f"invalid transaction in block: {exc}") from exc
        if sum(receipt.gas_used for receipt in receipts) != block.header.gas_used:
            raise InvalidBlockError("gas-used mismatch after re-execution")
        if state.state_root() != block.header.state_root:
            raise InvalidBlockError("state root mismatch after re-execution")
        if receipts_root(receipts) != block.header.receipts_root:
            raise InvalidBlockError("receipts root mismatch after re-execution")

        self._blocks[block.block_hash] = block
        self._states[block.block_hash] = state
        self._block_receipts[block.block_hash] = tuple(receipts)
        for receipt in receipts:
            self._receipts[receipt.tx_hash] = receipt
        self.blocks_imported += 1
        if not self._replaying:
            self.journal.append(block)
        self.mempool.drop_included(block.transactions)
        self._maybe_reorg(block)
        self.mempool.prune_stale(self.head_state)
        if obs.TRACER.enabled:
            obs.count("chain.blocks_imported")
            obs.gauge_set("chain.height", self.height)
            obs.gauge_set("chain.mempool_depth", len(self.mempool))
        return True

    def _maybe_reorg(self, candidate: Block) -> None:
        """Adopt ``candidate`` as head if fork choice prefers it.

        On a branch switch the abandoned branch's transactions return to
        the mempool (if still valid on the new head) so a reorg never
        silently loses a submission.
        """
        head = self.head_block
        better = candidate.number > head.number or (
            candidate.number == head.number and candidate.block_hash < head.block_hash
        )
        if not better:
            return
        # Walk the candidate's ancestry down to the canonical chain;
        # cheap in the common extend-head case (one step).
        new_branch: List[Block] = []
        ancestor = candidate
        while (
            ancestor.number > 0
            and self._canonical.get(ancestor.number) != ancestor.block_hash
        ):
            new_branch.append(ancestor)
            parent = self._blocks.get(ancestor.header.parent_hash)
            if parent is None:  # cannot happen: imports require known parents
                raise InvalidBlockError("broken ancestry during reorg")
            ancestor = parent
        fork_height = ancestor.number
        orphaned: List[Block] = [
            self._blocks[self._canonical[number]]
            for number in range(fork_height + 1, head.number + 1)
            if number in self._canonical
        ]
        for number in range(candidate.number + 1, head.number + 1):
            self._canonical.pop(number, None)
        for block in new_branch:
            self._canonical[block.number] = block.block_hash
        self._head = candidate.block_hash
        if orphaned:
            if obs.TRACER.enabled:
                obs.count("chain.reorgs")
                obs.observe(
                    "chain.reorg_depth", len(orphaned),
                    buckets=(1, 2, 3, 5, 8, 13, 21),
                )
            self._reinject_orphaned(orphaned, fork_height)

    def _reinject_orphaned(self, orphaned: List[Block], fork_height: int) -> None:
        adopted_hashes = {
            stx.tx_hash
            for number in range(fork_height + 1, self.head_block.number + 1)
            for stx in self._blocks[self._canonical[number]].transactions
        }
        state = self.head_state
        for block in orphaned:
            for stx in block.transactions:
                if stx.tx_hash in adopted_hashes:
                    continue
                if stx.transaction.nonce < state.nonce_of(stx.sender):
                    continue  # superseded on the adopted branch
                self.mempool.add(stx)

    # ----- crash / recovery ------------------------------------------------------------

    _replaying = False

    def _require_live(self) -> None:
        if self.crashed:
            raise ChainError(f"node {self.name} is down")

    def crash(self) -> None:
        """Lose every in-memory structure; only the journal survives."""
        self.crashed = True
        self.mempool = Mempool(
            ordering=self.mempool.ordering, capacity=self.mempool.capacity
        )
        self._blocks = {}
        self._states = {}
        self._receipts = {}
        self._block_receipts = {}
        self._canonical = {}

    def restart(self) -> int:
        """Rebuild chain + state by re-executing the journal.

        Returns the number of replayed blocks.  Receipts and per-block
        states come back automatically because recovery *re-executes*
        rather than trusting any snapshot.
        """
        self.crashed = False
        self._reset_in_memory_state()
        replayed = 0
        self._replaying = True
        try:
            for block in self.journal.replay():
                if self.import_block(block):
                    replayed += 1
        finally:
            self._replaying = False
        return replayed

    # ----- invariants ------------------------------------------------------------------------

    def chain_to_genesis(self) -> List[Block]:
        """The head's ancestor chain, genesis first."""
        return self.canonical_blocks(0, self.height)
