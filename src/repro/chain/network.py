"""The P2P network simulation and the paper-shaped test net.

:class:`Network` connects nodes, gossips transactions and blocks (with
an optional adversary that may observe, reorder, drop, or inject
traffic before delivery — exactly the power §III grants the network
adversary over not-yet-mined transactions).  A seedable
:class:`~repro.chain.faults.FaultPlan` adds the operational half of
that adversary: per-link drops, block-tick delay queues, duplication,
scheduled node crash/restart and partition windows.  :class:`Testnet`
is a convenience facade reproducing the paper's deployment: a handful
of nodes, some of them miners, with a faucet for funding one-task-only
addresses.

Recovery: :meth:`Network.sync_node` implements a head-relative peer
sync (find the common ancestor over the canonical-number index, import
only the blocks above it) which both :meth:`Network.heal` and delayed
/ out-of-order block delivery fall back on — no full-chain replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol, Set, Tuple

from repro.crypto import ecdsa
from repro.errors import ChainError, InvalidBlockError, InvalidTransactionError
from repro.chain.block import Block
from repro.chain.clock import SimClock
from repro.chain.consensus import ConsensusEngine, PoAEngine
from repro.chain.faults import BLOCK, TX, FaultPlan
from repro.chain.node import GenesisConfig, Node
from repro.chain.transaction import SignedTransaction, Transaction
from repro.chain.txsender import TxSender


class NetworkAdversary(Protocol):
    """Hooks an adversary may implement (all optional in spirit).

    ``on_transaction`` is called before a broadcast transaction is
    delivered and returns the list of transactions that actually get
    delivered — returning ``[]`` censors, returning extra transactions
    injects (e.g. the free-rider's copy), reordering happens naturally
    by submitting ahead of the victim with a higher gas price.
    """

    def on_transaction(self, stx: SignedTransaction) -> List[SignedTransaction]:
        ...


@dataclass
class NetworkStats:
    """Fault/recovery accounting (read by the chaos bench and tests)."""

    delivered: int = 0
    dropped: int = 0
    delayed: int = 0
    duplicated: int = 0
    syncs: int = 0
    sync_blocks: int = 0
    crashes: int = 0
    restarts: int = 0


@dataclass
class _Delayed:
    release_height: int
    kind: str
    payload: Any
    receiver: Node
    origin: Optional[Node]


class Network:
    """Gossip fabric between nodes (with optional fault injection)."""

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.clock = clock or SimClock()
        self.nodes: List[Node] = []
        self.adversary: Optional[NetworkAdversary] = None
        self.fault_plan = fault_plan
        self.stats = NetworkStats()
        self.transaction_log: List[SignedTransaction] = []
        self._partition_of: Dict[int, int] = {}  # id(node) -> group
        self._delayed: List[_Delayed] = []
        # Node *names*, not id()s: recovery sync must run in the stable
        # node-list order, or two same-seed runs could heal in different
        # orders (id() follows the allocator) and diverge their stats.
        self._needs_sync: Set[str] = set()
        self._plan_crashed: Set[int] = set()  # nodes the plan took down

    def add_node(self, node: Node) -> Node:
        self.nodes.append(node)
        return node

    @property
    def height(self) -> int:
        """Best height over live nodes (the fabric's notion of "now")."""
        live = [node.height for node in self.nodes if not node.crashed]
        return max(live, default=0)

    def node_named(self, name: str) -> Node:
        for node in self.nodes:
            if node.name == name:
                return node
        raise ChainError(f"no node named {name!r}")

    # ----- partitions --------------------------------------------------------------

    def partition(self, *groups: List[Node]) -> None:
        """Split the network: gossip only flows within each group.

        Nodes not named in any group keep receiving everything (they
        model multi-homed peers).  Call :meth:`heal` to reconnect.
        """
        self._partition_of = {}
        for index, group in enumerate(groups):
            for node in group:
                self._partition_of[id(node)] = index

    def heal(self) -> None:
        """Reconnect everyone and head-sync each node from its best peer."""
        self._partition_of = {}
        self.sync_all()

    def _reachable(self, sender: Optional[Node], receiver: Node) -> bool:
        if not self._partition_of or sender is None:
            return True
        sender_group = self._partition_of.get(id(sender))
        receiver_group = self._partition_of.get(id(receiver))
        if sender_group is None or receiver_group is None:
            return True
        return sender_group == receiver_group

    # ----- peer sync ----------------------------------------------------------------

    def sync_all(self) -> None:
        for node in self.nodes:
            if not node.crashed:
                self.sync_node(node)

    def sync_node(self, node: Node) -> int:
        """Pull the blocks ``node`` is missing from its best peer.

        Implements the head-relative sync protocol: pick the reachable
        peer whose head wins fork choice, find the highest height where
        the two canonical chains agree, and import only the peer's
        blocks above it.  Returns the number of imported blocks.
        """
        if node.crashed:
            return 0
        best: Optional[Node] = None
        for peer in self.nodes:
            if peer is node or peer.crashed or not self._reachable(peer, node):
                continue
            if best is None or _head_wins(peer, best):
                best = peer
        if best is None or not _head_wins(best, node):
            return 0
        self.stats.syncs += 1
        ancestor = _common_ancestor_height(node, best)
        imported = 0
        for block in best.canonical_blocks(ancestor + 1, best.height):
            try:
                if node.import_block(block):
                    imported += 1
            except (InvalidBlockError, ChainError):
                break  # descendants cannot import either; retry next tick
        self.stats.sync_blocks += imported
        return imported

    # ----- fault plan ---------------------------------------------------------------

    def _link_delays(self, kind: str, origin: Optional[Node], node: Node) -> List[int]:
        if self.fault_plan is None:
            return [0]
        origin_name = origin.name if origin is not None else None
        delays = self.fault_plan.deliveries(kind, origin_name, node.name)
        if not delays:
            self.stats.dropped += 1
        if len(delays) > 1:
            self.stats.duplicated += len(delays) - 1
        return delays

    def tick(self, height: int) -> None:
        """Advance the fault schedule to ``height`` (call per mined block).

        Applies crash/restart and partition windows, releases due
        delayed deliveries, and runs recovery sync for nodes that saw
        out-of-order blocks or just restarted.
        """
        if self.fault_plan is not None:
            self._apply_crash_schedule(height)
            self._apply_partition_schedule(height)
        self._flush_delayed(height)
        # Dropped gossip leaves silent gaps: any live node more than one
        # block behind the best head pulls from a peer (push is lossy,
        # pull is reliable).
        best_height = self.height
        for node in self.nodes:
            if not node.crashed and node.height + 1 < best_height:
                self._needs_sync.add(node.name)
        for node in self.nodes:
            if node.name in self._needs_sync:
                self.sync_node(node)
        self._needs_sync.clear()

    def _apply_crash_schedule(self, height: int) -> None:
        if self.fault_plan is None:
            raise ChainError("no fault plan to take crashes from")
        for node in self.nodes:
            down = self.fault_plan.crashed_at(node.name, height)
            if down and not node.crashed:
                node.crash()
                self._plan_crashed.add(id(node))
                self.stats.crashes += 1
            elif not down and node.crashed and id(node) in self._plan_crashed:
                node.restart()
                self._plan_crashed.discard(id(node))
                self.stats.restarts += 1
                self._needs_sync.add(node.name)

    def _apply_partition_schedule(self, height: int) -> None:
        if self.fault_plan is None:
            raise ChainError("no fault plan to take partitions from")
        groups = self.fault_plan.partition_groups(height)
        if groups is None:
            if self._partition_of:
                self.heal()
            return
        self.partition(
            *[[self.node_named(name) for name in group] for group in groups]
        )

    def _flush_delayed(self, height: int) -> None:
        due = [d for d in self._delayed if d.release_height <= height]
        self._delayed = [d for d in self._delayed if d.release_height > height]
        for delivery in due:
            if delivery.receiver.crashed:
                self.stats.dropped += 1
                continue
            if not self._reachable(delivery.origin, delivery.receiver):
                self.stats.dropped += 1
                continue
            if delivery.kind == TX:
                self._deliver_transaction(delivery.receiver, delivery.payload)
            else:
                self._deliver_block(delivery.receiver, delivery.payload)

    # ----- gossip -------------------------------------------------------------------

    def broadcast_transaction(
        self, stx: SignedTransaction, origin: Optional[Node] = None
    ) -> None:
        """Gossip a transaction to every reachable node (via the adversary)."""
        deliveries = [stx]
        if self.adversary is not None:
            deliveries = self.adversary.on_transaction(stx)
        for delivered in deliveries:
            self.transaction_log.append(delivered)
            for node in self.nodes:
                if node.crashed or not self._reachable(origin, node):
                    continue
                self._dispatch(TX, delivered, node, origin)

    def broadcast_block(self, block: Block, origin: Node) -> None:
        for node in self.nodes:
            if node is origin or node.crashed:
                continue
            if not self._reachable(origin, node):
                continue
            self._dispatch(BLOCK, block, node, origin)

    def _dispatch(
        self, kind: str, payload: Any, node: Node, origin: Optional[Node]
    ) -> None:
        for delay in self._link_delays(kind, origin, node):
            if delay > 0:
                self.stats.delayed += 1
                self._delayed.append(
                    _Delayed(self.height + delay, kind, payload, node, origin)
                )
            elif kind == TX:
                self._deliver_transaction(node, payload)
            else:
                self._deliver_block(node, payload)

    def _deliver_transaction(self, node: Node, stx: SignedTransaction) -> None:
        try:
            node.submit_transaction(stx)
            self.stats.delivered += 1
        except InvalidTransactionError:
            pass  # nodes drop junk silently

    def _deliver_block(self, node: Node, block: Block) -> None:
        try:
            node.import_block(block)
            self.stats.delivered += 1
        except InvalidBlockError:
            # Unknown parent (delayed/dropped ancestor): schedule a
            # head-relative sync instead of losing the block forever.
            self._needs_sync.add(node.name)

    def pending_transactions(self) -> List[SignedTransaction]:
        """The union view of pending traffic (what an observer sees)."""
        seen: Dict[bytes, SignedTransaction] = {}
        for node in self.nodes:
            if node.crashed:
                continue
            for stx in node.mempool.pending():
                seen.setdefault(stx.tx_hash, stx)
        return list(seen.values())


def _head_wins(contender: Node, incumbent: Node) -> bool:
    """Longest-chain fork choice with the lowest-hash tiebreak."""
    if contender.height != incumbent.height:
        return contender.height > incumbent.height
    return contender.head_block.block_hash < incumbent.head_block.block_hash


def _common_ancestor_height(node: Node, peer: Node) -> int:
    height = min(node.height, peer.height)
    while height > 0 and node.canonical_hash(height) != peer.canonical_hash(height):
        height -= 1
    return height


class Testnet:
    """The paper's deployment shape: miners + full nodes + a faucet.

    (``__test__ = False`` keeps pytest from trying to collect this.)

    Defaults mirror Section VI: two miners and two non-mining full
    nodes (one of which a requester client attaches to, the other the
    workers').  ``mine_block`` advances the chain by one block and one
    block interval of simulated time.
    """

    __test__ = False

    def __init__(
        self,
        miners: int = 2,
        full_nodes: int = 2,
        block_interval: int = 15,
        gas_limit: int = 30_000_000,
        initial_faucet_balance: int = 10**30,
        engine: Optional[ConsensusEngine] = None,
        fault_plan: Optional[FaultPlan] = None,
        mempool_capacity: Optional[int] = None,
        faucet_seed: bytes = b"testnet-faucet",
        extra_allocations: Optional[Dict[bytes, int]] = None,
        genesis_contracts: Optional[Dict[bytes, Tuple[str, Dict[str, Any]]]] = None,
    ) -> None:
        if miners < 1:
            raise ValueError("need at least one miner")
        self.block_interval = block_interval
        self.clock = SimClock()
        self.network = Network(self.clock, fault_plan=fault_plan)
        self.tx_sender = TxSender(self)
        # Sharded deployments give every shard a distinct faucet seed so
        # no honest account holds balance on two shards (the cross-shard
        # replay guard); the default seed keeps single-chain genesis
        # byte-identical to every chain built before sharding existed.
        self.faucet_key = ecdsa.ECDSAKeyPair.from_seed(faucet_seed)

        miner_keys = [
            ecdsa.ECDSAKeyPair.from_seed(f"miner-{i}".encode()) for i in range(miners)
        ]
        self.engine = engine or PoAEngine([k.public_key for k in miner_keys])
        allocations = {self.faucet_key.address(): initial_faucet_balance}
        if extra_allocations:
            for address, balance in extra_allocations.items():
                allocations[address] = allocations.get(address, 0) + balance
        genesis = GenesisConfig(
            allocations=allocations,
            gas_limit=gas_limit,
            contracts=dict(genesis_contracts) if genesis_contracts else {},
        )
        self.genesis = genesis
        self.miners: List[Node] = [
            self.network.add_node(
                Node(
                    name=f"miner-{i}",
                    genesis=genesis,
                    engine=self.engine,
                    keypair=key,
                    is_miner=True,
                    mempool_capacity=mempool_capacity,
                )
            )
            for i, key in enumerate(miner_keys)
        ]
        self.full_nodes: List[Node] = [
            self.network.add_node(
                Node(
                    name=f"full-{i}",
                    genesis=genesis,
                    engine=self.engine,
                    mempool_capacity=mempool_capacity,
                )
            )
            for i in range(full_nodes)
        ]
    # ----- views ----------------------------------------------------------------

    @property
    def any_node(self) -> Node:
        """A live node to read the chain through, freshest head first.

        Clients fail over on both liveness and staleness: among the
        nodes still up, attach to the one whose head wins fork choice
        (a provider that missed gossip would serve stale contract
        state).  Full nodes win ties over miners.
        """
        best: Optional[Node] = None
        for node in [*self.full_nodes, *self.miners]:
            if node.crashed:
                continue
            if best is None or _head_wins(node, best):
                best = node
        if best is None:
            raise ChainError("every node is down")
        return best

    @property
    def height(self) -> int:
        return self.any_node.height

    # ----- actions ----------------------------------------------------------------

    def send_transaction(self, stx: SignedTransaction) -> bytes:
        """Broadcast a signed transaction; returns its hash."""
        self.network.broadcast_transaction(stx)
        return stx.tx_hash

    def mine_block(self) -> Block:
        """Let the scheduled miner seal the next block and gossip it."""
        height = self.network.height + 1
        proposer_address = self.engine.expected_proposer(height)
        miner = self.miners[0]
        if proposer_address is not None:
            for candidate in self.miners:
                if candidate.address == proposer_address:
                    miner = candidate
                    break
            else:
                raise ChainError("no local miner matches the expected proposer")
        if miner.crashed:
            raise ChainError(f"scheduled proposer {miner.name} is down")
        # A proposer that missed gossip must catch up before sealing.
        if miner.height + 1 < height:
            self.network.sync_node(miner)
        if miner.height + 1 != height:
            raise ChainError(f"proposer {miner.name} cannot reach the head")
        timestamp = self.clock.advance(self.block_interval)
        block = miner.create_block(timestamp)
        self.network.broadcast_block(block, origin=miner)
        self.network.tick(block.number)
        return block

    def mine_blocks(self, count: int) -> List[Block]:
        return [self.mine_block() for _ in range(count)]

    def mine_until(self, predicate: Callable[[], bool], max_blocks: int = 64) -> None:
        """Mine until ``predicate()`` holds (or fail loudly)."""
        for _ in range(max_blocks):
            if predicate():
                return
            self.mine_block()
        if not predicate():
            raise ChainError(f"condition not reached within {max_blocks} blocks")

    def _faucet_tx(self, address: bytes, amount: int) -> Transaction:
        return Transaction(
            nonce=self.tx_sender.nonces.reserve(self.faucet_key.address()),
            gas_price=1,
            gas_limit=50_000,
            to=address,
            value=amount,
            chain_id=self.genesis.chain_id,
        )

    def fund(
        self, address: bytes, amount: int, near: Optional[bytes] = None
    ) -> None:
        """Faucet-transfer ``amount`` to ``address`` and mine until it lands.

        ``near`` is a co-location hint consumed by the sharded facade
        (fund the account on the shard owning ``near``); a single-chain
        testnet has one shard, so it is accepted and ignored here.
        """
        self.tx_sender.confirm_all([self.fund_async(address, amount, near)])

    def fund_async(self, address: bytes, amount: int, near: Optional[bytes] = None):
        """Broadcast a faucet transfer without mining (batched funding).

        Returns the :class:`~repro.chain.txsender.PendingTx`; concurrent
        callers get consecutive faucet nonces from the shared
        :class:`~repro.chain.txsender.NonceManager`, so a whole funding
        wave coexists in the mempool and lands in one block.  ``near``
        is the sharded facade's co-location hint, ignored here.
        """
        del near
        return self.tx_sender.broadcast(
            self._faucet_tx(address, amount), self.faucet_key
        )

    def wait_for_receipt(self, tx_hash: bytes, max_blocks: int = 16):
        """Mine until the transaction is included; returns its receipt."""
        self.mine_until(
            lambda: self.any_node.get_receipt(tx_hash) is not None, max_blocks
        )
        return self.any_node.get_receipt(tx_hash)

    def assert_consensus(self) -> None:
        """All nodes agree on head hash and state root (test invariant)."""
        down = [node.name for node in self.network.nodes if node.crashed]
        if down:
            raise ChainError(f"cannot assert consensus while nodes are down: {down}")
        heads = {node.head_block.block_hash for node in self.network.nodes}
        if len(heads) != 1:
            raise ChainError("nodes diverged on the head block")
        roots = {node.head_state.state_root() for node in self.network.nodes}
        if len(roots) != 1:
            raise ChainError("nodes diverged on state")
