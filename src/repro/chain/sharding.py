"""Static chain sharding by task-contract address, with cross-shard
reward settlement.

A *shard* is an independent sub-chain that owns a static slice of the
contract address space; value crosses shards only as messages.
:class:`ShardedChain` runs S independent
:class:`~repro.chain.network.Testnet` sub-chains (each with its own
miners, mempool, faucet and serial block production), statically
routes every transaction to the home shard of the contract it touches,
and settles value *between* shards through a burn-and-mint bridge:

- **Outbox** (source shard): ``ShardOutbox.send(dest, recipient)``
  escrow-burns the attached value, assigns the next per-channel
  sequence number and emits an ``XShardSend`` log carrying the full
  :class:`XShardMessage` wire.  The log lands in a receipt, which lands
  under the block's ``receipts_root`` — the existing light-client
  commitment is the bridge's proof substrate.
- **Beacon**: after every round the beacon authority signs a
  :class:`ShardAnchor` per shard head (block hash + receipts root +
  state root) and chains them into :class:`BeaconBlock` s — the single
  consistent ordering of shard headers that light clients and the
  engine observe.
- **Inbox** (destination shard): ``ShardInbox.deliver`` verifies the
  beacon signature over the anchor, the Merkle receipt proof against
  the anchored ``receipts_root``, that the claimed message really was
  emitted by the outbox in that receipt, and that the message's
  sequence number equals the per-source-shard inbound nonce.  Only then
  does it re-mint and pay out.  Duplicates, replays and forged proofs
  all fail closed; the inbound nonce makes application exactly-once.

Conservation: every cross-shard send burns on the source shard and
mints exactly once on the destination, so

    sum(shard total supplies) + in-flight value == initial supply

holds at every instant (``in_flight_value`` reads the cumulative
sent/received counters straight from contract storage).

``ShardedChain(shards=1)`` is a pure veneer over a single standard
``Testnet`` — no bridge contracts, no extra allocations, byte-identical
blocks — so the differential suite can pin the sharded runtime to the
unsharded chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.crypto import ecdsa
from repro.crypto.hashing import keccak256, sha256
from repro.errors import ChainError, SignatureError
from repro.serialization import framed_decode, framed_encode
from repro.chain.address import contract_address
from repro.chain.block import Block
from repro.chain.contract import Contract, ContractRegistry, external, view
from repro.chain.faults import FaultPlan
from repro.chain.network import NetworkStats, Testnet
from repro.chain.receipts import (
    Receipt,
    ReceiptProof,
    prove_receipt_inclusion,
    verify_receipt_proof,
)
from repro.chain.transaction import SignedTransaction, Transaction, encode_call
from repro.chain.txsender import PendingTx, TxAbandonedError, TxSender

__test__ = False

_MAGIC_MESSAGE = b"ZLXM"
_MAGIC_ANCHOR = b"ZLSA"
_MAGIC_BEACON = b"ZLBB"
_WIRE_VERSION = 1

#: Fixed bridge addresses, pre-installed in every shard's genesis (S>1).
OUTBOX_ADDRESS = keccak256(b"zebralancer/xshard/outbox")[:20]
INBOX_ADDRESS = keccak256(b"zebralancer/xshard/inbox")[:20]

XSHARD_SEND_EVENT = "XShardSend"
XSHARD_DELIVERED_EVENT = "XShardDelivered"

#: Deterministic infrastructure keys (relayer pays delivery gas; the
#: beacon authority signs shard anchors).
RELAYER_SEED = b"xshard-relayer"
BEACON_SEED = b"xshard-beacon"

DELIVER_GAS_LIMIT = 2_000_000
SEND_GAS_LIMIT = 500_000

GENESIS_BEACON_PARENT = b"\x00" * 32


def home_shard(address: bytes, shards: int) -> int:
    """The static shard assignment of an address (hash-uniform)."""
    if shards < 1:
        raise ValueError("need at least one shard")
    if shards == 1:
        return 0
    return int.from_bytes(keccak256(b"zl-shard-assign", address)[:8], "big") % shards


def _require_address(value: Any, what: str) -> bytes:
    if not isinstance(value, (bytes, bytearray)) or len(value) != 20:
        raise ValueError(f"{what} must be a 20-byte address")
    return bytes(value)


def _require_hash(value: Any, what: str) -> bytes:
    if not isinstance(value, (bytes, bytearray)) or len(value) != 32:
        raise ValueError(f"{what} must be a 32-byte hash")
    return bytes(value)


def _require_uint(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{what} must be a non-negative int")
    return value


# ----- wire formats -------------------------------------------------------------------


@dataclass(frozen=True)
class XShardMessage:
    """One cross-shard value transfer, as emitted by the source outbox.

    ``seq`` is the per-(source, dest) channel sequence number — the
    destination inbox applies messages in exactly this order, which is
    what makes delivery exactly-once.  ``source_block`` pins the block
    whose anchored receipts root must prove the send.
    """

    source_shard: int
    dest_shard: int
    seq: int
    source_block: int
    sender: bytes
    recipient: bytes
    amount: int

    def to_wire(self) -> bytes:
        return framed_encode(
            _MAGIC_MESSAGE,
            _WIRE_VERSION,
            [
                self.source_shard,
                self.dest_shard,
                self.seq,
                self.source_block,
                self.sender,
                self.recipient,
                self.amount,
            ],
        )

    @classmethod
    def from_wire(cls, data: bytes) -> "XShardMessage":
        fields = framed_decode(_MAGIC_MESSAGE, _WIRE_VERSION, data)
        if not isinstance(fields, list) or len(fields) != 7:
            raise ValueError("cross-shard message must hold exactly seven fields")
        source_shard, dest_shard, seq, source_block, sender, recipient, amount = fields
        source_shard = _require_uint(source_shard, "source shard")
        dest_shard = _require_uint(dest_shard, "destination shard")
        if source_shard == dest_shard:
            raise ValueError("a cross-shard message cannot target its own shard")
        amount = _require_uint(amount, "amount")
        if amount == 0:
            raise ValueError("a cross-shard message must carry positive value")
        return cls(
            source_shard=source_shard,
            dest_shard=dest_shard,
            seq=_require_uint(seq, "sequence number"),
            source_block=_require_uint(source_block, "source block"),
            sender=_require_address(sender, "sender"),
            recipient=_require_address(recipient, "recipient"),
            amount=amount,
        )


@dataclass(frozen=True)
class ShardAnchor:
    """One shard head as committed by the beacon.

    The anchor is what a destination inbox (and any light client)
    trusts about a foreign shard: the beacon signature over this wire
    authenticates the ``receipts_root`` that receipt proofs verify
    against.
    """

    shard: int
    number: int
    block_hash: bytes
    receipts_root: bytes
    state_root: bytes

    def to_wire(self) -> bytes:
        return framed_encode(
            _MAGIC_ANCHOR,
            _WIRE_VERSION,
            [
                self.shard,
                self.number,
                self.block_hash,
                self.receipts_root,
                self.state_root,
            ],
        )

    @classmethod
    def from_wire(cls, data: bytes) -> "ShardAnchor":
        fields = framed_decode(_MAGIC_ANCHOR, _WIRE_VERSION, data)
        if not isinstance(fields, list) or len(fields) != 5:
            raise ValueError("shard anchor must hold exactly five fields")
        shard, number, block_hash, receipts_root, state_root = fields
        return cls(
            shard=_require_uint(shard, "shard"),
            number=_require_uint(number, "block number"),
            block_hash=_require_hash(block_hash, "block hash"),
            receipts_root=_require_hash(receipts_root, "receipts root"),
            state_root=_require_hash(state_root, "state root"),
        )

    def signing_digest(self) -> bytes:
        return sha256(b"zl-shard-anchor", self.to_wire())

    @classmethod
    def of_block(cls, shard: int, block: Block) -> "ShardAnchor":
        return cls(
            shard=shard,
            number=block.number,
            block_hash=block.block_hash,
            receipts_root=block.header.receipts_root,
            state_root=block.header.state_root,
        )


@dataclass(frozen=True)
class BeaconBlock:
    """One beacon round: the ordered tuple of signed shard anchors.

    ``anchors`` holds (anchor_wire, signature) pairs, one per shard in
    shard order; ``parent`` hash-chains rounds so the header stream is
    fork-free for consumers.
    """

    number: int
    parent: bytes
    anchors: Tuple[Tuple[bytes, bytes], ...]

    def to_wire(self) -> bytes:
        return framed_encode(
            _MAGIC_BEACON,
            _WIRE_VERSION,
            [
                self.number,
                self.parent,
                [[wire, signature] for wire, signature in self.anchors],
            ],
        )

    @classmethod
    def from_wire(cls, data: bytes) -> "BeaconBlock":
        fields = framed_decode(_MAGIC_BEACON, _WIRE_VERSION, data)
        if not isinstance(fields, list) or len(fields) != 3:
            raise ValueError("beacon block must hold exactly three fields")
        number, parent, anchors = fields
        if not isinstance(anchors, list) or not anchors:
            raise ValueError("beacon block must anchor at least one shard")
        pairs: List[Tuple[bytes, bytes]] = []
        for item in anchors:
            if not isinstance(item, list) or len(item) != 2:
                raise ValueError("each anchor entry must be [wire, signature]")
            wire, signature = item
            if not isinstance(wire, bytes) or not isinstance(signature, bytes):
                raise ValueError("anchor entries must be byte strings")
            ShardAnchor.from_wire(wire)  # reject junk anchors at the frame
            pairs.append((wire, signature))
        return cls(
            number=_require_uint(number, "beacon number"),
            parent=_require_hash(parent, "parent hash"),
            anchors=tuple(pairs),
        )

    @property
    def beacon_hash(self) -> bytes:
        return sha256(b"zl-beacon-block", self.to_wire())


# ----- bridge contracts ---------------------------------------------------------------


@ContractRegistry.register
class ShardOutbox(Contract):
    """Source-shard half of the bridge: escrow-burn and log the send.

    Pre-installed at :data:`OUTBOX_ADDRESS` in every shard's genesis
    with storage ``{"shard": k, "shards": S}``.
    """

    contract_name = "ShardOutbox"

    @external
    def send(self, dest_shard: int, recipient: bytes) -> int:
        shards = self.storage["shards"]
        local = self.storage["shard"]
        self.require(
            isinstance(dest_shard, int) and 0 <= dest_shard < shards,
            "destination shard out of range",
        )
        self.require(dest_shard != local, "destination is the local shard")
        self.require(
            isinstance(recipient, (bytes, bytearray)) and len(recipient) == 20,
            "recipient must be a 20-byte address",
        )
        amount = self.msg_value
        self.require(amount > 0, "a cross-shard send must carry value")
        seq_key = f"seq:{dest_shard}"
        seq = self.storage.get(seq_key, 0)
        message = XShardMessage(
            source_shard=local,
            dest_shard=dest_shard,
            seq=seq,
            source_block=self.block_number,
            sender=self.msg_sender,
            recipient=bytes(recipient),
            amount=amount,
        )
        # Burn the escrowed value: the destination inbox re-mints it
        # exactly once, keeping sum(supplies) + in-flight constant.
        self._ctx.state.debit(self.address, amount)
        self.storage[seq_key] = seq + 1
        sent_key = f"sent:{dest_shard}"
        self.storage[sent_key] = self.storage.get(sent_key, 0) + amount
        self.emit(XSHARD_SEND_EVENT, wire=message.to_wire())
        return seq

    @view
    def next_seq(self, dest_shard: int) -> int:
        return self.storage.get(f"seq:{dest_shard}", 0)

    @view
    def total_sent(self, dest_shard: int) -> int:
        return self.storage.get(f"sent:{dest_shard}", 0)


@ContractRegistry.register
class ShardInbox(Contract):
    """Destination-shard half: verify, apply exactly once, re-mint.

    Pre-installed at :data:`INBOX_ADDRESS` with storage
    ``{"shard": k, "shards": S, "beacon": <beacon address>}``.
    """

    contract_name = "ShardInbox"

    @external
    def deliver(
        self,
        anchor_wire: bytes,
        anchor_signature: bytes,
        receipt: Any,
        index: int,
        siblings: List[bytes],
        message_wire: bytes,
    ) -> int:
        try:
            anchor = ShardAnchor.from_wire(bytes(anchor_wire))
            message = XShardMessage.from_wire(bytes(message_wire))
        except (ValueError, TypeError) as exc:
            self.require(False, f"malformed cross-shard payload: {exc}")
            raise  # unreachable; keeps type checkers honest

        # 1. The anchor must be signed by the beacon authority.
        try:
            signature = ecdsa.ECDSASignature.from_bytes(bytes(anchor_signature))
            ecdsa.require_low_s(signature)
            signer = ecdsa.recover_address(anchor.signing_digest(), signature)
        except (SignatureError, ValueError, TypeError):
            signer = None
        self.require(signer == self.storage["beacon"], "anchor not signed by the beacon")

        # 2. The message must target this shard and match the anchor.
        self.require(
            message.dest_shard == self.storage["shard"],
            "message targets a different shard",
        )
        self.require(
            message.source_shard == anchor.shard,
            "message and anchor disagree on the source shard",
        )
        self.require(
            message.source_block == anchor.number,
            "message and anchor disagree on the source block",
        )

        # 3. The send receipt must sit under the anchored receipts root.
        self.require(isinstance(receipt, Receipt), "claimed receipt is not a receipt")
        try:
            proof = ReceiptProof(
                receipt=receipt,
                index=int(index),
                siblings=tuple(bytes(s) for s in siblings),
            )
            self._ctx.meter.consume(
                self._ctx.meter.schedule.compute_step * (len(proof.siblings) + 8),
                "receipt proof verification",
            )
            proven = proof.compute_root() == anchor.receipts_root
        except (ValueError, TypeError):
            proven = False
        self.require(proven, "receipt proof does not match the anchored root")
        self.require(receipt.success, "the send receipt reverted")

        # 4. The receipt must really carry this message, from the outbox.
        emitted = any(
            log.address == OUTBOX_ADDRESS
            and log.event == XSHARD_SEND_EVENT
            and log.fields.get("wire") == bytes(message_wire)
            for log in receipt.logs
        )
        self.require(emitted, "message was not emitted by the source outbox")

        # 5. Exactly-once: the per-source-shard inbound nonce.
        nonce_key = f"nonce:{message.source_shard}"
        expected = self.storage.get(nonce_key, 0)
        self.require(
            message.seq == expected,
            f"sequence {message.seq} != inbound nonce {expected}",
        )
        self.storage[nonce_key] = expected + 1
        recv_key = f"recv:{message.source_shard}"
        self.storage[recv_key] = self.storage.get(recv_key, 0) + message.amount

        # Re-mint the value the source outbox burned and pay it out.
        self._ctx.state.credit(self.address, message.amount)
        self.require(
            self.transfer(message.recipient, message.amount),
            "inbox payout transfer failed",
        )
        self.emit(
            XSHARD_DELIVERED_EVENT,
            source=message.source_shard,
            seq=message.seq,
            recipient=message.recipient,
            amount=message.amount,
        )
        return message.seq

    @view
    def next_nonce(self, source_shard: int) -> int:
        return self.storage.get(f"nonce:{source_shard}", 0)

    @view
    def total_received(self, source_shard: int) -> int:
        return self.storage.get(f"recv:{source_shard}", 0)


def bridge_genesis_contracts(
    shard: int, shards: int, beacon_address: bytes
) -> Dict[bytes, Tuple[str, Dict[str, Any]]]:
    """The genesis pre-install map for one shard's bridge contracts."""
    return {
        OUTBOX_ADDRESS: ("ShardOutbox", {"shard": shard, "shards": shards}),
        INBOX_ADDRESS: (
            "ShardInbox",
            {"shard": shard, "shards": shards, "beacon": beacon_address},
        ),
    }


# ----- the beacon ---------------------------------------------------------------------


class Beacon:
    """Orders shard headers into one signed, hash-chained stream."""

    def __init__(self, keypair: ecdsa.ECDSAKeyPair, num_shards: int) -> None:
        self.keypair = keypair
        self.num_shards = num_shards
        self.blocks: List[BeaconBlock] = []

    @property
    def address(self) -> bytes:
        return self.keypair.address()

    def sign_anchor(self, anchor: ShardAnchor) -> bytes:
        return self.keypair.sign(anchor.signing_digest()).to_bytes()

    def observe(self, heads: Sequence[Block]) -> BeaconBlock:
        """Record one round: sign and chain every shard's current head."""
        if len(heads) != self.num_shards:
            raise ChainError("the beacon needs one head per shard")
        anchors = tuple(
            (anchor.to_wire(), self.sign_anchor(anchor))
            for anchor in (
                ShardAnchor.of_block(shard, head) for shard, head in enumerate(heads)
            )
        )
        parent = self.blocks[-1].beacon_hash if self.blocks else GENESIS_BEACON_PARENT
        block = BeaconBlock(number=len(self.blocks), parent=parent, anchors=anchors)
        self.blocks.append(block)
        return block

    def latest_anchor(self, shard: int) -> Optional[ShardAnchor]:
        for block in reversed(self.blocks):
            if shard < len(block.anchors):
                return ShardAnchor.from_wire(block.anchors[shard][0])
        return None


class BeaconLightClient:
    """A header-only consumer of the beacon stream.

    Trusts nothing but the beacon authority's address: every imported
    beacon block must extend the hash chain and every anchor signature
    must recover to that address.  ``verify_shard_receipt`` then checks
    a receipt proof against the anchored receipts root — the one-view
    light-client path across all shards.
    """

    def __init__(self, beacon_address: bytes) -> None:
        self.beacon_address = beacon_address
        self._blocks: List[BeaconBlock] = []
        #: (shard, number) -> receipts_root of the verified anchor.
        self._anchored: Dict[Tuple[int, int], bytes] = {}

    @property
    def height(self) -> int:
        return len(self._blocks)

    def import_beacon_block(self, wire: bytes) -> BeaconBlock:
        block = BeaconBlock.from_wire(wire)
        expected_parent = (
            self._blocks[-1].beacon_hash if self._blocks else GENESIS_BEACON_PARENT
        )
        if block.number != len(self._blocks) or block.parent != expected_parent:
            raise ChainError("beacon block does not extend the verified chain")
        for shard, (anchor_wire, signature) in enumerate(block.anchors):
            anchor = ShardAnchor.from_wire(anchor_wire)
            if anchor.shard != shard:
                raise ChainError("anchor order does not match shard order")
            try:
                parsed = ecdsa.ECDSASignature.from_bytes(signature)
                ecdsa.require_low_s(parsed)
                signer = ecdsa.recover_address(anchor.signing_digest(), parsed)
            except (SignatureError, ValueError):
                raise ChainError("unrecoverable anchor signature") from None
            if signer != self.beacon_address:
                raise ChainError("anchor not signed by the beacon authority")
        self._blocks.append(block)
        for anchor_wire, _ in block.anchors:
            anchor = ShardAnchor.from_wire(anchor_wire)
            self._anchored[(anchor.shard, anchor.number)] = anchor.receipts_root
        return block

    def verify_shard_receipt(
        self, shard: int, block_number: int, proof: ReceiptProof
    ) -> bool:
        root = self._anchored.get((shard, block_number))
        if root is None:
            return False
        return verify_receipt_proof(root, proof)


# ----- routed views -------------------------------------------------------------------


class _MempoolDepthView:
    """Aggregate mempool depth across shards (the engine's backpressure
    gate only ever takes ``len``)."""

    def __init__(self, chain: "ShardedChain") -> None:
        self._chain = chain

    def __len__(self) -> int:
        return sum(
            len(shard.any_node.mempool) for shard in self._chain.shard_testnets
        )


class RoutedNodeView:
    """A Node-shaped read facade that routes each query to the shard
    owning the queried address.

    Chain-wide views (``head_block``, ``canonical_blocks``…) default to
    shard 0; address-keyed reads (``call``, ``balance_of``,
    ``nonce_of``) go to the owning shard; ``get_receipt`` searches all
    shards.  ``for_address`` exposes the underlying per-shard node for
    callers (like accounting) that need full chain scans in the right
    shard.
    """

    def __init__(self, chain: "ShardedChain") -> None:
        self._chain = chain

    def for_address(self, address: bytes):
        return self._chain.shard_testnets[self._chain.shard_of(address)].any_node

    # -- address-keyed reads --

    def call(self, address, method, args=None, caller=None):
        return self.for_address(address).call(address, method, args, caller)

    def balance_of(self, address: bytes) -> int:
        return self.for_address(address).balance_of(address)

    def nonce_of(self, address: bytes) -> int:
        return self.for_address(address).nonce_of(address)

    def get_receipt(self, tx_hash: bytes):
        for shard in self._chain.shard_testnets:
            receipt = shard.any_node.get_receipt(tx_hash)
            if receipt is not None:
                return receipt
        return None

    # -- chain-wide views (shard 0 unless noted) --

    @property
    def height(self) -> int:
        return max(shard.height for shard in self._chain.shard_testnets)

    @property
    def head_block(self):
        return self._chain.shard_testnets[0].any_node.head_block

    @property
    def head_state(self):
        return self._chain.shard_testnets[0].any_node.head_state

    @property
    def mempool(self) -> _MempoolDepthView:
        return _MempoolDepthView(self._chain)

    def block_by_number(self, number: int):
        return self._chain.shard_testnets[0].any_node.block_by_number(number)

    def canonical_hash(self, number: int):
        return self._chain.shard_testnets[0].any_node.canonical_hash(number)

    def canonical_blocks(self, start: int, end: int):
        return self._chain.shard_testnets[0].any_node.canonical_blocks(start, end)

    def receipts_for_block(self, block_hash: bytes):
        for shard in self._chain.shard_testnets:
            receipts = shard.any_node.receipts_for_block(block_hash)
            if receipts is not None:
                return receipts
        return None


class _MergedNetwork:
    """Read-only union of every shard's network (nodes + fault stats)."""

    def __init__(self, chain: "ShardedChain") -> None:
        self._chain = chain

    @property
    def nodes(self):
        return [
            node
            for shard in self._chain.shard_testnets
            for node in shard.network.nodes
        ]

    @property
    def stats(self) -> NetworkStats:
        merged = NetworkStats()
        for shard in self._chain.shard_testnets:
            stats = shard.network.stats
            merged.delivered += stats.delivered
            merged.dropped += stats.dropped
            merged.delayed += stats.delayed
            merged.duplicated += stats.duplicated
            merged.syncs += stats.syncs
            merged.sync_blocks += stats.sync_blocks
            merged.crashes += stats.crashes
            merged.restarts += stats.restarts
        return merged

    @property
    def transaction_log(self):
        return [
            stx
            for shard in self._chain.shard_testnets
            for stx in shard.network.transaction_log
        ]


# ----- the sharded chain --------------------------------------------------------------


class ShardedChain:
    """S statically partitioned sub-chains behind one Testnet surface.

    Duck-types the :class:`~repro.chain.network.Testnet` API the
    protocol stack consumes (``tx_sender``, ``fund``/``fund_async``,
    ``send_transaction``, ``mine_block``, ``any_node``, ``network``,
    ``wait_for_receipt``…), so :class:`ZebraLancerSystem` and
    :class:`ProtocolEngine` run unmodified on top.

    Routing: a *residence* directory maps addresses to shards.  EOAs
    default to :func:`home_shard` of their address; funding with a
    ``near=`` hint co-locates an account with the contract it will
    transact against (how Algorithm-1 one-task accounts land on their
    task's shard); contract creations follow their funded creator, and
    a task contract's home shard is the home shard of its (statically
    derived) address because the creator account is funded
    ``near=`` the predicted contract address.  Senders registered via
    :meth:`fund_system` are *replicated*: their transactions broadcast
    to every shard (the RA's registry, the janitor).
    """

    __test__ = False

    def __init__(
        self,
        shards: int = 2,
        miners: int = 2,
        full_nodes: int = 2,
        block_interval: int = 15,
        gas_limit: int = 30_000_000,
        initial_faucet_balance: int = 10**30,
        fault_plan: Optional[object] = None,
        mempool_capacity: Optional[int] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        self.num_shards = shards
        self.block_interval = block_interval
        self.beacon_key = ecdsa.ECDSAKeyPair.from_seed(BEACON_SEED)
        self.relayer_key = ecdsa.ECDSAKeyPair.from_seed(RELAYER_SEED)
        self.beacon = Beacon(self.beacon_key, shards)
        plans = self._fault_plans(fault_plan, shards)

        self.shard_testnets: List[Testnet] = []
        for k in range(shards):
            faucet_seed = (
                b"testnet-faucet"
                if k == 0
                else f"testnet-faucet/shard-{k}".encode()
            )
            extra = None
            contracts = None
            if shards > 1:
                extra = {self.relayer_key.address(): 10**24}
                contracts = bridge_genesis_contracts(
                    k, shards, self.beacon_key.address()
                )
            self.shard_testnets.append(
                Testnet(
                    miners=miners,
                    full_nodes=full_nodes,
                    block_interval=block_interval,
                    gas_limit=gas_limit,
                    initial_faucet_balance=initial_faucet_balance,
                    fault_plan=plans[k],
                    mempool_capacity=mempool_capacity,
                    faucet_seed=faucet_seed,
                    extra_allocations=extra,
                    genesis_contracts=contracts,
                )
            )

        self.tx_sender = TxSender(self)
        self._residence: Dict[bytes, int] = {}
        self._replicated: Set[bytes] = set()
        for k, shard in enumerate(self.shard_testnets):
            self._residence[shard.faucet_key.address()] = k
        self._faucet_shards: Dict[bytes, int] = {
            shard.faucet_key.address(): k
            for k, shard in enumerate(self.shard_testnets)
        }
        #: (source shard, dest shard, seq) -> in-flight delivery.
        self._relayed: Dict[Tuple[int, int, int], PendingTx] = {}
        self._inflight: List[List[PendingTx]] = [[] for _ in range(shards)]
        self._scanned: List[int] = [0] * shards
        self._initial_supply = sum(
            sum(shard.genesis.allocations.values()) for shard in self.shard_testnets
        )
        self._view = RoutedNodeView(self)
        self._network = _MergedNetwork(self)

    @staticmethod
    def _fault_plans(fault_plan, shards: int) -> List[Optional[FaultPlan]]:
        """One plan per shard: a sequence is used as-is; a single plan
        lands on shard 0 (plans hold stateful RNGs and cannot be
        shared across networks)."""
        if fault_plan is None:
            return [None] * shards
        if isinstance(fault_plan, (list, tuple)):
            if len(fault_plan) != shards:
                raise ValueError("need one fault plan entry per shard")
            return list(fault_plan)
        return [fault_plan] + [None] * (shards - 1)

    # ----- views ----------------------------------------------------------------

    @property
    def clock(self):
        return self.shard_testnets[0].clock

    @property
    def genesis(self):
        return self.shard_testnets[0].genesis

    @property
    def faucet_key(self):
        return self.shard_testnets[0].faucet_key

    @property
    def any_node(self):
        if self.num_shards == 1:
            return self.shard_testnets[0].any_node
        return self._view

    @property
    def network(self):
        if self.num_shards == 1:
            return self.shard_testnets[0].network
        return self._network

    @property
    def height(self) -> int:
        return max(shard.height for shard in self.shard_testnets)

    def shard(self, index: int) -> Testnet:
        return self.shard_testnets[index]

    def shard_node(self, address: bytes):
        """The owning shard's best node for an address (full Node API)."""
        return self.shard_testnets[self.shard_of(address)].any_node

    # ----- routing --------------------------------------------------------------

    def shard_of(self, address: bytes) -> int:
        """The shard an address resides on (directory, else hash home)."""
        if self.num_shards == 1:
            return 0
        resident = self._residence.get(address)
        if resident is not None:
            return resident
        return home_shard(address, self.num_shards)

    def bind(self, address: bytes, near: bytes) -> int:
        """Co-locate ``address`` with ``near`` (first binding wins)."""
        shard = self._residence.setdefault(address, self.shard_of(near))
        return shard

    def is_replicated(self, address: bytes) -> bool:
        return address in self._replicated

    def route_transaction(self, tx: Transaction, sender: bytes) -> int:
        """The shard a (sender, tx) pair executes on, updating the
        directory for contract creations."""
        if self.num_shards == 1:
            return 0
        # A shard faucet only ever holds balance on its own shard, so
        # its transfers execute there regardless of the recipient (the
        # recipient's residence was bound to that shard when the
        # funding was routed).
        faucet_home = self._faucet_shards.get(sender)
        if faucet_home is not None:
            return faucet_home
        if tx.to is None:
            derived = contract_address(sender, tx.nonce)
            shard = self._residence.get(sender)
            if shard is None:
                shard = self.shard_of(derived)
                self._residence[sender] = shard
            self._residence.setdefault(derived, shard)
            return shard
        if tx.to in (OUTBOX_ADDRESS, INBOX_ADDRESS):
            return self.shard_of(sender)
        return self.shard_of(tx.to)

    # ----- actions --------------------------------------------------------------

    def send_transaction(self, stx: SignedTransaction) -> bytes:
        if self.num_shards == 1:
            return self.shard_testnets[0].send_transaction(stx)
        tx = stx.transaction
        if stx.sender in self._replicated:
            if tx.to is None:
                self._replicated.add(contract_address(stx.sender, tx.nonce))
            for shard in self.shard_testnets:
                shard.send_transaction(stx)
            return stx.tx_hash
        shard = self.route_transaction(tx, stx.sender)
        return self.shard_testnets[shard].send_transaction(stx)

    def mine_block(self) -> Block:
        """Advance every shard by one block, anchor the round at the
        beacon, and relay newly observed cross-shard sends.

        Returns shard 0's block (the Testnet-compatible view)."""
        if self.num_shards == 1:
            return self.shard_testnets[0].mine_block()
        blocks = [shard.mine_block() for shard in self.shard_testnets]
        self.beacon.observe([shard.any_node.head_block for shard in self.shard_testnets])
        self._relay_round()
        return blocks[0]

    def mine_blocks(self, count: int) -> List[Block]:
        return [self.mine_block() for _ in range(count)]

    def mine_until(self, predicate: Callable[[], bool], max_blocks: int = 64) -> None:
        for _ in range(max_blocks):
            if predicate():
                return
            self.mine_block()
        if not predicate():
            raise ChainError(f"condition not reached within {max_blocks} blocks")

    def wait_for_receipt(self, tx_hash: bytes, max_blocks: int = 16):
        self.mine_until(
            lambda: self.any_node.get_receipt(tx_hash) is not None, max_blocks
        )
        return self.any_node.get_receipt(tx_hash)

    def assert_consensus(self) -> None:
        for shard in self.shard_testnets:
            shard.assert_consensus()

    # ----- funding --------------------------------------------------------------

    def _faucet_tx(self, shard: int, address: bytes, amount: int) -> Transaction:
        net = self.shard_testnets[shard]
        return Transaction(
            nonce=self.tx_sender.nonces.reserve(net.faucet_key.address()),
            gas_price=1,
            gas_limit=50_000,
            to=address,
            value=amount,
            chain_id=net.genesis.chain_id,
        )

    def _fund_target(self, address: bytes, near: Optional[bytes]) -> int:
        if near is not None:
            return self.bind(address, near)
        return self._residence.setdefault(address, self.shard_of(address))

    def fund(
        self, address: bytes, amount: int, near: Optional[bytes] = None
    ) -> None:
        self.tx_sender.confirm_all([self.fund_async(address, amount, near)])

    def fund_async(
        self, address: bytes, amount: int, near: Optional[bytes] = None
    ) -> PendingTx:
        if self.num_shards == 1:
            return self.shard_testnets[0].fund_async(address, amount)
        shard = self._fund_target(address, near)
        return self.tx_sender.broadcast(
            self._faucet_tx(shard, address, amount),
            self.shard_testnets[shard].faucet_key,
        )

    def fund_system(self, address: bytes, amount: int) -> None:
        """Fund ``address`` on EVERY shard and mark it replicated: all
        its future transactions broadcast to all shards in lockstep
        (the RA's registry updates, the janitor's timeouts)."""
        self.tx_sender.confirm_all(self.fund_all_async(address, amount))

    def fund_all_async(self, address: bytes, amount: int) -> List[PendingTx]:
        if self.num_shards == 1:
            return [self.shard_testnets[0].fund_async(address, amount)]
        self._replicated.add(address)
        return [
            self.tx_sender.broadcast(
                self._faucet_tx(k, address, amount), shard.faucet_key
            )
            for k, shard in enumerate(self.shard_testnets)
        ]

    # ----- the relayer ----------------------------------------------------------

    def _relay_round(self) -> None:
        """Scan new source blocks for sends, submit deliveries, and
        service in-flight delivery transactions."""
        for source in range(self.num_shards):
            node = self.shard_testnets[source].any_node
            top = node.height
            for number in range(self._scanned[source] + 1, top + 1):
                block = node.block_by_number(number)
                if block is None:
                    top = number - 1
                    break
                receipts = node.receipts_for_block(block.block_hash)
                if receipts is None:
                    top = number - 1
                    break
                self._relay_block(source, block, receipts)
            self._scanned[source] = max(self._scanned[source], top)
        for dest, shard in enumerate(self.shard_testnets):
            self._inflight[dest] = self._service_deliveries(
                shard, self._inflight[dest]
            )

    def _relay_block(
        self, source: int, block: Block, receipts: Sequence[Receipt]
    ) -> None:
        anchor = ShardAnchor.of_block(source, block)
        signature: Optional[bytes] = None
        for index, receipt in enumerate(receipts):
            for log in receipt.logs:
                if log.address != OUTBOX_ADDRESS or log.event != XSHARD_SEND_EVENT:
                    continue
                wire = log.fields.get("wire")
                if not isinstance(wire, bytes):
                    continue
                try:
                    message = XShardMessage.from_wire(wire)
                except ValueError:
                    continue
                key = (message.source_shard, message.dest_shard, message.seq)
                if key in self._relayed:
                    continue
                if signature is None:
                    signature = self.beacon.sign_anchor(anchor)
                proof = prove_receipt_inclusion(list(receipts), index)
                pending = self._submit_delivery(
                    message, anchor, signature, proof, wire
                )
                self._relayed[key] = pending
                self._inflight[message.dest_shard].append(pending)

    def _submit_delivery(
        self,
        message: XShardMessage,
        anchor: ShardAnchor,
        signature: bytes,
        proof: ReceiptProof,
        message_wire: bytes,
    ) -> PendingTx:
        dest = self.shard_testnets[message.dest_shard]
        tx = Transaction(
            nonce=dest.tx_sender.nonces.reserve(self.relayer_key.address()),
            gas_price=1,
            gas_limit=DELIVER_GAS_LIMIT,
            to=INBOX_ADDRESS,
            value=0,
            data=encode_call(
                "deliver",
                [
                    anchor.to_wire(),
                    signature,
                    proof.receipt,
                    proof.index,
                    list(proof.siblings),
                    message_wire,
                ],
            ),
            chain_id=dest.genesis.chain_id,
        )
        return dest.tx_sender.broadcast(tx, self.relayer_key)

    @staticmethod
    def _service_deliveries(
        shard: Testnet, pendings: List[PendingTx]
    ) -> List[PendingTx]:
        remaining: List[PendingTx] = []
        for pending in pendings:
            try:
                if shard.tx_sender.service([pending]):
                    remaining.append(pending)
            except TxAbandonedError:
                # The relayer never shares nonces, so abandonment means
                # exhausted attempts under faults: re-send on a fresh lease.
                shard.tx_sender.rearm(pending)
                remaining.append(pending)
        return remaining

    def drain_cross_shard(self, max_blocks: int = 64) -> None:
        """Mine rounds until every observed send has been delivered."""
        self.mine_until(lambda: self.in_flight_value() == 0, max_blocks)

    # ----- conservation ---------------------------------------------------------

    def initial_supply(self) -> int:
        return self._initial_supply

    def total_supply(self) -> int:
        return sum(
            shard.any_node.head_state.total_supply()
            for shard in self.shard_testnets
        )

    def in_flight_value(self) -> int:
        """Value burned at an outbox but not yet minted by an inbox."""
        if self.num_shards == 1:
            return 0
        total = 0
        for s, source in enumerate(self.shard_testnets):
            for d, dest in enumerate(self.shard_testnets):
                if s == d:
                    continue
                sent = source.any_node.call(OUTBOX_ADDRESS, "total_sent", [d])
                received = dest.any_node.call(INBOX_ADDRESS, "total_received", [s])
                total += sent - received
        return total

    # ----- convenience (tests, benchmarks) --------------------------------------

    def transfer_transaction(
        self,
        sender: bytes,
        sender_nonce: int,
        recipient: bytes,
        amount: int,
        gas_price: int = 0,
    ) -> Transaction:
        """A value transfer that crosses shards when it must.

        Same-shard pairs get a plain transfer; cross-shard pairs an
        ``ShardOutbox.send`` carrying the value — the two forms leave
        identical per-account balances (modulo gas), which is what the
        differential suite pins.
        """
        source = self.shard_of(sender)
        dest = self.shard_of(recipient)
        if source == dest:
            return Transaction(
                nonce=sender_nonce,
                gas_price=gas_price,
                gas_limit=SEND_GAS_LIMIT,
                to=recipient,
                value=amount,
                chain_id=self.genesis.chain_id,
            )
        return Transaction(
            nonce=sender_nonce,
            gas_price=gas_price,
            gas_limit=SEND_GAS_LIMIT,
            to=OUTBOX_ADDRESS,
            value=amount,
            data=encode_call("send", [dest, recipient]),
            chain_id=self.genesis.chain_id,
        )

