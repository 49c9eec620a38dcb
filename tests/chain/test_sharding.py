"""Differential, property, and chaos tests for the sharded chain.

Four layers, mirroring the bridge's trust argument:

1. **Differential equivalence** — ~50 seeded workloads run on
   ``shards=1`` and on 2/4/8 shards must end with identical per-account
   balances (and, for the co-located family, byte-identical receipts);
   ``shards=1`` itself must be *byte-identical* to a plain
   :class:`~repro.chain.network.Testnet`, including a same-seed
   engine transcript.
2. **Exactly-once / fail-closed** — duplicated, replayed, forged and
   misrouted cross-shard deliveries must all revert at the inbox; the
   one legitimate delivery pays exactly once.
3. **Conservation** — sum of per-shard supplies plus in-flight value is
   constant through every experiment (no mint/burn at shard
   boundaries), via :func:`~repro.core.accounting.assert_shard_conservation`.
4. **Chaos interaction** — the PR 1 fault plans (drops/partitions) on a
   4-shard topology, and a PR 7 mid-run engine crash/resume on shards,
   both converge with exactly-once payment.
"""

from __future__ import annotations

import random

import pytest

import repro.contracts  # noqa: F401  (registers protocol contract classes)
from repro.crypto import ecdsa
from repro.errors import ChainError
from repro.chain.faults import chaos_plan
from repro.chain.network import Testnet
from repro.chain.receipts import (
    ReceiptProof,
    encode_receipt,
    prove_receipt_inclusion,
)
from repro.chain.sharding import (
    INBOX_ADDRESS,
    OUTBOX_ADDRESS,
    XSHARD_SEND_EVENT,
    Beacon,
    BeaconLightClient,
    ShardAnchor,
    ShardedChain,
    XShardMessage,
    home_shard,
)
from repro.chain.transaction import Transaction, encode_call
from repro.core.accounting import assert_shard_conservation

pytestmark = pytest.mark.sharding

SHARD_COUNTS = (1, 2, 4, 8)
DIFF_SEEDS = 25


# ----- unit: assignment and routing ---------------------------------------------------


def test_home_shard_is_deterministic_and_in_range() -> None:
    rng = random.Random(11)
    for shards in (1, 2, 4, 8, 13):
        for _ in range(200):
            address = rng.randbytes(20)
            shard = home_shard(address, shards)
            assert 0 <= shard < shards
            assert shard == home_shard(address, shards)


def test_home_shard_spreads_uniformly_enough() -> None:
    rng = random.Random(12)
    counts = [0, 0, 0, 0]
    for _ in range(4000):
        counts[home_shard(rng.randbytes(20), 4)] += 1
    for count in counts:
        assert 800 <= count <= 1200, counts


def test_funding_near_binds_residence_first_wins() -> None:
    chain = ShardedChain(shards=4, miners=1, full_nodes=1)
    target = b"\x42" * 20
    account = b"\x43" * 20
    chain.fund(account, 1_000, near=target)
    assert chain.shard_of(account) == chain.shard_of(target)
    # A later contradictory hint cannot move an already-bound account.
    other = next(
        bytes([b]) * 20
        for b in range(256)
        if chain.shard_of(bytes([b]) * 20) != chain.shard_of(target)
    )
    chain.fund(account, 1_000, near=other)
    assert chain.shard_of(account) == chain.shard_of(target)
    assert chain.any_node.balance_of(account) == 2_000


# ----- byte-identity of shards=1 ------------------------------------------------------


def test_single_shard_is_byte_identical_to_plain_testnet() -> None:
    plain = Testnet(miners=2, full_nodes=2)
    sharded = ShardedChain(shards=1, miners=2, full_nodes=2)
    keys = [ecdsa.ECDSAKeyPair.from_seed(b"ident-%d" % i) for i in range(4)]
    for net in (plain, sharded):
        rng = random.Random(7)  # identical recipients on both nets
        for key in keys:
            net.fund(key.address(), 10**15)
        for i, key in enumerate(keys):
            tx = Transaction(
                nonce=0,
                gas_price=2,
                gas_limit=50_000,
                to=rng.randbytes(20),
                value=1_000 + i,
            )
            net.send_transaction(tx.sign(key))
        net.mine_blocks(3)
    assert (
        plain.any_node.head_block.block_hash
        == sharded.any_node.head_block.block_hash
    )
    assert (
        plain.any_node.head_state.state_root()
        == sharded.any_node.head_state.state_root()
    )
    # No bridge exists at shards=1: genesis carries no pre-installed
    # contracts and the genesis blocks are the same object shape.
    assert sharded.genesis.contracts == {}
    assert not sharded.any_node.head_state.account(OUTBOX_ADDRESS).is_contract


def test_single_shard_facade_passthroughs() -> None:
    sharded = ShardedChain(shards=1, miners=1, full_nodes=1)
    assert sharded.any_node is sharded.shard_testnets[0].any_node
    assert sharded.network is sharded.shard_testnets[0].network
    assert sharded.in_flight_value() == 0
    assert_shard_conservation(sharded)


# ----- differential equivalence -------------------------------------------------------


def _colocated_workload(seed: int, shards: int):
    """Family A: one-task accounts funded near their task; the *same*
    signed settlement transactions run at every shard count, so both
    balances and receipt encodings must be byte-equal."""
    rng = random.Random(seed)
    chain = ShardedChain(shards=shards, miners=1, full_nodes=1)
    tasks = [rng.randbytes(20) for _ in range(6)]
    keys = [
        ecdsa.ECDSAKeyPair.from_seed(b"colo-%d-%d" % (seed, i)) for i in range(6)
    ]
    pendings = [
        chain.fund_async(key.address(), 10**12, near=task)
        for key, task in zip(keys, tasks)
    ]
    chain.tx_sender.confirm_all(pendings)
    hashes = []
    for key, task in zip(keys, tasks):
        for nonce in range(rng.randrange(1, 4)):
            tx = Transaction(
                nonce=nonce,
                gas_price=1,
                gas_limit=50_000,
                to=task,
                value=rng.randrange(1, 10**6),
            )
            stx = tx.sign(key)
            hashes.append(stx.tx_hash)
            chain.send_transaction(stx)
    chain.mine_blocks(2)
    balances = {a: chain.any_node.balance_of(a) for a in tasks}
    balances.update(
        {key.address(): chain.any_node.balance_of(key.address()) for key in keys}
    )
    receipts = {
        h.hex(): encode_receipt(chain.any_node.get_receipt(h)) for h in hashes
    }
    assert_shard_conservation(chain)
    chain.assert_consensus()
    return balances, receipts


def _mixed_workload(seed: int, shards: int):
    """Family B: random transfers between accounts on their natural home
    shards; cross-shard pairs ride the outbox (different tx form, zero
    gas price), so balances — not receipt bytes — are the invariant."""
    rng = random.Random(seed)
    chain = ShardedChain(shards=shards, miners=1, full_nodes=1)
    keys = [
        ecdsa.ECDSAKeyPair.from_seed(b"mixed-%d-%d" % (seed, i)) for i in range(8)
    ]
    pendings = [chain.fund_async(key.address(), 10**12) for key in keys]
    chain.tx_sender.confirm_all(pendings)
    nonces = {key.address(): 0 for key in keys}
    hashes = []
    for _ in range(14):
        sender = rng.choice(keys)
        recipient = rng.choice(keys)
        if sender.address() == recipient.address():
            continue
        tx = chain.transfer_transaction(
            sender.address(),
            nonces[sender.address()],
            recipient.address(),
            rng.randrange(1, 10**6),
        )
        nonces[sender.address()] += 1
        stx = tx.sign(sender)
        hashes.append(stx.tx_hash)
        chain.send_transaction(stx)
    chain.mine_blocks(2)
    chain.drain_cross_shard()
    for h in hashes:
        receipt = chain.any_node.get_receipt(h)
        assert receipt is not None and receipt.success, (
            f"seed {seed} shards {shards}: {receipt and receipt.error}"
        )
    balances = {
        key.address(): chain.any_node.balance_of(key.address()) for key in keys
    }
    assert chain.in_flight_value() == 0
    assert_shard_conservation(chain)
    chain.assert_consensus()
    return balances


@pytest.mark.parametrize(
    "seed", range(DIFF_SEEDS), ids=[f"seed-{s:02d}" for s in range(DIFF_SEEDS)]
)
def test_differential_colocated_settlement(seed: int) -> None:
    base_balances, base_receipts = _colocated_workload(seed, shards=1)
    for shards in SHARD_COUNTS[1:]:
        balances, receipts = _colocated_workload(seed, shards=shards)
        assert balances == base_balances, f"balances diverge at shards={shards}"
        assert receipts == base_receipts, f"receipts diverge at shards={shards}"


@pytest.mark.parametrize(
    "seed", range(DIFF_SEEDS), ids=[f"seed-{s:02d}" for s in range(DIFF_SEEDS)]
)
def test_differential_mixed_transfers(seed: int) -> None:
    base_balances = _mixed_workload(seed, shards=1)
    for shards in SHARD_COUNTS[1:]:
        balances = _mixed_workload(seed, shards=shards)
        assert balances == base_balances, f"balances diverge at shards={shards}"


def test_engine_outcomes_invariant_across_shard_counts() -> None:
    """Same seed, shards 1 vs 4: byte-identical per-task outcomes
    (address, status, rewards) with conservation on the sharded run."""
    from repro.core.accounting import assert_exactly_once_payouts
    from repro.core.engine import ProtocolEngine, engine_system, make_uniform_specs

    lines = {}
    for shards in (1, 4):
        system = engine_system(4, 2, shards=shards)
        specs = make_uniform_specs(system, 4, 2)
        report = ProtocolEngine(system, specs).run()
        assert all(o.status == "completed" for o in report.outcomes)
        assert_exactly_once_payouts(system, specs, report.outcomes)
        assert_shard_conservation(system.testnet)
        lines[shards] = report.outcome_lines()
    assert lines[1] == lines[4], "task outcomes diverge across shard counts"


def test_engine_report_counts_transactions_on_every_shard() -> None:
    """Seed 1 lands the whole 4x2 cohort on shard 1; the report must
    still count its transactions, not just shard 0's."""
    from repro.core.engine import ProtocolEngine, engine_system, make_uniform_specs

    counts = {}
    for shards in (None, 2):
        system = engine_system(4, 2, shards=shards)
        specs = make_uniform_specs(system, 4, 2, seed=1)
        report = ProtocolEngine(system, specs).run()
        counts[shards] = report.transactions
        if shards is not None:
            on_chain = sum(
                len(block.transactions)
                for shard in system.testnet.shard_testnets
                for block in shard.any_node.canonical_blocks(
                    report.start_height + 1, shard.height
                )
            )
            assert report.transactions == on_chain
    assert counts[None] > 0
    assert counts[2] == counts[None]


def test_engine_transcript_shards1_equals_unsharded_n4() -> None:
    """Fast engine-transcript identity (N=4); N=16 runs in the slow lane."""
    _assert_engine_transcript_identity(num_tasks=4)


@pytest.mark.slow
def test_engine_transcript_shards1_equals_unsharded_n16() -> None:
    _assert_engine_transcript_identity(num_tasks=16)


def _assert_engine_transcript_identity(num_tasks: int) -> None:
    from repro.core.engine import ProtocolEngine, engine_system, make_uniform_specs

    reports = []
    heads = []
    for shards in (None, 1):
        system = engine_system(num_tasks, 2, shards=shards)
        specs = make_uniform_specs(system, num_tasks, 2)
        report = ProtocolEngine(system, specs).run()
        reports.append(report.outcome_lines())
        heads.append(system.testnet.any_node.head_block.block_hash)
    assert reports[0] == reports[1]
    assert heads[0] == heads[1], "shards=1 engine transcript is not byte-identical"


# ----- exactly-once and fail-closed delivery ------------------------------------------


def _cross_shard_pair(chain: ShardedChain):
    """Two funded keypairs on distinct shards."""
    found = {}
    i = 0
    while len(found) < 2:
        key = ecdsa.ECDSAKeyPair.from_seed(b"xsend-%d" % i)
        found.setdefault(home_shard(key.address(), chain.num_shards), key)
        i += 1
    (s1, k1), (s2, k2) = sorted(found.items())[:2]
    chain.fund(k1.address(), 10**18)
    chain.fund(k2.address(), 10**18)
    return (s1, k1), (s2, k2)


def _delivered_send(chain: ShardedChain):
    """Perform one cross-shard send; returns everything needed to forge
    replays: (message, anchor, signature, proof, recipient, amount)."""
    (source, sender), (dest, recipient_key) = _cross_shard_pair(chain)
    amount = 12_345
    tx = chain.transfer_transaction(
        sender.address(), 0, recipient_key.address(), amount
    )
    stx = tx.sign(sender)
    chain.send_transaction(stx)
    chain.mine_block()  # includes the send; relayer submits the delivery
    chain.drain_cross_shard()
    send_receipt = chain.shard_testnets[source].any_node.get_receipt(stx.tx_hash)
    assert send_receipt is not None and send_receipt.success
    wire = next(
        log.fields["wire"]
        for log in send_receipt.logs
        if log.event == XSHARD_SEND_EVENT
    )
    message = XShardMessage.from_wire(wire)
    node = chain.shard_testnets[source].any_node
    block = node.block_by_number(send_receipt.block_number)
    receipts = list(node.receipts_for_block(block.block_hash))
    index = next(
        i for i, r in enumerate(receipts) if r.tx_hash == send_receipt.tx_hash
    )
    proof = prove_receipt_inclusion(receipts, index)
    anchor = ShardAnchor.of_block(source, block)
    signature = chain.beacon.sign_anchor(anchor)
    return message, anchor, signature, proof, recipient_key, amount


def _deliver_as_attacker(chain, dest_shard, anchor, signature, proof, message_wire):
    """Submit a deliver call from an independent funded account."""
    attacker = ecdsa.ECDSAKeyPair.from_seed(b"bridge-attacker")
    dest = chain.shard_testnets[dest_shard]
    dest.fund(attacker.address(), 10**12)
    tx = Transaction(
        nonce=dest.any_node.nonce_of(attacker.address()),
        gas_price=1,
        gas_limit=2_000_000,
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
    )
    stx = tx.sign(attacker)
    dest.send_transaction(stx)
    return dest.wait_for_receipt(stx.tx_hash)


def test_cross_shard_delivery_pays_exactly_once() -> None:
    chain = ShardedChain(shards=2, miners=1, full_nodes=1)
    message, anchor, signature, proof, recipient_key, amount = _delivered_send(chain)
    recipient = recipient_key.address()
    paid = chain.any_node.balance_of(recipient)
    assert paid == 10**18 + amount

    # Duplicate delivery: byte-identical replay of the proven message.
    receipt = _deliver_as_attacker(
        chain, message.dest_shard, anchor, signature, proof, message.to_wire()
    )
    assert not receipt.success
    assert "inbound nonce" in receipt.error
    assert chain.any_node.balance_of(recipient) == paid
    assert_shard_conservation(chain)


class _DropDeliveries:
    """A shard fabric censoring the first ``n`` inbox deliveries."""

    def __init__(self, n: int) -> None:
        self.remaining = n

    def on_transaction(self, stx):
        if stx.transaction.to == INBOX_ADDRESS and self.remaining > 0:
            self.remaining -= 1
            return []
        return [stx]


def test_relayer_rearms_a_delivery_starved_past_its_attempts() -> None:
    """The destination shard drops the relayer's first four deliver
    sends, so the delivery exhausts its retry attempts; the relayer
    re-sends it on a fresh lease and it still lands exactly once."""
    chain = ShardedChain(shards=2, miners=1, full_nodes=1)
    (_, sender), (dest, recipient_key) = _cross_shard_pair(chain)
    censor = _DropDeliveries(4)
    chain.shard_testnets[dest].network.adversary = censor
    amount = 777
    tx = chain.transfer_transaction(
        sender.address(), 0, recipient_key.address(), amount
    )
    chain.tx_sender.send(tx, sender)
    chain.drain_cross_shard(max_blocks=256)
    assert censor.remaining == 0
    assert chain.in_flight_value() == 0
    chain.mine_blocks(8)  # every stale copy of the delivery gets its chance
    assert chain.any_node.balance_of(sender.address()) == 10**18 - amount
    assert chain.any_node.balance_of(recipient_key.address()) == 10**18 + amount
    assert chain.in_flight_value() == 0
    assert_shard_conservation(chain)


def test_forged_message_amount_is_rejected() -> None:
    chain = ShardedChain(shards=2, miners=1, full_nodes=1)
    message, anchor, signature, proof, recipient_key, _ = _delivered_send(chain)
    forged = XShardMessage(
        source_shard=message.source_shard,
        dest_shard=message.dest_shard,
        seq=message.seq + 1,  # fresh seq so the nonce check cannot save us
        source_block=message.source_block,
        sender=message.sender,
        recipient=message.recipient,
        amount=message.amount * 1_000,
    )
    before = chain.any_node.balance_of(recipient_key.address())
    receipt = _deliver_as_attacker(
        chain, message.dest_shard, anchor, signature, proof, forged.to_wire()
    )
    assert not receipt.success
    assert "not emitted" in receipt.error
    assert chain.any_node.balance_of(recipient_key.address()) == before
    assert_shard_conservation(chain)


def _high_s_twin(signature: bytes) -> bytes:
    honest = ecdsa.ECDSASignature.from_bytes(signature)
    return ecdsa.ECDSASignature(r=honest.r, s=ecdsa.N - honest.s, v=honest.v ^ 1).to_bytes()


def test_forged_anchor_signature_is_rejected() -> None:
    chain = ShardedChain(shards=2, miners=1, full_nodes=1)
    message, anchor, signature, proof, recipient_key, _ = _delivered_send(chain)
    impostor = Beacon(ecdsa.ECDSAKeyPair.from_seed(b"not-the-beacon"), 2)
    fresh = XShardMessage(
        source_shard=message.source_shard,
        dest_shard=message.dest_shard,
        seq=message.seq + 1,
        source_block=message.source_block,
        sender=message.sender,
        recipient=message.recipient,
        amount=message.amount,
    )
    receipt = _deliver_as_attacker(
        chain,
        message.dest_shard,
        anchor,
        impostor.sign_anchor(anchor),
        proof,
        fresh.to_wire(),
    )
    assert not receipt.success
    assert "beacon" in receipt.error
    # The high-s twin of the beacon's own signature recovers the beacon
    # too; only the low-s form is accepted.
    receipt = _deliver_as_attacker(
        chain, message.dest_shard, anchor, _high_s_twin(signature), proof, fresh.to_wire()
    )
    assert not receipt.success
    assert "beacon" in receipt.error
    assert_shard_conservation(chain)


def test_tampered_receipt_proof_is_rejected() -> None:
    chain = ShardedChain(shards=2, miners=1, full_nodes=1)
    message, anchor, signature, proof, _, _ = _delivered_send(chain)
    # A bogus sibling changes the computed root, so even the *original*
    # message cannot be re-proven under this proof.
    tampered = ReceiptProof(
        receipt=proof.receipt,
        index=proof.index,
        siblings=proof.siblings + (b"\x13" * 32,),
    )
    receipt = _deliver_as_attacker(
        chain, message.dest_shard, anchor, signature, tampered, message.to_wire()
    )
    assert not receipt.success
    assert "proof" in receipt.error
    assert_shard_conservation(chain)


def test_aliased_receipt_proof_index_is_rejected() -> None:
    """An index shifted by 2^depth reads the same path bits as the real
    one; the inbox must refuse it on the proof, not later on the nonce."""
    chain = ShardedChain(shards=2, miners=1, full_nodes=1)
    message, anchor, signature, proof, _, _ = _delivered_send(chain)
    aliased = ReceiptProof(
        receipt=proof.receipt,
        index=proof.index + (1 << len(proof.siblings)),
        siblings=proof.siblings,
    )
    receipt = _deliver_as_attacker(
        chain, message.dest_shard, anchor, signature, aliased, message.to_wire()
    )
    assert not receipt.success
    assert "proof" in receipt.error
    assert_shard_conservation(chain)


def test_delivery_to_wrong_shard_fails_closed() -> None:
    chain = ShardedChain(shards=4, miners=1, full_nodes=1)
    message, anchor, signature, proof, _, _ = _delivered_send(chain)
    wrong = next(
        s
        for s in range(chain.num_shards)
        if s not in (message.dest_shard, message.source_shard)
    )
    receipt = _deliver_as_attacker(
        chain, wrong, anchor, signature, proof, message.to_wire()
    )
    assert not receipt.success
    assert "different shard" in receipt.error
    assert_shard_conservation(chain)


def test_malformed_payloads_fail_closed_not_crash() -> None:
    """Garbage wires must revert inside the inbox, never crash block
    production (the VM only converts declared contract errors)."""
    chain = ShardedChain(shards=2, miners=1, full_nodes=1)
    message, anchor, signature, proof, _, _ = _delivered_send(chain)
    for bad_anchor, bad_message in [
        (b"junk", message.to_wire()),
        (anchor.to_wire(), b"\x00" * 7),
        (anchor.to_wire()[:-1], message.to_wire()),
        (message.to_wire(), anchor.to_wire()),  # cross-codec swap
    ]:
        attacker = ecdsa.ECDSAKeyPair.from_seed(b"mal-attacker")
        dest = chain.shard_testnets[message.dest_shard]
        dest.fund(attacker.address(), 10**12)
        tx = Transaction(
            nonce=dest.any_node.nonce_of(attacker.address()),
            gas_price=1,
            gas_limit=2_000_000,
            to=INBOX_ADDRESS,
            value=0,
            data=encode_call(
                "deliver",
                [bad_anchor, signature, proof.receipt, proof.index,
                 list(proof.siblings), bad_message],
            ),
        )
        stx = tx.sign(attacker)
        dest.send_transaction(stx)
        receipt = dest.wait_for_receipt(stx.tx_hash)
        assert not receipt.success
        assert "malformed" in receipt.error
    assert_shard_conservation(chain)


def test_outbox_requires_value_and_foreign_destination() -> None:
    chain = ShardedChain(shards=2, miners=1, full_nodes=1)
    key = ecdsa.ECDSAKeyPair.from_seed(b"outbox-cases")
    chain.fund(key.address(), 10**12)
    shard = chain.shard_of(key.address())
    net = chain.shard_testnets[shard]
    cases = [
        (shard, 100, "local shard"),       # destination == source
        (1 - shard, 0, "carry value"),     # zero value
        (7, 100, "out of range"),          # no such shard
    ]
    for nonce, (dest, value, expected) in enumerate(cases):
        tx = Transaction(
            nonce=nonce,
            gas_price=1,
            gas_limit=500_000,
            to=OUTBOX_ADDRESS,
            value=value,
            data=encode_call("send", [dest, b"\x05" * 20]),
        )
        stx = tx.sign(key)
        net.send_transaction(stx)
        receipt = net.wait_for_receipt(stx.tx_hash)
        assert not receipt.success and expected in receipt.error, receipt.error
    assert_shard_conservation(chain)


# ----- the beacon and its light client ------------------------------------------------


def test_beacon_light_client_verifies_anchored_receipts() -> None:
    chain = ShardedChain(shards=2, miners=1, full_nodes=1)
    message, anchor, _, proof, _, _ = _delivered_send(chain)
    client = BeaconLightClient(chain.beacon_key.address())
    for block in chain.beacon.blocks:
        client.import_beacon_block(block.to_wire())
    assert client.height == len(chain.beacon.blocks)
    assert client.verify_shard_receipt(anchor.shard, anchor.number, proof)
    # A tampered proof fails; an unanchored height fails.
    tampered = ReceiptProof(
        receipt=proof.receipt,
        index=proof.index,
        siblings=proof.siblings + (b"\x13" * 32,),
    )
    assert not client.verify_shard_receipt(anchor.shard, anchor.number, tampered)
    assert not client.verify_shard_receipt(anchor.shard, anchor.number + 999, proof)
    aliased = ReceiptProof(
        receipt=proof.receipt,
        index=proof.index - (1 << len(proof.siblings)),
        siblings=proof.siblings,
    )
    assert not client.verify_shard_receipt(anchor.shard, anchor.number, aliased)


def test_beacon_light_client_rejects_forks_and_forgeries() -> None:
    chain = ShardedChain(shards=2, miners=1, full_nodes=1)
    chain.mine_blocks(2)
    client = BeaconLightClient(chain.beacon_key.address())
    blocks = chain.beacon.blocks
    client.import_beacon_block(blocks[0].to_wire())
    with pytest.raises(ChainError):
        client.import_beacon_block(blocks[0].to_wire())  # replay (not an extension)
    # An impostor beacon's round is rejected on the signature.
    impostor = Beacon(ecdsa.ECDSAKeyPair.from_seed(b"fake-beacon"), 2)
    impostor.observe([net.any_node.head_block for net in chain.shard_testnets])
    forged = impostor.blocks[0]
    forged_next = type(forged)(
        number=1, parent=blocks[0].beacon_hash, anchors=forged.anchors
    )
    with pytest.raises(ChainError):
        client.import_beacon_block(forged_next.to_wire())
    # The high-s twin of a real anchor signature names the same signer
    # under a new beacon hash: a fork of the honest round.
    (wire, signature), *rest = blocks[1].anchors
    twin_next = type(blocks[1])(
        number=1,
        parent=blocks[0].beacon_hash,
        anchors=((wire, _high_s_twin(signature)), *rest),
    )
    assert twin_next.beacon_hash != blocks[1].beacon_hash
    with pytest.raises(ChainError, match="unrecoverable anchor signature"):
        client.import_beacon_block(twin_next.to_wire())
    client.import_beacon_block(blocks[1].to_wire())
    assert client.height == 2


# ----- chaos interaction --------------------------------------------------------------


def test_sharded_transfers_survive_chaos_plans() -> None:
    """PR 1 fault plans (drops, delays, duplicates, partition windows)
    on every shard of a 4-shard topology: all settlements, including
    cross-shard ones relayed through the faulty fabric, land exactly
    once and the shards converge after heal."""
    plans = [chaos_plan(1_000 + k) for k in range(4)]
    chain = ShardedChain(shards=4, miners=2, full_nodes=2, fault_plan=plans)
    keys = [ecdsa.ECDSAKeyPair.from_seed(b"chaos-%d" % i) for i in range(6)]
    pendings = [chain.fund_async(key.address(), 10**12) for key in keys]
    chain.tx_sender.confirm_all(pendings)
    expected = {key.address(): 10**12 for key in keys}
    nonces = {key.address(): 0 for key in keys}
    rng = random.Random(505)
    for _ in range(10):
        sender = rng.choice(keys)
        recipient = rng.choice(keys)
        if sender.address() == recipient.address():
            continue
        amount = rng.randrange(1, 10**6)
        tx = chain.transfer_transaction(
            sender.address(), nonces[sender.address()], recipient.address(), amount
        )
        nonces[sender.address()] += 1
        # Reliable submission through the lossy fabric.
        chain.tx_sender.send(tx, sender)
        expected[sender.address()] -= amount
        expected[recipient.address()] += amount
    # Run every shard's schedule past its horizon so all crash and
    # partition windows close, then settle stragglers and reconcile.
    horizon = max(plan.horizon for plan in plans)
    while min(net.height for net in chain.shard_testnets) <= horizon:
        chain.mine_block()
    chain.mine_until(lambda: chain.in_flight_value() == 0, max_blocks=96)
    for net in chain.shard_testnets:
        net.network.heal()
    chain.assert_consensus()
    actual = {
        key.address(): chain.any_node.balance_of(key.address()) for key in keys
    }
    assert actual == expected
    assert_shard_conservation(chain)


def test_engine_crash_resume_on_four_shards() -> None:
    """PR 7 mid-run crash/resume with the chain sharded four ways: the
    resumed engine converges to the same outcomes with exactly-once
    payment and cross-shard conservation intact."""
    from repro.core.accounting import assert_exactly_once_payouts
    from repro.core.checkpoint import CheckpointStore
    from repro.core.engine import (
        ProtocolEngine,
        SimulatedEngineCrash,
        engine_system,
        make_uniform_specs,
    )

    system = engine_system(3, 2, seed=b"shard-crash", shards=4)
    specs = make_uniform_specs(system, 3, 2)
    store = CheckpointStore()

    def crash_hook(engine, rounds):
        if rounds == 3:
            raise SimulatedEngineCrash("killed mid-run on shards")

    engine = ProtocolEngine(
        system, specs, checkpoint_store=store, checkpoint_every=1,
        crash_hook=crash_hook,
    )
    with pytest.raises(SimulatedEngineCrash):
        engine.run()

    resumed = ProtocolEngine.resume(system, store.latest())
    report = resumed.run()
    assert all(outcome.status == "completed" for outcome in report.outcomes)
    assert_exactly_once_payouts(system, specs, report.outcomes)
    assert_shard_conservation(system.testnet)
    system.testnet.assert_consensus()
