"""Serial-equivalence oracle for optimistic parallel block execution.

The contract of :func:`repro.chain.parallel.execute_block` is that the
committed state, the receipts (every field), and the gas accounting are
bit-identical to serial execution — for any lane count and any lane
assignment.  These tests sweep ~100 seeded random
blocks (plain transfers, contract calls, cross-contract reads,
deliberate slot collisions, reverting txs, same-sender nonce chains
split across lanes) through lane counts 1/2/4/8 and compare roots,
receipt encodings and gas against the serial baseline.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

import pytest

import repro.contracts  # noqa: F401  (registers KVStore)
from repro.crypto import ecdsa
from repro.errors import ChainError, InvalidBlockError
from repro.chain.consensus import PoAEngine
from repro.chain.contract import BlockContext
from repro.chain.node import GenesisConfig, Node
from repro.chain.parallel import (
    BlockExecutionStats,
    assign_lanes,
    execute_block,
)
from repro.chain.receipts import encode_receipt
from repro.chain.state import LaneState, WorldState
from repro.chain.transaction import Transaction, encode_call
from repro.chain.vm import VM

SENDERS = [ecdsa.ECDSAKeyPair.from_seed(b"par-sender-%d" % i) for i in range(8)]
RECIPIENTS = [bytes([0x50 + i]) * 20 for i in range(4)]
KV_A = b"\x6a" * 20
KV_B = b"\x6b" * 20
COINBASE = b"\x7c" * 20
FUNDING = 10**15
LANE_COUNTS = (2, 4, 8)
BLOCK_CTX = BlockContext(number=1, timestamp=1_500_000_015, coinbase=COINBASE)


def _base_state() -> WorldState:
    state = WorldState()
    for keypair in SENDERS:
        state.credit(keypair.address(), FUNDING)
    for address in (KV_A, KV_B):
        state.account(address).contract_name = "KVStore"
    return state


def _call(sender_index: int, nonce: int, to: bytes, method: str, args: list,
          gas_limit: int = 400_000):
    return Transaction(
        nonce=nonce, gas_price=2, gas_limit=gas_limit, to=to, value=0,
        data=encode_call(method, args),
    ).sign(SENDERS[sender_index])


def _random_block(rng: random.Random) -> List:
    """6–14 txs mixing transfers, kv writes, collisions and reverts."""
    nonces = {i: 0 for i in range(len(SENDERS))}
    txs = []
    for _ in range(rng.randint(6, 14)):
        sender = rng.randrange(len(SENDERS))
        nonce = nonces[sender]
        nonces[sender] += 1
        kind = rng.random()
        contract = rng.choice([KV_A, KV_B])
        slot = f"slot-{rng.randrange(3)}"
        if kind < 0.30:
            txs.append(
                Transaction(
                    nonce=nonce, gas_price=2, gas_limit=30_000,
                    to=rng.choice(RECIPIENTS), value=rng.randint(1, 1000),
                ).sign(SENDERS[sender])
            )
        elif kind < 0.55:
            txs.append(_call(sender, nonce, contract, "put",
                             [slot, rng.randint(0, 99)]))
        elif kind < 0.70:
            txs.append(_call(sender, nonce, contract, "bump", [slot]))
        elif kind < 0.80:
            other = KV_B if contract == KV_A else KV_A
            txs.append(_call(sender, nonce, contract, "copy_from", [other, slot]))
        elif kind < 0.90:
            txs.append(_call(sender, nonce, contract, "fail", []))
        else:
            # Calldata to a plain account: deterministic revert.
            txs.append(_call(sender, nonce, rng.choice(RECIPIENTS), "put",
                             [slot, 1]))
    return txs


def _fingerprint(state: WorldState, execution) -> Tuple[bytes, List[bytes], int]:
    return (
        state.state_root(),
        [encode_receipt(receipt) for receipt in execution.receipts],
        execution.gas_used,
    )


def _random_assignment(rng: random.Random, count: int, lanes: int) -> List[int]:
    return [rng.randrange(lanes) for _ in range(count)]


@pytest.mark.parametrize("master_seed", range(10), ids=lambda s: f"seed-{s}")
def test_parallel_matches_serial_sweep(master_seed: int) -> None:
    """~100 blocks × lanes 1/2/4/8: byte-identical roots/receipts/gas.

    Every third block additionally runs under a *random* lane
    assignment (splitting same-sender nonce chains across lanes), so
    the invalid-at-speculation re-execution path is exercised too.
    """
    vm = VM()
    totals = BlockExecutionStats(lanes=0)
    for block_index in range(10):
        rng = random.Random((master_seed << 8) | block_index)
        txs = _random_block(rng)
        serial_state = _base_state()
        serial = execute_block(vm, serial_state, txs, BLOCK_CTX, lanes=1)
        expected = _fingerprint(serial_state, serial)
        assert len(serial.receipts) == len(txs)
        for lanes in LANE_COUNTS:
            assignment: Optional[List[int]] = None
            if block_index % 3 == 0:
                assignment = _random_assignment(rng, len(txs), lanes)
            state = _base_state()
            execution = execute_block(
                vm, state, txs, BLOCK_CTX, lanes=lanes, assignment=assignment
            )
            assert _fingerprint(state, execution) == expected
            totals.transactions += execution.stats.transactions
            totals.speculative_commits += execution.stats.speculative_commits
            totals.reexecutions += execution.stats.reexecutions
            totals.conflicts += execution.stats.conflicts
    # The generator must produce real concurrency *and* real contention,
    # otherwise the sweep silently stops testing anything.
    assert totals.speculative_commits > 0
    assert totals.reexecutions > 0
    assert totals.conflicts > 0


def test_affinity_assignment_is_deterministic_and_groups_senders() -> None:
    rng = random.Random(7)
    txs = _random_block(rng)
    assignment = assign_lanes(txs, 4)
    assert assignment == assign_lanes(txs, 4)
    by_sender = {}
    for stx, lane in zip(txs, assignment):
        by_sender.setdefault(stx.sender, set()).add(lane)
    assert all(len(lanes) == 1 for lanes in by_sender.values())


def test_cross_lane_conflict_reexecutes_in_serial_order() -> None:
    """Two lanes bumping one slot: the commit pass must re-execute the
    later tx so the counter ends at 2, not at a lost-update 1."""
    vm = VM()
    txs = [
        _call(0, 0, KV_A, "bump", ["hot"]),
        _call(1, 0, KV_B, "bump", ["warm"]),
        _call(2, 0, KV_B, "copy_from", [KV_A, "hot"]),
    ]
    # Force the conflicting pair onto different lanes explicitly.
    assignment = [0, 1, 1]
    serial_state = _base_state()
    serial = execute_block(vm, serial_state, txs, BLOCK_CTX, lanes=1)
    state = _base_state()
    execution = execute_block(
        vm, state, txs, BLOCK_CTX, lanes=2, assignment=assignment
    )
    assert _fingerprint(state, execution) == _fingerprint(serial_state, serial)
    assert execution.stats.conflicts >= 1
    assert state.account(KV_A).storage["hot"] == 1


def test_split_nonce_chain_still_serializes() -> None:
    """A sender's txs scattered across lanes (invalid at speculation
    time beyond the first) must still all land, in order."""
    vm = VM()
    txs = [
        Transaction(nonce=n, gas_price=2, gas_limit=30_000,
                    to=RECIPIENTS[0], value=10).sign(SENDERS[0])
        for n in range(4)
    ]
    serial_state = _base_state()
    serial = execute_block(vm, serial_state, txs, BLOCK_CTX, lanes=1)
    state = _base_state()
    execution = execute_block(
        vm, state, txs, BLOCK_CTX, lanes=4, assignment=[0, 1, 2, 3]
    )
    assert _fingerprint(state, execution) == _fingerprint(serial_state, serial)
    assert execution.stats.reexecutions == 3
    assert state.nonce_of(SENDERS[0].address()) == 4


def test_build_mode_drops_invalid_verify_mode_raises() -> None:
    vm = VM()
    valid = _call(0, 0, KV_A, "bump", ["x"])
    invalid = Transaction(nonce=5, gas_price=2, gas_limit=30_000,
                          to=RECIPIENTS[0], value=1).sign(SENDERS[1])
    state = _base_state()
    execution = execute_block(
        vm, state, [valid, invalid], BLOCK_CTX, lanes=2, mode="build"
    )
    assert execution.stats.invalid_dropped == 1
    assert [stx.tx_hash for stx in execution.included] == [valid.tx_hash]
    from repro.errors import InvalidTransactionError

    with pytest.raises(InvalidTransactionError):
        execute_block(
            vm, _base_state(), [valid, invalid], BLOCK_CTX, lanes=2, mode="verify"
        )


def test_commutative_coinbase_credits_do_not_conflict() -> None:
    """Independent transfers only share the coinbase fee account; they
    must all commit speculatively."""
    vm = VM()
    txs = [
        Transaction(nonce=0, gas_price=2, gas_limit=30_000,
                    to=RECIPIENTS[i % len(RECIPIENTS)], value=5).sign(SENDERS[i])
        for i in range(8)
    ]
    state = _base_state()
    execution = execute_block(
        vm, state, txs, BLOCK_CTX, lanes=4,
        assignment=[i % 4 for i in range(8)],
    )
    assert execution.stats.reexecutions == 0
    assert execution.stats.speculative_commits == 8
    fees = sum(2 * receipt.gas_used for receipt in execution.receipts)
    assert state.balance_of(COINBASE) == fees


def test_lane_state_is_isolated_overlay() -> None:
    base = WorldState()
    base.credit(RECIPIENTS[0], 100)
    lane = LaneState(base)
    lane.begin_access_window()
    lane.credit(RECIPIENTS[0], 50)          # buffered (commutative)
    lane.account(RECIPIENTS[1]).balance = 7  # materialized write
    assert lane.balance_of(RECIPIENTS[0]) == 150
    assert base.balance_of(RECIPIENTS[0]) == 100
    assert not base.has_account(RECIPIENTS[1])
    effects = lane.finish_access_window()
    assert effects.credits == {RECIPIENTS[0]: 50}
    assert RECIPIENTS[1] in effects.written
    with pytest.raises(ChainError):
        lane.state_root()


def test_nodes_with_different_lane_counts_agree() -> None:
    """A serial miner's block imports cleanly on a 4-lane verifier and
    both end at the same state root and receipts root."""
    miner_key = ecdsa.ECDSAKeyPair.from_seed(b"par-miner")
    genesis = GenesisConfig(
        allocations={keypair.address(): FUNDING for keypair in SENDERS}
    )
    engine = PoAEngine([miner_key.address()])
    miner = Node("serial-miner", genesis, engine=engine, keypair=miner_key,
                 is_miner=True)
    verifier = Node("parallel-verifier", genesis, engine=engine,
                    execution_lanes=4)
    for sender in range(4):
        miner.submit_transaction(_call(sender, 0, KV_A, "bump", ["shared"]))
        miner.submit_transaction(
            Transaction(nonce=1, gas_price=2, gas_limit=30_000,
                        to=RECIPIENTS[1], value=3).sign(SENDERS[sender])
        )
    block = miner.create_block(timestamp=1_500_000_015)
    assert len(block.transactions) == 8
    assert verifier.import_block(block)
    assert verifier.head_state.state_root() == miner.head_state.state_root()
    assert verifier.receipts_for_block(block.block_hash) == \
        miner.receipts_for_block(block.block_hash)


def test_tampered_receipts_root_rejected() -> None:
    """An importer must reject a block whose receipts root lies."""
    import dataclasses

    miner_key = ecdsa.ECDSAKeyPair.from_seed(b"par-miner")
    genesis = GenesisConfig(
        allocations={keypair.address(): FUNDING for keypair in SENDERS}
    )
    engine = PoAEngine([miner_key.address()])
    miner = Node("miner", genesis, engine=engine, keypair=miner_key, is_miner=True)
    verifier = Node("verifier", genesis, engine=engine, execution_lanes=2)
    miner.submit_transaction(_call(0, 0, KV_A, "bump", ["x"]))
    miner.submit_transaction(_call(1, 0, KV_B, "bump", ["y"]))
    block = miner.create_block(timestamp=1_500_000_015)
    header = dataclasses.replace(
        block.header, receipts_root=b"\xee" * 32, seal=b""
    )
    header = dataclasses.replace(
        header, seal=engine.seal(header, miner_key)
    )
    forged = dataclasses.replace(block, header=header)
    with pytest.raises(InvalidBlockError, match="receipts root"):
        verifier.import_block(forged)
