"""Testnet facade and network adversary hooks."""

from __future__ import annotations

from typing import List

import pytest

from repro.crypto import ecdsa
from repro.errors import ChainError
from repro.chain.network import Testnet
from repro.chain.transaction import SignedTransaction, Transaction

USER = ecdsa.ECDSAKeyPair.from_seed(b"net-user")


def test_paper_topology_default(testnet) -> None:
    assert len(testnet.miners) == 2
    assert len(testnet.full_nodes) == 2


def test_fund_and_consensus(testnet) -> None:
    testnet.fund(USER.address(), 5_000)
    for node in testnet.network.nodes:
        assert node.balance_of(USER.address()) == 5_000
    testnet.assert_consensus()


def test_round_robin_mining(testnet) -> None:
    b1 = testnet.mine_block()
    b2 = testnet.mine_block()
    assert b1.header.miner != b2.header.miner  # two PoA validators alternate


def test_clock_advances_per_block(testnet) -> None:
    t0 = testnet.clock.now
    testnet.mine_block()
    assert testnet.clock.now == t0 + testnet.block_interval


def test_wait_for_receipt(testnet) -> None:
    testnet.fund(USER.address(), 10**9)
    tx = Transaction(nonce=0, gas_price=1, gas_limit=21_000,
                     to=b"\x55" * 20, value=7)
    tx_hash = testnet.send_transaction(tx.sign(USER))
    receipt = testnet.wait_for_receipt(tx_hash)
    assert receipt.success
    assert testnet.any_node.balance_of(b"\x55" * 20) == 7


def test_mine_until_raises_when_unreachable(testnet) -> None:
    with pytest.raises(ChainError):
        testnet.mine_until(lambda: False, max_blocks=3)


def test_pending_transactions_publicly_visible(testnet) -> None:
    testnet.fund(USER.address(), 10**9)
    tx = Transaction(nonce=0, gas_price=1, gas_limit=21_000,
                     to=b"\x66" * 20, value=1)
    testnet.send_transaction(tx.sign(USER))
    pending = testnet.network.pending_transactions()
    assert any(stx.transaction.to == b"\x66" * 20 for stx in pending)


class _CensoringAdversary:
    """Drops every transaction paying to the victim address."""

    def __init__(self, victim: bytes) -> None:
        self.victim = victim
        self.censored: List[SignedTransaction] = []

    def on_transaction(self, stx: SignedTransaction):
        if stx.transaction.to == self.victim:
            self.censored.append(stx)
            return []
        return [stx]


def test_adversary_can_censor(testnet) -> None:
    testnet.fund(USER.address(), 10**9)
    victim = b"\x77" * 20
    adversary = _CensoringAdversary(victim)
    testnet.network.adversary = adversary
    tx = Transaction(nonce=0, gas_price=1, gas_limit=21_000, to=victim, value=9)
    testnet.send_transaction(tx.sign(USER))
    testnet.mine_blocks(2)
    assert adversary.censored
    assert testnet.any_node.balance_of(victim) == 0


class _ObservingAdversary:
    """Sees every broadcast transaction before miners do (§III power)."""

    def __init__(self) -> None:
        self.seen: List[bytes] = []

    def on_transaction(self, stx: SignedTransaction):
        self.seen.append(stx.tx_hash)
        return [stx]


def test_adversary_observes_all_traffic(testnet) -> None:
    testnet.network.adversary = _ObservingAdversary()
    testnet.fund(USER.address(), 10**9)
    assert testnet.network.adversary.seen  # saw the faucet transfer


def test_custom_topology() -> None:
    net = Testnet(miners=1, full_nodes=0)
    assert net.any_node is net.miners[0]
    net.mine_block()
    net.assert_consensus()


def test_fault_schedules_need_a_fault_plan(testnet) -> None:
    """``tick`` applies them only under a plan; called without one they raise."""
    assert testnet.network.fault_plan is None
    with pytest.raises(ChainError, match="crashes"):
        testnet.network._apply_crash_schedule(1)
    with pytest.raises(ChainError, match="partitions"):
        testnet.network._apply_partition_schedule(1)
