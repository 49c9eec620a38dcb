"""TxSender timeout/retry semantics: at-most-once under loss."""

from __future__ import annotations

from typing import List

import pytest

from repro.crypto import ecdsa
from repro.chain.network import Testnet
from repro.chain.transaction import SignedTransaction, Transaction
from repro.chain.txsender import PendingTx, TxAbandonedError, TxSender

USER = ecdsa.ECDSAKeyPair.from_seed(b"txs-user")
SINK = b"\x42" * 20


class _DropFirstN:
    """An adversary censoring the first ``n`` broadcasts it sees."""

    def __init__(self, n: int) -> None:
        self.remaining = n
        self.dropped: List[bytes] = []

    def on_transaction(self, stx: SignedTransaction):
        if self.remaining > 0:
            self.remaining -= 1
            self.dropped.append(stx.tx_hash)
            return []
        return [stx]


def _funded_net() -> Testnet:
    net = Testnet()
    net.fund(USER.address(), 10**9)
    return net


def _confirm(sender: TxSender, tx: Transaction, key) -> PendingTx:
    """``send`` spelled out: broadcast, then mine until confirmed."""
    pending = sender.broadcast(tx, key)
    sender.confirm_all([pending])
    return pending


def test_clean_send_confirms_in_one_attempt() -> None:
    net = _funded_net()
    sender = TxSender(net)
    tx = Transaction(nonce=0, gas_price=1, gas_limit=21_000, to=SINK, value=3)
    pending = _confirm(sender, tx, USER)
    assert pending.receipt.success
    assert pending.attempts == 1
    assert pending.transaction.gas_price == 1
    assert net.any_node.balance_of(SINK) == 3


def test_dropped_tx_is_resubmitted_with_gas_bump() -> None:
    net = _funded_net()
    net.network.adversary = _DropFirstN(1)
    sender = TxSender(net, timeout_blocks=2)
    tx = Transaction(nonce=0, gas_price=100, gas_limit=21_000, to=SINK, value=7)
    pending = _confirm(sender, tx, USER)
    assert pending.receipt.success
    assert pending.attempts == 2
    assert pending.transaction.gas_price == 125  # +25% bump on the retry
    assert net.any_node.balance_of(SINK) == 7


def test_duplicate_resubmission_is_idempotent() -> None:
    """Both the original and the bumped replacement float around; the
    shared nonce guarantees exactly one inclusion."""
    net = _funded_net()

    class _DelayingAdversary:
        """Holds the first broadcast, re-releasing it alongside later ones."""

        def __init__(self) -> None:
            self.held: List[SignedTransaction] = []
            self.calls = 0

        def on_transaction(self, stx: SignedTransaction):
            self.calls += 1
            if self.calls == 1:
                self.held.append(stx)
                return []
            return [stx] + self.held  # duplicate the withheld original

    net.network.adversary = _DelayingAdversary()
    sender = TxSender(net, timeout_blocks=2)
    tx = Transaction(nonce=0, gas_price=10, gas_limit=21_000, to=SINK, value=9)
    pending = _confirm(sender, tx, USER)
    assert pending.receipt.success
    assert len(pending.tx_hashes) == 2  # two distinct attempts existed
    assert net.any_node.balance_of(SINK) == 9  # paid exactly once
    net.mine_blocks(3)  # give the stale duplicate every chance to apply
    assert net.any_node.balance_of(SINK) == 9
    assert net.any_node.nonce_of(USER.address()) == 1


def test_superseded_nonce_is_reported_not_retried_forever() -> None:
    net = _funded_net()

    class _Substituting:
        """Censors the victim and spends its nonce on something else."""

        def __init__(self) -> None:
            other = Transaction(
                nonce=0, gas_price=999, gas_limit=21_000,
                to=b"\x43" * 20, value=1,
            )
            self.replacement = other.sign(USER)

        def on_transaction(self, stx: SignedTransaction):
            if stx.transaction.to == SINK:
                return [self.replacement]
            return [stx]

    net.network.adversary = _Substituting()
    sender = TxSender(net, timeout_blocks=2, max_attempts=2)
    tx = Transaction(nonce=0, gas_price=1, gas_limit=21_000, to=SINK, value=5)
    with pytest.raises(TxAbandonedError):
        sender.send(tx, USER)
    assert net.any_node.balance_of(SINK) == 0
    assert net.any_node.balance_of(b"\x43" * 20) == 1


def test_send_signed_rebroadcasts_without_bump() -> None:
    net = _funded_net()
    net.network.adversary = _DropFirstN(1)
    sender = TxSender(net, timeout_blocks=2)
    stx = Transaction(
        nonce=0, gas_price=1, gas_limit=21_000, to=SINK, value=2
    ).sign(USER)
    receipt = sender.send_signed(stx)
    assert receipt.success
    assert receipt.tx_hash == stx.tx_hash
    assert sender.total_resubmissions == 1


def test_abandons_after_max_attempts_of_total_loss() -> None:
    net = _funded_net()
    net.network.adversary = _DropFirstN(10**6)  # black hole
    sender = TxSender(net, timeout_blocks=1, max_attempts=3)
    tx = Transaction(nonce=0, gas_price=1, gas_limit=21_000, to=SINK, value=1)
    with pytest.raises(TxAbandonedError):
        sender.send(tx, USER)
    assert sender.total_attempts == 3


def test_gas_bump_clamped_to_sender_balance() -> None:
    net = Testnet()
    poor = ecdsa.ECDSAKeyPair.from_seed(b"txs-poor")
    net.fund(poor.address(), 30_000)  # covers gas_limit at price 1 only
    net.network.adversary = _DropFirstN(1)
    sender = TxSender(net, timeout_blocks=2)
    tx = Transaction(nonce=0, gas_price=1, gas_limit=21_000, to=SINK, value=100)
    pending = _confirm(sender, tx, poor)
    assert pending.receipt.success
    assert pending.attempts == 2
    # (30_000 - 100) // 21_000 == 1: no affordable bump, same price resent.
    assert pending.transaction.gas_price == 1


# ----- concurrent-sender additions: NonceManager + the async broadcast path ----------


def test_nonce_manager_reserves_consecutively() -> None:
    """Two reservations before anything lands must not collide."""
    net = _funded_net()
    sender = TxSender(net)
    a = sender.nonces.reserve(USER.address())
    b = sender.nonces.reserve(USER.address())
    assert (a, b) == (0, 1)
    assert sender.nonces.reserve(USER.address()) == 2


def test_nonce_manager_follows_chain_after_inclusion() -> None:
    net = _funded_net()
    sender = TxSender(net)
    nonce = sender.nonces.reserve(USER.address())
    tx = Transaction(nonce=nonce, gas_price=1, gas_limit=21_000, to=SINK, value=1)
    assert sender.send(tx, USER).success
    # A transaction signed outside this manager lands nonce 1 as well.
    other = Transaction(nonce=1, gas_price=1, gas_limit=21_000, to=SINK, value=1)
    assert net.tx_sender.send(other, USER).success
    # Chain nonce (2) now dominates the local reservation (1).
    assert sender.nonces.reserve(USER.address()) == 2


def test_broadcast_batch_lands_in_one_block() -> None:
    """The engine's path: sign + gossip a wave without mining, then one
    block confirms every pending transaction."""
    net = _funded_net()
    sender = TxSender(net)
    pendings = [
        sender.broadcast(
            Transaction(
                nonce=sender.nonces.reserve(USER.address()),
                gas_price=1, gas_limit=21_000, to=SINK, value=1,
            ),
            USER,
        )
        for _ in range(3)
    ]
    assert all(p.receipt is None for p in pendings)
    net.mine_block()
    remaining = sender.service(pendings)
    assert remaining == []
    blocks = {p.receipt.block_number for p in pendings}
    assert len(blocks) == 1
    assert all(p.receipt.success for p in pendings)
    assert net.any_node.balance_of(SINK) == 3


def test_service_retries_dropped_broadcast() -> None:
    """A censored broadcast is rebroadcast with a gas bump by service()
    once the timeout passes, reusing the reserved nonce (no gap)."""
    net = _funded_net()
    adversary = _DropFirstN(1)
    net.network.adversary = adversary
    sender = TxSender(net, timeout_blocks=1, max_attempts=4)
    tx = Transaction(nonce=0, gas_price=1, gas_limit=21_000, to=SINK, value=2)
    pending = sender.broadcast(tx, USER)
    assert len(adversary.dropped) == 1
    remaining = [pending]
    for _ in range(4):
        net.mine_block()
        remaining = sender.service(remaining)
        if not remaining:
            break
    assert remaining == []
    assert pending.receipt is not None and pending.receipt.success
    assert pending.attempts >= 2
    assert pending.transaction.nonce == 0
    assert net.any_node.balance_of(SINK) == 2


def test_service_resends_keyless_pending_unchanged() -> None:
    """Without the signing key a retry cannot bump the fee, so service()
    re-sends the signed bytes it already has: same hash, same price."""
    net = _funded_net()
    net.network.adversary = _DropFirstN(1)
    sender = TxSender(net, timeout_blocks=1)
    tx = Transaction(nonce=0, gas_price=1, gas_limit=21_000, to=SINK, value=4)
    pending = sender.broadcast(tx, USER)
    pending.keypair = None
    original = list(pending.tx_hashes)
    remaining = [pending]
    for _ in range(4):
        net.mine_block()
        remaining = sender.service(remaining)
        if not remaining:
            break
    assert remaining == []
    assert pending.receipt.success
    assert pending.receipt.tx_hash == original[0]
    assert pending.tx_hashes == original
    assert pending.transaction.gas_price == 1
    assert pending.attempts == 2
    assert net.any_node.balance_of(SINK) == 4


def test_rearm_resends_unconfirmed_pending_on_a_fresh_lease() -> None:
    """An abandoned pending is re-sent at once under its nonce with a
    fresh attempt budget; a confirmed or keyless one is left alone."""
    net = _funded_net()
    adversary = _DropFirstN(10**6)  # black hole until healed
    net.network.adversary = adversary
    sender = TxSender(net, timeout_blocks=1, max_attempts=2)
    tx = Transaction(nonce=0, gas_price=1, gas_limit=21_000, to=SINK, value=6)
    pending = sender.broadcast(tx, USER)
    with pytest.raises(TxAbandonedError):
        sender.confirm_all([pending])
    assert pending.attempts == 2
    last_variant = pending.tx_hashes[-1]
    sends_before = len(adversary.dropped)

    adversary.remaining = 0
    assert sender.rearm(pending)
    assert pending.attempts == 1
    assert pending.broadcast_height == net.height
    assert len(adversary.dropped) == sends_before  # the re-send got through
    resent = net.network.transaction_log[-1]
    assert resent.transaction.nonce == 0
    assert resent.tx_hash == last_variant  # re-signed, no further bump
    (receipt,) = sender.confirm_all([pending])
    assert receipt.success and pending.attempts == 1
    assert net.any_node.balance_of(SINK) == 6

    # Confirmed: nothing to re-send.
    assert not sender.rearm(pending)
    # Keyless: nothing to re-sign with, so it is left alone.
    keyless = sender.broadcast(
        Transaction(nonce=1, gas_price=1, gas_limit=21_000, to=SINK, value=1),
        USER,
    )
    keyless.keypair = None
    keyless.attempts = 2
    attempts_before = sender.total_attempts
    assert not sender.rearm(keyless)
    assert keyless.attempts == 2
    assert sender.total_attempts == attempts_before


# ----- capped exponential backoff with seeded jitter --------------------------


def test_retry_interval_first_attempt_is_the_plain_timeout() -> None:
    net = _funded_net()
    sender = TxSender(net, timeout_blocks=2)
    assert sender.retry_interval(USER.address(), 0, 1) == 2


def test_retry_interval_backs_off_exponentially_with_cap() -> None:
    net = _funded_net()
    sender = TxSender(
        net, timeout_blocks=2, max_retry_interval=16, jitter_blocks=0
    )
    intervals = [
        sender.retry_interval(USER.address(), 0, attempt)
        for attempt in range(1, 7)
    ]
    assert intervals == [2, 4, 8, 16, 16, 16]


def test_retry_interval_jitter_is_deterministic_and_bounded() -> None:
    net = _funded_net()
    sender = TxSender(net, timeout_blocks=2, jitter_blocks=3)
    for attempt in range(2, 6):
        first = sender.retry_interval(USER.address(), 7, attempt)
        again = sender.retry_interval(USER.address(), 7, attempt)
        assert first == again  # replayable chaos runs
        base = min(sender.max_retry_interval, 2 << (attempt - 1))
        assert base <= first <= base + 3


def test_retry_interval_jitter_varies_across_senders() -> None:
    net = _funded_net()
    sender = TxSender(net, timeout_blocks=1, jitter_blocks=7)
    draws = {
        sender.retry_interval(bytes([i]) * 20, 0, 3) for i in range(16)
    }
    assert len(draws) > 1  # concurrent senders do not retry in lockstep


def test_backoff_slows_later_resubmissions() -> None:
    """Under total censorship the gaps between attempts must widen."""
    net = _funded_net()
    adversary = _DropFirstN(100)
    net.network.adversary = adversary
    sender = TxSender(
        net, timeout_blocks=1, max_attempts=4, jitter_blocks=0
    )
    tx = Transaction(nonce=0, gas_price=1, gas_limit=21_000, to=SINK, value=1)
    pending = sender.broadcast(tx, USER)
    attempt_heights = [net.height]
    remaining = [pending]
    for _ in range(12):
        net.mine_block()
        before = pending.attempts
        try:
            remaining = sender.service(remaining)
        except TxAbandonedError:
            break
        if pending.attempts > before:
            attempt_heights.append(net.height)
    gaps = [b - a for a, b in zip(attempt_heights, attempt_heights[1:])]
    # Attempt 1 -> 2 after 1 block, 2 -> 3 after 2, 3 -> 4 after 4.
    assert gaps == [1, 2, 4]
