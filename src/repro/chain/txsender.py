"""Client-side resilient transaction submission.

A lossy fabric can drop a broadcast before any miner sees it, so
"submit once and pray" loses transactions.  :class:`TxSender` is the
client discipline that survives it, written once as one state machine:
:meth:`~TxSender.broadcast` gossips a transaction and tracks it as a
:class:`PendingTx`; :meth:`~TxSender.service` confirms it, or — once
its block-count timeout passes and the sender's on-chain nonce shows it
has not landed — re-sends it, with a gas-price bump when it holds the
signing key; and :meth:`~TxSender.confirm_all` mines until every
pending is confirmed.
The synchronous :meth:`~TxSender.send` is ``confirm_all`` over one
``broadcast``.  Retries are idempotent by construction — every attempt
reuses the original nonce, so the chain can include at most one of
them; a consumed nonce with none of our hashes on-chain means a
different transaction superseded ours, which is reported rather than
retried forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro import observability as obs
from repro.crypto import ecdsa
from repro.crypto.hashing import sha256
from repro.errors import ChainError
from repro.chain.receipts import Receipt
from repro.chain.transaction import SignedTransaction, Transaction

#: Fee raise per keyed retry, in percent (clamped to what the sender can afford).
GAS_BUMP_PERCENT = 25


class TxAbandonedError(ChainError):
    """No attempt of a transaction could be confirmed."""


class NonceManager:
    """Per-sender nonce reservation for concurrent broadcasters.

    ``nonce_of`` against the head state only reflects *included*
    transactions, so two clients that both read it before either's
    transaction lands would sign the same nonce and supersede each
    other — the mempool livelock the concurrent engine must avoid.
    Reserving through one shared manager hands out consecutive nonces
    per sender: the chain nonce when the sender has nothing in flight,
    one past the last reservation otherwise.
    """

    def __init__(self, testnet) -> None:
        self.testnet = testnet
        self._reserved: Dict[bytes, int] = {}

    def reserve(self, sender: bytes) -> int:
        """Claim the next nonce for ``sender`` (marks it in-flight)."""
        chain_nonce = self.testnet.any_node.nonce_of(sender)
        nonce = max(chain_nonce, self._reserved.get(sender, 0))
        self._reserved[sender] = nonce + 1
        return nonce

    def snapshot(self) -> Dict[bytes, int]:
        """The reservation table, for engine checkpoints."""
        return dict(self._reserved)

    def restore(self, reservations: Dict[bytes, int]) -> None:
        """Adopt a checkpointed reservation table (chain nonce still wins)."""
        self._reserved = dict(reservations)


@dataclass
class PendingTx:
    """One broadcast-but-unconfirmed transaction the sender tracks.

    All retry attempts share the original nonce, so ``tx_hashes``
    accumulates every signed variant (gas bumps change the hash) and a
    receipt for *any* of them confirms the logical transaction.
    ``signed`` is the last variant gossiped: a keyless pending (no
    ``keypair``, e.g. an externally signed transaction) retries by
    re-sending exactly those bytes.
    """

    transaction: Transaction
    keypair: Optional[ecdsa.ECDSAKeyPair]
    sender: bytes = b""
    tx_hashes: List[bytes] = field(default_factory=list)
    broadcast_height: int = 0
    attempts: int = 1
    receipt: Optional[Receipt] = None
    signed: Optional[SignedTransaction] = None


class TxSender:
    """Reliable at-most-once submission against a :class:`Testnet`.

    ``timeout_blocks`` is how many blocks the *first* attempt waits for
    its receipt; each further attempt doubles the wait (capped at
    ``max_retry_interval``) and adds a deterministic jitter of up to
    ``jitter_blocks`` drawn from a hash of (sender, nonce, attempt) —
    exponential backoff keeps a congested chain from being hammered by
    retries, the seeded jitter de-synchronizes concurrent senders
    without sacrificing replay determinism.  A keyed retry raises the
    fee by :data:`GAS_BUMP_PERCENT` (clamped so the sender can still
    afford ``value + gas_price * gas_limit``); a keyless one re-sends
    its signed bytes unchanged.  After ``max_attempts`` the transaction
    is abandoned with :class:`TxAbandonedError`.
    """

    def __init__(
        self,
        testnet,
        timeout_blocks: int = 8,
        max_attempts: int = 4,
        max_retry_interval: Optional[int] = None,
        jitter_blocks: int = 1,
    ) -> None:
        if timeout_blocks < 1 or max_attempts < 1:
            raise ValueError("need at least one block and one attempt")
        if jitter_blocks < 0:
            raise ValueError("jitter must be non-negative")
        self.testnet = testnet
        self.timeout_blocks = timeout_blocks
        self.max_attempts = max_attempts
        self.max_retry_interval = (
            max_retry_interval
            if max_retry_interval is not None
            else timeout_blocks * 8
        )
        if self.max_retry_interval < timeout_blocks:
            raise ValueError("max_retry_interval must cover timeout_blocks")
        self.jitter_blocks = jitter_blocks
        self.nonces = NonceManager(testnet)
        #: Cumulative counters (read by the chaos bench).
        self.total_attempts = 0
        self.total_resubmissions = 0

    def retry_interval(self, sender: bytes, nonce: int, attempt: int) -> int:
        """Blocks attempt number ``attempt`` waits before the next retry.

        Attempt 1 waits exactly ``timeout_blocks`` (the historical fixed
        interval, so a clean send is never slower than before); later
        attempts back off exponentially with the seeded jitter.
        """
        attempt = max(1, attempt)
        base = min(self.max_retry_interval, self.timeout_blocks << (attempt - 1))
        if attempt == 1 or self.jitter_blocks == 0:
            return base
        draw = int.from_bytes(
            sha256(
                b"txsender-backoff", sender,
                nonce.to_bytes(8, "big"), attempt.to_bytes(4, "big"),
            ),
            "big",
        )
        return base + draw % (self.jitter_blocks + 1)

    # ----- the state machine -------------------------------------------------------

    def broadcast(
        self, tx: Transaction, keypair: ecdsa.ECDSAKeyPair
    ) -> PendingTx:
        """Sign and gossip ``tx`` WITHOUT mining — the batched path.

        The caller (typically the engine's scheduler) mines blocks on
        its own cadence and drives :meth:`service` to confirm or retry
        every in-flight transaction of a whole wave at once.
        """
        return self._start(tx.sign(keypair), keypair)

    def poll(self, pending: PendingTx) -> Optional[Receipt]:
        """Look for a receipt of any attempt; caches it on the pending."""
        if pending.receipt is None:
            pending.receipt = self._find_receipt(pending.tx_hashes)
        return pending.receipt

    def service(self, pendings: List[PendingTx]) -> List[PendingTx]:
        """One maintenance pass over in-flight transactions.

        Polls receipts, and for anything still unconfirmed after its
        backoff interval (see :meth:`retry_interval`) re-sends it under
        the same nonce, so at most one attempt can ever land.  Returns
        the still-pending subset.  Raises :class:`TxAbandonedError`
        when a transaction exhausted its attempts or its nonce was
        consumed by a stranger.
        """
        unconfirmed: List[PendingTx] = []
        for pending in pendings:
            if self.poll(pending) is not None:
                continue
            waited = self.testnet.height - pending.broadcast_height
            interval = self.retry_interval(
                pending.sender, pending.transaction.nonce, pending.attempts
            )
            if waited >= interval:
                self._retry(pending)
                if pending.receipt is not None:
                    continue
            unconfirmed.append(pending)
        return unconfirmed

    def confirm_all(
        self, pendings: List[PendingTx], max_blocks: int = 256
    ) -> List[Receipt]:
        """Mine until every pending transaction is confirmed."""
        remaining = self.service(list(pendings))
        for _ in range(max_blocks):
            if not remaining:
                break
            self.testnet.mine_block()
            remaining = self.service(remaining)
        if remaining:
            raise TxAbandonedError(
                f"{len(remaining)} transactions unconfirmed after "
                f"{max_blocks} blocks"
            )
        return [pending.receipt for pending in pendings]

    def rearm(self, pending: PendingTx) -> bool:
        """Re-send an unconfirmed ``pending`` now, under a fresh lease.

        The recovery for a transaction abandoned because faults starved
        it rather than because a stranger consumed its nonce: it is
        re-signed under its nonce (same slot, so at most one attempt
        can ever land) and its attempt budget restarts at 1.  Returns
        False, sending nothing, when ``pending`` is already confirmed
        or has no signing key.
        """
        if self.poll(pending) is not None or pending.keypair is None:
            return False
        pending.attempts = 1
        self._submit(pending, pending.transaction.sign(pending.keypair))
        return True

    def _retry(self, pending: PendingTx) -> None:
        """Re-send one timed-out pending under the same nonce."""
        nonce = pending.transaction.nonce
        if self.testnet.any_node.nonce_of(pending.sender) > nonce:
            # Someone's transaction with our nonce landed; ours or not?
            if self.poll(pending) is not None:
                return
            raise TxAbandonedError(
                "nonce consumed by a transaction that is not ours"
            )
        if pending.attempts >= self.max_attempts:
            raise TxAbandonedError(
                f"no receipt after {pending.attempts} attempts"
            )
        if pending.keypair is not None:
            pending.transaction = replace(
                pending.transaction,
                gas_price=self._bumped_price(pending.transaction, pending.sender),
            )
            stx = pending.transaction.sign(pending.keypair)
        elif pending.signed is not None:
            stx = pending.signed
        else:
            raise TxAbandonedError("cannot retry without the signing key")
        pending.attempts += 1
        self.total_resubmissions += 1
        self._submit(pending, stx)
        if obs.TRACER.enabled:
            obs.count("txsender.retries")
            obs.observe(
                "txsender.retry_backoff_blocks",
                self.retry_interval(
                    pending.sender, pending.transaction.nonce, pending.attempts
                ),
                buckets=(1, 2, 4, 8, 16, 32, 64),
            )

    # ----- synchronous sends --------------------------------------------------------

    def send(self, tx: Transaction, keypair: ecdsa.ECDSAKeyPair) -> Receipt:
        """Broadcast ``tx`` and mine until it is confirmed (or abandoned)."""
        with obs.span("txsender.send", nonce=tx.nonce) as send_span:
            return self._confirm(self.broadcast(tx, keypair), send_span)

    def send_signed(self, stx: SignedTransaction) -> Receipt:
        """Confirm an externally signed transaction (rebroadcast-only).

        Without the key we cannot bump the fee, but we can still retry
        the identical bytes — idempotent because the chain dedupes by
        nonce and the mempool by hash.
        """
        with obs.span(
            "txsender.send", nonce=stx.transaction.nonce, signed=True
        ) as send_span:
            return self._confirm(self._start(stx, None), send_span)

    # ----- internals ----------------------------------------------------------------

    def _start(
        self, stx: SignedTransaction, keypair: Optional[ecdsa.ECDSAKeyPair]
    ) -> PendingTx:
        """Track a new logical transaction and gossip its first attempt."""
        pending = PendingTx(stx.transaction, keypair, sender=stx.sender)
        if obs.TRACER.enabled:
            obs.count("txsender.sends")
        self._submit(pending, stx)
        return pending

    def _submit(self, pending: PendingTx, stx: SignedTransaction) -> None:
        """Gossip one signed variant of ``pending`` and restart its wait."""
        pending.signed = stx
        if stx.tx_hash not in pending.tx_hashes:
            pending.tx_hashes.append(stx.tx_hash)
        pending.broadcast_height = self.testnet.height
        self.total_attempts += 1
        self.testnet.send_transaction(stx)
        if obs.TRACER.enabled:
            obs.count("txsender.attempts")

    def _confirm(self, pending: PendingTx, send_span) -> Receipt:
        start = self.testnet.height
        (receipt,) = self.confirm_all([pending])
        blocks_waited = self.testnet.height - start
        send_span.set_attrs(attempts=pending.attempts, blocks_waited=blocks_waited)
        if obs.TRACER.enabled:
            obs.observe(
                "txsender.blocks_waited", blocks_waited,
                buckets=(0, 1, 2, 4, 8, 16, 32, 64),
            )
        return receipt

    def _find_receipt(self, tx_hashes: List[bytes]) -> Optional[Receipt]:
        for node in self.testnet.network.nodes:
            if node.crashed:
                continue
            for tx_hash in tx_hashes:
                receipt = node.get_receipt(tx_hash)
                if receipt is not None:
                    return receipt
        return None

    def _bumped_price(self, tx: Transaction, sender: bytes) -> int:
        bumped = max(
            tx.gas_price + 1,
            tx.gas_price * (100 + GAS_BUMP_PERCENT) // 100,
        )
        # Never price the replacement beyond what the sender can cover,
        # or every node would reject it at admission.
        balance = self.testnet.any_node.balance_of(sender)
        if tx.gas_limit > 0:
            affordable = (balance - tx.value) // tx.gas_limit
            bumped = min(bumped, max(affordable, tx.gas_price))
        return bumped
