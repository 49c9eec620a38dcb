"""Exactly-once payout verification by balance conservation.

Contract payouts are state-level balance credits (no external
transaction carries them), so "paid exactly once" cannot be read off
any single receipt.  Instead it is checked by conservation: for an
address that only ever receives faucet funding and task payouts,

    contract_payment = balance - external_credits + external_debits

where the external flows come from scanning every canonical block's
transactions and receipts.  A double payment (e.g. a replayed reward
instruction after a crash/restart) shows up as twice the expected
reward; a lost payment as zero — either way
:func:`assert_exactly_once_payouts` fails loudly.  The engine's
crash-sweep and chaos tests gate on this, and the chaos benchmark
reports it as its refund-correctness bit.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import ProtocolError
from repro.core.anonymity import derive_one_task_account
from repro.core.engine import STATUS_ABORTED, STATUS_COMPLETED, STATUS_DEFAULTED


def _resident_node(node, address: bytes):
    """The node actually holding an address's chain segment.

    On a sharded chain the routed view exposes ``for_address`` so
    conservation scans run against the owning shard; a plain node is
    its own resident.
    """
    resolve = getattr(node, "for_address", None)
    return resolve(address) if resolve is not None else node


def external_flows(node, address: bytes) -> Tuple[int, int]:
    """(credits, debits) of an address from external transactions only.

    Credits are transfer values sent *to* the address; debits are gas
    plus values of transactions it signed.  Anything else on its
    balance was put there by contract execution.
    """
    node = _resident_node(node, address)
    credits = 0
    debits = 0
    for block in node.canonical_blocks(1, node.height):
        receipts = node.receipts_for_block(block.block_hash) or ()
        for stx, receipt in zip(block.transactions, receipts):
            tx = stx.transaction
            if stx.sender == address:
                debits += receipt.gas_used * tx.gas_price + tx.value
            if tx.to == address:
                credits += tx.value
    return credits, debits


def contract_payment(node, address: bytes) -> int:
    """Net amount the address has received from contract executions."""
    credits, debits = external_flows(node, address)
    return node.balance_of(address) - credits + debits


def worker_task_address(worker, task_address: bytes) -> bytes:
    """The worker's one-task address for a given task contract."""
    account = derive_one_task_account(
        worker._seed, f"task:{task_address.hex()}"
    )
    return account.address


def assert_exactly_once_payouts(system, specs, outcomes) -> None:
    """Every honest worker's payout equals its task's recorded reward.

    Covers all three settlement shapes: completed (policy rewards),
    defaulted (even split over submitters), aborted (no payouts, full
    refund to the requester).  Raises :class:`ProtocolError` on the
    first violation.
    """
    node = system.node
    for spec, outcome in zip(specs, outcomes):
        if not outcome.address:
            continue
        submitters = [
            (worker, answer)
            for worker, answer in zip(spec.workers, spec.answers)
            if answer is not None
        ]
        if outcome.status == STATUS_ABORTED:
            if outcome.rewards or submitters:
                raise ProtocolError(
                    f"task {outcome.index}: aborted with submissions"
                )
            continue
        if outcome.status not in (STATUS_COMPLETED, STATUS_DEFAULTED):
            raise ProtocolError(
                f"task {outcome.index}: unsettled status {outcome.status!r}"
            )
        if len(outcome.rewards) != len(submitters):
            raise ProtocolError(
                f"task {outcome.index}: {len(outcome.rewards)} rewards for "
                f"{len(submitters)} submitters"
            )
        for (worker, _), reward in zip(submitters, outcome.rewards):
            address = worker_task_address(worker, outcome.address)
            paid = contract_payment(node, address)
            if paid != reward:
                raise ProtocolError(
                    f"task {outcome.index}: worker {worker.identity} "
                    f"received {paid}, expected exactly {reward}"
                )
        # The contract keeps nothing: budget = payouts + requester change.
        if node.balance_of(outcome.address) != 0:
            raise ProtocolError(
                f"task {outcome.index}: contract retains "
                f"{node.balance_of(outcome.address)}"
            )


# ----- open-market escrow conservation ------------------------------------------------


def market_inflows(node, board_address: bytes) -> int:
    """Total value successfully deposited into a board by external txs.

    Unlike :func:`external_flows` this filters on receipt status: a
    reverted bid (e.g. a foiled snipe) bounces its value back with the
    revert, so only successful transactions fund the escrow.
    """
    node = _resident_node(node, board_address)
    total = 0
    for block in node.canonical_blocks(1, node.height):
        receipts = node.receipts_for_block(block.block_hash) or ()
        for stx, receipt in zip(block.transactions, receipts):
            if stx.transaction.to == board_address and receipt.success:
                total += stx.transaction.value
    return total


def assert_market_conservation(system, report) -> None:
    """Every token that entered the board escrow left it exactly once.

    Takes a :class:`~repro.core.engine.MarketReport` and re-derives,
    from chain data alone:

    - per listing: recorded payouts sum to the disbursed total, and a
      settled/void listing holds zero escrow;
    - board-level: successful inflows == disbursed + still-open escrow,
      and the board's balance is exactly the open escrow;
    - per recipient: the net contract credit on every payout address
      equals the sum of its recorded payout legs — a doubled or dropped
      disbursement fails here even if the totals happen to balance.

    Raises :class:`ProtocolError` on the first violation.
    """
    node = system.node
    board = report.board_address
    open_escrow = 0
    expected: dict = {}
    total_disbursed = 0
    # Audit EVERY listing the board ever carried, from chain state — a
    # report from one wave must not hide leaks from an earlier one.
    for listing_id in range(node.call(board, "num_listings")):
        listing = node.call(board, "get_listing", [listing_id])
        legs = sum(amount for _, amount, _ in listing["payouts"])
        if legs != listing["disbursed"]:
            raise ProtocolError(
                f"listing {listing_id}: payout legs sum to {legs}, "
                f"disbursed counter says {listing['disbursed']}"
            )
        if listing["state"] in ("settled", "void") and listing["escrow"] != 0:
            raise ProtocolError(
                f"listing {listing_id}: terminal state "
                f"{listing['state']!r} retains escrow {listing['escrow']}"
            )
        open_escrow += listing["escrow"]
        total_disbursed += listing["disbursed"]
        for recipient, amount, _ in listing["payouts"]:
            expected[recipient] = expected.get(recipient, 0) + amount

    inflows = market_inflows(node, board)
    if inflows != total_disbursed + open_escrow:
        raise ProtocolError(
            f"board escrow leak: {inflows} flowed in, "
            f"{total_disbursed} disbursed + {open_escrow} still locked"
        )
    if node.balance_of(board) != open_escrow:
        raise ProtocolError(
            f"board balance {node.balance_of(board)} != open escrow {open_escrow}"
        )
    for recipient, amount in expected.items():
        paid = contract_payment(node, recipient)
        if paid != amount:
            raise ProtocolError(
                f"recipient {recipient.hex()} received {paid} from contracts, "
                f"payout ledger promised exactly {amount}"
            )


# ----- cross-shard value conservation -------------------------------------------------


def assert_shard_conservation(chain) -> None:
    """No mint or burn at shard boundaries.

    On a :class:`~repro.chain.sharding.ShardedChain`, every cross-shard
    send burns value at the source outbox and mints it exactly once at
    the destination inbox, so at every instant

        sum(per-shard total supplies) + in-flight value == initial supply

    where the in-flight term is the pairwise difference between
    cumulative outbox ``sent`` and inbox ``received`` counters.  Also
    checks the in-flight term is non-negative per channel (a negative
    channel means a double delivery slipped past the inbound nonce).
    Accepts a plain Testnet too (zero shards in flight, supply fixed
    since genesis) so callers can assert unconditionally.
    """
    if not hasattr(chain, "in_flight_value"):
        supply = chain.any_node.head_state.total_supply()
        expected = sum(chain.genesis.allocations.values())
        if supply != expected:
            raise ProtocolError(
                f"supply drift on unsharded chain: {supply} != {expected}"
            )
        return
    in_flight = chain.in_flight_value()
    if in_flight < 0:
        raise ProtocolError(
            f"negative in-flight value {in_flight}: an inbox received more "
            "than its source outbox ever sent (double delivery)"
        )
    total = chain.total_supply() + in_flight
    if total != chain.initial_supply():
        raise ProtocolError(
            f"cross-shard conservation violated: supply {chain.total_supply()} "
            f"+ in-flight {in_flight} != initial {chain.initial_supply()}"
        )
