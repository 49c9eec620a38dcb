"""Open-market end-to-end: N listings through post → bid → match →
Algorithm 1 → claim → settle/dispute, with escrow conservation.

The acceptance shape: N=8 listings bid over one shared certified pool,
one listing takes the court path, and afterwards the accounting layer
re-derives from chain data alone that every token that entered the
board escrow left it exactly once (bonus, bond, validator-reward and
dispute-bond legs included), on top of the existing exactly-once task
payout check.  Timing this path is left to the benchmark suite's
``market-mock`` workload; the test only checks correctness.
"""

from __future__ import annotations

import pytest

from repro.core.accounting import (
    assert_exactly_once_payouts,
    assert_market_conservation,
)
from repro.core.engine import engine_system, make_market_specs, run_open_market
from repro.core.reputation import ReputationRegistry

pytestmark = pytest.mark.market

def test_open_market_e2e_n8_with_conservation() -> None:
    num_listings, pool_size, slots = 8, 4, 3
    dispute_listings = (5,)
    system = engine_system(num_listings, slots, seed=b"market-e2e")
    specs = make_market_specs(
        system,
        num_listings,
        pool_size,
        slots_per_listing=slots,
        seed=7,
        dispute_listings=dispute_listings,
    )
    report = run_open_market(system, specs, max_rounds=512)

    # Every listing reached a terminal settled state; exactly the
    # flagged one went through the court.
    assert len(report.listings) == num_listings
    assert all(listing.state == "settled" for listing in report.listings)
    assert [listing.disputed for listing in report.listings] == [
        i in dispute_listings for i in range(num_listings)
    ]
    # Every Algorithm-1 task under the market settled on-chain too.
    assert all(
        outcome.status in ("completed", "defaulted") for outcome in report.outcomes
    )

    # Matched slots were filled and claimed: each winner that submitted
    # linked its task tag back to its bid handle.
    for spec, listing in zip(specs, report.listings):
        assert len(listing.matched_tags) == slots
        assert len(listing.claims) == slots  # all winners submitted here

    # Conservation, both layers: task budgets (exactly-once payouts)
    # and board escrow (bonus + bonds + validator + dispute legs).
    assert_exactly_once_payouts(system, report.task_specs, report.outcomes)
    assert_market_conservation(system, report)

    # Reputation accrued on pseudonymous handles only: exactly one
    # record per pool worker, keyed by its board tag.
    registry = ReputationRegistry.from_board(system.node, report.board_address)
    pool_tags = {
        worker.handle_tag(report.board_address)
        for worker, _ in specs[0].bidders
    }
    assert set(registry.tags()) == pool_tags
    height = system.testnet.height
    assert any(registry.score(tag, height) > 0 for tag in registry.tags())


def test_unattached_listing_unwinds_bonds() -> None:
    """A matched listing whose lister walks away refunds everyone."""
    from repro.core.market import Arbiter, board_config, deploy_marketplace
    from repro.core.requester import Requester
    from repro.core.worker import Worker

    system = engine_system(1, 2, seed=b"market-void")
    arbiter = Arbiter(system)
    board = deploy_marketplace(
        system, arbiter.address, board_config(bid_window=20, attach_window=6)
    )
    requester = Requester(system, "ghost-lister")
    workers = [Worker(system, f"void-worker-{j}") for j in range(2)]
    listing_id = requester.post_listing(
        board, "ghost", num_workers=2, budget=400, quality_bonus=200,
        validator_reward=40,
    )
    for worker in workers:
        assert worker.place_bid(board, listing_id, 100).success
    node = system.node
    deadline = node.call(board, "get_listing", [listing_id])["bid_deadline"]
    while system.testnet.height <= deadline:
        system.testnet.mine_blocks(1)
    requester.match_listing(board, listing_id)

    # The lister never attaches a task; once the attach window lapses
    # ANYONE may unwind (a worker does, here, via its board account).
    attach_deadline = node.call(board, "get_listing", [listing_id])[
        "attach_deadline"
    ]
    while system.testnet.height <= attach_deadline:
        system.testnet.mine_blocks(1)
    from repro.chain.transaction import Transaction, encode_call
    from repro.core.protocol import DEFAULT_GAS_LIMIT, DEFAULT_GAS_PRICE

    account = workers[0].board_account(board)
    system.fund_anonymous(account.address)
    tx = Transaction(
        nonce=node.nonce_of(account.address),
        gas_price=DEFAULT_GAS_PRICE,
        gas_limit=DEFAULT_GAS_LIMIT,
        to=board,
        value=0,
        data=encode_call("void_unattached", [listing_id]),
    )
    assert system.send_reliable(tx, account.keypair).success

    listing = node.call(board, "get_listing", [listing_id])
    assert listing["state"] == "void"
    assert listing["escrow"] == 0
    legs = sorted(leg for _, _, leg in listing["payouts"])
    assert legs.count("unattached-bond-return") == 2
    assert legs.count("unattached-refund") == 1
    # Workers hold their stakes again (net contract credit = stake).
    from repro.core.accounting import contract_payment

    for worker in workers:
        address = worker.board_account(board).address
        assert contract_payment(node, address) == 100
