"""Full-node behaviour: block production, import validation, fork choice."""

from __future__ import annotations

import dataclasses

import pytest

from repro.crypto import ecdsa
from repro.errors import InvalidBlockError, InvalidTransactionError
from repro.chain.block import Block, BlockHeader
from repro.chain.consensus import PoAEngine
from repro.chain.contract import BlockContext
from repro.chain.node import GenesisConfig, Node, execute_block
from repro.chain.transaction import Transaction
from repro.chain.vm import VM

MINER_KEY = ecdsa.ECDSAKeyPair.from_seed(b"node-miner")
USER = ecdsa.ECDSAKeyPair.from_seed(b"node-user")
PEER = ecdsa.ECDSAKeyPair.from_seed(b"node-peer")


@pytest.fixture
def genesis() -> GenesisConfig:
    return GenesisConfig(allocations={USER.address(): 10**12})


@pytest.fixture
def miner(genesis) -> Node:
    engine = PoAEngine([MINER_KEY.address()])
    return Node("miner", genesis, engine=engine, keypair=MINER_KEY, is_miner=True)


@pytest.fixture
def follower(genesis) -> Node:
    engine = PoAEngine([MINER_KEY.address()])
    return Node("follower", genesis, engine=engine)


def _transfer(nonce: int, value: int = 100) -> Transaction:
    return Transaction(nonce=nonce, gas_price=1, gas_limit=21_000,
                       to=PEER.address(), value=value)


def test_genesis_state(miner) -> None:
    assert miner.height == 0
    assert miner.balance_of(USER.address()) == 10**12


def test_mine_block_includes_pending(miner) -> None:
    miner.submit_transaction(_transfer(0).sign(USER))
    block = miner.create_block(timestamp=1_500_000_015)
    assert block.number == 1
    assert len(block) == 1
    assert miner.balance_of(PEER.address()) == 100
    assert miner.get_receipt(block.transactions[0].tx_hash).success


def test_follower_replays_identically(miner, follower) -> None:
    miner.submit_transaction(_transfer(0).sign(USER))
    block = miner.create_block(timestamp=1_500_000_015)
    assert follower.import_block(block)
    assert follower.head_block.block_hash == miner.head_block.block_hash
    assert follower.head_state.state_root() == miner.head_state.state_root()


def test_reimport_is_noop(miner, follower) -> None:
    block = miner.create_block(timestamp=1_500_000_015)
    assert follower.import_block(block)
    assert not follower.import_block(block)


def test_non_miner_cannot_create(follower) -> None:
    with pytest.raises(InvalidBlockError):
        follower.create_block(timestamp=1_500_000_015)


def test_import_rejects_unknown_parent(miner, follower) -> None:
    b1 = miner.create_block(timestamp=1_500_000_015)
    b2 = miner.create_block(timestamp=1_500_000_030)
    with pytest.raises(InvalidBlockError):
        follower.import_block(b2)  # b1 never delivered


def test_import_rejects_tampered_state_root(miner, follower) -> None:
    block = miner.create_block(timestamp=1_500_000_015)
    header = dataclasses.replace(block.header, state_root=b"\x01" * 32)
    with pytest.raises(InvalidBlockError):
        follower.import_block(Block(header=header, transactions=block.transactions))


def test_import_rejects_tampered_transactions(miner, follower) -> None:
    miner.submit_transaction(_transfer(0).sign(USER))
    block = miner.create_block(timestamp=1_500_000_015)
    with pytest.raises(InvalidBlockError):
        follower.import_block(Block(header=block.header, transactions=()))


def test_tampered_receipts_root_rejected(miner, follower) -> None:
    """An importer recomputes the receipts root and rejects a block
    whose header (validly re-sealed) lies about it."""
    miner.submit_transaction(_transfer(0).sign(USER))
    miner.submit_transaction(_transfer(1).sign(USER))
    block = miner.create_block(timestamp=1_500_000_015)
    header = dataclasses.replace(block.header, receipts_root=b"\xee" * 32, seal=b"")
    header = dataclasses.replace(header, seal=miner.engine.seal(header, MINER_KEY))
    with pytest.raises(InvalidBlockError, match="receipts root"):
        follower.import_block(Block(header=header, transactions=block.transactions))


def test_build_mode_drops_invalid_verify_mode_raises(genesis) -> None:
    vm = VM()
    ctx = BlockContext(number=1, timestamp=1_500_000_015, coinbase=MINER_KEY.address())
    valid = _transfer(0).sign(USER)
    invalid = _transfer(5).sign(USER)  # nonce gap after ``valid``
    included, receipts, _ = execute_block(
        vm, genesis.build_state(), [valid, invalid], ctx, "build"
    )
    assert [stx.tx_hash for stx in included] == [valid.tx_hash]
    assert [receipt.tx_hash for receipt in receipts] == [valid.tx_hash]
    with pytest.raises(InvalidTransactionError):
        execute_block(vm, genesis.build_state(), [valid, invalid], ctx, "verify")
    with pytest.raises(ValueError, match="unknown execution mode"):
        execute_block(vm, genesis.build_state(), [valid], ctx, "replay")


def test_import_rejects_backwards_timestamp(miner, follower) -> None:
    b1 = miner.create_block(timestamp=1_500_000_030)
    follower.import_block(b1)
    b2 = miner.create_block(timestamp=1_500_000_031)
    tampered_header = dataclasses.replace(b2.header, timestamp=1_500_000_010)
    tampered = Block(header=tampered_header, transactions=b2.transactions)
    with pytest.raises(InvalidBlockError):
        follower.import_block(tampered)


def test_chain_to_genesis(miner) -> None:
    miner.create_block(timestamp=1_500_000_015)
    miner.create_block(timestamp=1_500_000_030)
    chain = miner.chain_to_genesis()
    assert [b.number for b in chain] == [0, 1, 2]


def test_block_by_number(miner) -> None:
    b1 = miner.create_block(timestamp=1_500_000_015)
    assert miner.block_by_number(1).block_hash == b1.block_hash
    assert miner.block_by_number(0).number == 0
    assert miner.block_by_number(9) is None


def test_longest_chain_wins(genesis) -> None:
    engine = PoAEngine([MINER_KEY.address()])
    node_a = Node("a", genesis, engine=engine, keypair=MINER_KEY, is_miner=True)
    node_b = Node("b", genesis, engine=engine, keypair=MINER_KEY, is_miner=True)
    # Two competing height-1 blocks (different timestamps → different hashes).
    block_a1 = node_a.create_block(timestamp=1_500_000_015)
    node_b.create_block(timestamp=1_500_000_016)
    # b extends its own chain to height 2; a must reorg onto it.
    block_b2 = node_b.create_block(timestamp=1_500_000_031)
    node_a.import_block(node_b.block_by_number(1))
    node_a.import_block(block_b2)
    assert node_a.head_block.block_hash == block_b2.block_hash
    assert node_a.height == 2
    # The abandoned block is still known.
    assert node_a.block_by_hash(block_a1.block_hash) is not None


def test_included_txs_leave_mempool(miner) -> None:
    stx = _transfer(0).sign(USER)
    miner.submit_transaction(stx)
    assert len(miner.mempool) == 1
    miner.create_block(timestamp=1_500_000_015)
    assert len(miner.mempool) == 0


def test_stale_nonce_rejected_at_submission(miner) -> None:
    miner.submit_transaction(_transfer(0).sign(USER))
    miner.create_block(timestamp=1_500_000_015)
    from repro.errors import InvalidTransactionError

    with pytest.raises(InvalidTransactionError):
        miner.submit_transaction(_transfer(0).sign(USER))


def test_miner_earns_fees(miner) -> None:
    miner.submit_transaction(_transfer(0).sign(USER))
    block = miner.create_block(timestamp=1_500_000_015)
    receipt = miner.get_receipt(block.transactions[0].tx_hash)
    assert miner.balance_of(MINER_KEY.address()) == receipt.gas_used
