"""Transaction Merkle trie + the header-only light client."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import ecdsa
from repro.crypto.hashing import keccak256, sha256
from repro.errors import InvalidBlockError
from repro.chain.consensus import PoAEngine
from repro.chain.light import LightClient, serve_inclusion_proof
from repro.chain.node import GenesisConfig, Node
from repro.chain.receipts import RECEIPT_LEAF_PREFIX
from repro.chain.transaction import Transaction
from repro.chain.txtrie import (
    InclusionProof,
    branch_root,
    merkle_branch,
    merkle_root,
    prove_inclusion,
    transactions_merkle_root,
    verify_inclusion,
)

MINER = ecdsa.ECDSAKeyPair.from_seed(b"lt-miner")
USER = ecdsa.ECDSAKeyPair.from_seed(b"lt-user")


# ----- trie ---------------------------------------------------------------------


def _hashes(count: int) -> list:
    return [sha256(b"tx", bytes([i])) for i in range(count)]


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 8, 13])
def test_every_leaf_provable(count: int) -> None:
    hashes = _hashes(count)
    root = transactions_merkle_root(hashes)
    for index in range(count):
        proof = prove_inclusion(hashes, index)
        assert verify_inclusion(root, proof)


def test_empty_root_is_sentinel() -> None:
    assert transactions_merkle_root([]) == transactions_merkle_root([])
    assert transactions_merkle_root([]) != transactions_merkle_root(_hashes(1))


def test_wrong_leaf_fails() -> None:
    hashes = _hashes(4)
    root = transactions_merkle_root(hashes)
    proof = prove_inclusion(hashes, 2)
    forged = InclusionProof(
        tx_hash=sha256(b"other"), index=proof.index, siblings=proof.siblings
    )
    assert not verify_inclusion(root, forged)


def test_wrong_position_fails() -> None:
    hashes = _hashes(4)
    root = transactions_merkle_root(hashes)
    proof = prove_inclusion(hashes, 2)
    # 6, -2 and 2 + 2^40 agree with 2 in the two bits a depth-2 branch reads.
    for index in (1, 6, -2, 2 + 2**40):
        moved = InclusionProof(
            tx_hash=proof.tx_hash, index=index, siblings=proof.siblings
        )
        assert not verify_inclusion(root, moved)


def test_proof_index_bounds() -> None:
    with pytest.raises(IndexError):
        prove_inclusion(_hashes(3), 3)


@given(st.integers(min_value=1, max_value=24), st.integers(min_value=0, max_value=23))
@settings(max_examples=30)
def test_inclusion_property(count: int, which: int) -> None:
    hashes = _hashes(count)
    index = which % count
    assert verify_inclusion(
        transactions_merkle_root(hashes), prove_inclusion(hashes, index)
    )


def _per_node_tree(leaves: list, prefix: bytes):
    """The reference: one ``keccak256`` per leaf and per inner node,
    returning the root and every leaf's sibling path."""
    level = [keccak256(prefix, payload) for payload in leaves]
    paths: list = [[] for _ in leaves]
    positions = list(range(len(leaves)))
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        for leaf, position in enumerate(positions):
            paths[leaf].append(level[position ^ 1])
            positions[leaf] = position >> 1
        level = [
            keccak256(b"\x01", level[i], level[i + 1])
            for i in range(0, len(level), 2)
        ]
    return level[0], [tuple(path) for path in paths]


@pytest.mark.parametrize("prefix", [b"\x00", RECEIPT_LEAF_PREFIX])
@pytest.mark.parametrize("count", range(34))
def test_level_hashing_matches_per_node_tree(count: int, prefix: bytes) -> None:
    """Hashing a level with one ``keccak256_many`` call gives the
    per-node tree's root and branches; payload lengths 0-286 put leaves
    of one, two and three Keccak blocks in one level."""
    leaves = [bytes([i]) * (i * 13 % 287) for i in range(count)]
    if not count:
        assert merkle_root(leaves, prefix, empty_root=b"sentinel") == b"sentinel"
        return
    root, paths = _per_node_tree(leaves, prefix)
    assert merkle_root(leaves, prefix) == root
    for index in range(count):
        branch = merkle_branch(leaves, index, prefix)
        assert branch == paths[index]
        assert branch_root(leaves[index], index, branch, prefix) == root


def test_order_sensitivity() -> None:
    hashes = _hashes(4)
    swapped = [hashes[1], hashes[0], *hashes[2:]]
    assert transactions_merkle_root(hashes) != transactions_merkle_root(swapped)


# ----- light client ------------------------------------------------------------------


@pytest.fixture
def full_node() -> Node:
    genesis = GenesisConfig(allocations={USER.address(): 10**12})
    engine = PoAEngine([MINER.public_key])
    return Node("full", genesis, engine=engine, keypair=MINER, is_miner=True)


def _light_for(node: Node) -> LightClient:
    genesis_header = node.block_by_number(0).header
    return LightClient(node.engine, genesis_header)


def test_light_client_syncs_headers(full_node) -> None:
    for i in range(3):
        full_node.submit_transaction(
            Transaction(nonce=i, gas_price=1, gas_limit=21_000,
                        to=b"\x01" * 20, value=1).sign(USER)
        )
        full_node.create_block(timestamp=1_500_000_015 + 15 * i)
    light = _light_for(full_node)
    assert light.sync_from(full_node) == 3
    assert light.height == 3
    assert light.head_header.block_hash() == full_node.head_block.block_hash


def test_light_client_rejects_forged_seal(full_node) -> None:
    import dataclasses

    block = full_node.create_block(timestamp=1_500_000_015)
    light = _light_for(full_node)
    forged = dataclasses.replace(block.header, seal=b"\x00" * 65)
    with pytest.raises(InvalidBlockError):
        light.import_header(forged)


def test_light_client_rejects_gap(full_node) -> None:
    full_node.create_block(timestamp=1_500_000_015)
    b2 = full_node.create_block(timestamp=1_500_000_030)
    light = _light_for(full_node)
    with pytest.raises(InvalidBlockError):
        light.import_header(b2.header)  # header 1 missing


def test_light_client_verifies_inclusion(full_node) -> None:
    stx = Transaction(nonce=0, gas_price=1, gas_limit=21_000,
                      to=b"\x02" * 20, value=5).sign(USER)
    full_node.submit_transaction(stx)
    full_node.create_block(timestamp=1_500_000_015)
    light = _light_for(full_node)
    light.sync_from(full_node)
    served = serve_inclusion_proof(full_node, stx.tx_hash)
    assert served is not None
    proof, number = served
    assert light.verify_transaction_inclusion(proof, number)
    # A proof for a different (fake) tx fails.
    fake = InclusionProof(tx_hash=sha256(b"fake"), index=proof.index,
                          siblings=proof.siblings)
    assert not light.verify_transaction_inclusion(fake, number)


def test_serve_proof_unknown_tx(full_node) -> None:
    assert serve_inclusion_proof(full_node, sha256(b"nope")) is None


def test_light_client_header_by_number(full_node) -> None:
    for i in range(2):
        full_node.create_block(timestamp=1_500_000_015 + 15 * i)
    light = _light_for(full_node)
    light.sync_from(full_node)
    assert light.header_by_number(1).number == 1
    assert light.header_by_number(5) is None
