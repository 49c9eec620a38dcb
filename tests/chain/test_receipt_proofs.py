"""Receipt-proof light clients: valid proofs verify, forgeries fail.

A light client holding only validated headers checks a payout by
verifying a Merkle branch from the receipt encoding up to the header's
``receipts_root``.  The adversarial cases each tamper with one link:
the leaf (a lying receipt body), the path (truncated or
sibling-swapped), the index, and the anchor (a header that lost a
reorg).
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.contracts  # noqa: F401
from repro.crypto import ecdsa
from repro.crypto.hashing import sha256
from repro.chain.consensus import PoAEngine
from repro.chain.light import LightClient, serve_receipt_proof
from repro.chain.node import GenesisConfig, Node
from repro.chain.receipts import (
    Receipt,
    ReceiptProof,
    STATUS_SUCCESS,
    prove_receipt_inclusion,
    receipts_root,
    verify_receipt_proof,
)
from repro.chain.transaction import Transaction

MINER = ecdsa.ECDSAKeyPair.from_seed(b"rp-miner")
USER = ecdsa.ECDSAKeyPair.from_seed(b"rp-user")
PAYEE = b"\x42" * 20


def _node(name: str = "full") -> Node:
    genesis = GenesisConfig(allocations={USER.address(): 10**12})
    engine = PoAEngine([MINER.public_key])
    return Node(name, genesis, engine=engine, keypair=MINER, is_miner=True)


def _light_for(node: Node) -> LightClient:
    return LightClient(node.engine, node.block_by_number(0).header)


def _mine_payout(node: Node, nonce: int = 0, timestamp: int = 1_500_000_015):
    stx = Transaction(nonce=nonce, gas_price=1, gas_limit=21_000,
                      to=PAYEE, value=777).sign(USER)
    node.submit_transaction(stx)
    node.create_block(timestamp=timestamp)
    return stx


# ----- trie-level -------------------------------------------------------------


def _receipts(count: int):
    return [
        Receipt(tx_hash=sha256(b"rp", bytes([i])), status=STATUS_SUCCESS,
                gas_used=21_000 + i, block_number=1)
        for i in range(count)
    ]


@pytest.mark.parametrize("count", [1, 2, 3, 5, 8])
def test_every_receipt_provable(count: int) -> None:
    receipts = _receipts(count)
    root = receipts_root(receipts)
    for index in range(count):
        assert verify_receipt_proof(root, prove_receipt_inclusion(receipts, index))


def test_receipt_and_tx_tries_are_domain_separated() -> None:
    """A single-leaf tx trie and receipts trie over the same bytes must
    not share a root (distinct leaf prefixes)."""
    from repro.chain.txtrie import merkle_root
    from repro.chain.receipts import RECEIPT_LEAF_PREFIX, EMPTY_RECEIPTS_ROOT

    payload = b"same-bytes"
    assert merkle_root([payload]) != merkle_root(
        [payload], leaf_prefix=RECEIPT_LEAF_PREFIX, empty_root=EMPTY_RECEIPTS_ROOT
    )


def test_wrong_leaf_rejected() -> None:
    """A proof whose claimed receipt lies about any field fails."""
    receipts = _receipts(4)
    root = receipts_root(receipts)
    proof = prove_receipt_inclusion(receipts, 2)
    inflated = dataclasses.replace(
        proof, receipt=dataclasses.replace(proof.receipt, gas_used=1)
    )
    assert not verify_receipt_proof(root, inflated)
    restatused = dataclasses.replace(
        proof, receipt=dataclasses.replace(proof.receipt, status=0)
    )
    assert not verify_receipt_proof(root, restatused)


def test_truncated_path_rejected() -> None:
    receipts = _receipts(5)
    root = receipts_root(receipts)
    proof = prove_receipt_inclusion(receipts, 3)
    assert len(proof.siblings) > 1
    truncated = dataclasses.replace(proof, siblings=proof.siblings[:-1])
    assert not verify_receipt_proof(root, truncated)


def test_sibling_swapped_path_rejected() -> None:
    receipts = _receipts(8)
    root = receipts_root(receipts)
    proof = prove_receipt_inclusion(receipts, 2)
    swapped = dataclasses.replace(
        proof, siblings=tuple(reversed(proof.siblings))
    )
    assert not verify_receipt_proof(root, swapped)
    corrupted = dataclasses.replace(
        proof,
        siblings=(sha256(b"evil"),) + proof.siblings[1:],
    )
    assert not verify_receipt_proof(root, corrupted)


def test_wrong_index_rejected() -> None:
    receipts = _receipts(6)
    root = receipts_root(receipts)
    proof = prove_receipt_inclusion(receipts, 4)
    assert len(proof.siblings) == 3
    # 12, -4 and 4 + 2^40 agree with 4 in the three bits the branch reads.
    for index in (1, 12, -4, 4 + 2**40):
        moved = dataclasses.replace(proof, index=index)
        assert not verify_receipt_proof(root, moved)


def test_prove_index_bounds() -> None:
    with pytest.raises(IndexError):
        prove_receipt_inclusion(_receipts(3), 3)


# ----- end-to-end via the light client ----------------------------------------


def test_light_client_verifies_payout_receipt() -> None:
    node = _node()
    stx = _mine_payout(node)
    light = _light_for(node)
    light.sync_from(node)
    served = serve_receipt_proof(node, stx.tx_hash)
    assert served is not None
    proof, number = served
    assert light.verify_receipt_inclusion(proof, number)
    assert proof.receipt.success
    # Unknown block number → no anchor → reject.
    assert not light.verify_receipt_inclusion(proof, number + 7)
    # Same proof against a forged receipt body → reject.
    forged = dataclasses.replace(
        proof, receipt=dataclasses.replace(proof.receipt, gas_used=1)
    )
    assert not light.verify_receipt_inclusion(forged, number)


def test_serve_receipt_proof_unknown_tx() -> None:
    node = _node()
    assert serve_receipt_proof(node, sha256(b"never-mined")) is None


def test_reorged_away_proof_rejected_and_canonical_proof_verifies() -> None:
    """A proof anchored in a header that loses a reorg must fail, while
    the same payout re-proved on the winning branch verifies — across a
    ``sync_from`` that follows the reorg."""
    node_a = _node("a")
    node_b = _node("b")

    # Branch A: payout mined at height 1.
    stx = _mine_payout(node_a)
    light = _light_for(node_a)
    light.sync_from(node_a)
    served = serve_receipt_proof(node_a, stx.tx_hash)
    assert served is not None
    proof_a, number_a = served
    assert light.verify_receipt_inclusion(proof_a, number_a)

    # Branch B (longer, same payout mined later): heights 1–2.
    node_b.create_block(timestamp=1_500_000_015)  # empty block
    stx_b = _mine_payout(node_b, timestamp=1_500_000_030)
    assert stx_b.tx_hash == stx.tx_hash  # same signed payout tx

    # Node A adopts branch B; the light client follows.
    for number in (1, 2):
        node_a.import_block(node_b.block_by_number(number))
    assert node_a.height == 2
    light.sync_from(node_a)
    assert light.height == 2

    # The stale proof no longer verifies anywhere: its anchor header
    # at height 1 was replaced (empty block), and the branch does not
    # match height 2 either.
    assert not light.verify_receipt_inclusion(proof_a, 1)
    assert not light.verify_receipt_inclusion(proof_a, 2)

    # A fresh proof from the canonical chain verifies at height 2.
    served = serve_receipt_proof(node_a, stx.tx_hash)
    assert served is not None
    proof_b, number_b = served
    assert number_b == 2
    assert light.verify_receipt_inclusion(proof_b, number_b)
