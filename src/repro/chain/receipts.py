"""Execution receipts, event logs, and the per-block receipts trie.

Receipts get their own Merkle commitment in the header
(``receipts_root``) so a light client holding only validated headers
can check that a particular execution *outcome* — a reward payout
landing, a submission reverting — happened, without replaying state.
The trie reuses the binary tree from :mod:`repro.chain.txtrie` under a
distinct leaf domain prefix, so receipt branches and transaction
branches can never be confused for one another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.crypto.hashing import keccak256
from repro.serialization import encode
from repro.chain.txtrie import branch_root, merkle_branch, merkle_root

STATUS_SUCCESS = 1
STATUS_REVERTED = 0

#: Leaf domain separator for the receipts trie (tx trie uses b"\x00").
RECEIPT_LEAF_PREFIX = b"\x02"
EMPTY_RECEIPTS_ROOT = keccak256(b"empty-receipt-trie")


@dataclass(frozen=True)
class Log:
    """One contract-emitted event."""

    address: bytes
    event: str
    fields: Dict[str, Any]

    def approximate_size(self) -> int:
        return len(self.event) + len(repr(self.fields))


@dataclass
class Receipt:
    """Outcome of executing one transaction."""

    tx_hash: bytes
    status: int
    gas_used: int
    logs: List[Log] = field(default_factory=list)
    contract_address: Optional[bytes] = None
    return_value: Any = None
    error: Optional[str] = None
    block_number: Optional[int] = None

    @property
    def success(self) -> bool:
        return self.status == STATUS_SUCCESS


def encode_receipt(receipt: Receipt) -> bytes:
    """Canonical byte encoding — the receipts-trie leaf payload.

    Return values and log fields may be arbitrary picklable objects, so
    (as with storage in ``WorldState.state_root``) they enter the
    commitment through a stable ``repr`` rendering.
    """
    log_items = [
        encode(
            [
                log.address,
                log.event,
                repr(sorted(log.fields.items(), key=lambda kv: kv[0])),
            ]
        )
        for log in receipt.logs
    ]
    return encode(
        [
            receipt.tx_hash,
            receipt.status,
            receipt.gas_used,
            receipt.contract_address,
            receipt.error,
            repr(receipt.return_value),
            receipt.block_number,
            log_items,
        ]
    )


def receipts_root(receipts: Sequence[Receipt]) -> bytes:
    """The Merkle root of a block's ordered receipt encodings."""
    return merkle_root(
        [encode_receipt(receipt) for receipt in receipts],
        leaf_prefix=RECEIPT_LEAF_PREFIX,
        empty_root=EMPTY_RECEIPTS_ROOT,
    )


@dataclass(frozen=True)
class ReceiptProof:
    """A Merkle branch proving one receipt sits in a block.

    The verifier re-derives the leaf from the *claimed* receipt, so a
    forged receipt body changes the leaf and breaks the branch.
    """

    receipt: Receipt
    index: int
    siblings: Tuple[bytes, ...]

    def compute_root(self) -> bytes:
        return branch_root(
            encode_receipt(self.receipt),
            self.index,
            self.siblings,
            leaf_prefix=RECEIPT_LEAF_PREFIX,
        )


def prove_receipt_inclusion(receipts: Sequence[Receipt], index: int) -> ReceiptProof:
    """Build the branch for ``receipts[index]``."""
    if not 0 <= index < len(receipts):
        raise IndexError("receipt index out of range")
    encodings = [encode_receipt(receipt) for receipt in receipts]
    return ReceiptProof(
        receipt=receipts[index],
        index=index,
        siblings=merkle_branch(encodings, index, leaf_prefix=RECEIPT_LEAF_PREFIX),
    )


def verify_receipt_proof(root: bytes, proof: ReceiptProof) -> bool:
    """Check a receipt branch against a header's receipts root."""
    try:
        return proof.compute_root() == root
    except ValueError:
        return False
