"""Binary Merkle commitments over a block's ordered contents.

Replaces a flat hash so light clients can verify transaction (and
receipt) inclusion against just a header (footnote 12: "requesters and
workers can even run on top of so-called light-weight nodes, which
eventually allows them receive and send messages only related to
crowdsourcing tasks").

The generic helpers (:func:`merkle_root`, :func:`merkle_branch`,
:func:`branch_root`) parameterize the leaf domain-separation prefix so
the transaction trie and the receipts trie (``chain/receipts.py``)
share one tree shape without cross-proof confusion: a tx-trie branch
can never validate against a receipts root because the leaf prefixes
differ.

Building a tree hashes each level (the leaves, then each parent level)
with one :func:`~repro.crypto.hashing.keccak256_many` call, so a
level's independent nodes share packed Keccak passes; a one-node level
(a one-transaction block, and every root) stays on the one-lane path.
Folding a single branch (:func:`branch_root`) hashes one node per
level and stays scalar.  A branch binds its index to
[0, 2^len(siblings)): an index outside that range raises instead of
aliasing the position whose low bits it shares.

Known limitation: odd levels duplicate their last node, so
``[a, b, c]`` and ``[a, b, c, c]`` share a root and a branch for the
phantom index 3 of a 3-leaf tree verifies.  A block body with its last
transaction repeated therefore matches its header's ``tx_root``;
import refuses it at re-execution, where the repeat fails the nonce
check.  Binding the leaf count would change every root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.crypto.hashing import keccak256, keccak256_many

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"
_EMPTY_ROOT = keccak256(b"empty-tx-trie")


def _leaf(payload: bytes, prefix: bytes = _LEAF_PREFIX) -> bytes:
    return keccak256(prefix, payload)


def _node(left: bytes, right: bytes) -> bytes:
    return keccak256(_NODE_PREFIX, left, right)


def _levels(leaves: Sequence[bytes], leaf_prefix: bytes) -> List[List[bytes]]:
    """Every level of the tree over ``leaves``, leaves first, root last.

    Each level is hashed with one :func:`keccak256_many` call, so its
    nodes share packed permutation passes; an odd level gets its last
    node duplicated before its parents are hashed.
    """
    level = keccak256_many([leaf_prefix + payload for payload in leaves])
    levels = [level]
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = keccak256_many(
            [_NODE_PREFIX + level[i] + level[i + 1] for i in range(0, len(level), 2)]
        )
        levels.append(level)
    return levels


def merkle_root(
    leaves: Sequence[bytes],
    leaf_prefix: bytes = _LEAF_PREFIX,
    empty_root: bytes = _EMPTY_ROOT,
) -> bytes:
    """The Merkle root over ordered leaf payloads.

    Odd levels duplicate the last node (Bitcoin-style padding); an
    empty sequence commits to the domain's fixed sentinel root.
    """
    if not leaves:
        return empty_root
    return _levels(leaves, leaf_prefix)[-1][0]


def merkle_branch(
    leaves: Sequence[bytes], index: int, leaf_prefix: bytes = _LEAF_PREFIX
) -> Tuple[bytes, ...]:
    """Sibling path proving ``leaves[index]`` under :func:`merkle_root`."""
    if not 0 <= index < len(leaves):
        raise IndexError("leaf index out of range")
    levels = _levels(leaves, leaf_prefix)
    return tuple(
        level[(index >> depth) ^ 1] for depth, level in enumerate(levels[:-1])
    )


def branch_root(
    leaf_payload: bytes,
    index: int,
    siblings: Sequence[bytes],
    leaf_prefix: bytes = _LEAF_PREFIX,
) -> bytes:
    """Fold a sibling path back up to the root it claims.

    The path reads one bit of ``index`` per sibling, so an index
    outside [0, 2^len(siblings)) would alias one inside it (and a
    negative one would pass Python's ``&`` and ``>>``): such an index
    raises ValueError rather than verify as another position.
    """
    if not 0 <= index < 1 << len(siblings):
        raise ValueError("leaf index out of range for the branch depth")
    node = _leaf(leaf_payload, leaf_prefix)
    position = index
    for sibling in siblings:
        if position & 1:
            node = _node(sibling, node)
        else:
            node = _node(node, sibling)
        position >>= 1
    return node


def transactions_merkle_root(tx_hashes: Sequence[bytes]) -> bytes:
    """The Merkle root of a block's ordered transaction hashes."""
    return merkle_root(tx_hashes)


@dataclass(frozen=True)
class InclusionProof:
    """A Merkle branch proving one transaction sits in a block."""

    tx_hash: bytes
    index: int
    siblings: Tuple[bytes, ...]

    def compute_root(self) -> bytes:
        return branch_root(self.tx_hash, self.index, self.siblings)


def prove_inclusion(tx_hashes: Sequence[bytes], index: int) -> InclusionProof:
    """Build the branch for ``tx_hashes[index]``."""
    if not 0 <= index < len(tx_hashes):
        raise IndexError("transaction index out of range")
    return InclusionProof(
        tx_hash=tx_hashes[index],
        index=index,
        siblings=merkle_branch(tx_hashes, index),
    )


def verify_inclusion(root: bytes, proof: InclusionProof) -> bool:
    """Check a branch against a header's transaction root."""
    try:
        return proof.compute_root() == root
    except ValueError:
        return False
