"""Consensus engines: proof-of-authority and simulated proof-of-work.

The paper's test net runs two mining PCs and two validating full nodes;
the default engine here is round-robin PoA over the miner set (block
producer authenticity via an ECDSA seal, checked against the
validator's known public key), with a bounded-difficulty simulated PoW
available for tests that need probabilistic sealing.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence

from repro import observability as obs
from repro.crypto import ecdsa
from repro.crypto.hashing import keccak256
from repro.errors import InvalidBlockError, SignatureError
from repro.chain.block import BlockHeader


class ConsensusEngine(abc.ABC):
    """Seals and validates block headers."""

    @abc.abstractmethod
    def expected_proposer(self, height: int) -> Optional[bytes]:
        """The only address allowed to seal ``height`` (None = anyone)."""

    @abc.abstractmethod
    def seal(self, header: BlockHeader, miner_key: ecdsa.ECDSAKeyPair) -> bytes:
        """Produce the seal bytes for an unsealed header."""

    @abc.abstractmethod
    def validate_seal(self, header: BlockHeader) -> None:
        """Raise :class:`InvalidBlockError` if a sealed header is invalid."""


class PoAEngine(ConsensusEngine):
    """Round-robin proof-of-authority among a fixed validator set.

    Validators are known by public key (``ECDSAKeyPair.public_key``),
    so a seal is checked with one verification against the expected
    proposer's key, bound to the recovery id
    (:func:`~repro.crypto.ecdsa.verify_recoverable`): it accepts
    exactly the seals whose recovered signer is that validator.
    """

    def __init__(self, validators: Sequence[ecdsa.Point]) -> None:
        if not validators:
            raise ValueError("PoA requires at least one validator")
        for key in validators:
            if not (isinstance(key, tuple) and ecdsa.is_public_key(key)):
                raise ValueError(f"PoA validator {key!r} is not a secp256k1 public key")
        self.validator_keys: List[ecdsa.Point] = list(validators)
        self.validators: List[bytes] = [
            ecdsa.public_key_address(key) for key in validators
        ]

    def expected_proposer(self, height: int) -> bytes:
        return self.validators[height % len(self.validators)]

    def seal(self, header: BlockHeader, miner_key: ecdsa.ECDSAKeyPair) -> bytes:
        if miner_key.address() != self.expected_proposer(header.number):
            raise InvalidBlockError("not this validator's turn")
        return miner_key.sign(header.hash_without_seal()).to_bytes()

    def validate_seal(self, header: BlockHeader) -> None:
        turn = header.number % len(self.validators)
        if header.miner != self.validators[turn]:
            obs.count("consensus.seal_rejections")
            raise InvalidBlockError(
                f"block {header.number} sealed by the wrong validator"
            )
        try:
            signature = ecdsa.ECDSASignature.from_bytes(header.seal)
            ecdsa.require_low_s(signature)
        except SignatureError as exc:
            obs.count("consensus.seal_rejections")
            raise InvalidBlockError(f"unreadable PoA seal: {exc}") from exc
        if not ecdsa.verify_recoverable(
            self.validator_keys[turn], header.hash_without_seal(), signature
        ):
            obs.count("consensus.seal_rejections")
            raise InvalidBlockError("PoA seal signed by the wrong key")
        obs.count("consensus.seals_validated")


class SimulatedPoWEngine(ConsensusEngine):
    """Hash-below-target proof-of-work with test-scale difficulty."""

    def __init__(self, difficulty: int = 1 << 8) -> None:
        if difficulty < 1:
            raise ValueError("difficulty must be positive")
        self.difficulty = difficulty
        self._target = (1 << 256) // difficulty

    def expected_proposer(self, height: int) -> Optional[bytes]:
        return None  # anyone with enough hash power

    def seal(self, header: BlockHeader, miner_key: ecdsa.ECDSAKeyPair) -> bytes:
        base = header.hash_without_seal()
        nonce = 0
        while True:
            seal = nonce.to_bytes(8, "big")
            if int.from_bytes(keccak256(base + seal), "big") < self._target:
                return seal
            nonce += 1

    def validate_seal(self, header: BlockHeader) -> None:
        digest = keccak256(header.hash_without_seal() + header.seal)
        if int.from_bytes(digest, "big") >= self._target:
            obs.count("consensus.seal_rejections")
            raise InvalidBlockError("PoW seal does not meet the target")
        obs.count("consensus.seals_validated")
