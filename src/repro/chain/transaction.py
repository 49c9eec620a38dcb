"""Transactions: signed messages to the ledger.

A transaction either transfers value, calls a contract method, or
creates a contract.  Call data is the canonical encoding of
``[kind, name, args]``; signing follows the Ethereum pattern (sign the
keccak of the canonically-encoded unsigned transaction, recover the
sender from the signature).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, List, Optional, Tuple

from repro.crypto import ecdsa
from repro.crypto.hashing import keccak256
from repro.errors import InvalidTransactionError
from repro.serialization import encode
from repro.chain.address import ADDRESS_LENGTH

CALL_KIND = "call"
CREATE_KIND = "create"


def encode_call(method: str, args: List[Any]) -> bytes:
    """Calldata for invoking ``method(*args)`` on a contract."""
    return encode([CALL_KIND, method, args])


def encode_create(contract_name: str, args: List[Any]) -> bytes:
    """Calldata for deploying registered contract ``contract_name``."""
    return encode([CREATE_KIND, contract_name, args])


@dataclass(frozen=True)
class Transaction:
    """An unsigned transaction."""

    nonce: int
    gas_price: int
    gas_limit: int
    to: Optional[bytes]  # None => contract creation
    value: int
    data: bytes = b""
    chain_id: int = 1337

    def __post_init__(self) -> None:
        if self.to is not None and len(self.to) != ADDRESS_LENGTH:
            raise InvalidTransactionError("destination must be a 20-byte address")
        if self.value < 0 or self.nonce < 0 or self.gas_price < 0 or self.gas_limit < 0:
            raise InvalidTransactionError("transaction fields must be non-negative")

    @property
    def is_create(self) -> bool:
        return self.to is None

    def signing_hash(self) -> bytes:
        # Cached directly in __dict__ (bypasses the frozen guard):
        # signing, sender recovery, and tx hashing all need this keccak,
        # and calldata can be kilobytes.
        cached = self.__dict__.get("_signing_hash")
        if cached is None:
            cached = keccak256(
                encode(
                    [
                        self.nonce,
                        self.gas_price,
                        self.gas_limit,
                        self.to,
                        self.value,
                        self.data,
                        self.chain_id,
                    ]
                )
            )
            self.__dict__["_signing_hash"] = cached
        return cached

    def sign(self, keypair: ecdsa.ECDSAKeyPair) -> "SignedTransaction":
        signature = keypair.sign(self.signing_hash())
        return SignedTransaction(transaction=self, signature=signature)


@dataclass(frozen=True)
class SignedTransaction:
    """A transaction plus its secp256k1 signature."""

    transaction: Transaction
    signature: ecdsa.ECDSASignature

    @cached_property
    def sender(self) -> bytes:
        """The 20-byte sender address recovered from a low-s signature."""
        try:
            ecdsa.require_low_s(self.signature)
            return ecdsa.recover_address(
                self.transaction.signing_hash(), self.signature
            )
        except Exception as exc:  # noqa: BLE001 - map to domain error
            raise InvalidTransactionError(f"unrecoverable signature: {exc}") from exc

    @cached_property
    def tx_hash(self) -> bytes:
        return keccak256(
            encode(
                [
                    self.transaction.signing_hash(),
                    self.signature.r,
                    self.signature.s,
                    self.signature.v,
                ]
            )
        )

    def verify_signature(self) -> bool:
        try:
            _ = self.sender
        except InvalidTransactionError:
            return False
        return True

    def to_wire(self) -> bytes:
        """Canonical gossip encoding of the signed transaction."""
        tx = self.transaction
        return encode(
            [
                tx.nonce,
                tx.gas_price,
                tx.gas_limit,
                tx.to,
                tx.value,
                tx.data,
                tx.chain_id,
                self.signature.r,
                self.signature.s,
                self.signature.v,
            ]
        )

    @classmethod
    def from_wire(cls, wire: bytes) -> "SignedTransaction":
        """Inverse of :meth:`to_wire`; rejects malformed bytes loudly."""
        from repro.serialization import decode

        try:
            fields = decode(wire)
        except (ValueError, TypeError) as exc:
            raise InvalidTransactionError(f"malformed transaction wire: {exc}") from exc
        if not isinstance(fields, list) or len(fields) != 10:
            raise InvalidTransactionError("transaction wire must carry 10 fields")
        nonce, gas_price, gas_limit, to, value, data, chain_id, r, s, v = fields
        if to is not None and not isinstance(to, bytes):
            raise InvalidTransactionError("destination must be bytes or None")
        if not isinstance(data, bytes):
            raise InvalidTransactionError("calldata must be bytes")
        for field_value in (nonce, gas_price, gas_limit, value, chain_id, r, s, v):
            if not isinstance(field_value, int):
                raise InvalidTransactionError("numeric field has the wrong type")
        tx = Transaction(
            nonce=nonce, gas_price=gas_price, gas_limit=gas_limit,
            to=to, value=value, data=data, chain_id=chain_id,
        )
        return cls(transaction=tx, signature=ecdsa.ECDSASignature(r=r, s=s, v=v))

    def decode_data(self) -> Tuple[str, str, List[Any]]:
        """Decode calldata into (kind, name, args)."""
        from repro.serialization import decode

        if not self.transaction.data:
            return ("", "", [])
        try:
            kind, name, args = decode(self.transaction.data)
        except (ValueError, TypeError) as exc:
            raise InvalidTransactionError(f"malformed calldata: {exc}") from exc
        return (kind, name, args)

    def max_cost(self) -> int:
        """value + worst-case gas fee; must be covered by the sender."""
        tx = self.transaction
        return tx.value + tx.gas_price * tx.gas_limit
