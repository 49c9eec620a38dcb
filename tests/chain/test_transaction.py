"""Transactions: signing, recovery, calldata, validation surface."""

from __future__ import annotations

import pytest

from repro.crypto import ecdsa
from repro.errors import InvalidTransactionError
from repro.chain.transaction import (
    SignedTransaction,
    Transaction,
    encode_call,
    encode_create,
)

KEY = ecdsa.ECDSAKeyPair.from_seed(b"tx-signer")


def _tx(**overrides) -> Transaction:
    fields = dict(
        nonce=0, gas_price=1, gas_limit=21_000, to=b"\x11" * 20, value=100, data=b""
    )
    fields.update(overrides)
    return Transaction(**fields)


def test_sender_recovered_from_signature() -> None:
    signed = _tx().sign(KEY)
    assert signed.sender == KEY.address()
    assert signed.verify_signature()


def test_tx_hash_covers_signature() -> None:
    signed_a = _tx().sign(KEY)
    signed_b = _tx(value=101).sign(KEY)
    assert signed_a.tx_hash != signed_b.tx_hash


def test_signing_hash_covers_all_fields() -> None:
    base = _tx().signing_hash()
    assert _tx(nonce=1).signing_hash() != base
    assert _tx(gas_price=2).signing_hash() != base
    assert _tx(gas_limit=22_000).signing_hash() != base
    assert _tx(to=b"\x22" * 20).signing_hash() != base
    assert _tx(value=1).signing_hash() != base
    assert _tx(data=b"\x00").signing_hash() != base
    assert _tx(chain_id=2).signing_hash() != base


def test_negative_fields_rejected() -> None:
    with pytest.raises(InvalidTransactionError):
        _tx(value=-1)
    with pytest.raises(InvalidTransactionError):
        _tx(nonce=-1)


def test_bad_destination_rejected() -> None:
    with pytest.raises(InvalidTransactionError):
        _tx(to=b"\x11" * 19)


def test_create_has_no_destination() -> None:
    tx = _tx(to=None, data=encode_create("Counter", [1]))
    assert tx.is_create


def test_calldata_roundtrip() -> None:
    signed = _tx(data=encode_call("method", [1, b"x", [2, 3]])).sign(KEY)
    assert signed.decode_data() == ("call", "method", [1, b"x", [2, 3]])
    created = _tx(to=None, data=encode_create("Thing", ["a"])).sign(KEY)
    assert created.decode_data() == ("create", "Thing", ["a"])


def test_empty_calldata_decodes_empty() -> None:
    assert _tx().sign(KEY).decode_data() == ("", "", [])


def test_malformed_calldata_raises() -> None:
    signed = _tx(data=b"\xff\xff").sign(KEY)
    with pytest.raises(InvalidTransactionError):
        signed.decode_data()


def test_max_cost() -> None:
    signed = _tx(value=100, gas_price=2, gas_limit=21_000).sign(KEY)
    assert signed.max_cost() == 100 + 42_000


def test_forged_signature_detected() -> None:
    signed = _tx().sign(KEY)
    forged = SignedTransaction(
        transaction=_tx(value=999_999),
        signature=signed.signature,
    )
    # Recovery yields *some* address, but never the original signer's.
    try:
        assert forged.sender != KEY.address()
    except InvalidTransactionError:
        pass


def _resigned(signed: SignedTransaction, **changes: int) -> SignedTransaction:
    """``signed`` with some signature components replaced."""
    sig = signed.signature
    fields = {"r": sig.r, "s": sig.s, "v": sig.v, **changes}
    return SignedTransaction(
        transaction=signed.transaction, signature=ecdsa.ECDSASignature(**fields)
    )


def test_high_s_twin_rejected() -> None:
    """(r, N − s, v ^ 1) recovers the same sender under a new tx hash, so
    only the signer's low-s form is a valid transaction (EIP-2)."""
    signed = _tx().sign(KEY)
    sig = signed.signature
    twin = _resigned(signed, s=ecdsa.N - sig.s, v=sig.v ^ 1)
    digest = signed.transaction.signing_hash()
    assert ecdsa.recover_address(digest, twin.signature) == KEY.address()
    assert twin.tx_hash != signed.tx_hash
    with pytest.raises(InvalidTransactionError, match="high-s"):
        _ = twin.sender
    assert not twin.verify_signature()
    assert not SignedTransaction.from_wire(twin.to_wire()).verify_signature()


def test_negative_recovery_id_rejected() -> None:
    """v − 2 has the parity of v and used to recover the same sender
    under a new tx hash."""
    signed = _tx().sign(KEY)
    twin = _resigned(signed, v=signed.signature.v - 2)
    assert twin.tx_hash != signed.tx_hash
    with pytest.raises(InvalidTransactionError, match="recovery id"):
        _ = twin.sender
    assert not SignedTransaction.from_wire(twin.to_wire()).verify_signature()
