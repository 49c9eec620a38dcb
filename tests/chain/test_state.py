"""World state: balances, snapshots, roots, conservation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ChainError
from repro.chain.state import WorldState

A = b"\x0a" * 20
B = b"\x0b" * 20


def test_lazy_account_creation() -> None:
    state = WorldState()
    assert not state.has_account(A)
    assert state.balance_of(A) == 0
    state.account(A)
    assert state.has_account(A)


def test_credit_debit_transfer() -> None:
    state = WorldState()
    state.credit(A, 100)
    state.transfer(A, B, 40)
    assert state.balance_of(A) == 60
    assert state.balance_of(B) == 40


def test_overdraft_rejected() -> None:
    state = WorldState()
    state.credit(A, 10)
    with pytest.raises(ChainError):
        state.debit(A, 11)
    with pytest.raises(ChainError):
        state.credit(A, -1)


@given(st.lists(st.tuples(st.booleans(), st.integers(min_value=0, max_value=100)),
                max_size=30))
@settings(max_examples=30)
def test_transfers_conserve_total_supply(moves) -> None:
    state = WorldState()
    state.credit(A, 5_000)
    state.credit(B, 5_000)
    for a_to_b, amount in moves:
        source, destination = (A, B) if a_to_b else (B, A)
        if state.balance_of(source) >= amount:
            state.transfer(source, destination, amount)
    assert state.total_supply() == 10_000


def test_snapshot_isolation() -> None:
    state = WorldState()
    state.credit(A, 100)
    state.account(A).storage["k"] = [1, 2]
    snapshot = state.snapshot()
    state.transfer(A, B, 60)
    state.account(A).storage["k"].append(3)
    assert snapshot.balance_of(A) == 100
    assert snapshot.account(A).storage["k"] == [1, 2]


def test_state_root_tracks_content() -> None:
    s1 = WorldState()
    s2 = WorldState()
    s1.credit(A, 5)
    s2.credit(A, 5)
    assert s1.state_root() == s2.state_root()
    s2.credit(B, 1)
    assert s1.state_root() != s2.state_root()


def test_state_root_covers_storage() -> None:
    s1 = WorldState()
    s2 = WorldState()
    s1.account(A).storage["x"] = 1
    s2.account(A).storage["x"] = 2
    assert s1.state_root() != s2.state_root()


def test_nonce_tracking() -> None:
    state = WorldState()
    assert state.nonce_of(A) == 0
    state.account(A).nonce += 1
    assert state.nonce_of(A) == 1


# ----- journal frames -----------------------------------------------------------


def test_journal_rollback_restores_preimages() -> None:
    state = WorldState()
    state.credit(A, 100)
    frame = state.begin_transaction()
    state.transfer(A, B, 60)
    state.rollback_transaction(frame)
    assert state.balance_of(A) == 100
    assert not state.has_account(B)


def test_nested_journal_frames_are_legal() -> None:
    """Regression: ``begin_transaction`` used to raise ChainError
    ("state journal already open") on nesting; frames now stack."""
    state = WorldState()
    state.credit(A, 100)
    outer = state.begin_transaction()
    state.debit(A, 10)
    inner = state.begin_transaction()  # must NOT raise
    state.debit(A, 5)
    state.rollback_transaction(inner)
    assert state.balance_of(A) == 90  # inner undone, outer kept
    state.debit(A, 20)
    state.commit_transaction(outer)
    assert state.balance_of(A) == 70
    assert state.journal_depth() == 0


def test_nested_commit_then_outer_rollback_undoes_everything() -> None:
    state = WorldState()
    state.credit(A, 100)
    outer = state.begin_transaction()
    inner = state.begin_transaction()
    state.transfer(A, B, 30)
    state.commit_transaction(inner)
    state.debit(A, 10)
    state.rollback_transaction(outer)
    assert state.balance_of(A) == 100
    assert not state.has_account(B)


def test_non_innermost_handle_rejected() -> None:
    state = WorldState()
    outer = state.begin_transaction()
    state.begin_transaction()
    with pytest.raises(ChainError, match="LIFO"):
        state.commit_transaction(outer)
    with pytest.raises(ChainError, match="LIFO"):
        state.rollback_transaction(outer)


def test_close_without_open_frame_rejected() -> None:
    state = WorldState()
    with pytest.raises(ChainError):
        state.commit_transaction()
    with pytest.raises(ChainError):
        state.rollback_transaction()
