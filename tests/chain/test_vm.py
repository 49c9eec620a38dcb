"""VM execution semantics: transfers, contracts, reverts, gas settlement."""

from __future__ import annotations

import pytest

from repro.crypto import ecdsa
from repro.errors import InvalidTransactionError
from repro.chain.address import contract_address
from repro.chain.contract import (
    BlockContext,
    Contract,
    ContractRegistry,
    ExecutionContext,
    external,
    view,
)
from repro.chain.gas import GasMeter
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction, encode_call, encode_create
from repro.chain.vm import VM

SENDER = ecdsa.ECDSAKeyPair.from_seed(b"vm-sender")
OTHER = ecdsa.ECDSAKeyPair.from_seed(b"vm-other")
COINBASE = b"\xcc" * 20
BLOCK = BlockContext(number=1, timestamp=1_500_000_100, coinbase=COINBASE)


@ContractRegistry.register
class VaultForTests(Contract):
    contract_name = "VaultForTests"

    def init(self, owner: bytes) -> None:
        self.storage["owner"] = owner
        self.storage["notes"] = []

    @external
    def deposit_note(self, note: str) -> int:
        notes = self.storage["notes"]
        notes.append(note)
        self.storage["notes"] = notes
        self.emit("NoteAdded", note=note)
        return len(notes)

    @external
    def withdraw(self, to: bytes, amount: int) -> None:
        self.require(self.msg_sender == self.storage["owner"], "not owner")
        self.require(self.transfer(to, amount), "underfunded")

    @external
    def always_reverts(self) -> None:
        self.storage["poison"] = True  # must be rolled back
        self.require(False, "nope")

    @external
    def chained(self, target: bytes) -> int:
        return self.call_contract(target, "deposit_note", ["from-peer"])

    @view
    def note_count(self) -> int:
        return len(self.storage["notes"])


def _fresh() -> tuple[VM, WorldState]:
    vm = VM()
    state = WorldState()
    state.credit(SENDER.address(), 10**15)
    state.credit(OTHER.address(), 10**15)
    return vm, state


def _run(vm, state, tx, key=SENDER):
    return vm.execute_transaction(state, tx.sign(key), BLOCK)


def _deploy(vm, state, value=0, nonce=0):
    tx = Transaction(
        nonce=nonce, gas_price=1, gas_limit=1_000_000, to=None, value=value,
        data=encode_create("VaultForTests", [SENDER.address()]),
    )
    receipt = _run(vm, state, tx)
    assert receipt.success, receipt.error
    return receipt.contract_address


def test_plain_transfer() -> None:
    vm, state = _fresh()
    tx = Transaction(nonce=0, gas_price=1, gas_limit=21_000,
                     to=OTHER.address(), value=1_234)
    receipt = _run(vm, state, tx)
    assert receipt.success
    assert state.balance_of(OTHER.address()) == 10**15 + 1_234


def test_gas_fee_settlement() -> None:
    vm, state = _fresh()
    before = state.balance_of(SENDER.address())
    tx = Transaction(nonce=0, gas_price=3, gas_limit=50_000,
                     to=OTHER.address(), value=0)
    receipt = _run(vm, state, tx)
    fee = 3 * receipt.gas_used
    assert state.balance_of(SENDER.address()) == before - fee
    assert state.balance_of(COINBASE) == fee


def test_nonce_increments_even_on_revert() -> None:
    vm, state = _fresh()
    address = _deploy(vm, state)
    tx = Transaction(nonce=1, gas_price=1, gas_limit=500_000, to=address,
                     value=0, data=encode_call("always_reverts", []))
    receipt = _run(vm, state, tx)
    assert not receipt.success
    assert state.nonce_of(SENDER.address()) == 2


def test_wrong_nonce_rejected() -> None:
    vm, state = _fresh()
    tx = Transaction(nonce=5, gas_price=1, gas_limit=21_000,
                     to=OTHER.address(), value=1)
    with pytest.raises(InvalidTransactionError):
        _run(vm, state, tx)


def test_insufficient_balance_rejected() -> None:
    vm, state = _fresh()
    tx = Transaction(nonce=0, gas_price=1, gas_limit=21_000,
                     to=OTHER.address(), value=10**18)
    with pytest.raises(InvalidTransactionError):
        _run(vm, state, tx)


def test_gas_limit_below_intrinsic_rejected() -> None:
    vm, state = _fresh()
    tx = Transaction(nonce=0, gas_price=1, gas_limit=20_000,
                     to=OTHER.address(), value=1)
    with pytest.raises(InvalidTransactionError):
        _run(vm, state, tx)


def test_wrong_chain_id_rejected() -> None:
    vm, state = _fresh()
    tx = Transaction(nonce=0, gas_price=1, gas_limit=21_000,
                     to=OTHER.address(), value=1, chain_id=999)
    with pytest.raises(InvalidTransactionError):
        _run(vm, state, tx)


def test_contract_deployment_address_rule() -> None:
    vm, state = _fresh()
    address = _deploy(vm, state, value=777)
    assert address == contract_address(SENDER.address(), 0)
    assert state.balance_of(address) == 777
    assert state.account(address).contract_name == "VaultForTests"


def test_method_call_and_events() -> None:
    vm, state = _fresh()
    address = _deploy(vm, state)
    tx = Transaction(nonce=1, gas_price=1, gas_limit=500_000, to=address,
                     value=0, data=encode_call("deposit_note", ["hello"]))
    receipt = _run(vm, state, tx)
    assert receipt.success
    assert receipt.return_value == 1
    assert receipt.logs[0].event == "NoteAdded"
    assert receipt.logs[0].fields == {"note": "hello"}


def test_revert_rolls_back_storage_and_logs() -> None:
    vm, state = _fresh()
    address = _deploy(vm, state)
    tx = Transaction(nonce=1, gas_price=1, gas_limit=500_000, to=address,
                     value=0, data=encode_call("always_reverts", []))
    receipt = _run(vm, state, tx)
    assert not receipt.success
    assert "nope" in receipt.error
    assert receipt.logs == []
    assert "poison" not in state.account(address).storage


def test_access_control() -> None:
    vm, state = _fresh()
    address = _deploy(vm, state, value=500)
    tx = Transaction(nonce=0, gas_price=1, gas_limit=500_000, to=address,
                     value=0, data=encode_call("withdraw", [OTHER.address(), 100]))
    receipt = _run(vm, state, tx, key=OTHER)
    assert not receipt.success and "not owner" in receipt.error


def test_nested_contract_call() -> None:
    vm, state = _fresh()
    first = _deploy(vm, state)
    second_tx = Transaction(
        nonce=1, gas_price=1, gas_limit=1_000_000, to=None, value=0,
        data=encode_create("VaultForTests", [SENDER.address()]),
    )
    second = _run(vm, state, second_tx).contract_address
    tx = Transaction(nonce=2, gas_price=1, gas_limit=1_000_000, to=first,
                     value=0, data=encode_call("chained", [second]))
    receipt = _run(vm, state, tx)
    assert receipt.success, receipt.error
    assert receipt.return_value == 1
    assert state.account(second).storage["notes"] == ["from-peer"]


def test_view_execution_is_free_and_isolated() -> None:
    vm, state = _fresh()
    address = _deploy(vm, state)
    root_before = state.state_root()
    assert vm.run_view(state, address, "note_count", [], BLOCK) == 0
    assert state.state_root() == root_before


def test_view_cannot_be_called_with_mutation_intent() -> None:
    vm, state = _fresh()
    address = _deploy(vm, state)
    from repro.errors import ContractError

    with pytest.raises(ContractError):
        vm.run_view(state, address, "deposit_note", ["x"], BLOCK)


def test_calldata_to_non_contract_reverts() -> None:
    vm, state = _fresh()
    tx = Transaction(nonce=0, gas_price=1, gas_limit=100_000, to=OTHER.address(),
                     value=0, data=encode_call("anything", []))
    receipt = _run(vm, state, tx)
    assert not receipt.success


def test_unknown_method_reverts() -> None:
    vm, state = _fresh()
    address = _deploy(vm, state)
    tx = Transaction(nonce=1, gas_price=1, gas_limit=500_000, to=address,
                     value=0, data=encode_call("missing_method", []))
    receipt = _run(vm, state, tx)
    assert not receipt.success and "missing_method" in receipt.error


def test_value_conservation_across_execution() -> None:
    vm, state = _fresh()
    supply_before = state.total_supply()
    address = _deploy(vm, state, value=1_000)
    tx = Transaction(nonce=1, gas_price=1, gas_limit=500_000, to=address,
                     value=0, data=encode_call("withdraw", [OTHER.address(), 400]))
    assert _run(vm, state, tx).success
    assert state.total_supply() == supply_before


def test_message_path_without_destination_raises() -> None:
    """Dispatch sends creations elsewhere; the message path still checks."""
    vm, state = _fresh()
    tx = Transaction(
        nonce=0, gas_price=1, gas_limit=1_000_000, to=None, value=0,
        data=encode_create("VaultForTests", [SENDER.address()]),
    )
    ctx = ExecutionContext(
        state=state, meter=GasMeter(tx.gas_limit, vm.schedule), block=BLOCK,
        origin=SENDER.address(), vm=vm,
    )
    with pytest.raises(InvalidTransactionError, match="without a destination"):
        vm._apply_message(ctx, tx.sign(SENDER))
