"""The contract virtual machine: transaction validation and execution.

Execution is deterministic and revert-safe: the fee purchase and nonce
bump survive a revert (as on Ethereum), while every other state change
is rolled back via a pre-execution snapshot.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro import observability as obs
from repro.errors import (
    ChainError,
    ContractError,
    InvalidTransactionError,
    OutOfGasError,
)
from repro.chain.address import contract_address
from repro.chain.contract import (
    BlockContext,
    Contract,
    ContractRegistry,
    ExecutionContext,
    MeteredStorage,
)
from repro.chain.gas import DEFAULT_SCHEDULE, GasMeter, GasSchedule
from repro.chain.receipts import Receipt, STATUS_REVERTED, STATUS_SUCCESS
from repro.chain.state import WorldState
from repro.chain.transaction import CALL_KIND, CREATE_KIND, SignedTransaction


class VM:
    """Executes signed transactions against a world state."""

    def __init__(
        self, schedule: GasSchedule = DEFAULT_SCHEDULE, chain_id: int = 1337
    ) -> None:
        self.schedule = schedule
        self.chain_id = chain_id

    # ----- validation ------------------------------------------------------------

    def validate_transaction(self, state: WorldState, stx: SignedTransaction) -> None:
        """Raise :class:`InvalidTransactionError` if ``stx`` cannot be included."""
        tx = stx.transaction
        if tx.chain_id != self.chain_id:
            raise InvalidTransactionError("wrong chain id")
        if not stx.verify_signature():
            raise InvalidTransactionError("bad signature")
        sender = stx.sender
        expected_nonce = state.nonce_of(sender)
        if tx.nonce != expected_nonce:
            raise InvalidTransactionError(
                f"nonce {tx.nonce} != expected {expected_nonce}"
            )
        if state.balance_of(sender) < stx.max_cost():
            raise InvalidTransactionError("insufficient balance for value + gas")
        intrinsic = self.schedule.intrinsic_gas(tx.data, tx.is_create)
        if tx.gas_limit < intrinsic:
            raise InvalidTransactionError(
                f"gas limit {tx.gas_limit} below intrinsic cost {intrinsic}"
            )

    # ----- execution ----------------------------------------------------------------

    def execute_transaction(
        self, state: WorldState, stx: SignedTransaction, block: BlockContext
    ) -> Receipt:
        """Validate and apply one transaction; always returns a receipt."""
        with obs.span(
            "vm.execute_tx",
            kind="create" if stx.transaction.is_create else "call",
            block=block.number,
        ) as vm_span:
            receipt = self._execute_transaction(state, stx, block)
            vm_span.set_attrs(status=receipt.status, gas_used=receipt.gas_used)
        if obs.TRACER.enabled:
            obs.count("vm.transactions")
            if receipt.status != STATUS_SUCCESS:
                obs.count("vm.reverts")
            obs.observe(
                "vm.gas_used_per_tx", receipt.gas_used,
                buckets=(25_000, 50_000, 100_000, 250_000, 500_000,
                         1_000_000, 2_500_000, 5_000_000, 10_000_000),
            )
        return receipt

    def _execute_transaction(
        self, state: WorldState, stx: SignedTransaction, block: BlockContext
    ) -> Receipt:
        self.validate_transaction(state, stx)
        tx = stx.transaction
        sender = stx.sender

        # Buy gas and bump the nonce; these survive any revert.
        state.debit(sender, tx.gas_price * tx.gas_limit)
        state.account(sender).nonce += 1
        frame = state.begin_transaction()

        meter = GasMeter(tx.gas_limit, self.schedule)
        meter.consume(self.schedule.intrinsic_gas(tx.data, tx.is_create), "intrinsic")
        ctx = ExecutionContext(
            state=state, meter=meter, block=block, origin=sender, vm=self
        )
        receipt = Receipt(tx_hash=stx.tx_hash, status=STATUS_SUCCESS, gas_used=0)
        try:
            if tx.is_create:
                receipt.contract_address = self._apply_create(ctx, stx)
            else:
                receipt.return_value = self._apply_message(ctx, stx)
            receipt.logs = list(ctx.logs)
        except (ContractError, OutOfGasError, ChainError) as exc:
            state.rollback_transaction(frame)
            receipt.status = STATUS_REVERTED
            receipt.error = f"{type(exc).__name__}: {exc}"
            receipt.contract_address = None
            receipt.return_value = None
            receipt.logs = []
        except BaseException:
            # Unexpected failure (fault injection, bugs): leave the
            # state consistent before propagating.
            state.rollback_transaction(frame)
            raise
        else:
            state.commit_transaction(frame)

        # Settle gas: refund the unused part, pay the miner for the used part.
        receipt.gas_used = meter.used
        state.credit(sender, tx.gas_price * meter.remaining)
        state.credit(block.coinbase, tx.gas_price * meter.used)
        receipt.block_number = block.number
        return receipt

    def _apply_create(self, ctx: ExecutionContext, stx: SignedTransaction) -> bytes:
        tx = stx.transaction
        kind, name, args = stx.decode_data()
        if kind != CREATE_KIND:
            raise ContractError("creation transaction must carry create calldata")
        address = contract_address(stx.sender, tx.nonce)
        account = ctx.state.account(address)
        if account.is_contract or account.nonce > 0:
            raise ContractError("address collision on contract creation")
        account.contract_name = name
        contract_cls = ContractRegistry.resolve(name)
        if tx.value:
            ctx.state.transfer(stx.sender, address, tx.value)
        instance = self._instantiate(
            ctx, contract_cls, address, account.storage, stx.sender, tx.value
        )
        instance.init(*args)
        return address

    def _apply_message(self, ctx: ExecutionContext, stx: SignedTransaction) -> Any:
        tx = stx.transaction
        if tx.to is None:
            raise InvalidTransactionError("message call without a destination")
        destination = ctx.state.account(tx.to)
        if tx.value:
            ctx.state.transfer(stx.sender, tx.to, tx.value)
        if not destination.is_contract:
            if tx.data:
                raise ContractError("calldata sent to a non-contract account")
            return None
        kind, method, args = stx.decode_data()
        if kind != CALL_KIND:
            raise ContractError("contract call requires call calldata")
        return self._invoke(
            ctx, tx.to, method, args, caller=stx.sender, value=tx.value,
            allow_view=False,
        )

    # ----- call plumbing ---------------------------------------------------------------

    def nested_call(
        self,
        ctx: ExecutionContext,
        caller: bytes,
        address: bytes,
        method: str,
        args: List[Any],
        value: int = 0,
        read_only: bool = False,
    ) -> Any:
        if value:
            ctx.state.transfer(caller, address, value)
        inner_ctx = ctx
        if read_only and not ctx.read_only:
            inner_ctx = ExecutionContext(
                state=ctx.state, meter=ctx.meter, block=ctx.block,
                origin=ctx.origin, vm=self, read_only=True,
            )
            inner_ctx.logs = ctx.logs
        return self._invoke(
            inner_ctx, address, method, args, caller=caller, value=value,
            allow_view=read_only,
        )

    def _invoke(
        self,
        ctx: ExecutionContext,
        address: bytes,
        method: str,
        args: List[Any],
        caller: bytes,
        value: int,
        allow_view: bool,
    ) -> Any:
        account = ctx.state.account(address)
        if not account.is_contract:
            raise ContractError(f"0x{address.hex()} is not a contract")
        contract_cls = ContractRegistry.resolve(account.contract_name)
        instance = self._instantiate(
            ctx, contract_cls, address, account.storage, caller, value
        )
        handler = getattr(instance, method, None)
        visibility = getattr(handler, "__contract_visibility__", None)
        if handler is None or visibility not in ("external", "view"):
            raise ContractError(f"contract has no external method {method!r}")
        if visibility == "view" and not allow_view and not ctx.read_only:
            # Views are callable in transactions too (they just can't mutate).
            pass
        if visibility == "external" and ctx.read_only:
            raise ContractError("cannot call an external method in read-only mode")
        ctx.meter.consume(
            self.schedule.call_base + self.schedule.compute_step * len(args),
            "method dispatch",
        )
        return handler(*args)

    def run_view(
        self,
        state: WorldState,
        address: bytes,
        method: str,
        args: List[Any],
        block: BlockContext,
        caller: Optional[bytes] = None,
    ) -> Any:
        """Execute a view method for free; any state change is rolled back."""
        meter = GasMeter(limit=1 << 62, schedule=self.schedule)
        ctx = ExecutionContext(
            state=state, meter=meter, block=block,
            origin=caller or b"\x00" * 20, vm=self, read_only=True,
        )
        frame = state.begin_transaction()
        try:
            return self._invoke(
                ctx, address, method, args, caller=caller or b"\x00" * 20,
                value=0, allow_view=True,
            )
        finally:
            state.rollback_transaction(frame)

    def _instantiate(
        self,
        ctx: ExecutionContext,
        contract_cls,
        address: bytes,
        storage: dict,
        sender: bytes,
        value: int,
    ) -> Contract:
        return contract_cls(
            address=address,
            storage=MeteredStorage(storage, ctx.meter),
            ctx=ctx,
            msg_sender=sender,
            msg_value=value,
        )
