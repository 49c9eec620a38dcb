"""The requester client (the off-chain half of Fig. 3, requester side).

Drives TaskPublish and Reward: derives the one-task address α_R,
predicts α_C, anonymously authenticates α_C‖α_R, deploys the task
contract with the budget, and later decrypts the collected answers
off-chain, evaluates the policy, and sends the proved instruction —
the outsource-then-prove methodology end to end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import observability as obs
from repro.crypto.hashing import sha256
from repro.errors import DecryptionError, ProtocolError
from repro.anonauth.keys import UserKeyPair
from repro.chain.address import contract_address
from repro.chain.receipts import Receipt
from repro.chain.transaction import Transaction, encode_call, encode_create
from repro.core.anonymity import OneTaskAccount, derive_one_task_account
from repro.core.encryption import (
    AnswerCiphertext,
    TaskKeyPair,
    decrypt_with_key,
    recover_answer_key,
)
from repro.core.params import TaskParameters
from repro.core.policy import Answer, RewardPolicy
from repro.core.protocol import (
    DEFAULT_GAS_LIMIT,
    DEFAULT_GAS_PRICE,
    TaskHandle,
    ZebraLancerSystem,
)
from repro.core.reward_circuit import (
    CiphertextEntry,
    build_reward_instance,
    padding_entry,
)
from repro.serialization import encode
from repro.anonauth.scheme import task_prefix


@dataclass
class _TaskRecord:
    """Requester-private per-task material."""

    account: OneTaskAccount
    encryption_keys: TaskKeyPair
    nonce: int  # next chain nonce for the one-task account


@dataclass
class PreparedPublish:
    """A fully built (but unsent) task announcement.

    Produced by :meth:`Requester.prepare_publish` so a scheduler can
    fund the one-task account, broadcast the deploy transaction in a
    batch with other tasks', and only then hand the receipt back to
    :meth:`Requester.complete_publish`.
    """

    account: OneTaskAccount
    encryption_keys: TaskKeyPair
    params: TaskParameters
    policy: RewardPolicy
    predicted_address: bytes
    transaction: Transaction
    budget: int


@dataclass
class RewardJob:
    """A reward instruction awaiting its SNARK proof.

    ``proving_key``/``circuit``/``instance`` are what a ``prove_many``
    batch needs; :meth:`Requester.reward_transaction` turns the resulting
    proof into the on-chain instruction.
    """

    handle: TaskHandle
    instance: Any
    circuit: Any
    proving_key: Any
    flags: List[int]


class Requester:
    """A registered requester."""

    def __init__(
        self,
        system: ZebraLancerSystem,
        identity: str,
        seed: Optional[bytes] = None,
        register: bool = True,
    ) -> None:
        self.system = system
        self.identity = identity
        self._seed = seed if seed is not None else sha256(b"requester", identity.encode())
        self.keys = UserKeyPair.generate(system.mimc, seed=self._seed + b"|id")
        #: ``register=False`` defers RA onboarding to a batch
        #: (``system.register_participants``); the engine sets
        #: ``certificate`` afterwards.
        self.certificate = (
            system.register_participant(identity, self.keys.public_key)
            if register
            else None
        )
        self._tasks: Dict[bytes, _TaskRecord] = {}
        self._task_counter = 0

    @property
    def task_counter(self) -> int:
        """Index the next :meth:`prepare_publish` call will use."""
        return self._task_counter

    # ----- TaskPublish ---------------------------------------------------------------

    def publish_task(
        self,
        policy: RewardPolicy,
        description: str,
        num_answers: int,
        budget: int,
        answer_window: int = 10,
        instruction_window: int = 10,
        rsa_bits: int = 1024,
        submissions_per_worker: int = 1,
    ) -> TaskHandle:
        """Announce a task (deploying its contract with the budget)."""
        with obs.span(
            "requester.publish_task", requester=self.identity, answers=num_answers
        ):
            handle = self._publish_task(
                policy, description, num_answers, budget, answer_window,
                instruction_window, rsa_bits, submissions_per_worker,
            )
        return handle

    def _publish_task(
        self,
        policy: RewardPolicy,
        description: str,
        num_answers: int,
        budget: int,
        answer_window: int,
        instruction_window: int,
        rsa_bits: int,
        submissions_per_worker: int,
    ) -> TaskHandle:
        system = self.system
        prepared = self.prepare_publish(
            policy, description, num_answers, budget, answer_window,
            instruction_window, rsa_bits, submissions_per_worker,
        )
        system.fund_anonymous(
            prepared.account.address, near=prepared.predicted_address
        )
        system.fund_anonymous(
            prepared.account.address, budget, near=prepared.predicted_address
        )
        receipt = system.send_reliable(
            prepared.transaction, prepared.account.keypair
        )
        return self.complete_publish(prepared, receipt)

    def encryption_rng_seed(self, task_index: Optional[int] = None) -> int:
        """The deterministic RNG seed for task ``task_index``'s RSA keypair.

        Defaults to the next task this requester will publish.  Exposed
        so a scheduler can pregenerate keypairs (e.g. across a fork
        pool) and hand them to :meth:`prepare_publish` — the derivation
        is identical, so the resulting transcript is too.
        """
        if task_index is None:
            task_index = self._task_counter
        label = f"{self.identity}/task-{task_index}"
        return int.from_bytes(sha256(self._seed, label.encode(), b"rsa"), "big")

    def prepare_publish(
        self,
        policy: RewardPolicy,
        description: str,
        num_answers: int,
        budget: int,
        answer_window: int = 10,
        instruction_window: int = 10,
        rsa_bits: int = 1024,
        submissions_per_worker: int = 1,
        encryption_keys: Optional[TaskKeyPair] = None,
        task_index: Optional[int] = None,
    ) -> PreparedPublish:
        """Build the deploy transaction without funding or sending it.

        Only reads the chain (registry commitment); the caller must
        fund ``prepared.account.address`` with gas plus the budget
        before broadcasting ``prepared.transaction``.

        ``encryption_keys`` overrides the task's RSA keypair; it must
        come from :meth:`encryption_rng_seed`-seeded generation (the
        engine pregenerates keypairs in parallel this way).

        ``task_index`` pins the derivation index instead of consuming
        the next counter value — a restarted engine re-prepares task k
        and lands on the same one-task account, RSA keypair and
        predicted contract address the crashed run used.
        """
        system = self.system
        if task_index is None:
            task_index = self._task_counter
        label = f"{self.identity}/task-{task_index}"
        if encryption_keys is None:
            rng = random.Random(self.encryption_rng_seed(task_index))
            encryption_keys = TaskKeyPair.generate(bits=rsa_bits, rng=rng)
        self._task_counter = max(self._task_counter, task_index + 1)
        account = derive_one_task_account(self._seed, label)

        # α_C is predictable before deployment (footnote 10), so the
        # requester authenticates α_C ‖ α_R ahead of time.
        predicted_address = contract_address(account.address, nonce=0)
        certificate = system.current_certificate(self.keys.public_key)
        commitment = system.registry_commitment()
        attestation = system.scheme.auth(
            task_prefix(predicted_address) + account.address,
            self.keys,
            certificate,
            commitment,
        )

        circuit, reward_keys = system.reward_material(policy, num_answers)
        params = TaskParameters(
            description=description,
            num_answers=num_answers,
            budget=budget,
            answer_window=answer_window,
            instruction_window=instruction_window,
            policy_descriptor=dict(policy.describe()),
            answer_arity=policy.answer_arity,
            encryption_key_fingerprint=encryption_keys.public_key.fingerprint(),
            submissions_per_worker=submissions_per_worker,
        )
        epk_wire = encode(
            [encryption_keys.public_key.n, encryption_keys.public_key.e]
        )
        data = encode_create(
            "ZebraLancerTask",
            [
                system.registry_address,
                account.address,
                attestation.to_wire(),
                params.to_storage(),
                epk_wire,
                reward_keys.verifying_key,
            ],
        )
        tx = Transaction(
            nonce=0,
            gas_price=DEFAULT_GAS_PRICE,
            gas_limit=DEFAULT_GAS_LIMIT,
            to=None,
            value=budget,
            data=data,
        )
        return PreparedPublish(
            account=account,
            encryption_keys=encryption_keys,
            params=params,
            policy=policy,
            predicted_address=predicted_address,
            transaction=tx,
            budget=budget,
        )

    def complete_publish(
        self, prepared: PreparedPublish, receipt: Receipt
    ) -> TaskHandle:
        """Adopt a confirmed deployment receipt into this requester."""
        if not receipt.success or receipt.contract_address != prepared.predicted_address:
            raise ProtocolError(f"task deployment failed: {receipt.error}")
        self._tasks[prepared.predicted_address] = _TaskRecord(
            account=prepared.account,
            encryption_keys=prepared.encryption_keys,
            nonce=1,
        )
        return TaskHandle(
            address=prepared.predicted_address,
            params=prepared.params,
            policy=prepared.policy,
            system=self.system,
        )

    def adopt_task(self, prepared: PreparedPublish, nonce: int) -> TaskHandle:
        """Re-adopt an already-deployed task without a receipt.

        The checkpoint-restore path: the contract exists on-chain (the
        crashed run deployed it), so there is no deployment receipt to
        hand to :meth:`complete_publish` — the restarted requester
        rebuilds its private record from the re-prepared material and
        the checkpointed account nonce.
        """
        self._tasks[prepared.predicted_address] = _TaskRecord(
            account=prepared.account,
            encryption_keys=prepared.encryption_keys,
            nonce=nonce,
        )
        return TaskHandle(
            address=prepared.predicted_address,
            params=prepared.params,
            policy=prepared.policy,
            system=self.system,
        )

    def resync_nonce(self, handle: TaskHandle) -> int:
        """Reset the task account's local nonce from the chain.

        After a crash the checkpointed nonce may run ahead of (a
        broadcast that never landed) or behind (a broadcast that landed
        after the snapshot) the chain; the chain's account nonce is the
        ground truth for the *next* transaction.
        """
        record = self._record(handle)
        record.nonce = self.system.node.nonce_of(record.account.address)
        return record.nonce

    # ----- Reward -----------------------------------------------------------------------

    def decrypt_answers(
        self, handle: TaskHandle
    ) -> Tuple[List[Answer], List[int], List[int]]:
        """Fetch and decrypt the collected answers off-chain.

        Returns (answers with ⊥ as None, symmetric keys, ok flags).
        """
        record = self._record(handle)
        wires = self.system.node.call(handle.address, "get_ciphertexts")
        answers: List[Answer] = []
        keys: List[int] = []
        flags: List[int] = []
        mimc = self.system.mimc
        for wire in wires:
            ciphertext = AnswerCiphertext.from_wire(wire)
            try:
                key = recover_answer_key(record.encryption_keys, ciphertext, mimc)
            except DecryptionError:
                answers.append(None)
                keys.append(0)
                flags.append(0)
                continue
            answers.append(decrypt_with_key(key, ciphertext, mimc))
            keys.append(key)
            flags.append(1)
        return answers, keys, flags

    def evaluate_and_reward(self, handle: TaskHandle) -> Receipt:
        """Compute rewards per the policy, prove, and instruct the contract."""
        with obs.span(
            "protocol.reward", requester=self.identity, task=handle.address.hex()
        ) as reward_span:
            receipt = self._evaluate_and_reward(handle)
            reward_span.set_attrs(status=receipt.status)
        if obs.TRACER.enabled:
            obs.count("protocol.rewards")
        return receipt

    def _evaluate_and_reward(self, handle: TaskHandle) -> Receipt:
        system = self.system
        job = self.prepare_reward(handle)
        proof = system.backend.prove(job.proving_key, job.circuit, job.instance)
        tx = self.reward_transaction(job, proof)
        record = self._record(handle)
        return system.send_reliable(tx, record.account.keypair)

    def prepare_reward(self, handle: TaskHandle) -> RewardJob:
        """Decrypt, evaluate the policy, and stage the proving job.

        Everything up to (but excluding) the SNARK proof — the
        expensive step the engine's proving queue batches across tasks.
        """
        system = self.system
        self._record(handle)  # ownership check
        answers, keys, flags = self.decrypt_answers(handle)
        if not answers:
            raise ProtocolError("no answers were collected; use finalize_timeout")
        wires = system.node.call(handle.address, "get_ciphertexts")
        entries = [
            CiphertextEntry.from_ciphertext(
                AnswerCiphertext.from_wire(wire), ok=bool(flag)
            )
            for wire, flag in zip(wires, flags)
        ]
        # Pad to the task's n: missing submissions become the paper's ⊥.
        n = handle.params.num_answers
        arity = handle.params.answer_arity
        while len(entries) < n:
            entries.append(padding_entry(arity))
            answers.append(None)
            keys.append(0)
            flags.append(0)
        instance = build_reward_instance(
            policy=handle.policy,
            budget=handle.params.budget,
            keys=keys,
            answers=answers,
            mimc=system.mimc,
            entries=entries,
        )
        circuit, reward_keys = system.reward_material(handle.policy, n)
        return RewardJob(
            handle=handle,
            instance=instance,
            circuit=circuit,
            proving_key=reward_keys.proving_key,
            flags=flags,
        )

    def reward_transaction(self, job: RewardJob, proof) -> Transaction:
        """The proved instruction transaction for a staged reward job."""
        record = self._record(job.handle)
        data = encode_call(
            "submit_reward_instruction",
            [list(job.instance.rewards), job.flags, proof.backend, proof.payload],
        )
        tx = Transaction(
            nonce=record.nonce,
            gas_price=DEFAULT_GAS_PRICE,
            gas_limit=DEFAULT_GAS_LIMIT,
            to=job.handle.address,
            value=0,
            data=data,
        )
        record.nonce += 1
        return tx

    def finalize_timeout_transaction(self, handle: TaskHandle) -> Transaction:
        """A ``finalize_timeout`` call from the task's own account.

        The honest zero-answer exit (Algorithm 1's abort): when the
        collection window closed with nothing submitted there is no
        instruction to prove, and the contract refunds the full budget
        to the requester's one-task address.
        """
        record = self._record(handle)
        tx = Transaction(
            nonce=record.nonce,
            gas_price=DEFAULT_GAS_PRICE,
            gas_limit=DEFAULT_GAS_LIMIT,
            to=handle.address,
            value=0,
            data=encode_call("finalize_timeout", []),
        )
        record.nonce += 1
        return tx

    def finalize_timeout(self, handle: TaskHandle) -> Receipt:
        """Send :meth:`finalize_timeout_transaction` reliably (serial path)."""
        record = self._record(handle)
        tx = self.finalize_timeout_transaction(handle)
        return self.system.send_reliable(tx, record.account.keypair)

    def task_account(self, handle: TaskHandle) -> OneTaskAccount:
        """The one-task account behind a published task (engine use)."""
        return self._record(handle).account

    def task_nonce(self, handle: TaskHandle) -> int:
        """The next unreserved nonce of a task's account (checkpoints)."""
        return self._record(handle).nonce

    def _record(self, handle: TaskHandle) -> _TaskRecord:
        record = self._tasks.get(handle.address)
        if record is None:
            raise ProtocolError("this requester did not publish that task")
        return record

    # ----- open marketplace -------------------------------------------------------------

    def board_account(self, board_address: bytes) -> OneTaskAccount:
        """This requester's one-board account (listings originate here)."""
        return derive_one_task_account(self._seed, f"board:{board_address.hex()}")

    def _board_transaction(
        self,
        board_address: bytes,
        method: str,
        args: List[Any],
        value: int = 0,
    ) -> Receipt:
        system = self.system
        account = self.board_account(board_address)
        system.fund_anonymous(account.address, near=board_address)
        if value:
            system.fund_anonymous(account.address, value, near=board_address)
        tx = Transaction(
            nonce=system.node.nonce_of(account.address),
            gas_price=DEFAULT_GAS_PRICE,
            gas_limit=DEFAULT_GAS_LIMIT,
            to=board_address,
            value=value,
            data=encode_call(method, args),
        )
        return system.send_reliable(tx, account.keypair)

    def post_listing(
        self,
        board_address: bytes,
        description: str,
        num_workers: int,
        budget: int,
        quality_bonus: int,
        validator_reward: int,
    ) -> int:
        """Open a listing on the board, escrowing bonus + validator fee."""
        receipt = self._board_transaction(
            board_address,
            "post_task",
            [description, num_workers, budget, quality_bonus, validator_reward],
            value=quality_bonus + validator_reward,
        )
        if not receipt.success:
            raise ProtocolError(f"listing rejected: {receipt.error}")
        for log in receipt.logs:
            if log.event == "TaskListed":
                obs.count("market.client.listings")
                return log.fields["listing_id"]
        raise ProtocolError("board did not announce the listing")

    def match_listing(self, board_address: bytes, listing_id: int) -> List[int]:
        """Trigger matching once bidding closed (anyone may; we do)."""
        receipt = self._board_transaction(
            board_address, "match_workers", [listing_id]
        )
        if not receipt.success:
            raise ProtocolError(f"matching failed: {receipt.error}")
        listing = self.system.node.call(board_address, "get_listing", [listing_id])
        return list(listing["matched"])

    def attach_listing_task(
        self, board_address: bytes, listing_id: int, task_address: bytes
    ) -> Receipt:
        """Bind the listing to this requester's deployed task contract."""
        receipt = self._board_transaction(
            board_address, "attach_task", [listing_id, task_address]
        )
        if not receipt.success:
            raise ProtocolError(f"attach failed: {receipt.error}")
        return receipt

    def open_dispute(self, board_address: bytes, listing_id: int) -> Receipt:
        """Contest the delivered quality, posting the board's dispute bond."""
        bond = self.system.node.call(board_address, "get_config")["dispute_bond"]
        receipt = self._board_transaction(
            board_address, "open_dispute", [listing_id], value=bond
        )
        if receipt.success:
            obs.count("market.client.disputes")
        return receipt

    def settle_listing(self, board_address: bytes, listing_id: int) -> Receipt:
        """Settle an undisputed listing after the claim window closes."""
        return self._board_transaction(board_address, "settle", [listing_id])
