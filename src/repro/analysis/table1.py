"""Table I: execution time of in-contract zk-SNARK verifications.

Paper columns: per verification circuit (anonymous authentication and
majority-vote reward instructions for n ∈ {3,5,7,9,11} workers), the
proof size, verification-key size, public-input size, and the
verification time on two machines.  This harness measures the same
quantities on the from-scratch Groth16 stack: proof size is constant,
key and input sizes grow linearly in n, and verification time grows
mildly with n — the paper's shape.

The ``snark_verify`` execution is timed via the precompile's metrics
hook so the number reported is exactly the in-contract cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from repro.profiles import SecurityProfile, get_profile
from repro.anonauth import AnonymousAuthScheme, UserKeyPair, setup as auth_setup
from repro.anonauth.scheme import attestation_statement
from repro.core.metrics import humanize_bytes
from repro.core.policy import MajorityVotePolicy
from repro.core.reward_circuit import (
    build_reward_instance,
    make_reward_circuit,
    reward_statement,
)
from repro.errors import VerificationError
from repro.zksnark.backend import get_backend

#: The worker counts evaluated in the paper.
PAPER_WORKER_COUNTS = (3, 5, 7, 9, 11)

#: Paper-reported values, for side-by-side comparison in EXPERIMENTS.md.
PAPER_ROWS = {
    "auth": {"proof": 729, "key": 1.2 * 1024, "inputs": 1.5 * 1024,
             "pc_a_ms": 10.9, "pc_b_ms": 6.2},
    3: {"proof": 729, "key": 16.0 * 1024, "inputs": 3.4 * 1024,
        "pc_a_ms": 15.5, "pc_b_ms": 9.1},
    5: {"proof": 730, "key": 21.6 * 1024, "inputs": 4.7 * 1024,
        "pc_a_ms": 16.3, "pc_b_ms": 9.8},
    7: {"proof": 731, "key": 27.3 * 1024, "inputs": 6.0 * 1024,
        "pc_a_ms": 17.0, "pc_b_ms": 10.3},
    9: {"proof": 729, "key": 32.9 * 1024, "inputs": 7.3 * 1024,
        "pc_a_ms": 17.5, "pc_b_ms": 12.1},
    11: {"proof": 730, "key": 38.6 * 1024, "inputs": 8.6 * 1024,
         "pc_a_ms": 17.9, "pc_b_ms": 13.1},
}


@dataclass
class Table1Row:
    """One measured row of Table I."""

    label: str
    proof_bytes: int
    key_bytes: int
    input_bytes: int
    verify_seconds: float
    prove_seconds: float
    constraints: int

    def render(self) -> str:
        return (
            f"{self.label:<28} proof {humanize_bytes(self.proof_bytes):>7}  "
            f"key {humanize_bytes(self.key_bytes):>9}  "
            f"inputs {humanize_bytes(self.input_bytes):>8}  "
            f"verify {self.verify_seconds * 1000:9.1f}ms  "
            f"(prove {self.prove_seconds:6.1f}s, {self.constraints} constraints)"
        )


def _statement_bytes(statement: List[int]) -> int:
    """Field elements are 32-byte words on the wire."""
    return 32 * len(statement)


def run_table1(
    profile: SecurityProfile | str = "bench",
    backend_name: str = "groth16",
    worker_counts=PAPER_WORKER_COUNTS,
    num_choices: int = 4,
    seed: bytes = b"table1",
    verbose: bool = False,
) -> List[Table1Row]:
    """Measure every row of Table I; returns rows in paper order."""
    profile = get_profile(profile) if isinstance(profile, str) else profile
    backend = get_backend(backend_name)
    rows: List[Table1Row] = []

    def log(message: str) -> None:
        if verbose:
            print(message, flush=True)

    # Row 1: anonymous-authentication verification.
    log(f"[table1] auth setup ({profile.name} profile)...")
    params, authority = auth_setup(
        profile=profile, cert_mode="merkle", backend_name=backend_name, seed=seed
    )
    scheme = AnonymousAuthScheme(params)
    user = UserKeyPair.generate(params.mimc, seed=seed + b"user")
    certificate = authority.register("table1-user", user.public_key)
    commitment = authority.registry_commitment()
    message = b"\xc0" * 32 + b"table1-auth-message"
    log("[table1] generating attestation...")
    started = time.perf_counter()
    attestation = scheme.auth(message, user, certificate, commitment)
    prove_seconds = time.perf_counter() - started
    statement = attestation_statement(message, attestation)
    started = time.perf_counter()
    ok = backend.verify(params.keys.verifying_key, statement, attestation.proof)
    verify_seconds = time.perf_counter() - started
    if not ok:
        raise VerificationError("table1: auth attestation does not verify")
    auth_cs = params.circuit().build(
        scheme_instance_for_digest(scheme, message, user, certificate, commitment)
    )
    rows.append(
        Table1Row(
            label="Anonymous authentication",
            proof_bytes=attestation.proof.size_bytes(),
            key_bytes=_vk_size(params.keys.verifying_key),
            input_bytes=_statement_bytes(statement),
            verify_seconds=verify_seconds,
            prove_seconds=prove_seconds,
            constraints=auth_cs.num_constraints,
        )
    )
    log(f"[table1] {rows[-1].render()}")

    # Rows 2-6: majority-vote reward verification for each n.
    policy = MajorityVotePolicy(num_choices=num_choices)
    for n in worker_counts:
        log(f"[table1] majority n={n} setup...")
        circuit = make_reward_circuit(policy, n, params.mimc)
        keys = backend.setup(circuit, seed=seed + b"majority%d" % n)
        answers = [[j % num_choices] for j in range(n)]
        instance = build_reward_instance(
            policy, budget=100 * n, keys=[j + 1 for j in range(n)],
            answers=answers, mimc=params.mimc,
        )
        log(f"[table1] majority n={n} proving...")
        started = time.perf_counter()
        proof = backend.prove(keys.proving_key, circuit, instance)
        prove_seconds = time.perf_counter() - started
        statement = reward_statement(
            instance.budget, instance.reward_unit, instance.entries, instance.rewards
        )
        started = time.perf_counter()
        ok = backend.verify(keys.verifying_key, statement, proof)
        verify_seconds = time.perf_counter() - started
        if not ok:
            raise VerificationError(f"table1: majority({n}) proof does not verify")
        rows.append(
            Table1Row(
                label=f"Majority ({n}-Worker)",
                proof_bytes=proof.size_bytes(),
                key_bytes=_vk_size(keys.verifying_key),
                input_bytes=_statement_bytes(statement),
                verify_seconds=verify_seconds,
                prove_seconds=prove_seconds,
                constraints=circuit.build(instance).num_constraints,
            )
        )
        log(f"[table1] {rows[-1].render()}")
    return rows


def scheme_instance_for_digest(scheme, message, user, certificate, commitment):
    """Rebuild the Auth instance (for constraint counting only)."""
    from repro.anonauth.circuit import AuthInstance
    from repro.anonauth.scheme import message_digest, prefix_digest, PREFIX_LENGTH
    from repro.zksnark.gadgets.mimc import mimc_hash_native

    mimc = scheme.params.mimc
    p_digest = prefix_digest(message[:PREFIX_LENGTH])
    m_digest = message_digest(message)
    return AuthInstance(
        prefix_digest=p_digest,
        message_digest=m_digest,
        registry_commitment=commitment,
        t1=mimc_hash_native([p_digest, user.secret_key], mimc),
        t2=mimc_hash_native([m_digest, user.secret_key], mimc),
        secret_key=user.secret_key,
        certificate=certificate,
    )


def _vk_size(verifying_key) -> int:
    return verifying_key.size_bytes()


def render_table(rows: List[Table1Row]) -> str:
    """Human-readable table next to the paper's reference values."""
    lines = ["=" * 110]
    lines.append(
        "TABLE I — execution of in-contract zk-SNARK verifications "
        "(measured vs paper @3.1GHz Xeon / libsnark)"
    )
    lines.append("=" * 110)
    paper_keys = ["auth", *PAPER_WORKER_COUNTS]
    for row, key in zip(rows, paper_keys):
        lines.append(row.render())
        paper = PAPER_ROWS[key]
        lines.append(
            f"{'  paper:':<28} proof {humanize_bytes(int(paper['proof'])):>7}  "
            f"key {humanize_bytes(int(paper['key'])):>9}  "
            f"inputs {humanize_bytes(int(paper['inputs'])):>8}  "
            f"verify {paper['pc_a_ms']:9.1f}ms (PC-A) / {paper['pc_b_ms']:.1f}ms (PC-B)"
        )
    lines.append("=" * 110)
    return "\n".join(lines)
