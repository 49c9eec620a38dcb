"""FIG. 4 — the cost of anonymity: attestation-generation time.

The paper runs 12 attestation generations on each of two PCs and box-
plots the distribution (medians ≈78 s and ≈62 s; pure clock-speed
ratio).  ``test_fig4_attestation_generation`` is the timing benchmark;
``test_fig4_distribution`` reproduces the 12-run methodology and
records the five-number summary.  Set ``REPRO_BENCH_PROFILE=bench`` for
paper-scale circuit parameters (minutes per run in pure Python).
"""

from __future__ import annotations

import json
import os
import pathlib

from repro.core.metrics import BoxStats, time_call

_FIG4_RUNS = int(os.environ.get("REPRO_FIG4_RUNS", "12"))

#: Where the before/after SNARK timings land (repo root).
_BENCH_SNARK_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_snark.json"


def _make_attestation(auth_material, counter=[0]):
    scheme = auth_material["scheme"]
    counter[0] += 1
    message = b"\xf4" * 32 + b"fig4-bench-%d" % counter[0]
    return scheme.auth(
        message,
        auth_material["user"],
        auth_material["certificate"],
        auth_material["commitment"],
    )


def test_fig4_attestation_generation(benchmark, auth_material) -> None:
    attestation = benchmark.pedantic(
        _make_attestation, args=(auth_material,), rounds=3, iterations=1
    )
    assert attestation.t1  # produced something real
    benchmark.extra_info["paper_pc_a_s"] = 78.0
    benchmark.extra_info["paper_pc_b_s"] = 62.0
    benchmark.extra_info["attestation_bytes"] = attestation.size_bytes()


def test_fig4_distribution(benchmark, auth_material) -> None:
    """The 12-experiment box plot (run count via REPRO_FIG4_RUNS)."""
    samples = time_call(lambda: _make_attestation(auth_material), repeats=_FIG4_RUNS)
    stats = BoxStats.from_samples(samples)
    assert stats.count == _FIG4_RUNS
    assert stats.minimum > 0
    # Low dispersion, as in the paper's tight boxes.
    assert stats.q3 <= 5 * stats.q1

    benchmark(lambda: _make_attestation(auth_material))
    benchmark.extra_info["box"] = {
        "min_s": round(stats.minimum, 4),
        "q1_s": round(stats.q1, 4),
        "median_s": round(stats.median, 4),
        "q3_s": round(stats.q3, 4),
        "max_s": round(stats.maximum, 4),
    }
    benchmark.extra_info["paper_box_medians_s"] = {"pc_a": 78.0, "pc_b": 62.0}


def test_fig4_verification_is_cheap_relative_to_proving(
    benchmark, auth_material
) -> None:
    """The asymmetry the protocol exploits: verify ≪ prove."""
    from repro.anonauth.scheme import attestation_statement
    from repro.zksnark.backend import get_backend

    params = auth_material["params"]
    attestation = auth_material["attestation"]
    statement = attestation_statement(auth_material["message"], attestation)
    backend = get_backend(params.backend_name)

    prove_seconds = min(
        time_call(lambda: _make_attestation(auth_material), repeats=1)
    )
    verify_seconds = min(
        time_call(
            lambda: backend.verify(
                params.keys.verifying_key, statement, attestation.proof
            ),
            repeats=3,
        )
    )
    assert verify_seconds < prove_seconds

    benchmark(
        backend.verify, params.keys.verifying_key, statement, attestation.proof
    )
    benchmark.extra_info["prove_over_verify"] = round(
        prove_seconds / max(verify_seconds, 1e-9), 1
    )


#: The "after" column of the previous BENCH_snark.json (pre-GLV, pre-raw-G2,
#: pre-service): setup 0.8563 s + prove 1.4128 s.  The amortized per-task
#: cost through the warm-CRS proving service must beat this by >= 2x,
#: asserted below so the raw-speed floor cannot silently regress.
_PREVIOUS_AFTER_SETUP_PLUS_PROVE_S = 2.2691


def test_snark_before_after(benchmark, bench_profile, auth_material) -> None:
    """Naive vs optimized Groth16 on the largest circuit (the auth SNARK).

    Writes ``BENCH_snark.json`` at the repo root: setup/prove/verify in
    both modes, batch_verify(n=10) against 10 sequential verifies, and
    the warm-CRS proving service's amortized per-task cost (one warm
    setup + a prove_many batch).  The optimized hot path must beat the
    naive reference by >= 4x on setup+prove, and the service's
    amortized per-task cost must beat the previous generation's
    optimized path by ~2x (asserted at 1.8x for timer headroom) — both
    asserted here so the speedups cannot silently rot.
    """
    from repro.anonauth.scheme import AuthCircuit, attestation_statement
    from repro.zksnark.groth16 import Groth16Backend

    params = auth_material["params"]
    scheme = auth_material["scheme"]
    # Rebuild a setup-capable circuit: key material needs example wires.
    from repro.anonauth.scheme import _example_instance

    instance = _example_instance(bench_profile, auth_material["authority"])
    circuit = AuthCircuit(
        bench_profile,
        params.cert_mode,
        master_public_key=params.master_public_key,
        example=instance,
    )

    fast = Groth16Backend()
    naive = Groth16Backend(optimized=False)

    fast_setup = min(time_call(lambda: fast.setup(circuit, seed=b"ba"), repeats=1))
    naive_setup = min(time_call(lambda: naive.setup(circuit, seed=b"ba"), repeats=1))
    keys = fast.setup(circuit, seed=b"bench-ba")

    fast_prove = min(
        time_call(lambda: fast.prove(keys.proving_key, circuit, instance), repeats=1)
    )
    naive_prove = min(
        time_call(lambda: naive.prove(keys.proving_key, circuit, instance), repeats=1)
    )

    statement = circuit.public_inputs(instance)
    proof = fast.prove(keys.proving_key, circuit, instance)
    fast_verify = min(
        time_call(lambda: fast.verify(keys.verifying_key, statement, proof), repeats=3)
    )
    naive_verify = min(
        time_call(
            lambda: naive.verify(keys.verifying_key, statement, proof), repeats=3
        )
    )

    # batch_verify(n=10) vs 10 sequential verifications (distinct messages)
    n_batch = 10
    statements = []
    proofs = []
    for i in range(n_batch):
        message = b"\xba" * 32 + b"batch-%d" % i
        attestation = scheme.auth(
            message,
            auth_material["user"],
            auth_material["certificate"],
            auth_material["commitment"],
        )
        statements.append(attestation_statement(message, attestation))
        proofs.append(attestation.proof)
    vk = params.keys.verifying_key
    batch_seconds = min(
        time_call(lambda: fast.batch_verify(vk, statements, proofs), repeats=1)
    )
    sequential_seconds = min(
        time_call(
            lambda: all(
                fast.verify(vk, s, p) for s, p in zip(statements, proofs)
            ),
            repeats=1,
        )
    )

    # Warm-CRS proving service: one warm setup amortized over a batch.
    from repro.zksnark.service import ProvingService

    service = ProvingService()
    warm_seconds = min(
        time_call(lambda: service.warm(circuit, seed=b"svc"), repeats=1)
    )
    service_keys = service.warm(circuit, seed=b"svc")
    n_tasks = 8
    requests = [
        (service_keys.proving_key, circuit, instance) for _ in range(n_tasks)
    ]
    batch_prove_seconds = min(
        time_call(lambda: service.prove_many(requests), repeats=1)
    )
    amortized_task_seconds = (warm_seconds + batch_prove_seconds) / n_tasks
    service_speedup = _PREVIOUS_AFTER_SETUP_PLUS_PROVE_S / max(
        amortized_task_seconds, 1e-9
    )

    setup_prove_speedup = (naive_setup + naive_prove) / max(
        fast_setup + fast_prove, 1e-9
    )
    # Ratcheted from 3.0: the GLV split, raw int-pair G2 core, and
    # Karatsuba FQ12 moved the measured ratio well past the old floor.
    assert setup_prove_speedup >= 4.0, (
        f"optimized setup+prove only {setup_prove_speedup:.2f}x faster"
    )
    # Measured ~2.1x; asserted at 1.8x to leave CI timer-jitter headroom.
    assert service_speedup >= 1.8, (
        f"service amortized task cost {amortized_task_seconds:.3f}s is only "
        f"{service_speedup:.2f}x faster than the previous optimized path "
        f"({_PREVIOUS_AFTER_SETUP_PLUS_PROVE_S}s)"
    )
    assert batch_seconds < sequential_seconds, (
        f"batch_verify(n={n_batch}) took {batch_seconds:.3f}s vs "
        f"{sequential_seconds:.3f}s sequential"
    )

    record = {
        "profile": os.environ.get("REPRO_BENCH_PROFILE", "test"),
        "circuit": {"name": circuit.name, "cert_mode": params.cert_mode},
        "before": {
            "setup_s": round(naive_setup, 4),
            "prove_s": round(naive_prove, 4),
            "verify_s": round(naive_verify, 4),
        },
        "after": {
            "setup_s": round(fast_setup, 4),
            "prove_s": round(fast_prove, 4),
            "verify_s": round(fast_verify, 4),
        },
        "speedup": {
            "setup": round(naive_setup / max(fast_setup, 1e-9), 2),
            "prove": round(naive_prove / max(fast_prove, 1e-9), 2),
            "verify": round(naive_verify / max(fast_verify, 1e-9), 2),
            "setup_plus_prove": round(setup_prove_speedup, 2),
        },
        "batch_verify": {
            "n": n_batch,
            "batched_s": round(batch_seconds, 4),
            "sequential_s": round(sequential_seconds, 4),
            "speedup": round(sequential_seconds / max(batch_seconds, 1e-9), 2),
        },
        # Warm-CRS proving service: warm the CRS once, then amortize it
        # over a prove_many batch.  ``speedup_vs_previous_after`` compares
        # the amortized per-task cost against the previous generation's
        # optimized setup+prove (the ratcheted >= 2x floor).
        "service": {
            "n_tasks": n_tasks,
            "warm_setup_s": round(warm_seconds, 4),
            "batch_prove_s": round(batch_prove_seconds, 4),
            "amortized_task_s": round(amortized_task_seconds, 4),
            "previous_after_setup_plus_prove_s": _PREVIOUS_AFTER_SETUP_PLUS_PROVE_S,
            "speedup_vs_previous_after": round(service_speedup, 2),
        },
    }
    _BENCH_SNARK_PATH.write_text(json.dumps(record, indent=2) + "\n")

    benchmark(lambda: fast.verify(keys.verifying_key, statement, proof))
    benchmark.extra_info["bench_snark"] = record
