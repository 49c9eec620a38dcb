"""Throughput load harness: the concurrent engine vs the serial baseline.

Drives identical :class:`~repro.core.engine.TaskSpec` cohorts through
``run_serial`` (one task at a time, ~one block per transaction) and
:class:`~repro.core.engine.ProtocolEngine` (overlapped phases, batched
blocks, pooled proving) on a fresh chain each, and records:

- wall-clock per driver (best of ``repeats`` interleaved runs, which
  de-noises the shared-host jitter this box exhibits),
- tasks/sec and the speedup ratio,
- phase-latency percentiles, two ways: per-task phase transitions in
  *blocks* (chain-derived, deterministic) and observability-span wall
  times from one extra instrumented engine run (``engine.round``,
  ``snark.prove``, ``chain.create_block``, ``chain.import_block``).

Results merge into ``BENCH_throughput.json`` at the repo root keyed by
``{backend}-n{N}-m{M}``, so the smoke lane (N=8) and the full gate
(N=32) write into one artifact.

Run the sweep by hand::

    PYTHONPATH=src python benchmarks/bench_throughput.py --tasks 4 8 16 --workers 3

or the asserted gates via pytest (see the CI ``throughput-smoke`` lane)::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_throughput.py -k smoke
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import pytest

import repro.contracts  # noqa: F401  (registers KVStore for the parallel workload)
from repro import observability as obs
from repro.crypto import ecdsa
from repro.crypto.hashing import keccak256
from repro.chain.contract import BlockContext
from repro.chain.parallel import execute_block
from repro.chain.receipts import encode_receipt
from repro.chain.state import WorldState
from repro.chain.transaction import SignedTransaction, Transaction, encode_call
from repro.chain.vm import VM
from repro.core.engine import (
    HEALTHY_PHASES,
    EngineReport,
    ProtocolEngine,
    engine_system,
    make_uniform_specs,
    run_serial,
)

_BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_throughput.json"

#: Span names whose wall-time distribution the instrumented run records.
_SPAN_NAMES = ("engine.round", "snark.prove", "chain.create_block", "chain.import_block")


def _percentiles(values: Sequence[float]) -> Dict[str, float]:
    if not values:
        return {}
    ordered = sorted(values)
    def pick(q: float) -> float:
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
    return {
        "p50": pick(0.50),
        "p90": pick(0.90),
        "p99": pick(0.99),
        "max": ordered[-1],
        "count": len(ordered),
    }


def _fresh(num_tasks: int, workers: int, backend: str):
    system = engine_system(
        num_tasks,
        workers,
        backend_name=backend,
        seed=b"throughput-%d-%d" % (num_tasks, workers),
    )
    specs = make_uniform_specs(system, num_tasks, workers, seed=7)
    return system, specs


def _phase_latency_blocks(report: EngineReport) -> Dict[str, Dict[str, float]]:
    """Per-phase block latency percentiles across the cohort."""
    out: Dict[str, Dict[str, float]] = {}
    for prev, phase in zip(HEALTHY_PHASES, HEALTHY_PHASES[1:]):
        deltas = [
            outcome.phase_blocks[phase] - outcome.phase_blocks[prev]
            for outcome in report.outcomes
            if phase in outcome.phase_blocks and prev in outcome.phase_blocks
        ]
        if deltas:
            out[f"{prev}->{phase}"] = _percentiles(deltas)
    return out


def _instrumented_span_latencies(
    num_tasks: int, workers: int, backend: str
) -> Dict[str, Dict[str, float]]:
    """One extra engine run with the tracer on, for span percentiles.

    Kept out of the timed runs so instrumentation overhead never skews
    the speedup measurement.
    """
    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    try:
        system, specs = _fresh(num_tasks, workers, backend)
        ProtocolEngine(system, specs).run()
        spans = obs.TRACER.finished_spans()
    finally:
        if not was_enabled:
            obs.disable()
        obs.reset()
    latencies: Dict[str, Dict[str, float]] = {}
    for name in _SPAN_NAMES:
        durations = [s.end - s.start for s in spans if s.name == name and s.end is not None]
        if durations:
            latencies[name] = _percentiles(durations)
    return latencies


def measure_pair(
    num_tasks: int,
    workers: int,
    backend: str = "mock",
    repeats: int = 2,
    instrument: bool = True,
) -> Dict[str, Any]:
    """Serial vs engine over identical specs; best-of-``repeats`` each.

    The two drivers alternate within each repeat so slow host-level
    drift (frequency scaling, a noisy neighbour) hits both rather than
    biasing whichever ran last.
    """
    serial_times: List[float] = []
    engine_times: List[float] = []
    serial_report: Optional[EngineReport] = None
    engine_report: Optional[EngineReport] = None
    for _ in range(max(1, repeats)):
        system, specs = _fresh(num_tasks, workers, backend)
        serial_report = run_serial(system, specs)
        serial_times.append(serial_report.wall_seconds)

        system, specs = _fresh(num_tasks, workers, backend)
        engine_report = ProtocolEngine(system, specs).run()
        engine_times.append(engine_report.wall_seconds)

    assert serial_report is not None and engine_report is not None
    serial_rewards = [o.rewards for o in serial_report.outcomes]
    engine_rewards = [o.rewards for o in engine_report.outcomes]
    if serial_rewards != engine_rewards:
        raise AssertionError(
            "engine and serial drivers disagree on rewards — not a fair benchmark"
        )

    best_serial = min(serial_times)
    best_engine = min(engine_times)
    record: Dict[str, Any] = {
        "backend": backend,
        "num_tasks": num_tasks,
        "workers_per_task": workers,
        "repeats": repeats,
        "serial_seconds": round(best_serial, 4),
        "engine_seconds": round(best_engine, 4),
        "serial_seconds_all": [round(t, 4) for t in serial_times],
        "engine_seconds_all": [round(t, 4) for t in engine_times],
        "serial_tasks_per_sec": round(num_tasks / best_serial, 4),
        "engine_tasks_per_sec": round(num_tasks / best_engine, 4),
        "speedup": round(best_serial / best_engine, 4),
        "serial_blocks": serial_report.blocks_mined,
        "engine_blocks": engine_report.blocks_mined,
        "engine_rounds": engine_report.rounds,
        "engine_transactions": engine_report.transactions,
        "serial_transactions": serial_report.transactions,
        "engine_tasks_per_block": round(engine_report.tasks_per_block, 4),
        "phase_latency_blocks": _phase_latency_blocks(engine_report),
    }
    if instrument:
        record["span_latency_seconds"] = _instrumented_span_latencies(
            num_tasks, workers, backend
        )
    return record


def write_record(record: Dict[str, Any], key: Optional[str] = None) -> None:
    """Merge one measurement into BENCH_throughput.json (keyed by shape)."""
    document: Dict[str, Any] = {}
    if _BENCH_PATH.exists():
        try:
            document = json.loads(_BENCH_PATH.read_text())
        except ValueError:
            document = {}
    document.setdefault("generated_with", "benchmarks/bench_throughput.py")
    document["host"] = {"cpu_count": os.cpu_count()}
    if key is None:
        key = "%s-n%d-m%d" % (
            record["backend"], record["num_tasks"], record["workers_per_task"],
        )
    document.setdefault("measurements", {})[key] = record
    _BENCH_PATH.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


# ----- optimistic parallel block execution -------------------------------------------

_PX_COINBASE = b"\x7d" * 20
_PX_FUNDING = 10**15
_PX_CONTRACT_COUNT = 8


def _px_contract(index: int) -> bytes:
    return b"\x61" + index.to_bytes(19, "big")


def _parallel_workload(
    n_txs: int, contended: bool
) -> Tuple[List[bytes], List[bytes], List[bytes]]:
    """One block of ``n_txs`` single-nonce transactions, as wire bytes.

    Wire bytes, not signed objects: ``SignedTransaction`` caches the
    recovered sender, so a fair measurement must rebuild the
    transactions per run and let each lane pay its own ECDSA recovery.

    Independent shape: distinct senders alternate plain transfers and
    ``KVStore.put`` calls across 8 contract accounts; with round-robin
    lane assignment at any power-of-two lane count, no two lanes share
    a contract, so every transaction commits speculatively.  Contended
    shape: every other transaction instead ``bump``s one shared slot of
    one shared contract, forcing cross-lane conflicts and re-execution.
    """
    senders = [ecdsa.ECDSAKeyPair.from_seed(b"bench-px-%d" % i) for i in range(n_txs)]
    contracts = [_px_contract(i) for i in range(_PX_CONTRACT_COUNT)]
    wires: List[bytes] = []
    for i, keypair in enumerate(senders):
        if i % 2 == 0:
            tx = Transaction(
                nonce=0, gas_price=2, gas_limit=30_000,
                to=bytes([0x51]) + i.to_bytes(19, "big"), value=100 + i,
            )
        elif contended:
            tx = Transaction(
                nonce=0, gas_price=2, gas_limit=400_000, to=contracts[0],
                value=0, data=encode_call("bump", ["hot"]),
            )
        else:
            tx = Transaction(
                nonce=0, gas_price=2, gas_limit=400_000,
                to=contracts[i % _PX_CONTRACT_COUNT],
                value=0, data=encode_call("put", [f"slot-{i}", i]),
            )
        wires.append(tx.sign(keypair).to_wire())
    return wires, [keypair.address() for keypair in senders], contracts


def _px_state(sender_addresses: Sequence[bytes], contracts: Sequence[bytes]) -> WorldState:
    state = WorldState()
    for address in sender_addresses:
        state.credit(address, _PX_FUNDING)
    for address in contracts:
        state.account(address).contract_name = "KVStore"
    return state


def measure_parallel_block_execution(
    n_txs: int = 32,
    lane_counts: Sequence[int] = (1, 2, 4, 8),
    repeats: int = 3,
    contended: bool = False,
) -> Dict[str, Any]:
    """Execute one block at each lane count; best-of-``repeats`` each.

    Asserts along the way that every lane count commits a byte-identical
    block (state root, receipt encodings, gas) — a lane count that
    changed the outcome would invalidate the whole measurement.

    Two timings per lane count, both recorded:

    - ``wall_seconds``: measured in-process wall time.  On a single-core
      host (this container reports ``os.cpu_count() == 1``) lanes share
      the core, so this cannot beat serial and honestly shows the
      scheduling overhead instead.
    - ``critical_path_seconds``: measured inside the scheduler as
      ``max(per-lane speculation time) + commit-pass time`` — the block
      time a host with one core per lane would observe.  The speedup
      gate asserts on this modeled number.
    """
    wires, sender_addresses, contracts = _parallel_workload(n_txs, contended)
    vm = VM()
    block_ctx = BlockContext(
        number=1, timestamp=1_500_000_015, coinbase=_PX_COINBASE
    )
    baseline: Optional[Tuple[bytes, Tuple[bytes, ...], int]] = None
    serial_best: Optional[float] = None
    lanes_out: Dict[str, Any] = {}
    for lanes in lane_counts:
        walls: List[float] = []
        criticals: List[float] = []
        stats_dict: Dict[str, Any] = {}
        for _ in range(max(1, repeats)):
            txs = [SignedTransaction.from_wire(wire) for wire in wires]
            state = _px_state(sender_addresses, contracts)
            assignment = (
                [i % lanes for i in range(len(txs))] if lanes > 1 else None
            )
            started = time.perf_counter()
            execution = execute_block(
                vm, state, txs, block_ctx,
                lanes=lanes, mode="verify", assignment=assignment,
            )
            walls.append(time.perf_counter() - started)
            criticals.append(execution.stats.critical_path_seconds)
            stats_dict = execution.stats.as_dict()
            fingerprint = (
                state.state_root(),
                tuple(encode_receipt(receipt) for receipt in execution.receipts),
                execution.gas_used,
            )
            if baseline is None:
                baseline = fingerprint
            elif fingerprint != baseline:
                raise AssertionError(
                    f"lane count {lanes} changed the committed block — "
                    "serial equivalence is broken"
                )
        entry: Dict[str, Any] = {
            "wall_seconds": round(min(walls), 4),
            "stats": stats_dict,
        }
        if lanes == 1:
            serial_best = min(walls)
        else:
            assert serial_best is not None, "lane_counts must start at 1"
            best_critical = min(criticals)
            entry["critical_path_seconds"] = round(best_critical, 4)
            entry["speedup_wall"] = round(serial_best / min(walls), 4)
            entry["speedup_modeled"] = round(serial_best / best_critical, 4)
        lanes_out[str(lanes)] = entry
    return {
        "workload": "contended" if contended else "independent",
        "transactions": n_txs,
        "repeats": repeats,
        "serial_seconds": round(serial_best, 4),
        "lanes": lanes_out,
        "model": (
            "speedup_modeled = serial / (max lane speculation + commit pass), "
            "i.e. one core per lane; speedup_wall is measured in-process on "
            f"this host (cpu_count={os.cpu_count()})"
        ),
    }


# ----- static sharding: tasks partitioned by contract address ------------------------


def _shard_task_address(index: int) -> bytes:
    return keccak256(b"bench-shard-task", index.to_bytes(4, "big"))[:20]


def measure_sharded_throughput(
    n_tasks: int = 64,
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    value: int = 1_000,
    repeats: int = 3,
) -> Dict[str, Any]:
    """One settlement transaction per task, swept over shard counts.

    The workload is the sharding model itself: task ``i`` lives at a
    derived contract-style address, its one-task account is funded
    ``near=`` that address (so account and task share a shard), and the
    settlement transfer executes on the task's home shard.  The *same*
    signed transactions run at every shard count, so per-account final
    balances are byte-equal across the sweep (asserted here).

    Two timings per shard count:

    - ``wall_seconds``: in-process wall clock for the settlement rounds
      (shards execute sequentially in this simulation, so this cannot
      beat serial — it honestly shows the facade's overhead).
    - ``critical_path_seconds``: sum over rounds of the *slowest*
      shard's block-build critical path — the round time a deployment
      with one host per shard would observe.  The speedup gate asserts
      on this modeled number, mirroring the parallel-execution bench.
    """
    from repro.chain.sharding import ShardedChain, home_shard

    keypairs = [
        ecdsa.ECDSAKeyPair.from_seed(b"bench-shard-worker-%d" % i)
        for i in range(n_tasks)
    ]
    tasks = [_shard_task_address(i) for i in range(n_tasks)]
    baseline: Optional[Dict[bytes, int]] = None
    serial_modeled: Optional[float] = None
    shards_out: Dict[str, Any] = {}
    for shards in shard_counts:
        walls: List[float] = []
        modeleds: List[float] = []
        rounds = 0
        for _ in range(max(1, repeats)):
            chain = ShardedChain(shards=shards, miners=1, full_nodes=1)
            pendings = [
                chain.fund_async(keypair.address(), 10**9, near=task)
                for keypair, task in zip(keypairs, tasks)
            ]
            chain.tx_sender.confirm_all(pendings)
            # The settlement transactions are identical at every shard
            # count: nonce 0, same recipient, same chain id — the sweep
            # varies only where they execute.
            for keypair, task in zip(keypairs, tasks):
                tx = Transaction(
                    nonce=0, gas_price=1, gas_limit=50_000, to=task, value=value,
                )
                chain.send_transaction(tx.sign(keypair))

            def backlog() -> int:
                return sum(
                    len(net.any_node.mempool) for net in chain.shard_testnets
                )

            rounds = 0
            modeled = 0.0
            started = time.perf_counter()
            while backlog() > 0:
                chain.mine_block()
                rounds += 1
                modeled += max(
                    (
                        net.miners[0].last_build_stats.critical_path_seconds
                        if net.miners[0].last_build_stats is not None
                        else 0.0
                    )
                    for net in chain.shard_testnets
                )
                if rounds > 64:
                    raise AssertionError("sharded settlement did not drain")
            walls.append(time.perf_counter() - started)
            modeleds.append(modeled)

            balances = {
                task: chain.any_node.balance_of(task) for task in tasks
            }
            for keypair in keypairs:
                balances[keypair.address()] = chain.any_node.balance_of(
                    keypair.address()
                )
            if baseline is None:
                baseline = balances
            elif balances != baseline:
                raise AssertionError(
                    f"shard count {shards} changed final balances — "
                    "shard-vs-serial equivalence is broken"
                )
        modeled = min(modeleds)
        occupancy = [0] * shards
        for task in tasks:
            occupancy[home_shard(task, shards)] += 1
        entry: Dict[str, Any] = {
            "rounds": rounds,
            "wall_seconds": round(min(walls), 4),
            "critical_path_seconds": round(modeled, 4),
            "tasks_per_shard": occupancy,
        }
        if shards == 1:
            serial_modeled = modeled
        else:
            assert serial_modeled is not None, "shard_counts must start at 1"
            entry["speedup_modeled"] = round(serial_modeled / modeled, 4)
        shards_out[str(shards)] = entry
    return {
        "workload": "sharded-settlement",
        "num_tasks": n_tasks,
        "repeats": repeats,
        "serial_seconds": round(serial_modeled, 4),
        "shards": shards_out,
        "model": (
            "speedup_modeled = serial critical path / sum over rounds of the "
            "slowest shard's block-build critical path, i.e. one host per "
            f"shard; wall_seconds is in-process on this host "
            f"(cpu_count={os.cpu_count()})"
        ),
    }


# ----- asserted gates (run from CI) --------------------------------------------------


def test_throughput_smoke_n8() -> None:
    """CI smoke gate: at N=8 the engine must be >=2x the serial driver."""
    record = measure_pair(num_tasks=8, workers=3, backend="mock", repeats=2)
    write_record(record)
    assert record["speedup"] >= 2.0, (
        f"engine speedup {record['speedup']}x below the 2x smoke floor "
        f"(serial {record['serial_seconds']}s, engine {record['engine_seconds']}s)"
    )
    # Batching is the mechanism: the engine must amortize blocks.
    assert record["engine_blocks"] < record["serial_blocks"] / 4


def test_parallel_block_execution_smoke() -> None:
    """CI gate for the optimistic scheduler at N=32.

    The independent workload must commit every transaction
    speculatively and model >=1.5x at 4 lanes; the contended workload
    must show a nonzero conflict rate while still committing the
    serial-identical block (asserted inside the measurement).
    """
    record = measure_parallel_block_execution(
        n_txs=32, lane_counts=(1, 2, 4, 8), repeats=3
    )
    write_record(record, key="parallel-exec-n32")
    four = record["lanes"]["4"]
    assert four["stats"]["conflicts"] == 0, "independent workload must not conflict"
    assert four["stats"]["speculative_commits"] == 32
    assert four["speedup_modeled"] >= 1.5, (
        f"modeled 4-lane speedup {four['speedup_modeled']}x below the 1.5x floor "
        f"(serial {record['serial_seconds']}s, "
        f"critical path {four['critical_path_seconds']}s)"
    )

    contended = measure_parallel_block_execution(
        n_txs=32, lane_counts=(1, 4), repeats=2, contended=True
    )
    write_record(contended, key="parallel-exec-n32-contended")
    stats = contended["lanes"]["4"]["stats"]
    assert stats["conflicts"] > 0 and stats["conflict_rate"] > 0
    assert stats["reexecutions"] >= stats["conflicts"]


@pytest.mark.sharding
def test_sharding_speedup_smoke() -> None:
    """CI gate for the sharded chain at N=64.

    Four shards must model >=1.5x the single-shard critical path, the
    hash assignment must actually spread tasks (no empty shard at
    S=4 with 64 uniform tasks is overwhelmingly likely and asserted),
    and the sweep itself asserts balance equality across shard counts.
    """
    record = measure_sharded_throughput(n_tasks=64, shard_counts=(1, 2, 4))
    write_record(record, key="sharding-n64")
    four = record["shards"]["4"]
    assert four["speedup_modeled"] >= 1.5, (
        f"modeled 4-shard speedup {four['speedup_modeled']}x below the 1.5x "
        f"floor (serial {record['serial_seconds']}s, sharded "
        f"{four['critical_path_seconds']}s)"
    )
    assert all(count > 0 for count in four["tasks_per_shard"]), (
        f"degenerate shard assignment: {four['tasks_per_shard']}"
    )


@pytest.mark.slow
@pytest.mark.sharding
def test_sharding_sweep_n256() -> None:
    """The full N=256 tasks x shards 1/2/4/8 sweep from the roadmap."""
    record = measure_sharded_throughput(n_tasks=256, shard_counts=(1, 2, 4, 8))
    write_record(record, key="sharding-n256")
    assert record["shards"]["4"]["speedup_modeled"] >= 1.5
    assert record["shards"]["8"]["speedup_modeled"] >= record["shards"]["2"][
        "speedup_modeled"
    ] * 0.9  # more shards must not collapse the model


@pytest.mark.slow
def test_throughput_gate_n32() -> None:
    """The headline gate: >=3x tasks/sec at N=32 on the mock backend."""
    record = measure_pair(num_tasks=32, workers=3, backend="mock", repeats=2)
    write_record(record)
    assert record["speedup"] >= 3.0, (
        f"engine speedup {record['speedup']}x below the 3x gate "
        f"(serial {record['serial_seconds']}s, engine {record['engine_seconds']}s)"
    )


@pytest.mark.slow
def test_throughput_real_backend_point() -> None:
    """One real-Groth16 point: correctness parity + recorded numbers.

    With the real prover the SNARK dominates wall time on one core, so
    no speedup floor is asserted — the engine must simply not be slower
    than serial by more than measurement noise allows.
    """
    record = measure_pair(
        num_tasks=2, workers=2, backend="groth16", repeats=1, instrument=False
    )
    write_record(record)
    assert record["speedup"] > 0.8


# ----- manual sweep ------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tasks", type=int, nargs="+", default=[4, 8, 16, 32])
    parser.add_argument("--workers", type=int, nargs="+", default=[3])
    parser.add_argument("--backend", default="mock", choices=["mock", "groth16"])
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--parallel-exec", action="store_true",
        help="also sweep optimistic block execution over lanes 1/2/4/8",
    )
    parser.add_argument(
        "--sharding-sweep", type=int, metavar="N", default=None,
        help="run the N-task settlement sweep over shards 1/2/4/8 and exit",
    )
    args = parser.parse_args(argv)
    if args.sharding_sweep is not None:
        record = measure_sharded_throughput(
            n_tasks=args.sharding_sweep, shard_counts=(1, 2, 4, 8)
        )
        write_record(record, key=f"sharding-n{args.sharding_sweep}")
        for shards, entry in record["shards"].items():
            modeled = entry.get("speedup_modeled", 1.0)
            print(
                f"shards={shards}: rounds {entry['rounds']} "
                f"critical path {entry['critical_path_seconds']:.3f}s "
                f"modeled speedup {modeled:.2f}x "
                f"occupancy {entry['tasks_per_shard']}"
            )
        print(f"wrote {_BENCH_PATH}")
        return
    if args.parallel_exec:
        for contended in (False, True):
            record = measure_parallel_block_execution(
                n_txs=32, lane_counts=(1, 2, 4, 8) if not contended else (1, 4),
                repeats=args.repeats, contended=contended,
            )
            suffix = "-contended" if contended else ""
            write_record(record, key=f"parallel-exec-n32{suffix}")
            for lanes, entry in record["lanes"].items():
                modeled = entry.get("speedup_modeled", 1.0)
                print(
                    f"parallel{suffix} lanes={lanes}: wall {entry['wall_seconds']:.3f}s "
                    f"modeled speedup {modeled:.2f}x "
                    f"conflict_rate {entry['stats']['conflict_rate']:.2f}"
                )
    for workers in args.workers:
        for tasks in args.tasks:
            record = measure_pair(
                tasks, workers, backend=args.backend, repeats=args.repeats
            )
            write_record(record)
            print(
                f"N={tasks:3d} M={workers} {args.backend}: "
                f"serial {record['serial_seconds']:.2f}s "
                f"engine {record['engine_seconds']:.2f}s "
                f"speedup {record['speedup']:.2f}x "
                f"({record['engine_tasks_per_sec']:.2f} tasks/s)"
            )
    print(f"wrote {_BENCH_PATH}")


if __name__ == "__main__":
    main()
