"""Throughput load harness: the concurrent engine vs the serial baseline.

Drives identical :class:`~repro.core.engine.TaskSpec` cohorts through
``run_serial`` (one task at a time, ~one block per transaction) and
:class:`~repro.core.engine.ProtocolEngine` (overlapped phases, batched
blocks, pooled proving) on a fresh chain each, and records:

- wall-clock per driver (best of ``repeats`` interleaved runs, which
  de-noises the shared-host jitter this box exhibits),
- that wall time split in two: the part spent inside the run's
  ``Testnet.mine_block`` (building, sealing, gossiping and importing
  blocks) and the rest (the run's own work: clients, signing, proving,
  key generation, scheduling),
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
from typing import Any, Dict, List, Optional, Sequence

import pytest

from repro import observability as obs
from repro.crypto import ecdsa
from repro.crypto.hashing import keccak256
from repro.chain.transaction import Transaction
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


def _timed_run(runner, num_tasks: int, workers: int, backend: str):
    """(report, seconds inside ``Testnet.mine_block``) for one runner on a fresh chain.

    Both runners mine through ``testnet.mine_block`` (directly, through
    ``mine_blocks``/``mine_until`` or through the transaction sender),
    so shadowing the bound method on the instance sees every block
    without touching the program.
    """
    system, specs = _fresh(num_tasks, workers, backend)
    mine_block = system.testnet.mine_block
    spent: List[float] = []

    def timed_mine_block():
        started = time.perf_counter()
        try:
            return mine_block()
        finally:
            spent.append(time.perf_counter() - started)

    system.testnet.mine_block = timed_mine_block
    return runner(system, specs), sum(spent)


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
    biasing whichever ran last.  Each run's wall time is also split
    into the part inside ``Testnet.mine_block`` and the rest; each
    part is reported as its best over the repeats.
    """
    walls: Dict[str, List[float]] = {"serial": [], "engine": []}
    mined: Dict[str, List[float]] = {"serial": [], "engine": []}
    reports: Dict[str, EngineReport] = {}
    for _ in range(max(1, repeats)):
        for name, runner in (
            ("serial", run_serial),
            ("engine", lambda system, specs: ProtocolEngine(system, specs).run()),
        ):
            report, inside = _timed_run(runner, num_tasks, workers, backend)
            reports[name] = report
            walls[name].append(report.wall_seconds)
            mined[name].append(inside)

    serial_report, engine_report = reports["serial"], reports["engine"]
    serial_rewards = [o.rewards for o in serial_report.outcomes]
    engine_rewards = [o.rewards for o in engine_report.outcomes]
    if serial_rewards != engine_rewards:
        raise AssertionError(
            "engine and serial drivers disagree on rewards — not a fair benchmark"
        )

    best_serial = min(walls["serial"])
    best_engine = min(walls["engine"])
    record: Dict[str, Any] = {
        "backend": backend,
        "num_tasks": num_tasks,
        "workers_per_task": workers,
        "repeats": repeats,
        "serial_seconds": round(best_serial, 4),
        "engine_seconds": round(best_engine, 4),
        "serial_seconds_all": [round(t, 4) for t in walls["serial"]],
        "engine_seconds_all": [round(t, 4) for t in walls["engine"]],
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
    for name in ("serial", "engine"):
        outside = [wall - inside for wall, inside in zip(walls[name], mined[name])]
        record[f"{name}_mine_block_seconds"] = round(min(mined[name]), 4)
        record[f"{name}_outside_seconds"] = round(min(outside), 4)
        record[f"{name}_mine_block_seconds_all"] = [round(t, 4) for t in mined[name]]
        record[f"{name}_outside_seconds_all"] = [round(t, 4) for t in outside]
    if instrument:
        record["span_latency_seconds"] = _instrumented_span_latencies(
            num_tasks, workers, backend
        )
    return record


def assert_engine_beats_serial(record: Dict[str, Any]) -> None:
    """The throughput gate: the engine against the serial baseline, same chain code.

    Each assertion compares the two runs on the same chain, so a
    change that makes blocks cheaper moves neither side's share of
    the comparison (the wall-time ratio did: the serial baseline mines
    ~13x the engine's blocks, so a per-block saving raised its speed
    more than the engine's).

    1. Batching: the engine mines at most an eighth of the serial
       baseline's blocks.
    2. No extra work on chain: it sends no more transactions.
    3. The engine itself: its wall time outside ``Testnet.mine_block``
       (pooled key generation and proving, overlapped phases, one
       client pass per round) is no more than the serial baseline's.
    4. The chain: its wall time inside ``Testnet.mine_block`` is no
       more than the serial baseline's.
    """
    shape = (
        f"serial {record['serial_blocks']} blocks / "
        f"{record['serial_transactions']} txs, engine {record['engine_blocks']} "
        f"blocks / {record['engine_transactions']} txs"
    )
    assert record["engine_blocks"] * 8 <= record["serial_blocks"], (
        f"engine does not batch blocks ({shape})"
    )
    assert record["engine_transactions"] <= record["serial_transactions"], (
        f"engine sends extra transactions ({shape})"
    )
    assert record["engine_outside_seconds"] <= record["serial_outside_seconds"], (
        f"engine spends {record['engine_outside_seconds']}s outside mine_block, "
        f"serial {record['serial_outside_seconds']}s"
    )
    assert record["engine_mine_block_seconds"] <= record["serial_mine_block_seconds"], (
        f"engine spends {record['engine_mine_block_seconds']}s inside mine_block, "
        f"serial {record['serial_mine_block_seconds']}s"
    )


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
      shard's serial block-build time (``Node.last_build_seconds``) —
      the round time a deployment with one host per shard would
      observe.  The speedup gate asserts on this modeled number.
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
                    net.miners[0].last_build_seconds for net in chain.shard_testnets
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
    """CI smoke gate at N=8: :func:`assert_engine_beats_serial`."""
    record = measure_pair(num_tasks=8, workers=3, backend="mock", repeats=2)
    write_record(record)
    assert_engine_beats_serial(record)


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
    """The headline gate at N=32: :func:`assert_engine_beats_serial`."""
    record = measure_pair(num_tasks=32, workers=3, backend="mock", repeats=2)
    write_record(record)
    assert_engine_beats_serial(record)


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
