"""Engine resilience sweep: faults × byzantine actors × crash cadence.

Each cell of the grid runs one multi-task engine cohort and reports

- completion rate (settled tasks / tasks; healthy tasks separately),
- crash count and recovery latency percentiles (seconds from the
  simulated process death to the resumed engine finishing its first
  scheduler round — checkpoint decode + client re-derivation + keygen),
- refund correctness: the exactly-once conservation check of
  :mod:`repro.core.accounting` over every task,
- the engine's resilience counters (retries, recoveries, quarantines,
  byzantine accept/reject).

Results merge into ``BENCH_throughput.json`` at the repo root under
``engine-chaos-*`` keys, next to the throughput measurements.

Run the sweep by hand::

    PYTHONPATH=src python benchmarks/bench_engine_chaos.py --tasks 8

or the asserted CI gate (see the ``engine-chaos-smoke`` lane)::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_engine_chaos.py -k smoke
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ProtocolError
from repro.chain.faults import chaos_plan
from repro.core.accounting import assert_exactly_once_payouts
from repro.core.checkpoint import CheckpointStore
from repro.core.engine import (
    ProtocolEngine,
    SimulatedEngineCrash,
    engine_system,
    make_chaos_specs,
)

_BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_throughput.json"

#: The byzantine mix every non-clean cell injects (task indices).
BYZANTINE_MIX = {
    "stonewall": [1],
    "vanish": [2],
    "equivocate": [3],
    "empty": [4],
}
SETTLED = ("completed", "defaulted", "aborted")


def _percentile(values: Sequence[float], q: float) -> Optional[float]:
    if not values:
        return None
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return round(ordered[index], 4)


class _CrashSchedule:
    """Kill the engine every ``crash_every`` rounds, a bounded number
    of times, and time each recovery."""

    def __init__(self, crash_every: int, max_crashes: int = 3) -> None:
        self.crash_every = crash_every
        self.max_crashes = max_crashes
        self.crashes = 0
        self.recovery_seconds: List[float] = []
        self._crash_time: Optional[float] = None

    def hook(self, engine: ProtocolEngine, rounds: int) -> None:
        if self._crash_time is not None and rounds >= 1:
            # First full round after a resume: recovery is complete.
            self.recovery_seconds.append(time.perf_counter() - self._crash_time)
            self._crash_time = None
        if (
            self.crash_every
            and self.crashes < self.max_crashes
            and rounds
            and rounds % self.crash_every == 0
        ):
            self.crashes += 1
            self._crash_time = time.perf_counter()
            raise SimulatedEngineCrash(f"scheduled crash #{self.crashes}")


def measure_cell(
    num_tasks: int = 8,
    workers: int = 3,
    fault_seed: Optional[int] = None,
    byzantine: bool = True,
    crash_every: int = 0,
    seed: int = 5,
) -> Dict[str, Any]:
    """One grid cell: build, run (with crash/resume), verify, report."""
    fault_plan = (
        chaos_plan(fault_seed, horizon=80) if fault_seed is not None else None
    )
    system = engine_system(
        num_tasks, workers,
        seed=b"bench-engine-chaos-%d" % seed,
        fault_plan=fault_plan,
    )
    mix = BYZANTINE_MIX if byzantine else {}
    specs = make_chaos_specs(
        system, num_tasks, workers, seed=seed, instruction_window=8, **mix
    )
    schedule = _CrashSchedule(crash_every)
    store = CheckpointStore()
    engine = ProtocolEngine(
        system, specs,
        max_rounds=2048,
        checkpoint_store=store, checkpoint_every=2,
        crash_hook=schedule.hook,
    )
    wall_start = time.perf_counter()
    rounds = 0
    while True:
        try:
            report = engine.run()
            break
        except SimulatedEngineCrash:
            rounds += engine.round
            engine = ProtocolEngine.resume(
                system, store.latest(),
                max_rounds=2048,
                checkpoint_store=store, checkpoint_every=2,
                crash_hook=schedule.hook,
            )
    wall = time.perf_counter() - wall_start

    unhealthy = {i for ids in mix.values() for i in ids}
    settled = [o for o in report.outcomes if o.status in SETTLED]
    healthy = [o for o in report.outcomes if o.index not in unhealthy]
    try:
        assert_exactly_once_payouts(system, specs, report.outcomes)
        refund_ok = True
    except ProtocolError:
        refund_ok = False
    return {
        "num_tasks": num_tasks,
        "workers_per_task": workers,
        "fault_seed": fault_seed,
        "byzantine": byzantine,
        "crash_every": crash_every,
        "completion_rate": round(len(settled) / num_tasks, 4),
        "healthy_completion_rate": round(
            sum(1 for o in healthy if o.status == "completed") / len(healthy),
            4,
        ),
        "crashes": schedule.crashes,
        "recovery_p50_seconds": _percentile(schedule.recovery_seconds, 0.5),
        "recovery_p95_seconds": _percentile(schedule.recovery_seconds, 0.95),
        "refund_exactly_once": refund_ok,
        "wall_seconds": round(wall, 3),
        "rounds": rounds + report.rounds,
        "checkpoints": store.saves,
        "resilience": dict(report.resilience),
    }


def write_record(record: Dict[str, Any], key: str) -> None:
    """Merge one cell into BENCH_throughput.json (keyed by shape)."""
    document: Dict[str, Any] = {}
    if _BENCH_PATH.exists():
        try:
            document = json.loads(_BENCH_PATH.read_text())
        except ValueError:
            document = {}
    document.setdefault("generated_with", "benchmarks/bench_throughput.py")
    document["host"] = {"cpu_count": os.cpu_count()}
    document.setdefault("measurements", {})[key] = record
    _BENCH_PATH.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def _cell_key(record: Dict[str, Any]) -> str:
    return "engine-chaos-n%d-f%s-b%d-c%d" % (
        record["num_tasks"],
        record["fault_seed"] if record["fault_seed"] is not None else "clean",
        int(record["byzantine"]),
        record["crash_every"],
    )


# ----- asserted gate (run from CI) --------------------------------------------


def test_engine_chaos_smoke_n8() -> None:
    """CI gate: faults + byzantine mix + periodic crashes at N=8.

    Every task settles, every honest worker is paid or refunded exactly
    once, no equivocation is ever accepted, and the quarantined tasks
    are exactly the byzantine-requester ones.
    """
    record = measure_cell(
        num_tasks=8, workers=3, fault_seed=5, byzantine=True, crash_every=10
    )
    write_record(record, _cell_key(record))
    assert record["completion_rate"] == 1.0, record
    assert record["healthy_completion_rate"] == 1.0, record
    assert record["refund_exactly_once"], record
    assert record["crashes"] >= 1, record
    assert record["resilience"]["byzantine_accepted"] == 0, record
    assert record["resilience"]["quarantined"] == 2, record


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tasks", type=int, default=8)
    parser.add_argument("--workers", type=int, default=3)
    parser.add_argument(
        "--fault-seeds", type=int, nargs="*", default=[5],
        help="chaos_plan seeds; a clean (no-fault) cell always runs too",
    )
    parser.add_argument(
        "--crash-every", type=int, nargs="*", default=[0, 10],
        help="crash cadences in rounds (0 = never)",
    )
    args = parser.parse_args(argv)

    fault_cells: List[Optional[int]] = [None] + list(args.fault_seeds)
    for fault_seed in fault_cells:
        for byzantine in (False, True):
            for crash_every in args.crash_every:
                record = measure_cell(
                    num_tasks=args.tasks, workers=args.workers,
                    fault_seed=fault_seed, byzantine=byzantine,
                    crash_every=crash_every,
                )
                key = _cell_key(record)
                write_record(record, key)
                print(
                    f"{key}: completion={record['completion_rate']} "
                    f"crashes={record['crashes']} "
                    f"recovery_p95={record['recovery_p95_seconds']}s "
                    f"refund_ok={record['refund_exactly_once']} "
                    f"wall={record['wall_seconds']}s"
                )


if __name__ == "__main__":
    main()
