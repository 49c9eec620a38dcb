"""Smoke test for the benchmark suite (outside the tier-1 test paths).

Run from the repository root::

    PYTHONPATH=src python -m pytest -q benchmarks/suite/test_suite_smoke.py

Each workload runs once at 1 task with tracing on, through the same
command line the benchmark is driven by.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.observability import read_spans_jsonl

SUITE = Path(__file__).resolve().parent
DECLARATION = json.loads((SUITE.parents[1] / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in DECLARATION["workloads"]]

sys.path.insert(0, str(SUITE))
import layers  # noqa: E402
import workloads  # noqa: E402


def _run(tmp_path: Path, *args: str):
    """Run the suite's command; returns (last stdout line, --json document)."""
    document = tmp_path / "result.json"
    completed = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), *args, "--json", str(document)],
        capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    return line, json.loads(document.read_text())


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_workload_at_one_task(tmp_path: Path, name: str) -> None:
    spans_path = tmp_path / "spans.jsonl"
    line, document = _run(
        tmp_path, "--workload", name, "--tasks", "1", "--seconds", "0",
        "--trace", "1", "--spans", str(spans_path),
    )
    result = document["workloads"][name]

    # Every correctness gate passed.
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 2
    # The wrappers change nothing: the traced rep reproduces the
    # untraced rep's transcript digest.
    reps = result["reps"]
    assert [rep["traced"] for rep in reps] == [False, True]
    assert reps[0]["fingerprint"] and reps[0]["fingerprint"] == reps[1]["fingerprint"]
    # The layers account for the traced wall time.
    assert result["layer_metrics"]["attributed_ratio"] >= 0.95
    # The printed metrics are exactly the declared per-layer ones.
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        spec["name"]: spec["unit"] for spec in DECLARATION["per_layer"]
    }
    # Spans read back through the repo's reader, one root per traced rep.
    spans = read_spans_jsonl(str(spans_path))
    assert [span["name"] for span in spans].count(layers.ROOT_SPAN) == 1
    assert {"name", "span_id", "parent_id", "start", "end", "status", "pid", "attrs"} <= set(spans[0])


def test_untraced_metrics_match_declaration(tmp_path: Path) -> None:
    line, _ = _run(tmp_path, "--workload", "engine-mock", "--tasks", "1", "--seconds", "0")
    assert line["correct"]
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        spec["name"]: spec["unit"] for spec in DECLARATION["end_to_end"]
    }
    assert all(metric["value"] > 0 for metric in line["metrics"].values())


def test_workload_registry_matches_declaration() -> None:
    assert list(workloads.WORKLOADS) == WORKLOAD_NAMES


def test_chain_stats_walk_every_shard() -> None:
    """Gas and transaction counts must not depend on the shard count.

    A uniform cohort relays no cross-shard messages, so two shards carry
    exactly the single chain's transactions, split between them.
    """
    stats = {}
    for shards in (None, 2):
        workload = workloads.EngineWorkload(
            "shard-stats", size=4, workers=2, backend="mock", shards=shards
        )
        session = workload.setup(seed=1, size=4)
        heights = workloads.chain_heights(session.system.testnet)
        workload.execute(session)
        stats[shards] = workloads.chain_stats(session.system.testnet, heights)
    # This seed puts the cohort's transactions off shard 0, where the
    # sharded facade's own block view does not look.
    assert any(
        line.startswith("shard 1 ") and not line.endswith("[]") for line in stats[2].lines
    )
    assert (stats[2].txs, stats[2].gas, stats[2].blocks) == (
        stats[None].txs, stats[None].gas, stats[None].blocks,
    )
