"""The suite's workloads and the measurement loop that runs one of them.

Every workload is a closed loop on the simulated 4-node PoA testnet
(2 miners, 2 full nodes) driven from this one process: a client sends
its next transaction only after the receipt it waits on.  The program
sees only the specs generated from ``--seed``; every rep of a run
replays the same specs on a fresh system.

A rep is: set-up (timed as ``setup_s``), then the timed section, then
the correctness gates (untimed).  :func:`measure` runs one untimed
1-task warm-up, then reps until ``seconds`` would be exceeded, and
turns the reps into metrics.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.contracts  # noqa: F401  (registers the contract classes)
from repro.core import accounting
from repro.core import engine as core_engine
from repro.core.market import Arbiter
from repro.crypto.hashing import sha256
from repro.observability import write_spans_jsonl

import layers

#: Set-up samples per run at least; set-up jitters, so take several.
MIN_SETUPS = 3


@dataclass
class Session:
    """A freshly set-up system plus the specs the timed section runs."""

    system: Any
    specs: list
    arbiter: Any = None


@dataclass
class Run:
    """What a timed section produced, before any gate looked at it."""

    latencies: List[float]
    payload: Any


@dataclass
class Rep:
    setup_s: float
    attempted: int
    traced: bool
    wall_s: float = 0.0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)
    gas: int = 0
    txs: int = 0
    blocks: int = 0
    fingerprint: str = ""
    errors: List[str] = field(default_factory=list)
    layer_metrics: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> Dict[str, Any]:
        return {
            "traced": self.traced,
            "setup_s": self.setup_s,
            "wall_s": self.wall_s,
            "attempted": self.attempted,
            "failed": self.failed,
            "gas": self.gas,
            "txs": self.txs,
            "blocks": self.blocks,
            "fingerprint": self.fingerprint,
            "errors": self.errors,
        }


# ----- chain statistics -----------------------------------------------------------------


def _shards(testnet) -> list:
    """Every sub-chain: a sharded facade's shards, else the testnet itself.

    The facade's own ``canonical_blocks`` reads shard 0 only, so gas,
    transaction and block counts must walk the shards themselves.
    """
    return list(getattr(testnet, "shard_testnets", None) or [testnet])


def chain_heights(testnet) -> List[int]:
    return [shard.height for shard in _shards(testnet)]


@dataclass
class ChainStats:
    gas: int
    txs: int
    blocks: int
    lines: List[str]


def chain_stats(testnet, heights: List[int]) -> ChainStats:
    """Gas, transactions and blocks added on every shard since ``heights``."""
    gas = txs = blocks = 0
    lines: List[str] = []
    for index, (shard, start) in enumerate(zip(_shards(testnet), heights)):
        node = shard.any_node
        blocks = max(blocks, node.height - start)
        for block in node.canonical_blocks(start + 1, node.height):
            receipts = node.receipts_for_block(block.block_hash) or ()
            gas += sum(receipt.gas_used for receipt in receipts)
            txs += len(block.transactions)
            hashes = ",".join(stx.tx_hash.hex() for stx in block.transactions)
            lines.append(f"shard {index} block {block.number} {block.block_hash.hex()} [{hashes}]")
    return ChainStats(gas=gas, txs=txs, blocks=blocks, lines=lines)


# ----- workloads ------------------------------------------------------------------------


def _on_return(obj: Any, method: str, record: Callable[[tuple, Any, float], None]) -> None:
    """Shadow ``obj.method`` so every call reports (args, result, start).

    The class attribute is looked up per call, so a traced rep's wrapper
    still runs underneath.
    """

    def call(*args, **kwargs):
        start = time.perf_counter()
        result = getattr(type(obj), method)(obj, *args, **kwargs)
        record(args, result, start)
        return result

    setattr(obj, method, call)


def _stamp_blocks(testnet) -> Dict[int, float]:
    """Record when each block height was mined during the timed section."""
    mined: Dict[int, float] = {}

    def record(args, block, start) -> None:
        mined[testnet.height] = time.perf_counter()

    _on_return(testnet, "mine_block", record)
    return mined


def _present(answers) -> int:
    return sum(1 for answer in answers if answer is not None)


class Workload:
    """One set of inputs; subclasses define set-up, timed section and gates."""

    #: Whether reps replay bit-identical blocks.  Groth16 proofs are
    #: blinded with ``secrets`` randomness, so block hashes differ there
    #: and only outcomes, gas and transaction counts must repeat.
    deterministic_blocks = True

    def __init__(self, name: str, size: int) -> None:
        self.name = name
        self.size = size

    def system_seed(self, seed: int) -> bytes:
        return f"suite/{self.name}/{seed}".encode()

    def setup(self, seed: int, size: int) -> Session:
        raise NotImplementedError

    def execute(self, session: Session) -> Run:
        raise NotImplementedError

    def check(self, session: Session, run: Run) -> Tuple[int, List[str]]:
        """(tasks that missed their terminal state, outcome lines).

        Raises on a whole-run violation (conservation, consensus).
        """
        raise NotImplementedError


class EngineWorkload(Workload):
    """One uniform ``ProtocolEngine`` cohort of ``size`` tasks."""

    def __init__(
        self, name: str, size: int, workers: int, backend: str, shards: Optional[int] = None
    ) -> None:
        super().__init__(name, size)
        self.workers = workers
        self.backend = backend
        self.shards = shards
        self.deterministic_blocks = backend == "mock"

    def setup(self, seed: int, size: int) -> Session:
        system = core_engine.engine_system(
            size, self.workers, backend_name=self.backend,
            seed=self.system_seed(seed), shards=self.shards,
        )
        specs = core_engine.make_uniform_specs(system, size, self.workers, seed=seed)
        return Session(system=system, specs=specs)

    def execute(self, session: Session) -> Run:
        # A task's latency ends when the block carrying its reward
        # receipt is mined; the whole cohort starts together.
        mined = _stamp_blocks(session.system.testnet)
        start = time.perf_counter()
        report = core_engine.ProtocolEngine(session.system, session.specs).run()
        latencies = [
            mined[outcome.phase_blocks[core_engine.REWARDING]] - start
            for outcome in report.outcomes
            if core_engine.REWARDING in outcome.phase_blocks
        ]
        return Run(latencies=latencies, payload=report)

    def check(self, session: Session, run: Run) -> Tuple[int, List[str]]:
        report = run.payload
        failed = sum(
            1
            for spec, outcome in zip(session.specs, report.outcomes)
            if outcome.status != core_engine.STATUS_COMPLETED
            or len(outcome.rewards) != _present(spec.answers)
        )
        accounting.assert_exactly_once_payouts(session.system, session.specs, report.outcomes)
        return failed, report.outcome_lines()


class InteractiveWorkload(EngineWorkload):
    """The same cohort, one task at a time through the synchronous clients."""

    def __init__(self, name: str, size: int, workers: int) -> None:
        super().__init__(name, size, workers, backend="mock")

    def execute(self, session: Session) -> Run:
        testnet = session.system.testnet
        latencies: List[float] = []
        handles = []
        for spec in session.specs:
            start = time.perf_counter()
            handle = spec.requester.publish_task(
                spec.policy,
                spec.description,
                num_answers=len(spec.workers),
                budget=spec.budget,
                answer_window=spec.answer_window,
                instruction_window=spec.instruction_window,
                rsa_bits=spec.rsa_bits,
            )
            for worker, answer in zip(spec.workers, spec.answers):
                if answer is not None:
                    worker.submit_answer(handle, answer)
            testnet.mine_until(handle.is_collection_closed)
            receipt = spec.requester.evaluate_and_reward(handle)
            latencies.append(time.perf_counter() - start)
            handles.append((handle, receipt))
        return Run(latencies=latencies, payload=handles)

    def check(self, session: Session, run: Run) -> Tuple[int, List[str]]:
        outcomes = []
        failed = 0
        for index, (spec, (handle, receipt)) in enumerate(zip(session.specs, run.payload)):
            outcome = core_engine.TaskOutcome(
                index=index,
                requester=spec.requester.identity,
                address=handle.address,
                rewards=handle.rewards(),
                status=handle.phase(),
            )
            outcomes.append(outcome)
            if (
                not receipt.success
                or outcome.status != core_engine.STATUS_COMPLETED
                or len(outcome.rewards) != _present(spec.answers)
            ):
                failed += 1
        accounting.assert_exactly_once_payouts(session.system, session.specs, outcomes)
        lines = [
            f"task {o.index} {o.address.hex()} status={o.status} rewards={o.rewards}"
            for o in outcomes
        ]
        return failed, lines


class MarketWorkload(Workload):
    """``size`` listings bid on by one shared worker pool, listing 0 disputed."""

    #: Slots per listing (``make_market_specs``' default).
    SLOTS = 3

    def __init__(self, name: str, size: int, pool: int) -> None:
        super().__init__(name, size)
        self.pool = pool

    def setup(self, seed: int, size: int) -> Session:
        system = core_engine.engine_system(size, self.SLOTS, seed=self.system_seed(seed))
        specs = core_engine.make_market_specs(
            system, size, self.pool, slots_per_listing=self.SLOTS, seed=seed,
            dispute_listings=(0,),
        )
        return Session(system=system, specs=specs, arbiter=Arbiter(system))

    def execute(self, session: Session) -> Run:
        # A listing's latency runs from its post to its settlement (or
        # court ruling) receipt.
        posted: Dict[int, float] = {}
        closed: Dict[int, float] = {}

        def on_post(args, listing_id, start) -> None:
            posted[listing_id] = start

        def on_close(args, receipt, start) -> None:
            closed[args[1]] = time.perf_counter()

        for spec in session.specs:
            _on_return(spec.requester, "post_listing", on_post)
            _on_return(spec.requester, "settle_listing", on_close)
        _on_return(session.arbiter, "rule", on_close)
        report = core_engine.run_open_market(
            session.system, session.specs, arbiter=session.arbiter
        )
        latencies = [
            closed[listing_id] - posted[listing_id]
            for listing_id in report.listing_ids
            if listing_id in closed and listing_id in posted
        ]
        return Run(latencies=latencies, payload=report)

    def check(self, session: Session, run: Run) -> Tuple[int, List[str]]:
        report = run.payload
        failed = sum(
            1
            for listing, outcome in zip(report.listings, report.outcomes)
            if listing.state != "settled"
            or outcome.status not in (core_engine.STATUS_COMPLETED, core_engine.STATUS_DEFAULTED)
        )
        accounting.assert_market_conservation(session.system, report)
        accounting.assert_exactly_once_payouts(
            session.system, report.task_specs, report.outcomes
        )
        lines = report.engine.outcome_lines() + [
            f"listing {listing.listing_id} {listing.state} disbursed={listing.disbursed} "
            f"payouts={listing.payouts}"
            for listing in report.listings
        ]
        return failed, lines


#: The suite's workloads; their reasons are in BENCHMARK.json and README.md.
#: Reps are kept short (2-8 s) so a run's median spans several of them:
#: the host slows down in bursts of a second or two, which a median
#: over several reps sets aside and a single long rep absorbs.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        EngineWorkload("engine-mock", size=8, workers=3, backend="mock"),
        EngineWorkload("engine-groth16", size=1, workers=2, backend="groth16"),
        InteractiveWorkload("interactive-mock", size=4, workers=3),
        MarketWorkload("market-mock", size=2, pool=4),
    )
}


# ----- one rep ------------------------------------------------------------------------


def run_rep(
    workload: Workload,
    seed: int,
    size: int,
    instrumentation: Optional[layers.Instrumentation] = None,
    keep_spans: Optional[list] = None,
) -> Rep:
    """Set up, run the timed section, then gate its outputs."""
    gc.collect()
    started = time.perf_counter()
    session = workload.setup(seed, size)
    rep = Rep(
        setup_s=time.perf_counter() - started,
        attempted=size,
        traced=instrumentation is not None,
    )
    testnet = session.system.testnet
    heights = chain_heights(testnet)
    try:
        if instrumentation is None:
            started = time.perf_counter()
            run = workload.execute(session)
            rep.wall_s = time.perf_counter() - started
        else:
            try:
                with instrumentation, instrumentation.root(workload=workload.name) as root:
                    run = workload.execute(session)
            finally:
                spans = instrumentation.take_spans()
                if keep_spans is not None:
                    keep_spans.extend(spans)
            rep.wall_s = root.duration
        stats = chain_stats(testnet, heights)
        rep.gas, rep.txs, rep.blocks = stats.gas, stats.txs, stats.blocks
        rep.latencies = run.latencies
        rep.failed, lines = workload.check(session, run)
        testnet.assert_consensus()
    except Exception:  # the rep is a boundary: record the failure, keep measuring
        rep.errors.append(traceback.format_exc(limit=4))
        rep.failed = rep.attempted
        return rep
    if instrumentation is not None:
        rep.layer_metrics = layer_metrics(layers.analyze(spans), rep)
    evidence = stats.lines if workload.deterministic_blocks else [
        f"gas={stats.gas} txs={stats.txs} blocks={stats.blocks}"
    ]
    rep.fingerprint = sha256("\n".join(evidence + lines).encode()).hex()
    return rep


def layer_metrics(analysis: Dict[str, Any], rep: Rep) -> Dict[str, float]:
    """Flatten one traced rep's analysis into named per-layer metrics."""
    entries = analysis["entries"]
    out: Dict[str, float] = {}
    for name, stats in entries.items():
        out[f"{name}.calls"] = stats["calls"]
        out[f"{name}.self_s"] = stats["self_s"]
        out[f"{name}.total_s"] = stats["total_s"]
    for layer, self_s in analysis["layers"].items():
        out[f"layer.{layer}.self_s"] = self_s
    out["unattributed_s"] = analysis["unattributed_s"]
    out["attributed_ratio"] = analysis["attributed_ratio"]
    out["traced_wall_s"] = analysis["wall_s"]

    def calls(name: str) -> float:
        return entries.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return entries.get(name, {}).get("self_s", 0.0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    forked = analysis["forked_items"]
    proofs = calls("zksnark.prove") + forked.get("BatchProveJob", 0) + forked.get("_ProveJob", 0)
    out["crypto.ecdsa_recover.per_tx"] = ratio(calls("crypto.ecdsa_recover"), rep.txs)
    out["zksnark.verify.per_proof"] = ratio(calls("zksnark.verify"), proofs)
    out["chain.import_block.per_block"] = ratio(calls("chain.import_block"), rep.blocks)
    out["crypto.rsa_keygen_pool.wait_s"] = self_s("crypto.rsa_keygen_pool")
    out["zksnark.fanout.wait_s"] = self_s("zksnark.fanout")
    # RSA keygen runs inline (interactive) or in the fork pool (engine):
    # either way this is the time the protocol waited for it.
    out["crypto.rsa_keygen.blocking_s"] = (
        self_s("crypto.rsa_keygen") + self_s("crypto.rsa_keygen_pool")
    )
    return out


# ----- one run ------------------------------------------------------------------------


def percentile(samples: List[float], q: int) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _median_percentile(groups: List[List[float]], q: int) -> float:
    return statistics.median(percentile(group, q) for group in groups) if groups else 0.0


def _median_metrics(dicts: List[Dict[str, float]]) -> Dict[str, float]:
    keys = sorted({key for metrics in dicts for key in metrics})
    return {
        key: statistics.median(metrics.get(key, 0.0) for metrics in dicts) for key in keys
    }


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    size: Optional[int] = None,
    spans_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Warm up, run reps for about ``seconds``, gate them, derive metrics.

    A traced run alternates untraced and traced reps (at least one of
    each): end-to-end metrics come from the untraced ones only, and the
    ratio of the two medians is the tracing overhead.
    """
    size = size or workload.size
    errors: List[str] = []
    warm = run_rep(workload, seed, 1)
    errors.extend(f"warm-up: {error}" for error in warm.errors)

    instrumentation = layers.Instrumentation() if trace else None
    kept_spans: Optional[list] = [] if spans_path else None
    reps: List[Rep] = []
    started = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(
            run_rep(workload, seed, size, instrumentation if traced else None, kept_spans)
        )
        elapsed = time.perf_counter() - started
        if trace and len(reps) < 2:
            continue
        # Stop before a rep that would end past the budget.
        if elapsed * (len(reps) + 1) / len(reps) > seconds:
            break

    setups = [rep.setup_s for rep in reps]
    while len(setups) < MIN_SETUPS:
        gc.collect()
        started = time.perf_counter()
        workload.setup(seed, size)
        setups.append(time.perf_counter() - started)

    # Same seed, same outputs: every rep must reproduce the first clean one.
    clean = [rep for rep in reps if not rep.errors]
    for rep in clean[1:]:
        if rep.fingerprint != clean[0].fingerprint:
            rep.errors.append("transcript differs from the first rep of this run")
            rep.failed = rep.attempted
    for index, rep in enumerate(reps):
        errors.extend(f"rep {index}: {error}" for error in rep.errors)

    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    plain = [rep for rep in reps if not rep.traced]
    wall = statistics.median(rep.wall_s for rep in plain)
    settled = statistics.median(rep.attempted - rep.failed for rep in plain)
    # Percentiles per rep, then the median over reps: a burst of host
    # noise slows whole reps, and the median sets those aside.
    latencies = [rep.latencies for rep in plain if rep.latencies]
    metrics = {
        "setup_s": statistics.median(setups),
        "tasks_per_s": settled / wall if wall > 0 else 0.0,
        "task_latency_p50_s": _median_percentile(latencies, 50),
        "task_latency_p90_s": _median_percentile(latencies, 90),
        "gas_per_task": statistics.median(rep.gas / rep.attempted for rep in plain),
        "chain_blocks": statistics.median_low(rep.blocks for rep in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "task_fail_ratio": failed / attempted,
    }
    result: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tasks_per_rep": size,
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "latency_samples": sum(len(samples) for samples in latencies),
        "setup_samples": setups,
        "reps": [rep.summary() for rep in reps],
    }
    if trace:
        traced_reps = [rep for rep in reps if rep.traced and not rep.errors]
        layer_values = _median_metrics([rep.layer_metrics for rep in traced_reps])
        if traced_reps and wall > 0:
            layer_values["trace_overhead_ratio"] = (
                statistics.median(rep.wall_s for rep in traced_reps) / wall
            )
        result["layer_metrics"] = layer_values
    if spans_path:
        write_spans_jsonl(kept_spans, spans_path)
    return result
