"""Structured observability: spans, metrics, exporters.

One global switch governs the whole layer, and **off is the default**:
every instrumented hot path (block import, VM execution, gas metering,
SNARK setup/prove/verify, pairing/MSM internals) first reads
``TRACER.enabled`` and bails, so the disabled system performs like an
uninstrumented one (guarded to < 5% by the overhead test).

Typical use::

    from repro import observability as obs

    obs.enable()
    with obs.span("chain.verify_proof", inputs=3):
        ...
    obs.count("snark.pairing.calls")
    obs.export_spans("trace.jsonl")
    print(obs.METRICS.render_prometheus())

Deterministic traces: hand the chain simulation's clock to the tracer
(``obs.TRACER.set_clock(testnet.clock)``) and every timestamp becomes
simulated seconds — identical across runs, which is how the timeline
tests assert exact phase ordering.

Span/metric name inventory (kept in sync with DESIGN.md §8):

==============================  ====================================================
``protocol.register``           RA registration + on-chain commitment update
``protocol.authenticate``       one anonymous attestation (SNARK prove inside)
``protocol.submit``             worker answer submission (encrypt + auth + tx)
``protocol.audit``              batched re-verification of a task's submissions
``protocol.reward``             decrypt + policy + prove + instruct
``chain.import_block``          block validation and re-execution on one node
``chain.create_block``          mining: selection + execution + seal
``chain.verify_proof``          the snark_verify precompile
``chain.batch_verify_proof``    the snark_batch_verify precompile
``vm.execute_tx``               one transaction end to end
``txsender.send``               send/send_signed: broadcast, then confirm_all
``snark.setup|prove|verify|batch_verify``  backend operations (both backends)
==============================  ====================================================
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.observability.export import (
    read_spans_jsonl,
    spans_to_jsonl,
    write_prometheus,
    write_spans_jsonl,
)
from repro.observability.metrics import (
    DEFAULT_DEPTH_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.tracer import NULL_SPAN, NullSpan, Span, Tracer

#: The process-global tracer and registry every instrumented module uses.
TRACER = Tracer()
METRICS = MetricsRegistry()

__all__ = [
    "TRACER", "METRICS",
    "Tracer", "Span", "NullSpan",
    "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "DEFAULT_LATENCY_BUCKETS", "DEFAULT_DEPTH_BUCKETS",
    "enable", "disable", "enabled", "reset",
    "span", "count", "observe", "gauge_set",
    "export_spans", "read_spans_jsonl", "spans_to_jsonl",
    "write_spans_jsonl", "write_prometheus",
]


def enable() -> None:
    """Switch the observability layer on (spans + metrics record)."""
    TRACER.enable()


def disable() -> None:
    """Back to the no-op default."""
    TRACER.disable()


def enabled() -> bool:
    return TRACER.enabled


def reset() -> None:
    """Clear recorded spans and forget every metric instrument."""
    TRACER.reset()
    METRICS.reset()


# ----- hot-path helpers (each starts with the enabled check) ------------------------


def span(name: str, **attrs: Any):
    """Open a span under the global tracer (no-op while disabled)."""
    if not TRACER.enabled:
        return TRACER.span(name)  # returns the shared NullSpan
    return TRACER.span(name, **attrs)


def count(name: str, amount: int = 1) -> None:
    """Bump a counter (no-op while disabled)."""
    if TRACER.enabled:
        METRICS.counter(name).inc(amount)


def observe(
    name: str, value: float, buckets: Optional[Sequence[float]] = None
) -> None:
    """Record one histogram observation (no-op while disabled).

    ``buckets`` only matters on the histogram's first registration.
    """
    if TRACER.enabled:
        METRICS.histogram(name, buckets).observe(value)


def gauge_set(name: str, value: float) -> None:
    """Set a gauge (no-op while disabled)."""
    if TRACER.enabled:
        METRICS.gauge(name).set(value)


def export_spans(destination) -> int:
    """Write every finished span as JSON-lines; returns the span count."""
    return write_spans_jsonl(TRACER.finished_spans(), destination)
