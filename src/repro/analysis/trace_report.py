"""Per-phase timeline report of a protocol run, built from span traces.

``python -m repro.analysis.trace_report`` runs one full protocol round
(register → authenticate → submit → audit → reward) over the mock
backend with tracing enabled and prints a timeline with one row per
Algorithm-1 phase.  Pass ``--jsonl trace.jsonl`` to report on a
previously exported trace instead, and ``--export PATH`` to write the
demo run's spans out as JSON-lines.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from repro.errors import ProtocolError, VerificationError

#: Algorithm 1's phases, in protocol order.  ``protocol.<phase>`` is the
#: span name each phase is recorded under.
ALGORITHM1_PHASES = ("register", "authenticate", "submit", "audit", "reward")


def phase_rows(spans: Sequence[dict]) -> List[dict]:
    """Aggregate raw span dicts into one row per Algorithm-1 phase.

    A phase's window runs from the first start to the last end of its
    ``protocol.<phase>`` spans; phases with no spans are reported with
    ``count == 0`` so a broken run is visible rather than silently
    shortened.
    """
    by_phase: Dict[str, List[dict]] = {phase: [] for phase in ALGORITHM1_PHASES}
    for span in spans:
        name = span.get("name", "")
        if name.startswith("protocol."):
            phase = name.split(".", 1)[1]
            if phase in by_phase:
                by_phase[phase].append(span)
    origin = min(
        (s["start"] for group in by_phase.values() for s in group),
        default=0.0,
    )
    rows = []
    for phase in ALGORITHM1_PHASES:
        group = by_phase[phase]
        if not group:
            rows.append(
                {"phase": phase, "count": 0, "start": None, "end": None,
                 "duration": 0.0}
            )
            continue
        start = min(s["start"] for s in group)
        end = max(s["end"] for s in group if s["end"] is not None)
        rows.append(
            {
                "phase": phase,
                "count": len(group),
                "start": start - origin,
                "end": end - origin,
                "duration": sum(
                    (s["end"] - s["start"]) for s in group if s["end"] is not None
                ),
            }
        )
    return rows


def render_timeline(spans: Sequence[dict], width: int = 32) -> str:
    """The human-readable per-phase timeline."""
    rows = phase_rows(spans)
    horizon = max((row["end"] or 0.0) for row in rows) or 1.0
    lines = [
        "Algorithm 1 phase timeline "
        f"({sum(row['count'] for row in rows)} protocol spans, "
        f"{len(spans)} spans total)",
        "",
        f"{'phase':<14}{'spans':>6}{'start':>10}{'total':>10}  timeline",
    ]
    for row in rows:
        if row["count"] == 0:
            lines.append(f"{row['phase']:<14}{0:>6}{'-':>10}{'-':>10}  (missing)")
            continue
        left = int(row["start"] / horizon * width)
        right = max(left + 1, int(row["end"] / horizon * width))
        bar = " " * left + "█" * (right - left)
        lines.append(
            f"{row['phase']:<14}{row['count']:>6}"
            f"{row['start']:>10.3f}{row['duration']:>10.3f}  {bar}"
        )
    return "\n".join(lines)


def render_hot_spans(spans: Sequence[dict], top: int = 8) -> str:
    """The most expensive span names by total duration."""
    totals: Dict[str, List[float]] = {}
    for span in spans:
        if span.get("end") is None:
            continue
        totals.setdefault(span["name"], []).append(span["end"] - span["start"])
    ranked = sorted(
        totals.items(), key=lambda item: -sum(item[1])
    )[:top]
    lines = ["", f"{'span':<30}{'calls':>7}{'total s':>10}{'mean s':>10}"]
    for name, durations in ranked:
        total = sum(durations)
        lines.append(
            f"{name:<30}{len(durations):>7}{total:>10.3f}"
            f"{total / len(durations):>10.4f}"
        )
    return "\n".join(lines)


def run_demo_round() -> List[dict]:
    """One full mock-backend protocol round with tracing enabled.

    Returns the recorded span dicts; the tracer is restored to its
    previous state afterwards.
    """
    import repro.contracts  # noqa: F401  (side effect: registers contract classes)
    from repro import observability as obs
    from repro.core import MajorityVotePolicy, Requester, Worker, ZebraLancerSystem

    from repro.chain.network import Testnet

    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    try:
        testnet = Testnet(miners=2, full_nodes=2)
        obs.TRACER.set_clock(testnet.clock)
        system = ZebraLancerSystem(
            profile="test", cert_mode="merkle", backend_name="mock",
            testnet=testnet,
        )
        requester = Requester(system, "req")
        workers = [Worker(system, f"w{i}") for i in range(2)]
        task = requester.publish_task(
            MajorityVotePolicy(3), "demo", num_answers=2, budget=600
        )
        for worker, answer in zip(workers, ([1], [1])):
            record = worker.submit_answer(task, answer)
            if not record.receipt.success:
                raise ProtocolError(f"demo submission failed: {record.receipt.error}")
        if not task.audit_submissions():
            raise VerificationError("demo round: submission audit failed")
        receipt = requester.evaluate_and_reward(task)
        if not receipt.success:
            raise ProtocolError(f"demo reward failed: {receipt.error}")
        return [span.to_dict() for span in obs.TRACER.finished_spans()]
    finally:
        obs.TRACER.set_clock(None)
        if not was_enabled:
            obs.disable()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.trace_report",
        description="Print a per-phase timeline of one protocol run.",
    )
    parser.add_argument(
        "--jsonl", metavar="PATH",
        help="report on an exported span log instead of running a demo round",
    )
    parser.add_argument(
        "--export", metavar="PATH",
        help="also write the demo round's spans to PATH as JSON-lines",
    )
    args = parser.parse_args(argv)

    if args.jsonl:
        from repro.observability import read_spans_jsonl

        spans = read_spans_jsonl(args.jsonl)
    else:
        spans = run_demo_round()
        if args.export:
            from repro.observability import write_spans_jsonl

            count = write_spans_jsonl(spans, args.export)
            print(f"wrote {count} spans to {args.export}", file=sys.stderr)

    print(render_timeline(spans))
    print(render_hot_spans(spans))

    missing = [row["phase"] for row in phase_rows(spans) if row["count"] == 0]
    if missing:
        print(f"\nmissing phases: {', '.join(missing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
