"""The repo benchmark: measured workloads, end-to-end metrics, traced layers.

Run from the repository root (no install step; the suite puts this
checkout's ``src/`` on the path itself)::

    python3 benchmarks/suite/run.py                      # every workload
    python3 benchmarks/suite/run.py --workload engine-mock --seed 3
    python3 benchmarks/suite/run.py --workload market-mock --trace 1 --spans spans.jsonl
    python3 benchmarks/suite/run.py --json a.json        # later: --json b.json
    python3 benchmarks/suite/run.py --compare a.json b.json

Each workload runs in its own fresh subprocess, one after another, so
each has its own peak RSS and shares no caches with the others.  The
workloads, metric names, units and regression bounds are declared in
``BENCHMARK.json`` at the repository root; see ``README.md`` next to
this file for what each one means.

Output: a readable table per workload, then, as the last line of
stdout, one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the declared end-to-end metrics (``--trace 0``) or per-layer
metrics (``--trace 1``).  The exit code is nonzero when any correctness
gate failed.  Nothing is written except the files ``--json`` and
``--spans`` name.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
DECLARATION = ROOT / "BENCHMARK.json"

#: Reported and compared, but not declared in BENCHMARK.json, whose
#: metrics must never read 0: any failure at all is a regression.
EXTRA_METRICS = {"task_fail_ratio": {"unit": "ratio", "better": "lower", "bound": 0.0}}


def load_declaration() -> Dict[str, Any]:
    with open(DECLARATION, encoding="utf-8") as handle:
        return json.load(handle)


def require_sources() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no program sources under {SRC}")


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path; refuse any other copy."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"run.py: imported repro from {repro.__file__}, not {SRC}")


# ----- one workload, in a subprocess --------------------------------------------------


def run_in_process(args: argparse.Namespace) -> int:
    import_program()
    import workloads

    result = workloads.measure(
        workloads.WORKLOADS[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        size=args.tasks,
        spans_path=args.spans,
    )
    print(json.dumps(result))
    return 0


def launch(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Measure one workload in a fresh interpreter and return its result."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--in-process",
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.tasks:
        command += ["--tasks", str(args.tasks)]
    if args.spans:
        command += ["--spans", args.spans]
    # The program sees only the generated specs: no REPRO_* knobs leak in,
    # and a fixed hash seed keeps set and dict layouts the same every run.
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, text=True, start_new_session=True
    )
    error = None
    try:
        stdout, _ = child.communicate(timeout=150 + 2 * args.seconds)
    except BaseException as exc:
        # Kill the worker and its fork pool, then reap it.
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        stdout, error = "", "worker timed out"
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        return {"workload": name, "correct": False, "attempted": 0, "failed": 0,
                "errors": [error or f"worker exited with code {child.returncode}"],
                "metrics": {}}
    return json.loads(lines[-1])


# ----- reporting ------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_report(result: Dict[str, Any], declaration: Dict[str, Any]) -> None:
    reps = result.get("reps", [])
    traced = sum(1 for rep in reps if rep["traced"])
    status = "correct" if result["correct"] else "INCORRECT"
    print(
        f"== {result['workload']}  seed {result.get('seed')}  "
        f"{result.get('tasks_per_rep')} tasks/rep  {len(reps)} reps ({traced} traced)  "
        f"attempted {result['attempted']}  failed {result['failed']}  {status}"
    )
    for error in result.get("errors", []):
        print("   error: " + error.strip().replace("\n", "\n          "))
    metrics = result.get("metrics", {})
    notes = {
        "setup_s": f"{len(result.get('setup_samples', []))} samples",
        "task_latency_p50_s": f"{result.get('latency_samples', 0)} samples",
        "task_latency_p90_s": f"{result.get('latency_samples', 0)} samples",
    }
    specs = {spec["name"]: spec for spec in declaration["end_to_end"]}
    specs.update(EXTRA_METRICS)
    for name, spec in specs.items():
        if name in metrics:
            print(
                f"   {name:<20} {_fmt(metrics[name]):>12} {spec['unit']:<8} "
                f"{spec['better']:<6} bound {spec['bound']:<5} {notes.get(name, '')}"
            )
    layer_values = result.get("layer_metrics")
    if not layer_values:
        return
    wall = layer_values.get("traced_wall_s", 0.0) or 1.0
    print("   layer            self_s     share")
    for key in sorted(k for k in layer_values if k.startswith("layer.")):
        layer = key.split(".")[1]
        print(f"   {layer:<14} {_fmt(layer_values[key]):>9} {layer_values[key] / wall:>8.1%}")
    print(
        f"   unattributed   {_fmt(layer_values['unattributed_s']):>9} "
        f"{layer_values['unattributed_s'] / wall:>8.1%}   attributed_ratio "
        f"{_fmt(layer_values['attributed_ratio'])}   trace_overhead_ratio "
        f"{_fmt(layer_values.get('trace_overhead_ratio', 0.0))}"
    )
    entries = sorted(
        (key[: -len(".calls")] for key in layer_values if key.endswith(".calls")),
        key=lambda entry: -layer_values[entry + ".self_s"],
    )
    print("   top entries by self time        calls     self_s    total_s")
    for entry in entries[:15]:
        print(
            f"   {entry:<30} {_fmt(layer_values[entry + '.calls']):>7} "
            f"{_fmt(layer_values[entry + '.self_s']):>10} {_fmt(layer_values[entry + '.total_s']):>10}"
        )


def contract_line(
    results: Dict[str, Dict[str, Any]], declaration: Dict[str, Any], trace: bool
) -> Dict[str, Any]:
    """The machine-readable last line: declared metrics only."""
    declared = declaration["per_layer" if trace else "end_to_end"]
    metrics: Dict[str, Dict[str, Any]] = {}
    correct = True
    for name, result in results.items():
        values = result.get("layer_metrics" if trace else "metrics") or {}
        prefix = "" if len(results) == 1 else f"{name}/"
        correct = correct and result["correct"] and bool(values)
        for spec in declared:
            metrics[prefix + spec["name"]] = {
                "value": values.get(spec["name"], 0.0), "unit": spec["unit"],
            }
    return {
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": metrics,
    }


# ----- comparing two invocations --------------------------------------------------------


def compare(path_a: str, path_b: str, declaration: Dict[str, Any]) -> int:
    """Print whether two ``--json`` documents agree within the declared bounds."""
    with open(path_a, encoding="utf-8") as handle:
        doc_a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        doc_b = json.load(handle)
    specs = {spec["name"]: spec for spec in declaration["end_to_end"]}
    specs.update(EXTRA_METRICS)
    disagreements = 0
    print(f"{'workload':<18} {'metric':<20} {'A':>12} {'B':>12} {'change':>8}  bound  verdict")
    for workload in doc_a["workloads"]:
        if workload not in doc_b["workloads"]:
            continue
        a_metrics = doc_a["workloads"][workload].get("metrics", {})
        b_metrics = doc_b["workloads"][workload].get("metrics", {})
        for name, spec in specs.items():
            if name not in a_metrics or name not in b_metrics:
                continue
            a, b = a_metrics[name], b_metrics[name]
            change = (b - a) / abs(a) if a else 0.0
            if a == b:
                verdict = "same"
            elif abs(b - a) <= spec["bound"] * abs(a):
                verdict = "agree"
            else:
                worse = b > a if spec["better"] == "lower" else b < a
                verdict = "WORSE" if worse else "BETTER"
                disagreements += 1
            print(
                f"{workload:<18} {name:<20} {_fmt(a):>12} {_fmt(b):>12} "
                f"{change:>+8.1%}  {spec['bound']:<5}  {verdict}"
            )
    print(f"{disagreements} metric/workload pairs outside their bound")
    return 1 if disagreements else 0


# ----- entry point --------------------------------------------------------------------


def parse_args(argv: List[str], declaration: Dict[str, Any]) -> argparse.Namespace:
    names = [workload["name"] for workload in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="seed for the generated inputs")
    parser.add_argument(
        "--seconds", type=float, default=declaration["run_seconds"],
        help="measurement budget per workload",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: interleave traced reps and report per-layer metrics",
    )
    parser.add_argument("--tasks", type=int, help="tasks (or listings) per rep")
    parser.add_argument("--json", metavar="PATH", help="also write full results here")
    parser.add_argument("--spans", metavar="PATH", help="write traced spans as JSON lines")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two --json files")
    parser.add_argument("--in-process", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.spans and not args.workload:
        parser.error("--spans needs --workload")
    if args.in_process and not args.workload:
        parser.error("--in-process needs --workload")
    return args


def main(argv: List[str]) -> int:
    declaration = load_declaration()
    args = parse_args(argv, declaration)
    if args.compare:
        return compare(*args.compare, declaration)
    if args.in_process:
        return run_in_process(args)
    require_sources()
    names = [args.workload] if args.workload else [w["name"] for w in declaration["workloads"]]
    results: Dict[str, Dict[str, Any]] = {}
    for name in names:
        results[name] = launch(name, args)
        print_report(results[name], declaration)
    if args.json:
        document = {
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "tasks": args.tasks, "workloads": results,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
    line = contract_line(results, declaration, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
