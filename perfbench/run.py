"""End-to-end benchmark of ``BrokerNetwork``: one command, every metric by name.

Run from the repository root::

    python3 perfbench/run.py --workload sub-stock --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload pub-auction --seed 1 --seconds 10 --trace 1 \
        --out traced.json [--spans spans.jsonl]
    python3 perfbench/run.py diff base.json head.json

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` alternates untraced and traced rounds of the same work and
reports per-layer self times and counters (per round), the unattributed
remainder and the tracing overhead.  Either way every publish is checked
against the network's linear-scan oracle, the count metrics must repeat
exactly across rounds and across runs of the same seed, and the last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--out FILE`` merges the full report of the run (environment stamp, every
metric, tail percentiles and sample counts, attribution) into ``FILE`` under
the workload's name.  ``diff`` compares two such files layer by layer.

The benchmark refuses to run when ``REPRO_PROF``, ``REPRO_AUTOTUNE`` or
``REPRO_NO_NUMPY`` is set, because each switches the code path it measures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
STATE = ROOT / "perfbench" / ".state"
REFUSED_ENV = ("REPRO_PROF", "REPRO_AUTOTUNE", "REPRO_NO_NUMPY")


def fail(message: str) -> "None":
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def prepare_imports() -> None:
    for name in REFUSED_ENV:
        if os.environ.get(name):
            fail(f"{name} is set; it switches the code path being measured")
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program to measure: {SRC / 'repro'} is missing")
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


# ---------------------------------------------------------------- the stamp
def source_digest() -> str:
    """SHA-256 over the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for base in (SRC, ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() or None


def environment_stamp(workload: str, seed: int) -> Dict[str, object]:
    from repro.index.config import IndexConfig

    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "index_config": list(IndexConfig().cache_key()),
        "workload": workload,
        "seed": seed,
    }


# ----------------------------------------------------- same seed, same counts
def check_repeatable(stamp: Dict[str, object], counts: Dict[str, int]) -> bool:
    """Compare the count metrics with an earlier run of the same seed and code.

    Records are kept in ``perfbench/.state`` keyed by source digest, workload
    and seed; returns False when an earlier record disagrees.
    """
    STATE.mkdir(exist_ok=True)
    path = STATE / "counts.json"
    try:
        records = json.loads(path.read_text())
    except (OSError, ValueError):
        records = {}
    key = f"{stamp['source_sha256']}:{stamp['workload']}:{stamp['seed']}"
    previous = records.get(key)
    if previous is not None:
        return previous == counts
    records[key] = counts
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(records, sort_keys=True))
    os.replace(tmp, path)
    return True


# --------------------------------------------------------------------- runs
def run(workload_name: str, seed: int, seconds: float, trace: bool,
        spans_path: Optional[str]) -> Dict[str, object]:
    from perfbench import harness
    from perfbench.tracing import Tracer, write_spans

    workload = harness.WORKLOADS[workload_name]
    plan = workload.make_plan(seed)
    harness.warm_up(plan)
    rounds: List[harness.RoundResult] = []
    traced_rounds: List[harness.RoundResult] = []
    totals = harness.TracedTotals()
    timed = 0.0
    while timed < seconds or not rounds:
        result = harness.run_round(plan)
        rounds.append(result)
        timed += result.phase_s
        if trace:
            tracer = Tracer()
            traced = harness.run_round(plan, tracer)
            traced_rounds.append(traced)
            totals.add(traced, result, tracer)
            timed += traced.phase_s
            if spans_path is not None:
                write_spans(spans_path, tracer)
    setups = [setup for r in rounds for setup in r.setups]
    while len(setups) < harness.MIN_SETUPS or sum(setups) < harness.MIN_SETUP_SECONDS:
        setups.append(harness.measure_setup(plan[len(setups) % len(plan)]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    everything = rounds + traced_rounds
    problems: List[str] = []
    counts = rounds[0].counts
    if any(r.counts != counts for r in everything):
        problems.append("count metrics differ between rounds of the same seed")
    stamp = environment_stamp(workload_name, seed)
    if not check_repeatable(stamp, counts):
        problems.append("count metrics differ from an earlier run of the same seed")
    failed = sum(r.failed for r in everything)
    if failed:
        problems.append(f"{failed} calls failed or delivered to the wrong set")

    metrics, details = harness.end_to_end(rounds, setups, peak_rss_mb)
    report: Dict[str, object] = {
        "stamp": stamp,
        "why": workload.why,
        "rounds": len(rounds),
        "counts": counts,
        "end_to_end": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "details": details,
    }
    if trace:
        layers = harness.per_layer(totals)
        gap = totals.attribution_gap()
        if abs(gap) > 1e-6 * max(1.0, totals.traced_wall_s) or totals.unattributed_s < 0:
            problems.append(f"layer times do not add up to the traced wall time (gap {gap:.3g} s)")
        report["per_layer"] = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        report["attribution"] = {
            "traced_rounds": totals.rounds,
            "traced_wall_s": totals.traced_wall_s,
            "layer_sum_s": sum(totals.seconds.values()),
            "unattributed_s": totals.unattributed_s,
            "gap_s": gap,
        }
    report["problems"] = problems
    report["attempted"] = sum(r.attempted for r in (traced_rounds if trace else rounds))
    report["failed"] = sum(r.failed for r in (traced_rounds if trace else rounds))
    return report


def print_report(report: Dict[str, object], trace: bool) -> None:
    stamp = report["stamp"]
    print(f"workload {stamp['workload']} seed {stamp['seed']}: {report['why']}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(f"rounds {report['rounds']}  counts {json.dumps(report['counts'], sort_keys=True)}")
    section = "per_layer" if trace else "end_to_end"
    for name, metric in report[section].items():
        print(f"  {name:48s} {metric['value']:>16.6g} {metric['unit']}")
    if not trace:
        for name, (value, unit) in report["details"]["undeclared"].items():
            print(f"  ({name:46s} {value:>16.6g} {unit}, not declared)")
        for kind, detail in report["details"].items():
            if kind.endswith("_tail"):
                print(f"  {kind}: p{detail['percentile']:.4g} of "
                      f"{detail['samples_per_instance']} calls per instance, "
                      f"{detail['rounds']} rounds ({detail['samples']} samples)")
    else:
        attribution = report["attribution"]
        print(f"  attribution: layers {attribution['layer_sum_s']:.6f} s + unattributed "
              f"{attribution['unattributed_s']:.6f} s = traced wall "
              f"{attribution['traced_wall_s']:.6f} s (gap {attribution['gap_s']:.3g} s)")
    for problem in report["problems"]:
        print(f"PROBLEM: {problem}")


def merge_out(path: str, report: Dict[str, object]) -> None:
    target = Path(path)
    try:
        merged = json.loads(target.read_text())
    except (OSError, ValueError):
        merged = {}
    merged[report["stamp"]["workload"]] = report
    target.write_text(json.dumps(merged, indent=1, sort_keys=True))


# --------------------------------------------------------------------- diff
def layer_diff(base: Dict[str, object], head: Dict[str, object]) -> List[str]:
    """Per-workload deltas of every per-layer metric in two traced reports."""
    lines: List[str] = []
    for workload in sorted(set(base) & set(head)):
        old = base[workload].get("per_layer")
        new = head[workload].get("per_layer")
        if old is None or new is None:
            lines.append(f"{workload}: not traced in both files")
            continue
        lines.append(f"{workload}:")
        for name in sorted(set(old) | set(new)):
            a = old.get(name, {}).get("value")
            b = new.get(name, {}).get("value")
            if a is None or b is None:
                lines.append(f"  {name:48s} {'only in ' + ('head' if a is None else 'base')}")
                continue
            unit = new[name]["unit"]
            share = f"{(b - a) / a:+.1%}" if a else "n/a"
            lines.append(f"  {name:48s} {a:>14.6g} -> {b:<14.6g} {b - a:>+14.6g} {unit:6s} {share}")
    for workload in sorted(set(base) ^ set(head)):
        lines.append(f"{workload}: only in {'base' if workload in base else 'head'}")
    return lines


def main(argv: Sequence[str]) -> int:
    if argv and argv[0] == "diff":
        parser = argparse.ArgumentParser(prog="run.py diff")
        parser.add_argument("base")
        parser.add_argument("head")
        args = parser.parse_args(argv[1:])
        base = json.loads(Path(args.base).read_text())
        head = json.loads(Path(args.head).read_text())
        print("\n".join(layer_diff(base, head)))
        return 0
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="merge the full report into this JSON file")
    parser.add_argument("--spans", help="write the last traced round's spans here (JSON lines)")
    args = parser.parse_args(argv)
    prepare_imports()
    from perfbench.harness import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.spans)
    print_report(report, bool(args.trace))
    if args.out:
        merge_out(args.out, report)
    section = report["per_layer"] if args.trace else report["end_to_end"]
    print(json.dumps({
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": section,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
