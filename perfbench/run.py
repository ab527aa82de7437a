"""Benchmark of the auditflow CLI on three audit shapes.

One run::

    python3 perfbench/run.py --workload big-register --seed 1 --seconds 20 --trace 0

prints progress on stderr and, as the last line of stdout, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` every workload runs; ``--repeat N`` runs each N times
with seeds 1..N. Either way each run is a fresh process, started one after
another, and the summary gives each metric's median and interquartile spread
(quartile distance over median) across the runs. ``--seconds`` defaults to
``run_seconds`` in ``BENCHMARK.json``.

A run that counts a failed operation or a wrong output prints no result and
exits 1; the repeat mode leaves such runs out of its summary and exits 1 too.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKLOADS = ("big-register", "many-docs", "long-trail")
HASH_SEED = "0"


def default_seconds() -> float:
    """``run_seconds`` from ``BENCHMARK.json``, the one place the run length is set."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="time given to the read rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="run each workload this many times, seeds 1..N")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = default_seconds()
    return args


def run_once(args: argparse.Namespace) -> int:
    # Pin the hash seed for the interpreter itself: re-exec once with it set.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import auditflow
    except ImportError as exc:
        print(f"perfbench: cannot import auditflow from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(auditflow.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: auditflow comes from {auditflow.__file__}, not from this checkout", file=sys.stderr)
        return 2

    import audits
    import script
    import spans

    os.environ["AUDITFLOW_NOW"] = audits.NOW
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    bench = script.Script(args.workload, args.seed, audits.SHAPES[args.workload], workdir, tracer)
    try:
        bench.run(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if bench.failed or bench.mismatches:
        # Figures from the operations that went right would hide the ones that did not.
        print(f"perfbench: {bench.failed} of {bench.attempted} operations failed, "
              f"{bench.mismatches} with a wrong output; no result", file=sys.stderr)
        return 1
    if tracer is None:
        values = bench.end_to_end()
        units = script.END_TO_END_UNITS
    else:
        values = bench.per_layer()
        units = {m: "ms" if m.endswith("_ms") else "count" for m in values}
        tracer.dump(WORK / f"spans-{args.workload}.jsonl", bench.ops)
        # The traced run's own command latencies, to set against an untraced run.
        print("traced end-to-end: " + json.dumps(bench.end_to_end()), file=sys.stderr)
    result = {
        "correct": bench.mismatches == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def quartile_spread(values: list[float]) -> tuple[float, float]:
    """Median and (Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def run_many(args: argparse.Namespace) -> int:
    """Fresh-process runs, one at a time, and a per-metric summary."""
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    seeds = range(1, max(args.repeat, 1) + 1)
    status = 0
    for workload in workloads:
        results = []
        for seed in seeds:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            started = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            wall = time.monotonic() - started
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
            if proc.returncode != 0 or not result.get("correct") or result.get("failed"):
                # A run with a failed operation or a wrong output gives no figures.
                print(f"{workload} seed {seed}: exit {proc.returncode}, result {result}\n{proc.stderr}",
                      file=sys.stderr)
                status = 1
                continue
            traced = [line for line in proc.stderr.splitlines() if line.startswith("traced end-to-end: ")]
            if traced:
                result["traced"] = json.loads(traced[-1].split(": ", 1)[1])
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} wall={wall:.1f}s", flush=True)
        if not results:
            continue
        print(f"== {workload}: {len(results)} run(s)")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median, spread = quartile_spread(values)
            print(f"{name:32s} {median:12.4f} {first['unit']:6s} spread {spread:.4f}  "
                  + " ".join(f"{v:.4g}" for v in values))
        if "traced" in results[0]:
            for name in results[0]["traced"]:
                median, spread = quartile_spread([r["traced"][name] for r in results])
                print(f"traced {name:25s} {median:12.4f}        spread {spread:.4f}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None or args.repeat:
        return run_many(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
