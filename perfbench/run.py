#!/usr/bin/env python3
"""Benchmark subhop end to end (index -> load -> eval) and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload reads-50k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. ``--workload all`` runs every workload, each in
its own process, and prints one table. ``--smoke`` shrinks every workload
to a size that runs in seconds. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code
is non-zero when a correctness gate fails. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".perfbench_runs"
BLAS_THREADS = 1


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "subhop" / "__init__.py").is_file():
        print(f"error: subhop sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS  # imports no numpy

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)} or all)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    # One BLAS thread, so workers x BLAS threads <= nproc on every workload.
    # Two threads scan faster on a 2-vCPU host, but their speed depends on
    # whether the second vCPU is free, which doubled the run-to-run spread.
    # Must be set before numpy loads BLAS.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)

    from perfbench import harness

    workdir = RUNS_DIR / f"{workload.name}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record = harness.run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                      workdir)
        record["smoke"] = args.smoke
        record["metadata"] = harness.metadata(args.seed, BLAS_THREADS, ROOT)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        for leftover in ("snapshot", "corpus.jsonl"):
            path = workdir / leftover
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            elif path.exists():
                path.unlink()
    (workdir / "record.json").write_text(json.dumps(record, indent=2) + "\n",
                                         encoding="utf-8")

    print_report(record, harness)
    correct = not record["gates"] and record["failed"] == 0
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in record["per_layer"].items()}
    else:
        metrics = {name: {"value": record["metrics"][name], "unit": unit}
                   for name, (unit, _) in harness.END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


def print_report(record: dict, harness) -> None:
    print(f"# workload {record['workload']} seed {record['seed']} "
          f"traced={record['traced']} smoke={record['smoke']}")
    print("# metadata " + json.dumps(record["metadata"]))
    print("# properties " + json.dumps(record["properties"]))
    print("# samples " + json.dumps(record["samples"]))
    for name, (unit, _) in harness.END_TO_END.items():
        print(f"{name:<28} {record['metrics'][name]:>14.4f} {unit}")
    name, unit = harness.FAILED_FRAC
    print(f"{name:<28} {record['failed_frac']:>14.4f} {unit}")
    if record["traced"]:
        for name, (value, unit) in record["per_layer"].items():
            print(f"{name:<40} {value:>16.4f} {unit}")
        for phase, top in record["top_self_layers"].items():
            shares = ", ".join(f"{layer} {share:.1%}" for layer, share in top)
            print(f"# top self time ({phase}): {shares}")
        if record["traced_missing"]:
            print("# not traced (absent): " + ", ".join(record["traced_missing"]))
    for gate in record["gates"]:
        print(f"# GATE FAILED: {gate}")


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; one table of every metric."""
    sys.path[:0] = [str(ROOT)]
    from perfbench.workloads import WORKLOADS

    results: dict[str, dict | None] = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        for line in lines[:-1]:
            if line.startswith("# GATE") or line.startswith("# top"):
                print(f"[{name}] {line}")
        if proc.returncode != 0:
            status = 1
    first = next((r for r in results.values() if r), None)
    header = f"{'metric':<40} {'unit':<8}" + "".join(f" {w:>14}" for w in results)
    print(header)
    print("-" * len(header))
    for metric, spec in (first["metrics"].items() if first else ()):
        row = f"{metric:<40} {spec['unit']:<8}"
        for result in results.values():
            value = result["metrics"].get(metric, {}).get("value") if result else None
            row += f" {value:>14.4f}" if value is not None else f" {'-':>14}"
        print(row)
    for label, key in (("failed_frac", "failed"), ("correct", "correct")):
        row = f"{label:<40} {'ratio' if key == 'failed' else 'bool':<8}"
        for result in results.values():
            if result is None:
                row += f" {'error':>14}"
            elif key == "failed":
                row += f" {result['failed'] / result['attempted']:>14.4f}"
            else:
                row += f" {str(result['correct']):>14}"
        print(row)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
