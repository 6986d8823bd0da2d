"""covgraph benchmark.

    python3 bench/run.py --workload query|closure|sweep --seed N --seconds S --trace 0|1

Run from the root of a source checkout; covgraph is imported from src/.
Child processes run one at a time:

* --trace 0: a worker process runs the workload for S seconds of
  scaled CPU time and reports items_per_s, latency_p50_ms, latency_tail_ms,
  success_rate and its own peak_rss_mb.  Before and after it, COLD_STARTS
  fresh interpreters run `python -m covgraph.cli` on the workload's first
  item; setup_s is the median of their CPU times (user plus system).
  Times are CPU times throughout, so that time spent waiting for a CPU on
  a shared machine does not count, and each is scaled to the reference
  speed by a calibration sample taken next to it (see speed.py).
* --trace 1: a worker runs the traced tour and reports per-layer numbers.

Metrics are printed one per line, then the last line is one JSON object
with the keys correct, attempted, failed and metrics.  Spans of a traced
run are written to .bench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs
import reference
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
COLD_STARTS = 10
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "peak_rss_mb": "MB", "success_rate": "ratio"}
# What items_per_s counts, and what one latency sample covers.
ITEMS = {"query": "queries", "closure": "graphs", "sweep": "triples and trials"}
PER = {"query": "query", "closure": "graph", "sweep": "verification round"}


class BenchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def _labels(mask: int) -> str:
    return ",".join(f"v{i}" for i in range(mask.bit_length()) if mask >> i & 1)


def first_item_cli(workload: str, seed: int) -> tuple[list[str], int]:
    """covgraph CLI arguments for the workload's first item (a `dep`
    query, a `closure` graph, a `verify` sweep) and the exit code it must
    return."""
    graph_file = WORK / f"first-{workload}-{seed}.g"
    if workload == "query":
        q = next(q for q in inputs.random_queries(seed) if q.reading == "cov_dep")
        graph_file.write_text(q.text, encoding="utf-8")
        argv = ["dep", "-g", str(graph_file), "-X", _labels(q.x), "-Y", _labels(q.y)]
        if q.z:
            argv += ["-Z", _labels(q.z)]
        dependent = reference.dependence_paths(reference.RefGraph(q.text), q.reading,
                                               q.x, q.y, q.z)
        return argv, 0 if dependent else 1
    if workload == "closure":
        n, edges = next(inputs.closure_graphs(seed))
        lines = [f"node v{i}" for i in range(n)] + [f"v{a} -- v{b}" for a, b in edges]
        graph_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return ["closure", "-g", str(graph_file)], 0
    r = next(inputs.sweep_rounds(seed))
    return ["verify", "--scope", "theorems", "--n-max", str(r.theorems_n),
            "--trials", str(r.theorems_random), "--seed", str(r.seed)], 0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cold_starts(argv: list[str], expected_exit: int, count: int) -> list[float]:
    """CPU times of `count` fresh `python -m covgraph.cli` processes, run
    one after the other, each scaled by the mean of the calibration
    samples taken right before and right after it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "covgraph.cli", *argv]
    times = []
    before = speed.factor()
    for _ in range(count):
        t0 = children_cpu_s()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60)
        cpu_s = children_cpu_s() - t0
        after = speed.factor()
        times.append(cpu_s * (before + after) / 2)
        before = after
        if proc.returncode != expected_exit or not proc.stdout.strip():
            raise BenchError(f"{' '.join(argv)} exited {proc.returncode}, expected "
                             f"{expected_exit}: {proc.stderr.strip()[-500:]}")
    return times


def run_worker(args) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="covgraph benchmark")
    parser.add_argument("--workload", required=True, choices=("query", "closure", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    for needed in (ROOT / "src" / "covgraph" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a covgraph "
                  f"source checkout", file=sys.stderr)
            return 2
    WORK.mkdir(exist_ok=True)
    started = perf_counter()
    print(f"machine: cpus={os.cpu_count()} python={platform.python_version()} "
          f"({platform.python_implementation()}, {platform.machine()})")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    try:
        if args.trace:
            result = run_worker(args)
            metrics = {name: {"value": value, "unit": layer_unit(name)}
                       for name, value in result["metrics"].items()}
            for name, metric in metrics.items():
                print(f"{name} = {metric['value']:.6g} {metric['unit']}")
            print(f"spans: {result['detail']['spans']}, tracing overhead measured on "
                  f"{result['detail']['overhead_items']} {args.workload} items")
        else:
            argv, expected_exit = first_item_cli(args.workload, args.seed)
            # One untimed start leaves the bytecode cache as an installed
            # package has it; the timed starts are split around the worker
            # so that their median spans the whole run.
            cold_starts(argv, expected_exit, 1)
            setups = cold_starts(argv, expected_exit, COLD_STARTS // 2)
            result = run_worker(args)
            setups += cold_starts(argv, expected_exit, COLD_STARTS - COLD_STARTS // 2)
            values = dict(result["metrics"], setup_s=statistics.median(setups))
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
            d = result["detail"]
            per = PER[args.workload]
            print(f"setup_s = {values['setup_s']:.4f} s (CPU time, median of "
                  f"{len(setups)} cold starts of covgraph {argv[0]})")
            print(f"items_per_s = {values['items_per_s']:.6g} 1/s ({d['units']} "
                  f"{ITEMS[args.workload]} in {d['scaled_s']:.2f} s of scaled CPU time; "
                  f"{d['measured_s']:.2f} s of CPU time measured, "
                  f"{perf_counter() - started:.2f} s wall for the whole run)")
            print(f"latency_p50_ms = {values['latency_p50_ms']:.4f} ms (per {per})")
            print(f"latency_tail_ms = {values['latency_tail_ms']:.4f} ms "
                  f"(p{d['tail_percentile']:.2f} of {d['samples']} samples, per {per})")
            print(f"error_rate = {1 - values['success_rate']:.6f} ratio (of "
                  f"{result['attempted']} items: {d['timeouts']} deadline misses, "
                  f"{d['raised']} raised, {d['wrong']} wrong)")
            print(f"success_rate = {values['success_rate']:.6f} ratio (1 - error_rate)")
            if d["deadline_ms"]:
                print(f"deadline: {d['deadline_ms']:g} ms at the reference speed per "
                      f"query, parse included")
            print(f"peak_rss_mb = {values['peak_rss_mb']:.3f} MB (worker process)")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
