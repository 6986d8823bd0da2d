"""Runs one workload in this process, one thread, as a closed loop: each
item starts when the previous one has finished and been checked.

    python3 bench/worker.py --workload query --seed 1 --seconds 20 --trace 0

Prints one JSON line.  With --trace 0 it times the workload's own stream
for `--seconds` of scaled CPU time (checks run between items, outside the
timed region).  An item's time is the CPU time of this thread while it
runs, scaled to the reference speed (see speed.py): on an idle machine CPU
time equals wall time, and on a shared one it leaves out the time the
worker waited for a CPU.  With --trace 1 it runs a fixed traced tour over
all three workloads, with a span around every call into covgraph, and
reports per-layer numbers plus the tracing overhead on the chosen
workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import sys
import traceback
from array import array
from itertools import islice
from pathlib import Path
from statistics import fmean, median
from time import thread_time

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import inputs  # noqa: E402
import reference  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer, tail  # noqa: E402

# Budget per one-off query at the reference speed, parse included: about
# 60 times the median query.  It sits between the k=7 rung (about 7 ms)
# and the k=8 rung (40-50 ms) of the dead-end ladder, a factor of 2 or
# more from each.
DEADLINE_S = 0.020
# Items between two calibration samples, which cost about 4 ms each: 200
# queries or one closure graph is about 0.1 s of work, one sweep round
# about 0.4 s.  A count, not a time, keeps the sequence of allocations the
# same from run to run, and with it the garbage collector's timing and the
# peak RSS.
SAMPLE_EVERY = {"query": 200, "closure": 1, "sweep": 1, "sweep replay": 20}

# Fixed here, so the per-layer metric names stay as BENCHMARK.json lists them.
RULES = ("base", "symmetry", "decomposition", "weak-union", "contraction1",
         "contraction2", "intersection", "weak-transitivity1",
         "weak-transitivity2", "composition")
MODULES = ("graphs", "separation", "connection", "closure", "transforms",
           "gaussian", "verify", "smallgraphs", "bench")

# Traced tour sizes: fixed, so the counts it reports repeat run to run.
TRACE_QUERIES = 1500
TRACE_CLOSURE_GRAPHS = 24


class DeadlineExceeded(Exception):
    pass


class Deadline:
    """Per-call time limit at the reference speed, converted to this
    host's speed with the current calibration factor and enforced with
    ITIMER_REAL.  The kernel checks CPU-time timers only at its clock tick,
    which would make the cut-off jitter by several milliseconds; a real-time
    timer is precise, and a call that waits for a CPU is cut off early,
    never late."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame) -> None:
        # A signal that lands after the call returned is ignored.
        if self.armed:
            self.armed = False
            raise DeadlineExceeded

    def run(self, factor: float, fn, *args):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds / factor)
        try:
            return fn(*args)
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


class Tally:
    """Outcome of a stream of items: per-item latency in seconds, scaled to
    the reference speed (kept in a flat array so that the bookkeeping
    barely shows in peak RSS), the CPU time measured before scaling, work
    units completed, and failures by cause.  An item that raised or gave a
    wrong result failed; one that missed its deadline was cut off, and is
    counted apart from the failures."""

    def __init__(self) -> None:
        self.latencies = array("d")
        self.scaled = 0  # latencies[:scaled] are scaled already
        self.scaled_s = 0.0  # their sum
        self.cut_factor: dict[int, float] = {}  # deadline misses not yet scaled
        self.measured_s = 0.0
        self.failed_ids: set[int] = set()
        self.units = 0
        self.timeouts = 0
        self.raised = 0
        self.wrong = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.raised + self.wrong

    @property
    def success_rate(self) -> float:
        """Share of items that finished in time with a correct result."""
        return 1 - (self.failed + self.timeouts) / self.attempted

    def rescale(self, factor: float) -> None:
        """Scale the latencies timed since the last call by `factor`.  An
        item cut off at its deadline is scaled by the factor the deadline
        was converted with, so that it reads as the deadline."""
        for i in range(self.scaled, len(self.latencies)):
            self.latencies[i] *= self.cut_factor.pop(i, factor)
            self.scaled_s += self.latencies[i]
        self.scaled = len(self.latencies)


def run_items(items, run, check, sample_every: int, units=lambda item: 1, tracer=None,
              deadline=None, seconds=None) -> Tally:
    """Run items one after the other until the stream ends or `seconds`
    of scaled CPU time have passed, so that a run does about the same work
    however fast the host is.  Only the call to `run` is timed.  A
    calibration sample is taken after every `sample_every` items, and the
    items timed in between are scaled by the mean of the samples on either
    side.  A deadline is converted with the latest sample.  A deadline
    miss, an exception or a failed check leaves the item out of the units
    completed and puts it in `failed_ids`."""
    tally = Tally()
    factor = speed.factor()
    for item_id, item in enumerate(items):
        ok = False
        t0 = thread_time()
        try:
            if tracer is not None:
                with tracer.span("bench.item", item_id):
                    result = (deadline.run(factor, run, item, item_id, tracer)
                              if deadline else run(item, item_id, tracer))
            else:
                result = (deadline.run(factor, run, item, item_id, None) if deadline
                          else run(item, item_id, None))
            ok = True
        except DeadlineExceeded:
            tally.timeouts += 1
            tally.cut_factor[tally.attempted] = factor
        except Exception:  # reported and counted, the loop goes on
            tally.raised += 1
            traceback.print_exc(limit=4, file=sys.stderr)
        elapsed = thread_time() - t0
        tally.measured_s += elapsed
        tally.latencies.append(elapsed)
        if ok and check(item, item_id, result):
            tally.units += units(item)
        else:
            tally.failed_ids.add(item_id)
            if ok:
                tally.wrong += 1
                print(f"wrong result on item {item_id}: {item!r:.300}", file=sys.stderr)
        # Dropped before the next item runs, so that peak RSS covers one
        # item's memory, not two.
        result = None
        if tally.attempted % sample_every == 0:
            after = speed.factor()
            tally.rescale((factor + after) / 2)
            factor = after
            if seconds is not None and tally.scaled_s >= seconds:
                break
    tally.rescale((factor + speed.factor()) / 2)
    return tally


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    if workload == "query":
        tally = run_items(inputs.query_stream(seed), wl.run_query, wl.QueryChecker(),
                          SAMPLE_EVERY["query"], deadline=Deadline(DEADLINE_S), seconds=seconds)
    elif workload == "closure":
        tally = run_items(wl.closure_items(seed), wl.run_closure, wl.ClosureChecker(),
                          SAMPLE_EVERY["closure"], seconds=seconds)
    else:
        tally = run_items(inputs.sweep_rounds(seed), wl.run_sweep_round,
                          wl.check_sweep_round, SAMPLE_EVERY["sweep"], wl.sweep_units,
                          seconds=seconds)
    tail_s, tail_pct, samples = tail(tally.latencies)
    return {
        "correct": tally.wrong == 0 and tally.raised == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            "items_per_s": tally.units / tally.scaled_s,
            "latency_p50_ms": median(tally.latencies) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": tally.success_rate,
        },
        "detail": {
            "measured_s": tally.measured_s,
            "scaled_s": tally.scaled_s,
            "units": tally.units,
            "tail_percentile": tail_pct,
            "samples": samples,
            "timeouts": tally.timeouts,
            "raised": tally.raised,
            "wrong": tally.wrong,
            "deadline_ms": DEADLINE_S * 1e3 if workload == "query" else None,
        },
    }


def traced_tour(workload: str, seed: int) -> dict:
    """Fixed items of all three workloads under spans.  The chosen
    workload's items also run untraced first, which gives the overhead."""
    tracer = Tracer()
    deadline = Deadline(DEADLINE_S)
    round0 = next(inputs.sweep_rounds(seed))
    query_items = list(islice(inputs.random_queries(seed), TRACE_QUERIES))
    query_items += inputs.ladder_queries()
    closure_graphs = list(islice(wl.closure_items(seed), TRACE_CLOSURE_GRAPHS))
    replay_items = wl.sweep_replay_items(round0, tracer)

    def run_part(name, tr, checker):
        if name == "query":
            return run_items(query_items, wl.run_query, checker, SAMPLE_EVERY["query"],
                             tracer=tr, deadline=deadline)
        if name == "closure":
            return run_items(closure_graphs, wl.run_closure, checker,
                             SAMPLE_EVERY["closure"], tracer=tr)
        return run_items(
            replay_items,
            lambda s, i, t: wl.run_sweep_replay(s, i, t, round0.corollaries_trials),
            checker, SAMPLE_EVERY["sweep replay"], tracer=tr)

    # The second untraced pass is the one compared: the first fills the
    # caches covgraph builds on first use.
    fresh = {"query": wl.QueryChecker, "closure": wl.ClosureChecker,
             "sweep": wl.SweepReplayChecker}
    warmup = run_part(workload, None, fresh[workload]())
    untraced = run_part(workload, None, fresh[workload]())
    checkers = {"query": wl.QueryChecker(), "closure": wl.ClosureChecker(tracer),
                "sweep": wl.SweepReplayChecker()}
    tallies = {name: run_part(name, tracer, checkers[name]) for name in checkers}
    with tracer.span("bench.item", 0):
        harness = wl.run_sweep_round(round0, 0, tracer)
    harness_ok = (wl.check_sweep_round(round0, 0, harness)
                  and harness["corollaries"]["faithful_trials"]
                  == checkers["sweep"].faithful_trials)

    traced = tallies[workload]
    both = [i for i in range(untraced.attempted)
            if i not in traced.failed_ids and i not in untraced.failed_ids]
    overhead = (sum(traced.latencies[i] for i in both)
                / sum(untraced.latencies[i] for i in both) - 1)

    def med(name, scale):
        return median(tracer.durations(name)) * scale

    m = {"graphs.parse_graph_us": med("graphs.parse_graph", 1e6)}
    for reading in ("covariance", "concentration", "dag", "cg", "small"):
        m[f"separation.ci_independent.{reading}_us"] = med(
            f"separation.ci_independent.{reading}", 1e6)
    m["separation.sep.latent_us"] = med("separation.sep.latent", 1e6)

    for dep in ("cov", "conc"):
        durations = tracer.durations(f"connection.{dep}_dependent")
        m[f"connection.{dep}_dependent_us"] = median(durations) * 1e6
        m[f"connection.{dep}_dependent_tail_ms"] = tail(durations)[0] * 1e3
    for k in inputs.LADDER:
        m[f"connection.dead_end_ms.k{k}"] = sum(
            tracer.durations(f"connection.dead_end.k{k}")) * 1e3
    m["connection.timeouts"] = tallies["query"].timeouts
    # Share of the random dependence queries the reference calls
    # dependent, timed-out ones included.
    graph = checkers["query"].graph
    dep_queries = [q for q in query_items if not q.k and q.reading not in wl.KINDS]
    m["connection.dependent_share"] = sum(
        bool(reference.dependence_paths(graph(q.text), q.reading, q.x, q.y, q.z))
        for q in dep_queries) / len(dep_queries)
    m["connection.cov_dependent.small_us"] = med("connection.cov_dependent.small", 1e6)
    m["connection.all_dependencies_ms"] = med("connection.all_dependencies", 1e3)

    closure = checkers["closure"]
    m["closure.saturate_ms"] = med("closure.saturate", 1e3)
    m["closure.saturate_tail_ms"] = tail(tracer.durations("closure.saturate"))[0] * 1e3
    m["closure.explain_us"] = med("closure.explain", 1e6)
    m["closure.replay_provenance_ms"] = med("closure.replay_provenance", 1e3)
    m["closure.sweeps_per_graph"] = fmean(closure.sweeps)
    m["closure.statements"] = sum(closure.first_rule.values())
    for rule in RULES:
        m[f"closure.first_rule.{rule}"] = closure.first_rule[rule]

    m["transforms.latent_dag_us"] = med("transforms.latent_dag", 1e6)
    m["transforms.verify_latent_equivalence_ms"] = med(
        "transforms.verify_latent_equivalence", 1e3)
    m["transforms.verify_forest_faithfulness_ms"] = med(
        "transforms.verify_forest_faithfulness", 1e3)

    for name in ("sample_markov_gaussian", "ci_test", "covariance_graph_of",
                 "concentration_graph_of"):
        m[f"gaussian.{name}_us"] = med(f"gaussian.{name}", 1e6)
    m["gaussian.faithfulness_report_ms"] = med("gaussian.faithfulness_report", 1e3)
    m["gaussian.tolerance_artifacts"] = harness["corollaries"]["tolerance_artifact_trials"]

    for scope in ("theorems", "latent", "forest", "corollaries"):
        m[f"verify.{scope}_sweep_s"] = sum(tracer.durations(f"verify.{scope}_sweep"))
    m["verify.triples_checked"] = (harness["latent"]["triples_checked"]
                                   + harness["forest"]["triples_checked"])
    m["verify.trials"] = harness["corollaries"]["total_trials"]
    m["smallgraphs.enumerate_ms"] = sum(tracer.durations("smallgraphs.enumerate")) * 1e3
    m["bench.trace_overhead_pct"] = overhead * 100
    self_times = tracer.self_times()
    for module in MODULES:
        m[f"{module}.self_ms"] = self_times.get(module, 0.0) * 1e3

    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    tracer.write(work / f"spans-{workload}-{seed}.json", workload=workload, seed=seed,
                 cpus=os.cpu_count(), python=platform.python_version())
    everything = [warmup, untraced, *tallies.values()]
    return {
        "correct": harness_ok and all(t.wrong == 0 and t.raised == 0 for t in everything),
        "attempted": sum(t.attempted for t in everything) + 1,
        "failed": sum(t.failed for t in everything) + (not harness_ok),
        "metrics": m,
        "detail": {"spans": len(tracer.spans), "overhead_items": len(both),
                   "timeouts": sum(t.timeouts for t in everything)},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("query", "closure", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.trace:
        result = traced_tour(args.workload, args.seed)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
