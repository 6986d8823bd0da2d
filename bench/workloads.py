"""What one item of each workload does, and how its result is checked.

Every `run_*` function takes (item, item_id, tracer) and returns what the
matching checker needs.  With a tracer, each call into covgraph gets its
own span named <module>.<function>[.<variant>]; with None it is a plain
call.  Checkers run outside the timed region.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import product

from covgraph import (
    DEFAULT_TOL,
    CITriple,
    GraphKind,
    MixedGraph,
    all_dependencies,
    canonical_triples,
    ci_independent,
    ci_test,
    conc_dependence_witness,
    concentration_graph_of,
    cov_dependence_witness,
    cov_dependent,
    covariance_graph_of,
    explain,
    faithfulness_report,
    latent_dag,
    parse_graph,
    replay_provenance,
    sample_markov_gaussian,
    saturate,
    sep,
    submasks,
    trial_seed,
    verify_forest_faithfulness,
    verify_latent_equivalence,
)
from covgraph.smallgraphs import all_forests, all_ugs, connected_ugs, random_ug
from covgraph.verify import corollaries_sweep, forest_sweep, latent_sweep, theorems_sweep
from oracles import all_simple_paths

import inputs
import reference

KINDS = {"covariance": GraphKind.COVARIANCE, "concentration": GraphKind.CONCENTRATION,
         "dag": GraphKind.DAG, "cg": GraphKind.CG}
# Dependence verdicts are also compared with brute-force path enumeration
# when the allowed node set is at most this large.
BRUTE_FORCE_MAX = 8


def call(tracer, name, item_id, fn, *args):
    if tracer is None:
        return fn(*args)
    with tracer.span(name, item_id):
        return fn(*args)


def ug_text(g: MixedGraph) -> str:
    return "\n".join([f"node {lab}" for lab in g.labels]
                     + [f"{g.labels[i]} -- {g.labels[j]}" for i, j in g.undirected])


# ---------------------------------------------------------------- query

def run_query(q: inputs.Query, item_id: int, tracer):
    g = call(tracer, "graphs.parse_graph", item_id, parse_graph, q.text)
    if q.reading in KINDS:
        return g, call(tracer, "separation.ci_independent." + q.reading, item_id,
                       ci_independent, g, KINDS[q.reading], q.x, q.y, q.z)
    if q.reading == "cov_dep":
        fn, name = cov_dependence_witness, "connection.cov_dependent"
    else:
        fn, name = conc_dependence_witness, "connection.conc_dependent"
    if q.k:
        name = f"connection.dead_end.k{q.k}"
    return g, call(tracer, name, item_id, fn, g, q.x, q.y, q.z)


class QueryChecker:
    """Verdicts against `reference`; a witness must pass PathWitness.check,
    stay inside the allowed nodes and be the reference's unique path."""

    def __init__(self) -> None:
        self.graphs: dict[str, reference.RefGraph] = {}

    def graph(self, text: str) -> reference.RefGraph:
        rg = self.graphs.get(text)
        if rg is None:
            if len(self.graphs) >= 64:
                self.graphs.clear()
            rg = self.graphs[text] = reference.RefGraph(text)
        return rg

    def __call__(self, q: inputs.Query, item_id: int, outcome) -> bool:
        g, result = outcome
        rg = self.graph(q.text)
        if q.reading in KINDS:
            return result == reference.independent(rg, q.reading, q.x, q.y, q.z)
        paths = reference.dependence_paths(rg, q.reading, q.x, q.y, q.z)
        for a in reference.members(q.x):
            for b in reference.members(q.y):
                allowed = reference.allowed_set(rg, q.reading, q.x, q.y, q.z, a, b)
                if len(allowed) <= BRUTE_FORCE_MAX:
                    unique = len(all_simple_paths(rg.und, a, b, allowed)) == 1
                    if unique != ((a, b) in paths):
                        return False
        if result is None:
            return not paths
        try:
            result.check(g)
        except ValueError:
            return False
        allowed = reference.allowed_set(rg, q.reading, q.x, q.y, q.z, result.a, result.b)
        return set(result.nodes) <= allowed and paths.get((result.a, result.b)) == result.nodes


# -------------------------------------------------------------- closure

def closure_items(seed: int):
    for n, edges in inputs.closure_graphs(seed):
        yield MixedGraph(n, tuple(f"v{i}" for i in range(n)), frozenset(edges))


def run_closure(g: MixedGraph, item_id: int, tracer):
    state = call(tracer, "closure.saturate", item_id, saturate, g)
    trees = [call(tracer, "closure.explain", item_id, explain, state, t)
             for t in state.sorted_statements()]
    replay = call(tracer, "closure.replay_provenance", item_id, replay_provenance, state)
    return state, trees, replay


def reference_dependencies(g: MixedGraph) -> set[CITriple]:
    """Covariance dependencies of a small UG from the bridge reference,
    over every split of the nodes into X, Y, Z and the rest."""
    rg = reference.RefGraph(ug_text(g))
    out = set()
    for assignment in product(range(4), repeat=g.n):
        sets = [0, 0, 0, 0]
        for v, part in enumerate(assignment):
            sets[part] |= 1 << v
        x, y, z, _ = sets
        if x and y and x < y and reference.dependence_paths(rg, "cov_dep", x, y, z):
            out.add(CITriple(x, y, z))
    return out


# The bridge reference re-derives all 1,351 triples of a 6-node graph,
# which costs about as much as the item itself; every REFERENCE_EVERY-th
# graph gets it, so that checking stays well inside the run's time limit.
REFERENCE_EVERY = 4


class ClosureChecker:
    """The paper's theorem per graph: the closure equals the single-path
    criterion, and replay finds every derivation sound.  Every
    REFERENCE_EVERY-th graph the criterion must also match the bridge
    reference.  Also counts fixpoint sweeps and first derivations per rule."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.sweeps: list[int] = []
        self.first_rule: Counter[str] = Counter()

    def __call__(self, g: MixedGraph, item_id: int, outcome) -> bool:
        state, trees, replay = outcome
        self.sweeps.append(state.sweeps)
        self.first_rule.update(d.rule for d in state.provenance.values())
        certified = set(call(self.tracer, "connection.all_dependencies", item_id,
                             all_dependencies, g, GraphKind.COVARIANCE))
        return (state.established == certified
                and (item_id % REFERENCE_EVERY != 0
                     or certified == reference_dependencies(g))
                and replay.passed
                and len(trees) == len(certified) and all(trees))


# ---------------------------------------------------------------- sweep

# Labeled forests (OEIS A001858) and connected labeled graphs (A001187)
# on n = 0..5 nodes: the graph counts the sweeps must report.
FORESTS = (1, 1, 2, 7, 38, 291)
CONNECTED = (1, 1, 1, 4, 38, 728)


def triples(n: int) -> int:
    """Canonical (X, Y, Z) on n nodes: ordered pairs of nonempty disjoint
    X, Y with any disjoint Z, halved for symmetry."""
    return (4 ** n - 2 * 3 ** n + 2 ** n) // 2


def labeled_graphs(n: int) -> int:
    return 2 ** (n * (n - 1) // 2)


def expected_sweep(r: inputs.SweepRound) -> dict:
    """Counts each sweep of round `r` must report, from combinatorics."""
    upto = lambda m: range(1, m + 1)  # noqa: E731
    return {
        "theorems": {"exhaustive_graphs": sum(labeled_graphs(n)
                                              for n in upto(min(r.theorems_n, 4))),
                     "random_graphs": r.theorems_random * max(r.theorems_n - 4, 0)},
        "latent": {"graphs": sum(labeled_graphs(n) for n in upto(r.latent_n)),
                   "triples_checked": sum(labeled_graphs(n) * triples(n)
                                          for n in upto(r.latent_n))},
        "forest": {"graphs": sum(FORESTS[n] for n in upto(r.forest_n)),
                   "triples_checked": sum(FORESTS[n] * triples(n) for n in upto(r.forest_n))},
        "corollaries": {"graphs": sum(CONNECTED[n] for n in upto(r.corollaries_n)),
                        "total_trials": r.corollaries_trials * sum(
                            CONNECTED[n] for n in upto(r.corollaries_n))},
    }


def sweep_units(r: inputs.SweepRound) -> int:
    """Triples and trials one round checks.  The theorems sweep compares
    the closure with the criterion on every canonical triple of a graph."""
    exp = expected_sweep(r)
    theorem_triples = sum(labeled_graphs(n) * triples(n)
                          for n in range(1, min(r.theorems_n, 4) + 1))
    theorem_triples += exp["theorems"]["random_graphs"] * triples(r.theorems_n)
    return (theorem_triples + exp["latent"]["triples_checked"]
            + exp["forest"]["triples_checked"] + exp["corollaries"]["total_trials"])


def run_sweep_round(r: inputs.SweepRound, item_id: int, tracer):
    return {
        "theorems": call(tracer, "verify.theorems_sweep", item_id, theorems_sweep,
                         r.theorems_n, r.theorems_random, r.seed),
        "latent": call(tracer, "verify.latent_sweep", item_id, latent_sweep, r.latent_n),
        "forest": call(tracer, "verify.forest_sweep", item_id, forest_sweep, r.forest_n),
        "corollaries": call(tracer, "verify.corollaries_sweep", item_id, corollaries_sweep,
                            r.corollaries_n, r.corollaries_trials, r.seed),
    }


def check_sweep_round(r: inputs.SweepRound, item_id: int, results: dict) -> bool:
    """Every sweep passed and reports exactly the expected counts.
    Tolerance artifacts are counted by the sweep, not failed."""
    return all(results[scope]["passed"]
               and all(results[scope][key] == value for key, value in counts.items())
               for scope, counts in expected_sweep(r).items())


def sweep_replay_items(r: inputs.SweepRound, tracer) -> list[tuple]:
    """(scope, graph, seed) for the theorems, latent, forest and
    corollaries graphs of round `r`, in harness order.  Enumerating them
    is timed as the smallgraphs layer."""
    def graphs(gen, n_max):
        return [g for n in range(1, n_max + 1)
                for g in call(tracer, "smallgraphs.enumerate", -1, list, gen(n))]

    items = [("theorems", g, None) for g in graphs(all_ugs, min(r.theorems_n, 4))]
    # theorems_sweep draws its random graphs from Random(seed) this way.
    rng = random.Random(r.seed)
    items += [("theorems", random_ug(n, rng), None)
              for n in range(5, r.theorems_n + 1) for _ in range(r.theorems_random)]
    items += [("latent", g, None) for g in graphs(all_ugs, r.latent_n)]
    items += [("forest", g, None) for g in graphs(all_forests, r.forest_n)]
    # corollaries_sweep seeds connected graph number `index` this way.
    items += [("gaussian", g, r.seed + 7919 * index)
              for index, g in enumerate(graphs(connected_ugs, r.corollaries_n))]
    return items


def run_sweep_replay(item: tuple, item_id: int, tracer, trials: int):
    """One graph of the reduced sweeps through the per-graph public
    functions the harness uses, plus single criterion calls per triple."""
    scope, g, base = item
    if scope == "theorems":
        state = call(tracer, "closure.saturate.sweep", item_id, saturate, g)
        return state, call(tracer, "connection.all_dependencies.sweep", item_id,
                           all_dependencies, g, GraphKind.COVARIANCE)
    if scope == "latent":
        h = call(tracer, "transforms.latent_dag", item_id, latent_dag, g)
        report = call(tracer, "transforms.verify_latent_equivalence", item_id,
                      verify_latent_equivalence, g, g.n)
        verdicts = [(
            t,
            call(tracer, "separation.ci_independent.small", item_id, ci_independent,
                 g, GraphKind.COVARIANCE, t.x, t.y, t.z),
            call(tracer, "separation.sep.latent", item_id, sep, h.dag, t.x, t.y, t.z),
            call(tracer, "connection.cov_dependent.small", item_id, cov_dependent,
                 g, t.x, t.y, t.z),
        ) for t in canonical_triples(g.n)]
        return report, verdicts
    if scope == "forest":
        return call(tracer, "transforms.verify_forest_faithfulness", item_id,
                    verify_forest_faithfulness, g, g.n), None
    report = call(tracer, "gaussian.faithfulness_report", item_id,
                  faithfulness_report, g, trials, base)
    tests = []
    for t in range(trials):
        model = call(tracer, "gaussian.sample_markov_gaussian", item_id,
                     sample_markov_gaussian, g, trial_seed(base, t))
        call(tracer, "gaussian.covariance_graph_of", item_id,
             covariance_graph_of, model, DEFAULT_TOL, g.labels)
        call(tracer, "gaussian.concentration_graph_of", item_id,
             concentration_graph_of, model, DEFAULT_TOL, g.labels)
        if t == 0:
            for i in range(g.n):
                for j in range(i + 1, g.n):
                    for k in submasks(g.full_mask & ~(1 << i) & ~(1 << j)):
                        tests.append((i, j, k, call(tracer, "gaussian.ci_test", item_id,
                                                    ci_test, model, i, j, k)))
    return report, tests


class SweepReplayChecker:
    """Harness reports must pass; single verdicts must match the reference;
    faithful trials are summed to compare with the corollaries sweep."""

    def __init__(self) -> None:
        self.faithful_trials = 0

    def __call__(self, item: tuple, item_id: int, outcome) -> bool:
        scope, g, _ = item
        report, detail = outcome
        if scope == "theorems":
            return report.established == set(detail)
        if scope == "forest":
            return report.passed
        rg = reference.RefGraph(ug_text(g))
        if scope == "latent":
            return report.passed and all(
                ind == on_dag == reference.independent(rg, "covariance", t.x, t.y, t.z)
                and dep == bool(reference.dependence_paths(rg, "cov_dep", t.x, t.y, t.z))
                for t, ind, on_dag, dep in detail)
        self.faithful_trials += report.faithful_trials
        # On a faithful first trial every determinant verdict must match
        # the graph criterion.
        if report.mismatches_per_trial[0] == 0:
            return all(verdict == reference.independent(rg, "covariance", 1 << i, 1 << j, k)
                       for i, j, k, verdict in detail)
        return True
