"""Per-graph checks of the paper's guarantees, and sweeps running them
over small graphs.

Each sweep returns a JSON-serializable dict with a `passed` flag and
deterministic content for a given seed, so reports are reproducible
byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from operator import ne
from typing import Iterator

from .closure import MAX_CLOSURE_NODES, RULES, ClosureState, saturate
from .gaussian import _minors, sample_markov_gaussian, trial_seed
from .graphs import (GraphKind, MixedGraph, NodeSet, SizeLimitError, bit, components,
                     is_forest, iter_nodes, latent_dag)
from .separation import (_dependence_row, _independence_row, _independent, canonical_triples,
                         ci_independent)
from .smallgraphs import all_forests, all_ugs, connected_ugs, random_ug

MAX_LATENT_NODES = 5
MAX_FOREST_NODES = 6
MAX_FAITHFULNESS_NODES = 6
MIN_FAITHFUL_FRACTION = 0.95  # share of trials that must be faithful
MAX_FAILURES_KEPT = 20


@dataclass
class Report:
    """Outcome of one per-graph check: items checked and violations found."""

    checked: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def replay_provenance(state: ClosureState) -> Report:
    """Re-check every recorded derivation, in the order it was made:
    dependence antecedents must be established and derived earlier, and
    independence antecedents certified by the criterion."""
    g = state.graph
    triples = canonical_triples(g.n)
    row = state.row
    derived = [False] * len(row)
    render = state.render
    report = Report(len(state.order))
    for p in state.order:
        rule, deps, indeps = state.derivations[p]
        if rule not in RULES:
            report.violations.append(f"{render(p)}: unknown rule {rule}")
        for dep in deps:
            if not row[dep]:
                report.violations.append(f"{render(p)}: antecedent {render(dep)} missing")
            elif not derived[dep]:
                report.violations.append(
                    f"{render(p)}: antecedent {render(dep)} not derived before it")
        for ind in indeps:
            t = triples[ind]
            if not ci_independent(g, GraphKind.COVARIANCE, t.x, t.y, t.z):
                report.violations.append(f"{render(p)}: {render(ind)} not graph-certified")
        derived[p] = True
    return report


def verify_latent_equivalence(g: MixedGraph, max_nodes: int = MAX_LATENT_NODES) -> Report:
    """Check that d-separation in the latent DAG agrees with the
    covariance criterion on every canonical triple over original nodes."""
    if g.n > max_nodes:
        raise SizeLimitError(f"equivalence sweep limited to {max_nodes} nodes")
    h = latent_dag(g)
    independent = _independence_row(g, GraphKind.COVARIANCE)
    triples = canonical_triples(g.n)
    moral: dict = {}
    violations = [
        f"{t.render(g.labels)}: criterion={i} latent-dag={not i}"
        for t, i in zip(triples, independent)
        if i != _independent(h.dag, GraphKind.DAG, t.x, t.y, t.z, moral)
    ]
    return Report(len(triples), violations)


def verify_forest_faithfulness(g: MixedGraph, max_nodes: int = MAX_FOREST_NODES) -> Report:
    """On forests the dependence criterion must be the exact complement of
    the independence criterion."""
    if not is_forest(g):
        raise ValueError("graph is not a forest")
    if g.n > max_nodes:
        raise SizeLimitError(f"forest sweep limited to {max_nodes} nodes")
    dependent = _dependence_row(g, GraphKind.COVARIANCE)
    independent = _independence_row(g, GraphKind.COVARIANCE)
    triples = canonical_triples(g.n)
    violations = [
        f"{t.render(g.labels)}: dependent={d} independent={i}"
        for t, d, i in zip(triples, dependent, independent) if d == i
    ]
    return Report(len(triples), violations)


@dataclass
class FaithfulnessReport:
    nodes: int
    trials: int
    mismatches_per_trial: list[int]

    @property
    def faithful_trials(self) -> int:
        return sum(1 for m in self.mismatches_per_trial if m == 0)

    @property
    def faithful_fraction(self) -> float:
        return self.faithful_trials / self.trials

    def to_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "trials": self.trials,
            "faithful_trials": self.faithful_trials,
            "faithful_fraction": self.faithful_fraction,
            "mismatches_per_trial": list(self.mismatches_per_trial),
        }


@lru_cache(maxsize=None)
def _pair_plan(n: int) -> tuple[tuple[int, int, int, NodeSet], ...]:
    """(position, i, j, K) of each pair triple of `canonical_triples(n)`,
    the triples {i} ; {j} ; K whose X and Y are single nodes, in order:
    the entries a model's determinant tests are compared against."""
    return tuple((p, t.x.bit_length() - 1, t.y.bit_length() - 1, t.z)
                 for p, t in enumerate(canonical_triples(n))
                 if t.x.bit_count() == t.y.bit_count() == 1)


def _criterion_pairs(g: MixedGraph) -> list[bool]:
    """The covariance criterion's verdict on each entry of `_pair_plan(g.n)`,
    read from the graph's independence row at the entry's position."""
    row = _independence_row(g, GraphKind.COVARIANCE)
    return [row[p] for p, _i, _j, _k in _pair_plan(g.n)]


def _trials(g: MixedGraph, trials: int, seed: int) -> Iterator[tuple[list[bool], int]]:
    """For each trial, the determinant verdict on every entry of
    `_pair_plan(g.n)`, in plan order, and the number of them that disagree
    with the covariance criterion (`_criterion_pairs`).

    A verdict reads independence exactly when the minor
    det sigma[{i} | K, {j} | K], taken from the trial's `_minors` table,
    is zero."""
    n = g.n
    cells = [(k, i * n + j) for _p, i, j, k in _pair_plan(n)]
    expected = _criterion_pairs(g)
    for t in range(trials):
        minors = _minors(sample_markov_gaussian(g, trial_seed(seed, t)))
        row = [not minors[k][ij] for k, ij in cells]
        yield row, sum(map(ne, row, expected))


def faithfulness_report(
    g: MixedGraph,
    trials: int,
    seed: int = 0,
) -> FaithfulnessReport:
    """Sample `trials` models and compare their exact zero minors against
    the covariance-graph criterion over every (i, j, K) of `_pair_plan`,
    read by position from the graph's covariance independence row."""
    if g.n > MAX_FAITHFULNESS_NODES:
        raise SizeLimitError(
            f"faithfulness sweep limited to {MAX_FAITHFULNESS_NODES} nodes")
    _require_trials(trials)
    mismatches = [bad for _row, bad in _trials(g, trials, seed)]
    return FaithfulnessReport(g.n, trials, mismatches)


def _describe(g: MixedGraph) -> str:
    edges = ",".join(f"{g.labels[i]}-{g.labels[j]}" for i, j in sorted(g.undirected))
    return f"n={g.n} edges=[{edges}]"


def _record(failures: list[str], message: str) -> None:
    if len(failures) < MAX_FAILURES_KEPT:
        failures.append(message)


def _require_n_max(scope: str, n_max: int, limit: int) -> None:
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if n_max > limit:
        raise ValueError(f"{scope} sweep limited to {limit} nodes")


def _require_sample(random_graphs: int, seed: int) -> None:
    if random_graphs < 0:
        raise ValueError("random graph count must not be negative")
    if seed < 0:
        raise ValueError("seed must not be negative")


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError("at least one trial required")


def _closure_report(g: MixedGraph) -> Report:
    """The rule closure of g against the single-path criterion."""
    derived = saturate(g).row
    certified = _dependence_row(g, GraphKind.COVARIANCE)
    triples = canonical_triples(g.n)
    report = Report(len(triples))
    if derived != certified:
        wrong = [(t.render(g.labels), d) for t, d, c in zip(triples, derived, certified) if d != c]
        missing = sorted(text for text, d in wrong if not d)
        extra = sorted(text for text, d in wrong if d)
        report.violations.append(f"missing={missing} extra={extra}")
    return report


def theorems_sweep(n_max: int = 5, random_graphs: int = 200, seed: int = 0) -> dict:
    """Set equality of the rule closure and the single-path criterion:
    exhaustive up to 4 nodes, seeded random sample at 5 and 6."""
    _require_sample(random_graphs, seed)
    rng = random.Random(seed)

    def family(n: int):
        if n <= 4:
            return all_ugs(n)
        return (random_ug(n, rng) for _ in range(random_graphs))

    sweep = _per_graph_sweep("theorems", n_max, MAX_CLOSURE_NODES, family, _closure_report)
    sampled = random_graphs * max(n_max - 4, 0)
    return {
        "scope": "theorems",
        "n_max": n_max,
        "seed": seed,
        "exhaustive_graphs": sweep["graphs"] - sampled,
        "random_graphs": sampled,
        "failures": sweep["failures"],
        "passed": sweep["passed"],
    }


def _per_graph_sweep(scope: str, n_max: int, limit: int, family, check) -> dict:
    """Run `check` (a per-graph Report builder) on every graph of
    `family(n)` for n = 1..n_max and gather the violations."""
    _require_n_max(scope, n_max, limit)
    failures: list[str] = []
    graphs = 0
    triples = 0
    for n in range(1, n_max + 1):
        for g in family(n):
            graphs += 1
            report = check(g)
            triples += report.checked
            for v in report.violations:
                _record(failures, f"{_describe(g)} {v}")
    return {
        "scope": scope,
        "n_max": n_max,
        "graphs": graphs,
        "triples_checked": triples,
        "failures": failures,
        "passed": not failures,
    }


def latent_sweep(n_max: int = 5) -> dict:
    """Covariance criterion versus d-separation in the latent-collider DAG,
    exhaustive over labeled UGs."""
    return _per_graph_sweep("latent", n_max, MAX_LATENT_NODES, all_ugs,
                            verify_latent_equivalence)


def forest_sweep(n_max: int = 6) -> dict:
    """Dependence criterion equals negated independence criterion on every
    labeled forest."""
    return _per_graph_sweep("forest", n_max, MAX_FOREST_NODES, all_forests,
                            verify_forest_faithfulness)


@lru_cache(maxsize=None)
def _entries_given(n: int, given: NodeSet) -> tuple[tuple[int, int, int], ...]:
    """(plan index, i, j) of each entry of `_pair_plan(n)` whose K is
    `given` minus i, j."""
    return tuple((q, i, j) for q, (_p, i, j, k) in enumerate(_pair_plan(n))
                 if k == given & ~bit(i) & ~bit(j))


def _recovered(n: int, row: list[bool], entries: tuple[tuple[int, int, int], ...]
               ) -> list[NodeSet]:
    """Adjacency masks joining each pair i, j of `entries` that the trial
    row reads dependent: on `_entries_given(n, 0)` the trial model's
    `covariance_graph_of`, on `_entries_given(n, full mask)` its
    `concentration_graph_of`."""
    adj = [0] * n
    for q, i, j in entries:
        if not row[q]:
            adj[i] |= bit(j)
            adj[j] |= bit(i)
    return adj


def _recovery_ok(cov: list[NodeSet], conc: list[NodeSet]) -> bool:
    """The recovered graphs (adjacency masks) share their components, and
    each tree component of either is complete in the other."""
    full = (1 << len(cov)) - 1
    comps = components(cov, full)
    if components(conc, full) != comps:
        return False
    for comp in comps:
        # degree sums are twice the edge counts; if either graph has a
        # tree's, the other must have the complete graph's
        size = comp.bit_count()
        degrees = {sum(adj[v].bit_count() for v in iter_nodes(comp)) for adj in (cov, conc)}
        if 2 * (size - 1) in degrees and degrees != {2 * (size - 1), size * (size - 1)}:
            return False
    return True


def corollaries_sweep(
    n_max: int = 5,
    trials: int = 100,
    seed: int = 0,
) -> dict:
    """Sampled-model checks per connected UG, run by `_per_graph_sweep`.

    Per graph, at least `MIN_FAITHFUL_FRACTION` of the trials must be
    faithful: a minor vanishes exactly when the graph criterion reads
    independence, on every entry of `_pair_plan(n)`.  On every faithful
    trial the recovered covariance and concentration graphs must share
    connected components and map tree components to complete dual
    components.  A recovery defect on a trial that is exactly unfaithful
    is the same cancellation seen twice, so it does not fail the sweep on
    its own: `tolerance_artifact_trials` counts these defects (a name kept
    from float-tolerance minors, because `bench/worker.py` and CI read it).

    A faithful trial's row is the criterion's row, so every faithful trial
    of a graph shares one recovery, checked once per graph on
    `_criterion_pairs(g)`; an unfaithful trial checks its own.  The
    counters are sums over the per-graph faithful counts.
    """
    _require_n_max("corollaries", n_max, MAX_FAITHFULNESS_NODES)
    _require_trials(trials)
    counts: list[tuple[int, int, bool]] = []  # per graph: faithful, artifacts, recovery ok

    def check(g: MixedGraph) -> Report:
        n = g.n
        marginal, full = _entries_given(n, 0), _entries_given(n, g.full_mask)

        def recovery_ok(row: list[bool]) -> bool:
            return _recovery_ok(_recovered(n, row, marginal), _recovered(n, row, full))

        ok = recovery_ok(_criterion_pairs(g))
        report = Report(trials)
        faithful = artifacts = 0
        for t, (row, bad) in enumerate(_trials(g, trials, seed + 7919 * len(counts))):
            if bad:
                artifacts += not recovery_ok(row)
                continue
            faithful += 1
            if not ok:
                report.violations.append(f"trial {t}: recovery defect on a faithful trial")
        fraction = faithful / trials
        if fraction < MIN_FAITHFUL_FRACTION:
            report.violations.append(
                f"faithful fraction {fraction:.3f} < {MIN_FAITHFUL_FRACTION}")
        counts.append((faithful, artifacts, ok))
        return report

    sweep = _per_graph_sweep("corollaries", n_max, MAX_FAITHFULNESS_NODES, connected_ugs, check)
    fractions = [faithful / trials for faithful, _artifacts, _ok in counts]
    return {
        "scope": "corollaries",
        "n_max": n_max,
        "trials": trials,
        "seed": seed,
        "threshold": MIN_FAITHFUL_FRACTION,
        "graphs": sweep["graphs"],
        "total_trials": sweep["graphs"] * trials,
        "faithful_trials": sum(faithful for faithful, _artifacts, _ok in counts),
        "structural_failures": sum(faithful for faithful, _artifacts, ok in counts if not ok),
        "tolerance_artifact_trials": sum(artifacts for _faithful, artifacts, _ok in counts),
        "min_faithful_fraction": min(fractions),
        "graphs_below_threshold": sum(f < MIN_FAITHFUL_FRACTION for f in fractions),
        "failures": sweep["failures"],
        "passed": sweep["passed"],
    }


def full_verification(
    n_max: int = 5,
    random_graphs: int = 200,
    trials: int = 100,
    seed: int = 0,
) -> dict:
    # Refuse a bad argument before the first sweep runs, in the order the
    # sweeps would check them: the sweeps take seconds.
    _require_sample(random_graphs, seed)
    _require_n_max("theorems", min(n_max, MAX_CLOSURE_NODES), MAX_CLOSURE_NODES)
    _require_trials(trials)
    parts = [
        theorems_sweep(min(n_max, MAX_CLOSURE_NODES), random_graphs, seed),
        latent_sweep(min(n_max, MAX_LATENT_NODES)),
        forest_sweep(min(n_max + 1, MAX_FOREST_NODES)),
        corollaries_sweep(min(n_max, 5), trials, seed),
    ]
    return {
        "scope": "all",
        "parts": parts,
        "passed": all(p["passed"] for p in parts),
    }
