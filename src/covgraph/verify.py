"""Per-graph checks of the paper's guarantees, and sweeps running them
over small graphs.

Each sweep returns a JSON-serializable dict with a `passed` flag and
deterministic content for a given seed, so reports are reproducible
byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import ne
from typing import Iterator

from .closure import MAX_CLOSURE_NODES, RULES, ClosureState, saturate
from .gaussian import _minors, sample_markov_gaussian, trial_seed
from .graphs import (GraphKind, MixedGraph, NodeSet, SizeLimitError, bit, components,
                     is_forest, iter_nodes, latent_dag, submasks)
from .separation import (_dependence_row, _independence_row, _independent, _reach_table,
                         canonical_triples, ci_independent, require_kind)
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


def pair_verdicts(g: MixedGraph) -> list[tuple[int, int, NodeSet, bool]]:
    """(i, j, K, verdict) for every pair i < j and every K avoiding both,
    where verdict is the covariance criterion on i independent of j given
    K, read from the graph's one `_reach_table`: the table a model's
    determinant tests are compared against."""
    if g.n > MAX_FAITHFULNESS_NODES:
        raise SizeLimitError(f"pair verdicts limited to {MAX_FAITHFULNESS_NODES} nodes")
    require_kind(g, GraphKind.COVARIANCE)
    n = g.n
    reach = _reach_table(g.und_adj)
    return [(i, j, k, not reach[(bit(i) | bit(j) | k) << n | bit(i)] & bit(j))
            for i in range(n)
            for j in range(i + 1, n)
            for k in submasks(g.full_mask & ~bit(i) & ~bit(j))]


def _trials(
    g: MixedGraph, table: list[tuple[int, int, NodeSet, bool]], trials: int, seed: int,
) -> Iterator[tuple[list[bool], int]]:
    """For each trial, the determinant verdict on every (i, j, K) of
    `table` (the `pair_verdicts` of g), in table order, and the number of
    them that disagree with the covariance criterion.

    A verdict reads independence exactly when the minor
    det sigma[{i} | K, {j} | K], taken from the trial's `_minors` table,
    is zero."""
    n = g.n
    plan = [(k, i * n + j) for i, j, k, _verdict in table]
    expected = [verdict for _i, _j, _k, verdict in table]
    for t in range(trials):
        minors = _minors(sample_markov_gaussian(g, trial_seed(seed, t)))
        row = [not minors[k][ij] for k, ij in plan]
        yield row, sum(map(ne, row, expected))


def faithfulness_report(
    g: MixedGraph,
    trials: int,
    seed: int = 0,
) -> FaithfulnessReport:
    """Sample `trials` models and compare their exact zero minors against
    the covariance-graph criterion over every (i, j, K)."""
    if g.n > MAX_FAITHFULNESS_NODES:
        raise SizeLimitError(
            f"faithfulness sweep limited to {MAX_FAITHFULNESS_NODES} nodes")
    _require_trials(trials)
    mismatches = [bad for _row, bad in _trials(g, pair_verdicts(g), trials, seed)]
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


def _entries_given(
    table: list[tuple[int, int, NodeSet, bool]], given: NodeSet
) -> list[tuple[int, int, int]]:
    """(position, i, j) of each entry of `table` whose K is `given` minus
    i, j."""
    return [(p, i, j) for p, (i, j, k, _v) in enumerate(table)
            if k == given & ~bit(i) & ~bit(j)]


def _recovered(n: int, row: list[bool], entries: list[tuple[int, int, int]]) -> list[NodeSet]:
    """Adjacency masks joining each pair i, j of `entries` that the trial
    row reads dependent: on `_entries_given(table, 0)` the trial model's
    `covariance_graph_of`, on `_entries_given(table, full mask)` its
    `concentration_graph_of`."""
    adj = [0] * n
    for p, i, j in entries:
        if not row[p]:
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
    """Sampled-model checks per connected UG.

    Per graph, at least `MIN_FAITHFUL_FRACTION` of the trials must be
    faithful: a minor vanishes exactly when the graph criterion reads
    independence, on every (i, j, K).  On every faithful trial the
    recovered covariance and concentration graphs must share connected
    components and map tree components to complete dual components.  A
    recovery defect on a trial that is exactly unfaithful is the same
    cancellation seen twice, so it is tallied separately, as
    `tolerance_artifact_trials`, and does not fail the sweep on its own.

    A faithful trial's row is the criterion's row, so every faithful trial
    of a graph shares one recovery, checked once per graph from the
    `pair_verdicts` row; an unfaithful trial checks its own.
    """
    _require_n_max("corollaries", n_max, MAX_FAITHFULNESS_NODES)
    _require_trials(trials)
    failures: list[str] = []
    graphs = 0
    total_trials = 0
    faithful_trials = 0
    structural_failures = 0
    tolerance_artifacts = 0
    below_threshold = 0
    min_fraction = 1.0
    for n in range(1, n_max + 1):
        for g in connected_ugs(n):
            base = seed + 7919 * graphs
            graphs += 1
            faithful = 0
            table = pair_verdicts(g)
            marginal = _entries_given(table, 0)
            full = _entries_given(table, g.full_mask)
            expected = [verdict for _i, _j, _k, verdict in table]
            faithful_ok = _recovery_ok(_recovered(g.n, expected, marginal),
                                       _recovered(g.n, expected, full))
            for t, (row, bad) in enumerate(_trials(g, table, trials, base)):
                total_trials += 1
                is_faithful = not bad
                recovery_ok = faithful_ok if is_faithful else _recovery_ok(
                    _recovered(g.n, row, marginal), _recovered(g.n, row, full))
                if is_faithful:
                    faithful += 1
                    if not recovery_ok:
                        structural_failures += 1
                        _record(failures,
                                f"{_describe(g)} trial {t}: recovery defect on a "
                                f"faithful trial")
                elif not recovery_ok:
                    tolerance_artifacts += 1
            faithful_trials += faithful
            fraction = faithful / trials
            min_fraction = min(min_fraction, fraction)
            if fraction < MIN_FAITHFUL_FRACTION:
                below_threshold += 1
                _record(failures,
                        f"{_describe(g)} faithful fraction {fraction:.3f} "
                        f"< {MIN_FAITHFUL_FRACTION}")
    return {
        "scope": "corollaries",
        "n_max": n_max,
        "trials": trials,
        "seed": seed,
        "threshold": MIN_FAITHFUL_FRACTION,
        "graphs": graphs,
        "total_trials": total_trials,
        "faithful_trials": faithful_trials,
        "structural_failures": structural_failures,
        "tolerance_artifact_trials": tolerance_artifacts,
        "min_faithful_fraction": min_fraction,
        "graphs_below_threshold": below_threshold,
        "failures": failures,
        "passed": not failures,
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
