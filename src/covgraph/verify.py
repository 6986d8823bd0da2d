"""Per-graph checks of the paper's guarantees, and sweeps running them
over small graphs.

Each sweep returns a JSON-serializable dict with a `passed` flag and
deterministic content for a given seed, so reports are reproducible
byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import ne, or_, xor
from typing import Iterator

from .closure import MAX_CLOSURE_NODES, RULES, ClosureState, _lane_closure
from .gaussian import _minors, sample_markov_gaussian, trial_seed
from .graphs import (GraphKind, MixedGraph, NodeSet, SizeLimitError, bit, components,
                     is_forest, iter_nodes, latent_dag)
from .separation import (_dependence_row, _independence_row, _independent,
                         _lane_dag_independence_row, _lane_rows, canonical_triples,
                         ci_independent)
from .smallgraphs import UGLanes, all_ug_lanes, default_labels, node_pairs, random_ug_lanes

MAX_LATENT_NODES = 5
MAX_FOREST_NODES = 6
MAX_FAITHFULNESS_NODES = 6
MIN_FAITHFUL_FRACTION = 0.95  # share of trials that must be faithful
MAX_FAILURES_KEPT = 20
# lanes per batch of a lane sweep: the 32,768 labeled 6-node UGs, so a
# random sample of any size runs in bounded memory
MAX_LANES = 1 << 15


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
    criterion = _independence_row(g, GraphKind.COVARIANCE)
    moral: dict = {}
    latent = [_independent(h.dag, GraphKind.DAG, t.x, t.y, t.z, moral)
              for t in canonical_triples(g.n)]
    return Report(len(criterion), _latent_lines(g.labels, criterion, latent))


def _latent_lines(labels: tuple[str, ...], cov: list[bool], dag: list[bool]) -> list[str]:
    """One line per canonical triple where the covariance criterion and
    d-separation in the latent DAG disagree."""
    return [f"{t.render(labels)}: criterion={c} latent-dag={d}"
            for t, c, d in zip(canonical_triples(len(labels)), cov, dag) if c != d]


def verify_forest_faithfulness(g: MixedGraph, max_nodes: int = MAX_FOREST_NODES) -> Report:
    """On forests the dependence criterion must be the exact complement of
    the independence criterion."""
    if not is_forest(g):
        raise ValueError("graph is not a forest")
    if g.n > max_nodes:
        raise SizeLimitError(f"forest sweep limited to {max_nodes} nodes")
    dependent = _dependence_row(g, GraphKind.COVARIANCE)
    refused = [not i for i in _independence_row(g, GraphKind.COVARIANCE)]
    return Report(len(dependent), _forest_lines(g.labels, dependent, refused))


def _forest_lines(labels: tuple[str, ...], dep: list[bool], refused: list[bool]) -> list[str]:
    """One line per canonical triple where the dependence and independence
    criteria both read or both refuse."""
    return [f"{t.render(labels)}: dependent={d} independent={not r}"
            for t, d, r in zip(canonical_triples(len(labels)), dep, refused) if d != r]


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
    the entries a model's determinant tests are compared against.
    Canonical order sorts by size first, so the first C(n, 2) entries are
    {i} ; {j} ; ∅ and the last C(n, 2) are {i} ; {j} ; V∖{i, j}, each
    block in `combinations(range(n), 2)` order."""
    return tuple((p, t.x.bit_length() - 1, t.y.bit_length() - 1, t.z)
                 for p, t in enumerate(canonical_triples(n))
                 if t.x.bit_count() == t.y.bit_count() == 1)


def _criterion_pairs(g: MixedGraph) -> list[bool]:
    """The covariance criterion's verdict on each entry of `_pair_plan(g.n)`,
    read from the graph's independence row at the entry's position."""
    row = _independence_row(g, GraphKind.COVARIANCE)
    return [row[p] for p, _i, _j, _k in _pair_plan(g.n)]


def _connected_pairs(n: int) -> Iterator[tuple[MixedGraph, list[bool]]]:
    """Each graph of `connected_ugs(n)`, in its order, with its
    `_criterion_pairs`, read for every graph from one `_lane_rows` call
    over `all_ug_lanes(n)`.  Each pair entry's independence lanes become
    one digit string, lane k at index k, so a graph's read costs one
    string index per entry where a shift would copy the whole mask."""
    lanes = all_ug_lanes(n)
    independent, _dependent = _lane_rows(lanes, GraphKind.COVARIANCE)
    width = len(lanes.graphs)
    digits = [format(independent[p], f"0{width}b")[::-1] for p, _i, _j, _k in _pair_plan(n)]
    for k in iter_nodes(lanes.connected()):
        yield lanes.graph(k), [d[k] == "1" for d in digits]


def _trials(g: MixedGraph, expected: list[bool], trials: int, seed: int
            ) -> Iterator[tuple[list[bool], int]]:
    """For each trial, the determinant verdict on every entry of
    `_pair_plan(g.n)`, in plan order, and the number of them that disagree
    with `expected`, the caller's one read of `_criterion_pairs(g)`.

    A verdict reads independence exactly when the minor
    det sigma[{i} | K, {j} | K], taken from the trial's `_minors` table,
    is zero."""
    n = g.n
    cells = [(k, i * n + j) for _p, i, j, k in _pair_plan(n)]
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
    read once by position from the graph's covariance independence row."""
    if g.n > MAX_FAITHFULNESS_NODES:
        raise SizeLimitError(
            f"faithfulness sweep limited to {MAX_FAITHFULNESS_NODES} nodes")
    _require_trials(trials)
    mismatches = [bad for _row, bad in _trials(g, _criterion_pairs(g), trials, seed)]
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


def _closure_check(lanes: UGLanes) -> tuple:
    """The rule closure of every graph of `lanes` against the single-path
    criterion, for `_lane_sweep`: the lanes checked, the `_lane_closure`
    row, the certified covariance dependence row and `_closure_lines`.
    Both covariance rows come from one `_lane_rows` call."""
    independent, certified = _lane_rows(lanes, GraphKind.COVARIANCE)
    return lanes.full, _lane_closure(lanes.adj, independent), certified, _closure_lines


def _closure_lines(labels: tuple[str, ...], closure: list[bool], paths: list[bool]) -> list[str]:
    """One line listing, each in sorted order, the statements the rule
    closure misses and adds against the single-path criterion."""
    texts = [(t.render(labels), d)
             for t, d, c in zip(canonical_triples(len(labels)), closure, paths) if d != c]
    missing = sorted(text for text, d in texts if not d)
    extra = sorted(text for text, d in texts if d)
    return [f"missing={missing} extra={extra}"] if texts else []


def theorems_sweep(n_max: int = 5, random_graphs: int = 200, seed: int = 0) -> dict:
    """Set equality of the rule closure and the single-path criterion:
    exhaustive up to 4 nodes, seeded random sample at 5 and 6.  Each size
    runs as lane families: `all_ugs(n)`, or the `random_graphs` graphs
    that `random_ug(n, rng)` draws from one `Random(seed)`, in batches of
    at most `MAX_LANES`."""
    _require_sample(random_graphs, seed)
    rng = random.Random(seed)

    def family(n: int) -> Iterator[UGLanes]:
        if n <= 4:
            yield all_ug_lanes(n)
            return
        for drawn in range(0, random_graphs, MAX_LANES):
            yield random_ug_lanes(n, min(MAX_LANES, random_graphs - drawn), rng)

    sweep = _lane_sweep("theorems", n_max, MAX_CLOSURE_NODES, family, _closure_check)
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


def _lane_sweep(scope: str, n_max: int, limit: int, family, check) -> dict:
    """Run `check` on every lane family of `family(n)`, the graphs of size
    n as `UGLanes` batches, for n = 1..n_max, and gather the violations.
    `check` (`_closure_check`, `_latent_check`, `_forest_check`) returns
    the lanes it checks, two lane rows over `canonical_triples(n)` and
    the function that renders one graph's differences, the one its
    per-graph check renders with; a lane fails where the rows differ, and
    messages are kept graph by graph in lane order, as many as
    `MAX_FAILURES_KEPT`."""
    _require_n_max(scope, n_max, limit)
    failures: list[str] = []
    graphs = 0
    triples = 0
    for n in range(1, n_max + 1):
        for lanes in family(n):
            checked, left, right, lines = check(lanes)
            count = checked.bit_count()
            graphs += count
            triples += count * len(left)
            for k in iter_nodes(checked & reduce(or_, map(xor, left, right), 0)):
                if len(failures) == MAX_FAILURES_KEPT:
                    break
                described = _describe(lanes.graph(k))
                for v in lines(default_labels(n), [bool(r >> k & 1) for r in left],
                               [bool(r >> k & 1) for r in right]):
                    _record(failures, f"{described} {v}")
    return {
        "scope": scope,
        "n_max": n_max,
        "graphs": graphs,
        "triples_checked": triples,
        "failures": failures,
        "passed": not failures,
    }


def _latent_parents(lanes: UGLanes) -> list[list[int]]:
    """The `latent_dag` of every graph of `lanes` as one lane DAG: entry
    [v][u] holds the lanes whose latent DAG has the arrow u -> v.  Every
    lane shares one node numbering: original nodes keep their ids, and
    the latent of pair (a, b) takes id n + the pair's index in
    `node_pairs(n)`."""
    n = lanes.n
    pairs = {pair: n + i for i, pair in enumerate(node_pairs(n))}
    pa = [[0] * (n + len(pairs)) for _ in range(n + len(pairs))]
    for k in range(len(lanes.graphs)):
        h = latent_dag(lanes.graph(k))
        ids = {latent: pairs[a, b] for a, b, latent in h.latents}
        for tail, head in h.dag.directed:
            pa[ids.get(head, head)][ids.get(tail, tail)] |= 1 << k
    return pa


def _latent_check(lanes: UGLanes) -> tuple:
    """`verify_latent_equivalence` on every graph of `lanes`, for
    `_lane_sweep`: the lanes, the independence half of `_lane_rows`, the
    latent DAGs' d-separation row and `_latent_lines`."""
    criterion, _dependent = _lane_rows(lanes, GraphKind.COVARIANCE)
    latent = _lane_dag_independence_row(_latent_parents(lanes), lanes.full, lanes.n)
    return lanes.full, criterion, latent, _latent_lines


def latent_sweep(n_max: int = 5) -> dict:
    """Covariance criterion versus d-separation in the latent-collider DAG,
    exhaustive over labeled UGs, each size's graphs as the lanes of
    `all_ug_lanes(n)`."""
    return _lane_sweep("latent", n_max, MAX_LATENT_NODES, lambda n: [all_ug_lanes(n)],
                       _latent_check)


def _forest_check(lanes: UGLanes) -> tuple:
    """`verify_forest_faithfulness` on every forest of `lanes`, for
    `_lane_sweep`: the forest lanes (`UGLanes.forests`, a walk of its
    own), the dependence row and the refused independence row, both from
    one `_lane_rows` call, and `_forest_lines`."""
    independent, dependent = _lane_rows(lanes, GraphKind.COVARIANCE)
    return lanes.forests(), dependent, [lanes.full ^ i for i in independent], _forest_lines


def forest_sweep(n_max: int = 6) -> dict:
    """Dependence criterion equals negated independence criterion on every
    labeled forest, each size's forests as lanes of `all_ugs(n)`."""
    return _lane_sweep("forest", n_max, MAX_FOREST_NODES, lambda n: [all_ug_lanes(n)],
                       _forest_check)


def _recovered(n: int, row: list[bool]) -> tuple[list[NodeSet], list[NodeSet]]:
    """The adjacency masks of the trial model's `covariance_graph_of` and
    `concentration_graph_of`, read from its row over `_pair_plan(n)`:
    pair q of `node_pairs(n)` is joined where the row reads dependent at
    entry q, the K = ∅ block, and at entry len(row) - C(n, 2) + q, the
    K = V∖{i, j} block."""
    cov, conc = [0] * n, [0] * n
    pairs = node_pairs(n)
    last = len(row) - len(pairs)
    for q, (i, j) in enumerate(pairs):
        for adj, p in (cov, q), (conc, last + q):
            if not row[p]:
                adj[i] |= bit(j)
                adj[j] |= bit(i)
    return cov, conc


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
    """Sampled-model checks on every connected UG of 1..n_max nodes.

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
    of a graph shares one recovery, checked once per graph on its
    criterion pairs, the same read `_trials` counts mismatches against;
    an unfaithful trial checks its own.  Each size reads the criterion
    pairs of all its connected graphs from one lane family
    (`_connected_pairs`).  Graph i (counting from 0 over all sizes, in
    `connected_ugs` order) draws its trials from seed `seed + 7919 * i`.
    """
    _require_n_max("corollaries", n_max, MAX_FAITHFULNESS_NODES)
    _require_trials(trials)
    failures: list[str] = []
    graphs = faithful_trials = structural = artifacts = below = 0
    least = trials
    for n in range(1, n_max + 1):
        for g, expected in _connected_pairs(n):
            ok = _recovery_ok(*_recovered(n, expected))
            faithful = 0
            for t, (row, bad) in enumerate(_trials(g, expected, trials, seed + 7919 * graphs)):
                if bad:
                    artifacts += not _recovery_ok(*_recovered(n, row))
                    continue
                faithful += 1
                if not ok:
                    _record(failures,
                            f"{_describe(g)} trial {t}: recovery defect on a faithful trial")
            fraction = faithful / trials
            if fraction < MIN_FAITHFUL_FRACTION:
                below += 1
                _record(failures, f"{_describe(g)} faithful fraction {fraction:.3f}"
                                  f" < {MIN_FAITHFUL_FRACTION}")
            graphs += 1
            faithful_trials += faithful
            structural += 0 if ok else faithful
            least = min(least, faithful)
    return {
        "scope": "corollaries",
        "n_max": n_max,
        "trials": trials,
        "seed": seed,
        "threshold": MIN_FAITHFUL_FRACTION,
        "graphs": graphs,
        "total_trials": graphs * trials,
        "faithful_trials": faithful_trials,
        "structural_failures": structural,
        "tolerance_artifact_trials": artifacts,
        "min_faithful_fraction": least / trials,
        "graphs_below_threshold": below,
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
