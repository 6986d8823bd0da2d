"""Saturation of the edge-dependence base under the graphoid rules.

Adjacent nodes of a covariance graph are marginally dependent; further
dependencies follow by the contrapositive forms of the graphoid
properties plus weak transitivity and composition (nine rules in all).
Independence antecedents are discharged by the covariance-graph
criterion, never by absence from the closure.  The engine materializes
the finite statement universe and sweeps every disjoint split of the
vertex set until fixpoint, recording the first derivation per statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import GraphKind, MixedGraph, SizeLimitError, bit, disjoint_splits, iter_nodes
from .report import Report
from .separation import CITriple, ci_independent

RULE_BASE = "base"
RULE_SYMMETRY = "symmetry"  # absorbed by the canonical statement form
RULE_DECOMPOSITION = "decomposition"
RULE_WEAK_UNION = "weak-union"
RULE_CONTRACTION1 = "contraction1"
RULE_CONTRACTION2 = "contraction2"
RULE_INTERSECTION = "intersection"
RULE_WEAK_TRANSITIVITY1 = "weak-transitivity1"
RULE_WEAK_TRANSITIVITY2 = "weak-transitivity2"
RULE_COMPOSITION = "composition"

RULES = (
    RULE_BASE,
    RULE_SYMMETRY,
    RULE_DECOMPOSITION,
    RULE_WEAK_UNION,
    RULE_CONTRACTION1,
    RULE_CONTRACTION2,
    RULE_INTERSECTION,
    RULE_WEAK_TRANSITIVITY1,
    RULE_WEAK_TRANSITIVITY2,
    RULE_COMPOSITION,
)

MAX_CLOSURE_NODES = 6


@dataclass(frozen=True)
class Derivation:
    """First derivation of a dependence statement: the rule applied, the
    dependence statements consumed, and the graph-certified independencies
    consumed."""

    rule: str
    dependencies: tuple[CITriple, ...] = ()
    independencies: tuple[CITriple, ...] = ()


@dataclass
class ClosureState:
    graph: MixedGraph
    established: frozenset[CITriple]
    provenance: dict[CITriple, Derivation]
    sweeps: int

    def sorted_statements(self) -> list[CITriple]:
        return sorted(self.established, key=CITriple.sort_key)


def _canon(x: int, y: int, z: int) -> tuple[int, int, int]:
    return (x, y, z) if x <= y else (y, x, z)


@lru_cache(maxsize=None)
def _set_splits(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """All (X, Y, Z, W) with X, Y, W nonempty and X, Y, Z, W disjoint."""
    return tuple(
        (x, y, z, w)
        for x, y, z, w, _rest in disjoint_splits(n, 5)
        if x and y and w
    )


@lru_cache(maxsize=None)
def _node_splits(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """All (X, Y, Z, K) with X, Y nonempty, K a single node, all disjoint."""
    return tuple(
        (x, y, z, bit(k))
        for x, y, z, rest in disjoint_splits(n, 4)
        if x and y
        for k in iter_nodes(rest)
    )


def saturate(g: MixedGraph, _reverse_sweep: bool = False) -> ClosureState:
    """Least fixpoint of the nine rules over the dependence base.

    `_reverse_sweep` flips the split and rule application order; the
    resulting established set must not change (only provenance may).
    """
    if not g.is_undirected_graph:
        raise ValueError("closure is defined for covariance (undirected) graphs")
    if g.n > MAX_CLOSURE_NODES:
        raise SizeLimitError(f"closure limited to {MAX_CLOSURE_NODES} nodes")

    indep_cache: dict[tuple[int, int, int], bool] = {}

    def indep(x: int, y: int, z: int) -> bool:
        key = _canon(x, y, z)
        hit = indep_cache.get(key)
        if hit is None:
            hit = ci_independent(g, GraphKind.COVARIANCE, x, y, z)
            indep_cache[key] = hit
        return hit

    est: set[tuple[int, int, int]] = set()
    prov: dict[tuple[int, int, int], tuple] = {}

    def add(x, y, z, rule, deps, indeps) -> bool:
        key = _canon(x, y, z)
        if key in est:
            return False
        est.add(key)
        prov[key] = (rule, deps, indeps)
        return True

    for i, j in g.undirected:
        add(bit(i), bit(j), 0, RULE_BASE, (), ())

    set_splits = _set_splits(g.n)
    node_splits = _node_splits(g.n)
    if _reverse_sweep:
        set_splits = tuple(reversed(set_splits))
        node_splits = tuple(reversed(node_splits))

    sweeps = 0
    changed = True
    while changed:
        changed = False
        sweeps += 1
        for x, y, z, w in set_splits:
            yw = y | w
            zw = z | w
            small = _canon(x, y, z)
            moved = _canon(x, y, zw)
            wide = _canon(x, yw, z)
            if wide not in est:
                if small in est:
                    changed |= add(x, yw, z, RULE_DECOMPOSITION, (small,), ())
                elif moved in est:
                    changed |= add(x, yw, z, RULE_WEAK_UNION, (moved,), ())
            if wide in est:
                if indep(x, y, zw):
                    changed |= add(x, w, z, RULE_CONTRACTION1, (wide,), ((x, y, zw),))
                    changed |= add(x, w, z | y, RULE_INTERSECTION, (wide,), ((x, y, zw),))
                if indep(x, w, z):
                    changed |= add(x, y, zw, RULE_CONTRACTION2, (wide,), ((x, w, z),))
                if indep(x, y, z):
                    changed |= add(x, w, z, RULE_COMPOSITION, (wide,), ((x, y, z),))
        for x, y, z, k in node_splits:
            first = _canon(x, k, z)
            second = _canon(k, y, z)
            if first in est and second in est:
                if indep(x, y, z):
                    changed |= add(x, y, z | k, RULE_WEAK_TRANSITIVITY1,
                                   (first, second), ((x, y, z),))
                if indep(x, y, z | k):
                    changed |= add(x, y, z, RULE_WEAK_TRANSITIVITY2,
                                   (first, second), ((x, y, z | k),))

    statements = frozenset(CITriple(*key) for key in est)
    provenance = {
        CITriple(*key): Derivation(
            rule,
            tuple(CITriple(*d) for d in deps),
            tuple(CITriple(*i) for i in indeps),
        )
        for key, (rule, deps, indeps) in prov.items()
    }
    return ClosureState(g, statements, provenance, sweeps)


class NotEstablishedError(KeyError):
    pass


def explain(state: ClosureState, triple: CITriple) -> str:
    """Derivation tree of an established statement, down to base edges and
    graph-certified independencies."""
    if triple not in state.established:
        raise NotEstablishedError(
            f"{triple.render(state.graph.labels)} is not in the closure"
        )
    labels = state.graph.labels
    lines: list[str] = []

    def visit(t: CITriple, depth: int) -> None:
        d = state.provenance[t]
        pad = "  " * depth
        lines.append(f"{pad}{t.render(labels)}  [{d.rule}]")
        for ind in d.independencies:
            lines.append(f"{pad}  {ind.render(labels)}  [independent by graph]")
        for dep in d.dependencies:
            visit(dep, depth + 1)

    visit(triple, 0)
    return "\n".join(lines)


def replay_provenance(state: ClosureState) -> Report:
    """Re-check every recorded derivation: dependence antecedents must be
    established and independence antecedents certified by the criterion."""
    g = state.graph
    report = Report("provenance-replay")
    for t, d in state.provenance.items():
        report.checked += 1
        if d.rule not in RULES:
            report.add_violation(f"{t.render(g.labels)}: unknown rule {d.rule}")
        for dep in d.dependencies:
            if dep not in state.established:
                report.add_violation(
                    f"{t.render(g.labels)}: antecedent {dep.render(g.labels)} missing"
                )
        for ind in d.independencies:
            if not ci_independent(g, GraphKind.COVARIANCE, ind.x, ind.y, ind.z):
                report.add_violation(
                    f"{t.render(g.labels)}: {ind.render(g.labels)} not graph-certified"
                )
    return report
