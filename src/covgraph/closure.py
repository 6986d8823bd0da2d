"""Saturation of the edge-dependence base under the graphoid rules.

Adjacent nodes of a covariance graph are marginally dependent; further
dependencies follow by the contrapositive forms of the graphoid
properties plus weak transitivity and composition (nine rules in all).
Independence antecedents are read from the graph's covariance
independence table, never from absence from the closure.  The engine
materializes the finite statement universe and sweeps every disjoint
split of the vertex set until fixpoint, recording the first derivation
per statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import GraphKind, MixedGraph, SizeLimitError, bit, disjoint_splits, iter_nodes
from .report import Report
from .separation import CITriple, all_independencies, ci_independent

RULE_BASE = "base"
RULE_SYMMETRY = "symmetry"  # absorbed by storing both orders of X and Y
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

    # Statements are stored under both orders of X and Y, so no lookup
    # has to put a triple into canonical form first.
    indep = {(t.x, t.y, t.z) for t in all_independencies(g, GraphKind.COVARIANCE)}
    indep |= {(y, x, z) for x, y, z in indep}
    est: set[tuple[int, int, int]] = set()
    provenance: dict[CITriple, Derivation] = {}

    def add(x, y, z, rule, deps, indeps) -> bool:
        if (x, y, z) in est:
            return False
        est.add((x, y, z))
        est.add((y, x, z))
        provenance[CITriple(x, y, z)] = Derivation(
            rule,
            tuple(CITriple(*d) for d in deps),
            tuple(CITriple(*i) for i in indeps),
        )
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
            small = (x, y, z)
            moved = (x, y, zw)
            wide = (x, yw, z)
            if wide not in est:
                if small in est:
                    changed |= add(x, yw, z, RULE_DECOMPOSITION, (small,), ())
                elif moved in est:
                    changed |= add(x, yw, z, RULE_WEAK_UNION, (moved,), ())
            if wide in est:
                if moved in indep:
                    changed |= add(x, w, z, RULE_CONTRACTION1, (wide,), (moved,))
                    changed |= add(x, w, z | y, RULE_INTERSECTION, (wide,), (moved,))
                if (x, w, z) in indep:
                    changed |= add(x, y, zw, RULE_CONTRACTION2, (wide,), ((x, w, z),))
                if small in indep:
                    changed |= add(x, w, z, RULE_COMPOSITION, (wide,), (small,))
        for x, y, z, k in node_splits:
            first = (x, k, z)
            second = (k, y, z)
            if first in est and second in est:
                if (x, y, z) in indep:
                    changed |= add(x, y, z | k, RULE_WEAK_TRANSITIVITY1,
                                   (first, second), ((x, y, z),))
                if (x, y, z | k) in indep:
                    changed |= add(x, y, z, RULE_WEAK_TRANSITIVITY2,
                                   (first, second), ((x, y, z | k),))

    return ClosureState(g, frozenset(provenance), provenance, sweeps)


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
