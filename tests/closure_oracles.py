"""The closure references: the tuple-keyed engine that the
position-indexed `saturate` must match, and the plain recursive
renderers that the memoized `explain` and `explain --json` must match.

They live apart from `oracles.py` because the benchmark worker imports that
module: compiling the engine there raised the worker's peak RSS on the
`query` and `sweep` workloads, which never run it, and no workload runs
the renderers.
"""

from __future__ import annotations

from dataclasses import dataclass

from covgraph import (
    CITriple,
    ClosureState,
    Derivation,
    GraphKind,
    MixedGraph,
    NotEstablishedError,
    SizeLimitError,
    all_independencies,
    bit,
    iter_nodes,
)
from covgraph.closure import (
    MAX_CLOSURE_NODES,
    RULE_BASE,
    RULE_COMPOSITION,
    RULE_CONTRACTION1,
    RULE_CONTRACTION2,
    RULE_DECOMPOSITION,
    RULE_INTERSECTION,
    RULE_WEAK_TRANSITIVITY1,
    RULE_WEAK_TRANSITIVITY2,
    RULE_WEAK_UNION,
)
from covgraph.graphs import disjoint_splits


@dataclass
class NaiveClosure:
    """The reference engine's result: the statements, their first
    derivations in the order made, and the fixpoint sweep count."""

    graph: MixedGraph
    established: frozenset[CITriple]
    provenance: dict[CITriple, Derivation]
    sweeps: int


def naive_saturate(g: MixedGraph, _reverse_sweep: bool = False) -> NaiveClosure:
    """The closure engine keyed by (x, y, z) mask tuples, with the split
    tables built on every call: same sweep order, rule order, provenance
    and sweep count as `saturate`."""
    if g.directed:
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

    for i, j in sorted(g.undirected):
        add(bit(i), bit(j), 0, RULE_BASE, (), ())

    # (X, Y, Z, W) with X, Y, W nonempty, and (X, Y, Z, K) with X, Y
    # nonempty and K a single node, all parts disjoint.
    set_splits = tuple(
        (x, y, z, w)
        for x, y, z, w, _rest in disjoint_splits(g.n, 5)
        if x and y and w
    )
    node_splits = tuple(
        (x, y, z, bit(k))
        for x, y, z, rest in disjoint_splits(g.n, 4)
        if x and y
        for k in iter_nodes(rest)
    )
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

    return NaiveClosure(g, frozenset(provenance), provenance, sweeps)


def naive_explain(state: ClosureState | NaiveClosure, triple: CITriple) -> str:
    """Derivation tree of an established statement, re-rendered from
    scratch on every call."""
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


def naive_explain_json(state: ClosureState | NaiveClosure, triple: CITriple) -> dict:
    """The `explain --json` tree of an established statement, rebuilt
    from scratch on every call."""
    if triple not in state.established:
        raise NotEstablishedError(
            f"{triple.render(state.graph.labels)} is not in the closure"
        )
    labels = state.graph.labels

    def node(t: CITriple) -> dict:
        d = state.provenance[t]
        return {
            "statement": t.render(labels),
            "rule": d.rule,
            "independencies": [i.render(labels) for i in d.independencies],
            "antecedents": [node(dep) for dep in d.dependencies],
        }

    return node(triple)
