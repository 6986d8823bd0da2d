"""Graphical independence criteria.

Two readings of a graph as an independence model are implemented:

* chain-graph separation (`sep`): X and Y are separated given Z when every
  path between them in the moral graph of the ancestral induced subgraph
  meets Z.  This is the classic criterion for DAGs, UGs read as
  concentration graphs, and chain graphs in general.
* the covariance reading of a UG: X and Y are independent given Z when
  every path between them leaves X|Y|Z, i.e. `sep` conditioned on the
  complement of X|Y|Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import (
    GraphKind,
    MixedGraph,
    NodeSet,
    SizeLimitError,
    ancestors,
    bit,
    components,
    disjoint_splits,
    format_nodeset,
    iter_nodes,
    reachable,
)

MAX_SWEEP_NODES = 8


@dataclass(frozen=True)
class CITriple:
    """Disjoint (X, Y, Z) naming a conditional (in)dependence statement.

    X and Y must be nonempty; the constructor normalizes X <= Y (as mask
    ints) so symmetric statements compare equal.
    """

    x: NodeSet
    y: NodeSet
    z: NodeSet = 0

    def __post_init__(self) -> None:
        if not self.x or not self.y:
            raise ValueError("X and Y must be nonempty")
        if self.x & self.y or self.x & self.z or self.y & self.z:
            raise ValueError("X, Y, Z must be pairwise disjoint")
        if self.x > self.y:
            x, y = self.x, self.y
            object.__setattr__(self, "x", y)
            object.__setattr__(self, "y", x)

    def sort_key(self) -> tuple[int, int, int, int]:
        size = self.x.bit_count() + self.y.bit_count() + self.z.bit_count()
        return (size, self.x, self.y, self.z)

    def render(self, labels) -> str:
        return " ; ".join(
            format_nodeset(m, labels) for m in (self.x, self.y, self.z)
        )


def check_triple(g: MixedGraph, x: NodeSet, y: NodeSet, z: NodeSet) -> None:
    if (x | y | z) & ~g.full_mask:
        raise ValueError("triple mentions nodes outside the graph")
    if not x or not y:
        raise ValueError("X and Y must be nonempty")
    if x & y or x & z or y & z:
        raise ValueError("X, Y, Z must be pairwise disjoint")


COVARIANCE = GraphKind.COVARIANCE
CONCENTRATION = GraphKind.CONCENTRATION
DAG = GraphKind.DAG
UG_READINGS = (COVARIANCE, CONCENTRATION)


def require_kind(g: MixedGraph, kind: GraphKind) -> None:
    if kind in UG_READINGS:
        if g.directed:
            raise ValueError(f"{kind.value} reading requires an undirected graph")
    elif kind is DAG:
        if g.undirected or not g.is_cg:
            raise ValueError("dag reading requires an acyclic directed graph")
    elif not g.is_cg:
        raise ValueError("cg reading requires a chain graph")


def through(g: MixedGraph, kind: GraphKind, x: NodeSet, y: NodeSet, z: NodeSet) -> NodeSet:
    """The nodes an X-Y path may use besides X and Y under the reading:
    Z for covariance, the complement of X|Y|Z otherwise.  The covariance
    reading of (X, Y, Z) is the concentration reading of (X, Y, V minus
    X|Y|Z), so this is the one place the two readings differ."""
    return z if kind is COVARIANCE else g.full_mask & ~(x | y | z)


def _moral_adj_within(g: MixedGraph, inside: NodeSet) -> list[NodeSet]:
    """Adjacency of the moral graph of the subgraph induced by `inside`,
    indexed by original node ids (entries outside `inside` are unused)."""
    adj = [a & inside for a in g.any_adj]
    for comp in components(g.und_adj, inside):
        pa = 0
        for v in iter_nodes(comp):
            pa |= g.pa_adj[v] & inside
        for p in iter_nodes(pa):
            adj[p] |= pa & ~bit(p)
    return adj


def sep(g: MixedGraph, x: NodeSet, y: NodeSet, z: NodeSet) -> bool:
    """Chain-graph separation: every path from X to Y in the moral graph
    of the ancestral induced subgraph meets Z."""
    check_triple(g, x, y, z)
    if not g.is_cg:
        raise ValueError("separation requires a chain graph")
    return _independent(g, GraphKind.CG, x, y, z, {})


def _independent(
    g: MixedGraph, kind: GraphKind, x: NodeSet, y: NodeSet, z: NodeSet,
    moral: dict[NodeSet, tuple[NodeSet, list[NodeSet]]],
) -> bool:
    """`ci_independent` without its checks.  `moral` caches the ancestral
    set of X|Y|Z and its moral adjacency, so callers reading many triples
    of one graph share it; triples with the same union share one entry."""
    if not g.directed:
        # Without arrows the ancestral set is a union of components and
        # moralization adds nothing: no X-Y path may stay in X|Y|through.
        return not (reachable(g.und_adj, x, x | y | through(g, kind, x, y, z)) & y)
    inside = x | y | z
    entry = moral.get(inside)
    if entry is None:
        anc = ancestors(g, inside)
        entry = moral[inside] = (anc, _moral_adj_within(g, anc))
    anc, adj = entry
    return not (reachable(adj, x, anc & ~z) & y)


def ci_independent(g: MixedGraph, kind: GraphKind, x: NodeSet, y: NodeSet, z: NodeSet) -> bool:
    """Graphical independence verdict under the given reading of g."""
    check_triple(g, x, y, z)
    require_kind(g, kind)
    return _independent(g, kind, x, y, z, {})


@lru_cache(maxsize=None)
def canonical_triples(n: int) -> tuple[CITriple, ...]:
    """All canonical CITriples over n nodes, sorted by total size then
    bit patterns."""
    out = [
        CITriple(x, y, z)
        for x, y, z, _rest in disjoint_splits(n, 4)
        if x and y and x <= y
    ]
    out.sort(key=CITriple.sort_key)
    return tuple(out)


def all_independencies(g: MixedGraph, kind: GraphKind) -> list[CITriple]:
    """Every canonical triple the criterion marks independent, in
    deterministic order."""
    if g.n > MAX_SWEEP_NODES:
        raise SizeLimitError(f"independence sweep limited to {MAX_SWEEP_NODES} nodes")
    require_kind(g, kind)
    # Canonical triples are valid by construction, and `require_kind` has
    # checked the reading, so the test runs without the per-call checks.
    moral: dict = {}
    return [t for t in canonical_triples(g.n) if _independent(g, kind, t.x, t.y, t.z, moral)]
