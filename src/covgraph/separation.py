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


def require_kind(g: MixedGraph, kind: GraphKind) -> None:
    if kind in (GraphKind.COVARIANCE, GraphKind.CONCENTRATION):
        if not g.is_undirected_graph:
            raise ValueError(f"{kind.value} reading requires an undirected graph")
    elif kind is GraphKind.DAG:
        if not g.is_directed_graph or not g.is_cg:
            raise ValueError("dag reading requires an acyclic directed graph")
    elif not g.is_cg:
        raise ValueError("cg reading requires a chain graph")


def _moral_adj_within(g: MixedGraph, inside: NodeSet) -> list[NodeSet]:
    """Adjacency of the moral graph of the subgraph induced by `inside`,
    indexed by original node ids (entries outside `inside` are unused)."""
    adj = [a & inside for a in g.any_adj]
    remaining = inside
    while remaining:
        comp = reachable(g.und_adj, remaining & -remaining, inside)
        remaining &= ~comp
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
    return _separated(g, x, y, z, {})


def _separated(
    g: MixedGraph, x: NodeSet, y: NodeSet, z: NodeSet,
    moral: dict[NodeSet, tuple[NodeSet, list[NodeSet]]],
) -> bool:
    """`sep` without its checks.  `moral` caches the ancestral set of
    X|Y|Z and its moral adjacency, so callers reading many triples of one
    graph share it; triples with the same union share one entry."""
    if g.is_undirected_graph:
        # Without arrows the ancestral set is a union of components and
        # moralization adds nothing: X meets Y only within its component.
        return not (reachable(g.und_adj, x, g.full_mask & ~z) & y)
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
    if kind is GraphKind.COVARIANCE:
        # Every X-Y path has a node outside X|Y|Z  <=>  X and Y are
        # disconnected in the subgraph induced by X|Y|Z.
        inside = x | y | z
        return not (reachable(g.und_adj, x, inside) & y)
    return sep(g, x, y, z)


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
    # checked the reading, so both tests run without the per-call checks.
    if kind is GraphKind.COVARIANCE:
        adj = g.und_adj
        return [t for t in canonical_triples(g.n)
                if not (reachable(adj, t.x, t.x | t.y | t.z) & t.y)]
    moral: dict = {}
    return [t for t in canonical_triples(g.n) if _separated(g, t.x, t.y, t.z, moral)]
