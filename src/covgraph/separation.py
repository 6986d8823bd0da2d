"""Graphical independence and dependence criteria.

Independence is read by separation:

* chain-graph separation (`sep`): X and Y are separated given Z when every
  path between them in the moral graph of the ancestral induced subgraph
  meets Z.  This is the classic criterion for DAGs, UGs read as
  concentration graphs, and chain graphs in general.
* the covariance reading of a UG: X and Y are independent given Z when
  every path between them leaves X|Y|Z, i.e. `sep` conditioned on the
  complement of X|Y|Z.

Dependence is read by a single surviving path in a UG: X is connected to
Y given Z when some pair A in X, B in Y is joined by exactly one simple
path avoiding (X|Y|Z) \\ {A, B}: a single surviving path cannot be
cancelled, so the dependence is forced.  The covariance reading
conditions on the complement of X|Y|Z, which turns the criterion into
"a single path whose nodes all lie in {A, B} | Z".

The covariance and concentration readings of both criteria differ only in
`through`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Optional, Sequence

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
        if (self.x | self.y | self.z) < 0:
            raise ValueError("node set masks must not be negative")
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
    return ci_independent(g, GraphKind.CG, x, y, z)


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


def _independence_row(g: MixedGraph, kind: GraphKind) -> list[bool]:
    """The criterion's verdict on each triple of `canonical_triples(g.n)`,
    by position."""
    if g.n > MAX_SWEEP_NODES:
        raise SizeLimitError(f"independence sweep limited to {MAX_SWEEP_NODES} nodes")
    require_kind(g, kind)
    # Canonical triples are valid by construction, and `require_kind` has
    # checked the reading, so the test runs without the per-call checks.
    moral: dict = {}
    return [_independent(g, kind, t.x, t.y, t.z, moral) for t in canonical_triples(g.n)]


def all_independencies(g: MixedGraph, kind: GraphKind) -> list[CITriple]:
    """Every canonical triple the criterion marks independent, in
    deterministic order."""
    row = _independence_row(g, kind)
    return list(compress(canonical_triples(g.n), row))


@dataclass(frozen=True)
class PathWitness:
    """A simple path, stored as its node sequence."""

    nodes: tuple[int, ...]

    @property
    def a(self) -> int:
        return self.nodes[0]

    @property
    def b(self) -> int:
        return self.nodes[-1]

    def check(self, g: MixedGraph) -> None:
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("path nodes must be distinct")
        for u, v in zip(self.nodes, self.nodes[1:]):
            if not (g.und_adj[u] >> v) & 1:
                raise ValueError(f"nodes {u} and {v} are not adjacent")

    def render(self, labels) -> str:
        return "-".join(labels[v] for v in self.nodes)


def _unique_path(
    adj: Sequence[NodeSet], a: int, b: int, allowed: NodeSet
) -> Optional[PathWitness]:
    """The simple path a..b inside `allowed` if it is the only one, else
    None.  `a` and `b` must differ and both lie in `allowed`.

    Walks back from b: every a..v path enters v from the part of `allowed`
    that a reaches without v, so v needs exactly one neighbor u there, and
    the a..v paths are then exactly the a..u paths inside that part.
    """
    path = [b]
    v = b
    while v != a:
        allowed = reachable(adj, 1 << a, allowed & ~(1 << v))
        entry = adj[v] & allowed
        if not entry or entry & (entry - 1):
            return None
        v = entry.bit_length() - 1
        path.append(v)
    return PathWitness(tuple(reversed(path)))


def _require_reading(g: MixedGraph, kind: GraphKind) -> None:
    if kind not in UG_READINGS:
        raise ValueError("dependence criteria exist for covariance and "
                         "concentration readings only")
    require_kind(g, kind)


def dependence_witness(
    g: MixedGraph, kind: GraphKind, x: NodeSet, y: NodeSet, z: NodeSet
) -> Optional[PathWitness]:
    """The unique simple path of the first pair A in X, B in Y that has
    exactly one path inside {A, B} | `through(g, kind, x, y, z)`, or None."""
    check_triple(g, x, y, z)
    _require_reading(g, kind)
    via = through(g, kind, x, y, z)
    adj = g.und_adj
    for a in iter_nodes(x):
        for b in iter_nodes(y):
            w = _unique_path(adj, a, b, via | bit(a) | bit(b))
            if w is not None:
                return w
    return None


def cov_dependence_witness(
    g: MixedGraph, x: NodeSet, y: NodeSet, z: NodeSet
) -> Optional[PathWitness]:
    """Covariance-graph dependence: a single simple path between some
    A in X and B in Y whose nodes all lie in {A, B} | Z."""
    return dependence_witness(g, COVARIANCE, x, y, z)


def cov_dependent(g: MixedGraph, x: NodeSet, y: NodeSet, z: NodeSet) -> bool:
    return dependence_witness(g, COVARIANCE, x, y, z) is not None


def conc_dependence_witness(
    g: MixedGraph, x: NodeSet, y: NodeSet, z: NodeSet
) -> Optional[PathWitness]:
    """Concentration-graph dependence, con(X, Y | Z): the unique simple
    path for the first pair A in X, B in Y with exactly one path avoiding
    (X|Y|Z) \\ {A, B}."""
    return dependence_witness(g, CONCENTRATION, x, y, z)


def conc_dependent(g: MixedGraph, x: NodeSet, y: NodeSet, z: NodeSet) -> bool:
    return dependence_witness(g, CONCENTRATION, x, y, z) is not None


def _partners(adj: Sequence[NodeSet], through: NodeSet) -> list[NodeSet]:
    """`reach[x]`, for each set x outside `through`: the nodes b outside it
    that some a in x joins by exactly one simple path inside {a, b} | `through`.
    The path is unique from both ends, so each pair is walked once."""
    free = ((1 << len(adj)) - 1) & ~through
    reach = [0] * (free + 1)
    for a in iter_nodes(free):
        for b in iter_nodes(free & -(2 << a)):
            if _unique_path(adj, a, b, through | bit(a) | bit(b)) is not None:
                reach[bit(a)] |= bit(b)
                reach[bit(b)] |= bit(a)
    x = 0
    while x != free:
        x = (x - free) & free  # the subsets of `free` in increasing order
        low = x & -x
        reach[x] = reach[x ^ low] | reach[low]
    return reach


def _dependence_row(g: MixedGraph, kind: GraphKind) -> list[bool]:
    """The kind's dependence verdict on each triple of
    `canonical_triples(g.n)`, by position, read from one `_partners` table
    per `through` set."""
    if g.n > MAX_SWEEP_NODES:
        raise SizeLimitError(f"dependence sweep limited to {MAX_SWEEP_NODES} nodes")
    _require_reading(g, kind)
    partners: dict[NodeSet, list[NodeSet]] = {}
    row = []
    for t in canonical_triples(g.n):
        via = through(g, kind, t.x, t.y, t.z)
        reach = partners.get(via)
        if reach is None:
            reach = partners[via] = _partners(g.und_adj, via)
        row.append(bool(reach[t.x] & t.y))
    return row


def all_dependencies(g: MixedGraph, kind: GraphKind) -> list[CITriple]:
    """Every canonical triple the kind's dependence criterion marks
    dependent, in deterministic order."""
    row = _dependence_row(g, kind)
    return list(compress(canonical_triples(g.n), row))
