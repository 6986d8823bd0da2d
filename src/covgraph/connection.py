"""Graphical dependence criteria for undirected graphs.

X is connected to Y given Z when some pair A in X, B in Y is joined by
exactly one simple path avoiding (X|Y|Z) \\ {A, B}: a single surviving
path cannot be cancelled, so the dependence is forced.  The covariance
reading conditions on the complement of X|Y|Z, which turns the criterion
into "a single path whose nodes all lie in {A, B} | Z".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import (
    GraphKind,
    MixedGraph,
    NodeSet,
    SizeLimitError,
    bit,
    iter_nodes,
    reachable,
)
from .separation import (CONCENTRATION, COVARIANCE, MAX_SWEEP_NODES, UG_READINGS, CITriple,
                         canonical_triples, check_triple, require_kind, through)


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


def all_dependencies(g: MixedGraph, kind: GraphKind) -> list[CITriple]:
    """Every canonical triple the kind's dependence criterion marks
    dependent, in deterministic order, read from one `_partners` table per
    `through` set."""
    if g.n > MAX_SWEEP_NODES:
        raise SizeLimitError(f"dependence sweep limited to {MAX_SWEEP_NODES} nodes")
    _require_reading(g, kind)
    partners: dict[NodeSet, list[NodeSet]] = {}
    out = []
    for t in canonical_triples(g.n):
        via = through(g, kind, t.x, t.y, t.z)
        if via not in partners:
            partners[via] = _partners(g.und_adj, via)
        if partners[via][t.x] & t.y:
            out.append(t)
    return out
