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
from .separation import MAX_SWEEP_NODES, CITriple, canonical_triples, check_triple


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


def _first_unique_path(
    g: MixedGraph, x: NodeSet, y: NodeSet, through: NodeSet
) -> Optional[PathWitness]:
    """The unique path of the first pair A in X, B in Y that has exactly
    one simple path inside {A, B} | `through`."""
    adj = g.und_adj
    for a in iter_nodes(x):
        for b in iter_nodes(y):
            w = _unique_path(adj, a, b, through | bit(a) | bit(b))
            if w is not None:
                return w
    return None


def cov_dependence_witness(
    g: MixedGraph, x: NodeSet, y: NodeSet, z: NodeSet
) -> Optional[PathWitness]:
    """Covariance-graph dependence: a single simple path between some
    A in X and B in Y whose nodes all lie in {A, B} | Z."""
    check_triple(g, x, y, z)
    if not g.is_undirected_graph:
        raise ValueError("covariance reading requires an undirected graph")
    return _first_unique_path(g, x, y, z)


def cov_dependent(g: MixedGraph, x: NodeSet, y: NodeSet, z: NodeSet) -> bool:
    return cov_dependence_witness(g, x, y, z) is not None


def conc_dependence_witness(
    g: MixedGraph, x: NodeSet, y: NodeSet, z: NodeSet
) -> Optional[PathWitness]:
    """Concentration-graph dependence, con(X, Y | Z): the unique simple
    path for the first pair A in X, B in Y with exactly one path avoiding
    (X|Y|Z) \\ {A, B}."""
    check_triple(g, x, y, z)
    if not g.is_undirected_graph:
        raise ValueError("concentration reading requires an undirected graph")
    return _first_unique_path(g, x, y, g.full_mask & ~(x | y | z))


def conc_dependent(g: MixedGraph, x: NodeSet, y: NodeSet, z: NodeSet) -> bool:
    return conc_dependence_witness(g, x, y, z) is not None


DEPENDENCE_WITNESSES = {
    GraphKind.COVARIANCE: cov_dependence_witness,
    GraphKind.CONCENTRATION: conc_dependence_witness,
}


def all_dependencies(g: MixedGraph, kind: GraphKind) -> list[CITriple]:
    """Every canonical triple the kind's dependence criterion marks
    dependent, in deterministic order."""
    if g.n > MAX_SWEEP_NODES:
        raise SizeLimitError(f"dependence sweep limited to {MAX_SWEEP_NODES} nodes")
    witness = DEPENDENCE_WITNESSES.get(kind)
    if witness is None:
        raise ValueError("dependence criteria exist for covariance and "
                         "concentration readings only")
    return [
        t for t in canonical_triples(g.n)
        if witness(g, t.x, t.y, t.z) is not None
    ]
