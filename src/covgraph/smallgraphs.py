"""Enumeration and sampling of small undirected graphs for sweeps, one
graph at a time or as lanes: one graph per bit of an int."""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import combinations
from operator import and_, or_
from typing import Iterator, Sequence

from .graphs import MixedGraph, iter_nodes


def default_labels(n: int) -> tuple[str, ...]:
    if n > 26:
        raise ValueError("default labels cover at most 26 nodes")
    return tuple(string.ascii_uppercase[:n])


@lru_cache(maxsize=None)
def node_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """`combinations(range(n), 2)`, built once per size: pair e is edge
    bit e of every graph code here."""
    return tuple(combinations(range(n), 2))


def _from_edge_bits(n: int, bits: int) -> MixedGraph:
    edges = frozenset(p for k, p in enumerate(node_pairs(n)) if (bits >> k) & 1)
    return MixedGraph(n, default_labels(n), edges, frozenset())


def all_ugs(n: int) -> Iterator[MixedGraph]:
    """Every labeled undirected graph on n nodes."""
    for bits in range(1 << len(node_pairs(n))):
        yield _from_edge_bits(n, bits)


def random_ug(n: int, rng: random.Random) -> MixedGraph:
    """One labeled undirected graph drawn uniformly."""
    return _from_edge_bits(n, rng.getrandbits(len(node_pairs(n))))


def connected_ugs(n: int) -> Iterator[MixedGraph]:
    """The connected graphs among `all_ugs(n)`, in its order."""
    lanes = all_ug_lanes(n)
    return map(lanes.graph, iter_nodes(lanes.connected()))


def all_forests(n: int) -> Iterator[MixedGraph]:
    """The forests among `all_ugs(n)`, in its order."""
    lanes = all_ug_lanes(n)
    return map(lanes.graph, iter_nodes(lanes.forests()))


@dataclass(frozen=True)
class UGLanes:
    """A family of labeled n-node UGs, one per lane: bit k of every lane
    mask stands for the graph whose edge bits, numbered as `all_ugs`
    numbers them, are `graphs[k]`.  `adj[u][v]` is the mask of the lanes
    whose graph has the edge u-v (0 when u == v), so a verdict on every
    graph of the family is one int."""

    n: int
    graphs: Sequence[int]
    adj: tuple[tuple[int, ...], ...]

    @cached_property
    def full(self) -> int:
        """The mask of every lane, built once per family."""
        return (1 << len(self.graphs)) - 1

    def graph(self, k: int) -> MixedGraph:
        """The graph of lane k."""
        return _from_edge_bits(self.n, self.graphs[k])

    def connected(self) -> int:
        """The lanes whose graph is connected.  Node 0's reach grows along
        every edge for n - 1 rounds; a shortest path has at most n - 1
        edges, and each round extends the reach by at least one step of
        it.  A lane is connected where its reach holds every node.  With
        no nodes there is no reach and no lane: `connected_ugs(0)` is empty."""
        if not self.n:
            return 0
        reach = [self.full] + [0] * (self.n - 1)
        for _ in range(self.n - 1):
            for u, row in enumerate(self.adj):
                for v, edge in enumerate(row):
                    reach[v] |= reach[u] & edge
        return reduce(and_, reach)

    def forests(self) -> int:
        """The lanes whose graph is a forest, that is, has an empty 2-core (Seidman
        1983, "Network structure and minimum degree").  Each round peels every node
        from the lanes where it keeps fewer than two neighbours, counted in two bits
        per lane that saturate at two.  A forest minus any nodes is a forest with a
        node of at most one neighbour, peeled in the round that visits it, so n rounds
        empty every forest lane; a node on a cycle keeps both cycle neighbours."""
        left = [self.full] * self.n
        for _ in range(self.n):
            for v, row in enumerate(self.adj):
                ones = twos = 0
                for lanes, edge in zip(left, row):
                    step = lanes & edge
                    twos |= ones & step
                    ones |= step
                left[v] &= twos
        return self.full & ~reduce(or_, left, 0)


def _ug_lanes(n: int, graphs: Sequence[int], edges: list[int]) -> UGLanes:
    """The family `graphs`, given the lane mask of each pair of
    `node_pairs(n)`."""
    adj = [[0] * n for _ in range(n)]
    for (u, v), lanes in zip(node_pairs(n), edges):
        adj[u][v] = adj[v][u] = lanes
    return UGLanes(n, graphs, tuple(map(tuple, adj)))


def all_ug_lanes(n: int) -> UGLanes:
    """`all_ugs(n)` as lanes: lane k holds graph k.  The masks double once
    per pair e: lanes 2**e..2**(e+1) - 1 repeat lanes 0..2**e - 1, and
    only the repeat holds pair e."""
    edges: list[int] = []
    for e in range(n * (n - 1) // 2):
        half = 1 << e
        edges = [lanes | lanes << half for lanes in edges] + [((1 << half) - 1) << half]
    return _ug_lanes(n, range(1 << len(edges)), edges)


def random_ug_lanes(n: int, count: int, rng: random.Random) -> UGLanes:
    """The graphs that `count` calls of `random_ug(n, rng)` would draw,
    as lanes in draw order."""
    pairs = node_pairs(n)
    graphs = [rng.getrandbits(len(pairs)) for _ in range(count)]
    # each pair's lane mask as a binary numeral, lane k its k-th digit
    # from the right
    edges = [int("".join("01"[bits >> e & 1] for bits in reversed(graphs)) or "0", 2)
             for e in range(len(pairs))]
    return _ug_lanes(n, graphs, edges)
