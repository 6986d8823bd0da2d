"""Hypothesis strategies for small graphs, fixed adversarial graphs, and an
unfaithful model sampler."""

from __future__ import annotations

from itertools import combinations

from hypothesis import strategies as st

from covgraph import MixedGraph
from covgraph.gaussian import _draw
from covgraph.smallgraphs import default_labels


@st.composite
def ugs(draw, min_n: int = 1, max_n: int = 5):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    bits = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    edges = frozenset(p for k, p in enumerate(pairs) if (bits >> k) & 1)
    return MixedGraph(n, default_labels(n), edges, frozenset())


@st.composite
def mixed_graphs(draw, min_n: int = 1, max_n: int = 5):
    """Arbitrary mixed graphs: each unordered pair gets no edge, an
    undirected edge, or an arrow in either direction."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    und = set()
    dire = set()
    for i, j in combinations(range(n), 2):
        choice = draw(st.integers(min_value=0, max_value=3))
        if choice == 1:
            und.add((i, j))
        elif choice == 2:
            dire.add((i, j))
        elif choice == 3:
            dire.add((j, i))
    return MixedGraph(n, default_labels(n), frozenset(und), frozenset(dire))


@st.composite
def chain_graphs(draw, min_n: int = 1, max_n: int = 5):
    """Constructively valid chain graphs: nodes fall into ordered blocks,
    undirected edges stay within a block, arrows run from an earlier block
    to a later one.  Single block => UG, singleton blocks => DAG."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    block = [draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(n)]
    und = set()
    dire = set()
    for i, j in combinations(range(n), 2):
        if block[i] == block[j]:
            if draw(st.booleans()):
                und.add((i, j))
        else:
            lo, hi = (i, j) if block[i] < block[j] else (j, i)
            if draw(st.booleans()):
                dire.add((lo, hi))
    return MixedGraph(n, default_labels(n), frozenset(und), frozenset(dire))


@st.composite
def dags(draw, min_n: int = 1, max_n: int = 5):
    """Random DAG: edges only from lower to higher index, then a relabeling
    is unnecessary since any order works for tests."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    dire = set()
    for i, j in combinations(range(n), 2):
        if draw(st.booleans()):
            dire.add((i, j))
    return MixedGraph(n, default_labels(n), frozenset(), frozenset(dire))


@st.composite
def node_masks(draw, graph: MixedGraph):
    return draw(st.integers(min_value=0, max_value=graph.full_mask))


def dead_end_clique(k: int) -> MixedGraph:
    """Edge a-b plus a k-clique on a (a and k further nodes).  b is the
    last node, so a walk from a that tries neighbors in node order meets
    the clique first."""
    clique = [f"c{i}" for i in range(k)]
    edges = [("a", "b")] + [("a", c) for c in clique]
    edges += [(c, d) for c, d in combinations(clique, 2)]
    return MixedGraph.ug(["a", *clique, "b"], edges)


def complete_graph_draw(g: MixedGraph, seed: int) -> tuple[int, list[int], tuple[float, ...]]:
    """The draw `gaussian._draw` makes for the complete graph on g's
    labels.  Patched in as the sweeps' draw, it makes every missing edge
    of g read as a dependence."""
    return _draw(MixedGraph.ug(g.labels, combinations(g.labels, 2)), seed)
