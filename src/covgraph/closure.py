"""Saturation of the edge-dependence base under the graphoid rules.

Adjacent nodes of a covariance graph are marginally dependent; further
dependencies follow by the contrapositive forms of the graphoid
properties plus weak transitivity and composition (nine rules in all).
Independence antecedents are read from the graph's covariance
independence row, never from absence from the closure.  The engine
materializes the finite statement universe and sweeps every disjoint
split of the vertex set until fixpoint, recording the first derivation
per statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, compress
from typing import Sequence

from .graphs import (GraphKind, MixedGraph, SizeLimitError, bit, disjoint_splits,
                     format_nodeset, iter_nodes)
from .separation import CITriple, _independence_row, canonical_triples, check_triple

RULE_BASE = "base"
RULE_SYMMETRY = "symmetry"  # absorbed: both orders of X and Y have one position
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
    """What `saturate` computed, indexed by position in
    `canonical_triples(graph.n)`.

    `row[p]` says whether statement p is in the closure, and
    `derivations[p]` is its first derivation: the rule, the positions of
    the dependence antecedents and the positions of the independence
    antecedents (None for a statement outside the closure).  `order`
    lists the established positions in the order they were derived, each
    after its dependence antecedents.  `established` and `provenance` are
    views of this table, built on first access; so are the `explain`
    trees, rendered once per state in that order.
    """

    graph: MixedGraph
    sweeps: int
    row: list[bool]
    derivations: list[tuple[str, tuple[int, ...], tuple[int, ...]] | None]
    order: list[int]

    @cached_property
    def established(self) -> frozenset[CITriple]:
        return frozenset(compress(canonical_triples(self.graph.n), self.row))

    @cached_property
    def provenance(self) -> dict[CITriple, Derivation]:
        """First derivation of each statement, in the order they were made."""
        triple = canonical_triples(self.graph.n).__getitem__
        out = {}
        for p in self.order:
            rule, deps, indeps = self.derivations[p]
            out[triple(p)] = Derivation(rule, tuple(map(triple, deps)),
                                        tuple(map(triple, indeps)))
        return out

    @cached_property
    def set_names(self) -> tuple[str, ...]:
        """The name of every node set of the graph, indexed by mask."""
        return tuple(format_nodeset(m, self.graph.labels) for m in range(1 << self.graph.n))

    @cached_property
    def _trees(self) -> list[str | None]:
        """The rendered derivation tree of every established statement (None
        elsewhere), built in one loop over `order`: `saturate` derives each
        dependence antecedent before the statement that uses it, so its
        tree is ready to indent into its user's."""
        trees: list[str | None] = [None] * len(self.row)
        render = self.render
        for p in self.order:
            rule, deps, indeps = self.derivations[p]
            text = f"{render(p)}  [{rule}]"
            for i in indeps:
                text += f"\n  {render(i)}  [independent by graph]"
            for dep in deps:
                text += "\n  " + trees[dep].replace("\n", "\n  ")
            trees[p] = text
        return trees

    def position(self, t: CITriple) -> int:
        """The position of t in `canonical_triples(n)`; refuses a triple
        naming nodes outside the graph."""
        g = self.graph
        check_triple(g, t.x, t.y, t.z)
        return _positions(g.n)[t.x | t.y << g.n | t.z << 2 * g.n]

    def render(self, p: int) -> str:
        """Statement p as `X ; Y ; Z`."""
        t = canonical_triples(self.graph.n)[p]
        names = self.set_names
        return f"{names[t.x]} ; {names[t.y]} ; {names[t.z]}"

    def sorted_statements(self) -> list[CITriple]:
        # `canonical_triples` is already sorted by `CITriple.sort_key`.
        return list(compress(canonical_triples(self.graph.n), self.row))


@lru_cache(maxsize=None)
def _positions(n: int) -> dict[int, int]:
    """The position in `canonical_triples(n)` of the statement (X, Y, Z),
    keyed by `x | y << n | z << 2*n` under both orders of X and Y."""
    n2 = 2 * n
    return {k: p for p, t in enumerate(canonical_triples(n))
            for k in (t.x | t.y << n | t.z << n2, t.y | t.x << n | t.z << n2)}


@lru_cache(maxsize=None)
def _sites(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The canonical positions of the statements each rule site reads.

    Set sites, one per (X, Y, Z, W) with X, Y, W nonempty and X, Y, Z, W
    disjoint: (X,Y,Z), (X,Y,ZW), (X,YW,Z), (X,W,Z), (X,W,ZY).
    Node sites, one per (X, Y, Z, K) with X, Y nonempty, K a single node,
    all disjoint: (X,K,Z), (K,Y,Z), (X,Y,Z), (X,Y,ZK).
    """
    n2 = 2 * n
    positions = _positions(n)

    def pos(x: int, y: int, z: int) -> int:
        return positions[x | y << n | z << n2]

    set_sites = tuple(
        (pos(x, y, z), pos(x, y, z | w), pos(x, y | w, z), pos(x, w, z), pos(x, w, z | y))
        for x, y, z, w, _rest in disjoint_splits(n, 5)
        if x and y and w
    )
    node_sites = tuple(
        (pos(x, k, z), pos(k, y, z), pos(x, y, z), pos(x, y, z | k))
        for x, y, z, rest in disjoint_splits(n, 4)
        if x and y
        for k in map(bit, iter_nodes(rest))
    )
    return set_sites, node_sites


def saturate(g: MixedGraph) -> ClosureState:
    """Least fixpoint of the nine rules over the dependence base.

    A statement is its position in `canonical_triples(g.n)`, so each
    independence antecedent is one entry of the covariance independence
    row.  The base is canonical order's opening block, as in `_lane_closure`,
    so equal graphs give equal states.  The order of `_sites` decides
    first derivations, not the closure.
    """
    if g.directed:
        raise ValueError("closure is defined for covariance (undirected) graphs")
    if g.n > MAX_CLOSURE_NODES:
        raise SizeLimitError(f"closure limited to {MAX_CLOSURE_NODES} nodes")

    # est[p]: statement p is in the closure; indep[p]: the graph reads it
    # independent.  `order` keeps the established positions in the order
    # their first derivations were made.
    n = g.n

    def add(p, rule, deps, indeps) -> None:
        est[p] = True
        derivations[p] = (rule, deps, indeps)
        order.append(p)

    indep = _independence_row(g, GraphKind.COVARIANCE)
    est = [False] * len(indep)
    derivations = [None] * len(indep)
    order: list[int] = []
    for p, pair in enumerate(combinations(range(n), 2)):
        if pair in g.undirected:
            add(p, RULE_BASE, (), ())

    set_sites, node_sites = _sites(n)

    # Each rule tests its target before adding it: most derivations
    # re-derive a statement already established.  A sweep that adds
    # nothing ends the fixpoint.
    sweeps = 0
    size = -1
    while size != len(order):
        size = len(order)
        sweeps += 1
        for small, moved, wide, xwz, xwzy in set_sites:
            if not est[wide]:
                if est[small]:
                    add(wide, RULE_DECOMPOSITION, (small,), ())
                elif est[moved]:
                    add(wide, RULE_WEAK_UNION, (moved,), ())
                else:
                    continue
            if indep[moved]:
                if not est[xwz]:
                    add(xwz, RULE_CONTRACTION1, (wide,), (moved,))
                if not est[xwzy]:
                    add(xwzy, RULE_INTERSECTION, (wide,), (moved,))
            if indep[xwz] and not est[moved]:
                add(moved, RULE_CONTRACTION2, (wide,), (xwz,))
            if indep[small] and not est[xwz]:
                add(xwz, RULE_COMPOSITION, (wide,), (small,))
        for first, second, xyz, xyzk in node_sites:
            if est[first] and est[second]:
                if indep[xyz] and not est[xyzk]:
                    add(xyzk, RULE_WEAK_TRANSITIVITY1, (first, second), (xyz,))
                if indep[xyzk] and not est[xyz]:
                    add(xyz, RULE_WEAK_TRANSITIVITY2, (first, second), (xyzk,))

    return ClosureState(g, sweeps, est, derivations, order)


class NotEstablishedError(ValueError):
    pass


def explain(state: ClosureState, triple: CITriple) -> str:
    """Derivation tree of an established statement, down to base edges and
    graph-certified independencies.  The first call renders the tree of
    every statement of the state, in derivation order, and every call
    after it is one lookup."""
    p = state.position(triple)
    if not state.row[p]:
        raise NotEstablishedError(
            f"{triple.render(state.graph.labels)} is not in the closure"
        )
    return state._trees[p]


def _lane_closure(adj: Sequence[Sequence[int]], indep: list[int]) -> list[int]:
    """`saturate`'s row for every graph of a `UGLanes` family at once:
    bit k of entry p says whether statement p is in graph k's closure.
    `adj` is the family's lane adjacency and `indep` its lane covariance
    independence row.  The fixpoint sweeps the same `_sites(n)`, each of
    `saturate`'s tests becoming a mask of lanes: a rule adds its target in
    the lanes where its antecedents hold.  It records no derivations.  Its
    base is canonical order's opening block, {i} ; {j} ; ∅ in pair order."""
    n = len(adj)
    est = [adj[i][j] for i, j in combinations(range(n), 2)]
    est += [0] * (len(indep) - len(est))
    set_sites, node_sites = _sites(n)
    before = None
    while est != before:
        before = est[:]
        for small, moved, wide, xwz, xwzy in set_sites:
            w = est[wide] | est[small] | est[moved]
            if w:
                est[wide] = w
                by_moved = w & indep[moved]
                est[xwz] |= by_moved | w & indep[small]
                est[xwzy] |= by_moved
                est[moved] |= w & indep[xwz]
        for first, second, xyz, xyzk in node_sites:
            both = est[first] & est[second]
            if both:
                est[xyzk] |= both & indep[xyz]
                est[xyz] |= both & indep[xyzk]
    return est
