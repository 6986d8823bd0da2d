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

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import compress

from .graphs import (GraphKind, MixedGraph, SizeLimitError, bit, disjoint_splits,
                     format_nodeset, iter_nodes)
from .separation import CITriple, _independence_row, canonical_triples, check_triple

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
    # Filled by `explain`: the rendered tree of each statement explained so far.
    trees: dict[CITriple, str] = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def set_names(self) -> tuple[str, ...]:
        """The name of every node set of the graph, indexed by mask."""
        return tuple(format_nodeset(m, self.graph.labels) for m in range(1 << self.graph.n))

    def sorted_statements(self) -> list[CITriple]:
        # `canonical_triples` is already sorted by `CITriple.sort_key`.
        established = self.established
        return [t for t in canonical_triples(self.graph.n) if t in established]


@lru_cache(maxsize=None)
def _sites(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The statement keys each rule site reads, the key of (X, Y, Z) being
    `x | y << n | z << 2*n`.

    Set sites, one per (X, Y, Z, W) with X, Y, W nonempty and X, Y, Z, W
    disjoint: the keys of (X,Y,Z), (X,Y,ZW), (X,YW,Z), (X,W,Z), (X,W,ZY).
    Node sites, one per (X, Y, Z, K) with X, Y nonempty, K a single node,
    all disjoint: the keys of (X,K,Z), (K,Y,Z), (X,Y,Z), (X,Y,ZK).
    Equal keys are interned to one int object, which keeps the tables small.
    """
    n2 = 2 * n
    interned: dict[int, int] = {}

    def key(x: int, y: int, z: int) -> int:
        k = x | y << n | z << n2
        return interned.setdefault(k, k)

    set_sites = tuple(
        (key(x, y, z), key(x, y, z | w), key(x, y | w, z), key(x, w, z), key(x, w, z | y))
        for x, y, z, w, _rest in disjoint_splits(n, 5)
        if x and y and w
    )
    node_sites = tuple(
        (key(x, k, z), key(k, y, z), key(x, y, z), key(x, y, z | k))
        for x, y, z, rest in disjoint_splits(n, 4)
        if x and y
        for k in map(bit, iter_nodes(rest))
    )
    return set_sites, node_sites


def _keys(t: CITriple, n: int) -> tuple[int, int]:
    """The statement keys of t (see `_sites`) under both orders of X and Y."""
    z = t.z << 2 * n
    return t.x | t.y << n | z, t.y | t.x << n | z


@lru_cache(maxsize=None)
def _triples(n: int) -> dict[int, CITriple]:
    """The triple of each statement key: both orders of X and Y map to the
    one object in `canonical_triples(n)`, so the closure builds no triple
    of its own."""
    return {k: t for t in canonical_triples(n) for k in _keys(t, n)}


def saturate(g: MixedGraph, _reverse_sweep: bool = False) -> ClosureState:
    """Least fixpoint of the nine rules over the dependence base.

    `_reverse_sweep` flips the split and rule application order; the
    resulting established set must not change (only provenance may).
    """
    if g.directed:
        raise ValueError("closure is defined for covariance (undirected) graphs")
    if g.n > MAX_CLOSURE_NODES:
        raise SizeLimitError(f"closure limited to {MAX_CLOSURE_NODES} nodes")

    # Statements are int keys (see `_sites`), stored under both orders of
    # X and Y, so no lookup has to put a triple into canonical form first.
    n = g.n
    triple = _triples(n).__getitem__

    def add(k, rule, deps, indeps) -> None:
        t = triple(k)
        est.update(_keys(t, n))
        provenance[t] = Derivation(rule, tuple(map(triple, deps)), tuple(map(triple, indeps)))

    row = _independence_row(g, GraphKind.COVARIANCE)
    indep = {k for t in compress(canonical_triples(n), row) for k in _keys(t, n)}
    est: set[int] = set()
    provenance: dict[CITriple, Derivation] = {}
    for i, j in g.undirected:
        add(bit(i) | bit(j) << n, RULE_BASE, (), ())

    set_sites, node_sites = _sites(n)
    if _reverse_sweep:
        set_sites = tuple(reversed(set_sites))
        node_sites = tuple(reversed(node_sites))

    # Each rule tests its target before adding it: most derivations
    # re-derive a statement already established.  A sweep that adds
    # nothing ends the fixpoint.
    sweeps = 0
    size = -1
    while size != len(est):
        size = len(est)
        sweeps += 1
        for small, moved, wide, xwz, xwzy in set_sites:
            if wide not in est:
                if small in est:
                    add(wide, RULE_DECOMPOSITION, (small,), ())
                elif moved in est:
                    add(wide, RULE_WEAK_UNION, (moved,), ())
                else:
                    continue
            if moved in indep:
                if xwz not in est:
                    add(xwz, RULE_CONTRACTION1, (wide,), (moved,))
                if xwzy not in est:
                    add(xwzy, RULE_INTERSECTION, (wide,), (moved,))
            if xwz in indep and moved not in est:
                add(moved, RULE_CONTRACTION2, (wide,), (xwz,))
            if small in indep and xwz not in est:
                add(xwz, RULE_COMPOSITION, (wide,), (small,))
        for first, second, xyz, xyzk in node_sites:
            if first in est and second in est:
                if xyz in indep and xyzk not in est:
                    add(xyzk, RULE_WEAK_TRANSITIVITY1, (first, second), (xyz,))
                if xyzk in indep and xyz not in est:
                    add(xyz, RULE_WEAK_TRANSITIVITY2, (first, second), (xyzk,))

    return ClosureState(g, frozenset(provenance), provenance, sweeps)


class NotEstablishedError(ValueError):
    pass


def explain(state: ClosureState, triple: CITriple) -> str:
    """Derivation tree of an established statement, down to base edges and
    graph-certified independencies.  Each subtree is rendered once per
    state and reused by every tree that contains it."""
    check_triple(state.graph, triple.x, triple.y, triple.z)
    if triple not in state.established:
        raise NotEstablishedError(
            f"{triple.render(state.graph.labels)} is not in the closure"
        )
    return _tree(state, triple)


def _tree(state: ClosureState, t: CITriple) -> str:
    # Module level, not nested in `explain`: a recursive nested function
    # refers to itself through its closure cell, and that cycle would keep
    # the state and its memo alive until the cyclic collector runs.
    text = state.trees.get(t)
    if text is None:
        names = state.set_names
        d = state.provenance[t]
        lines = [f"{names[t.x]} ; {names[t.y]} ; {names[t.z]}  [{d.rule}]"]
        lines += [f"  {names[i.x]} ; {names[i.y]} ; {names[i.z]}  [independent by graph]"
                  for i in d.independencies]
        lines += ["  " + _tree(state, dep).replace("\n", "\n  ") for dep in d.dependencies]
        text = state.trees[t] = "\n".join(lines)
    return text
