"""Mixed graphs over a small vertex set, with node sets stored as bitmasks.

Nodes are the integers 0..n-1 (n <= 64), so every subset of the vertex set
fits into a single int used as a bitmask.  Graphs are immutable values;
all operations here are pure functions returning fresh objects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, Sequence

MAX_NODES = 64

# A NodeSet is a plain int bitmask over the vertex set: bit i <=> node i.
NodeSet = int


def bit(i: int) -> NodeSet:
    return 1 << i


def iter_nodes(mask: NodeSet) -> Iterator[int]:
    """Yield node indices of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: NodeSet) -> Iterator[NodeSet]:
    """All subsets of a mask, including the full mask and 0 (emitted last)."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def disjoint_splits(n: int, parts: int) -> Iterator[tuple[NodeSet, ...]]:
    """Every assignment of nodes 0..n-1 to `parts` numbered parts, as the
    tuple of part masks, in `itertools.product(range(parts), repeat=n)`
    order (node n-1 varies fastest)."""
    for assignment in product(range(parts), repeat=n):
        masks = [0] * parts
        for v, a in enumerate(assignment):
            masks[a] |= 1 << v
        yield tuple(masks)


def format_nodeset(mask: NodeSet, labels: Sequence[str]) -> str:
    """Comma-joined labels of a node set; '-' for the empty set."""
    if not mask:
        return "-"
    return ",".join(labels[i] for i in iter_nodes(mask))


def reachable(adj: Sequence[NodeSet], start: NodeSet, allowed: NodeSet) -> NodeSet:
    """All nodes reachable from `start` walking `adj` inside `allowed`.

    `start` is clipped to `allowed`; the result includes the start nodes.
    """
    reached = start & allowed
    frontier = reached
    while frontier:
        nxt = 0
        rest = frontier
        while rest:
            low = rest & -rest
            nxt |= adj[low.bit_length() - 1]
            rest ^= low
        nxt &= allowed & ~reached
        reached |= nxt
        frontier = nxt
    return reached


class GraphKind(enum.Enum):
    """How a graph is read as an independence model."""

    COVARIANCE = "covariance"
    CONCENTRATION = "concentration"
    DAG = "dag"
    CG = "cg"


class GraphParseError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SizeLimitError(ValueError):
    """An operation was asked to run above its supported node count."""


@dataclass(frozen=True)
class MixedGraph:
    """Graph with undirected and directed edges over nodes 0..n-1.

    `undirected` holds pairs (i, j) with i < j; `directed` holds
    (tail, head) arrows.  A pair may not carry both an undirected edge
    and an arrow, and self-loops are rejected; opposite arrows are
    representable (chain-graph validity rejects them separately).
    Node identity is the index; labels are display-only.  The adjacency
    masks are built once, by the validating constructor: `und_adj[v]`
    holds v's undirected neighbours, `pa_adj[v]` the tails of arrows into
    v, and `any_adj[v]` every node joined to v by any edge.
    """

    n: int
    labels: tuple[str, ...]
    undirected: frozenset[tuple[int, int]] = frozenset()
    directed: frozenset[tuple[int, int]] = frozenset()
    und_adj: tuple[NodeSet, ...] = field(init=False, repr=False, compare=False)
    pa_adj: tuple[NodeSet, ...] = field(init=False, repr=False, compare=False)
    any_adj: tuple[NodeSet, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_NODES:
            raise ValueError(f"node count {self.n} outside 0..{MAX_NODES}")
        if len(self.labels) != self.n:
            raise ValueError("label count does not match node count")
        if len(set(self.labels)) != self.n:
            raise ValueError("node labels must be unique")
        n = self.n
        und = [0] * n
        for i, j in self.undirected:
            if not 0 <= i < j < n:
                # the endpoint check comes first: a negative index would
                # wrap around the mask list instead of raising
                self._check_endpoints(i, j)
                raise ValueError(f"undirected pair ({i}, {j}) not normalized")
            und[i] |= 1 << j
            und[j] |= 1 << i
        pa = [0] * n
        any_ = list(und)
        for i, j in self.directed:
            if not (0 <= i < n and 0 <= j < n and i != j):
                self._check_endpoints(i, j)
            if (und[i] >> j) & 1:
                raise ValueError(
                    f"both an undirected edge and an arrow between "
                    f"{self.labels[i]} and {self.labels[j]}"
                )
            pa[j] |= 1 << i
            any_[i] |= 1 << j
            any_[j] |= 1 << i
        object.__setattr__(self, "und_adj", tuple(und))
        object.__setattr__(self, "pa_adj", tuple(pa))
        object.__setattr__(self, "any_adj", tuple(any_))

    def _check_endpoints(self, i: int, j: int) -> None:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"edge endpoint outside 0..{self.n - 1}")
        if i == j:
            raise ValueError(f"self-loop at node {self.labels[i]}")

    @classmethod
    def ug(cls, labels: Sequence[str], edges: Iterable[tuple[str, str]] = ()) -> "MixedGraph":
        """Build an undirected graph from label pairs."""
        labels = tuple(labels)
        und = frozenset((min(a, b), max(a, b)) for a, b in _index_pairs(labels, edges))
        return cls(len(labels), labels, und, frozenset())

    @classmethod
    def dag(cls, labels: Sequence[str], arrows: Iterable[tuple[str, str]] = ()) -> "MixedGraph":
        """Build a directed graph from (tail, head) label pairs."""
        labels = tuple(labels)
        return cls(len(labels), labels, frozenset(), frozenset(_index_pairs(labels, arrows)))

    @cached_property
    def full_mask(self) -> NodeSet:
        return (1 << self.n) - 1

    @cached_property
    def label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def back_adj(self) -> tuple[NodeSet, ...]:
        """v's undirected neighbours and parents: `ancestors` walks these."""
        return tuple(u | p for u, p in zip(self.und_adj, self.pa_adj))

    @cached_property
    def is_cg(self) -> bool:
        return not self.directed or is_chain_graph(self)

    def node_set(self, labels: Iterable[str]) -> NodeSet:
        """Resolve labels to a node mask; unknown labels raise ValueError."""
        m = 0
        for lab in labels:
            try:
                m |= 1 << self.label_index[lab]
            except KeyError:
                raise ValueError(f"unknown node label {lab!r}") from None
        return m


def _index_pairs(
    labels: Sequence[str], pairs: Iterable[tuple[str, str]]
) -> list[tuple[int, int]]:
    """Label pairs as node index pairs; unknown labels raise ValueError."""
    index = {lab: i for i, lab in enumerate(labels)}
    try:
        return [(index[a], index[b]) for a, b in pairs]
    except KeyError as exc:
        raise ValueError(f"unknown node label {exc.args[0]!r}") from None


def parse_graph(text: str) -> MixedGraph:
    """Parse the plain-text graph format.

    One statement per line: `node <label>` pre-declares a node,
    `<a> -- <b>` adds an undirected edge, `<a> -> <b>` adds an arrow.
    `#` starts a comment.  Node order is first appearance.  A label may
    not contain a comma (it could not be named in a comma-joined set) and
    may not be `-` (the rendering of the empty set).
    """
    labels: list[str] = []
    index: dict[str, int] = {}
    und: set[tuple[int, int]] = set()
    dire: set[tuple[int, int]] = set()
    pairs_seen: set[tuple[int, int]] = set()

    def declare(lab: str, line_no: int) -> int:
        """Add a label not seen yet; the caller looks it up first."""
        if "," in lab or lab == "-":
            raise GraphParseError(f"invalid node label {lab!r}", line_no)
        if len(labels) >= MAX_NODES:
            raise GraphParseError(f"more than {MAX_NODES} nodes (at {lab!r})", line_no)
        index[lab] = i = len(labels)
        labels.append(lab)
        return i

    for line_no, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        tokens = line.split()
        if len(tokens) == 3 and tokens[1] in ("--", "->"):
            ta, op, tb = tokens
            a = index.get(ta)
            if a is None:
                a = declare(ta, line_no)
            b = index.get(tb)
            if b is None:
                b = declare(tb, line_no)
            if a == b:
                raise GraphParseError(f"self-loop at {ta!r}", line_no)
            pair = (a, b) if a < b else (b, a)
            if pair in pairs_seen:
                raise GraphParseError(f"duplicate edge between {ta!r} and {tb!r}", line_no)
            pairs_seen.add(pair)
            if op == "--":
                und.add(pair)
            else:
                dire.add((a, b))
        elif len(tokens) == 2 and tokens[0] == "node":
            if tokens[1] not in index:
                declare(tokens[1], line_no)
        elif tokens:
            raise GraphParseError(f"unrecognized statement {line.strip()!r}", line_no)

    return MixedGraph(len(labels), tuple(labels), frozenset(und), frozenset(dire))


def format_graph(g: MixedGraph) -> str:
    """Render a graph in the parse_graph text format (round-trips)."""
    lines = [f"node {lab}" for lab in g.labels]
    for i, j in sorted(g.undirected):
        lines.append(f"{g.labels[i]} -- {g.labels[j]}")
    for i, j in sorted(g.directed):
        lines.append(f"{g.labels[i]} -> {g.labels[j]}")
    return "\n".join(lines) + "\n"


def ancestors(g: MixedGraph, targets: NodeSet) -> NodeSet:
    """Nodes with a route into `targets` using undirected or forward
    directed steps, plus `targets` itself."""
    if targets & ~g.full_mask:
        raise ValueError("target set contains nodes outside the graph")
    return reachable(g.back_adj, targets, g.full_mask)


def components(adj: Sequence[NodeSet], within: NodeSet) -> list[NodeSet]:
    """Partition of `within` into the maximal sets connected by `adj`
    inside it, ordered by smallest member."""
    comps = []
    while within:
        low = within & -within
        # a node with no neighbour inside `within` is its own component
        comp = reachable(adj, low, within) if adj[low.bit_length() - 1] & within else low
        comps.append(comp)
        within &= ~comp
    return comps


def connectivity_components(g: MixedGraph) -> list[NodeSet]:
    """Partition of the nodes into maximal undirected-route-connected sets,
    ordered by smallest member."""
    return components(g.und_adj, g.full_mask)


def is_chain_graph(g: MixedGraph) -> bool:
    """True iff no semi-directed cycle exists (no node is its own
    descendant).  Checked on the condensation by undirected components."""
    comps = connectivity_components(g)
    comp_id: dict[int, int] = {}
    for ci, comp in enumerate(comps):
        for v in iter_nodes(comp):
            comp_id[v] = ci
    k = len(comps)
    succ: list[set[int]] = [set() for _ in range(k)]
    indeg = [0] * k
    for u, v in g.directed:
        cu, cv = comp_id[u], comp_id[v]
        if cu == cv:
            return False
        if cv not in succ[cu]:
            succ[cu].add(cv)
            indeg[cv] += 1
    queue = [c for c in range(k) if indeg[c] == 0]
    seen = 0
    while queue:
        c = queue.pop()
        seen += 1
        for d in succ[c]:
            indeg[d] -= 1
            if indeg[d] == 0:
                queue.append(d)
    return seen == k


@dataclass(frozen=True)
class LatentDag:
    """DAG over the original nodes plus one latent collider per edge."""

    dag: MixedGraph
    latents: tuple[tuple[int, int, int], ...]  # (a, b, latent index)


def latent_dag(g: MixedGraph) -> LatentDag:
    """Replace each edge A - B by A <- L -> B with a fresh latent L.

    Original nodes keep their indices (and gain no outgoing arrows);
    latents are appended in sorted edge order and named after their
    endpoints' labels.  d-separation in the result, over the original
    nodes, matches the covariance criterion on g exactly;
    `covgraph.verify` checks this.
    """
    if g.directed:
        raise ValueError("the latent construction starts from an undirected graph")
    edges = sorted(g.undirected)
    if g.n + len(edges) > MAX_NODES:
        raise SizeLimitError("latent construction would exceed the node capacity")
    labels = list(g.labels)
    arrows = []
    latents = []
    for idx, (a, b) in enumerate(edges):
        latent = g.n + idx
        name = "L_{}_{}".format(*sorted((g.labels[a], g.labels[b])))
        if name in g.label_index or name in labels[g.n:]:
            raise ValueError(f"latent label {name!r} collides with an existing label")
        labels.append(name)
        arrows.append((latent, a))
        arrows.append((latent, b))
        latents.append((a, b, latent))
    dag = MixedGraph(len(labels), tuple(labels), frozenset(), frozenset(arrows))
    return LatentDag(dag, tuple(latents))


def is_forest(g: MixedGraph) -> bool:
    """True iff the undirected graph is acyclic.  On a forest the
    single-path dependence criterion is the exact complement of the
    independence criterion; `covgraph.verify` checks this triple by
    triple."""
    if g.directed:
        raise ValueError("forest test is defined for undirected graphs")
    return len(g.undirected) == g.n - len(connectivity_components(g))
