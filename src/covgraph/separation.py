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
    _lane_reach,
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


def through(full: NodeSet, kind: GraphKind, x: NodeSet, y: NodeSet, z: NodeSet) -> NodeSet:
    """The nodes an X-Y path may use besides X and Y under the reading,
    among the nodes `full`: Z for covariance, the complement of X|Y|Z
    otherwise.  The covariance reading of (X, Y, Z) is the concentration
    reading of (X, Y, V minus X|Y|Z), so this is the one place the two
    readings differ."""
    return z if kind is COVARIANCE else full & ~(x | y | z)


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
        return not (reachable(g.und_adj, x, x | y | through(g.full_mask, kind, x, y, z)) & y)
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


@lru_cache(maxsize=1)
def _reach_table(adj: tuple[NodeSet, ...]) -> tuple[NodeSet, ...]:
    """`reach[s << n | x]`, for each node set s and each x inside it: the
    nodes of s that x reaches inside the subgraph induced by s.  One
    `reachable` pass per component of each s; the component masks are
    then folded over the subsets of s in increasing order.

    Memoized on the adjacency tuple for the last graph, a tuple because
    every caller shares it: `verify_forest_faithfulness`, and `saturate`
    followed by `all_dependencies`, read one graph's independence and
    dependence rows back to back from one table."""
    n = len(adj)
    reach = [0] * (1 << 2 * n)
    for s in range(1, 1 << n):
        base = s << n
        rest = s
        while rest:
            comp = node = reachable(adj, rest & -rest, s)
            rest ^= comp
            while node:
                low = node & -node
                reach[base | low] = comp
                node ^= low
        x = 0
        while x != s:
            x = (x - s) & s  # the subsets of s in increasing order
            low = x & -x
            reach[base | x] = reach[base | x ^ low] | reach[base | low]
    return tuple(reach)


@lru_cache(maxsize=None)
def _independence_plan(n: int, kind: GraphKind) -> tuple[tuple[int, NodeSet], ...]:
    """(reach index, Y) for each entry (through, X, Y) of `_dependence_plan`:
    the index is `(X|Y|through) << n | X`, that is `(X|Y|Z) << n | X` for
    covariance and `(V minus Z) << n | X` for concentration."""
    return tuple(((x | y | via) << n | x, y) for via, x, y in _dependence_plan(n, kind))


def _independence_row(g: MixedGraph, kind: GraphKind) -> list[bool]:
    """The criterion's verdict on each triple of `canonical_triples(g.n)`,
    by position.  The covariance and concentration readings read every
    triple from the graph's `_reach_table` through `_independence_plan`:
    X and Y are independent when X reaches no node of Y inside
    X|Y|through.  The DAG and CG readings call `_independent` per triple,
    sharing its moral-graph cache."""
    if g.n > MAX_SWEEP_NODES:
        raise SizeLimitError(f"independence sweep limited to {MAX_SWEEP_NODES} nodes")
    require_kind(g, kind)
    # Canonical triples are valid by construction, and `require_kind` has
    # checked the reading, so the test runs without the per-call checks.
    if kind in UG_READINGS:
        reach = _reach_table(g.und_adj)
        return [not reach[i] & y for i, y in _independence_plan(g.n, kind)]
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
        if len(self.nodes) < 2:
            raise ValueError("a path needs at least two nodes")
        if not all(0 <= v < g.n for v in self.nodes):
            raise ValueError("path mentions nodes outside the graph")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("path nodes must be distinct")
        for u, v in zip(self.nodes, self.nodes[1:]):
            if not (g.und_adj[u] >> v) & 1:
                raise ValueError(f"nodes {u} and {v} are not adjacent")

    def render(self, labels) -> str:
        return "-".join(labels[v] for v in self.nodes)


def _unique_path(adj: Sequence[NodeSet], a: int, b: int, allowed: NodeSet,
                 reach: Optional[Sequence[NodeSet]] = None) -> Optional[PathWitness]:
    """The simple path a..b inside `allowed` if it is the only one, else
    None.  `a` and `b` must differ and both lie in `allowed`.

    Walks back from b: every a..v path enters v from the part of `allowed`
    that a reaches without v, so v needs exactly one neighbor u there, and
    the a..v paths are then exactly the a..u paths inside that part.  Each
    step looks that part up in `reach`, the graph's `_reach_table`, when
    given one, and calls `reachable` otherwise.
    """
    n = len(adj)
    path = [b]
    v = b
    while v != a:
        rest = allowed & ~(1 << v)
        allowed = reachable(adj, 1 << a, rest) if reach is None else reach[rest << n | 1 << a]
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
    exactly one path inside {A, B} | `through`, or None."""
    check_triple(g, x, y, z)
    _require_reading(g, kind)
    via = through(g.full_mask, kind, x, y, z)
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


def _partners(adj: Sequence[NodeSet], through: NodeSet, table: Sequence[NodeSet]) -> list[NodeSet]:
    """`reach[x]`, for each set x outside `through`: the nodes b outside it
    that some a in x joins by exactly one simple path inside {a, b} | `through`.
    The path is unique from both ends, so each pair is walked once, by
    lookups in `table`, the graph's `_reach_table`."""
    free = ((1 << len(adj)) - 1) & ~through
    reach = [0] * (free + 1)
    for a in iter_nodes(free):
        for b in iter_nodes(free & -(2 << a)):
            if _unique_path(adj, a, b, through | bit(a) | bit(b), table) is not None:
                reach[bit(a)] |= bit(b)
                reach[bit(b)] |= bit(a)
    x = 0
    while x != free:
        x = (x - free) & free  # the subsets of `free` in increasing order
        low = x & -x
        reach[x] = reach[x ^ low] | reach[low]
    return reach


@lru_cache(maxsize=None)
def _dependence_plan(n: int, kind: GraphKind) -> tuple[tuple[NodeSet, NodeSet, NodeSet], ...]:
    """(`through`, X, Y) for each triple of `canonical_triples(n)` under a
    UG reading."""
    full = (1 << n) - 1
    return tuple((through(full, kind, t.x, t.y, t.z), t.x, t.y) for t in canonical_triples(n))


def _dependence_row(g: MixedGraph, kind: GraphKind) -> list[bool]:
    """The kind's dependence verdict on each triple of
    `canonical_triples(g.n)`, by position, through `_dependence_plan`:
    one `_partners` table per `through` set, its walks reading the graph's
    `_reach_table`, the table the independence rows read."""
    if g.n > MAX_SWEEP_NODES:
        raise SizeLimitError(f"dependence sweep limited to {MAX_SWEEP_NODES} nodes")
    _require_reading(g, kind)
    adj = g.und_adj
    table = _reach_table(adj)
    partners: dict[NodeSet, list[NodeSet]] = {}
    row = []
    for via, x, y in _dependence_plan(g.n, kind):
        reach = partners.get(via)
        if reach is None:
            reach = partners[via] = _partners(adj, via, table)
        row.append(bool(reach[x] & y))
    return row


def all_dependencies(g: MixedGraph, kind: GraphKind) -> list[CITriple]:
    """Every canonical triple the kind's dependence criterion marks
    dependent, in deterministic order."""
    row = _dependence_row(g, kind)
    return list(compress(canonical_triples(g.n), row))


# Lane rows: every graph of a `smallgraphs.UGLanes` family at once.  Entry
# p of a lane row is an int whose bit k is graph k's verdict on triple p
# of `canonical_triples(n)`.  A lane table keeps one lane mask per cell
# `(t * n + a) * n + b`, for nodes a, b and a node set t holding neither,
# in both orders of a and b.

def _cells(n: int, s: NodeSet, x: NodeSet, y: NodeSet) -> tuple[int, ...]:
    """The lane-table cells of s minus {a, b} for every pair a in X, b in Y."""
    return tuple(((s & ~bit(a) & ~bit(b)) * n + a) * n + b
                 for a in iter_nodes(x) for b in iter_nodes(y))


@lru_cache(maxsize=None)
def _lane_plan(n: int, kind: GraphKind) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """For each entry (through, X, Y) of `_dependence_plan(n, kind)`: the
    cells of X|Y|through, where some a in X meets some b in Y, and the
    cells of `through`, where a single a..b path may run."""
    return tuple((_cells(n, x | y | via, x, y), _cells(n, via, x, y))
                 for via, x, y in _dependence_plan(n, kind))


def _lane_paths(adj: Sequence[Sequence[int]], full: int) -> tuple[list[int], list[int]]:
    """The lane tables `joined` and `unique`, whose cell (t, a, b), for
    a != b outside t, holds the lanes whose graph joins a to b inside
    {a, b} | t by some simple path and by exactly one.  One walk from a
    over the simple paths inside t counts, for each later end b, the lanes
    where a path reaches b, in two bits per lane that saturate at two:
    `ones` (at least one path) and `twos` (at least two)."""
    n = len(adj)
    joined = [0] * (n * n << n)
    unique = [0] * (n * n << n)
    for t in range(1 << n):
        free = ((1 << n) - 1) & ~t
        base = t * n * n
        for a in iter_nodes(free):
            ends = list(iter_nodes(free & -(2 << a)))
            if not ends:
                break
            ones = [0] * n
            twos = [0] * n
            # (end node, lanes holding the path so far, nodes of t unused)
            stack = [(a, full, t)]
            while stack:
                v, lanes, left = stack.pop()
                row = adj[v]
                for b in ends:
                    step = lanes & row[b]
                    twos[b] |= ones[b] & step
                    ones[b] |= step
                for u in iter_nodes(left):
                    step = lanes & row[u]
                    if step:
                        stack.append((u, step, left ^ bit(u)))
            for b in ends:
                ab, ba = base + a * n + b, base + b * n + a
                joined[ab] = joined[ba] = ones[b]
                unique[ab] = unique[ba] = ones[b] & ~twos[b]
    return joined, unique


def _lane_rows(lanes, kind: GraphKind) -> tuple[list[int], list[int]]:
    """`_independence_row` and `_dependence_row` of every graph of the
    `UGLanes` family `lanes`, under a UG reading, from one `_lane_paths`
    walk: X and Y are independent in the lanes where no a in X meets a b
    in Y inside X|Y|through, and dependent in the lanes where some a in X,
    b in Y have exactly one simple path inside {a, b} | through."""
    full = lanes.full
    joined, unique = _lane_paths(lanes.adj, full)
    independent, dependent = [], []
    for meet, single in _lane_plan(lanes.n, kind):
        met = once = 0
        for c in meet:
            met |= joined[c]
        for c in single:
            once |= unique[c]
        independent.append(full ^ met)
        dependent.append(once)
    return independent, dependent


def _lane_dag_independence_row(pa: Sequence[Sequence[int]], full: int, n: int) -> list[int]:
    """d-separation over nodes 0..n-1 of a lane DAG, in every lane of
    `full` at once: entry p holds the lanes where X and Y of triple p of
    `canonical_triples(n)` are d-separated given Z.  `pa[v][u]` holds the
    lanes with the arrow u -> v; the DAG may have more nodes than n.

    One Bayes-ball reach per (X, Z) (Shachter 1998, "Bayes-Ball: The
    Rational Pastime"), over two states per node: 2v when the ball came
    to v from a child, 2v + 1 when it came from a parent.
    - v outside Z, from a child: on to its parents and its children;
    - v outside Z, from a parent: on to its children only;
    - v in Z, from a child: stopped;
    - v in Z, from a parent: bounced back to its parents.
    The ball starts at every x in X, as though from a child, and X and Y
    are d-separated in the lanes where it reaches no node of Y.  The
    bounce at Z covers a collider with a descendant in Z, so there is no
    ancestral pass and no moral graph."""
    size = len(pa)
    # up[v], down[v]: the steps from v to each parent u's state 2u and each child c's 2c + 1
    up = [[(2 * u, lanes) for u, lanes in enumerate(row) if lanes] for row in pa]
    down = [[(2 * c + 1, pa[c][v]) for c in range(size) if pa[c][v]] for v in range(size)]
    links = [[step for v in range(size)
              for step in (((), up[v]) if z >> v & 1 else (up[v] + down[v], down[v]))]
             for z in range(1 << n)]
    met: dict[tuple[NodeSet, NodeSet], list[int]] = {}
    row = []
    for t in canonical_triples(n):
        both = met.get((t.x, t.z))
        if both is None:
            seed = [full if not s & 1 and t.x >> (s >> 1) & 1 else 0 for s in range(2 * size)]
            reach = _lane_reach(links[t.z], seed)
            both = met[t.x, t.z] = [reach[2 * v] | reach[2 * v + 1] for v in range(n)]
        joined = 0
        for y in iter_nodes(t.y):
            joined |= both[y]
        row.append(full ^ joined)
    return row
