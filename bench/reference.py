"""Reference verdicts the benchmark checks covgraph's answers against.

Independence is decided by breadth-first search over Python sets, after
moralizing the ancestral set for the DAG and chain-graph readings.
Dependence uses the bridge characterization: G[S] has exactly one simple
a-b path iff a and b are joined by bridges of G[S] (Tarjan 1974 finds the
bridges in linear time), and that path is the only possible witness.
Nothing here calls covgraph's criteria.
"""

from __future__ import annotations

from collections import deque
from typing import Optional


def members(mask: int) -> set[int]:
    out = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length() - 1)
        mask ^= low
    return out


class RefGraph:
    """Neighbor sets of a graph given as `node` / `--` / `->` lines."""

    def __init__(self, text: str) -> None:
        index: dict[str, int] = {}
        self.und: list[set[int]] = []
        self.parents: list[set[int]] = []
        edges = []
        for line in text.splitlines():
            tokens = line.split()
            names = tokens[1:] if tokens[0] == "node" else tokens[::2]
            for name in names:
                if name not in index:
                    index[name] = len(index)
                    self.und.append(set())
                    self.parents.append(set())
            if tokens[0] != "node":
                edges.append((index[tokens[0]], tokens[1], index[tokens[2]]))
        for a, kind, b in edges:
            if kind == "--":
                self.und[a].add(b)
                self.und[b].add(a)
            else:
                self.parents[b].add(a)
        self.n = len(index)


def _reach(nbrs, start: set[int], allowed: set[int]) -> set[int]:
    seen = start & allowed
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for w in nbrs[v]:
            if w in allowed and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def _chain_separated(g: RefGraph, x: set[int], y: set[int], z: set[int]) -> bool:
    """Chain-graph separation: moralize the ancestral set of X|Y|Z (join
    the parents of each chain component, drop directions) and look for an
    X-Y route avoiding Z."""
    back = [g.und[v] | g.parents[v] for v in range(g.n)]
    anc = _reach(back, x | y | z, set(range(g.n)))
    moral = [set() for _ in range(g.n)]
    for v in anc:
        moral[v] |= (g.und[v] | g.parents[v]) & anc
        for p in g.parents[v] & anc:
            moral[p].add(v)
    left = set(anc)
    while left:
        comp = _reach(g.und, {min(left)}, anc)
        left -= comp
        pa = set().union(*(g.parents[v] for v in comp)) & anc
        for p in pa:
            moral[p] |= pa - {p}
    return not (_reach(moral, x, anc - z) & y)


def independent(g: RefGraph, reading: str, x: int, y: int, z: int) -> bool:
    xs, ys, zs = members(x), members(y), members(z)
    if reading == "covariance":
        # Every X-Y path must leave X|Y|Z.
        return not (_reach(g.und, xs, xs | ys | zs) & ys)
    if reading == "concentration":
        return not (_reach(g.und, xs, set(range(g.n)) - zs) & ys)
    return _chain_separated(g, xs, ys, zs)


def _bridge_path(und: list[set[int]], a: int, b: int,
                 allowed: set[int]) -> Optional[tuple[int, ...]]:
    """The unique simple a-b path of G[allowed], or None when there are
    none or several.  Bridges come from an iterative lowlink search over
    the component of a; the path is then searched along bridges only."""
    order: dict[int, int] = {a: 0}
    low: dict[int, int] = {a: 0}
    bridges: set[tuple[int, int]] = set()
    stack = [(a, -1, iter(sorted(und[a] & allowed)))]
    while stack:
        v, parent, it = stack[-1]
        for w in it:
            if w == parent:
                continue
            if w in order:
                low[v] = min(low[v], order[w])
            else:
                order[w] = low[w] = len(order)
                stack.append((w, v, iter(sorted(und[w] & allowed))))
                break
        else:
            stack.pop()
            if parent >= 0:
                low[parent] = min(low[parent], low[v])
                if low[v] > order[parent]:
                    bridges.add((parent, v))
                    bridges.add((v, parent))
    if b not in order:
        return None
    prev = {a: a}
    queue = deque([a])
    while queue:
        v = queue.popleft()
        for w in und[v]:
            if (v, w) in bridges and w not in prev:
                prev[w] = v
                queue.append(w)
    if b not in prev:
        return None
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    return tuple(reversed(path))


def dependence_paths(g: RefGraph, reading: str, x: int, y: int,
                     z: int) -> dict[tuple[int, int], tuple[int, ...]]:
    """Unique path per pair (a, b), a in X and b in Y, for the covariance
    reading (inside {a, b} | Z) or the concentration reading (avoiding
    (X|Y|Z) minus {a, b}).  Pairs without a unique path are left out."""
    xs, ys, zs = members(x), members(y), members(z)
    if reading == "cov_dep":
        base = zs
    else:
        base = set(range(g.n)) - xs - ys - zs
    out = {}
    for a in xs:
        for b in ys:
            path = _bridge_path(g.und, a, b, base | {a, b})
            if path is not None:
                out[(a, b)] = path
    return out


def allowed_set(g: RefGraph, reading: str, x: int, y: int, z: int,
                a: int, b: int) -> set[int]:
    if reading == "cov_dep":
        return members(z) | {a, b}
    return set(range(g.n)) - members(x | y | z) | {a, b}
