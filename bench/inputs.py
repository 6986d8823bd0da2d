"""Seeded inputs for the three workloads.

Everything here is drawn from `random.Random(seed)` by the benchmark
itself; covgraph only ever sees the finished graphs, as text for `query`
and as `MixedGraph` values for `closure`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, count, cycle
from typing import Iterator

SIZES = (16, 32, 64)
MEAN_DEGREES = (1.5, 3.0, 6.0)
QUERIES_PER_GRAPH = 5  # few, so slow graphs do not cluster
# Readings of a one-off query: the four independence readings and the two
# dependence readings.  UG readings share one graph per (size, degree).
READINGS = ("covariance", "concentration", "dag", "cg", "cov_dep", "conc_dep")
GRAPH_TYPE = {"covariance": "ug", "concentration": "ug", "cov_dep": "ug",
              "conc_dep": "ug", "dag": "dag", "cg": "cg"}
# Dead-end clique rungs.  Per query, covgraph's path enumeration takes
# about 1 ms at k=6, 9 ms at k=7, 60 ms at k=8, 0.5 s at k=9 and 4 s at
# k=10 (2-CPU x86 box, CPython 3.11).
LADDER = tuple(range(4, 12))
LADDER_EVERY = 500  # random queries between two ladder queries

CLOSURE_SIZES = (5, 6, 6)  # keeps the median inside the 6-node cluster


@dataclass(frozen=True)
class Query:
    """One one-off query: a graph as text plus the reading and node masks.
    `k` is the dead-end clique size for ladder rungs and 0 otherwise."""

    text: str
    reading: str
    x: int
    y: int
    z: int
    k: int = 0


def _text(n: int, und: list[tuple[int, int]], arrows: list[tuple[int, int]],
          rng: random.Random) -> str:
    """Graph file: every node pre-declared in index order, so node i is
    labeled v<i>, then the edges in shuffled order."""
    labels = [f"v{i}" for i in range(n)]
    lines = [f"node {lab}" for lab in labels]
    edges = [f"{labels[a]} -- {labels[b]}" for a, b in und]
    edges += [f"{labels[a]} -> {labels[b]}" for a, b in arrows]
    rng.shuffle(edges)
    return "\n".join(lines + edges) + "\n"


def random_graph_text(kind: str, n: int, degree: float, rng: random.Random) -> str:
    """A graph of the given type with about `degree` edges per node."""
    p = degree / (n - 1)
    if kind == "ug":
        und = [(a, b) for a, b in combinations(range(n), 2) if rng.random() < p]
        return _text(n, und, [], rng)
    order = list(range(n))
    rng.shuffle(order)
    if kind == "dag":
        arrows = [(order[i], order[j]) for i, j in combinations(range(n), 2)
                  if rng.random() < p]
        return _text(n, [], arrows, rng)
    # Chain graph: ordered blocks of 1-4 nodes, undirected edges inside a block,
    # arrows from an earlier block to a later one.
    block = {}
    pos = 0
    rank = 0
    while pos < n:
        size = rng.randint(1, 4)
        for v in order[pos:pos + size]:
            block[v] = rank
        pos += size
        rank += 1
    und, arrows = [], []
    for a, b in combinations(range(n), 2):
        if rng.random() >= p:
            continue
        if block[a] == block[b]:
            und.append((a, b))
        elif block[a] < block[b]:
            arrows.append((a, b))
        else:
            arrows.append((b, a))
    return _text(n, und, arrows, rng)


def _random_triple(n: int, rng: random.Random) -> tuple[int, int, int]:
    """X and Y of one or two nodes, Z anywhere from empty to every other
    node."""
    nodes = list(range(n))
    rng.shuffle(nodes)
    nx = rng.choice((1, 1, 1, 2))
    ny = rng.choice((1, 1, 1, 2))
    nz = rng.randint(0, n - nx - ny)
    masks = []
    for part in (nodes[:nx], nodes[nx:nx + ny], nodes[nx + ny:nx + ny + nz]):
        m = 0
        for v in part:
            m |= 1 << v
        masks.append(m)
    return masks[0], masks[1], masks[2]


def ladder_text(k: int) -> str:
    """Edge a-b plus a k-clique on a (a and k further nodes).  b is
    declared last, so a depth-first walk from a meets the clique first."""
    clique = [f"c{i}" for i in range(k)]
    lines = ["node a"] + [f"node {c}" for c in clique] + ["node b", "a -- b"]
    lines += [f"a -- {c}" for c in clique]
    lines += [f"{c} -- {d}" for c, d in combinations(clique, 2)]
    return "\n".join(lines) + "\n"


def ladder_queries() -> list[Query]:
    """Covariance dep(a, b | rest) and concentration dep(a, b) per rung."""
    out = []
    for k in LADDER:
        n = k + 2
        a, b = 1, 1 << (n - 1)
        rest = ((1 << n) - 1) & ~(a | b)
        text = ladder_text(k)
        out.append(Query(text, "cov_dep", a, b, rest, k))
        out.append(Query(text, "conc_dep", a, b, 0, k))
    return out


def random_queries(seed: int) -> Iterator[Query]:
    """Endless stream of random one-off queries.  Slots cycle through
    every (size, degree, reading), so each whole cycle has the same mix;
    a graph serves QUERIES_PER_GRAPH queries per reading before a fresh
    one is drawn."""
    rng = random.Random(seed)
    slots = [(n, d, r) for n in SIZES for d in MEAN_DEGREES for r in READINGS]
    graphs: dict[tuple[int, float, str], tuple[str, int]] = {}
    for n, d, reading in cycle(slots):
        key = (n, d, GRAPH_TYPE[reading])
        # A UG serves four readings, so it stays for four times as long.
        limit = QUERIES_PER_GRAPH * (4 if key[2] == "ug" else 1)
        text, used = graphs.get(key, ("", limit))
        if used >= limit:
            text, used = random_graph_text(key[2], n, d, rng), 0
        graphs[key] = (text, used + 1)
        yield Query(text, reading, *_random_triple(n, rng))


def query_stream(seed: int) -> Iterator[Query]:
    """The random queries with the next dead-end ladder query (cycling
    through the rungs) after every LADDER_EVERY of them."""
    ladder = cycle(ladder_queries())
    for i, q in enumerate(random_queries(seed), 1):
        yield q
        if i % LADDER_EVERY == 0:
            yield next(ladder)


def closure_graphs(seed: int) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """Endless stream of (n, edges): labeled 5- and 6-node UGs with every
    pair joined with probability 1/2."""
    rng = random.Random(seed)
    for n in cycle(CLOSURE_SIZES):
        yield n, [p for p in combinations(range(n), 2) if rng.random() < 0.5]


@dataclass(frozen=True)
class SweepRound:
    """Arguments of one pass of the four verification sweeps at reduced
    sizes, short enough to give dozens of rounds per run."""

    seed: int
    theorems_random: int
    corollaries_trials: int
    theorems_n: int = 5
    latent_n: int = 4
    forest_n: int = 4
    corollaries_n: int = 4


# Round sizes cycle so that round times spread over about a factor of two.
# With identical rounds, the median round time would jump between two
# values whenever the machine's speed switches during a run.
THEOREMS_RANDOM = (1, 3, 5, 2, 4, 6)
COROLLARIES_TRIALS = (2, 8, 14, 4, 10, 6, 12)


def sweep_rounds(seed: int) -> Iterator[SweepRound]:
    rng = random.Random(seed)
    for i in count():
        yield SweepRound(rng.getrandbits(32), THEOREMS_RANDOM[i % len(THEOREMS_RANDOM)],
                         COROLLARIES_TRIALS[i % len(COROLLARIES_TRIALS)])
