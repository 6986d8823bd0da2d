"""Enumeration and sampling of small undirected graphs for sweeps."""

from __future__ import annotations

import random
import string
from itertools import combinations
from typing import Iterator

from .graphs import MixedGraph, connectivity_components, is_forest


def default_labels(n: int) -> tuple[str, ...]:
    if n > 26:
        raise ValueError("default labels cover at most 26 nodes")
    return tuple(string.ascii_uppercase[:n])


def _from_edge_bits(n: int, pairs: list[tuple[int, int]], bits: int) -> MixedGraph:
    edges = frozenset(p for k, p in enumerate(pairs) if (bits >> k) & 1)
    return MixedGraph(n, default_labels(n), edges, frozenset())


def all_ugs(n: int) -> Iterator[MixedGraph]:
    """Every labeled undirected graph on n nodes."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield _from_edge_bits(n, pairs, bits)


def random_ug(n: int, rng: random.Random) -> MixedGraph:
    """One labeled undirected graph drawn uniformly."""
    pairs = list(combinations(range(n), 2))
    return _from_edge_bits(n, pairs, rng.getrandbits(len(pairs)) if pairs else 0)


def connected_ugs(n: int) -> Iterator[MixedGraph]:
    for g in all_ugs(n):
        if len(connectivity_components(g)) == 1:
            yield g


def all_forests(n: int) -> Iterator[MixedGraph]:
    for g in all_ugs(n):
        if is_forest(g):
            yield g
