"""Structural constructions tying the covariance reading to other models.

`latent_dag` replaces every undirected edge A - B with a fresh common
cause A <- L -> B; d-separation over the original nodes of the result
matches the covariance criterion on the source graph exactly.  Forests
admit a stronger guarantee: the single-path dependence criterion and the
independence criterion become exact complements.  `covgraph.verify`
checks both triple by triple.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import MAX_NODES, MixedGraph, SizeLimitError, connectivity_components


@dataclass(frozen=True)
class LatentDag:
    """DAG over the original nodes plus one latent collider per edge."""

    dag: MixedGraph
    latents: tuple[tuple[int, int, int], ...]  # (a, b, latent index)


def latent_dag(g: MixedGraph) -> LatentDag:
    """Replace each edge A - B by A <- L -> B with a fresh latent L.

    Original nodes keep their indices (and gain no outgoing arrows);
    latents are appended in sorted edge order and named after their
    endpoints' labels.
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
    """True iff the undirected graph is acyclic."""
    if g.directed:
        raise ValueError("forest test is defined for undirected graphs")
    return len(g.undirected) == g.n - len(connectivity_components(g))
