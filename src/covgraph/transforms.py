"""Structural constructions tying the covariance reading to other models.

`latent_dag` replaces every undirected edge A - B with a fresh common
cause A <- L -> B; d-separation over the original nodes of the result
matches the covariance criterion on the source graph exactly, which
`verify_latent_equivalence` checks triple by triple.  Forests admit a
stronger guarantee: the single-path dependence criterion and the
independence criterion become exact complements.
"""

from __future__ import annotations

from dataclasses import dataclass

from .connection import cov_dependent
from .graphs import (
    MAX_NODES,
    GraphKind,
    MixedGraph,
    SizeLimitError,
    connectivity_components,
)
from .report import Report
from .separation import canonical_triples, ci_independent, sep

MAX_LATENT_NODES = 5
MAX_FOREST_NODES = 6


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
    if not g.is_undirected_graph:
        raise ValueError("the latent construction starts from an undirected graph")
    edges = sorted(g.undirected)
    if g.n > 32 or g.n + len(edges) > MAX_NODES:
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


def verify_latent_equivalence(g: MixedGraph, max_nodes: int = MAX_LATENT_NODES) -> Report:
    """Check that d-separation in the latent DAG agrees with the
    covariance criterion on every canonical triple over original nodes."""
    if g.n > max_nodes:
        raise SizeLimitError(f"equivalence sweep limited to {max_nodes} nodes")
    h = latent_dag(g)
    report = Report(f"latent-equivalence[{g.n} nodes, {len(g.undirected)} edges]")
    for t in canonical_triples(g.n):
        report.checked += 1
        on_graph = ci_independent(g, GraphKind.COVARIANCE, t.x, t.y, t.z)
        on_dag = sep(h.dag, t.x, t.y, t.z)
        if on_graph != on_dag:
            report.add_violation(
                f"{t.render(g.labels)}: criterion={on_graph} latent-dag={on_dag}"
            )
    return report


def is_forest(g: MixedGraph) -> bool:
    """True iff the undirected graph is acyclic."""
    if not g.is_undirected_graph:
        raise ValueError("forest test is defined for undirected graphs")
    return len(g.undirected) == g.n - len(connectivity_components(g))


def verify_forest_faithfulness(g: MixedGraph, max_nodes: int = MAX_FOREST_NODES) -> Report:
    """On forests the dependence criterion must be the exact complement of
    the independence criterion."""
    if not is_forest(g):
        raise ValueError("graph is not a forest")
    if g.n > max_nodes:
        raise SizeLimitError(f"forest sweep limited to {max_nodes} nodes")
    report = Report(f"forest-faithfulness[{g.n} nodes, {len(g.undirected)} edges]")
    for t in canonical_triples(g.n):
        report.checked += 1
        dep = cov_dependent(g, t.x, t.y, t.z)
        ind = ci_independent(g, GraphKind.COVARIANCE, t.x, t.y, t.z)
        if dep == ind:
            report.add_violation(
                f"{t.render(g.labels)}: dependent={dep} independent={ind}"
            )
    return report
