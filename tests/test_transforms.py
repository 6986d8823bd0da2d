"""Latent-collider DAG construction and forest guarantees."""

import pytest

from covgraph import (
    CITriple,
    GraphKind,
    MixedGraph,
    SizeLimitError,
    ancestors,
    bit,
    canonical_triples,
    is_chain_graph,
    is_forest,
    latent_dag,
    sep,
    verify_forest_faithfulness,
    verify_latent_equivalence,
)
import covgraph.verify
from covgraph.separation import _unique_path
from covgraph.smallgraphs import all_forests, all_ugs
from oracles import count_paths_bruteforce

COV = GraphKind.COVARIANCE


def cycle4():
    return MixedGraph.ug("ABCD", [("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")])


def path3(labels="ABC"):
    a, b, c = labels
    return MixedGraph.ug(labels, [(a, b), (b, c)])


# the path A - B - C, and the same path labelled u - v - w: labels other
# than `default_labels(3)`, which the lane sweeps render with; `ends` is
# X ; Y of the triple A ; C ; - as the graph's own labels render it
PATHS = pytest.mark.parametrize("labels, ends", [("ABC", "A ; C"), ("uvw", "u ; w")],
                                ids=["ABC", "uvw"])


@pytest.fixture
def drop_a_c_marginal(monkeypatch):
    """Make the covariance independence row the checks read miss
    A ; C ; - on the path A - B - C."""
    full = covgraph.verify._independence_row

    def row(g, kind):
        verdicts = full(g, kind)
        verdicts[canonical_triples(g.n).index(CITriple(bit(0), bit(2)))] = False
        return verdicts

    monkeypatch.setattr(covgraph.verify, "_independence_row", row)


class TestLatentDag:
    def test_single_edge(self):
        g = MixedGraph.ug("AB", [("A", "B")])
        ld = latent_dag(g)
        assert ld.dag.n == 3
        assert ld.dag.labels == ("A", "B", "L_A_B")
        assert ld.dag.directed == frozenset({(2, 0), (2, 1)})
        assert ld.latents == ((0, 1, 2),)

    def test_edgeless(self):
        ld = latent_dag(MixedGraph.ug("ABC"))
        assert ld.dag.n == 3
        assert not ld.dag.directed
        assert ld.latents == ()

    def test_cycle_sizes(self):
        ld = latent_dag(cycle4())
        assert ld.dag.n == 8
        assert len(ld.dag.directed) == 8

    def test_is_dag_without_undirected_edges(self):
        for g in all_ugs(4):
            ld = latent_dag(g)
            assert not ld.dag.undirected
            assert is_chain_graph(ld.dag)

    def test_originals_have_no_outgoing_and_latents_depth_one(self):
        g = cycle4()
        ld = latent_dag(g)
        original = (1 << g.n) - 1
        for tail, _head in ld.dag.directed:
            assert not (original >> tail) & 1
        for _a, _b, latent in ld.latents:
            anc = ancestors(ld.dag, bit(latent))
            assert anc == bit(latent)

    def test_label_collision_rejected(self):
        g = MixedGraph.ug(("A", "B", "L_A_B"), [("A", "B")])
        with pytest.raises(ValueError, match="collides"):
            latent_dag(g)

    def test_capacity_guard(self):
        # a 33-node path needs 33 + 32 = 65 nodes
        labels = tuple(f"N{i}" for i in range(33))
        with pytest.raises(SizeLimitError):
            latent_dag(MixedGraph.ug(labels, zip(labels, labels[1:])))

    def test_more_than_32_nodes_within_capacity(self):
        labels = tuple(f"N{i}" for i in range(40))
        ld = latent_dag(MixedGraph.ug(labels, [("N0", "N1")]))
        assert ld.dag.n == 41
        assert ld.latents == ((0, 1, 40),)

    def test_requires_ug(self):
        with pytest.raises(ValueError):
            latent_dag(MixedGraph.dag("AB", [("A", "B")]))


class TestLatentEquivalence:
    def test_cycle_passes(self):
        report = verify_latent_equivalence(cycle4())
        assert report.passed and report.checked == 55

    def test_path_specific_triples(self):
        h = latent_dag(path3()).dag
        assert sep(h, bit(0), bit(2), 0)
        assert not sep(h, bit(0), bit(2), bit(1))

    def test_single_edge(self):
        assert verify_latent_equivalence(MixedGraph.ug("AB", [("A", "B")])).passed

    def test_exhaustive_small(self):
        for n in range(2, 4):
            for g in all_ugs(n):
                assert verify_latent_equivalence(g).passed

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            verify_latent_equivalence(MixedGraph.ug("ABCDEF"))

    @PATHS
    def test_reports_a_wrong_table_entry(self, drop_a_c_marginal, labels, ends):
        report = verify_latent_equivalence(path3(labels))
        assert report.violations == [f"{ends} ; -: criterion=False latent-dag=True"]
        assert report.checked == len(canonical_triples(3))


class TestForest:
    def test_examples(self):
        assert is_forest(MixedGraph.ug("ABC", [("A", "B"), ("B", "C")]))
        assert not is_forest(cycle4())
        assert is_forest(MixedGraph.ug("ABC"))
        assert is_forest(MixedGraph.ug("ABCD", [("A", "B"), ("C", "D")]))
        assert not is_forest(MixedGraph.ug("ABC", [("A", "B"), ("B", "C"), ("A", "C")]))

    def test_labeled_forest_counts(self):
        # known counts of labeled forests on 1..6 nodes
        for n, expect in [(1, 1), (2, 2), (3, 7), (4, 38), (5, 291), (6, 2932)]:
            assert sum(1 for _ in all_forests(n)) == expect

    def test_forest_paths_are_unique(self):
        # in a forest every connected pair has exactly one path
        for g in all_forests(4):
            for i in range(4):
                for j in range(i + 1, 4):
                    count = count_paths_bruteforce(g, i, j, set(range(4)))
                    assert count <= 1
                    w = _unique_path(g.und_adj, i, j, g.full_mask)
                    assert (w is not None) == (count == 1)


class TestForestFaithfulness:
    def test_star(self):
        g = MixedGraph.ug("ABCD", [("A", "B"), ("A", "C"), ("A", "D")])
        assert verify_forest_faithfulness(g).passed

    def test_path_five(self):
        g = MixedGraph.ug("ABCDE",
                          [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E")])
        assert verify_forest_faithfulness(g).passed

    def test_two_disjoint_edges(self):
        g = MixedGraph.ug("ABCD", [("A", "B"), ("C", "D")])
        assert verify_forest_faithfulness(g).passed

    def test_rejects_non_forest(self):
        with pytest.raises(ValueError, match="not a forest"):
            verify_forest_faithfulness(cycle4())

    @PATHS
    def test_reports_a_wrong_table_entry(self, drop_a_c_marginal, labels, ends):
        report = verify_forest_faithfulness(path3(labels))
        assert report.violations == [f"{ends} ; -: dependent=False independent=False"]
        assert report.checked == len(canonical_triples(3))


# The per-graph checks read the verdict tables, which stop at 8 nodes.
@pytest.mark.parametrize("check", [verify_latent_equivalence, verify_forest_faithfulness])
def test_checks_inherit_the_table_size_limit(check):
    labels = tuple(f"N{i}" for i in range(9))
    with pytest.raises(SizeLimitError):
        check(MixedGraph.ug(labels, zip(labels, labels[1:])), max_nodes=9)
