"""Single-path dependence criteria against exhaustive path enumeration."""

import random
from itertools import compress, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covgraph import (
    CITriple,
    GraphKind,
    MixedGraph,
    PathWitness,
    all_dependencies,
    all_independencies,
    bit,
    canonical_triples,
    ci_independent,
    conc_dependence_witness,
    conc_dependent,
    cov_dependence_witness,
    cov_dependent,
    iter_nodes,
)
from covgraph import separation
from covgraph.separation import UG_READINGS, _dependence_row, _unique_path, dependence_witness
from covgraph.smallgraphs import all_forests, all_ugs, random_ug
from oracles import all_simple_paths, count_paths_bruteforce, mask_of, und_neighbor_sets
from strategies import dead_end_clique, ugs

COV = GraphKind.COVARIANCE
CONC = GraphKind.CONCENTRATION


def cycle4():
    return MixedGraph.ug("ABCD", [("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")])


def triangle():
    return MixedGraph.ug("ABC", [("A", "B"), ("A", "C"), ("B", "C")])


class TestPathWitness:
    def test_check_and_render(self):
        g = cycle4()
        w = PathWitness((0, 1, 2))
        w.check(g)
        assert w.render(g.labels) == "A-B-C"
        assert (w.a, w.b) == (0, 2)

    def test_check_rejects_non_adjacent(self):
        with pytest.raises(ValueError):
            PathWitness((0, 2)).check(cycle4())

    def test_check_rejects_repeats(self):
        with pytest.raises(ValueError):
            PathWitness((0, 1, 0)).check(cycle4())


class TestCountPaths:
    """The unique-path test against the brute-force path count."""

    def test_cycle_one_side(self):
        g = cycle4()
        assert count_paths_bruteforce(g, 0, 2, {0, 1, 2}) == 1
        w = _unique_path(g.und_adj, 0, 2, mask_of([0, 1, 2]))
        assert w is not None and w.nodes == (0, 1, 2)

    def test_cycle_both_sides(self):
        g = cycle4()
        assert count_paths_bruteforce(g, 0, 2, set(range(4))) == 2
        assert _unique_path(g.und_adj, 0, 2, g.full_mask) is None

    def test_no_edges_no_paths(self):
        g = MixedGraph.ug("AB")
        assert count_paths_bruteforce(g, 0, 1, {0, 1}) == 0
        assert _unique_path(g.und_adj, 0, 1, g.full_mask) is None

    def test_complete_graph_paths(self):
        comp = MixedGraph.ug("ABCD", [(a, b) for a in "ABCD" for b in "ABCD" if a < b])
        assert count_paths_bruteforce(comp, 0, 3, set(range(4))) == 5
        assert _unique_path(comp.und_adj, 0, 3, comp.full_mask) is None
        w = _unique_path(comp.und_adj, 0, 3, mask_of([0, 3]))
        assert w is not None and w.nodes == (0, 3)

    def test_input_validation(self):
        # the endpoints of every pair come from disjoint, in-graph X and Y,
        # and only undirected graphs reach the path test
        g = cycle4()
        with pytest.raises(ValueError):
            conc_dependence_witness(g, bit(0), bit(0), 0)
        with pytest.raises(ValueError):
            cov_dependence_witness(g, bit(0), bit(4), 0)
        with pytest.raises(ValueError):
            conc_dependence_witness(MixedGraph.dag("AB", [("A", "B")]), bit(0), bit(1), 0)

    @given(ugs(min_n=2, max_n=5), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_bruteforce(self, g, data):
        a = data.draw(st.integers(0, g.n - 1))
        b = data.draw(st.integers(0, g.n - 1))
        if a == b:
            b = (a + 1) % g.n
        allowed = data.draw(st.integers(0, g.full_mask)) | bit(a) | bit(b)
        expect = count_paths_bruteforce(g, a, b, set(iter_nodes(allowed)))
        w = _unique_path(g.und_adj, a, b, allowed)
        assert (w is not None) == (expect == 1)
        if w is not None:
            w.check(g)
            assert (w.a, w.b) == (a, b)
            assert mask_of(w.nodes) & ~allowed == 0

    def test_exhaustive_up_to_five_nodes(self):
        # every labeled UG, ordered pair and allowed set: a path comes back
        # iff exactly one simple path exists, and it is that path
        cases = 0
        for n in range(2, 6):
            for g in all_ugs(n):
                nbr = und_neighbor_sets(g)
                for a, b in permutations(range(n), 2):
                    ends = bit(a) | bit(b)
                    for allowed in range(1 << n):
                        if allowed & ends != ends:
                            continue
                        paths = all_simple_paths(nbr, a, b, set(iter_nodes(allowed)))
                        w = _unique_path(g.und_adj, a, b, allowed)
                        if len(paths) == 1:
                            assert w is not None and list(w.nodes) == paths[0]
                        else:
                            assert w is None
                        cases += 1
        assert cases == 167012


@pytest.mark.parametrize("k", [20, 60])
class TestDeadEndClique:
    def test_covariance_given_rest(self, k):
        g = dead_end_clique(k)
        a, b = bit(0), bit(k + 1)
        rest = g.full_mask & ~(a | b)
        w = cov_dependence_witness(g, a, b, rest)
        assert w is not None and w.nodes == (0, k + 1)

    def test_concentration_marginal(self, k):
        g = dead_end_clique(k)
        w = conc_dependence_witness(g, bit(0), bit(k + 1), 0)
        assert w is not None and w.nodes == (0, k + 1)


class TestCon:
    def test_rejects_dag(self):
        g = MixedGraph.dag("ABC", [("A", "B"), ("B", "C")])
        with pytest.raises(ValueError):
            conc_dependent(g, bit(0), bit(2), 0)

    def test_triangle_edge_survives_conditioning(self):
        # only the direct edge avoids {B}, so exactly one path qualifies
        w = conc_dependence_witness(triangle(), bit(0), bit(2), bit(1))
        assert w is not None and w.nodes == (0, 2)

    def test_triple_error_before_reading_error(self):
        # both readings reject a bad triple before they look at the graph
        g = MixedGraph.dag("AB", [("A", "B")])
        errors = []
        for witness in (cov_dependence_witness, conc_dependence_witness):
            with pytest.raises(ValueError) as exc:
                witness(g, bit(0), bit(1), bit(0))
            errors.append(str(exc.value))
        assert errors == ["X, Y, Z must be pairwise disjoint"] * 2


class TestCovDependence:
    def test_four_cycle_single_conditioners(self):
        g = cycle4()
        a, b, c, d = (bit(i) for i in range(4))
        w = cov_dependence_witness(g, a, c, b)
        assert w is not None and w.nodes == (0, 1, 2)
        assert cov_dependent(g, a, c, d)
        assert not cov_dependent(g, a, c, b | d)

    def test_edge_is_always_dependent(self):
        for g in all_ugs(3):
            for i, j in g.undirected:
                assert cov_dependent(g, bit(i), bit(j), 0)

    def test_triangle_conditioning(self):
        g = triangle()
        a, b, c = (bit(i) for i in range(3))
        assert not cov_dependent(g, a, c, b)
        assert cov_dependent(g, a, c, 0)

    def test_not_monotone_in_conditioning(self):
        g = cycle4()
        a, b, c, d = (bit(i) for i in range(4))
        assert cov_dependent(g, a, c, b)
        assert not cov_dependent(g, a, c, b | d)

    def test_rejects_overlapping_sets(self):
        with pytest.raises(ValueError):
            cov_dependent(cycle4(), bit(0), bit(0), 0)


class TestConcDependence:
    def test_path_blocked_by_conditioned_middle(self):
        g = MixedGraph.ug("ABC", [("A", "B"), ("B", "C")])
        assert not conc_dependent(g, bit(0), bit(2), bit(1))
        assert conc_dependent(g, bit(0), bit(2), 0)

    def test_complete_graph_edge_survives(self):
        assert conc_dependent(triangle(), bit(0), bit(1), bit(2))

    def test_disconnected(self):
        g = MixedGraph.ug("AB")
        assert not conc_dependent(g, bit(0), bit(1), 0)


class TestCriterionInterplay:
    def test_duality_exhaustive(self):
        # covariance dependence given Z == concentration dependence given
        # the complement: both readings run one walk and differ only in
        # `through`, so this pins its complement arithmetic
        for n in range(2, 6):
            for g in all_ugs(n):
                for t in canonical_triples(n):
                    comp = g.full_mask & ~(t.x | t.y | t.z)
                    assert cov_dependent(g, t.x, t.y, t.z) == \
                        conc_dependent(g, t.x, t.y, comp)

    def test_dependence_never_contradicts_independence(self):
        for n in range(2, 6):
            for g in all_ugs(n):
                for t in canonical_triples(n):
                    if cov_dependent(g, t.x, t.y, t.z):
                        assert not ci_independent(g, COV, t.x, t.y, t.z)

    def test_criteria_complement_each_other(self):
        # some triples are visible only to the covariance criterion and
        # some only to the concentration criterion
        rng = random.Random(11)
        cov_only = conc_only = False
        while not (cov_only and conc_only):
            g = random_ug(4, rng)
            for t in canonical_triples(4):
                a = cov_dependent(g, t.x, t.y, t.z)
                b = conc_dependent(g, t.x, t.y, t.z)
                if a and not b:
                    cov_only = True
                if b and not a:
                    conc_only = True
        assert cov_only and conc_only


class TestAllDependencies:
    def test_single_edge(self):
        g = MixedGraph.ug("AB", [("A", "B")])
        assert all_dependencies(g, COV) == [CITriple(bit(0), bit(1), 0)]

    def test_path_includes_conditioned_pair(self):
        g = MixedGraph.ug("ABC", [("A", "B"), ("B", "C")])
        out = all_dependencies(g, COV)
        assert CITriple(bit(0), bit(2), bit(1)) in out
        assert CITriple(bit(0), bit(1), 0) in out

    def test_four_cycle_excludes_double_conditioning(self):
        out = all_dependencies(cycle4(), COV)
        assert CITriple(bit(0), bit(2), bit(1) | bit(3)) not in out

    def test_kind_restriction(self):
        with pytest.raises(ValueError):
            all_dependencies(cycle4(), GraphKind.DAG)

    @staticmethod
    def _count_walks(monkeypatch) -> list[int]:
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return _unique_path(*args)

        monkeypatch.setattr(separation, "_unique_path", counted)
        return calls

    @pytest.mark.parametrize("kind", [COV, CONC])
    def test_reading_checked_before_any_walk(self, kind, monkeypatch):
        calls = self._count_walks(monkeypatch)
        chain = MixedGraph(3, ("A", "B", "C"), frozenset({(0, 1)}), frozenset({(1, 2)}))
        for g in (MixedGraph.dag("AB", [("A", "B")]), chain):
            with pytest.raises(ValueError) as exc:
                all_dependencies(g, kind)
            assert str(exc.value) == f"{kind.value} reading requires an undirected graph"
            # the kind is refused before the reading is looked at
            with pytest.raises(ValueError, match="^dependence criteria exist"):
                all_dependencies(g, GraphKind.DAG)
            with pytest.raises(ValueError, match="^dependence criteria exist"):
                dependence_witness(g, GraphKind.DAG, bit(0), bit(1), 0)
        assert calls == [0]

    @staticmethod
    def _assert_matches_witnesses(graphs):
        # the row holds one verdict per canonical triple, by position, and
        # the table keeps the triples the row marks
        for g in graphs:
            triples = canonical_triples(g.n)
            for kind in UG_READINGS:
                row = _dependence_row(g, kind)
                assert len(row) == len(triples) and {type(v) for v in row} <= {bool}
                assert row == [dependence_witness(g, kind, t.x, t.y, t.z) is not None
                               for t in triples], (kind, g)
                assert all_dependencies(g, kind) == list(compress(triples, row))

    def test_matches_witnesses_exhaustive(self):
        self._assert_matches_witnesses(g for n in range(1, 6) for g in all_ugs(n))

    def test_complements_independence_on_six_node_forests(self):
        # a forest joins two nodes by at most one path, so a unique path is
        # any path and concentration dependence is the exact complement of
        # concentration independence; criterion 5 checks the covariance half
        triples = canonical_triples(6)
        for g in all_forests(6):
            independent = set(all_independencies(g, CONC))
            assert all_dependencies(g, CONC) == [t for t in triples if t not in independent], g

    def test_matches_witnesses_on_random_graphs(self):
        rng = random.Random(20261018)
        self._assert_matches_witnesses(
            random_ug(rng.randint(6, 8), rng) for _ in range(20))

    def test_walks_each_pair_once_per_through_set(self, monkeypatch):
        # one walk per pair {A, B} and `through` set avoiding both:
        # C(n, 2) * 2**(n - 2) at most, against one walk per (A, B) pair
        # of every triple when each triple runs its own witness
        calls = self._count_walks(monkeypatch)
        rng = random.Random(5)
        graphs = [g for n in range(2, 5) for g in all_ugs(n)]
        graphs += [MixedGraph.ug("ABCDEF")] + [random_ug(n, rng) for n in (6, 7, 8)]
        for g in graphs:
            bound = g.n * (g.n - 1) // 2 * 2 ** (g.n - 2)
            for kind in (COV, CONC):
                calls[0] = 0
                all_dependencies(g, kind)
                assert 0 < calls[0] <= bound, (kind, g, calls[0])
