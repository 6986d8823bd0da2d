"""Independence criteria: chain-graph separation and the covariance
reading, checked against explicit path-enumeration oracles."""

import random
from itertools import combinations, compress, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covgraph import (
    CITriple,
    GraphKind,
    MixedGraph,
    SizeLimitError,
    all_independencies,
    bit,
    canonical_triples,
    ci_independent,
    iter_nodes,
    latent_dag,
    sep,
)
from covgraph import graphs, separation
from covgraph.separation import (UG_READINGS, _dependence_row, _independence_row, _independent,
                                 dependence_witness)
from covgraph.smallgraphs import all_ugs, default_labels, random_ug
from oracles import (
    all_simple_paths,
    cov_independent_bruteforce,
    cov_independent_by_separation,
    sep_bruteforce,
    und_neighbor_sets,
)
from strategies import chain_graphs, dags, mixed_graphs, ugs

COV = GraphKind.COVARIANCE
CONC = GraphKind.CONCENTRATION


def cycle4():
    return MixedGraph.ug("ABCD", [("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")])


def draw_triple(data, g):
    """Random valid (x, y, z) over g's nodes (g has at least two): one X
    node and a distinct Y node first, then each other node goes to X, Y, Z
    or none of them.  Every draw is valid and every valid triple can come
    out."""
    a = data.draw(st.integers(0, g.n - 1))
    b = data.draw(st.integers(0, g.n - 2))
    if b >= a:
        b += 1
    parts = [bit(a), bit(b), 0, 0]
    others = [v for v in range(g.n) if v not in (a, b)]
    assignment = data.draw(
        st.lists(st.integers(0, 3), min_size=len(others), max_size=len(others))
    )
    for v, part in zip(others, assignment):
        parts[part] |= bit(v)
    return parts[0], parts[1], parts[2]


class TestCITriple:
    def test_canonical_swap(self):
        t = CITriple(bit(2), bit(0), bit(1))
        assert (t.x, t.y) == (bit(0), bit(2))
        assert t == CITriple(bit(0), bit(2), bit(1))

    def test_rejects_empty_and_overlap(self):
        with pytest.raises(ValueError):
            CITriple(0, bit(1))
        with pytest.raises(ValueError):
            CITriple(bit(0), bit(0))
        with pytest.raises(ValueError):
            CITriple(bit(0), bit(1), bit(1))

    def test_render(self):
        t = CITriple(bit(0), bit(2), 0)
        assert t.render(("A", "B", "C")) == "A ; C ; -"

    @pytest.mark.parametrize("masks", [(-4, 1), (1, 2, -8), (1, -2)])
    def test_rejects_negative_masks(self, masks):
        with pytest.raises(ValueError, match="^node set masks must not be negative$"):
            CITriple(*masks)


class TestSep:
    def test_directed_chain_blocked_by_middle(self):
        g = MixedGraph.dag("ABC", [("A", "B"), ("B", "C")])
        assert sep(g, bit(0), bit(2), bit(1))
        assert not sep(g, bit(0), bit(2), 0)

    def test_collider(self):
        g = MixedGraph.dag("ABC", [("A", "B"), ("C", "B")])
        assert sep(g, bit(0), bit(2), 0)
        assert not sep(g, bit(0), bit(2), bit(1))

    def test_disconnected_is_separated(self):
        g = MixedGraph.ug("ABCD", [("A", "B"), ("C", "D")])
        assert sep(g, bit(0), bit(2), 0)

    def test_requires_chain_graph(self):
        g = MixedGraph(2, ("A", "B"), frozenset(), frozenset({(0, 1), (1, 0)}))
        with pytest.raises(ValueError, match="chain graph"):
            sep(g, bit(0), bit(1), 0)

    @given(chain_graphs(min_n=2, max_n=4), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_path_enumeration_oracle(self, g, data):
        assert g.is_cg
        x, y, z = draw_triple(data, g)
        expect = sep_bruteforce(
            g, set(iter_nodes(x)), set(iter_nodes(y)), set(iter_nodes(z))
        )
        assert sep(g, x, y, z) == expect

    @given(ugs(min_n=2, max_n=5), st.data())
    @settings(max_examples=300, deadline=None)
    def test_ug_degenerates_to_blocking(self, g, data):
        # on a UG, separation is plain "every X-Y path meets Z": delete Z
        # and ask for reachability over the raw edge list
        x, y, z = draw_triple(data, g)
        nodes = set(range(g.n)) - set(iter_nodes(z))
        reach = set(iter_nodes(x)) & nodes
        changed = True
        while changed:
            changed = False
            for i, j in g.undirected:
                if i in reach and j in nodes and j not in reach:
                    reach.add(j)
                    changed = True
                if j in reach and i in nodes and i not in reach:
                    reach.add(i)
                    changed = True
        expect = not (reach & set(iter_nodes(y)))
        assert sep(g, x, y, z) == expect

    def test_ug_fast_path_matches_path_enumeration_exhaustive(self):
        # without arrows `_independent` walks the whole graph minus Z
        # instead of the moral ancestral graph: every X-Y path must meet Z
        for n in range(1, 6):
            for g in all_ugs(n):
                nbr = und_neighbor_sets(g)
                for t in canonical_triples(n):
                    x, y, z = (set(iter_nodes(m)) for m in (t.x, t.y, t.z))
                    allowed = set(range(n)) - z
                    expect = not any(all_simple_paths(nbr, a, b, allowed)
                                     for a in x for b in y)
                    assert _independent(g, GraphKind.CG, t.x, t.y, t.z, {}) == expect
                    assert ci_independent(g, CONC, t.x, t.y, t.z) == expect

    def test_shared_cache_matches_one_shot_sep(self):
        # one cache per graph, filled in canonical order, as
        # `verify_latent_equivalence` and `all_independencies` use it;
        # triples with one union share an entry
        graphs = [(latent_dag(g).dag, n) for n in range(1, 5) for g in all_ugs(n)]
        rng = random.Random(20261018)
        graphs += [(h, h.n) for h in (random_chain_graph(rng) for _ in range(30))]
        assert sum(1 for h, _n in graphs if h.directed) > 60
        for h, n in graphs:
            moral: dict = {}
            triples = canonical_triples(n)
            for t in triples:
                assert _independent(h, GraphKind.CG, t.x, t.y, t.z, moral) == sep(h, t.x, t.y, t.z)
            if h.directed:
                assert len(moral) == len({t.x | t.y | t.z for t in triples})


def random_chain_graph(rng: random.Random) -> MixedGraph:
    """Chain graph on 3-6 nodes drawn as `strategies.chain_graphs` draws
    one: ordered blocks, undirected edges within a block, arrows from an
    earlier block to a later one."""
    n = rng.randint(3, 6)
    block = [rng.randrange(n) for _ in range(n)]
    und = set()
    dire = set()
    for i, j in combinations(range(n), 2):
        if rng.random() < 0.5:
            if block[i] == block[j]:
                und.add((i, j))
            else:
                dire.add((i, j) if block[i] < block[j] else (j, i))
    return MixedGraph(n, default_labels(n), frozenset(und), frozenset(dire))


class TestCovarianceCriterion:
    def test_four_cycle_marginals(self):
        g = cycle4()
        a, b, c, d = (bit(i) for i in range(4))
        assert ci_independent(g, COV, a, c, 0)
        assert ci_independent(g, COV, b, d, 0)

    def test_four_cycle_conditionals_all_dependent(self):
        g = cycle4()
        a, b, c, d = (bit(i) for i in range(4))
        assert not ci_independent(g, COV, a, c, b)
        assert not ci_independent(g, COV, a, c, d)
        assert not ci_independent(g, COV, a, c, b | d)

    def test_edgeless_everything_independent(self):
        g = MixedGraph.ug("ABC")
        for t in canonical_triples(3):
            assert ci_independent(g, COV, t.x, t.y, t.z)

    def test_kind_structure_enforced(self):
        dag = MixedGraph.dag("AB", [("A", "B")])
        with pytest.raises(ValueError):
            ci_independent(dag, COV, bit(0), bit(1), 0)
        ug = MixedGraph.ug("AB", [("A", "B")])
        with pytest.raises(ValueError):
            ci_independent(ug, GraphKind.DAG, bit(0), bit(1), 0)

    def test_concentration_is_sep(self):
        g = MixedGraph.ug("ABC", [("A", "B"), ("B", "C")])
        assert ci_independent(g, CONC, bit(0), bit(2), bit(1))
        assert not ci_independent(g, CONC, bit(0), bit(2), 0)

    @given(ugs(min_n=2, max_n=5), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_bruteforce_paths(self, g, data):
        x, y, z = draw_triple(data, g)
        expect = cov_independent_bruteforce(
            g, set(iter_nodes(x)), set(iter_nodes(y)), set(iter_nodes(z))
        )
        assert ci_independent(g, COV, x, y, z) == expect

    def test_direct_route_equals_separation_route_exhaustive(self):
        for n in range(2, 5):
            for g in all_ugs(n):
                for t in canonical_triples(n):
                    assert ci_independent(g, COV, t.x, t.y, t.z) == \
                        cov_independent_by_separation(g, t.x, t.y, t.z)

    def test_symmetry_exhaustive(self):
        for n in range(2, 6):
            for g in all_ugs(n):
                for t in canonical_triples(n):
                    assert ci_independent(g, COV, t.x, t.y, t.z) == \
                        ci_independent(g, COV, t.y, t.x, t.z)


class TestQueryChecks:
    """Each public query validates its triple and its reading once."""

    # A - B - C in each reading's graph form: A and C are independent
    # given B in every reading but the covariance one
    UG_PATH = MixedGraph.ug("ABC", [("A", "B"), ("B", "C")])
    PATHS = {
        COV: UG_PATH,
        CONC: UG_PATH,
        GraphKind.DAG: MixedGraph.dag("ABC", [("A", "B"), ("B", "C")]),
        GraphKind.CG: MixedGraph(3, ("A", "B", "C"), frozenset({(0, 1)}), frozenset({(1, 2)})),
    }

    @pytest.mark.parametrize("kind", list(GraphKind), ids=lambda k: k.value)
    def test_one_triple_check_per_query(self, kind, monkeypatch):
        check_triple = separation.check_triple
        calls = []

        def counted(*args):
            calls.append(args)
            return check_triple(*args)

        monkeypatch.setattr(separation, "check_triple", counted)
        assert ci_independent(self.PATHS[kind], kind, bit(0), bit(2), bit(1)) == (kind is not COV)
        assert len(calls) == 1

    def test_empty_side_is_refused(self):
        for x, y in ((0, bit(2)), (bit(0), 0)):
            with pytest.raises(ValueError) as exc:
                ci_independent(cycle4(), COV, x, y, bit(1))
            assert str(exc.value) == "X and Y must be nonempty"

    def test_ug_readings_skip_the_chain_graph_pass(self, monkeypatch):
        def refuse(g):
            raise AssertionError("chain-graph pass on an undirected graph")

        monkeypatch.setattr(graphs, "is_chain_graph", refuse)
        for kind in (COV, CONC):
            g = cycle4()  # fresh, so `is_cg` is not cached
            assert ci_independent(g, kind, bit(0), bit(2), 0) == (kind is COV)
            assert all_independencies(g, kind)
            assert dependence_witness(g, kind, bit(0), bit(1), bit(2)) is not None
        assert sep(cycle4(), bit(0), bit(2), bit(1) | bit(3))
        assert not ci_independent(cycle4(), GraphKind.CG, bit(0), bit(2), bit(1))


class TestAllIndependencies:
    def test_single_edge_has_none(self):
        g = MixedGraph.ug("AB", [("A", "B")])
        assert all_independencies(g, COV) == []

    def test_path_contains_marginal(self):
        g = MixedGraph.ug("ABC", [("A", "B"), ("B", "C")])
        assert CITriple(bit(0), bit(2), 0) in all_independencies(g, COV)

    def test_four_cycle_marginal_pairs(self):
        g = cycle4()
        empties = [t for t in all_independencies(g, COV) if t.z == 0
                   and t.x.bit_count() == 1 and t.y.bit_count() == 1]
        assert empties == [CITriple(bit(0), bit(2), 0), CITriple(bit(1), bit(3), 0)]

    def test_deterministic_order(self):
        g = cycle4()
        out = all_independencies(g, COV)
        assert out == sorted(out, key=CITriple.sort_key)
        assert out == all_independencies(g, COV)

    def test_size_guard(self):
        g = MixedGraph.ug("ABCDEFGHI")
        with pytest.raises(SizeLimitError):
            all_independencies(g, COV)

    @given(st.one_of(ugs(1, 4), dags(1, 4), chain_graphs(1, 4), mixed_graphs(1, 4)))
    @settings(max_examples=200, deadline=None)
    def test_equals_per_triple_criterion(self, g):
        # the table checks the reading once, then skips the per-triple
        # checks: each reading must give what `ci_independent` gives on
        # every canonical triple, and a reading g does not admit must
        # still be refused
        for kind in GraphKind:
            try:
                want = [t for t in canonical_triples(g.n)
                        if ci_independent(g, kind, t.x, t.y, t.z)]
            except ValueError:
                with pytest.raises(ValueError):
                    all_independencies(g, kind)
            else:
                assert all_independencies(g, kind) == want

    def test_wrong_reading_is_refused(self):
        with pytest.raises(ValueError, match="dag reading"):
            all_independencies(cycle4(), GraphKind.DAG)
        with pytest.raises(ValueError, match="covariance reading"):
            all_independencies(MixedGraph.dag("AB", [("A", "B")]), COV)


def random_dag(rng: random.Random) -> MixedGraph:
    """DAG on 3-6 nodes with arrows from lower to higher index."""
    n = rng.randint(3, 6)
    dire = {(i, j) for i, j in combinations(range(n), 2) if rng.random() < 0.5}
    return MixedGraph(n, default_labels(n), frozenset(), frozenset(dire))


def sparse_ug(n: int, rng: random.Random) -> MixedGraph:
    """UG on n nodes with each edge drawn with probability 1/4, so most
    node sets induce several components."""
    und = {(i, j) for i, j in combinations(range(n), 2) if rng.random() < 0.25}
    return MixedGraph(n, default_labels(n), frozenset(und), frozenset())


class TestVerdictRows:
    """The rows hold one verdict per triple of `canonical_triples(n)`, by
    position, and the `all_*` tables keep the triples their row marks."""

    def test_independence_row_matches_per_triple_criterion(self):
        rng = random.Random(20261019)
        graphs = [g for n in range(1, 6) for g in all_ugs(n)]
        graphs += [random_dag(rng) for _ in range(30)]
        graphs += [random_chain_graph(rng) for _ in range(30)]
        # The UG rows read a reach table indexed by (S << n | X), so the
        # larger sizes get seeded random UGs, dense and sparse.
        for n, count in ((6, 4), (7, 3), (8, 2)):
            graphs += [random_ug(n, rng) for _ in range(count)]
            graphs += [sparse_ug(n, rng) for _ in range(count)]
        for g in graphs:
            triples = canonical_triples(g.n)
            for kind in GraphKind:
                try:
                    want = [ci_independent(g, kind, t.x, t.y, t.z) for t in triples]
                except ValueError as refused:
                    for table in (_independence_row, all_independencies):
                        with pytest.raises(ValueError) as exc:
                            table(g, kind)
                        assert str(exc.value) == str(refused)
                    continue
                row = _independence_row(g, kind)
                assert len(row) == len(triples) and {type(v) for v in row} <= {bool}
                assert row == want, (kind, g)
                assert all_independencies(g, kind) == list(compress(triples, row))

    def test_checks_come_before_any_walk(self, monkeypatch):
        # a refused size or reading neither enumerates the triples nor
        # walks the graph
        def walk(*_args):
            raise AssertionError("walked before the checks")

        for name in ("canonical_triples", "_independent", "_reach_table", "_partners",
                     "_independence_plan", "_dependence_plan"):
            monkeypatch.setattr(separation, name, walk)
        big = MixedGraph.ug(default_labels(9))
        for row in (_independence_row, _dependence_row):
            with pytest.raises(SizeLimitError, match="sweep limited to 8 nodes"):
                row(big, COV)
        dag = MixedGraph.dag("AB", [("A", "B")])
        for kind in UG_READINGS:
            for row in (_independence_row, _dependence_row):
                with pytest.raises(ValueError, match=f"^{kind.value} reading requires an "):
                    row(dag, kind)
        with pytest.raises(ValueError, match="^dag reading requires an acyclic directed graph$"):
            _independence_row(cycle4(), GraphKind.DAG)
        with pytest.raises(ValueError, match="^dependence criteria exist"):
            _dependence_row(cycle4(), GraphKind.DAG)


def _split_masks(n, states):
    for assignment in product(range(states), repeat=n):
        masks = [0] * states
        for v, a in enumerate(assignment):
            masks[a] |= 1 << v
        yield masks


class TestGraphoidAxiomsOfCriterion:
    """The covariance criterion must itself satisfy the graphoid axioms
    plus weak transitivity and composition, exhaustively on small UGs."""

    @staticmethod
    def _table(g):
        return {(t.x, t.y, t.z) for t in all_independencies(g, COV)}

    @staticmethod
    def _ind(table, x, y, z):
        return ((x, y, z) if x <= y else (y, x, z)) in table

    def _check_graph(self, g):
        table = self._table(g)
        ind = self._ind
        for x, y, z, w, _rest in _split_masks(g.n, 5):
            if not (x and y and w):
                continue
            yw, zw = y | w, z | w
            if ind(table, x, yw, z):
                assert ind(table, x, y, z), "decomposition"
                assert ind(table, x, y, zw), "weak union"
            if ind(table, x, y, zw) and ind(table, x, w, z):
                assert ind(table, x, yw, z), "contraction"
            if ind(table, x, y, zw) and ind(table, x, w, z | y):
                assert ind(table, x, yw, z), "intersection"
            if ind(table, x, y, z) and ind(table, x, w, z):
                assert ind(table, x, yw, z), "composition"
        for x, y, z, rest in _split_masks(g.n, 4):
            if not (x and y):
                continue
            for k in iter_nodes(rest):
                kb = bit(k)
                if ind(table, x, y, z) and ind(table, x, y, z | kb):
                    assert ind(table, x, kb, z) or ind(table, kb, y, z), \
                        "weak transitivity"

    def test_exhaustive_up_to_five_nodes(self):
        for n in range(2, 6):
            for g in all_ugs(n):
                self._check_graph(g)
