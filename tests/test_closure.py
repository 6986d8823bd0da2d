"""Rule-engine saturation: base, rules, fixpoint, provenance."""

import gc
import random
import re
import weakref
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

from covgraph import (
    CITriple,
    GraphKind,
    MixedGraph,
    NotEstablishedError,
    SizeLimitError,
    all_dependencies,
    bit,
    canonical_triples,
    ci_independent,
    explain,
    iter_nodes,
    replay_provenance,
    saturate,
)
from covgraph import closure, verify
from covgraph.closure import (RULES, RULE_BASE, RULE_DECOMPOSITION, RULE_WEAK_TRANSITIVITY1,
                              Derivation, _sites)
from covgraph.graphs import disjoint_splits
from covgraph.smallgraphs import all_ugs, random_ug
from covgraph.separation import _dependence_row
from covgraph.verify import MAX_FAILURES_KEPT, theorems_sweep
from closure_oracles import naive_explain, naive_saturate

COV = GraphKind.COVARIANCE


def cycle4():
    return MixedGraph.ug("ABCD", [("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")])


def path3():
    return MixedGraph.ug("ABC", [("A", "B"), ("B", "C")])


def saturate_swept(g, reverse: bool):
    """`saturate(g)`, with both site tables swept in reverse order when
    `reverse`."""
    if not reverse:
        return saturate(g)
    sites = closure._sites
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(closure, "_sites", lambda n: tuple(table[::-1] for table in sites(n)))
        return saturate(g)


def naive_rule_pass(g, established: set[CITriple]) -> set[CITriple]:
    """One application of every rule to every split, written independently
    of the engine: returns the statements derivable in a single step."""
    new: set[CITriple] = set()

    def ind(x, y, z):
        return ci_independent(g, COV, x, y, z)

    def have(x, y, z):
        return CITriple(x, y, z) in established

    def emit(x, y, z):
        t = CITriple(x, y, z)
        if t not in established:
            new.add(t)

    for assignment in product(range(5), repeat=g.n):
        x = y = z = w = 0
        for v, a in enumerate(assignment):
            if a == 0:
                x |= 1 << v
            elif a == 1:
                y |= 1 << v
            elif a == 2:
                z |= 1 << v
            elif a == 3:
                w |= 1 << v
        if not (x and y and w):
            continue
        if have(x, y, z):
            emit(x, y | w, z)                                  # decomposition
        if have(x, y, z | w):
            emit(x, y | w, z)                                  # weak union
        if have(x, y | w, z):
            if ind(x, y, z | w):
                emit(x, w, z)                                  # contraction1
                emit(x, w, z | y)                              # intersection
            if ind(x, w, z):
                emit(x, y, z | w)                              # contraction2
            if ind(x, y, z):
                emit(x, w, z)                                  # composition
    for assignment in product(range(4), repeat=g.n):
        x = y = z = rest = 0
        for v, a in enumerate(assignment):
            if a == 0:
                x |= 1 << v
            elif a == 1:
                y |= 1 << v
            elif a == 2:
                z |= 1 << v
            else:
                rest |= 1 << v
        if not (x and y):
            continue
        for k in iter_nodes(rest):
            kb = bit(k)
            if have(x, kb, z) and have(kb, y, z):
                if ind(x, y, z):
                    emit(x, y, z | kb)                         # weak transitivity1
                if ind(x, y, z | kb):
                    emit(x, y, z)                              # weak transitivity2
    return new


def dependence_base(g) -> set[CITriple]:
    """The statements `saturate` seeds with the base rule."""
    return {t for t, d in saturate(g).provenance.items() if d.rule == RULE_BASE}


class TestDependenceBase:
    def test_cycle_has_four(self):
        assert len(dependence_base(cycle4())) == 4

    def test_edgeless_empty(self):
        assert dependence_base(MixedGraph.ug("ABC")) == set()

    def test_triangle_three(self):
        g = MixedGraph.ug("ABC", [("A", "B"), ("A", "C"), ("B", "C")])
        base = dependence_base(g)
        assert base == {CITriple(bit(0), bit(1)), CITriple(bit(0), bit(2)),
                        CITriple(bit(1), bit(2))}


class TestSaturate:
    def test_path_derives_conditioned_pair_by_weak_transitivity(self):
        state = saturate(path3())
        t = CITriple(bit(0), bit(2), bit(1))
        assert t in state.established
        d = state.provenance[t]
        assert d.rule == RULE_WEAK_TRANSITIVITY1
        assert set(d.dependencies) == {CITriple(bit(0), bit(1)),
                                       CITriple(bit(1), bit(2))}
        assert d.independencies == (CITriple(bit(0), bit(2), 0),)

    def test_single_edge_closure_is_base(self):
        g = MixedGraph.ug("AB", [("A", "B")])
        state = saturate(g)
        assert state.established == frozenset({CITriple(bit(0), bit(1))})
        assert state.provenance[CITriple(bit(0), bit(1))].rule == RULE_BASE

    def test_cycle_never_derives_double_conditioning(self):
        state = saturate(cycle4())
        assert CITriple(bit(0), bit(2), bit(1) | bit(3)) not in state.established

    def test_triangle_leaves_conditioned_pair_undetermined(self):
        g = MixedGraph.ug("ABC", [("A", "B"), ("A", "C"), ("B", "C")])
        state = saturate(g)
        t = CITriple(bit(0), bit(2), bit(1))
        assert t not in state.established
        assert not ci_independent(g, COV, bit(0), bit(2), bit(1))

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            saturate(MixedGraph.ug("ABCDEFG"))

    def test_base_statements_present_with_base_rule(self):
        state = saturate(cycle4())
        for i, j in cycle4().undirected:
            assert state.provenance[CITriple(bit(i), bit(j))].rule == RULE_BASE

    def test_fixpoint_against_naive_pass(self):
        for g in (path3(), cycle4(),
                  MixedGraph.ug("ABC", [("A", "B"), ("A", "C"), ("B", "C")]),
                  MixedGraph.ug("ABCD", [("A", "B"), ("B", "C"), ("C", "D")])):
            state = saturate(g)
            assert naive_rule_pass(g, set(state.established)) == set()

    def test_order_independence(self):
        # every labeled UG of up to 4 nodes
        graphs = [g for n in range(1, 5) for g in all_ugs(n)]
        assert len(graphs) == 75
        for g in graphs:
            assert saturate(g).established == saturate_swept(g, reverse=True).established, g

    def test_antecedents_precede_conclusions(self):
        state = saturate(cycle4())
        for t, d in state.provenance.items():
            for dep in d.dependencies:
                assert dep in state.established

    def test_replay(self):
        for g in (path3(), cycle4()):
            report = replay_provenance(saturate(g))
            assert report.passed, report.violations

    def test_replay_reports_tampered_provenance(self):
        # an unknown rule, an antecedent that was never established (A and C
        # are marginally independent on the path) and an independency the
        # criterion does not certify (A - B is an edge)
        state = saturate(path3())
        pos = canonical_triples(3).index
        ab, ac = pos(CITriple(bit(0), bit(1))), pos(CITriple(bit(0), bit(2)))
        ac_b = pos(CITriple(bit(0), bit(2), bit(1)))
        derivations = [None] * len(state.row)
        derivations[ab] = ("no-such-rule", (), ())
        derivations[ac_b] = (RULE_WEAK_TRANSITIVITY1, (ac,), (ab,))
        report = replay_provenance(replace(state, derivations=derivations, order=[ab, ac_b]))
        assert report.checked == 2
        assert report.violations == [
            "A ; B ; -: unknown rule no-such-rule",
            "A ; C ; B: antecedent A ; C ; - missing",
            "A ; C ; B: A ; B ; - not graph-certified",
        ]

    def test_replay_reports_circular_support(self):
        # the last two statements derived on the path cite each other: both
        # antecedents are established, but the earlier statement's is
        # derived only after it
        state = saturate(path3())
        first, second = state.order[-2:]
        derivations = list(state.derivations)
        derivations[first] = (RULE_DECOMPOSITION, (second,), ())
        derivations[second] = (RULE_DECOMPOSITION, (first,), ())
        report = replay_provenance(replace(state, derivations=derivations))
        assert report.checked == 8
        assert report.violations == [
            f"{state.render(first)}: antecedent {state.render(second)} not derived before it",
        ]
        # a statement citing itself is not derived before itself either
        derivations = list(state.derivations)
        derivations[second] = (RULE_DECOMPOSITION, (second,), ())
        report = replay_provenance(replace(state, derivations=derivations))
        assert report.violations == [
            f"{state.render(second)}: antecedent {state.render(second)} not derived before it",
        ]

    def test_dependence_antecedents_come_first_in_order(self):
        """Every dependence antecedent precedes its statement in `order`,
        in both sweep orders, on every labeled UG of up to 4 nodes and on
        seeded random 5- and 6-node UGs; `explain` builds its trees on
        that order, so a deep statement explained first on a fresh state
        reads as it does after every other statement."""
        rng = random.Random(20261022)
        graphs = [g for n in range(1, 5) for g in all_ugs(n)]
        graphs += [random_ug(5, rng) for _ in range(8)]
        graphs += [random_ug(6, rng) for _ in range(3)]
        for g in graphs:
            for reverse in (False, True):
                state = saturate_swept(g, reverse)
                seen = set()
                for p in state.order:
                    assert all(dep in seen for dep in state.derivations[p][1]), (g, reverse, p)
                    seen.add(p)
                if not state.order:
                    continue
                ordered = state.sorted_statements()
                deep = max(ordered, key=lambda t: explain(state, t).count("\n"))
                first = explain(saturate_swept(g, reverse), deep)
                assert first == explain(state, deep) == naive_explain(state, deep)

    def test_matches_naive_engine(self):
        """The int-keyed engine and the tuple-keyed one make the same first
        derivations in the same order, in the same number of sweeps, in
        both sweep orders, on every labeled UG of up to 4 nodes and on
        seeded random 5- and 6-node UGs."""
        rng = random.Random(20261018)
        graphs = [g for n in range(1, 5) for g in all_ugs(n)]
        graphs += [random_ug(5, rng) for _ in range(12)]
        graphs += [random_ug(6, rng) for _ in range(4)]
        for g in graphs:
            for reverse in (False, True):
                got = saturate_swept(g, reverse)
                want = naive_saturate(g, _reverse_sweep=reverse)
                assert got.sweeps == want.sweeps
                assert list(got.provenance.items()) == list(want.provenance.items())


class TestPositionalState:
    def test_callers_read_the_table_and_views_match_the_reference(self, monkeypatch):
        """`saturate`, `explain` of every statement, `replay_provenance`
        and the theorem check `saturate(g).row == _dependence_row(g, COV)`
        hash no `CITriple`, construct no `Derivation` and build neither
        view; read afterwards, the views
        equal the reference engine's, the provenance in order too.  In
        both sweep orders, on every labeled UG of up to 4 nodes and on
        seeded random 5- and 6-node UGs."""
        calls = Counter()
        real_hash, real_init = CITriple.__hash__, Derivation.__init__

        def counted_hash(t):
            calls["hash"] += 1
            return real_hash(t)

        def counted_init(d, *args, **kwargs):
            calls["derivation"] += 1
            real_init(d, *args, **kwargs)

        monkeypatch.setattr(CITriple, "__hash__", counted_hash)
        monkeypatch.setattr(Derivation, "__init__", counted_init)

        rng = random.Random(20261021)
        graphs = [g for n in range(1, 5) for g in all_ugs(n)]
        graphs += [random_ug(5, rng) for _ in range(8)]
        graphs += [random_ug(6, rng) for _ in range(3)]
        for g in graphs:
            for reverse in (False, True):
                calls.clear()
                state = saturate_swept(g, reverse)
                for t in state.sorted_statements():
                    explain(state, t)
                assert replay_provenance(state).passed
                checked = saturate(g)
                assert checked.row == _dependence_row(g, COV)
                assert calls == {}, (g, reverse)
                for seen in (state, checked):
                    assert "established" not in seen.__dict__
                    assert "provenance" not in seen.__dict__
                want = naive_saturate(g, _reverse_sweep=reverse)
                assert state.established == want.established
                assert list(state.provenance.items()) == list(want.provenance.items())


class TestInternedTriples:
    def test_provenance_holds_the_canonical_objects(self):
        """Every provenance key and every dependence and independence
        antecedent is the very object of `canonical_triples(n)`, in both
        sweep orders, on every labeled UG of up to 4 nodes and on seeded
        random 5- and 6-node UGs."""
        rng = random.Random(20261019)
        graphs = [g for n in range(1, 5) for g in all_ugs(n)]
        graphs += [random_ug(5, rng) for _ in range(8)]
        graphs += [random_ug(6, rng) for _ in range(3)]
        for g in graphs:
            canonical = {t: t for t in canonical_triples(g.n)}
            for reverse in (False, True):
                for t, d in saturate_swept(g, reverse).provenance.items():
                    for u in (t, *d.dependencies, *d.independencies):
                        assert canonical[u] is u, (g, reverse, u)

    def test_sorted_statements_read_the_canonical_order(self):
        for g in (g for n in range(1, 6) for g in all_ugs(n)):
            state = saturate(g)
            assert state.sorted_statements() == sorted(state.established, key=CITriple.sort_key)


class TestSites:
    @pytest.mark.parametrize("n, set_count, node_count", [
        (1, 0, 0), (2, 0, 0), (3, 6, 6), (4, 84, 72), (5, 750, 550), (6, 5460, 3420),
    ])
    def test_table_sizes(self, n, set_count, node_count):
        # (X, Y, W) nonempty, Z free, out of five parts; (X, Y) nonempty
        # and one node K of the rest, out of four parts
        set_sites, node_sites = _sites(n)
        assert len(set_sites) == set_count == 5**n - 3 * 4**n + 3 * 3**n - 2**n
        assert len(node_sites) == node_count == \
            n * (4**(n - 1) - 2 * 3**(n - 1) + 2**(n - 1))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_positions_name_each_role_of_its_site(self, n):
        """Each site, rebuilt from `disjoint_splits` in `_sites`'s order,
        holds the canonical position of the triple each role names."""
        triples = canonical_triples(n)
        set_sites, node_sites = _sites(n)
        want_set = [
            (CITriple(x, y, z), CITriple(x, y, z | w), CITriple(x, y | w, z),
             CITriple(x, w, z), CITriple(x, w, z | y))
            for x, y, z, w, _rest in disjoint_splits(n, 5)
            if x and y and w
        ]
        want_node = [
            (CITriple(x, k, z), CITriple(k, y, z), CITriple(x, y, z), CITriple(x, y, z | k))
            for x, y, z, rest in disjoint_splits(n, 4)
            if x and y
            for k in map(bit, iter_nodes(rest))
        ]
        assert [tuple(triples[p] for p in site) for site in set_sites] == want_set
        assert [tuple(triples[p] for p in site) for site in node_sites] == want_node


def first_rule_histogram(reverse: bool) -> dict[str, int]:
    """How often each rule makes a statement first, over every labeled UG
    of up to 4 nodes plus 20 random 5-node UGs drawn from a fixed seed."""
    rng = random.Random(2010)
    graphs = [g for n in range(1, 5) for g in all_ugs(n)]
    graphs += [random_ug(5, rng) for _ in range(20)]
    return dict(Counter(
        d.rule
        for g in graphs
        for d in saturate_swept(g, reverse).provenance.values()
    ))


class TestProvenancePin:
    """The order in which splits are swept decides which rule derives a
    statement first, which `closure` and `explain` print.  These counts
    were recorded before the split enumeration was shared, and must not
    move."""

    def test_first_rule_histogram(self):
        assert first_rule_histogram(reverse=False) == {
            "base": 304, "composition": 101, "contraction1": 29,
            "contraction2": 1194, "decomposition": 3448, "intersection": 192,
            "weak-transitivity1": 607, "weak-union": 449,
        }

    def test_first_rule_histogram_reverse_sweep(self):
        assert first_rule_histogram(reverse=True) == {
            "base": 304, "composition": 5, "contraction1": 1,
            "contraction2": 1491, "decomposition": 3872,
            "weak-transitivity1": 645, "weak-union": 6,
        }


class TestTheoremEquality:
    def test_exhaustive_three_nodes(self):
        # every UG of 1-3 nodes (edgeless ones pass vacuously) plus the
        # 4-cycle: the closure is exactly the criterion's dependence set
        graphs = [g for n in range(1, 4) for g in all_ugs(n)] + [cycle4()]
        for g in graphs:
            state = saturate(g)
            assert state.established == set(all_dependencies(g, COV))

    def test_reports_pass(self):
        # the theorem check (soundness and completeness as one equality of
        # rows over every canonical triple) passes
        for g in (path3(), cycle4(), MixedGraph.ug("AB")):
            row = saturate(g).row
            assert row == _dependence_row(g, COV)
            assert len(row) == len(canonical_triples(g.n))

    def test_edgeless_passes_vacuously(self):
        g = MixedGraph.ug("ABC")
        assert saturate(g).established == set()
        assert saturate(g).row == _dependence_row(g, COV)

    def test_sweep_records_a_dropped_statement(self, monkeypatch):
        real = verify._lane_closure

        def drop_first(adj, indep):
            # each lane's row is in canonical order, so its first
            # established position is its smallest established statement
            est = real(adj, indep)
            undropped = -1  # every lane
            for p, lanes in enumerate(est):
                first = lanes & undropped
                est[p] ^= first
                undropped ^= first
            return est

        monkeypatch.setattr(verify, "_lane_closure", drop_first)
        r = theorems_sweep(4, 0, 0)
        assert r["exhaustive_graphs"] == 75 and not r["passed"]
        # 71 of the 75 graphs have an edge, so each fails; 20 are kept
        assert len(r["failures"]) == MAX_FAILURES_KEPT
        assert r["failures"][0] == "n=2 edges=[A-B] missing=['A ; B ; -'] extra=[]"
        for line in r["failures"]:
            assert re.fullmatch(r"n=\d edges=\[[A-D,-]*\] missing=\['[^']+'\] extra=\[\]", line)


class TestExplain:
    def test_tree_shape(self):
        state = saturate(path3())
        text = explain(state, CITriple(bit(0), bit(2), bit(1)))
        lines = text.splitlines()
        assert "[weak-transitivity1]" in lines[0]
        assert sum("[base]" in line for line in lines) == 2
        assert sum("[independent by graph]" in line for line in lines) == 1

    def test_base_is_single_node(self):
        state = saturate(path3())
        assert explain(state, CITriple(bit(0), bit(1))) == "A ; B ; -  [base]"

    def test_absent_triple_raises(self):
        state = saturate(path3())
        with pytest.raises(NotEstablishedError):
            explain(state, CITriple(bit(0), bit(2), 0))

    def test_triple_outside_the_graph_is_refused(self):
        state = saturate(path3())
        with pytest.raises(ValueError, match="^triple mentions nodes outside the graph$") as exc:
            explain(state, CITriple(bit(0), bit(3)))
        assert not isinstance(exc.value, NotEstablishedError)
        # a negative mask is refused before `explain` is reached
        with pytest.raises(ValueError, match="^node set masks must not be negative$"):
            explain(state, CITriple(-4, 1))

    def test_matches_naive_renderer(self):
        """Every statement of every labeled UG of up to 4 nodes and of
        seeded random 5- and 6-node UGs, explained in sorted and in reverse
        order, each order on a fresh state, renders as the from-scratch
        renderer does."""
        rng = random.Random(20261018)
        graphs = [g for n in range(1, 5) for g in all_ugs(n)]
        graphs += [random_ug(5, rng) for _ in range(10)]
        graphs += [random_ug(6, rng) for _ in range(4)]
        for g in graphs:
            reference = saturate(g)
            ordered = reference.sorted_statements()
            want = [naive_explain(reference, t) for t in ordered]
            for ts, texts in ((ordered, want), (ordered[::-1], want[::-1])):
                state = saturate(g)
                assert [explain(state, t) for t in ts] == texts

    def test_state_is_freed_without_the_cycle_collector(self):
        state = saturate(cycle4())
        ref = weakref.ref(state)
        gc.disable()
        try:
            for t in state.sorted_statements():
                explain(state, t)
            del state
            assert ref() is None
        finally:
            gc.enable()


def test_rule_inventory_names():
    assert set(RULES) == {
        "base", "symmetry", "decomposition", "weak-union", "contraction1",
        "contraction2", "intersection", "weak-transitivity1",
        "weak-transitivity2", "composition",
    }
