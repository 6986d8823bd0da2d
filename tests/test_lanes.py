"""Lane families, lane verdict rows and the lane closure: every graph of a
family as one bit of an int, against the per-graph rows, `saturate` and
per-graph d-separation."""

import random
from functools import lru_cache
from itertools import combinations

import pytest

from covgraph import (CITriple, GraphKind, MixedGraph, bit, canonical_triples,
                      connectivity_components, is_forest, iter_nodes, latent_dag, saturate,
                      verify_forest_faithfulness, verify_latent_equivalence)
from covgraph import separation, verify
from covgraph.closure import _lane_closure
from covgraph.graphs import _lane_reach, reachable
from covgraph.separation import (UG_READINGS, _dependence_row, _independence_row,
                                 _independent, _lane_dag_independence_row, _lane_rows)
from covgraph.smallgraphs import (all_forests, all_ug_lanes, all_ugs, connected_ugs, iter_lanes,
                                  node_pairs, random_ug, random_ug_lanes)
from covgraph.verify import (MAX_FAILURES_KEPT, MAX_LATENT_NODES, _closure_check,
                             _connected_pairs, _describe, _forest_check, _latent_check,
                             _latent_parents, _pair_plan, corollaries_sweep, forest_sweep,
                             latent_sweep, theorems_sweep)

COV = GraphKind.COVARIANCE


def lane(row, k):
    """Lane k of a lane row, as the per-graph row of bools."""
    return [bool(lanes >> k & 1) for lanes in row]


def assert_lanes_match(lanes, graphs):
    """Every lane row and the lane closure of `lanes` equal, lane by lane,
    the per-graph rows and `saturate(g).row` of `graphs`, in both UG
    readings; lane k's graph and forest bit are graph k's."""
    assert len(lanes.graphs) == len(graphs)
    rows = {kind: _lane_rows(lanes, kind) for kind in UG_READINGS}
    closure = _lane_closure(lanes.adj, rows[COV][0])
    forests = lanes.forests()
    for k, g in enumerate(graphs):
        assert lanes.graph(k) == g
        assert bool(forests >> k & 1) == is_forest(g), g
        for kind, (independent, dependent) in rows.items():
            assert lane(independent, k) == _independence_row(g, kind), (kind, g)
            assert lane(dependent, k) == _dependence_row(g, kind), (kind, g)
        assert lane(closure, k) == saturate(g).row, g


class TestLaneAgreement:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_labeled_ug(self, n):
        # 1, 2, 8, 64 and 1,024 graphs
        assert_lanes_match(all_ug_lanes(n), list(all_ugs(n)))

    def test_random_six_node_batch(self):
        lanes = random_ug_lanes(6, 24, random.Random(2028))
        rng = random.Random(2028)
        assert_lanes_match(lanes, [random_ug(6, rng) for _ in range(24)])

    def test_random_batch_draws_as_random_ug_does(self):
        # one batch per size from one generator, then the generator goes
        # on where `random_ug` calls would leave it
        rng, lane_rng = random.Random(7), random.Random(7)
        for n, count in ((5, 3), (6, 4), (1, 2)):
            lanes = random_ug_lanes(n, count, lane_rng)
            assert [lanes.graph(k) for k in range(count)] == \
                [random_ug(n, rng) for _ in range(count)]
        assert lane_rng.getrandbits(64) == rng.getrandbits(64)

    @pytest.mark.parametrize("n", [0, 1])
    def test_draws_without_pairs_leave_the_generator_untouched(self, n):
        rng = random.Random(11)
        state = rng.getstate()
        assert random_ug(n, rng).undirected == frozenset()
        assert rng.getstate() == state
        lanes = random_ug_lanes(n, 5, rng)
        assert list(lanes.graphs) == [0] * 5 and rng.getstate() == state

    def test_full_mask_is_built_once_per_family(self):
        lanes = all_ug_lanes(4)
        assert lanes.full is lanes.full

    def test_empty_batch(self):
        lanes = random_ug_lanes(5, 0, random.Random(0))
        assert lanes.full == 0 and lanes.forests() == 0
        assert set(_lane_rows(lanes, COV)[1]) == {0}


class TestSixNodesExhaustive:
    def test_closure_equals_criterion_on_every_ug(self):
        # all 32,768 labeled 6-node UGs
        lanes = all_ug_lanes(6)
        checked, derived, certified, _lines = _closure_check(lanes)
        assert checked == lanes.full and checked.bit_count() == 32768
        assert [d & checked for d in derived] == [c & checked for c in certified]

    def test_dependence_complements_independence_on_every_forest(self):
        checked, dependent, refused, _lines = _forest_check(all_ug_lanes(6))
        assert checked.bit_count() == 2932
        assert [d & checked for d in dependent] == [r & checked for r in refused]


class TestForestLanes:
    @pytest.mark.parametrize("n, count", [(7, 4096), (8, 2048)])
    def test_random_batch_against_is_forest(self, n, count):
        lanes = random_ug_lanes(n, count, random.Random(3300 + n))
        forests = lanes.forests()
        assert [bool(forests >> k & 1) for k in range(count)] == \
            [is_forest(lanes.graph(k)) for k in range(count)]

    @pytest.mark.parametrize("n", range(7))
    def test_all_forests_are_the_forests_of_all_ugs_in_order(self, n):
        assert list(all_forests(n)) == [g for g in all_ugs(n) if is_forest(g)]

    def test_all_forests_of_seven_nodes(self):
        # the labeled forests on 7 nodes number 36,961 (OEIS A001858)
        assert sum(1 for _ in all_forests(7)) == 36_961

    def test_every_seven_node_ug_as_lanes(self):
        # lane k holds pair e exactly when bit e of k is set, checked on
        # 2,000 seeded lanes of the 2,097,152; the labeled forests on 7
        # nodes number 36,961 (OEIS A001858)
        lanes = all_ug_lanes(7)
        # each pair's mask as bytes, so reading one lane copies no mask
        masks = [lanes.adj[u][v].to_bytes(1 << 18, "little") for u, v in combinations(range(7), 2)]
        rng = random.Random(3407)
        for k in (rng.randrange(1 << 21) for _ in range(2000)):
            assert [m[k >> 3] >> (k & 7) & 1 for m in masks] == [k >> e & 1 for e in range(21)], k
        assert lanes.forests().bit_count() == 36_961


class TestIterLanes:
    @pytest.mark.parametrize("width", [1, 7, 64, 1000, 1 << 15])
    def test_matches_iter_nodes_on_seeded_masks(self, width):
        rng = random.Random(3600 + width)
        for density in (0.02, 0.5, 0.98):
            for _ in range(4):
                mask = sum(1 << k for k in range(width) if rng.random() < density)
                assert list(iter_lanes(mask)) == list(iter_nodes(mask))

    def test_edge_masks(self):
        assert list(iter_lanes(0)) == []
        assert list(iter_lanes(1)) == [0]
        assert list(iter_lanes(1 << 70)) == [70]
        assert list(iter_lanes((1 << 70) - 1)) == list(range(70))


@lru_cache(maxsize=None)
def filtered_connected(n):
    """The connected graphs of `all_ugs(n)` by the component filter that
    `connected_ugs` ran before its lane selection: the reference."""
    return [g for g in all_ugs(n) if len(connectivity_components(g)) == 1]


class TestConnectedLanes:
    @pytest.mark.parametrize("n", range(7))
    def test_every_labeled_ug(self, n):
        # 1, 1, 1, 4, 38, 728 and 26,704 connected (OEIS A001187)
        lanes = all_ug_lanes(n)
        connected = lanes.connected()
        assert [lanes.graph(k) for k in iter_nodes(connected)] == filtered_connected(n)
        assert connected.bit_count() == [0, 1, 1, 4, 38, 728, 26_704][n]

    @pytest.mark.parametrize("n, count", [(7, 2048), (8, 1024)])
    def test_random_batch_against_the_component_filter(self, n, count):
        lanes = random_ug_lanes(n, count, random.Random(3500 + n))
        connected = lanes.connected()
        flags = [bool(connected >> k & 1) for k in range(count)]
        assert flags == [len(connectivity_components(lanes.graph(k))) == 1 for k in range(count)]
        assert 0 < sum(flags) < count

    @pytest.mark.parametrize("n", range(7))
    def test_connected_ugs_keeps_the_filter_order(self, n):
        assert [sorted(g.undirected) for g in connected_ugs(n)] == \
            [sorted(g.undirected) for g in filtered_connected(n)]

    @pytest.mark.parametrize("n", range(6))
    def test_lane_read_criterion_pairs(self, n):
        # each connected graph's expected row, read from one lane family,
        # is the per-graph read of its covariance independence row
        plan = _pair_plan(n)
        rows = [(g, _independence_row(g, COV)) for g in connected_ugs(n)]
        assert list(_connected_pairs(n)) == [(g, [row[p] for p, _k, _ij in plan]) for g, row in rows]

    @pytest.mark.parametrize("n", range(9))
    def test_one_pair_tuple_per_size(self, n):
        assert node_pairs(n) is node_pairs(n)
        assert node_pairs(n) == tuple(combinations(range(n), 2))


def test_corollaries_sweep_reads_no_per_graph_row(monkeypatch):
    def refuse(*args):
        raise AssertionError("per-graph criterion row")

    monkeypatch.setattr(verify, "_independence_row", refuse)
    r = corollaries_sweep(4, 2, 0)
    assert (r["graphs"], r["total_trials"], r["passed"]) == (44, 88, True)


def test_corollaries_sweep_reads_a_flipped_lane(monkeypatch):
    """The criterion's A ; C ; - verdict of the path A-B-C lane flipped at
    3 nodes: every trial of that graph, and of no other, is unfaithful."""
    k = 5  # edge bits A-B and B-C
    p = canonical_triples(3).index(CITriple(bit(0), bit(2)))
    real = verify._lane_rows

    def flip_lane(lanes, kind):
        independent, dependent = real(lanes, kind)
        if lanes.n == 3:
            independent[p] ^= 1 << k
        return independent, dependent

    monkeypatch.setattr(verify, "_lane_rows", flip_lane)
    r = corollaries_sweep(4, 3, 0)
    assert (r["graphs"], r["faithful_trials"], r["graphs_below_threshold"]) == (44, 129, 1)
    assert r["failures"] == ["n=3 edges=[A-B,B-C] faithful fraction 0.000 < 0.95"]


@pytest.mark.parametrize("sweep", [lambda: theorems_sweep(4, 0), lambda: forest_sweep(4),
                                   lambda: latent_sweep(4), lambda: corollaries_sweep(4, 1)],
                         ids=["theorems", "forest", "latent", "corollaries"])
def test_each_lane_check_walks_a_family_once(monkeypatch, sweep):
    """Both rows of a family come from one path walk: a sweep over sizes
    1-4, one family per size, walks four times."""
    real = separation._lane_paths
    sizes = []

    def counted(adj, full):
        sizes.append(len(adj))
        return real(adj, full)

    monkeypatch.setattr(separation, "_lane_paths", counted)
    assert sweep()["passed"]
    assert sizes == [1, 2, 3, 4]


def test_random_sample_runs_in_batches(monkeypatch):
    """A sample larger than `MAX_LANES` is drawn batch by batch from the
    one generator, and the report, failures in lane order included, reads
    as one batch gives it.  The first statement of every 5- and 6-node
    lane is dropped from the closure, so each sampled graph fails."""
    real_closure, real_draw = verify._lane_closure, verify.random_ug_lanes

    def drop_first(adj, indep):
        est = real_closure(adj, indep)
        if len(adj) >= 5:
            undropped = -1
            for p, lanes in enumerate(est):
                first = lanes & undropped
                est[p] ^= first
                undropped ^= first
        return est

    batches = []

    def draw(n, count, rng):
        batches.append((n, count))
        return real_draw(n, count, rng)

    monkeypatch.setattr(verify, "_lane_closure", drop_first)
    monkeypatch.setattr(verify, "random_ug_lanes", draw)
    want = theorems_sweep(6, 7, 11)
    assert batches == [(5, 7), (6, 7)]
    assert len(want["failures"]) == 14 and want["random_graphs"] == 14
    batches.clear()
    monkeypatch.setattr(verify, "MAX_LANES", 3)
    assert theorems_sweep(6, 7, 11) == want
    assert batches == [(5, 3), (5, 3), (5, 1), (6, 3), (6, 3), (6, 1)]


def test_forest_sweep_records_a_flipped_lane(monkeypatch):
    """Every dependence verdict of one 3-node forest lane flipped: the
    sweep renders that graph's lines as `verify_forest_faithfulness`
    renders them with the same flip, and keeps its counts."""
    k = 5  # edge bits A-B and B-C
    g = all_ug_lanes(3).graph(k)
    assert g == MixedGraph.ug("ABC", [("A", "B"), ("B", "C")])
    real_lanes, real_row = verify._lane_rows, verify._dependence_row

    def flip_lane(lanes, kind):
        independent, dependent = real_lanes(lanes, kind)
        if lanes.n == 3:
            dependent = [r ^ 1 << k for r in dependent]
        return independent, dependent

    monkeypatch.setattr(verify, "_lane_rows", flip_lane)
    r = forest_sweep(4)
    assert (r["graphs"], r["triples_checked"], r["passed"]) == (48, 2155, False)
    monkeypatch.setattr(verify, "_dependence_row",
                        lambda h, kind: [not d for d in real_row(h, kind)])
    want = [f"{_describe(g)} {v}" for v in verify_forest_faithfulness(g).violations]
    assert len(want) == 9 <= MAX_FAILURES_KEPT
    assert r["failures"] == want
    assert want[0] == "n=3 edges=[A-B,B-C] A ; B ; -: dependent=False independent=False"


def dag_rows(dags, n):
    """Per-graph d-separation (`_independent`'s DAG branch) on each DAG,
    over the triples of `canonical_triples(n)`."""
    rows = []
    for h in dags:
        moral: dict = {}
        rows.append([_independent(h, GraphKind.DAG, t.x, t.y, t.z, moral)
                     for t in canonical_triples(n)])
    return rows


def random_dag(size, rng):
    """A DAG on `size` nodes whose topological order is a shuffle of the
    node ids, each forward pair an arrow with probability one half."""
    order = list(range(size))
    rng.shuffle(order)
    labels = [f"V{v}" for v in range(size)]
    arrows = [(labels[order[i]], labels[order[j]])
              for i, j in combinations(range(size), 2) if rng.random() < 0.5]
    return MixedGraph.dag(labels, arrows)


class TestLaneReach:
    @pytest.mark.parametrize("size", range(1, 13))
    def test_matches_reachable_in_every_lane(self, size):
        # seeded random link systems, with cycles and several seeded nodes:
        # lane k of the reach is `reachable` on lane k's own steps
        rng = random.Random(3800 + size)
        width = rng.choice([1, 64, 4096])
        full = (1 << width) - 1
        links = [[(w, rng.getrandbits(width)) for w in range(size) if rng.random() < 0.4]
                 for _ in range(size)]
        seed = [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(size)]
        reach = _lane_reach(links, seed)
        assert len(reach) == size and all(r & ~full == 0 for r in reach)
        for k in range(width):
            adj = [sum(bit(w) for w, lanes in steps if lanes >> k & 1) for steps in links]
            start = sum(bit(v) for v in range(size) if seed[v] >> k & 1)
            got = reachable(adj, start, (1 << size) - 1)
            assert [r >> k & 1 for r in reach] == [got >> v & 1 for v in range(size)], k

    @pytest.mark.parametrize("m", [2, 3, 12])
    def test_reversed_chain_sweeps_until_nothing_changes(self, m):
        # every step runs against the sweep order, so m nodes take m - 1
        # sweeps; lane k lacks the step k + 1 -> k, and lane m - 1 has all
        full = (1 << m) - 1
        links = [[]] + [[(v - 1, full & ~bit(v - 1))] for v in range(1, m)]
        reach = _lane_reach(links, [0] * (m - 1) + [full])
        assert reach == [bit(w) - 1 | bit(m - 1) for w in range(m)]


class TestLaneDagRow:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_latent_dag_of_every_labeled_ug(self, n):
        lanes = all_ug_lanes(n)
        row = _lane_dag_independence_row(_latent_parents(lanes), lanes.full, n)
        want = dag_rows([latent_dag(g).dag for g in all_ugs(n)], n)
        assert len(row) == len(canonical_triples(n))
        for k, expected in enumerate(want):
            assert lane(row, k) == expected, lanes.graph(k)

    @pytest.mark.parametrize("size", range(1, 11))
    def test_random_dags_with_shuffled_orders(self, size):
        # the row knows nothing of the latent shape: any DAG, read over all
        # of its nodes or over its first nodes only; past 6 nodes, over
        # the first ceil(size / 2) only
        rng = random.Random(2029 + size)
        dags = [random_dag(size, rng) for _ in range(40)]
        pa = [[0] * size for _ in range(size)]
        for k, h in enumerate(dags):
            for tail, head in h.directed:
                pa[head][tail] |= 1 << k
        assert sum(1 for h in dags if h.directed) > 30 or size < 3
        for n in {size, (size + 1) // 2} if size <= 6 else {(size + 1) // 2}:
            row = _lane_dag_independence_row(pa, (1 << len(dags)) - 1, n)
            for k, expected in enumerate(dag_rows(dags, n)):
                assert lane(row, k) == expected, (dags[k], n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_parents_are_the_latent_dag_arrows(self, n):
        # lane k's arrows are those of latent_dag(graph k), with the latent
        # named L_a_b taking id n + the index of pair (a, b)
        labels = "ABCDEF"[:n]
        ids = {f"L_{labels[a]}_{labels[b]}": n + i
               for i, (a, b) in enumerate(combinations(range(n), 2))}
        ids.update((label, v) for v, label in enumerate(labels))
        lanes = all_ug_lanes(n)
        pa = _latent_parents(lanes)
        assert len(pa) == n + n * (n - 1) // 2
        assert all(len(row) == len(pa) for row in pa)
        # each nonzero entry as one digit string, lane k at index k, so a
        # 32,768-lane entry is read without a shift per lane
        width = len(lanes.graphs)
        entries = [((u, v), format(mask, f"0{width}b")[::-1])
                   for v, row in enumerate(pa) for u, mask in enumerate(row) if mask]
        assert all(mask >> width == 0 for row in pa for mask in row)
        for k, g in enumerate(all_ugs(n)):
            h = latent_dag(g).dag
            want = {(ids[h.labels[tail]], ids[h.labels[head]]) for tail, head in h.directed}
            assert {arrow for arrow, digits in entries if digits[k] == "1"} == want, g

    def test_sweep_builds_no_per_lane_latent_dag(self, monkeypatch):
        # the lane parents come from the pair rule; the per-graph check
        # keeps `latent_dag`
        def refuse(g):
            raise AssertionError("per-lane latent_dag call")

        monkeypatch.setattr(verify, "latent_dag", refuse)
        r = latent_sweep(5)
        assert (r["graphs"], r["triples_checked"], r["passed"]) == (1099, 295434, True)
        with pytest.raises(AssertionError, match="per-lane"):
            verify_latent_equivalence(MixedGraph.ug("AB", [("A", "B")]))

    @pytest.mark.parametrize("n, count", [(6, 32768), (7, 2048)])
    def test_latent_equivalence_past_the_sweep_sizes(self, n, count):
        # `latent_sweep` stops at MAX_LATENT_NODES; every labeled 6-node UG
        # and a random 7-node family, with 21- and 28-node lane DAGs, agree
        # as well
        assert n > MAX_LATENT_NODES
        if count == 1 << len(node_pairs(n)):
            lanes = all_ug_lanes(n)
        else:
            lanes = random_ug_lanes(n, count, random.Random(2032 + n))
        checked, criterion, latent, _lines = _latent_check(lanes)
        assert checked == lanes.full and checked.bit_count() == count
        assert [c & checked for c in criterion] == [d & checked for d in latent]

    def test_sweep_makes_no_per_triple_call(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("per-triple d-separation call")

        monkeypatch.setattr(separation, "_independent", refuse)
        monkeypatch.setattr(verify, "_independent", refuse)
        r = latent_sweep(5)
        assert (r["graphs"], r["triples_checked"], r["passed"]) == (1099, 295434, True)


def test_latent_sweep_records_a_flipped_lane(monkeypatch):
    """The criterion's A ; C ; - verdict of the path A-B-C lane flipped at
    3 nodes: the sweep renders that graph's line as
    `verify_latent_equivalence` renders it with the same flip."""
    k = 5  # edge bits A-B and B-C
    g = all_ug_lanes(3).graph(k)
    assert g == MixedGraph.ug("ABC", [("A", "B"), ("B", "C")])
    p = canonical_triples(3).index(CITriple(bit(0), bit(2)))
    real_lanes, real_row = verify._lane_rows, verify._independence_row

    def flip_lane(lanes, kind):
        independent, dependent = real_lanes(lanes, kind)
        if lanes.n == 3:
            independent[p] ^= 1 << k
        return independent, dependent

    def flip_row(h, kind):
        row = real_row(h, kind)
        row[p] = not row[p]
        return row

    monkeypatch.setattr(verify, "_lane_rows", flip_lane)
    r = latent_sweep(4)
    assert (r["graphs"], r["triples_checked"], r["passed"]) == (75, 3594, False)
    monkeypatch.setattr(verify, "_independence_row", flip_row)
    want = [f"{_describe(g)} {v}" for v in verify_latent_equivalence(g).violations]
    assert r["failures"] == want
    assert want == ["n=3 edges=[A-B,B-C] A ; C ; -: criterion=False latent-dag=True"]


def test_latent_sweep_caps_its_failures(monkeypatch):
    """Every d-separation verdict of every lane flipped: every graph with
    a triple fails, and the sweep keeps the first `MAX_FAILURES_KEPT`
    messages, in size and lane order."""
    real = verify._lane_dag_independence_row
    monkeypatch.setattr(verify, "_lane_dag_independence_row",
                        lambda pa, full, n: [full ^ r for r in real(pa, full, n)])
    r = latent_sweep(3)
    assert (r["graphs"], r["triples_checked"], r["passed"]) == (11, 74, False)
    assert len(r["failures"]) == MAX_FAILURES_KEPT
    assert r["failures"][:2] == ["n=2 edges=[] A ; B ; -: criterion=True latent-dag=False",
                                 "n=2 edges=[A-B] A ; B ; -: criterion=False latent-dag=True"]
    assert r["failures"][2].startswith("n=3 edges=[] ")
