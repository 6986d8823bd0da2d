"""Graph machinery: parsing, adjacency masks, ancestors, components,
disjoint splits, moralization, chain-graph validity."""

from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covgraph import (
    GraphParseError,
    MixedGraph,
    ancestors,
    bit,
    connectivity_components,
    format_graph,
    is_chain_graph,
    iter_nodes,
    parse_graph,
    submasks,
)
from covgraph.graphs import MAX_NODES, disjoint_splits
from covgraph.separation import _moral_adj_within
from oracles import (
    dag_is_acyclic_dfs,
    has_semi_directed_cycle,
    mask_of,
    naive_adjacency_masks,
    naive_ancestors,
    naive_moral_adjacency,
)
from strategies import dags, mixed_graphs, ugs


def cycle4():
    return MixedGraph.ug("ABCD", [("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")])


def reference_parse_graph(text: str) -> MixedGraph:
    """The plain per-token parser that `parse_graph` must agree with, error
    for error: kept here, not in oracles.py, because the benchmark workers
    import oracles.py."""
    labels: list[str] = []
    index: dict[str, int] = {}
    und: set[tuple[int, int]] = set()
    dire: set[tuple[int, int]] = set()
    pairs_seen: set[tuple[int, int]] = set()

    def declare(lab: str, line_no: int) -> int:
        if lab not in index:
            if "," in lab or lab == "-":
                raise GraphParseError(f"invalid node label {lab!r}", line_no)
            if len(labels) >= MAX_NODES:
                raise GraphParseError(
                    f"more than {MAX_NODES} nodes (at {lab!r})", line_no
                )
            index[lab] = len(labels)
            labels.append(lab)
        return index[lab]

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "node" and len(tokens) == 2:
            declare(tokens[1], line_no)
        elif len(tokens) == 3 and tokens[1] in ("--", "->"):
            a = declare(tokens[0], line_no)
            b = declare(tokens[2], line_no)
            if a == b:
                raise GraphParseError(f"self-loop at {tokens[0]!r}", line_no)
            pair = (min(a, b), max(a, b))
            if pair in pairs_seen:
                raise GraphParseError(
                    f"duplicate edge between {tokens[0]!r} and {tokens[2]!r}", line_no
                )
            pairs_seen.add(pair)
            if tokens[1] == "--":
                und.add(pair)
            else:
                dire.add((a, b))
        else:
            raise GraphParseError(f"unrecognized statement {line!r}", line_no)

    return MixedGraph(len(labels), tuple(labels), frozenset(und), frozenset(dire))


# Pieces of graph texts: labels the grammar rejects ("a,b", "-") or that
# look like syntax ("node", "--x", "#", "x#y"), the two edge tokens and an
# unknown one, and the whitespace and line ends a file may use.  Repeats
# weight the pieces, so that most texts get past their first line.
TEXT_LABELS = ["A", "B", "C", "D", "E", "F", "node", "--x", "N0"] * 6 + ["a,b", "-", "#", "x#y"]
TEXT_OPS = ["--", "->"] * 6 + ["=>"]


@st.composite
def graph_texts(draw):
    # a few pre-declared labels, or about 64, so that the node cap is
    # reached by a declaration, by either edge endpoint and by a bad label
    fill = draw(st.one_of(st.integers(0, 3), st.integers(MAX_NODES - 2, MAX_NODES + 1)))
    lines = [f"node N{i}" for i in range(fill)]
    label = st.sampled_from(TEXT_LABELS)
    ends: list[list[str]] = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            stmt = draw(st.lists(st.sampled_from(TEXT_LABELS + TEXT_OPS), max_size=4))
        elif kind == 1:
            stmt = ["node", draw(label)]
        else:
            # an edge between new ends, or a repeated or mixed edge
            pair = draw(st.sampled_from(ends)) if ends and kind == 2 else [draw(label), draw(label)]
            if draw(st.booleans()):
                pair = pair[::-1]
            ends.append(pair)
            stmt = [pair[0], draw(st.sampled_from(TEXT_OPS)), pair[1]]
        gap = draw(st.sampled_from([" ", "\t", " \t  "]))
        line = draw(st.sampled_from(["", " ", "\t"])) + gap.join(stmt)
        line += draw(st.sampled_from(["", gap, gap + "# tail -- comment", "#"]))
        lines.append(line)
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


def parse_outcome(parse, text):
    try:
        g = parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return g, g.und_adj, g.pa_adj, g.any_adj


class TestMaskHelpers:
    def test_iter_nodes_ascending(self):
        assert list(iter_nodes(0b101101)) == [0, 2, 3, 5]

    def test_mask_of_roundtrip(self):
        assert mask_of([0, 2, 3, 5]) == 0b101101
        assert mask_of([]) == 0

    def test_submasks_cover_powerset(self):
        subs = list(submasks(0b1010))
        assert sorted(subs) == [0b0000, 0b0010, 0b1000, 0b1010]

    def test_disjoint_splits_follow_product_order(self):
        for n, parts in ((0, 3), (1, 2), (3, 4), (4, 5)):
            expect = [
                tuple(mask_of(v for v, a in enumerate(assignment) if a == p)
                      for p in range(parts))
                for assignment in product(range(parts), repeat=n)
            ]
            assert list(disjoint_splits(n, parts)) == expect


class TestParse:
    def test_undirected_path(self):
        g = parse_graph("A -- B\nB -- C")
        assert g.n == 3
        assert g.labels == ("A", "B", "C")
        assert g.undirected == frozenset({(0, 1), (1, 2)})
        assert not g.directed

    def test_single_arrow(self):
        g = parse_graph("A -> B")
        assert g.directed == frozenset({(0, 1)})
        assert not g.undirected

    def test_self_loop_rejected(self):
        with pytest.raises(GraphParseError, match="line 1"):
            parse_graph("A -- A")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_graph("A -- B\nB -- A")

    def test_mixed_pair_rejected(self):
        with pytest.raises(GraphParseError, match="duplicate edge"):
            parse_graph("A -- B\nA -> B")

    def test_unknown_statement_names_line(self):
        with pytest.raises(GraphParseError, match="line 3"):
            parse_graph("A -- B\n# fine\nA => B")

    def test_comments_blanks_and_declarations(self):
        g = parse_graph("# header\nnode C\n\nA -- B  # tail comment\n")
        assert g.labels == ("C", "A", "B")
        assert g.undirected == frozenset({(1, 2)})

    @pytest.mark.parametrize("text, line", [
        ("A -- B\nnode a,b\n", 2),
        ("A -- b,c", 1),
        ("A -- B\n# fine\n- -> A", 3),
        ("node -", 1),
    ])
    def test_label_grammar(self, text, line):
        # a comma cannot be named in a comma-joined -X/-Y/-Z set, and "-"
        # renders like the empty set
        with pytest.raises(GraphParseError, match=f"line {line}: invalid node label"):
            parse_graph(text)

    def test_labels_with_dashes_accepted(self):
        assert parse_graph("a-b -- c_d\n--x -> y").labels == ("a-b", "c_d", "--x", "y")

    def test_node_capacity(self):
        text = "\n".join(f"node N{i}" for i in range(65))
        with pytest.raises(GraphParseError, match="line 65"):
            parse_graph(text)

    @given(mixed_graphs())
    def test_format_roundtrip(self, g):
        assert parse_graph(format_graph(g)) == g

    @given(graph_texts())
    @example("A -- B\nnode A\nnode C\n")
    @example("\tA => B  # comment\r\n")
    @example("".join(f"node N{i}\n" for i in range(MAX_NODES)) + "N0 -- a,b\n")
    @settings(max_examples=200)
    def test_matches_reference_parser(self, text):
        # the same graph, adjacency masks included, or the same error
        # type, message and line
        assert parse_outcome(parse_graph, text) == parse_outcome(reference_parse_graph, text)


class TestAncestors:
    def test_directed_chain(self):
        g = MixedGraph.dag("ABC", [("A", "B"), ("B", "C")])
        assert ancestors(g, bit(2)) == mask_of([0, 1, 2])
        assert ancestors(g, bit(0)) == bit(0)

    def test_ug_reaches_whole_component(self):
        g = cycle4()
        assert ancestors(g, bit(0)) == g.full_mask

    def test_empty(self):
        assert ancestors(cycle4(), 0) == 0

    def test_back_adjacency_built_once_per_graph(self):
        # A -- B -> C: C's back step is its parent B, A and B step to each other
        g = MixedGraph(3, ("A", "B", "C"), frozenset({(0, 1)}), frozenset({(1, 2)}))
        back = g.back_adj
        assert back == (bit(1), bit(0), bit(1))
        assert ancestors(g, bit(2)) == g.full_mask
        assert ancestors(g, bit(0)) == mask_of([0, 1])
        assert g.back_adj is back

    @given(mixed_graphs(), st.data())
    def test_matches_bruteforce_and_is_monotone_idempotent(self, g, data):
        small = data.draw(st.integers(0, g.full_mask))
        large = small | data.draw(st.integers(0, g.full_mask))
        got = ancestors(g, small)
        assert got == mask_of(naive_ancestors(g, set(iter_nodes(small))))
        assert got | ancestors(g, large) == ancestors(g, large)
        assert ancestors(g, got) == got


class TestComponents:
    def test_dag_gives_singletons(self):
        g = MixedGraph.dag("ABC", [("A", "B"), ("B", "C")])
        assert connectivity_components(g) == [bit(0), bit(1), bit(2)]

    def test_cycle_single_component(self):
        assert connectivity_components(cycle4()) == [cycle4().full_mask]

    def test_chain_graph_mix(self):
        g = MixedGraph(3, ("A", "B", "C"), frozenset({(0, 1)}), frozenset({(1, 2)}))
        assert connectivity_components(g) == [mask_of([0, 1]), bit(2)]

    @given(mixed_graphs())
    def test_partition(self, g):
        comps = connectivity_components(g)
        union = 0
        for comp in comps:
            assert comp
            assert union & comp == 0
            union |= comp
        assert union == g.full_mask


def moral_edges(g):
    """Edges of the moral graph of the whole of g, as (i, j) with i < j."""
    adj = _moral_adj_within(g, g.full_mask)
    return frozenset((v, w) for v in range(g.n) for w in iter_nodes(adj[v]) if v < w)


class TestMoralGraph:
    def test_collider_marries_parents(self):
        g = MixedGraph.dag("ABC", [("A", "B"), ("C", "B")])
        assert moral_edges(g) == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_chain_adds_nothing(self):
        g = MixedGraph.dag("ABC", [("A", "B"), ("B", "C")])
        assert moral_edges(g) == frozenset({(0, 1), (1, 2)})

    @given(ugs())
    def test_identity_on_ugs(self, g):
        assert _moral_adj_within(g, g.full_mask) == list(g.und_adj)

    def test_component_parents_married(self):
        # both arrows point into the same undirected component
        g = MixedGraph(4, ("A", "B", "C", "D"),
                       frozenset({(2, 3)}), frozenset({(0, 2), (1, 3)}))
        assert (0, 1) in moral_edges(g)

    @given(mixed_graphs(), st.data())
    @settings(max_examples=200)
    def test_matches_naive_moralization(self, g, data):
        inside = data.draw(st.integers(0, g.full_mask))
        adj = _moral_adj_within(g, inside)
        expect = naive_moral_adjacency(g, set(iter_nodes(inside)))
        assert {v: set(iter_nodes(adj[v])) for v in iter_nodes(inside)} == expect


class TestChainGraph:
    def test_dag_is_chain_graph(self):
        assert is_chain_graph(MixedGraph.dag("ABC", [("A", "B"), ("B", "C")]))

    def test_two_cycle(self):
        g = MixedGraph(2, ("A", "B"), frozenset(), frozenset({(0, 1), (1, 0)}))
        assert not is_chain_graph(g)

    def test_semi_directed_cycle(self):
        g = MixedGraph(3, ("A", "B", "C"),
                       frozenset({(0, 1), (0, 2)}), frozenset({(1, 2)}))
        assert not is_chain_graph(g)

    @given(dags())
    def test_matches_acyclicity_on_dags(self, g):
        assert is_chain_graph(g) == dag_is_acyclic_dfs(g)

    @given(mixed_graphs())
    @settings(max_examples=200)
    def test_matches_semi_directed_cycle_search(self, g):
        assert is_chain_graph(g) == (not has_semi_directed_cycle(g))


class TestMixedGraphValidation:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            MixedGraph(2, ("A", "A"))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            MixedGraph(2, ("A", "B"), frozenset({(1, 1)}))

    def test_rejects_conflicting_edges(self):
        for arrow in ((0, 1), (1, 0)):
            with pytest.raises(ValueError, match="both an undirected edge and an arrow"):
                MixedGraph(2, ("A", "B"), frozenset({(0, 1)}), frozenset({arrow}))

    @pytest.mark.parametrize("pair", [(-1, 1), (0, -1), (0, 2), (2, 1)])
    @pytest.mark.parametrize("field", ["undirected", "directed"])
    def test_rejects_endpoint_out_of_range(self, field, pair):
        # -1 must not wrap around to the last node's mask
        with pytest.raises(ValueError, match="edge endpoint outside"):
            MixedGraph(2, ("A", "B"), **{field: frozenset({pair})})

    @given(mixed_graphs())
    def test_adjacency_masks_match_edge_sets(self, g):
        assert (g.und_adj, g.pa_adj, g.any_adj) == naive_adjacency_masks(g)

    @pytest.mark.parametrize("field, pair, message", [
        ("undirected", (1, 1), "self-loop at node B"),
        ("directed", (1, 1), "self-loop at node B"),
        ("undirected", (2, 1), "edge endpoint outside 0..1"),
        ("directed", (2, 1), "edge endpoint outside 0..1"),
        ("undirected", (1, 0), "undirected pair (1, 0) not normalized"),
    ])
    def test_check_order(self, field, pair, message):
        # an endpoint out of range or equal is named before the pair order
        with pytest.raises(ValueError) as info:
            MixedGraph(2, ("A", "B"), **{field: frozenset({pair})})
        assert str(info.value) == message

    def test_rejects_unnormalized_pair(self):
        with pytest.raises(ValueError):
            MixedGraph(2, ("A", "B"), frozenset({(1, 0)}))

    @pytest.mark.parametrize("build", [MixedGraph.ug, MixedGraph.dag])
    @pytest.mark.parametrize("pair", [("A", "C"), ("C", "A")])
    def test_constructors_name_an_unknown_label(self, build, pair):
        with pytest.raises(ValueError) as info:
            build("AB", [("A", "B"), pair])
        assert str(info.value) == "unknown node label 'C'"

    def test_node_set_resolution(self):
        g = cycle4()
        assert g.node_set(["A", "C"]) == mask_of([0, 2])
        with pytest.raises(ValueError, match="unknown node label"):
            g.node_set(["E"])
