"""Gaussian models: construction validity, determinant CI test, graph
recovery, faithfulness sampling."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import inf, nan
from operator import and_, gt, le, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covgraph import (
    CITriple,
    DEFAULT_TOL,
    GaussianModel,
    GraphKind,
    MixedGraph,
    SizeLimitError,
    all_dependencies,
    all_independencies,
    bit,
    canonical_triples,
    ci_independent,
    ci_test,
    concentration_graph_of,
    connectivity_components,
    cov_dependent,
    covariance_graph_of,
    dump_model,
    faithfulness_report,
    iter_nodes,
    nd_dimension,
    sample_markov_gaussian,
    submasks,
    trial_seed,
)
from covgraph.gaussian import _dominant, _draw, _leading_minors, _minor_steps, _minors
from covgraph.separation import _dependence_row, _independence_row
from covgraph.verify import (MAX_FAILURES_KEPT, _pair_plan, _recovered, _recovery_ok,
                             _trials, corollaries_sweep)
from covgraph.smallgraphs import all_ugs, connected_ugs, random_ug
from oracles import det_cofactor, inverse_adjugate
from strategies import complete_graph_draw

COV = GraphKind.COVARIANCE


def cycle4():
    return MixedGraph.ug("ABCD", [("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")])


def pair_table(g):
    """(i, j, K, verdict) for each entry of `_pair_plan(g.n)`, the verdict
    read from the graph's covariance independence row at its position."""
    row = _independence_row(g, COV)
    return [(*divmod(ij, g.n), k, row[p]) for p, k, ij in _pair_plan(g.n)]


class TestLeadingMinors:
    """`_leading_minors`, the one exact elimination behind the model's
    certificate and `ci_test`."""

    def test_known_values(self):
        assert _leading_minors([]) == []
        assert _leading_minors([[7]]) == [7]
        assert _leading_minors([[2, 1], [1, 2]]) == [2, 3]
        assert _leading_minors([[1, 2], [2, 4]]) == [1, 0]
        assert _leading_minors([[1, 2], [3, 4]]) == [1, -2]
        # the first minor that is not positive ends the elimination
        assert _leading_minors([[0, 1], [1, 0]]) == [0]
        assert _leading_minors([[1, 0, 0], [0, -1, 0], [0, 0, 1]]) == [1, -1]

    def test_matches_cofactor_expansion(self):
        rng = random.Random(20261023)
        complete = stopped = 0
        for _ in range(400):
            n = rng.randint(1, 6)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.5:
                for i in range(n):
                    rows[i][i] = 9 * n  # strictly diagonally dominant: all minors > 0
            minors = _leading_minors(rows)
            expect = [det_cofactor([row[:m] for row in rows[:m]]) for m in range(1, n + 1)]
            assert minors == expect[:len(minors)], rows
            assert all(m > 0 for m in minors[:-1])
            if len(minors) < n:
                assert minors[-1] <= 0
                stopped += 1
            complete += len(minors) == n
        assert complete > 200 and stopped > 50


def last_minor(rows):
    """det rows, read as `ci_test` reads it: the last leading minor, when
    every earlier one is positive."""
    minors = _leading_minors(rows)
    assert len(minors) == len(rows) and all(m > 0 for m in minors[:-1])
    return minors[-1]


class TestDeterminant:
    """The determinant a `ci_test` verdict reads: exact, with no residue."""

    def test_known_values(self):
        assert last_minor([[7]]) == 7
        assert last_minor([[4, 1], [1, 4]]) == 15  # [[2, .5], [.5, 2]] * 2
        assert last_minor([[1, 2], [2, 4]]) == 0
        assert last_minor([[1, 2], [3, 4]]) == -2
        assert last_minor([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) == 4
        # the scaled submatrix of a model: det [[2, .5], [.5, 2]] = 3.75 != 0
        m = GaussianModel((0.0, 0.0), ((2.0, 0.5), (0.5, 2.0)))
        assert last_minor([m._scaled[:2], m._scaled[2:]]) == 15
        assert not ci_test(m, 0, 1, 0)

    def test_zero_column_exact(self):
        # a zero column makes the determinant exactly 0, wherever it sits
        assert _leading_minors([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == [0]
        assert last_minor([[3, 1, 0], [1, 3, 0], [2, 5, 0]]) == 0
        # node 2 is uncorrelated with 0 and 1: independent given any K
        m = GaussianModel((0.0,) * 3, ((1.5, 0.375, 0.0),
                                       (0.375, 1.25, 0.0),
                                       (0.0, 0.0, 0.75)))
        assert ci_test(m, 0, 2, 0) and ci_test(m, 0, 2, bit(1))
        assert not ci_test(m, 0, 1, 0) and not ci_test(m, 0, 1, bit(2))


def eliminations(monkeypatch) -> list:
    """The matrices `GaussianModel` hands to `_leading_minors` from now on."""
    calls = []

    def counted(rows):
        calls.append(rows)
        return _leading_minors(rows)

    monkeypatch.setattr("covgraph.gaussian._leading_minors", counted)
    return calls


class TestGaussianModel:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianModel((0.0, 0.0), ((1.0, 0.2), (0.3, 1.0)))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            GaussianModel((0.0, 0.0), ((1.0, 2.0), (2.0, 1.0)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            GaussianModel((0.0,), ((1.0, 0.0), (0.0, 1.0)))

    @pytest.mark.parametrize("sigma", [((nan,),), ((inf,),), ((1.0, 0.0), (0.0, nan))],
                             ids=["nan", "inf", "nan-second-pivot"])
    def test_rejects_non_finite_pivot(self, sigma):
        # NaN fails every comparison, so a `pivot <= 0` test lets it through
        with pytest.raises(ValueError, match="positive definite"):
            GaussianModel((0.0,) * len(sigma), sigma)

    @pytest.mark.parametrize("bad", [nan, inf, -inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_mean(self, bad):
        # json.dumps would write such a mean as NaN or Infinity, not JSON
        for mean in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError, match="mean must be finite"):
                GaussianModel(mean, ((1.0, 0.0), (0.0, 1.0)))

    def test_accepts_finite_means(self):
        for mean in ((0.0, 0.0), (-2.5, 1e300), (3, -7)):
            assert GaussianModel(mean, ((1.0, 0.0), (0.0, 1.0))).mean == mean

    def test_rejects_non_pd(self):
        for sigma in (((0.0,),), ((-1.0,),), ((1.0, 2.0), (2.0, 1.0))):
            with pytest.raises(ValueError, match="positive definite"):
                GaussianModel((0.0,) * len(sigma), sigma)

    def test_accepts_exactly_the_positive_definite_integer_matrices(self, monkeypatch):
        # of the 729 symmetric 4 x 4 matrices with diagonal 2 and
        # off-diagonals in {-1, 0, 1}, 56 are exactly singular; a float
        # Cholesky factor accepts them, the exact leading minors do not.
        # The 25 whose rows hold at most one nonzero off-diagonal are
        # dominant; the other 704 are eliminated, and 368 of them accepted.
        calls = eliminations(monkeypatch)
        pairs = list(combinations(range(4), 2))
        accepted = []
        for entries in product((-1.0, 0.0, 1.0), repeat=len(pairs)):
            sigma = [[2.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
            for (i, j), v in zip(pairs, entries):
                sigma[i][j] = sigma[j][i] = v
            eliminated = len(calls)
            try:
                model_of(sigma)
            except ValueError as err:
                assert str(err) == "sigma must be positive definite"
            else:
                accepted.append((sigma, len(calls) > eliminated))
        assert [sigma for sigma, _ in accepted] == [sigma for _g, sigma in integer_models()]
        assert len(accepted) == 393
        assert len(calls) == 704
        assert sum(by_elimination for _, by_elimination in accepted) == 368

    def test_keeps_the_scaled_integer_matrix(self):
        m = GaussianModel((0.0, 0.0), ((2.0, 0.375), (0.375, 1.5)))
        assert m._shift == 3
        assert m._scaled == (16, 3, 3, 12)
        assert m == GaussianModel((0.0, 0.0), ((2.0, 0.375), (0.375, 1.5)))
        assert "_scaled" not in repr(m)


class TestCertificatePaths:
    """Strict diagonal dominance with a positive diagonal certifies a
    matrix without elimination; any other goes through the Bareiss pass,
    so together they accept exactly the positive definite matrices."""

    def test_dominant_matrix_is_certified_without_elimination(self, monkeypatch):
        calls = eliminations(monkeypatch)
        model_of([[3.0, 1.0, -1.0], [1.0, 3.0, 0.5], [-1.0, 0.5, 2.0]])
        assert calls == []

    def test_positive_definite_matrix_that_is_not_dominant_is_accepted(self, monkeypatch):
        # eigenvalues 2.8, 0.1 and 0.1; each row's off-diagonal sum 1.8 > 1
        calls = eliminations(monkeypatch)
        model_of([[1.0 if i == j else 0.9 for j in range(3)] for i in range(3)])
        assert len(calls) == 1

    @pytest.mark.parametrize("sigma", [[[1.0, 2.0], [2.0, 1.0]], [[-3.0, 1.0], [1.0, -3.0]]],
                             ids=["not-dominant", "negative-diagonal"])
    def test_matrix_that_is_not_positive_definite_is_refused(self, monkeypatch, sigma):
        # [[-3, 1], [1, -3]] dominates in absolute value, but its diagonal
        # is negative: it fails the dominance test and the elimination
        calls = eliminations(monkeypatch)
        with pytest.raises(ValueError, match="positive definite"):
            model_of(sigma)
        assert len(calls) == 1

    def test_sampled_models_are_certified_by_dominance(self, monkeypatch):
        # the diagonal is above n - 0.5 and each row's off-diagonal sum at
        # most n - 1, up to the complete 64-node graph of the CI line
        calls = eliminations(monkeypatch)
        rng = random.Random(35)
        for n in range(1, 9):
            for _ in range(4):
                sample_markov_gaussian(random_ug(n, rng), rng.randrange(2**32))
        complete = MixedGraph(64, tuple(f"v{i}" for i in range(64)),
                              frozenset(combinations(range(64), 2)), frozenset())
        assert sample_markov_gaussian(complete, 0).n == 64
        assert calls == []


def reference_model(g, seed) -> GaussianModel:
    """The model as sampled before `_draw`: a dense float sigma filled by
    `random.uniform` in the draw order, certified by `GaussianModel`."""
    rng = random.Random(seed)
    n = g.n
    sigma = [[0.0] * n for _ in range(n)]
    for i in range(n):
        sigma[i][i] = rng.uniform(n - 0.5, n + 0.5)
    for i, j in sorted(g.undirected):
        sigma[i][j] = sigma[j][i] = rng.uniform(-1.0, 1.0)
    mean = tuple(rng.uniform(-1.0, 1.0) for _ in range(n))
    return GaussianModel(mean, tuple(map(tuple, sigma)))


def draw_cases():
    """Seeded graphs of 1-8 nodes, each with a seed, and the complete
    64-node graph of the CI line."""
    rng = random.Random(36)
    cases = [(random_ug(n, rng), rng.randrange(2**32)) for n in range(1, 9) for _ in range(12)]
    complete = MixedGraph(64, tuple(f"v{i}" for i in range(64)),
                          frozenset(combinations(range(64), 2)), frozenset())
    return cases + [(complete, 0)]


class TestDraw:
    """`_draw` is the one draw: `sample_markov_gaussian`'s model and every
    trial's integer matrix come from it, and it certifies what it draws."""

    def test_draw_is_the_sampled_model(self):
        for g, seed in draw_cases():
            shift, s, mean = _draw(g, seed)
            model = sample_markov_gaussian(g, seed)
            assert (shift, tuple(s), mean) == (model._shift, model._scaled, model.mean), g
            reference = reference_model(g, seed)
            assert model == reference, g
            assert (reference._shift, reference._scaled) == (shift, tuple(s)), g

    def test_dominance_reads_the_drawn_rows(self, monkeypatch):
        # the sparse row sums the draw hands to `_dominant` are the dense ones
        seen = []

        def recorded(diagonal, off):
            seen.append((list(diagonal), list(off)))
            return _dominant(diagonal, off)

        monkeypatch.setattr("covgraph.gaussian._dominant", recorded)
        for g, seed in draw_cases():
            del seen[:]
            _shift, s, _mean = _draw(g, seed)
            n = g.n
            rows = [s[r * n:(r + 1) * n] for r in range(n)]
            assert seen == [([row[r] for r, row in enumerate(rows)],
                             [sum(map(abs, row)) - abs(row[r]) for r, row in enumerate(rows)])]

    def test_a_draw_refused_by_dominance_is_eliminated(self, monkeypatch):
        # with the shared dominance test forced to refuse, every draw pays
        # one elimination and is still certified, to the same matrix
        rng = random.Random(3601)
        cases = [(random_ug(n, rng), rng.randrange(2**32)) for n in range(0, 8) for _ in range(3)]
        want = [_draw(g, seed) for g, seed in cases]
        calls = eliminations(monkeypatch)
        monkeypatch.setattr("covgraph.gaussian._dominant", lambda diagonal, off: False)
        assert [_draw(g, seed) for g, seed in cases] == want
        assert len(calls) == len(cases)
        # and an elimination that refuses too refuses the draw
        monkeypatch.setattr("covgraph.gaussian._leading_minors", lambda rows: [0])
        for g, seed in cases:
            with pytest.raises(ValueError, match="positive definite"):
                _draw(g, seed)

    def test_trials_build_no_model(self, monkeypatch):
        def refuse(self):
            raise AssertionError("GaussianModel built")

        want = (corollaries_sweep(4, 3, 1), faithfulness_report(cycle4(), 4, 2))
        monkeypatch.setattr(GaussianModel, "__post_init__", refuse)
        assert (corollaries_sweep(4, 3, 1), faithfulness_report(cycle4(), 4, 2)) == want


class TestSampling:
    def test_deterministic_in_seed(self):
        g = cycle4()
        assert sample_markov_gaussian(g, 5) == sample_markov_gaussian(g, 5)
        assert sample_markov_gaussian(g, 5) != sample_markov_gaussian(g, 6)

    def test_parameter_ranges_single_edge(self):
        g = MixedGraph.ug("AB", [("A", "B")])
        for seed in range(50):
            m = sample_markov_gaussian(g, seed)
            for i in range(2):
                assert 1.5 < m.sigma[i][i] < 2.5
            assert abs(m.sigma[0][1]) <= 1.0
            assert all(-1.0 <= v <= 1.0 for v in m.mean)

    def test_edgeless_is_diagonal(self):
        m = sample_markov_gaussian(MixedGraph.ug("ABC"), 3)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert m.sigma[i][j] == 0.0

    def test_cycle_zero_pattern(self):
        m = sample_markov_gaussian(cycle4(), 9)
        assert m.sigma[0][2] == 0.0 and m.sigma[1][3] == 0.0
        for i, j in cycle4().undirected:
            assert m.sigma[i][j] != 0.0

    def test_negative_seed_is_refused(self):
        # Random(-s) draws what Random(s) draws, so a negative seed would
        # report one seed and sample another
        g = cycle4()
        with pytest.raises(ValueError, match="seed must not be negative"):
            sample_markov_gaussian(g, -3)
        with pytest.raises(ValueError, match="seed must not be negative"):
            faithfulness_report(g, 1, -1)

    def test_every_draw_is_positive_definite(self):
        # construction runs the exact leading-minor certificate; Gershgorin
        # guarantees it succeeds for every seed
        rng = random.Random(4)
        for n in range(1, 7):
            for _ in range(10):
                sample_markov_gaussian(random_ug(n, rng), rng.getrandbits(32))

    def test_requires_ug(self):
        with pytest.raises(ValueError):
            sample_markov_gaussian(MixedGraph.dag("AB", [("A", "B")]), 0)


class TestNdParameters:
    def test_dimension_formula(self):
        assert nd_dimension(cycle4()) == 2 * 4 + 4
        assert nd_dimension(MixedGraph.ug("ABC")) == 6


class TestCiTest:
    def test_marginal_dependence_two_by_two(self):
        m = GaussianModel((0.0, 0.0), ((2.0, 0.5), (0.5, 2.0)))
        assert not ci_test(m, 0, 1, 0)

    def test_diagonal_everything_independent(self):
        m = GaussianModel((0.0,) * 3, ((2.0, 0.0, 0.0),
                                       (0.0, 3.0, 0.0),
                                       (0.0, 0.0, 4.0)))
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                rest = 0b111 & ~bit(i) & ~bit(j)
                for k in submasks(rest):
                    assert ci_test(m, i, j, k)

    def test_cycle_sample_matches_graph(self):
        g = cycle4()
        for seed in range(20):
            m = sample_markov_gaussian(g, seed)
            assert ci_test(m, 0, 2, 0)
            assert not ci_test(m, 0, 2, bit(1))

    def test_validation(self):
        m = GaussianModel((0.0, 0.0), ((2.0, 0.5), (0.5, 2.0)))
        with pytest.raises(ValueError):
            ci_test(m, 0, 0, 0)
        with pytest.raises(ValueError):
            ci_test(m, 0, 1, bit(1))

    def test_matches_fraction_determinants(self):
        # every (i, j, K) of the 393 integer models, whose exact
        # cancellations sampled floats never produce, and of sampled models
        rng = random.Random(20261024)
        sigmas = [sigma for _g, sigma in integer_models()]
        sigmas += [sample_markov_gaussian(random_ug(n, rng), rng.getrandbits(32)).sigma
                   for n in range(2, 7) for _ in range(12)]
        checked = independent = 0
        for sigma in sigmas:
            model = model_of(sigma)
            n = model.n
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    for k in submasks(((1 << n) - 1) & ~bit(i) & ~bit(j)):
                        ks = list(iter_nodes(k))
                        sub = [[sigma[r][c] for c in [j, *ks]] for r in [i, *ks]]
                        zero = exact_det(sub) == 0
                        assert ci_test(model, i, j, k) == zero, (sigma, i, j, k)
                        checked += 1
                        independent += zero
        assert checked > 25_000 and 0 < independent < checked

    def test_no_single_test_builds_the_subset_table(self, monkeypatch):
        # the certificate and ci_test are polynomial: neither may build
        # the 2**n table of _minors
        def refuse(*args):
            raise AssertionError("_minors called")

        monkeypatch.setattr("covgraph.gaussian._minors", refuse)
        monkeypatch.setattr("covgraph.gaussian._minor_steps", refuse)
        n = 24
        g = MixedGraph(n, tuple(f"v{v}" for v in range(n)),
                       frozenset((v, v + 1) for v in range(n - 1)), frozenset())
        m = sample_markov_gaussian(g, 11)
        rest = ((1 << n) - 1) & ~bit(0) & ~bit(n - 1)
        assert rest.bit_count() == 22
        assert not ci_test(m, 0, n - 1, rest)  # the path 0..23 joins them
        assert ci_test(m, 0, n - 1, 0)


class TestGraphRecovery:
    def test_covariance_recovery_is_exact(self):
        rng = random.Random(7)
        for n in range(1, 7):
            for _ in range(5):
                g = random_ug(n, rng)
                m = sample_markov_gaussian(g, rng.getrandbits(32))
                assert covariance_graph_of(m, DEFAULT_TOL, g.labels) == g

    def test_diagonal_recovers_edgeless(self):
        m = sample_markov_gaussian(MixedGraph.ug("ABC"), 1)
        assert not covariance_graph_of(m, DEFAULT_TOL, "ABC").undirected
        assert not concentration_graph_of(m, DEFAULT_TOL, "ABC").undirected

    def test_dense_recovers_complete(self):
        labels = "ABCD"
        comp = MixedGraph.ug(labels, [(a, b) for a in labels for b in labels if a < b])
        m = sample_markov_gaussian(comp, 13)
        assert covariance_graph_of(m, DEFAULT_TOL, labels).undirected == comp.undirected
        assert concentration_graph_of(m, DEFAULT_TOL, labels).undirected == comp.undirected

    def test_tree_concentration_is_complete(self):
        g = MixedGraph.ug("ABC", [("A", "B"), ("B", "C")])
        for seed in range(20):
            m = sample_markov_gaussian(g, seed)
            conc = concentration_graph_of(m, DEFAULT_TOL, g.labels)
            assert len(conc.undirected) == 3

    def test_concentration_matches_inverse_zero_pattern(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_ug(4, rng)
            m = sample_markov_gaussian(g, rng.getrandbits(32))
            inv = inverse_adjugate([[Fraction(v) for v in r] for r in m.sigma])
            conc = concentration_graph_of(m, DEFAULT_TOL, g.labels)
            for i in range(4):
                for j in range(i + 1, 4):
                    has_edge = (i, j) in conc.undirected
                    assert has_edge == (inv[i][j] != 0), (g.undirected, i, j)


class TestPairVerdicts:
    def test_cycle_table(self):
        table = pair_table(cycle4())
        # C(4, 2) pairs, each with every K among the other two nodes, in
        # canonical order: by |K|, then by i, j and K
        assert len(table) == 6 * 4
        assert (0, 2, 0, True) in table
        assert (0, 2, bit(1), False) in table
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert table[:6] == [(i, j, 0, (i, j) in {(0, 2), (1, 3)}) for i, j in pairs]
        assert [(i, j, k) for i, j, k, _ in table[6:]] == [
            (0, 1, 0b0100), (0, 1, 0b1000), (0, 2, 0b0010), (0, 2, 0b1000),
            (0, 3, 0b0010), (0, 3, 0b0100), (1, 2, 0b0001), (1, 2, 0b1000),
            (1, 3, 0b0001), (1, 3, 0b0100), (2, 3, 0b0001), (2, 3, 0b0010),
            (0, 1, 0b1100), (0, 2, 0b1010), (0, 3, 0b0110), (1, 2, 0b1001),
            (1, 3, 0b0101), (2, 3, 0b0011),
        ]

    @given(st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_criterion(self, n, seed):
        g = random_ug(n, random.Random(seed))
        table = pair_table(g)
        assert len(table) == n * (n - 1) // 2 * 2 ** max(n - 2, 0)
        for i, j, k, verdict in table:
            assert i < j and not k & (bit(i) | bit(j))
            assert verdict == ci_independent(g, COV, bit(i), bit(j), k)
        # the table reads the covariance row at its pair triples, in order
        triples = canonical_triples(n)
        row = _independence_row(g, COV)
        pairs = [p for p, t in enumerate(triples) if t.x.bit_count() == t.y.bit_count() == 1]
        assert [(bit(i), bit(j), k) for i, j, k, _v in table] == \
            [(triples[p].x, triples[p].y, triples[p].z) for p in pairs]
        assert [v for _i, _j, _k, v in table] == [row[p] for p in pairs]

    def test_lists_the_single_node_triples_in_order(self):
        for n in range(7):
            triples = canonical_triples(n)
            assert [triples[p] for p, _k, _ij in _pair_plan(n)] == \
                [t for t in triples if t.x.bit_count() == t.y.bit_count() == 1]
            assert [(bit(ij // n), bit(ij % n), k) for _p, k, ij in _pair_plan(n)] == \
                [(triples[p].x, triples[p].y, triples[p].z) for p, *_ in _pair_plan(n)]

    @pytest.mark.parametrize("n", range(9))
    def test_pair_blocks_open_and_close_canonical_order(self, n):
        # sorted by size first: the edge statements {i} ; {j} ; - open
        # canonical order, and {i} ; {j} ; V minus i, j close the plan,
        # each block in pair order
        pairs = list(combinations(range(n), 2))
        m = len(pairs)
        full = (1 << n) - 1
        plan = _pair_plan(n)
        assert canonical_triples(n)[:m] == tuple(CITriple(bit(i), bit(j), 0) for i, j in pairs)
        assert plan[:m] == tuple((q, 0, i * n + j) for q, (i, j) in enumerate(pairs))
        assert [(k, ij) for _p, k, ij in plan[len(plan) - m:]] == \
            [(full & ~bit(i) & ~bit(j), i * n + j) for i, j in pairs]


class TestPairVerdictsReachTable:
    def test_answers_without_the_per_triple_kernel(self, monkeypatch):
        # every verdict comes from the graph's one reach table, so the
        # per-triple kernel is never called
        def refuse(*args):
            raise AssertionError("_independent called")

        graphs = [g for n in range(1, 6) for g in connected_ugs(n)]
        with monkeypatch.context() as patch:
            patch.setattr("covgraph.verify._independent", refuse)
            patch.setattr("covgraph.separation._independent", refuse)
            tables = [pair_table(g) for g in graphs]
            mismatches = [faithfulness_report(g, 1, 7919 * index).mismatches_per_trial
                          for index, g in enumerate(graphs)]
        for g, table in zip(graphs, tables):
            for i, j, k, verdict in table:
                assert verdict == ci_independent(g, COV, bit(i), bit(j), k), g.undirected
        assert mismatches == [[0]] * len(graphs)

    def test_refuses_graphs_above_the_sweep_sizes(self, monkeypatch):
        # the reach table has 4**n entries: a larger graph is refused
        # before any table is built
        def refuse(*args):
            raise AssertionError("reach table built")

        monkeypatch.setattr("covgraph.separation._reach_table", refuse)
        for n in (7, 64):
            labels = [f"v{i}" for i in range(n)]
            g = MixedGraph.ug(labels, list(zip(labels, labels[1:])))
            with pytest.raises(SizeLimitError, match="^faithfulness sweep limited to 6 nodes$"):
                faithfulness_report(g, 1)
        with pytest.raises(ValueError, match="^corollaries sweep limited to 6 nodes$"):
            corollaries_sweep(7, 1)


def reference_recovery_ok(cov: MixedGraph, conc: MixedGraph) -> bool:
    """The recovery check on two MixedGraphs: equal connectivity
    components, and each tree component of either graph complete in the
    other."""
    def edges_within(g, mask):
        return sum(1 for i, j in g.undirected if (mask >> i) & 1 and (mask >> j) & 1)

    def tree_dual_ok(a, b):
        for comp in connectivity_components(a):
            size = comp.bit_count()
            if edges_within(a, comp) == size - 1 and \
                    edges_within(b, comp) != size * (size - 1) // 2:
                return False
        return True

    return (connectivity_components(cov) == connectivity_components(conc)
            and tree_dual_ok(cov, conc) and tree_dual_ok(conc, cov))


class TestTrialRows:
    """Each trial's determinant verdicts are computed once, as a row over
    `_pair_plan(n)`; the recovered graphs are read from it as adjacency
    masks."""

    @staticmethod
    def _check_recovery(g, row, cov_graph, conc_graph):
        cov, conc = _recovered(g.n, row)
        assert (cov, conc) == (list(cov_graph.und_adj), list(conc_graph.und_adj))
        ok = _recovery_ok(cov, conc)
        assert ok == reference_recovery_ok(cov_graph, conc_graph)
        return ok

    @classmethod
    def _check_trial(cls, g, table, seed, t, row):
        model = sample_markov_gaussian(g, trial_seed(seed, t))
        assert row == [ci_test(model, i, j, k) for i, j, k, _v in table]
        cls._check_recovery(g, row, covariance_graph_of(model, DEFAULT_TOL, g.labels),
                            concentration_graph_of(model, DEFAULT_TOL, g.labels))

    def test_rows_match_checked_tests_exhaustive(self):
        for n in range(1, 5):
            for index, g in enumerate(connected_ugs(n)):
                seed = 7919 * index
                table = pair_table(g)
                for t, row in enumerate(_trials(g, 5, seed)):
                    self._check_trial(g, table, seed, t, row)

    def test_report_counts_each_trials_mismatches(self, monkeypatch):
        # draws of the complete graph on g's labels read every pair
        # dependent, so each trial disagrees with g's criterion on exactly
        # the pairs g reads independent
        monkeypatch.setattr("covgraph.verify._draw", complete_graph_draw)
        for g in [*connected_ugs(3), cycle4()]:
            independent = sum(v for _i, _j, _k, v in pair_table(g))
            assert faithfulness_report(g, 3, 5).mismatches_per_trial == [independent] * 3

    @staticmethod
    def _artifact_trial():
        # graph 78 of corollaries_sweep(5, 100, 0), trial 23: the one trial
        # of criterion 6 that a float determinant with a relative
        # tolerance read as unfaithful
        g = [g for n in range(1, 6) for g in connected_ugs(n)][78]
        assert sorted(g.undirected) == [(0, 3), (1, 2), (1, 3), (1, 4)]
        seed = 7919 * 78
        return g, seed, pair_table(g), sample_markov_gaussian(g, trial_seed(seed, 23))

    def test_rows_match_on_the_tolerance_artifact_trial(self):
        # the row and ci_test both read the criterion; the tolerance test
        # flipped two dependences, (0, 4, 0b01110) and (0, 4, 0b01010),
        # whose exactly nonzero minors fell under it
        g, seed, table, model = self._artifact_trial()
        row = list(_trials(g, 24, seed))[23]
        assert row == [v for _i, _j, _k, v in table]
        flipped = [(i, j, k) for i, j, k, v in table if ci_test(model, i, j, k) != v]
        assert flipped == []

    def test_exact_zeros_match_criterion_on_the_tolerance_artifact_trial(self):
        # the same trial by Fraction elimination, independent of _minors:
        # a minor is exactly zero where the graph reads independence
        _g, _seed, table, model = self._artifact_trial()
        sigma = model.sigma
        for i, j, k, v in table:
            ks = list(iter_nodes(k))
            sub = [[sigma[r][c] for c in [j, *ks]] for r in [i, *ks]]
            assert (exact_det(sub) == 0) == v

    def test_trial_row_matches_ci_test_on_every_connected_five_node_graph(self):
        graphs = list(connected_ugs(5))
        assert len(graphs) == 728
        for index, g in enumerate(graphs):
            seed = 7919 * (44 + index)  # corollaries_sweep's seed for this graph
            table = pair_table(g)
            row, = _trials(g, 1, seed)
            model = sample_markov_gaussian(g, trial_seed(seed, 0))
            assert row == [ci_test(model, i, j, k) for i, j, k, _v in table]

    def test_recovery_matches_reference_on_random_rows(self):
        # arbitrary verdict rows, most of which no model produces: the
        # recovered graphs often differ in components or break the
        # tree-complete duality, so both outcomes of the check are met
        rng = random.Random(20261018)
        outcomes = set()
        for _ in range(200):
            g = random_ug(rng.randint(2, 5), rng)
            table = pair_table(g)
            row = [rng.random() < 0.5 for _ in table]
            # the reference selects by K, not by block: the plan entries
            # whose K is `given` minus i, j
            graphs = [MixedGraph(g.n, g.labels, frozenset(
                (i, j) for q, (i, j, k, _v) in enumerate(table)
                if k == given & ~bit(i) & ~bit(j) and not row[q]))
                for given in (0, g.full_mask)]
            same_components = len({tuple(connectivity_components(h)) for h in graphs}) == 1
            outcomes.add((same_components, self._check_recovery(g, row, *graphs)))
        assert outcomes == {(True, True), (True, False), (False, False)}


def model_of(sigma) -> GaussianModel:
    """The zero-mean model of a square matrix given as rows."""
    return GaussianModel((0.0,) * len(sigma), tuple(map(tuple, sigma)))


def exact_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fractions."""
    a = [[Fraction(v) for v in row] for row in rows]
    out = Fraction(1)
    for c in range(len(a)):
        p = next((r for r in range(c, len(a)) if a[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            for col in range(c, len(a)):
                a[r][col] -= f * a[c][col]
    return out


@lru_cache(maxsize=None)
def integer_models() -> tuple:
    """(graph, sigma) for every positive definite 4 x 4 sigma with diagonal
    2 and off-diagonal entries in {-1, 0, 1}, the graph joining the nonzero
    entries; positive definiteness is decided exactly, by the leading
    principal minors."""
    pairs = list(combinations(range(4), 2))
    models = []
    for entries in product((-1.0, 0.0, 1.0), repeat=len(pairs)):
        sigma = [[2.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
        for (i, j), v in zip(pairs, entries):
            sigma[i][j] = sigma[j][i] = v
        if all(exact_det([row[:m] for row in sigma[:m]]) > 0 for m in range(1, 5)):
            g = MixedGraph(4, tuple("ABCD"),
                           frozenset(p for p, v in zip(pairs, entries) if v), frozenset())
            models.append((g, sigma))
    return tuple(models)


class TestMinors:
    """`_minors` gives every determinant a trial's tests read, exactly."""

    @staticmethod
    def _check_against_fractions(sigma):
        n = len(sigma)
        model = model_of(sigma)
        shift, table = model._shift, _minors(model.n, model._scaled)
        checked = 0
        for k in range(1 << n):
            if k.bit_count() > n - 2:
                continue
            ks = list(iter_nodes(k))
            outside = [a for a in range(n) if not k >> a & 1]
            for a in outside:
                for b in outside:
                    if a == b and (k.bit_count() == n - 2 or a < k.bit_length()):
                        continue  # no larger K reads this pivot
                    sub = [[sigma[r][c] for c in [b, *ks]] for r in [a, *ks]]
                    assert table[k][a * n + b] == exact_det(sub) * 2 ** (shift * (len(ks) + 1))
                    checked += 1
        return checked

    def test_table_matches_fraction_determinants(self):
        rng = random.Random(20261019)
        checked = 0
        for n in range(2, 7):
            for _ in range(12):
                g = random_ug(n, rng)
                checked += self._check_against_fractions(
                    sample_markov_gaussian(g, rng.randrange(2**32)).sigma)
        assert len(integer_models()) == 393
        for _g, sigma in integer_models():
            checked += self._check_against_fractions(sigma)
        assert checked > 15_000

    @pytest.mark.parametrize("n", range(1, 9))
    def test_steps_compute_only_the_cells_read(self, n):
        # each step computes a != b outside K, and (a, a) only for a above
        # K's top node, the pivot of K plus a, which exists when
        # |K| <= n - 3; each cell reads only S or its parent's cells
        computed = {0: set(range(n * n))}
        for mask, parent, kk, cells in _minor_steps(n):
            k, size = mask.bit_length() - 1, mask.bit_count()
            assert parent == mask ^ bit(k) and kk == k * n + k
            out = [a for a in range(n) if not mask >> a & 1]
            assert {ab for ab, _ba, _ak, _kb in cells} == \
                {a * n + b for a in out for b in out if a < b or a == b > k and size <= n - 3}
            reads = computed[parent]
            assert kk in reads
            for ab, ba, ak, kb in cells:
                a, b = divmod(ab, n)
                assert (ba, ak, kb) == (b * n + a, a * n + k, k * n + b)
                assert {ab, ak, kb} <= reads
            computed[mask] = {c for cell in cells for c in cell[:2]}
        assert set(computed) == {0} | {m for m in range(1, 1 << n) if m.bit_count() <= n - 2}

    def test_graph_verdicts_are_sound_on_unfaithful_integer_models(self):
        # exact cancellations, which sampled floats never produce: a model
        # is unfaithful when a pair the graph reads dependent has a
        # vanishing minor.  A dependence the criterion reads must still
        # show as some nonzero E(i, j, Z), an independence as all zero.
        unfaithful = 0
        for g, sigma in integer_models():
            model = model_of(sigma)
            minors = _minors(model.n, model._scaled)

            def vanishes(t):
                return all(minors[t.z][i * 4 + j] == 0
                           for i in iter_nodes(t.x) for j in iter_nodes(t.y))

            unfaithful += any(minors[k][i * 4 + j] == 0 and not v
                              for i, j, k, v in pair_table(g))
            independent = set(all_independencies(g, COV))
            for t in all_dependencies(g, COV):
                assert not vanishes(t), t.render(g.labels)
            for t in canonical_triples(4):
                assert (t in independent) <= vanishes(t), t.render(g.labels)
        assert unfaithful == 72



def vanishing_row(sigma) -> list[bool]:
    """For each triple of `canonical_triples(n)`, by position, whether every
    E(i, j, Z) with i in X, j in Y is exactly zero, read from `_minors`
    of an integer sigma."""
    n = len(sigma)
    model = model_of(sigma)
    assert model._shift == 0
    minors = _minors(n, model._scaled)
    return [all(minors[t.z][i * n + j] == 0 for i in iter_nodes(t.x) for j in iter_nodes(t.y))
            for t in canonical_triples(n)]


LOADINGS = (-2, -1, 1, 2)


def latent_sigma(g, rng) -> list[list[int]]:
    """I + sum over the edges of g of a latent common cause's loadings
    lambda lambda^T, with the two loadings of each edge in {+-1, +-2}."""
    sigma = [[int(i == j) for j in range(g.n)] for i in range(g.n)]
    for i, j in sorted(g.undirected):
        li, lj = rng.choice(LOADINGS), rng.choice(LOADINGS)
        sigma[i][i] += li * li
        sigma[j][j] += lj * lj
        sigma[i][j] = sigma[j][i] = li * lj
    return sigma


def sem_sigma(g, rng) -> list[list[int]]:
    """(I - B)^-1 (I - B)^-T of the linear SEM X = BX + e with unit noise
    and a weight in {+-1, +-2} on each arrow of an index-ordered DAG."""
    a = [[int(i == j) for j in range(g.n)] for i in range(g.n)]  # a = (I - B)^-1
    for tail, head in sorted(g.directed):
        w = rng.choice(LOADINGS)
        a[head] = [h + w * t for h, t in zip(a[head], a[tail])]
    return [[sum(map(mul, r, s)) for s in a] for r in a]


class TestExactLinearModels:
    """Integer models whose every minor `_minors` reads exactly: the
    graph's verdicts must hold in every draw, faithful or not.  A draw is
    unfaithful when some triple vanishes that the graph does not read
    independent."""

    def test_latent_common_cause_models_obey_the_covariance_graph(self):
        rng = random.Random(20261020)
        draws = [(g, 5) for n in range(2, 5) for g in all_ugs(n)]
        draws += [(random_ug(5, rng), 3) for _ in range(60)]
        models = triples = unfaithful = 0
        for g, count in draws:
            independent = _independence_row(g, COV)
            dependent = _dependence_row(g, COV)
            for _ in range(count):
                zero = vanishing_row(latent_sigma(g, rng))
                assert all(map(le, independent, zero)), g
                assert not any(map(and_, dependent, zero)), g
                models += 1
                triples += len(zero)
                unfaithful += any(map(gt, zero, independent))
        assert (models, triples, unfaithful) == (550, 69_270, 16)

    def test_linear_sem_models_obey_d_separation(self):
        rng = random.Random(20261021)
        dags = [MixedGraph(n, g.labels, frozenset(), g.undirected)
                for n in range(2, 5) for g in all_ugs(n)]
        models = triples = unfaithful = 0
        for g in dags:
            separated = [ci_independent(g, GraphKind.DAG, t.x, t.y, t.z)
                         for t in canonical_triples(g.n)]
            for _ in range(3):
                zero = vanishing_row(sem_sigma(g, rng))
                assert all(map(le, separated, zero)), g
                models += 1
                triples += len(zero)
                unfaithful += any(map(gt, zero, separated))
        assert (models, triples, unfaithful) == (222, 10_782, 42)


class TestFaithfulness:
    def test_cycle_mostly_faithful(self):
        rep = faithfulness_report(cycle4(), trials=100, seed=0)
        assert rep.faithful_fraction >= 0.95

    def test_edgeless_always_faithful(self):
        rep = faithfulness_report(MixedGraph.ug("ABC"), trials=20, seed=0)
        assert rep.faithful_fraction == 1.0

    def test_triangle_mostly_faithful(self):
        g = MixedGraph.ug("ABC", [("A", "B"), ("A", "C"), ("B", "C")])
        rep = faithfulness_report(g, trials=100, seed=0)
        assert rep.faithful_fraction >= 0.95

    def test_deterministic(self):
        a = faithfulness_report(cycle4(), trials=10, seed=3)
        b = faithfulness_report(cycle4(), trials=10, seed=3)
        assert a.mismatches_per_trial == b.mismatches_per_trial

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            faithfulness_report(MixedGraph.ug("ABCDEFG"), trials=1)

    def test_tolerance_checked_without_pairs(self):
        # a one-node graph has no pair, so ci_test never runs
        g = MixedGraph.ug("A")
        with pytest.raises(ValueError, match="tolerance"):
            covariance_graph_of(sample_markov_gaussian(g, 0), float("inf"), g.labels)

    def test_dependence_certified_numerically(self):
        # a graph-certified dependence should show up as a dependent pair
        # in nearly every sampled model
        g = cycle4()
        rng = random.Random(0)
        triples = [t for t in canonical_triples(4)
                   if cov_dependent(g, t.x, t.y, t.z)]
        for t in triples:
            hits = 0
            trials = 40
            for k in range(trials):
                m = sample_markov_gaussian(g, trial_seed(17, k))
                found = any(
                    not ci_test(m, i, j, t.z)
                    for i in iter_nodes(t.x) for j in iter_nodes(t.y)
                    if not ((t.z >> i) & 1 or (t.z >> j) & 1)
                )
                if found:
                    hits += 1
            assert hits / trials >= 0.95, t.render(g.labels)


class TestCorollariesSweep:
    """The sweep's failure branches, reached by swapping in unfaithful
    models or a failing recovery check."""

    def test_mended_tolerance_failure(self):
        # a float determinant with a relative tolerance read two exactly
        # nonzero minors of trial 0 of graph 7, (0, 2, 0b1010) and
        # (2, 3, 0b0011), as zero, which put that graph at 3 of 4 faithful
        # trials; the exact minors, and ci_test, read all 176 as faithful
        seed = 2332443261
        r = corollaries_sweep(4, 4, seed)
        assert r["passed"]
        assert r["faithful_trials"] == r["total_trials"] == 176
        g = [g for n in range(1, 5) for g in connected_ugs(n)][7]
        assert sorted(g.undirected) == [(0, 1), (0, 3), (1, 2)]
        model = sample_markov_gaussian(g, trial_seed(seed + 7919 * 7, 0))
        flipped = [(i, j, k) for i, j, k, v in pair_table(g) if ci_test(model, i, j, k) != v]
        assert flipped == []

    def test_unfaithful_models_fail_the_threshold(self, monkeypatch):
        monkeypatch.setattr("covgraph.verify._draw", complete_graph_draw)
        r = corollaries_sweep(3, 2, 0)
        assert not r["passed"]
        # the three paths on 3 nodes are never faithful; the complete
        # graphs on 1-3 nodes always are
        assert (r["graphs"], r["faithful_trials"], r["graphs_below_threshold"]) == (6, 6, 3)
        assert "n=3 edges=[A-B,B-C] faithful fraction 0.000 < 0.95" in r["failures"]
        assert r["structural_failures"] == r["tolerance_artifact_trials"] == 0

    def test_recovery_defect_on_a_faithful_trial_fails(self, monkeypatch):
        monkeypatch.setattr("covgraph.verify._recovery_ok", lambda cov, conc: False)
        r = corollaries_sweep(2, 2, 0)
        assert not r["passed"]
        assert r["structural_failures"] == r["total_trials"] == 4
        assert r["tolerance_artifact_trials"] == 0
        assert "n=2 edges=[A-B] trial 1: recovery defect on a faithful trial" in r["failures"]

    def test_failures_are_capped(self, monkeypatch):
        # every faithful trial of every graph is a defect, but the shared
        # sweep loop keeps only the first MAX_FAILURES_KEPT messages
        monkeypatch.setattr("covgraph.verify._recovery_ok", lambda cov, conc: False)
        r = corollaries_sweep(4, 2, 0)
        assert not r["passed"]
        assert r["structural_failures"] == r["total_trials"] == 88
        assert len(r["failures"]) == MAX_FAILURES_KEPT == 20
        assert r["failures"][0] == "n=1 edges=[] trial 0: recovery defect on a faithful trial"

    def test_faithful_trials_share_one_recovery(self, monkeypatch):
        # the recovery is checked once per graph, on the criterion's row,
        # and once more on each unfaithful trial
        import covgraph.verify as verify
        calls = [0]

        def counted(cov, conc):
            calls[0] += 1
            return _recovery_ok(cov, conc)

        monkeypatch.setattr(verify, "_recovery_ok", counted)
        r = corollaries_sweep(4, 3, 0)
        assert r["passed"] and r["total_trials"] == 3 * r["graphs"]
        assert calls[0] == r["graphs"] + r["total_trials"] - r["faithful_trials"]
        # the three paths on 3 nodes are never faithful under these models
        monkeypatch.setattr(verify, "_draw", complete_graph_draw)
        calls[0] = 0
        r = corollaries_sweep(3, 4, 0)
        assert (r["graphs"], r["total_trials"], r["faithful_trials"]) == (6, 24, 12)
        assert calls[0] == 6 + 12

    def test_recovery_defect_on_an_unfaithful_trial_is_tallied(self, monkeypatch):
        monkeypatch.setattr("covgraph.verify._draw", complete_graph_draw)
        monkeypatch.setattr("covgraph.verify._recovery_ok", lambda cov, conc: False)
        r = corollaries_sweep(3, 2, 0)
        # the paths' unfaithful trials are tallied, not recorded as defects
        assert r["tolerance_artifact_trials"] == r["structural_failures"] == 6
        defective = {f.split(" trial ")[0] for f in r["failures"] if "recovery defect" in f}
        assert defective == {"n=1 edges=[]", "n=2 edges=[A-B]", "n=3 edges=[A-B,A-C,B-C]"}


class TestDump:
    def test_format(self):
        m = GaussianModel((0.0, 0.0), ((2.0, 0.5), (0.5, 2.0)))
        text = dump_model(m)
        lines = text.splitlines()
        assert lines[0] == "2"
        assert lines[1].split() == ["2.0", "0.5"]
        assert text.endswith("\n")

    def test_trial_seed_distinct(self):
        seeds = {trial_seed(0, t) for t in range(100)}
        assert len(seeds) == 100
