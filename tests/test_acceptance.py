"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line.  Run with `pytest -s tests/test_acceptance.py -v` to see
the lines as they complete; the whole suite takes a couple of minutes.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

from covgraph import (
    CITriple,
    GaussianModel,
    GraphKind,
    MixedGraph,
    bit,
    ci_independent,
    ci_test,
    cov_dependent,
    nd_dimension,
    sample_markov_gaussian,
    saturate,
    submasks,
)
from covgraph.smallgraphs import all_ugs, random_ug
from covgraph.verify import (
    corollaries_sweep,
    forest_sweep,
    latent_sweep,
    theorems_sweep,
)

COV = GraphKind.COVARIANCE


def _criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {status}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def cycle4():
    return MixedGraph.ug("ABCD", [("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")])


def test_criterion_1_closure_equals_criterion():
    r = theorems_sweep(n_max=5, random_graphs=200, seed=0)
    ok = r["passed"] and r["exhaustive_graphs"] >= 64 and r["random_graphs"] >= 200
    _criterion(
        1,
        "rule closure equals the single-path criterion on all 4-node UGs "
        "and 200 random 5-node UGs",
        ok,
        f"exhaustive={r['exhaustive_graphs']} random={r['random_graphs']}",
    )


def test_criterion_2_latent_dag_equivalence():
    r = latent_sweep(n_max=5)
    ok = r["passed"] and r["graphs"] == 1099
    _criterion(
        2,
        "covariance criterion equals d-separation in the latent DAG on "
        "every UG up to 5 nodes",
        ok,
        f"graphs={r['graphs']} triples={r['triples_checked']}",
    )


def test_criterion_3_four_cycle_example():
    g = cycle4()
    a, b, c, d = (bit(i) for i in range(4))
    ok = (
        ci_independent(g, COV, a, c, 0)
        and ci_independent(g, COV, b, d, 0)
        and not ci_independent(g, COV, a, c, b)
        and not ci_independent(g, COV, a, c, d)
        and not ci_independent(g, COV, a, c, b | d)
        and cov_dependent(g, a, c, b)
        and cov_dependent(g, a, c, d)
        and not cov_dependent(g, a, c, b | d)
    )
    _criterion(3, "4-cycle marginal/conditional verdicts match the worked values", ok)


def test_criterion_4_triangle_gap():
    g = MixedGraph.ug("ABC", [("A", "B"), ("A", "C"), ("B", "C")])
    t = CITriple(bit(0), bit(2), bit(1))
    state = saturate(g)
    ok = (t not in state.established
          and not ci_independent(g, COV, bit(0), bit(2), bit(1)))
    _criterion(
        4,
        "triangle leaves (A, C | B) underdetermined: neither derived as "
        "dependent nor certified independent",
        ok,
    )


def test_criterion_5_forest_faithfulness():
    r = forest_sweep(n_max=6)
    ok = r["passed"] and r["graphs"] == 3271
    _criterion(
        5,
        "on every labeled forest up to 6 nodes the dependence criterion is "
        "the exact complement of the independence criterion",
        ok,
        f"forests={r['graphs']} triples={r['triples_checked']}",
    )


def test_criterion_6_gaussian_corollaries():
    r = corollaries_sweep(n_max=5, trials=100, seed=0)
    ok = (
        r["passed"]
        and r["graphs"] == 772
        and r["structural_failures"] == 0
        and r["graphs_below_threshold"] == 0
        and r["min_faithful_fraction"] >= 0.95
    )
    _criterion(
        6,
        "recovered covariance/concentration graphs share components with "
        "complete tree duals on every faithful trial; >=95% of "
        "trials per graph exactly faithful",
        ok,
        f"graphs={r['graphs']} faithful={r['faithful_trials']}/{r['total_trials']} "
        f"minfrac={r['min_faithful_fraction']:.3f} "
        f"tolerance_artifacts={r['tolerance_artifact_trials']}",
    )


def _leading_minors_positive(sigma) -> bool:
    """Sylvester's criterion in Fraction arithmetic: elimination without
    pivoting meets only positive pivots iff every leading principal minor
    of sigma is positive."""
    a = [[Fraction(v) for v in row] for row in sigma]
    for c in range(len(a)):
        if a[c][c] <= 0:
            return False
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            for col in range(c, len(a)):
                a[r][col] -= f * a[c][col]
    return True


def test_criterion_7_construction_validity():
    import random

    checked = 0
    ok = True
    for n in range(1, 5):
        for g in all_ugs(n):
            for seed in (0, 1, 2):
                m = sample_markov_gaussian(g, seed)
                checked += 1
                if not _leading_minors_positive(m.sigma):
                    ok = False
                if nd_dimension(g) != 2 * g.n + len(g.undirected):
                    ok = False
    rng = random.Random(123)
    for n in (5, 6):
        for _ in range(40):
            g = random_ug(n, rng)
            m = sample_markov_gaussian(g, rng.getrandbits(32))
            checked += 1
            if not _leading_minors_positive(m.sigma):
                ok = False
            if nd_dimension(g) != 2 * g.n + len(g.undirected):
                ok = False
    _criterion(
        7,
        "every sampled covariance matrix has all leading principal minors "
        "positive in exact arithmetic and the free-parameter count is "
        "2|V| + |edges|",
        ok,
        f"models={checked}",
    )


def test_criterion_8_determinant_ci_on_hand_matrices():
    diag = GaussianModel((0.0, 0.0, 0.0),
                         ((2.0, 0.0, 0.0), (0.0, 3.0, 0.0), (0.0, 0.0, 4.0)))
    ok = True
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            rest = 0b111 & ~bit(i) & ~bit(j)
            for k in submasks(rest):
                if not ci_test(diag, i, j, k):
                    ok = False
    pair = GaussianModel((0.0, 0.0), ((2.0, 0.5), (0.5, 2.0)))
    if ci_test(pair, 0, 1, 0):
        ok = False
    _criterion(
        8,
        "diagonal sigma tests independent everywhere; [[2,.5],[.5,2]] "
        "tests marginally dependent",
        ok,
    )


def test_criterion_9_cli_determinism(tmp_path):
    p = tmp_path / "cycle4.g"
    p.write_text("A -- B\nB -- C\nC -- D\nD -- A\n")
    commands = [
        ["indep", "-g", str(p), "-X", "A", "-Y", "C", "--json"],
        ["gaussian", "-g", str(p), "--seed", "0", "--trials", "5", "--json"],
        ["verify", "--scope", "theorems", "--n-max", "3", "--seed", "0", "--json"],
        ["verify", "--scope", "corollaries", "--n-max", "3", "--trials", "5",
         "--seed", "0", "--json"],
    ]
    ok = True
    for cmd in commands:
        outputs = []
        for hash_seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run([sys.executable, "-m", "covgraph.cli", *cmd],
                                  capture_output=True, env=env)
            if proc.returncode not in (0, 1):
                ok = False
            outputs.append(proc.stdout)
            json.loads(proc.stdout)  # must be valid JSON
        if outputs[0] != outputs[1]:
            ok = False
    _criterion(
        9,
        "identical seeded CLI invocations emit byte-identical JSON across "
        "interpreter runs",
        ok,
    )
