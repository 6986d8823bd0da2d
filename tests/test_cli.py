"""Command-line behavior: exit codes, text output, JSON stability."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from covgraph import format_graph, parse_graph
from covgraph.cli import main
from strategies import dead_end_clique

CYCLE4 = "A -- B\nB -- C\nC -- D\nD -- A\n"
PATH3 = "A -- B\nB -- C\n"


@pytest.fixture
def cycle4_file(tmp_path):
    p = tmp_path / "cycle4.g"
    p.write_text(CYCLE4)
    return str(p)


@pytest.fixture
def path3_file(tmp_path):
    p = tmp_path / "path3.g"
    p.write_text(PATH3)
    return str(p)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestQueryCommands:
    def test_indep_holds(self, capsys, cycle4_file):
        code, out, _ = run_cli(capsys, ["indep", "--kind", "covariance",
                                        "-g", cycle4_file, "-X", "A", "-Y", "C"])
        assert code == 0
        assert out.strip() == "INDEPENDENT"

    def test_indep_does_not_hold(self, capsys, cycle4_file):
        code, out, _ = run_cli(capsys, ["indep", "-g", cycle4_file,
                                        "-X", "A", "-Y", "C", "-Z", "B"])
        assert code == 1
        assert out.strip() == "NOT-INDEPENDENT"

    def test_dep_with_witness(self, capsys, cycle4_file):
        code, out, _ = run_cli(capsys, ["dep", "--kind", "covariance",
                                        "-g", cycle4_file,
                                        "-X", "A", "-Y", "C", "-Z", "B"])
        assert code == 0
        assert out.strip() == "DEPENDENT, witness A-B-C"

    def test_dep_not_dependent(self, capsys, cycle4_file):
        code, out, _ = run_cli(capsys, ["dep", "-g", cycle4_file,
                                        "-X", "A", "-Y", "C", "-Z", "B,D"])
        assert code == 1
        assert out.strip() == "NOT-DEPENDENT"

    def test_dep_dead_end_clique(self, capsys, tmp_path):
        # one path a-b beside a 20-clique of dead ends
        g = dead_end_clique(20)
        p = tmp_path / "clique.g"
        p.write_text(format_graph(g))
        code, out, _ = run_cli(capsys, ["dep", "-g", str(p), "-X", "a", "-Y", "b",
                                        "-Z", ",".join(g.labels[1:-1])])
        assert code == 0
        assert out.strip() == "DEPENDENT, witness a-b"

    def test_overlap_is_error(self, capsys, cycle4_file):
        code, _, err = run_cli(capsys, ["dep", "-g", cycle4_file,
                                        "-X", "A", "-Y", "A"])
        assert code == 2
        assert "disjoint" in err

    def test_unknown_label_is_error(self, capsys, cycle4_file):
        code, _, err = run_cli(capsys, ["indep", "-g", cycle4_file,
                                        "-X", "Q", "-Y", "C"])
        assert code == 2
        assert "unknown node label" in err

    def test_missing_file_is_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["indep", "-g", str(tmp_path / "no.g"),
                                        "-X", "A", "-Y", "B"])
        assert code == 2

    def test_parse_error_names_line(self, capsys, tmp_path):
        p = tmp_path / "bad.g"
        p.write_text("A -- B\nA -- A\n")
        code, _, err = run_cli(capsys, ["indep", "-g", str(p),
                                        "-X", "A", "-Y", "B"])
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("text", ["A -- B\nB -- a,c\n", "A -- B\n- -- B\n"])
    def test_bad_label_names_line(self, capsys, tmp_path, text):
        p = tmp_path / "bad.g"
        p.write_text(text)
        code, out, err = run_cli(capsys, ["closure", "-g", str(p)])
        assert code == 2
        assert out == ""
        assert "line 2: invalid node label" in err

    def test_dash_label_through_equals(self, capsys, tmp_path):
        # `-X -a` would read `-a` as a flag; `-X=-a` passes it as a label
        p = tmp_path / "dash.g"
        p.write_text("-a -- b\n")
        code, out, _ = run_cli(capsys, ["dep", "-g", str(p), "-X=-a", "-Y", "b"])
        assert code == 0
        assert out.strip() == "DEPENDENT, witness -a-b"

    def test_json_payload(self, capsys, cycle4_file):
        code, out, _ = run_cli(capsys, ["dep", "-g", cycle4_file, "--json",
                                        "-X", "A", "-Y", "C", "-Z", "B"])
        payload = json.loads(out)
        assert payload["dependent"] is True
        assert payload["witness"] == ["A", "B", "C"]
        assert payload["z"] == ["B"]


class TestClosureCommands:
    def test_closure_lists_rule(self, capsys, path3_file):
        code, out, _ = run_cli(capsys, ["closure", "-g", path3_file])
        assert code == 0
        assert "A ; C ; B ; DEPENDENT ; weak-transitivity1" in out

    def test_closure_single_edge(self, capsys, tmp_path):
        p = tmp_path / "edge.g"
        p.write_text("A -- B\n")
        code, out, _ = run_cli(capsys, ["closure", "-g", str(p)])
        assert code == 0
        assert out.strip() == "A ; B ; - ; DEPENDENT ; base"

    def test_closure_size_guard(self, capsys, tmp_path):
        p = tmp_path / "big.g"
        p.write_text("\n".join(f"node N{i}" for i in range(7)))
        code, _, err = run_cli(capsys, ["closure", "-g", str(p)])
        assert code == 2

    def test_explain_tree(self, capsys, path3_file):
        code, out, _ = run_cli(capsys, ["explain", "-g", path3_file,
                                        "-X", "A", "-Y", "C", "-Z", "B"])
        assert code == 0
        assert "[weak-transitivity1]" in out
        assert "[base]" in out

    def test_explain_absent_triple(self, capsys, path3_file):
        code, _, err = run_cli(capsys, ["explain", "-g", path3_file,
                                        "-X", "A", "-Y", "C"])
        assert code == 2
        assert err == "error: A ; C ; - is not in the closure\n"


PENTAGON_CHORD = "A -- B\nB -- C\nC -- D\nD -- E\nE -- A\nA -- C\n"
HEXAGON_CHORD = "A -- B\nB -- C\nC -- D\nD -- E\nE -- F\nF -- A\nB -- E\n"


class TestPinnedClosureBytes:
    """One sha256 per graph over the exit code, stdout and stderr of
    `closure` (text and --json), of `explain` in each listed mode on every
    established statement, and of `explain` on an absent statement.  Any
    change to a derivation, a rule name or the rendering moves a digest."""

    @pytest.mark.parametrize("graph, explain_modes, digest", [
        (CYCLE4, (["--json"], []),
         "46fb24267709d54b75d2e04cac30c15f992961ffd0f1b7b47bbeca3cd890cf29"),
        (PENTAGON_CHORD, (["--json"],),
         "e225856a037becc4398907ed7b5a770f59cd20828f1c8fa66a4c421dda2afb85"),
        (HEXAGON_CHORD, (),
         "96856b760bd49b25bbfc425641179d43c73ec4b6748e102992d581672ff87c83"),
    ], ids=["cycle4", "pentagon-chord", "hexagon-chord"])
    def test_digest(self, capsys, tmp_path, graph, explain_modes, digest):
        path = tmp_path / "graph.g"
        path.write_text(graph)
        h = hashlib.sha256()

        def call(*argv):
            code, out, err = run_cli(capsys, [argv[0], "-g", str(path), *argv[1:]])
            h.update(f"{code}\n{len(out)}\n{out}{len(err)}\n{err}".encode())
            return out

        call("closure")
        rows = json.loads(call("closure", "--json"))["statements"]
        if explain_modes:
            for row in rows:
                sets = [f"-{k.upper()}={','.join(row[k])}" for k in "xyz" if row[k]]
                for mode in explain_modes:
                    call("explain", *mode, *sets)
            call("explain", "-X", "B", "-Y", "D")  # not adjacent: absent, exit 2
        assert h.hexdigest() == digest


class TestVerifyCommands:
    def test_theorems_small(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--scope", "theorems",
                                        "--n-max", "3"])
        assert code == 0
        assert "theorems: PASS" in out

    def test_latent_small(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--scope", "latent",
                                        "--n-max", "3"])
        assert code == 0

    def test_forest_small(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--scope", "forest",
                                        "--n-max", "4"])
        assert code == 0

    def test_corollaries_small(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--scope", "corollaries",
                                        "--n-max", "3", "--trials", "5",
                                        "--seed", "7", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["seed"] == 7

    def test_all_separates_graphs_from_trials(self, capsys, monkeypatch):
        # shrink the latent, forest and Gaussian sweeps to 3 nodes so the
        # theorems sweep runs its random 5-node graphs in test time
        import covgraph.verify as verify
        for name in ("latent_sweep", "forest_sweep"):
            real = getattr(verify, name)
            monkeypatch.setattr(verify, name, lambda n, real=real: real(min(n, 3)))
        real_cor = verify.corollaries_sweep
        monkeypatch.setattr(verify, "corollaries_sweep",
                            lambda n, *rest: real_cor(min(n, 3), *rest))
        code, out, _ = run_cli(capsys, ["verify", "--scope", "all",
                                        "--graphs", "3", "--trials", "7",
                                        "--json"])
        assert code == 0
        parts = {part["scope"]: part for part in json.loads(out)["parts"]}
        assert parts["theorems"]["random_graphs"] == 3
        assert parts["corollaries"]["trials"] == 7

    def test_graphs_needs_scope_all(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "--scope", "theorems",
                                        "--graphs", "3"])
        assert code == 2
        assert "--scope all" in err

    @pytest.mark.parametrize("argv, message", [
        (["--scope", "corollaries", "--n-max", "2", "--trials", "0"], "trial"),
        (["--scope", "corollaries", "--n-max", "2", "--trials", "-3"], "trial"),
        (["--scope", "corollaries", "--n-max", "0"], "n_max"),
        (["--scope", "theorems", "--n-max", "0"], "n_max"),
        (["--scope", "theorems", "--n-max", "2", "--trials", "-1"], "random graph"),
        (["--scope", "latent", "--n-max", "0"], "n_max"),
        (["--scope", "forest", "--n-max", "-1"], "n_max"),
        (["--scope", "all", "--n-max", "0"], "n_max"),
        (["--scope", "all", "--graphs", "-1"], "random graph"),
        (["--scope", "latent", "--n-max", "6"], "latent sweep limited"),
        (["--scope", "forest", "--n-max", "8"], "forest sweep limited"),
        (["--scope", "latent", "--trials", "3"], "--trials applies to --scope theorems"),
        (["--scope", "forest", "--tol", "1e-6"], "--tol applies to --scope corollaries, all"),
        (["--scope", "latent", "--seed", "3"], "--seed applies to --scope theorems"),
        (["--scope", "corollaries", "--n-max", "2", "--trials", "1", "--tol", "nan"],
         "tolerance"),
        (["--scope", "corollaries", "--n-max", "2", "--trials", "1", "--tol=inf"],
         "tolerance"),
        (["--scope", "corollaries", "--n-max", "1", "--tol", "nan"], "tolerance"),
        (["--scope", "theorems", "--n-max", "2", "--seed", "-1"],
         "seed must not be negative"),
        (["--scope", "corollaries", "--n-max", "2", "--trials", "1", "--seed", "-1"],
         "seed must not be negative"),
    ])
    def test_bad_counts_are_errors(self, capsys, argv, message):
        # 0 and negative counts are refused, not replaced by the defaults
        # or run as an empty sweep; sizes past a sweep's limit are refused
        # up front instead of running for hours; a flag the scope does not
        # read and a non-finite tolerance are refused instead of ignored
        code, out, err = run_cli(capsys, ["verify", *argv])
        assert code == 2
        assert out == ""
        assert message in err

    def test_zero_random_graphs_is_honored(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--scope", "theorems",
                                        "--trials", "0", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["n_max"] == 5
        assert payload["random_graphs"] == 0

    def test_json_roundtrip_identity(self, capsys):
        _, out, _ = run_cli(capsys, ["verify", "--scope", "theorems",
                                     "--n-max", "3", "--json"])
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


class TestGaussianCommand:
    def test_text_output(self, capsys, cycle4_file):
        code, out, _ = run_cli(capsys, ["gaussian", "-g", cycle4_file,
                                        "--seed", "3"])
        assert code == 0
        assert "nd dimension: 12" in out
        assert "positive definite: yes" in out
        assert out.splitlines()[2] == "4"

    def test_faithfulness_trials(self, capsys, cycle4_file):
        code, out, _ = run_cli(capsys, ["gaussian", "-g", cycle4_file,
                                        "--seed", "3", "--trials", "20", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["faithfulness"]["trials"] == 20

    def test_negative_seed_is_error(self, capsys, cycle4_file):
        code, out, err = run_cli(capsys, ["gaussian", "-g", cycle4_file,
                                          "--seed", "-3"])
        assert code == 2
        assert out == ""
        assert "seed must not be negative" in err

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_tolerance_without_trials_is_error(self, capsys, cycle4_file, tol):
        code, out, err = run_cli(capsys, ["gaussian", "-g", cycle4_file, "--tol", tol])
        assert code == 2
        assert out == ""
        assert err == "error: tolerance must be positive and finite\n"

    def test_identical_seeds_identical_output(self, capsys, cycle4_file):
        argv = ["gaussian", "-g", cycle4_file, "--seed", "3", "--json"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2


class TestLatentCommand:
    def test_output_parses_back(self, capsys, cycle4_file):
        code, out, _ = run_cli(capsys, ["latent", "-g", cycle4_file])
        assert code == 0
        h = parse_graph(out)
        assert h.n == 8
        assert len(h.directed) == 8
        assert "L_A_B" in h.labels

    def test_json(self, capsys, cycle4_file):
        _, out, _ = run_cli(capsys, ["latent", "-g", cycle4_file, "--json"])
        payload = json.loads(out)
        assert payload["latents"]["L_A_B"] == ["A", "B"]


class TestProcessDeterminism:
    def test_byte_identical_across_hash_seeds(self, tmp_path):
        p = tmp_path / "cycle4.g"
        p.write_text(CYCLE4)
        argv = [sys.executable, "-m", "covgraph.cli", "gaussian",
                "-g", str(p), "--seed", "11", "--trials", "5", "--json"]
        outs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(argv, capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


class TestClosedStdout:
    def test_exits_141_quietly(self, tmp_path):
        p = tmp_path / "cycle4.g"
        p.write_text(CYCLE4)
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        try:
            proc = subprocess.run([sys.executable, "-m", "covgraph.cli", "closure",
                                   "-g", str(p)], stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == b""
