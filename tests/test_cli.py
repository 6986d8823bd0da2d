"""Command-line behavior: exit codes, text output, JSON stability."""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from closure_oracles import naive_explain_json
from covgraph import canonical_triples, format_graph, parse_graph, saturate
from covgraph.cli import _explain_payload, main
from covgraph.smallgraphs import all_ugs, random_ug
from strategies import complete_graph_draw, dead_end_clique

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

    @pytest.mark.parametrize("data, where", [
        (b"A -- B\nB -- \xff\n", "line 2: invalid UTF-8 byte 0xff"),
        (b"\xef\xbb\xbfA -- B\r\nB -- C\r\n\xfe -- D\r\n", "line 3: invalid UTF-8 byte 0xfe"),
        (b"A -- B\rB -- C\r\xff\r", "line 3: invalid UTF-8 byte 0xff"),
        (b"A -- B\nB -- C\xe2\x82", "line 2: invalid UTF-8 byte 0xe2"),
    ])
    def test_invalid_utf8_names_line(self, capsys, tmp_path, data, where):
        # lines are counted as parse_graph counts them: CRLF and a lone CR
        # end a line too, and a BOM does not shift the count
        p = tmp_path / "bad.g"
        p.write_bytes(data)
        code, out, err = run_cli(capsys, ["indep", "-g", str(p), "-X", "A", "-Y", "B"])
        assert code == 2
        assert out == ""
        assert err == f"error: {where}\n"

    def test_bom_and_crlf_accepted(self, capsys, tmp_path):
        # without the BOM stripped, the first label would read '\ufeffA'
        # and A-B-C would be no path
        p = tmp_path / "bom.g"
        p.write_bytes(b"\xef\xbb\xbf" + CYCLE4.replace("\n", "\r\n").encode())
        code, out, _ = run_cli(capsys, ["dep", "-g", str(p),
                                        "-X", "A", "-Y", "C", "-Z", "B"])
        assert code == 0
        assert out.strip() == "DEPENDENT, witness A-B-C"

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

    def test_explain_json_matches_naive_payload(self):
        """Every statement of every labeled UG of up to 4 nodes and of
        seeded random 5- and 6-node UGs, on a state no text `explain` has
        touched, gives the tree that `naive_explain_json` makes from scratch."""
        rng = random.Random(20261018)
        graphs = [g for n in range(1, 5) for g in all_ugs(n)]
        graphs += [random_ug(5, rng) for _ in range(10)]
        graphs += [random_ug(6, rng) for _ in range(4)]
        for g in graphs:
            state = saturate(g)
            for p, t in enumerate(canonical_triples(g.n)):
                if state.row[p]:
                    assert _explain_payload(state, p, {}) == naive_explain_json(state, t)

    @pytest.mark.parametrize("argv", [
        ["closure"], ["closure", "--json"],
        ["explain", "-X", "A", "-Y", "C", "-Z", "B"],
        ["explain", "-X", "A", "-Y", "C", "-Z", "B", "--json"],
    ])
    def test_commands_build_no_view(self, capsys, monkeypatch, cycle4_file, argv):
        # `closure` and `explain` read the state's positional table; the
        # `established` and `provenance` views stay unbuilt
        import covgraph.cli as cli
        made = []
        monkeypatch.setattr(cli, "saturate", lambda g: made.append(saturate(g)) or made[-1])
        code, _, _ = run_cli(capsys, [argv[0], "-g", cycle4_file, *argv[1:]])
        assert code == 0
        (state,) = made
        assert "established" not in state.__dict__
        assert "provenance" not in state.__dict__


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

    def test_all_report_bytes_are_pinned(self, capsys):
        # the sha256 of the whole `--scope all` report: any change to a
        # verdict, a count or the rendering of a sweep moves it
        code, out, _ = run_cli(capsys, ["verify", "--scope", "all", "--n-max", "4",
                                        "--trials", "3", "--graphs", "5", "--json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "fc1caa6a160fe8b8de3deebc025156e3dc651de210bf8212c61cf931ea6510a5"

    def test_corollaries_report_bytes_are_pinned_at_five_nodes(self, capsys):
        # `--scope all` above stops the corollaries sweep at 4 nodes; this
        # pins every verdict and count over the 728 connected 5-node graphs
        code, out, _ = run_cli(capsys, ["verify", "--scope", "corollaries", "--n-max", "5",
                                        "--trials", "5", "--seed", "3", "--json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "8561646ee8c64c7ab6bbc4a96c0b19391ea9f974ae34831c200e48c2487e8782"

    def test_latent_report_bytes_are_pinned_at_five_nodes(self, capsys):
        # `--scope all` above stops the latent sweep at 4 nodes; this pins
        # the report over all 1,099 labeled UGs of 1-5 nodes
        code, out, _ = run_cli(capsys, ["verify", "--scope", "latent", "--n-max", "5", "--json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "e4ffec508b13dae4c815ebf2d3a02b6df46f95b90ace3e3cb326b72a308e6070"

    def test_all_caps_each_sweep_size(self, monkeypatch):
        # the sizes `--scope all` runs decide how long it takes
        import covgraph.verify as verify
        scopes = ("theorems", "latent", "forest", "corollaries")
        received = []

        def fake(scope):
            def sweep(n_max, *rest):
                received.append((scope, n_max))
                return {"passed": True}
            return sweep

        for scope in scopes:
            monkeypatch.setattr(verify, f"{scope}_sweep", fake(scope))
        for n_max in range(1, 7):
            verify.full_verification(n_max)
        # the n_max each of `scopes` receives, for n_max = 1..6
        sizes = [(1, 1, 2, 1), (2, 2, 3, 2), (3, 3, 4, 3),
                 (4, 4, 5, 4), (5, 5, 6, 5), (6, 5, 6, 5)]
        assert received == [pair for row in sizes for pair in zip(scopes, row)]

    def test_unfaithful_models_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr("covgraph.verify._draw", complete_graph_draw)
        code, out, _ = run_cli(capsys, ["verify", "--scope", "corollaries",
                                        "--n-max", "3", "--trials", "2"])
        assert code == 1
        assert "  violation: n=3 edges=[A-B,B-C] faithful fraction 0.000 < 0.95" in out.splitlines()

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
        (["--scope", "corollaries", "--graphs", "2"], "--graphs applies to --scope all"),
        (["--scope", "latent", "--seed", "3"], "--seed applies to --scope theorems"),
        (["--scope", "corollaries", "--n-max", "7"], "corollaries sweep limited"),
        (["--scope", "theorems", "--n-max", "7"], "theorems sweep limited"),
        (["--scope", "all", "--n-max", "1", "--trials", "0"], "trial"),
        (["--scope", "theorems", "--n-max", "2", "--seed", "-1"],
         "seed must not be negative"),
        (["--scope", "corollaries", "--n-max", "2", "--trials", "1", "--seed", "-1"],
         "seed must not be negative"),
    ])
    def test_bad_counts_are_errors(self, capsys, argv, message):
        # 0 and negative counts are refused, not replaced by the defaults
        # or run as an empty sweep; sizes past a sweep's limit are refused
        # up front instead of running for hours; a flag the scope does not
        # read is refused instead of ignored
        code, out, err = run_cli(capsys, ["verify", *argv])
        assert code == 2
        assert out == ""
        assert message in err

    def test_all_refuses_bad_trials_before_any_sweep(self, capsys, monkeypatch):
        import covgraph.verify as verify

        def refuse(*args, **kwargs):
            raise AssertionError("a sweep ran before the arguments were checked")

        for name in ("theorems_sweep", "latent_sweep", "forest_sweep", "corollaries_sweep"):
            monkeypatch.setattr(verify, name, refuse)
        with pytest.raises(ValueError, match="^at least one trial required$"):
            verify.full_verification(trials=0)
        code, out, err = run_cli(capsys, ["verify", "--scope", "all", "--trials", "0"])
        assert (code, out, err) == (2, "", "error: at least one trial required\n")

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

    @pytest.mark.parametrize("argv", [["gaussian", "-g", "graph.g", "--trials", "2"],
                                      ["verify", "--scope", "corollaries", "--n-max", "2"]])
    def test_tolerance_flag_is_refused(self, capsys, argv):
        # the sweeps read exact minors, so neither command takes a tolerance
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--tol", "1e-9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err

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
