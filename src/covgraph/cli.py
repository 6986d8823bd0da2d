"""Command-line front end.

Exit codes for `indep` and `dep`: 0 when the criterion holds, 1 when it
does not, 2 on any error.  `verify` exits 0 iff every assertion passed.
Any command whose reader closes stdout early exits 141 (128 + SIGPIPE)
and prints nothing on stderr.
Text output is for humans; pass --json for the stable machine format.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import compress
from typing import Sequence

from .closure import explain, saturate
from .gaussian import dump_model, nd_dimension, sample_markov_gaussian
from .graphs import (GraphKind, GraphParseError, MixedGraph, format_graph, iter_nodes, latent_dag,
                     parse_graph)
from .separation import (UG_READINGS, CITriple, canonical_triples, ci_independent,
                         dependence_witness)
from .verify import (
    MIN_FAITHFUL_FRACTION,
    corollaries_sweep,
    faithfulness_report,
    forest_sweep,
    full_verification,
    latent_sweep,
    theorems_sweep,
)

EXIT_HOLDS = 0
EXIT_DOES_NOT_HOLD = 1
EXIT_ERROR = 2
EXIT_BROKEN_PIPE = 128 + 13  # SIGPIPE


def _load_graph(path: str) -> MixedGraph:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is the data after any BOM.  Lines are counted as
        # parse_graph counts them, with "#" standing in for the bad byte.
        before = exc.object[:exc.start].decode("utf-8")
        raise GraphParseError(f"invalid UTF-8 byte 0x{exc.object[exc.start]:02x}",
                              len((before + "#").splitlines())) from None
    return parse_graph(text)


def _labels_arg(value: str | None) -> list[str]:
    if not value:
        return []
    return [part for part in value.split(",") if part]


def _resolve(g: MixedGraph, args) -> tuple[int, int, int]:
    return tuple(g.node_set(_labels_arg(s)) for s in (args.X, args.Y, args.Z))


def _label_list(g: MixedGraph, mask: int) -> list[str]:
    return [g.labels[i] for i in iter_nodes(mask)]


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _query(args, decide):
    """The graph, `decide(g, kind, x, y, z)` and the payload keys that
    `indep` and `dep` share, from --graph, --kind and -X/-Y/-Z."""
    g = _load_graph(args.graph)
    kind = GraphKind(args.kind)
    x, y, z = _resolve(g, args)
    answer = decide(g, kind, x, y, z)
    return g, answer, {
        "command": args.command,
        "kind": kind.value,
        "x": _label_list(g, x),
        "y": _label_list(g, y),
        "z": _label_list(g, z),
    }


def _cmd_indep(args) -> int:
    _g, verdict, payload = _query(args, ci_independent)
    payload["independent"] = verdict
    _emit(args, payload, "INDEPENDENT" if verdict else "NOT-INDEPENDENT")
    return EXIT_HOLDS if verdict else EXIT_DOES_NOT_HOLD


def _cmd_dep(args) -> int:
    g, witness, payload = _query(args, dependence_witness)
    payload["dependent"] = witness is not None
    payload["witness"] = [g.labels[v] for v in witness.nodes] if witness else None
    _emit(args, payload,
          f"DEPENDENT, witness {witness.render(g.labels)}" if witness else "NOT-DEPENDENT")
    return EXIT_HOLDS if witness else EXIT_DOES_NOT_HOLD


def _cmd_closure(args) -> int:
    g = _load_graph(args.graph)
    state = saturate(g)
    rows = []
    lines = []
    for t, (rule, *_antecedents) in compress(zip(canonical_triples(g.n), state.derivations),
                                             state.row):
        rows.append({
            "x": _label_list(g, t.x),
            "y": _label_list(g, t.y),
            "z": _label_list(g, t.z),
            "status": "DEPENDENT",
            "rule": rule,
        })
        lines.append(f"{t.render(g.labels)} ; DEPENDENT ; {rule}")
    payload = {"command": "closure", "statements": rows}
    _emit(args, payload, "\n".join(lines) if lines else "(no dependencies)")
    return EXIT_HOLDS


def _explain_payload(state, p: int, memo: dict) -> dict:
    # One dict per statement, shared by every tree that contains it;
    # json.dumps writes a shared dict out in full at each place.
    node = memo.get(p)
    if node is None:
        rule, deps, indeps = state.derivations[p]
        node = memo[p] = {
            "statement": state.render(p),
            "rule": rule,
            "independencies": [state.render(i) for i in indeps],
            "antecedents": [_explain_payload(state, dep, memo) for dep in deps],
        }
    return node


def _cmd_explain(args) -> int:
    g = _load_graph(args.graph)
    state = saturate(g)
    x, y, z = _resolve(g, args)
    triple = CITriple(x, y, z)
    tree = explain(state, triple)  # raises for an absent statement
    payload = {"command": "explain", "tree": _explain_payload(state, state.position(triple), {})}
    _emit(args, payload, tree)
    return EXIT_HOLDS


# Per scope: the sweep, and each flag it reads with the parameter that
# flag sets.  A flag left out is not passed, so the sweep's default applies.
VERIFY_SCOPES = {
    "theorems": (theorems_sweep,
                 {"n_max": "n_max", "trials": "random_graphs", "seed": "seed"}),
    "latent": (latent_sweep, {"n_max": "n_max"}),
    "forest": (forest_sweep, {"n_max": "n_max"}),
    "corollaries": (corollaries_sweep,
                    {"n_max": "n_max", "trials": "trials", "seed": "seed"}),
    "all": (full_verification,
            {"n_max": "n_max", "graphs": "random_graphs", "trials": "trials",
             "seed": "seed"}),
}


def _cmd_verify(args) -> int:
    sweep, reads = VERIFY_SCOPES[args.scope]
    params = {}
    for flag in ("n_max", "seed", "trials", "graphs"):
        value = getattr(args, flag)
        if value is None:
            continue
        if flag not in reads:
            readers = [s for s, (_, r) in VERIFY_SCOPES.items() if flag in r]
            raise ValueError(f"--{flag.replace('_', '-')} applies to --scope "
                             f"{', '.join(readers)}")
        params[reads[flag]] = value
    result = sweep(**params)
    parts = result.get("parts", [result])
    lines = []
    for part in parts:
        status = "PASS" if part["passed"] else "FAIL"
        detail = {
            k: v for k, v in part.items()
            if k not in ("failures", "passed", "scope")
        }
        lines.append(f"{part['scope']}: {status} {detail}")
        for failure in part["failures"]:
            lines.append(f"  violation: {failure}")
    _emit(args, result, "\n".join(lines))
    return EXIT_HOLDS if result["passed"] else EXIT_DOES_NOT_HOLD


def _cmd_gaussian(args) -> int:
    g = _load_graph(args.graph)
    model = sample_markov_gaussian(g, args.seed)
    payload = {
        "command": "gaussian",
        "seed": args.seed,
        "nodes": list(g.labels),
        "nd_dimension": nd_dimension(g),
        "positive_definite": True,
        "mean": list(model.mean),
        "sigma": [list(row) for row in model.sigma],
    }
    text_parts = [
        f"nodes: {g.n}  edges: {len(g.undirected)}  nd dimension: {nd_dimension(g)}",
        "positive definite: yes",
        dump_model(model).rstrip("\n"),
    ]
    code = EXIT_HOLDS
    if args.trials:
        rep = faithfulness_report(g, args.trials, args.seed)
        payload["faithfulness"] = rep.to_dict()
        text_parts.append(
            f"faithful trials: {rep.faithful_trials}/{rep.trials} "
            f"(fraction {rep.faithful_fraction:.3f})"
        )
        if rep.faithful_fraction < MIN_FAITHFUL_FRACTION:
            code = EXIT_DOES_NOT_HOLD
    _emit(args, payload, "\n".join(text_parts))
    return code


def _cmd_latent(args) -> int:
    g = _load_graph(args.graph)
    ld = latent_dag(g)
    payload = {
        "command": "latent",
        "original_nodes": list(g.labels),
        "nodes": list(ld.dag.labels),
        "arrows": [
            [ld.dag.labels[a], ld.dag.labels[b]] for a, b in sorted(ld.dag.directed)
        ],
        "latents": {
            ld.dag.labels[latent]: [g.labels[a], g.labels[b]]
            for a, b, latent in ld.latents
        },
    }
    _emit(args, payload, format_graph(ld.dag).rstrip("\n"))
    return EXIT_HOLDS


def _add_common(sub, sets=False):
    sub.add_argument("-g", "--graph", required=True, help="graph file path")
    if sets:
        for flag in ("-X", "-Y", "-Z"):
            sub.add_argument(flag, default="",
                             help=f"comma-separated labels; write {flag}=LABELS "
                                  "when the first label starts with '-'")
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covgraph",
        description="Read conditional (in)dependencies off covariance graphs.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("indep", help="independence verdict for a triple")
    _add_common(p, sets=True)
    p.add_argument("--kind", default="covariance",
                   choices=[k.value for k in GraphKind])
    p.set_defaults(func=_cmd_indep)

    p = subs.add_parser("dep", help="dependence verdict with witness path")
    _add_common(p, sets=True)
    p.add_argument("--kind", default="covariance",
                   choices=[k.value for k in UG_READINGS])
    p.set_defaults(func=_cmd_dep)

    p = subs.add_parser("closure", help="all derivable dependencies")
    _add_common(p)
    p.set_defaults(func=_cmd_closure)

    p = subs.add_parser("explain", help="derivation tree for one statement")
    _add_common(p, sets=True)
    p.set_defaults(func=_cmd_explain)

    p = subs.add_parser("verify", help="run verification sweeps")
    p.add_argument("--scope", default="all", choices=list(VERIFY_SCOPES))
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None,
                   help="random graphs (theorems) or Gaussian trials "
                        "(corollaries, all)")
    p.add_argument("--graphs", type=int, default=None,
                   help="random graphs of the theorems sweep under "
                        "--scope all (default 200)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("gaussian", help="sample a model tied to the graph")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=0)
    p.set_defaults(func=_cmd_gaussian)

    p = subs.add_parser("latent", help="latent common-cause DAG of a UG")
    _add_common(p)
    p.set_defaults(func=_cmd_latent)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull, so the flush at
        # exit cannot fail again, and exit as a process killed by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
