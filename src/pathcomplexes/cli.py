"""Command-line interface.

Exit codes: 0 success, 1 check failure or stdout closed early, 2 usage
or parse error, 3 resource guard tripped or recursion or memory
exhausted, 4 internal error (its traceback goes to stderr).  All output
is deterministic: facets, edge lists and certificates are ordered by
edge index, never by hash order.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .digraph import Digraph
from .errors import GraphParseError, ResourceLimitError
from .graphio import format_graph, parse_graph
from .grapes import (BaseCase, ConeWitness, GrapeNode, SandwichWitness,
                     _check_ground, is_combinatorial_grape, is_strong_grape)
from .pathcomplex import (build_pf, build_pf_r, build_pm, build_pm_r,
                          check_divisibility, chi_pf_closed, chi_pm_closed,
                          fpoly_pf_dc, fpoly_pm_dc, homotopy_pf, homotopy_pm)
from .verify import CorpusSpec, verify_corpus


def _load_graph(path: str) -> Digraph:
    # Bytes: a fifth of a pathlib text read, and splitlines() takes any line end.
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise GraphParseError(f"cannot read {path}: {exc.strerror}")
    return parse_graph(data.decode("utf-8"))


def _build(g: Digraph, which: str):
    return build_pm(g) if which == "pm" else build_pf(g)


def _edge_names(labels: dict[int, str], edge_ids) -> str:
    return " ".join(labels[e] for e in sorted(edge_ids))


def _cmd_analyze(args) -> int:
    g = _load_graph(args.file)
    # Every answer first, so a tripped guard leaves stdout empty.
    cycle = g.find_cycle()
    useless = g.useless_edges()
    nonsinks = g.nonsinks()
    packing, _ = g.max_disjoint_quasi_cycles()
    cut = "n/a" if g.s == g.t else g.min_st_cutset_size()
    shortest = g.shortest_st_path_length()
    ordered = [str(v) for v in g.vertices if v in nonsinks]
    print(f"cycle: {'yes' if cycle is not None else 'no'}\n"
          f"useless-edges: {_edge_names(g.label_map(), useless) if useless else '(none)'}\n"
          f"nonsinks: {' '.join(ordered) if ordered else '(none)'}\n"
          f"quasi-cycle-packing: {packing}\n"
          f"min-cut: {cut}\n"
          f"shortest-path-length: {'none' if shortest is None else shortest}")
    return 0


def _cmd_fpoly(args) -> int:
    g = _load_graph(args.file)
    if args.method == "dc":
        poly = fpoly_pm_dc(g) if args.complex == "pm" else fpoly_pf_dc(g)
    else:
        poly = _build(g, args.complex).f_polynomial()
    print(poly.pretty())
    return 0


def _cmd_chi(args) -> int:
    g = _load_graph(args.file)
    report = chi_pm_closed(g) if args.complex == "pm" else chi_pf_closed(g)
    print(f"{report.value} {report.case_tag} {report.parity}")
    return 0


def _cmd_homotopy(args) -> int:
    g = _load_graph(args.file)
    cls = homotopy_pm(g) if args.complex == "pm" else homotopy_pf(g)
    print(cls.describe())
    return 0


def _cmd_facets(args) -> int:
    g = _load_graph(args.file)
    c = _build(g, args.complex)
    facets = c.facets()
    if not facets:
        print("(no faces)")
        return 0
    labels = g.label_map()
    for facet in facets:
        print(_edge_names(labels, facet) if facet else "(empty)")
    return 0


def _cmd_dual_check(args) -> int:
    g = _load_graph(args.file)
    ok = build_pf(g).alexander_dual() == build_pm(g)
    print("dual-check: ok" if ok else "dual-check: FAILED")
    return 0 if ok else 1


def _cmd_divis(args) -> int:
    g = _load_graph(args.file)
    report = check_divisibility(g)
    print(f"kappa: {report.kappa}")
    print(f"pm-divisible: {'yes' if report.pm_ok else 'no'}")
    print(f"pm-remainder: {report.pm_remainder.pretty()}")
    print(f"pf-divisible: {'yes' if report.pf_ok else 'no'}")
    print(f"pf-remainder: {report.pf_remainder.pretty()}")
    return 0


def _format_certificate(cert: GrapeNode, labels: dict[int, str]) -> str:
    """The certificate as lines without a trailing newline, one node per
    line, indented two spaces per level, link child before deletion child.

    The search memo shares subtrees, so the certificate is a DAG; the
    printout still repeats a shared subtree in full wherever it occurs.
    Each distinct (node, depth) block is formatted once, keyed on the
    node's id as ``grapes.replay_certificate`` keys its memo, and reused
    by every occurrence.
    """
    def name(x: int) -> str:
        return labels.get(x, str(x))

    memo: dict[tuple[int, int], str] = {}

    def block(node: GrapeNode, indent: int) -> str:
        key = (id(node), indent)
        if key not in memo:
            pad = "  " * indent
            if isinstance(node, BaseCase):
                text = f"{pad}base {{{' '.join(name(x) for x in node.ground)}}}"
            else:
                side = node.side_condition
                if isinstance(side, ConeWitness):
                    cond = f"cone={side.side} cone-apex={name(side.apex)}"
                else:
                    assert isinstance(side, SandwichWitness)
                    cond = f"sandwich={name(side.element)}"
                    if side.vacuous:
                        cond += " vacuous"
                text = "\n".join((f"{pad}split apex={name(node.apex)} {cond}",
                                  block(node.link_child, indent + 1),
                                  block(node.deletion_child, indent + 1)))
            memo[key] = text
        return memo[key]

    return block(cert, 0)


def _cmd_grape(args) -> int:
    g = _load_graph(args.file)
    _check_ground(len(g.edges))  # before the 2^|E| build
    recognize = is_strong_grape if args.mode == "strong" else is_combinatorial_grape
    cert = recognize(_build(g, args.complex))
    print("not-a-grape" if cert is None else _format_certificate(cert, g.label_map()))
    return 0


def _cmd_homology(args) -> int:
    g = _load_graph(args.file)
    betti = _build(g, args.complex).gf2_reduced_betti()
    if not betti.entries:
        print("betti: none")
    else:
        print("betti: " + " ".join(f"{d}:{b}" for d, b in betti.entries))
    return 0


def _cmd_rgen(args) -> int:
    g = _load_graph(args.file)
    build = build_pm_r if args.complex == "pm" else build_pf_r
    c = build(g, args.r)
    print(f"chi: {c.reduced_euler_characteristic()}")
    print(f"facets: {len(c.facets())}")
    return 0


def _cmd_verify(args) -> int:
    spec = CorpusSpec(graph_count=args.count, max_vertices=args.max_vertices,
                      max_edges=args.max_edges, seed=args.seed)
    report = verify_corpus(spec)
    for line in report.to_lines():
        print(line)
    for block in report.failure_payloads():
        print(block, file=sys.stderr)
    return 1 if report.counts()["fail"] else 0


def _cmd_show(args) -> int:
    # Round-trips a graph file; handy for checking what the parser saw.
    print(format_graph(_load_graph(args.file)), end="")
    return 0


_FILE = ("file", {})
_COMPLEX = ("--complex", {"choices": ("pm", "pf"), "required": True})

# name -> (handler, help, arguments as (flag, argparse keywords)), in the
# order argparse lists them.
COMMANDS = {
    "analyze": (_cmd_analyze, "structural summary of the graph", [_FILE]),
    "fpoly": (_cmd_fpoly, "f-polynomial of a complex",
              [_FILE, _COMPLEX, ("--method", {"choices": ("dc", "brute"), "default": "dc"})]),
    "chi": (_cmd_chi, "closed-form reduced Euler characteristic", [_FILE, _COMPLEX]),
    "homotopy": (_cmd_homotopy, "empty/contractible/sphere classification",
                 [_FILE, _COMPLEX]),
    "facets": (_cmd_facets, "maximal faces, one per line", [_FILE, _COMPLEX]),
    "dual-check": (_cmd_dual_check, "confirm the two complexes are Alexander duals",
                   [_FILE]),
    "divis": (_cmd_divis, "divisibility of both f-polynomials by (1+x)^kappa", [_FILE]),
    "grape": (_cmd_grape, "grape certificate or not-a-grape",
              [_FILE, _COMPLEX,
               ("--mode", {"choices": ("strong", "combinatorial"), "default": "strong"})]),
    "homology": (_cmd_homology, "reduced Betti numbers over GF(2)", [_FILE, _COMPLEX]),
    "rgen": (_cmd_rgen, "r-edge-disjoint generalized complex",
             [_FILE, ("-r", {"type": int, "required": True}), _COMPLEX]),
    "verify": (_cmd_verify, "run the check harness over a corpus",
               [("--count", {"type": int, "default": 200}),
                ("--seed", {"type": int, "default": 1}),
                ("--max-edges", {"type": int, "default": 8}),
                ("--max-vertices", {"type": int, "default": 6})]),
    "show": (_cmd_show, "parse and re-serialize a graph file", [_FILE]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathcomplexes",
        description="Path-free and path-missing complexes of a directed graph.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
    return parser


def _parse_plain(argv: list[str]) -> argparse.Namespace | None:
    """Parse the plain form of a command line without building argparse's
    parser, which costs more than most commands take.

    The plain form is a command, then positionals and exact option names
    each followed by one value, where no positional or value starts with
    ``-`` and no option repeats.  Returns None for anything else,
    including input argparse would reject, so that argparse parses it or
    prints its usage error; where it returns a namespace, argparse
    returns an equal one.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    fn, _, arguments = COMMANDS[argv[0]]
    options = {flag: keywords for flag, keywords in arguments if flag.startswith("-")}
    positionals = [flag for flag, _ in arguments if flag not in options]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if not positionals:
                return None
            given[positionals.pop(0)] = token
            continue
        keywords = options.get(token)
        value = next(tokens, "-")
        if keywords is None or token in given or value.startswith("-"):
            return None
        try:
            given[token] = keywords.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in keywords and given[token] not in keywords["choices"]:
            return None
    if positionals:
        return None
    args = argparse.Namespace(command=argv[0], fn=fn)
    for flag, keywords in arguments:
        if flag not in given and keywords.get("required"):
            return None
        setattr(args, flag.lstrip("-").replace("-", "_"), given.get(flag, keywords.get("default")))
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv) or build_parser().parse_args(argv)
    # Start-up objects outlive the command: keep its collections off them.
    # A caller that froze objects itself keeps its own freeze as it was.
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed stdout shows up here, not at exit
        return code
    except ValueError as exc:  # GraphParseError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimitError, RecursionError, MemoryError) as exc:
        print(f"resource limit: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed stdout early (`| head`).  Point fd 1 at devnull,
        # as Python's signal docs advise, so the final flush stays silent.
        import os
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except Exception as exc:
        import traceback  # here, so that commands that succeed skip the import
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    finally:
        if freeze:
            gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
