import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from pathcomplexes import cli
from pathcomplexes.cli import COMMANDS, _parse_plain, build_parser, main
from pathcomplexes.digraph import Digraph
from pathcomplexes.errors import GraphParseError
from pathcomplexes.grapes import (BaseCase, ConeWitness, SandwichWitness, Split,
                                  is_combinatorial_grape, is_strong_grape)
from pathcomplexes.graphio import format_graph, parse_graph
from pathcomplexes.pathcomplex import build_pf, build_pm
from pathcomplexes.verify import (CorpusSpec, double_cycle_graph, example_graph,
                                  generate_corpus, parallel_graph, path_graph)

from families import bidirected_grid, grid_graph

ROOT = Path(__file__).resolve().parents[1]

EXAMPLE_FILE = """\
# the worked five-vertex example
vertex s
vertex p
vertex q
vertex r
vertex t
s s
t t
edge a s p
edge b p r
edge c r t
edge d s q
edge e q t
edge f q p
edge g r q
"""


@pytest.fixture
def example_path(tmp_path):
    path = tmp_path / "example.graph"
    path.write_text(EXAMPLE_FILE)
    return str(path)


def write_graph(tmp_path, g, name="g.graph"):
    path = tmp_path / name
    path.write_text(format_graph(g))
    return str(path)


# -- parsing ---------------------------------------------------------------------


def test_parse_example_file():
    g = parse_graph(EXAMPLE_FILE)
    assert g == example_graph()
    assert len(g.vertices) == 5 and len(g.edges) == 7


def test_parse_accepts_self_loop():
    g = parse_graph("vertex s\nvertex t\ns s\nt t\nedge x s s\n")
    assert g.edges == ((0, "s", "s"),)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphParseError) as err:
        parse_graph("vertex s\nvertex s\n")
    assert err.value.line_no == 2
    with pytest.raises(GraphParseError):
        parse_graph("vertex s\ns s\n")  # missing t
    with pytest.raises(GraphParseError):
        parse_graph("vertex a\nfrobnicate a\n")  # unknown directive
    with pytest.raises(GraphParseError):
        parse_graph("vertex s\ns s\nt s\nedge e s x\n")  # undeclared vertex
    with pytest.raises(GraphParseError):
        parse_graph("vertex s\ns s\ns s\nt s\n")  # s twice
    with pytest.raises(GraphParseError):
        parse_graph("vertex s\ns s\nt s\nedge e s s\nedge e s s\n")  # dup edge id


def test_comment_is_a_whole_line():
    assert parse_graph("  # leading blanks\nvertex s\n#\ns s\nt s\n").vertices == ("s",)
    with pytest.raises(GraphParseError) as err:
        parse_graph("vertex s  # source\ns s\nt s\n")
    assert str(err.value) == "line 1: vertex takes exactly one id"


def test_round_trip():
    g = example_graph()
    assert parse_graph(format_graph(g)) == g


# -- subcommands -------------------------------------------------------------------


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_output(capsys, example_path):
    code, out, _ = run(capsys, "analyze", example_path)
    assert code == 0
    assert out == ("cycle: yes\n"
                   "useless-edges: (none)\n"
                   "nonsinks: s p q r\n"
                   "quasi-cycle-packing: 1\n"
                   "min-cut: 2\n"
                   "shortest-path-length: 2\n")


def test_chi_output(capsys, example_path):
    code, out, _ = run(capsys, "chi", example_path, "--complex", "pm")
    assert code == 0 and out == "0 useless-or-cycle even\n"


def test_fpoly_dc_output(capsys, tmp_path):
    path = write_graph(tmp_path, parallel_graph(2))
    code, out, _ = run(capsys, "fpoly", path, "--complex", "pm", "--method", "dc")
    assert code == 0 and out == "1 + 2*x\n"


def test_fpoly_methods_agree(capsys, example_path):
    outputs = []
    for method in ("dc", "brute"):
        for which in ("pm", "pf"):
            code, out, _ = run(capsys, "fpoly", example_path,
                               "--complex", which, "--method", method)
            assert code == 0
            outputs.append((which, out))
    assert outputs[0][1] == outputs[2][1]
    assert outputs[1][1] == outputs[3][1]


def test_homotopy_output(capsys, tmp_path):
    path = write_graph(tmp_path, path_graph(2))
    code, out, _ = run(capsys, "homotopy", path, "--complex", "pf")
    assert code == 0 and out == "sphere 0\n"


def test_facets_output(capsys, example_path):
    code, out, _ = run(capsys, "facets", example_path, "--complex", "pf")
    assert code == 0
    got = {frozenset(line.split()) for line in out.splitlines()}
    want = {frozenset(x) for x in
            ("bcefg", "acefg", "bcdg", "acdfg", "abef", "abdfg")}
    assert got == want


def test_facets_of_faceless_complex(capsys, tmp_path):
    path = write_graph(tmp_path, parallel_graph(1).contract_edge(0))
    code, out, _ = run(capsys, "facets", path, "--complex", "pf")
    assert code == 0 and out == "(no faces)\n"


def test_dual_check(capsys, example_path):
    code, out, _ = run(capsys, "dual-check", example_path)
    assert code == 0 and out == "dual-check: ok\n"


def test_divis_output(capsys, example_path):
    code, out, _ = run(capsys, "divis", example_path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kappa: 1"
    assert lines[1] == "pm-divisible: yes"
    assert lines[3] == "pf-divisible: yes"


def test_grape_certificate(capsys, tmp_path):
    path = write_graph(tmp_path, parallel_graph(2))
    code, out, _ = run(capsys, "grape", path, "--complex", "pm", "--mode", "strong")
    assert code == 0
    assert out.splitlines()[0].startswith("split apex=")
    code, out, _ = run(capsys, "grape", path, "--complex", "pm",
                       "--mode", "combinatorial")
    assert code == 0 and "sandwich=" in out


def test_homology_output(capsys, tmp_path):
    path = write_graph(tmp_path, path_graph(2))
    code, out, _ = run(capsys, "homology", path, "--complex", "pf")
    assert code == 0 and out == "betti: 0:1\n"
    code, out, _ = run(capsys, "homology", path, "--complex", "pm")
    assert code == 0 and out == "betti: -1:1\n"


def test_homology_contractible(capsys, example_path):
    code, out, _ = run(capsys, "homology", example_path, "--complex", "pm")
    assert code == 0 and out == "betti: none\n"


def test_rgen_output(capsys, tmp_path):
    path = write_graph(tmp_path, parallel_graph(3))
    code, out, _ = run(capsys, "rgen", path, "-r", "2", "--complex", "pf")
    assert code == 0 and out == "chi: 2\nfacets: 3\n"


@pytest.mark.parametrize("which, want", [("pm", "chi: 0\nfacets: 0\n"),
                                         ("pf", "chi: 0\nfacets: 1\n")])
def test_rgen_past_the_edge_count(capsys, example_path, which, want):
    # The worked example has 7 edges, so r = 8 already saturates.
    for r in ("8", "1000000000"):
        code, out, _ = run(capsys, "rgen", example_path, "-r", r, "--complex", which)
        assert code == 0 and out == want, r


@pytest.mark.parametrize("argv, digest", [
    ((), "dbde750de1c9c52ee9955f49ff71943e68ba1c689e2dd9e07ad0df7c722b75a0"),
    (("--count", "40", "--max-edges", "14", "--seed", "3"),
     "d88345f28570485a96367324e0cd7af5f7414f06ce13b91cdebc67537eaef259"),
    (("--count", "200", "--max-vertices", "10", "--max-edges", "20", "--seed", "5"),
     "40d4336c61c37990468e7bf6d0ab643d9e4c5eba610ad927f2b8590ae9f73425"),
], ids=["default", "count-40-max-edges-14-seed-3", "count-200-max-edges-20-seed-5"])
def test_verify_stdout_is_pinned(capsys, argv, digest):
    # Every per-check status line is pinned, so a pass that turns into a
    # skip shows here even though the run still reports fail=0.
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_subcommand(capsys):
    code, out, err = run(capsys, "verify", "--count", "3", "--seed", "1",
                         "--max-edges", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("summary graphs=17 ")
    assert "fail=0" in lines[-1]
    assert err == ""


def test_show_round_trips(capsys, example_path):
    code, out, _ = run(capsys, "show", example_path)
    assert code == 0
    assert parse_graph(out) == example_graph()


# -- exit codes ----------------------------------------------------------------------


def test_parse_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("vertex s\nwhatever\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2 and "line 2" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/q.graph")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("ending", [b"\r\n", b"\r", b"mixed"])
def test_line_endings_read_as_lf(capsys, tmp_path, example_path, ending):
    lines = EXAMPLE_FILE.encode().splitlines()
    if ending == b"mixed":
        data = b"".join(line + (b"\n", b"\r\n", b"\r")[i % 3] for i, line in enumerate(lines))
    else:
        data = ending.join(lines) + ending
    path = tmp_path / "ends.graph"
    path.write_bytes(data)
    for command, *options in (["show"], ["chi", "--complex", "pm"], ["chi", "--complex", "pf"]):
        want = run(capsys, command, example_path, *options)
        assert want[0] == 0 and run(capsys, command, str(path), *options) == want


def test_undecodable_file_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.graph"
    path.write_bytes(b"vertex s\n\xff\n")
    code, out, err = run(capsys, "show", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: 'utf-8' codec can't decode")


def test_directory_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "show", str(tmp_path))
    assert (code, out) == (2, "") and "cannot read" in err


def test_byte_order_mark_is_not_skipped(capsys, tmp_path):
    path = tmp_path / "bom.graph"
    path.write_bytes(b"\xef\xbb\xbf" + EXAMPLE_FILE.encode())
    code, out, err = run(capsys, "show", str(path))
    assert (code, out) == (2, "")
    assert err == "error: line 1: unknown directive '\\ufeff#'\n"


def test_resource_guard_exits_3(capsys, monkeypatch, tmp_path):
    def build(*_):
        raise AssertionError("complex built above the grape search limit")
    monkeypatch.setattr(cli, "build_pm", build)
    path = write_graph(tmp_path, parallel_graph(13))
    code, _, err = run(capsys, "grape", path, "--complex", "pm")
    assert code == 3
    assert err == "resource limit: ground size 13 exceeds the grape search limit of 12\n"


def test_analyze_prints_nothing_when_the_packing_guard_trips(capsys, tmp_path):
    path = write_graph(tmp_path, bidirected_grid(4))
    code, out, err = run(capsys, "analyze", path)
    assert code == 3 and out == ""
    assert err == "resource limit: more than 64 cycles exceed the packing limit of 64\n"


# -- long and large graphs, at the default recursion limit -------------------------


def test_long_path_queries(capsys, tmp_path):
    g = path_graph(1500)
    path = write_graph(tmp_path, g)
    assert run(capsys, "chi", path, "--complex", "pm")[:2] == (0, "-1 generic-acyclic odd\n")
    assert run(capsys, "chi", path, "--complex", "pf")[:2] == (0, "1 generic-acyclic odd\n")
    assert run(capsys, "homotopy", path, "--complex", "pm")[:2] == (0, "sphere -1\n")
    assert run(capsys, "homotopy", path, "--complex", "pf")[:2] == (0, "sphere 1498\n")
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert out == ("cycle: no\n"
                   "useless-edges: (none)\n"
                   f"nonsinks: {' '.join(g.vertices[:-1])}\n"
                   "quasi-cycle-packing: 0\n"
                   "min-cut: 1\n"
                   "shortest-path-length: 1500\n")


def test_long_path_with_loop_at_t(capsys, tmp_path):
    g = path_graph(1500)
    g = Digraph(g.vertices, g.edges + ((1500, "t", "t"),), g.s, g.t,
                g.edge_labels + ("loop",))
    code, out, _ = run(capsys, "analyze", write_graph(tmp_path, g))
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["cycle: yes", "useless-edges: loop"]
    assert lines[3:] == ["quasi-cycle-packing: 1", "min-cut: 1",
                         "shortest-path-length: 1500"]


def test_large_grid_analyze(capsys, tmp_path):
    code, out, _ = run(capsys, "analyze", write_graph(tmp_path, grid_graph(30, 30)))
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["cycle: no", "useless-edges: (none)"]
    assert lines[3:] == ["quasi-cycle-packing: 0", "min-cut: 2",
                         "shortest-path-length: 58"]


def cycle_ladder(rungs: int) -> Digraph:
    """c0..c<rungs>, each step a 2-cycle: forward edge f<i>, backward b<i>."""
    names = [f"c{i}" for i in range(rungs + 1)]
    edges, labels = [], []
    for i in range(rungs):
        edges += [(names[i], names[i + 1]), (names[i + 1], names[i])]
        labels += [f"f{i}", f"b{i}"]
    return Digraph.build(names, edges, names[0], names[-1], labels)


def test_cycle_ladder_analyze(capsys, tmp_path):
    # Each rung is a 2-cycle; the only s-t-path runs forward, so every
    # backward edge is useless, and those 20 singletons pack disjointly.
    names = [f"c{i}" for i in range(21)]
    g = cycle_ladder(20)
    code, out, _ = run(capsys, "analyze", write_graph(tmp_path, g))
    assert code == 0
    assert out == ("cycle: yes\n"
                   f"useless-edges: {' '.join(f'b{i}' for i in range(20))}\n"
                   f"nonsinks: {' '.join(names)}\n"
                   "quasi-cycle-packing: 20\n"
                   "min-cut: 1\n"
                   "shortest-path-length: 20\n")


def test_grid_with_loop_analyze(capsys, tmp_path):
    g = grid_graph(12, 12)
    g = Digraph(g.vertices, g.edges + ((len(g.edges), "g5_5", "g5_5"),), g.s, g.t)
    code, out, _ = run(capsys, "analyze", write_graph(tmp_path, g))
    assert code == 0
    assert out == ("cycle: yes\n"
                   f"useless-edges: {len(g.edges) - 1}\n"
                   f"nonsinks: {' '.join(g.vertices[:-1])}\n"
                   "quasi-cycle-packing: 1\n"
                   "min-cut: 2\n"
                   "shortest-path-length: 22\n")


# -- grape certificates ----------------------------------------------------------------


def reference_certificate_lines(node, labels, indent=0):
    """The certificate printout by a plain tree walk: a shared subtree is
    formatted again at every occurrence."""
    pad = "  " * indent

    def name(x):
        return labels.get(x, str(x))

    if isinstance(node, BaseCase):
        return [f"{pad}base {{{' '.join(name(x) for x in node.ground)}}}"]
    side = node.side_condition
    if isinstance(side, ConeWitness):
        cond = f"cone={side.side} cone-apex={name(side.apex)}"
    else:
        assert isinstance(side, SandwichWitness)
        cond = f"sandwich={name(side.element)}"
        if side.vacuous:
            cond += " vacuous"
    lines = [f"{pad}split apex={name(node.apex)} {cond}"]
    lines += reference_certificate_lines(node.link_child, labels, indent + 1)
    lines += reference_certificate_lines(node.deletion_child, labels, indent + 1)
    return lines


def grape_stdout(capsys, path, which, mode):
    code, out, err = run(capsys, "grape", path, "--complex", which, "--mode", mode)
    assert (code, err) == (0, "")
    return out


def test_grape_stdout_matches_tree_walk(capsys, tmp_path):
    graphs = [example_graph(), double_cycle_graph(), grid_graph(3, 3), cycle_ladder(6)]
    graphs += generate_corpus(CorpusSpec(graph_count=40, max_vertices=6, max_edges=12, seed=19))
    splits = 0
    for g in graphs:
        assert len(g.edges) <= 12
        path = write_graph(tmp_path, g)
        for which, mode in itertools.product(("pm", "pf"), ("strong", "combinatorial")):
            c = build_pm(g) if which == "pm" else build_pf(g)
            cert = (is_strong_grape if mode == "strong" else is_combinatorial_grape)(c)
            want = ("not-a-grape" if cert is None else
                    "\n".join(reference_certificate_lines(cert, g.label_map())))
            assert grape_stdout(capsys, path, which, mode) == want + "\n", (g, which, mode)
            splits += isinstance(cert, Split)
    assert splits > 100


@pytest.mark.parametrize("which, mode, digest", [
    ("pm", "strong", "9cce835b534a2122c045d94b880d9925112eaae4c3c55e7810d3347a4edf2a6b"),
    ("pm", "combinatorial", "0f22cfa37aea1832da1513c230c88e14db58b6f6770a896845ddd3a37585d328"),
    ("pf", "strong", "f4188fcdca2bb364598f140f275bc4aeba74b323657abcb9fac37bc7c5ee30a3"),
    ("pf", "combinatorial", "5620b8aa3984fb86a6b99268596d625d29305e645aa9835415a5f9d5c8873536"),
])
def test_grid_grape_stdout_is_pinned(capsys, tmp_path, which, mode, digest):
    # The 12-edge 3x3 grid prints a full binary tree of 4,095 lines.
    out = grape_stdout(capsys, write_graph(tmp_path, grid_graph(3, 3)), which, mode)
    assert out.count("\n") == 4095
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_certificate_formats_each_shared_block_once():
    # The search memo shares subtrees, so the 3x3 grid's certificate is a
    # DAG with far more paths than distinct (node, depth) pairs.  Every
    # label is looked up while a block is built, so the lookups count the
    # blocks built: a split names its apex and its witness, a base case
    # each ground element.
    g = grid_graph(3, 3)
    cert = is_combinatorial_grape(build_pm(g))
    paths, blocks = 0, {}

    def walk(node, indent):
        nonlocal paths
        paths += 1
        blocks[id(node), indent] = len(node.ground) if isinstance(node, BaseCase) else 2
        if isinstance(node, Split):
            walk(node.link_child, indent + 1)
            walk(node.deletion_child, indent + 1)

    walk(cert, 0)
    assert paths > 10 * len(blocks)

    lookups = 0

    class CountingLabels(dict):
        def get(self, key, default=None):
            nonlocal lookups
            lookups += 1
            return super().get(key, default)

    text = cli._format_certificate(cert, CountingLabels(g.label_map()))
    assert text == "\n".join(reference_certificate_lines(cert, g.label_map()))
    assert lookups == sum(blocks.values())


def test_closed_stdout_exits_1_silently(tmp_path):
    # The 3x3 grid's certificate (170 KB) outgrows a 64 KB pipe buffer, so
    # the write fails once the reader has gone; chi's one line fails at
    # main's flush when the reader is gone before the process starts.  The
    # child's stdout is block-buffered, as a console script's pipe is.
    path = write_graph(tmp_path, grid_graph(3, 3))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    entry = [sys.executable, "-c",
             "import sys; from pathcomplexes.cli import main; sys.exit(main())"]
    proc = subprocess.Popen(entry + ["grape", path, "--complex", "pm"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"split apex=0 cone=link cone-apex=2\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")

    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(entry + ["chi", path, "--complex", "pm"], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["fpoly"])  # missing required arguments
    assert err.value.code == 2


@pytest.mark.parametrize("exc", [RecursionError("maximum recursion depth exceeded"),
                                 MemoryError()])
def test_exhausted_stack_or_memory_exits_3(capsys, monkeypatch, example_path, exc):
    def parse_graph(text):
        raise exc
    monkeypatch.setattr(cli, "parse_graph", parse_graph)
    code, out, err = run(capsys, "fpoly", example_path, "--complex", "pm")
    assert (code, out) == (3, "")
    assert err == f"resource limit: {str(exc) or type(exc).__name__}\n"


def test_internal_error_exits_4_with_traceback(capsys, monkeypatch, example_path):
    def parse_graph(text):
        raise KeyError("boom")
    monkeypatch.setattr(cli, "parse_graph", parse_graph)
    code, out, err = run(capsys, "analyze", example_path)
    assert (code, out) == (4, "")
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("\ninternal error: KeyError: 'boom'\n")


def test_console_entry_point_exit_codes(tmp_path):
    # A real process: argv comes from sys.argv and the code from sys.exit.
    graph = tmp_path / "example.graph"
    graph.write_text(EXAMPLE_FILE)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def entry(*argv):
        return subprocess.run(
            [sys.executable, "-c",
             "import sys; from pathcomplexes.cli import main; sys.exit(main())", *argv],
            capture_output=True, text=True, env=env, timeout=60)

    proc = entry("fpoly", str(graph), "--complex", "pm")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "1 + 7*x + 17*x^2 + 16*x^3 + 6*x^4 + 1*x^5\n", "")
    proc = entry("--help")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: pathcomplexes")
    proc = entry("fpoly")
    assert proc.returncode == 2 and "required: file, --complex" in proc.stderr


# -- the plain-argv fast path against argparse ---------------------------------------


PARSER = build_parser()


def argparse_namespace(argv):
    """argparse's namespace for ``argv``, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return PARSER.parse_args(argv)
        except SystemExit:
            return None


def assert_plain_agrees(argv):
    fast = _parse_plain(list(argv))
    if fast is not None:
        assert fast == argparse_namespace(list(argv)), argv
    return fast


def token_variants(flag, keywords):
    """The plain tokens of one argument, then variants of them."""
    if not flag.startswith("-"):
        return [["g.graph"], ["-g.graph"], ["--", "g.graph"], [""], ["a=b"]]
    good = keywords["choices"][-1] if "choices" in keywords else "3"
    bad = "xx" if "choices" in keywords else "x"
    variants = [[flag, good], [f"{flag}={good}"], [flag], [flag, bad], [flag, "-1"],
                [flag, good, flag, good], [flag, "--", good], [flag, " 7"], [flag, "+2"]]
    if flag.startswith("--"):
        variants.append([flag[:-2], good])
    return variants


def test_plain_parse_agrees_with_argparse():
    accepted = 0
    rng = random.Random(8)
    for name, (_, _, arguments) in COMMANDS.items():
        units = [token_variants(flag, kw) for flag, kw in arguments]
        for order in itertools.permutations(range(len(units))):
            plain = [units[i][0] for i in order]
            argv = [name] + [t for unit in plain for t in unit]
            assert assert_plain_agrees(argv) is not None, argv
            accepted += 1
            for k in range(len(order)):
                for variant in units[order[k]][1:] + [[], ["extra"]]:
                    mixed = plain[:k] + [variant] + plain[k + 1:]
                    accepted += assert_plain_agrees(
                        [name] + [t for unit in mixed for t in unit]) is not None
            for _ in range(100):
                mixed = [rng.choice(units[i] + [[]]) for i in order]
                accepted += assert_plain_agrees(
                    [name] + [t for unit in mixed for t in unit]) is not None
            assert_plain_agrees(argv[:-1])
            assert_plain_agrees(argv + ["extra"])
            assert_plain_agrees(["-h"] + argv)
    for argv in ([], ["frobnicate"], ["--help"], ["fpolyx", "g.graph", "--complex", "pm"]):
        assert _parse_plain(argv) is None and argparse_namespace(argv) is None
    assert accepted > 500


def readme_usage_forms():
    """Every argv the README's command-line block spells out, with each
    ``a|b`` alternative taken and placeholders filled in."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    forms = []
    for line in block.strip().splitlines():
        words = line.replace("[", "").replace("]", "").split()[1:]
        argv, expect_value = words[:1], False
        for word in words[1:]:
            if not (expect_value or word.startswith(("<", "-"))):
                break  # the description column
            argv.append(word)
            expect_value = word.startswith("-")
        choices = [["g.graph"] if w == "<file>" else
                   ["3"] if w.startswith("<") or w.isupper() else w.split("|")
                   for w in argv]
        forms += [list(picked) for picked in itertools.product(*choices)]
    return forms


def test_plain_parse_takes_documented_and_benchmarked_forms(monkeypatch):
    forms = readme_usage_forms()
    assert {f[0] for f in forms} == set(COMMANDS) and len(forms) == 23
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    forms += [[cmd, "g.graph", *opts] for plan in workloads.PLANS.values()
              for _, commands in plan for cmd, *opts in commands]
    for argv in forms:
        assert assert_plain_agrees(argv) is not None, argv


def test_commands_run_with_start_up_objects_frozen(capsys, example_path, monkeypatch):
    # The collections a command triggers skip the objects that were alive
    # when it started; main unfreezes them on every exit path.
    frozen = []
    real = cli.chi_pm_closed

    def spy(g):
        frozen.append(gc.get_freeze_count())
        return real(g)

    monkeypatch.setattr(cli, "chi_pm_closed", spy)
    assert run(capsys, "chi", example_path, "--complex", "pm")[0] == 0
    assert frozen and frozen[0] > 1000 and gc.get_freeze_count() == 0
    assert run(capsys, "chi", example_path + ".missing", "--complex", "pm")[0] == 2
    assert gc.get_freeze_count() == 0


def test_callers_freeze_is_left_as_found(capsys, example_path):
    gc.freeze()
    try:
        before = gc.get_freeze_count()
        assert before > 1000
        assert run(capsys, "chi", example_path, "--complex", "pm")[0] == 0
        assert gc.get_freeze_count() == before
        assert run(capsys, "chi", example_path + ".missing", "--complex", "pm")[0] == 2
        assert gc.get_freeze_count() == before
    finally:
        gc.unfreeze()


def test_deterministic_output(capsys, example_path):
    first = run(capsys, "facets", example_path, "--complex", "pm")
    second = run(capsys, "facets", example_path, "--complex", "pm")
    assert first == second
