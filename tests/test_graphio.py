"""The graph file parser against pinned error messages and round trips."""

import random

import pytest

from pathcomplexes.errors import GraphParseError
from pathcomplexes.graphio import format_graph, parse_graph

HEAD = "vertex s\nvertex t\ns s\nt t\n"

# (file text, exact str() of the error, its line_no)
BAD_FILES = [
    ("vertex\n", "line 1: vertex takes exactly one id", 1),
    ("vertex a b\n", "line 1: vertex takes exactly one id", 1),
    ("vertex s\n\nvertex s\n", "line 3: duplicate vertex 's'", 3),
    ("vertex s\ns\n", "line 2: s takes exactly one vertex id", 2),
    ("vertex s\nt s s\n", "line 2: t takes exactly one vertex id", 2),
    ("vertex s\ns s\ns s\n", "line 3: s declared twice", 3),
    ("vertex s\nt s\n# c\nt s\n", "line 4: t declared twice", 4),
    ("vertex s\ns x\n", "line 2: undeclared vertex 'x'", 2),
    ("t y\nvertex y\n", "line 1: undeclared vertex 'y'", 1),
    (HEAD + "edge e s\n", "line 5: edge takes <edge-id> <src> <dst>", 5),
    (HEAD + "edge e s t t\n", "line 5: edge takes <edge-id> <src> <dst>", 5),
    (HEAD + "edge e s t\n  \nedge e t s\n", "line 7: duplicate edge id 'e'", 7),
    (HEAD + "edge e x t\n", "line 5: undeclared vertex 'x'", 5),
    (HEAD + "edge e s y\n", "line 5: undeclared vertex 'y'", 5),
    (HEAD + "edge e x y\n", "line 5: undeclared vertex 'x'", 5),
    (HEAD + "edge e s x\nedge e s y\n", "line 5: undeclared vertex 'x'", 5),
    ("vertex a\nfrobnicate a\n", "line 2: unknown directive 'frobnicate'", 2),
    ("vertex a\nEdge e a a\n", "line 2: unknown directive 'Edge'", 2),
    ("vertex a\nvertex a # c\n", "line 2: vertex takes exactly one id", 2),
    ("vertex s\nt s\n", "missing s line", 0),
    ("vertex s\ns s\n", "missing t line", 0),
    ("", "missing s line", 0),
]


@pytest.mark.parametrize("text, message, line_no", BAD_FILES)
def test_parse_error_message_and_line(text, message, line_no):
    with pytest.raises(GraphParseError) as err:
        parse_graph(text)
    assert str(err.value) == message
    assert err.value.line_no == line_no


def grid_lines(rows, cols):
    v = lambda i, j: f"#g{i}_{j}"
    vertices = [v(i, j) for i in range(rows) for j in range(cols)]
    pairs = [(v(i, j), v(i + di, j + dj)) for i in range(rows) for j in range(cols)
             for di, dj in ((0, 1), (1, 0)) if i + di < rows and j + dj < cols]
    return vertices, vertices[0], vertices[-1], pairs


def path_lines(length):
    vertices = [f"p{i}" for i in range(length + 1)]
    return vertices, vertices[0], vertices[-1], list(zip(vertices, vertices[1:]))


def ladder_lines(rungs):
    vertices = [f"#{i}" for i in range(rungs + 1)]
    pairs = [p for a, b in zip(vertices, vertices[1:]) for p in ((a, b), (b, a))]
    return vertices, vertices[0], vertices[-1], pairs + [(vertices[0], vertices[0])]


def noisy_text(vertices, s, t, pairs, rng):
    """A file of the graph with its vertex and edge lines shuffled, mixed
    blanks and tabs, CRLF line ends, blank lines and comments; returns the
    text and the vertex and (label, src, dst) lines in file order."""
    vertices = rng.sample(vertices, len(vertices))
    edges = [(f"#e{k}", a, b) for k, (a, b) in enumerate(pairs)]
    rng.shuffle(edges)
    gaps, indents = [" ", "\t", " \t "], ["", " ", "\t"]
    lines = ["vertex" + rng.choice(gaps) + v for v in vertices]
    lines += [f"\ts {s}  ", f"t\t{t}"]
    lines += [rng.choice(indents) + f"edge {e}" + rng.choice(gaps) + f"{a} {b}"
              for e, a, b in edges]
    for _ in range(len(lines) // 3):
        at = rng.randrange(len(lines) + 1)
        lines.insert(at, rng.choice(["", "   ", "\t", "# note", "  \t# edge x y z",
                                     "#vertex s"]))
    ends = [rng.choice(["\n", "\r\n"]) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends)), vertices, edges


@pytest.mark.parametrize("family", [grid_lines(4, 5), path_lines(60), ladder_lines(9)])
def test_noisy_files_round_trip(family):
    rng = random.Random(7)
    for _ in range(5):
        text, vertices, edges = noisy_text(*family, rng)
        g = parse_graph(text)
        assert parse_graph(format_graph(g)) == g
        assert g.vertices == tuple(vertices) and (g.s, g.t) == family[1:3]
        assert g.edge_ids == tuple(range(len(edges)))
        labels = g.label_map()
        assert [(labels[eid], u, v) for eid, u, v in g.edges] == edges
