"""Line-oriented text format for graphs.

Grammar, one directive per line; ids are arbitrary non-whitespace tokens,
declared before use.  Blank lines are skipped, and so are comments: a
comment is a whole line whose first non-blank character is ``#`` (a ``#``
after a directive is an argument, not a comment).

    vertex <id>
    s <id>
    t <id>
    edge <edge-id> <src> <dst>

``s`` and ``t`` must each appear exactly once.  Edges receive dense
integer indices in file order; the edge-id tokens become display labels.
Unknown directives, wrong arities, duplicate ids, and undeclared vertices
are rejected with the offending line number.
"""

from __future__ import annotations

from .digraph import Digraph
from .errors import GraphParseError


def parse_graph(text: str) -> Digraph:
    """The graph of a file, checked in one pass over its lines."""
    vertices: dict[str, str] = {}  # each declared id to itself, in file order
    edges: list[tuple[int, str, str]] = []
    labels: dict[str, None] = {}  # edge-id tokens, in file order
    ends = {"s": None, "t": None}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        directive = tokens[0]
        if directive == "edge":
            if len(tokens) != 4:
                raise GraphParseError("edge takes <edge-id> <src> <dst>", line_no)
            _, eid, src, dst = tokens
            if eid in labels:
                raise GraphParseError(f"duplicate edge id {eid!r}", line_no)
            u, v = vertices.get(src), vertices.get(dst)
            if u is None:
                raise GraphParseError(f"undeclared vertex {src!r}", line_no)
            if v is None:
                raise GraphParseError(f"undeclared vertex {dst!r}", line_no)
            labels[eid] = None
            edges.append((len(edges), u, v))
        elif directive[0] == "#":
            continue
        elif directive == "vertex":
            if len(tokens) != 2:
                raise GraphParseError("vertex takes exactly one id", line_no)
            if tokens[1] in vertices:
                raise GraphParseError(f"duplicate vertex {tokens[1]!r}", line_no)
            vertices[tokens[1]] = tokens[1]
        elif directive in ends:
            if len(tokens) != 2:
                raise GraphParseError(f"{directive} takes exactly one vertex id", line_no)
            if ends[directive] is not None:
                raise GraphParseError(f"{directive} declared twice", line_no)
            ends[directive] = vertices.get(tokens[1])
            if ends[directive] is None:
                raise GraphParseError(f"undeclared vertex {tokens[1]!r}", line_no)
        else:
            raise GraphParseError(f"unknown directive {directive!r}", line_no)

    for end, vertex in ends.items():
        if vertex is None:
            raise GraphParseError(f"missing {end} line")
    # Every check of ``Digraph.__init__`` was made above, line by line.
    return Digraph._trusted(tuple(vertices), tuple(edges), ends["s"], ends["t"],
                            tuple(labels))


def format_graph(g: Digraph) -> str:
    """Serialize so that parse_graph reproduces the graph exactly.

    Only graphs whose vertex ids are strings round-trip; the corpus
    generator and all fixtures produce such graphs.
    """
    labels = g.label_map()
    lines = [f"vertex {v}" for v in g.vertices]
    lines.append(f"s {g.s}")
    lines.append(f"t {g.t}")
    for eid, u, v in g.edges:
        lines.append(f"edge {labels[eid]} {u} {v}")
    return "\n".join(lines) + "\n"
