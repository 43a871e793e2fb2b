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
    vertices: list[str] = []
    declared: set[str] = set()
    edges: list[tuple[str, str]] = []
    labels: list[str] = []
    label_seen: set[str] = set()
    ends = {"s": None, "t": None}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        directive, args = tokens[0], tokens[1:]
        if directive == "vertex":
            if len(args) != 1:
                raise GraphParseError("vertex takes exactly one id", line_no)
            if args[0] in declared:
                raise GraphParseError(f"duplicate vertex {args[0]!r}", line_no)
            declared.add(args[0])
            vertices.append(args[0])
        elif directive in ends:
            if len(args) != 1:
                raise GraphParseError(f"{directive} takes exactly one vertex id", line_no)
            if ends[directive] is not None:
                raise GraphParseError(f"{directive} declared twice", line_no)
            if args[0] not in declared:
                raise GraphParseError(f"undeclared vertex {args[0]!r}", line_no)
            ends[directive] = args[0]
        elif directive == "edge":
            if len(args) != 3:
                raise GraphParseError("edge takes <edge-id> <src> <dst>", line_no)
            eid, src, dst = args
            if eid in label_seen:
                raise GraphParseError(f"duplicate edge id {eid!r}", line_no)
            if src not in declared:
                raise GraphParseError(f"undeclared vertex {src!r}", line_no)
            if dst not in declared:
                raise GraphParseError(f"undeclared vertex {dst!r}", line_no)
            label_seen.add(eid)
            labels.append(eid)
            edges.append((src, dst))
        else:
            raise GraphParseError(f"unknown directive {directive!r}", line_no)

    for end, vertex in ends.items():
        if vertex is None:
            raise GraphParseError(f"missing {end} line")
    return Digraph.build(vertices, edges, ends["s"], ends["t"], labels)


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
