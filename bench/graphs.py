"""Graph families of the benchmark and their seeded instances.

A family is a canonical graph: vertex names, s, t and an ordered edge
list.  An instance renames the vertices and shuffles the edge lines,
both from one seeded generator.  Vertices stay declared in the family's
order, which the cycle enumeration's cost depends on.  Edge labels keep
the canonical index (``e<k>``), so an answer recorded on the canonical
graph maps onto any instance; the file order is what the program sees,
and it decides the deletion-contraction pivot.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Family:
    """Canonical graph; ``kind`` names the closed forms that describe it."""

    name: str
    kind: str  # "grid" | "path" | "cycle-ladder" | "rail-ladder" | "fixture"
    size: tuple[int, ...]
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    s: str
    t: str


@dataclass(frozen=True)
class Instance:
    """One graph file: the family, its text, and how it was permuted."""

    family: Family
    key: str
    text: str
    rename: dict  # canonical vertex -> instance vertex
    edge_order: tuple[int, ...]  # canonical edge index of each file line

    def position(self, canonical_edge: int) -> int:
        """File position (the program's edge id) of a canonical edge."""
        return self.edge_order.index(canonical_edge)


def grid(rows: int, cols: int) -> Family:
    """Right and down edges of a rows x cols grid, corner to corner."""
    name = lambda i, j: f"g{i}_{j}"
    vertices = tuple(name(i, j) for i in range(rows) for j in range(cols))
    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((name(i, j), name(i, j + 1)))
            if i + 1 < rows:
                edges.append((name(i, j), name(i + 1, j)))
    return Family(f"grid-{rows}x{cols}", "grid", (rows, cols), vertices,
                  tuple(edges), name(0, 0), name(rows - 1, cols - 1))


def path(length: int) -> Family:
    """A directed path of ``length`` edges from s to t."""
    vertices = tuple(f"p{i}" for i in range(length + 1))
    edges = tuple(zip(vertices, vertices[1:]))
    return Family(f"path-{length}", "path", (length,), vertices, edges,
                  vertices[0], vertices[-1])


def cycle_ladder(rungs: int) -> Family:
    """A path of ``rungs`` steps, each step a 2-cycle: forward edge k is
    canonical edge 2k, its backward twin is 2k + 1."""
    vertices = tuple(f"c{i}" for i in range(rungs + 1))
    edges = []
    for i in range(rungs):
        edges += [(vertices[i], vertices[i + 1]), (vertices[i + 1], vertices[i])]
    return Family(f"cycle-ladder-{rungs}", "cycle-ladder", (rungs,), vertices,
                  tuple(edges), vertices[0], vertices[-1])


def rail_ladder(rungs: int) -> Family:
    """Two directed rails a and b joined by 2-cycle rungs, from a0 to the
    last b vertex: 4 * rungs - 2 edges."""
    a = [f"a{i}" for i in range(rungs)]
    b = [f"b{i}" for i in range(rungs)]
    edges = []
    for i in range(rungs - 1):
        edges += [(a[i], a[i + 1]), (b[i], b[i + 1])]
    for i in range(rungs):
        edges += [(a[i], b[i]), (b[i], a[i])]
    return Family(f"rail-ladder-{rungs}", "rail-ladder", (rungs,),
                  tuple(a + b), tuple(edges), a[0], b[-1])


def worked_example() -> Family:
    """The paper's five-vertex, seven-edge example."""
    return Family("example", "fixture", (), ("s", "p", "q", "r", "t"),
                  (("s", "p"), ("p", "r"), ("r", "t"), ("s", "q"),
                   ("q", "t"), ("q", "p"), ("r", "q")), "s", "t")


def double_cycle() -> Family:
    """Two edge-disjoint 2-cycles between u and v on the way from s to t."""
    return Family("double-cycle", "fixture", (), ("s", "u", "v", "t"),
                  (("s", "u"), ("s", "v"), ("u", "v"), ("v", "u"),
                   ("u", "v"), ("v", "u"), ("u", "t"), ("v", "t")), "s", "t")


def instance(family: Family, rng: random.Random, key: str) -> Instance:
    """Rename the vertices and shuffle the edge lines."""
    fresh = [f"n{i}" for i in range(len(family.vertices))]
    rng.shuffle(fresh)
    rename = dict(zip(family.vertices, fresh))
    order = list(range(len(family.edges)))
    rng.shuffle(order)
    lines = [f"vertex {rename[v]}" for v in family.vertices]
    lines += [f"s {rename[family.s]}", f"t {rename[family.t]}"]
    for k in order:
        u, v = family.edges[k]
        lines.append(f"edge e{k} {rename[u]} {rename[v]}")
    return Instance(family, key, "\n".join(lines) + "\n", rename, tuple(order))
