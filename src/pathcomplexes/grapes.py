"""Recursive recognition of strong and combinatorial grapes.

Both classes are defined by peeling one ground element a at a time: the
link and the deletion at a must again be grapes, plus a side condition.
For strong grapes at least one of link/deletion must be a cone; for
combinatorial grapes some cone must sit between them.  Recognition
returns a certificate tree that replay re-checks: a sandwich at b needs
L - b inside lk_D(b), for the closed link L and the deletion D.

Search, replay and the source-apex walk never build a smaller complex: a
node is (free, table), the mask of the top ground positions still present
and a face table in the top complex's 2^n layout.  At position i, of
pattern P[i], the link is ``(table & P[i]) >> 2^i`` and the deletion
``table & ~P[i]``; positions are tried in ground order.  On a digraph's
complexes the walk peels the edges out of s and tracks the set S of
vertices contracted into s instead of building graph minors, and tells a
useless edge out of S by the cone test on the node's table.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .digraph import Digraph
from .errors import ResourceLimitError
from .simplicial import SimplicialComplex, _is_cone, _patterns

GRAPE_GROUND_LIMIT = 12


class BaseCase(NamedTuple):
    """Ground set of size at most one; a grape unconditionally."""

    ground: tuple[int, ...]


class ConeWitness(NamedTuple):
    """Which of the two children is a cone, and a working apex for it."""

    side: str  # "link" | "deletion"
    apex: int


class SandwichWitness(NamedTuple):
    """Element b with F ∪ {b} in the deletion for every link face F.

    Adding b to every link face builds a cone with apex b that sits
    between the link and the deletion, and conversely the apex of any
    such cone passes this test, so the finite test is exact.  ``vacuous``
    marks the degenerate pass where the link has no faces at all.
    """

    element: int
    vacuous: bool = False


class Split(NamedTuple):
    apex: int
    link_child: "GrapeNode"
    deletion_child: "GrapeNode"
    side_condition: Union[ConeWitness, SandwichWitness]


GrapeNode = Union[BaseCase, Split]
GrapeCertificate = GrapeNode


def _check_ground(n: int):
    if n > GRAPE_GROUND_LIMIT:
        raise ResourceLimitError(
            f"ground size {n} exceeds the grape search limit of {GRAPE_GROUND_LIMIT}")


def _split(table: int, i: int, p: int) -> tuple[int, int]:
    """The link and the deletion of ``table`` at position i, of pattern p."""
    return (table & p) >> (1 << i), table & ~p


def _cone(ground, pats, free: int, link: int, deletion: int) -> Optional[ConeWitness]:
    """First cone apex in ``free`` on either child, link side preferred."""
    for side, table in (("link", link), ("deletion", deletion)):
        for j, p in enumerate(pats):
            if free >> j & 1 and _is_cone(table, j, p):
                return ConeWitness(side, ground[j])
    return None


def _sandwich(ground, pats, free: int, link: int, deletion: int) -> Optional[SandwichWitness]:
    """First b in ``free`` with every link face plus b a deletion face."""
    for j, p in enumerate(pats):
        if free >> j & 1 and not (link | link << (1 << j)) & p & ~deletion:
            return SandwichWitness(ground[j], vacuous=not link)
    return None


def _base(ground, free: int) -> BaseCase:
    """The base case on the at most one position in ``free``."""
    return BaseCase(ground[free.bit_length() - 1:free.bit_length()])


def _searcher(ground: tuple, side_test):
    """The memoized search from a node of the complex on ``ground``."""
    pats, memo = _patterns(len(ground)), {}

    def search(free: int, table: int) -> Optional[GrapeNode]:
        key = (free, table)
        if key in memo:
            return memo[key]
        node: Optional[GrapeNode] = None
        if not free & free - 1:
            node = _base(ground, free)
        else:
            for i, p in enumerate(pats):
                if not free >> i & 1:
                    continue
                rest = free ^ 1 << i
                link, deletion = _split(table, i, p)
                side = side_test(ground, pats, rest, link, deletion)
                if side is None:
                    continue
                link_child = search(rest, link)
                if link_child is None:
                    continue
                deletion_child = search(rest, deletion)
                if deletion_child is None:
                    continue
                node = Split(ground[i], link_child, deletion_child, side)
                break
        memo[key] = node
        return node

    return search


def is_strong_grape(c: SimplicialComplex) -> Optional[GrapeCertificate]:
    """Certificate that c is a strong grape, or None after exhaustive search.

    Apexes are tried in ground order; results are memoized on the node
    for the duration of one call.
    """
    _check_ground(len(c.ground))
    return _searcher(c.ground, _cone)((1 << len(c.ground)) - 1, c.table)


def is_combinatorial_grape(c: SimplicialComplex) -> Optional[GrapeCertificate]:
    """Certificate that c is a combinatorial grape, or None."""
    _check_ground(len(c.ground))
    return _searcher(c.ground, _sandwich)((1 << len(c.ground)) - 1, c.table)


def replay_certificate(cert: GrapeNode, c: SimplicialComplex) -> bool:
    """Re-verify every step of a certificate against the complex; a subtree
    that the search memo shares is replayed once per node, keyed on its id."""
    ground = c.ground
    pats, index, memo = _patterns(len(ground)), {x: i for i, x in enumerate(ground)}, {}

    def replay(cert: GrapeNode, free: int, table: int) -> bool:
        if isinstance(cert, BaseCase):
            return not free & free - 1 and cert.ground == _base(ground, free).ground
        i = index.get(cert.apex, -1) if isinstance(cert, Split) else -1
        if i < 0 or not free >> i & 1:
            return False
        key = (id(cert), free, table)
        if key not in memo:
            rest = free ^ 1 << i
            link, deletion = _split(table, i, pats[i])
            side = cert.side_condition
            if isinstance(side, ConeWitness):
                j = index.get(side.apex, -1)
                ok = j >= 0 and rest >> j & 1 and _is_cone(
                    link if side.side == "link" else deletion, j, pats[j])
            elif isinstance(side, SandwichWitness):
                # The link's deletion at b inside the deletion's link at b.
                j = index.get(side.element, -1)
                ok = (j >= 0 and rest >> j & 1
                      and not link & ~pats[j] & ~((deletion & pats[j]) >> (1 << j))
                      and side.vacuous == (not link))
            else:
                ok = False
            memo[key] = bool(ok) and replay(cert.link_child, rest, link) \
                and replay(cert.deletion_child, rest, deletion)
        return memo[key]

    return replay(cert, (1 << len(ground)) - 1, c.table)


# -- graph-guided certificates ------------------------------------------------------


def source_apex_strong_certificate(g: Digraph, c: SimplicialComplex,
                                   which: str) -> Optional[GrapeNode]:
    """Strong-grape certificate of c, the ``which`` ("pm" or "pf") complex
    of g, whose apex, whenever the graph offers a non-useless edge out of
    s, is the first such edge in ``g.edges``, the order edge masks and the
    complex's ground share.

    The link and the deletion at an edge e out of s are the complexes of
    the edge-deleted and edge-contracted graphs, so the walk's node is
    (free, table, S): deleting e keeps S, contracting e adds e's head.  An
    edge on no simple s-t-path is a cone apex of both complexes; an edge on
    one, P, is not, as adding it leaves the faces P - e (path-free) and
    E - P (path-missing).  So the pivot is the first edge in ``free`` out
    of S whose cone test fails; nodes with none (s = t, or no s-t-path at
    all) fall back to the unrestricted search.
    """
    _check_ground(len(c.ground))
    if c.ground != g.edge_ids:
        raise ValueError("the complex's ground is not the graph's edge ids in order")
    ground, pats = c.ground, _patterns(len(c.ground))
    search, memo = _searcher(ground, _cone), {}

    def walk(free: int, table: int, merged: frozenset) -> Optional[GrapeNode]:
        key = (free, table, merged)
        if key in memo:
            return memo[key]
        i = next((i for i, (_, u, _) in enumerate(g.edges) if free >> i & 1 and u in merged
                  and not _is_cone(table, i, pats[i])), None) if free & free - 1 else None
        node = None
        if i is None:
            node = search(free, table)
        else:
            rest, (link, deletion) = free ^ 1 << i, _split(table, i, pats[i])
            side = _cone(ground, pats, rest, link, deletion)
            joined = merged | {g.edges[i][2]}
            link_merged, deletion_merged = (merged, joined) if which == "pm" else (joined, merged)
            link_child = side and walk(rest, link, link_merged)
            deletion_child = link_child and walk(rest, deletion, deletion_merged)
            if deletion_child:
                node = Split(ground[i], link_child, deletion_child, side)
        memo[key] = node
        return node

    return walk((1 << len(ground)) - 1, c.table, frozenset((g.s,)))
