"""Recursive recognition of strong and combinatorial grapes.

Both classes are defined by peeling one ground element a at a time: the
link and the deletion at a must again be grapes, plus a side condition.
For strong grapes at least one of link/deletion must be a cone; for
combinatorial grapes some cone must sit between them.  Recognition
returns a certificate tree that replay re-checks on face tables: a sandwich
at b needs L - b inside lk_D(b), for the closed link L and the deletion D.
For a digraph's two complexes the peeling can follow the edges out of s,
walking the edge-deleted and edge-contracted graphs alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .digraph import Digraph
from .errors import ResourceLimitError
from .simplicial import SimplicialComplex, _patterns

GRAPE_GROUND_LIMIT = 12


@dataclass(frozen=True)
class BaseCase:
    """Ground set of size at most one; a grape unconditionally."""

    ground: tuple[int, ...]


@dataclass(frozen=True)
class ConeWitness:
    """Which of the two children is a cone, and a working apex for it."""

    side: str  # "link" | "deletion"
    apex: int


@dataclass(frozen=True)
class SandwichWitness:
    """Element b with F ∪ {b} in the deletion for every link face F.

    Adding b to every link face builds a cone with apex b that sits
    between the link and the deletion, and conversely the apex of any
    such cone passes this test, so the finite test is exact.  ``vacuous``
    marks the degenerate pass where the link has no faces at all.
    """

    element: int
    vacuous: bool = False


@dataclass(frozen=True)
class Split:
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


def find_cone_witness(link: SimplicialComplex,
                      deletion: SimplicialComplex) -> Optional[ConeWitness]:
    """First cone apex found on either child, link side preferred."""
    for w in link.ground:
        if link.is_cone_with_apex(w):
            return ConeWitness("link", w)
    for w in deletion.ground:
        if deletion.is_cone_with_apex(w):
            return ConeWitness("deletion", w)
    return None


def _sandwich_witness(link: SimplicialComplex,
                      deletion: SimplicialComplex) -> Optional[SandwichWitness]:
    # The link and the deletion share one ground set, hence one table layout;
    # adding b at index i to the link faces lacking it shifts them by 2^i.
    lk = link.table
    for i, (b, p) in enumerate(zip(deletion.ground, _patterns(len(deletion.ground)))):
        if not (lk | lk << (1 << i)) & p & ~deletion.table:
            return SandwichWitness(b, vacuous=not lk)
    return None


def _search(c: SimplicialComplex, side_test, memo) -> Optional[GrapeNode]:
    key = (c.ground, c.table)
    if key in memo:
        return memo[key]
    node: Optional[GrapeNode] = None
    if len(c.ground) <= 1:
        node = BaseCase(c.ground)
    else:
        for a in c.ground:
            link = c.link(a)
            deletion = c.deletion(a)
            side = side_test(link, deletion)
            if side is None:
                continue
            link_child = _search(link, side_test, memo)
            if link_child is None:
                continue
            deletion_child = _search(deletion, side_test, memo)
            if deletion_child is None:
                continue
            node = Split(a, link_child, deletion_child, side)
            break
    memo[key] = node
    return node


def is_strong_grape(c: SimplicialComplex) -> Optional[GrapeCertificate]:
    """Certificate that c is a strong grape, or None after exhaustive search.

    Apexes are tried in ground order; results are memoized on the
    (ground, table) pair for the duration of one call.
    """
    _check_ground(len(c.ground))
    return _search(c, find_cone_witness, {})


def is_combinatorial_grape(c: SimplicialComplex) -> Optional[GrapeCertificate]:
    """Certificate that c is a combinatorial grape, or None."""
    _check_ground(len(c.ground))
    return _search(c, _sandwich_witness, {})


def replay_certificate(cert: GrapeNode, c: SimplicialComplex) -> bool:
    """Re-verify every step of a certificate against the complex; a subtree
    that the search memo shares is replayed once per complex."""
    return _replay(cert, c, {})


def _replay(cert: GrapeNode, c: SimplicialComplex, memo) -> bool:
    if isinstance(cert, BaseCase):
        return cert.ground == c.ground and len(c.ground) <= 1
    if not isinstance(cert, Split) or cert.apex not in c.ground:
        return False
    key = (id(cert), c.ground, c.table)
    if key not in memo:
        link, deletion = c.link(cert.apex), c.deletion(cert.apex)
        side = cert.side_condition
        if isinstance(side, ConeWitness):
            child = link if side.side == "link" else deletion
            ok = side.apex in child.ground and child.is_cone_with_apex(side.apex)
        elif isinstance(side, SandwichWitness):
            b = side.element
            ok = (b in deletion.ground and not link.deletion(b).table & ~deletion.link(b).table
                  and side.vacuous == link.is_empty())
        else:
            ok = False
        memo[key] = (ok and _replay(cert.link_child, link, memo)
                     and _replay(cert.deletion_child, deletion, memo))
    return memo[key]


# -- graph-guided certificates ------------------------------------------------------


def source_apex_strong_certificate(g: Digraph, c: SimplicialComplex,
                                   which: str) -> Optional[GrapeNode]:
    """Strong-grape certificate of c, the ``which`` ("pm" or "pf") complex
    of g, whose apex, whenever the graph offers a non-useless edge out of
    s, is the first such edge in ``g.edges``, the order edge masks and the
    complex's ground share.

    The link and the deletion at an edge e out of s are the complexes of
    the edge-deleted and edge-contracted graphs, so the recursion walks
    those graphs alongside the complexes to choose the next apex.  Graphs
    with no such edge (s = t, or no s-t-path at all) fall back to the
    unrestricted search.
    """
    _check_ground(len(c.ground))
    if len(c.ground) <= 1:
        return BaseCase(c.ground)
    useless = g.useless_edges()
    candidates = [eid for eid, u, _ in g.edges if u == g.s and eid not in useless]
    if not candidates:
        return is_strong_grape(c)
    e = candidates[0]
    link, deletion = c.link(e), c.deletion(e)
    side = find_cone_witness(link, deletion)
    if side is None:
        return None
    if which == "pm":
        link_graph, deletion_graph = g.delete_edge(e), g.contract_edge(e)
    else:
        link_graph, deletion_graph = g.contract_edge(e), g.delete_edge(e)
    link_child = source_apex_strong_certificate(link_graph, link, which)
    deletion_child = source_apex_strong_certificate(deletion_graph, deletion, which)
    if link_child is None or deletion_child is None:
        return None
    return Split(e, link_child, deletion_child, side)
