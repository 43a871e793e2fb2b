"""A second implementation of the grape searches, for the tests.

Each search node here is a ``SimplicialComplex`` of its own: the link and
the deletion are squeezed onto the smaller ground set, and the source-apex
walk builds the edge-deleted and edge-contracted graphs and asks them for
their useless edges.  The package's searches stay on the top complex's
face table instead, and must return the same certificates.
"""

from typing import Callable, Optional

from pathcomplexes.digraph import Digraph
from pathcomplexes.grapes import (BaseCase, ConeWitness, GrapeNode,
                                  SandwichWitness, Split)
from pathcomplexes.simplicial import SimplicialComplex, _patterns


def cone_witness(link: SimplicialComplex,
                 deletion: SimplicialComplex) -> Optional[ConeWitness]:
    """First cone apex found on either child, link side preferred."""
    for w in link.ground:
        if link.is_cone_with_apex(w):
            return ConeWitness("link", w)
    for w in deletion.ground:
        if deletion.is_cone_with_apex(w):
            return ConeWitness("deletion", w)
    return None


def sandwich_witness(link: SimplicialComplex,
                     deletion: SimplicialComplex) -> Optional[SandwichWitness]:
    """First deletion element b with every link face plus b a deletion face."""
    lk = link.table
    for i, (b, p) in enumerate(zip(deletion.ground, _patterns(len(deletion.ground)))):
        if not (lk | lk << (1 << i)) & p & ~deletion.table:
            return SandwichWitness(b, vacuous=not lk)
    return None


def search(c: SimplicialComplex, side_test, memo=None) -> Optional[GrapeNode]:
    """The grape search, apexes in ground order, memoized on (ground, table)."""
    memo = {} if memo is None else memo
    key = (c.ground, c.table)
    if key in memo:
        return memo[key]
    node: Optional[GrapeNode] = None
    if len(c.ground) <= 1:
        node = BaseCase(c.ground)
    else:
        for a in c.ground:
            link, deletion = c.link(a), c.deletion(a)
            side = side_test(link, deletion)
            if side is None:
                continue
            link_child = search(link, side_test, memo)
            if link_child is None:
                continue
            deletion_child = search(deletion, side_test, memo)
            if deletion_child is None:
                continue
            node = Split(a, link_child, deletion_child, side)
            break
    memo[key] = node
    return node


def minor_walk(g: Digraph, c: SimplicialComplex, which: str,
               visit: Callable = lambda g, c: None) -> Optional[GrapeNode]:
    """The source-apex certificate through graph minors: the apex is the
    first edge out of s that ``useless_edges`` leaves, and the children
    walk G minus e and G/e.  ``visit`` sees every (graph, complex) node."""
    visit(g, c)
    if len(c.ground) <= 1:
        return BaseCase(c.ground)
    useless = g.useless_edges()
    candidates = [eid for eid, u, _ in g.edges if u == g.s and eid not in useless]
    if not candidates:
        return search(c, cone_witness)
    e = candidates[0]
    link, deletion = c.link(e), c.deletion(e)
    side = cone_witness(link, deletion)
    if side is None:
        return None
    if which == "pm":
        link_graph, deletion_graph = g.delete_edge(e), g.contract_edge(e)
    else:
        link_graph, deletion_graph = g.contract_edge(e), g.delete_edge(e)
    link_child = minor_walk(link_graph, link, which, visit)
    deletion_child = minor_walk(deletion_graph, deletion, which, visit)
    if link_child is None or deletion_child is None:
        return None
    return Split(e, link_child, deletion_child, side)
