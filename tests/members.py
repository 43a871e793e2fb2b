"""Membership oracles shared by the test modules: one subset at a time, by
an augmenting-path search over the kept edges that shares no code with the
package's flow."""

from pathcomplexes.digraph import Digraph
from pathcomplexes.pathcomplex import _check_r


def _holds_paths(g: Digraph, kept: frozenset, r: int) -> bool:
    """True iff the edges whose ids are in ``kept`` hold r edge-disjoint
    s-t-paths: r augmenting paths of a unit-capacity flow, each found by a
    depth-first search over the residual arcs.  With s = t the trivial
    path repeats without using an edge, so every r is met."""
    if g.s == g.t:
        return True
    ends = [(u, v) for eid, u, v in g.edges if eid in kept]
    arcs: dict = {x: [] for x in g.vertices}  # vertex -> (edge, other end, forward)
    for i, (u, v) in enumerate(ends):
        arcs[u].append((i, v, True))
        arcs[v].append((i, u, False))
    used = [False] * len(ends)  # a forward arc is residual while unused, a backward one once used
    for _ in range(r):
        came = {g.s: None}
        stack = [g.s]
        while stack and g.t not in came:
            x = stack.pop()
            for i, y, forward in arcs[x]:
                if used[i] != forward and y not in came:
                    came[y] = (x, i)
                    stack.append(y)
        if g.t not in came:
            return False
        y = g.t
        while y != g.s:
            y, i = came[y]
            used[i] = not used[i]
    return True


def _known(g: Digraph, f, r: int) -> frozenset:
    """f as a set of edge ids; a nonpositive r or an id the graph lacks
    raises ``ValueError``."""
    _check_r(r)
    f = frozenset(f)
    unknown = f.difference(g.edge_ids)
    if unknown:
        raise ValueError(f"unknown edge ids {sorted(unknown)}")
    return f


def pm_member(g: Digraph, f, r: int = 1) -> bool:
    """True iff the complement of f contains r edge-disjoint s-t-paths."""
    return _holds_paths(g, frozenset(g.edge_ids) - _known(g, f, r), r)


def pf_member(g: Digraph, f, r: int = 1) -> bool:
    """True iff f contains no r edge-disjoint s-t-paths."""
    return not _holds_paths(g, _known(g, f, r), r)
