"""Membership oracles shared by the test modules: one subset at a time,
by a unit-capacity flow under the subset's edge mask."""

from pathcomplexes.digraph import Digraph
from pathcomplexes.pathcomplex import _check_r


def pm_member(g: Digraph, f, r: int = 1) -> bool:
    """True iff the complement of f contains r edge-disjoint s-t-paths."""
    _check_r(r)
    return g._max_flow(~g.edge_mask(f), r)[0] >= r


def pf_member(g: Digraph, f, r: int = 1) -> bool:
    """True iff f contains no r edge-disjoint s-t-paths."""
    _check_r(r)
    return g._max_flow(g.edge_mask(f), r)[0] < r
