"""The two complexes a digraph carries on its edge set.

For a graph with distinguished vertices s and t:

* the path-free complex holds the edge subsets containing no s-t-path;
* the path-missing complex holds the subsets whose removal still leaves
  an s-t-path.

Both are built here explicitly, as truth tables of reachability from s
over the edge subsets, an edge crossed where kept (path-free) or removed
(path-missing); ``_patterns`` refuses more than ``FACE_ENUMERATION_LIMIT``
subsets (20 edges) before any table is allocated.
One frontier pass counts the path-missing f-polynomial, on the useful
edges with every run through vertices of one edge in and one out merged
into one edge, and Alexander duality gives the path-free one.  A closed
form finds each complex empty, contractible or a sphere: a sphere exactly
when the graph's in-degree peel from s (``Digraph._generic_acyclic``)
consumes every edge, which takes one linear pass and no depth-first search.
Its reduced Euler characteristic follows from the class; powers of (1+x)
are checked to divide the f-polynomials.
The r-edge-disjoint complexes grow the path-free table by Menger's theorem.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .digraph import Digraph
from .errors import ResourceLimitError
from .polynomial import IntPolynomial, binomials, poly_divisibility
from .simplicial import SimplicialComplex, _above, _dual, _patterns

FRONTIER_STATE_LIMIT = 1 << 15

CASE_USELESS_OR_CYCLE = "useless-or-cycle"
CASE_EMPTY_EDGE = "empty-edge-case"
CASE_GENERIC_ACYCLIC = "generic-acyclic"


class ChiReport(NamedTuple):
    """Closed-form reduced Euler characteristic with its case and parity."""

    value: int
    case_tag: str
    parity: str  # "even" | "odd"; matches the face-count parity


class HomotopyClass(NamedTuple):
    """Empty complex, contractible, or a sphere of the given dimension."""

    kind: str  # "empty" | "contractible" | "sphere"
    dim: Optional[int] = None

    def describe(self) -> str:
        if self.kind == "sphere":
            return f"sphere {self.dim}"
        return self.kind


EMPTY_COMPLEX = HomotopyClass("empty")
CONTRACTIBLE = HomotopyClass("contractible")


def sphere(dim: int) -> HomotopyClass:
    return HomotopyClass("sphere", dim)


class DivisibilityReport(NamedTuple):
    """Divisibility of both f-polynomials by (1+x)^kappa.

    kappa is the exact disjoint quasi-cycle packing number; the remainders
    are taken modulo (1+x)^(kappa+1) and carry no claim, they are emitted
    for inspection.
    """

    kappa: int
    pm_ok: bool
    pf_ok: bool
    pm_remainder: IntPolynomial
    pf_remainder: IntPolynomial


# -- explicit construction ------------------------------------------------------


def _check_r(r: int):
    if r < 1:
        raise ValueError("r must be positive")


def _complex(g: Digraph, table: int) -> SimplicialComplex:
    """The complex on ``g.edge_ids`` with the given face table (bit i of a
    mask for ``g.edges[i]``); downward closure is validated on every build."""
    c = SimplicialComplex(g.edge_ids, table)
    c.validate()
    return c


def _reach(g: Digraph, patterns) -> int:
    """The table of the edge masks over which s reaches t, edge i crossable in
    the masks of ``patterns[i]``: at most |V| rounds of steps along the edges."""
    arcs = [(u, v, p) for (_, u, v), p in zip(g.edges, patterns) if u != v]
    reach = dict.fromkeys(g.vertices, 0)
    reach[g.s] = (1 << (1 << len(g.edges))) - 1
    grew = True
    while grew:
        grew = False
        for u, v, p in arcs:
            x = reach[v] | reach[u] & p
            if x != reach[v]:
                reach[v], grew = x, True
    return reach[g.t]


def _free_table(g: Digraph, r: int) -> int:
    """The truth table of the edge masks holding fewer than r edge-disjoint
    s-t-paths: bit x is set iff mask x does.

    For r = 1 it is the complement of ``_reach`` with each edge crossable
    where it is kept.  By Menger's theorem a mask holds fewer than r paths iff
    it holds none, or dropping one of its edges leaves fewer than r - 1:
    each further r is one ``_above`` step, until the table stops growing
    (at r = |E| + 1 at the latest).  With s = t no mask is in the table.
    """
    n = len(g.edges)
    table = free = _reach(g, _patterns(n)) ^ ((1 << (1 << n)) - 1)
    for _ in range(1, r):
        table, last = free | _above(table, n), table
        if table == last:
            break
    return table


def build_pm(g: Digraph) -> SimplicialComplex:
    """Enumerate the path-missing complex; downward closure is asserted.
    Its faces are the masks whose removal leaves s reaching t."""
    n = len(g.edges)
    kept, full = _patterns(n), (1 << (1 << n)) - 1
    return _complex(g, _reach(g, [full ^ p for p in kept]))


def build_pf(g: Digraph) -> SimplicialComplex:
    """Enumerate the path-free complex; downward closure is asserted.
    Its faces are the masks that do not reach t."""
    return _complex(g, _free_table(g, 1))


def build_pm_r(g: Digraph, r: int) -> SimplicialComplex:
    """Edge sets whose complement holds r edge-disjoint s-t-paths."""
    _check_r(r)
    return _complex(g, _dual(_free_table(g, r), len(g.edges)))


def build_pf_r(g: Digraph, r: int) -> SimplicialComplex:
    """Edge sets holding no r edge-disjoint s-t-paths."""
    _check_r(r)
    return _complex(g, _free_table(g, r))


# -- f-polynomials by one frontier pass --------------------------------------------


def _dual_fpoly(f: IntPolynomial, n: int) -> IntPolynomial:
    """f-polynomial of the Alexander dual on n ground elements:
    coefficient k is C(n, k) - f[n - k]."""
    row = binomials(n)
    for k, c in enumerate(f.coeffs):
        row[n - k] -= c
    return IntPolynomial(row)


def _series_reduced(edges: list) -> list:
    """The useful edges (a, b) as (a, b, n) triples, each run of n edges
    through inner vertices, those with one edge in and one edge out, merged
    into one edge from its first tail to its last head; a run that closes
    on itself is left out.  Neither s (no useful edge in) nor t (none out)
    is inner."""
    outs, ins = {}, {}
    for a, b in edges:
        outs[a] = outs.get(a, 0) + 1
        ins[b] = ins.get(b, 0) + 1
    inner = {x for x, d in ins.items() if d == 1 and outs.get(x) == 1}
    if not inner:
        return [(a, b, 1) for a, b in edges]
    after = {a: b for a, b in edges if a in inner}  # inner vertex -> its one head
    chains = []
    for a, b in edges:
        if a not in inner:
            n = 1
            while b in inner:
                b, n = after[b], n + 1
            if a != b:
                chains.append((a, b, n))
    return chains


def fpoly_pm_dc(g: Digraph) -> IntPolynomial:
    """f-polynomial of the path-missing complex by one frontier pass.

    f[k] counts the removed edge sets of size k whose kept edges hold an
    s-t-path.  The pass takes the edges that reachability leaves useful,
    after series reduction: a run of n edges through vertices with one
    useful edge in and one out is kept whole or cut, so it is one edge whose
    cut weighs the (1+x)^n - 1 nonempty removed subsets of the run, and a
    run that closes on itself lies on no simple s-t-path and is free.  The
    edges go by their endpoints' breadth-first positions from s.  A state
    holds what s reaches and, per vertex s does not reach, what that vertex
    reaches; a vertex counts as reached until its last edge out (t for good)
    and as reaching until its last edge in.  States map to their counts by
    size, packed w bits per size.  A state in which s reaches nothing live
    is dropped; a kept set that reaches t leaves the states and is free on
    every later or useless edge.  Over ``FRONTIER_STATE_LIMIT`` states raise
    ``ResourceLimitError``.
    """
    pos = {v: i for i, v in enumerate(g._from_s)}  # vertex -> breadth-first position
    edges = sorted(_series_reduced([(pos[u], pos[v]) for eid, u, v in g.edges
                                    if eid not in g._useless_by_reach]),
                   key=lambda e: (e[0], e[1]) if e[0] < e[1] else (e[1], e[0]))
    last_out, last_in = ({e[j]: i for i, e in enumerate(edges)} for j in (0, 1))
    first = {x: i for i, (a, b, _) in reversed(tuple(enumerate(edges))) for x in (a, b)}
    m, t = len(g.edges), 1 << pos[g.t] if g.t in pos else 0
    w = 8 * (m // 8 + 1)  # w bits hold any count of edge sets
    rows: list = []  # the positions of the vertices asked what they reach
    done = int(g.s == g.t)  # the counts of the sets that reach t (with s = t, all)
    states = {} if done else {(1, ()): 1}  # (mask s reaches, masks rows reach) -> counts
    free = m  # less each run's length: the useless edges and those of closed runs
    for i, (a, b, n) in enumerate(edges):
        u, free = 1 << a, free - n
        gone = u if last_out[a] == i else 0
        grow = tuple(x for x in (a, b) if first[x] == i and x in last_in)
        rows += grow
        vrow = rows.index(b)
        keep = [k for k, x in enumerate(rows) if last_in[x] > i]
        rows = [rows[k] for k in keep]
        grow = tuple(1 << x for x in grow)
        old, states = states, {}
        if n == 1:
            done += done << w
        else:  # a run's cut: (1+x)^n - 1, packed, formed only if a set survives it
            cut = (1 + (1 << w)) ** n - 1 if done or any(r & ~gone for r, _ in old) else 0
            done += done * cut
        for (reach, rel), cnt in old.items():
            rel += grow
            rv = rel[vrow]
            for at, to, c in ((reach, rel, cnt << w if n == 1 else cnt * cut),
                              (reach | rv if reach & u else reach,
                               tuple(r | rv if r & u else r for r in rel), cnt)):
                if at & t:
                    done += c
                elif at & ~gone:
                    key = (at & ~gone, tuple(to[k] & ~(at | gone) for k in keep))
                    states[key] = states.get(key, 0) + c
        if len(states) > FRONTIER_STATE_LIMIT:
            raise ResourceLimitError(f"frontier states exceed the limit of {FRONTIER_STATE_LIMIT}")
    raw = (done * (1 + (1 << w)) ** free).to_bytes((m + 1) * w // 8, "little")
    return IntPolynomial(int.from_bytes(raw[k * w // 8:(k + 1) * w // 8], "little")
                         for k in range(m + 1))


def fpoly_pf_dc(g: Digraph) -> IntPolynomial:
    """f-polynomial of the path-free complex.

    The path-missing complex is its Alexander dual, so the coefficients
    are C(|E|, k) - f_pm[|E| - k] with f_pm from ``fpoly_pm_dc``.
    """
    return _dual_fpoly(fpoly_pm_dc(g), len(g.edges))


# -- closed-form Euler characteristics ------------------------------------------------


def _chi(g: Digraph, h: HomotopyClass) -> ChiReport:
    """(-1)^d when h, the class of a complex of g, is a d-sphere, else 0; an
    edgeless g is its own case, save the path-missing {∅} of s = t."""
    value = 1 - 2 * (h.dim % 2) if h.kind == "sphere" else 0
    if h.kind == "sphere" and (g.edges or g.s == g.t):
        case = CASE_GENERIC_ACYCLIC
    else:
        case = CASE_USELESS_OR_CYCLE if g.edges else CASE_EMPTY_EDGE
    return ChiReport(value, case, "odd" if value % 2 else "even")


def chi_pm_closed(g: Digraph) -> ChiReport:
    """Reduced Euler characteristic of the path-missing complex.

    Zero as soon as the graph has a cycle or a useless edge, and for the
    edgeless graph with s != t; otherwise (-1)^(|E| - |V'| + 1) where V'
    is the set of nonsinks.
    """
    return _chi(g, homotopy_pm(g))


def chi_pf_closed(g: Digraph) -> ChiReport:
    """Reduced Euler characteristic of the path-free complex.

    The edgeless graph is its own case: -1 when s != t (only the empty
    face) and 0 when s = t (no faces).  With edges present the value is 0
    under a cycle or useless edge and (-1)^|V'| otherwise.
    """
    return _chi(g, homotopy_pf(g))


# -- homotopy classification ---------------------------------------------------------


def homotopy_pm(g: Digraph) -> HomotopyClass:
    """A sphere of dimension |E| - |V'| - 1 when the in-degree peel from s
    consumes the graph (acyclic, every edge on an s-t-path); otherwise
    contractible when an s-t-path exists (a useless edge or a cycle) and
    empty when none does."""
    if g._generic_acyclic:
        return sphere(len(g.edges) - len(g.nonsinks()) - 1)
    return CONTRACTIBLE if g.has_st_path() else EMPTY_COMPLEX


def homotopy_pf(g: Digraph) -> HomotopyClass:
    """Empty when s = t; the (-1)-sphere {∅} when edgeless with s != t; a
    sphere of dimension |V'| - 2 when the in-degree peel from s consumes the
    graph (acyclic, every edge on an s-t-path); otherwise contractible (a
    useless edge or a cycle)."""
    if g.s == g.t:
        return EMPTY_COMPLEX
    if not g.edges:
        return sphere(-1)
    return sphere(len(g.nonsinks()) - 2) if g._generic_acyclic else CONTRACTIBLE


# -- divisibility ---------------------------------------------------------------------


def check_divisibility(g: Digraph) -> DivisibilityReport:
    """Check that (1+x)^kappa divides both f-polynomials, kappa the exact
    disjoint quasi-cycle packing number, and report remainders modulo
    (1+x)^(kappa+1)."""
    kappa, _ = g.max_disjoint_quasi_cycles()
    f_pm = fpoly_pm_dc(g)
    f_pf = _dual_fpoly(f_pm, len(g.edges))
    pm_ok, _ = poly_divisibility(f_pm, kappa)
    pf_ok, _ = poly_divisibility(f_pf, kappa)
    modulus = IntPolynomial.one_plus_x_power(kappa + 1)
    _, pm_rem = f_pm.divmod_monic(modulus)
    _, pf_rem = f_pf.divmod_monic(modulus)
    return DivisibilityReport(kappa, pm_ok, pf_ok, pm_rem, pf_rem)
