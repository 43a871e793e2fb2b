"""The two complexes a digraph carries on its edge set.

For a graph with distinguished vertices s and t:

* the path-free complex holds the edge subsets containing no s-t-path;
* the path-missing complex holds the subsets whose removal still leaves
  an s-t-path.

Both are built here explicitly, together with a deletion-contraction
engine for the path-missing f-polynomial (the path-free one follows by
Alexander duality), closed forms for their reduced Euler
characteristics, sphere/contractible classification, divisibility of the
f-polynomials by powers of (1+x), and the r-edge-disjoint generalization
decided by unit-capacity flow.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

from .digraph import Digraph
from .errors import ResourceLimitError
from .polynomial import IntPolynomial, poly_divisibility
from .simplicial import SimplicialComplex

BUILD_EDGE_LIMIT = 20

CASE_USELESS_OR_CYCLE = "useless-or-cycle"
CASE_EMPTY_EDGE = "empty-edge-case"
CASE_GENERIC_ACYCLIC = "generic-acyclic"


@dataclass(frozen=True)
class ChiReport:
    """Closed-form reduced Euler characteristic with its case and parity."""

    value: int
    case_tag: str
    parity: str  # "even" | "odd"; matches the face-count parity


@dataclass(frozen=True)
class HomotopyClass:
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


@dataclass(frozen=True)
class DivisibilityReport:
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


# -- membership oracles ------------------------------------------------------


def _check_r(r: int):
    if r < 1:
        raise ValueError("r must be positive")


def pm_member(g: Digraph, f) -> bool:
    """True iff removing f still leaves an s-t-path."""
    return g.reaches(g.full_mask ^ g.edge_mask(f))


def pf_member(g: Digraph, f) -> bool:
    """True iff f contains no s-t-path."""
    return not g.reaches(g.edge_mask(f))


def pm_r_member(g: Digraph, f, r: int) -> bool:
    """True iff the complement of f contains r edge-disjoint s-t-paths."""
    _check_r(r)
    return g._max_flow(g.full_mask ^ g.edge_mask(f), r)[0] >= r


def pf_r_member(g: Digraph, f, r: int) -> bool:
    """True iff f contains no r edge-disjoint s-t-paths."""
    _check_r(r)
    return g._max_flow(g.edge_mask(f), r)[0] < r


# -- explicit construction ------------------------------------------------------


def _build(g: Digraph, oracle: Callable[[int], bool], limit: int) -> SimplicialComplex:
    """The complex on ``g.edge_ids`` whose faces are the edge masks (bit i
    for ``g.edges[i]``) that ``oracle`` accepts, one call per subset;
    downward closure is validated on every build."""
    m = len(g.edges)
    if m > limit:
        raise ResourceLimitError(f"{m} edges exceed the enumeration limit of {limit}")
    c = SimplicialComplex(g.edge_ids, frozenset(filter(oracle, range(1 << m))))
    c.validate()
    return c


def build_pm(g: Digraph, limit: int = BUILD_EDGE_LIMIT) -> SimplicialComplex:
    """Enumerate the path-missing complex; downward closure is asserted."""
    full, reaches = g.full_mask, g.reaches
    return _build(g, lambda m: reaches(full ^ m), limit)


def build_pf(g: Digraph, limit: int = BUILD_EDGE_LIMIT) -> SimplicialComplex:
    """Enumerate the path-free complex; downward closure is asserted."""
    reaches = g.reaches
    return _build(g, lambda m: not reaches(m), limit)


def build_pm_r(g: Digraph, r: int, limit: int = BUILD_EDGE_LIMIT) -> SimplicialComplex:
    """Edge sets whose complement holds r edge-disjoint s-t-paths."""
    _check_r(r)
    full, flow = g.full_mask, g._max_flow
    return _build(g, lambda m: flow(full ^ m, r)[0] >= r, limit)


def build_pf_r(g: Digraph, r: int, limit: int = BUILD_EDGE_LIMIT) -> SimplicialComplex:
    """Edge sets holding no r edge-disjoint s-t-paths."""
    _check_r(r)
    flow = g._max_flow
    return _build(g, lambda m: flow(m, r)[0] < r, limit)


# -- deletion-contraction f-polynomials --------------------------------------------


def _dual_fpoly(f: IntPolynomial, n: int) -> IntPolynomial:
    """f-polynomial of the Alexander dual on n ground elements:
    coefficient k is C(n, k) - f[n - k]."""
    return IntPolynomial(comb(n, k) - f[n - k] for k in range(n + 1))


def fpoly_pm_dc(g: Digraph) -> IntPolynomial:
    """f-polynomial of the path-missing complex, no subset enumeration.

    s = t gives the full simplex (1+x)^|E|; no s-t-path gives the empty
    complex, i.e. 0.  Otherwise split on the lowest-id edge e out of s:
    deleting e inside a face corresponds to the graph minus e, keeping it
    to the contraction, so

        f(G) = f(G/e) + x * f(G \\ e).

    Before each split the graph is reduced without branching.  An edge on
    no s-t-path is a cone apex, f(G) = (1+x) * f(G \\ e): its source is
    unreachable from s, t is unreachable from its target, or it is a
    self-loop, enters s or leaves t.  A sole edge e out of s lies on every
    s-t-path, so f(G) = f(G/e); a chain of such edges is contracted at
    once.  Splits are memoized on the edge multiset plus (s, t), and only
    splits recurse.
    """
    memo: dict = {}

    def engine(g: Digraph) -> IntPolynomial:
        cones = 0
        while g.s != g.t:
            s, t = g.s, g.t
            fwd, bwd = g._reachable_from_s, g._coreachable_to_t
            if t not in fwd:
                return IntPolynomial()

            def useful(u, v):
                return u in fwd and v in bwd and u != v and v != s and u != t

            # Merge s with the chain of sole useful out-edges behind it.  The
            # chain edges are contracted; other edges into the merged
            # vertex now enter s and join the useless edges as cone apexes.
            merged, out = {s}, [(eid, v) for eid, v in g._out[s] if useful(s, v)]
            while len(out) == 1 and t not in merged:
                u = out[0][1]
                merged.add(u)
                out = [(eid, w) for eid, w in g._out[u] if w not in merged and useful(u, w)]
            edges = tuple((eid, s if u in merged else u, v)
                          for eid, u, v in g.edges if useful(u, v) and v not in merged)
            cones += len(g.edges) - len(edges) - (len(merged) - 1)
            if len(edges) < len(g.edges):
                g = Digraph(tuple(w for w in g.vertices if w == s or w not in merged),
                            edges, s, s if t in merged else t)
            if len(merged) == 1:
                break
        else:
            return IntPolynomial.one_plus_x_power(len(g.edges) + cones)
        key = (g.s, g.t, frozenset(Counter((u, v) for _, u, v in g.edges).items()))
        if key not in memo:
            e = out[0][0]  # the lowest-id edge out of s
            memo[key] = engine(g.contract_edge(e)) + engine(g.delete_edge(e)).shift()
        return memo[key] * IntPolynomial.one_plus_x_power(cones)

    return engine(g)


def fpoly_pf_dc(g: Digraph) -> IntPolynomial:
    """f-polynomial of the path-free complex.

    The path-missing complex is its Alexander dual, so the coefficients
    are C(|E|, k) - f_pm[|E| - k] with f_pm from ``fpoly_pm_dc``.
    """
    return _dual_fpoly(fpoly_pm_dc(g), len(g.edges))


# -- closed-form Euler characteristics ------------------------------------------------


def _parity(value: int) -> str:
    return "odd" if value % 2 else "even"


def _cycle_or_useless(g: Digraph) -> bool:
    """True iff g has a cycle or a useless edge.  Without a cycle,
    uselessness is decided by reachability alone."""
    return g.find_cycle() is not None or bool(g.useless_edges())


def chi_pm_closed(g: Digraph) -> ChiReport:
    """Reduced Euler characteristic of the path-missing complex.

    Zero as soon as the graph has a cycle or a useless edge, and for the
    edgeless graph with s != t; otherwise (-1)^(|E| - |V'| + 1) where V'
    is the set of nonsinks.
    """
    if _cycle_or_useless(g):
        return ChiReport(0, CASE_USELESS_OR_CYCLE, "even")
    if not g.edges and g.s != g.t:
        return ChiReport(0, CASE_EMPTY_EDGE, "even")
    value = (-1) ** (len(g.edges) - len(g.nonsinks()) + 1)
    return ChiReport(value, CASE_GENERIC_ACYCLIC, _parity(value))


def chi_pf_closed(g: Digraph) -> ChiReport:
    """Reduced Euler characteristic of the path-free complex.

    The edgeless graph is its own case: -1 when s != t (only the empty
    face) and 0 when s = t (no faces).  With edges present the value is 0
    under a cycle or useless edge and (-1)^|V'| otherwise.
    """
    if not g.edges:
        value = -1 if g.s != g.t else 0
        return ChiReport(value, CASE_EMPTY_EDGE, _parity(value))
    if _cycle_or_useless(g):
        return ChiReport(0, CASE_USELESS_OR_CYCLE, "even")
    value = (-1) ** len(g.nonsinks())
    return ChiReport(value, CASE_GENERIC_ACYCLIC, _parity(value))


# -- homotopy classification ---------------------------------------------------------


def homotopy_pm(g: Digraph) -> HomotopyClass:
    """Empty when no s-t-path exists; contractible under a useless edge or
    cycle; otherwise a sphere of dimension |E| - |V'| - 1."""
    if not g.has_st_path():
        return EMPTY_COMPLEX
    if _cycle_or_useless(g):
        return CONTRACTIBLE
    return sphere(len(g.edges) - len(g.nonsinks()) - 1)


def homotopy_pf(g: Digraph) -> HomotopyClass:
    """Empty when s = t; the (-1)-sphere {∅} when edgeless with s != t;
    contractible under a useless edge or cycle; otherwise a sphere of
    dimension |V'| - 2."""
    if g.s == g.t:
        return EMPTY_COMPLEX
    if not g.edges:
        return sphere(-1)
    if _cycle_or_useless(g):
        return CONTRACTIBLE
    return sphere(len(g.nonsinks()) - 2)


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
