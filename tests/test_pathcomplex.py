import hashlib
import math
import random
from collections import Counter
from itertools import combinations

import pytest

from pathcomplexes import pathcomplex, simplicial
from pathcomplexes.digraph import Digraph
from pathcomplexes.errors import ResourceLimitError
from pathcomplexes.graphio import parse_graph
from pathcomplexes.pathcomplex import (CASE_EMPTY_EDGE, CASE_GENERIC_ACYCLIC,
                                       CASE_USELESS_OR_CYCLE, build_pf,
                                       build_pf_r, build_pm, build_pm_r,
                                       check_divisibility, chi_pf_closed,
                                       chi_pm_closed, fpoly_pf_dc, fpoly_pm_dc,
                                       homotopy_pf, homotopy_pm, sphere)
from pathcomplexes.polynomial import IntPolynomial
from pathcomplexes.simplicial import SimplicialComplex
from pathcomplexes.verify import (CorpusSpec, double_cycle_graph, edgeless_graph,
                                  example_graph, generate_corpus, loop_graph,
                                  parallel_graph, path_graph)

from complexes import (empty_complex, full_simplex, irrelevant_complex,
                       proper_subsets_complex)
from families import bidirected_grid
from members import pf_member, pm_member

EXAMPLE_PF_FACETS = ["abdfg", "abef", "acdfg", "acefg", "bcdg", "bcefg"]
EXAMPLE_PM_FACETS = ["abcfg", "aeg", "cdf", "defg"]


def facet_names(g, c):
    labels = g.label_map()
    return sorted("".join(sorted(labels[e] for e in f)) for f in c.facets())


def ids_for(g, letters):
    by_label = {lbl: eid for eid, lbl in g.label_map().items()}
    return frozenset(by_label[x] for x in letters)


def random_multigraphs(seed: int, count: int = 1000) -> list[Digraph]:
    """Random multigraphs on at most 7 vertices and 12 edges, at least 100
    each with s = t, with a self-loop and with parallel edges."""
    rng = random.Random(seed)
    graphs, seen = [], {"s = t": 0, "self-loop": 0, "parallel": 0}
    for _ in range(count):
        n = rng.randint(1, 7)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 12))]
        graphs.append(Digraph.build(range(n), pairs, rng.randrange(n), rng.randrange(n)))
        seen["s = t"] += graphs[-1].s == graphs[-1].t
        seen["self-loop"] += any(u == v for u, v in pairs)
        seen["parallel"] += len(set(pairs)) < len(pairs)
    assert min(seen.values()) >= 100, seen
    return graphs


@pytest.fixture(scope="module")
def multigraphs():
    return random_multigraphs(12)


# -- membership -----------------------------------------------------------------


def test_pm_member_on_example():
    g = example_graph()
    assert pm_member(g, ids_for(g, "defg"))
    assert not pm_member(g, ids_for(g, "ad"))  # both exits from s removed


def test_pf_member_on_example():
    g = example_graph()
    assert pf_member(g, ids_for(g, "bcefg"))
    assert not pf_member(g, ids_for(g, "de"))


def test_membership_when_s_equals_t():
    g = loop_graph()
    assert pm_member(g, frozenset({0}))
    assert not pf_member(g, frozenset())


def test_membership_validates_edge_ids():
    with pytest.raises(ValueError):
        pm_member(example_graph(), frozenset({42}))
    with pytest.raises(ValueError):
        pf_member(example_graph(), frozenset({42}), 1)


# -- construction ------------------------------------------------------------------


def test_example_facets():
    g = example_graph()
    assert facet_names(g, build_pf(g)) == EXAMPLE_PF_FACETS
    assert facet_names(g, build_pm(g)) == EXAMPLE_PM_FACETS


def test_edgeless_complexes():
    g = edgeless_graph()
    assert build_pf(g) == irrelevant_complex()
    assert build_pm(g) == empty_complex()


def test_build_guard(monkeypatch):
    # The one guard of the builds is the face table's: 2^21 edge subsets
    # are over the limit of 2^20, refused before any table is allocated.
    g = parallel_graph(21)
    for build in (build_pm, build_pf, lambda g: build_pm_r(g, 2), lambda g: build_pf_r(g, 2)):
        with pytest.raises(ResourceLimitError,
                           match="^2\\^21 subsets exceed the enumeration limit of 1048576$"):
            build(g)
    monkeypatch.setattr(simplicial, "FACE_ENUMERATION_LIMIT", 8)
    with pytest.raises(ResourceLimitError):
        build_pm(example_graph())


def test_builds_match_member_oracles_on_random_multigraphs(multigraphs):
    # The builds read a reachability truth table; the member oracles run
    # one search per subset.
    for g in multigraphs:
        pm, pf = build_pm(g), build_pf(g)
        for k in range(len(g.edges) + 1):
            for f in combinations(g.edge_ids, k):
                mask = g.edge_mask(f)
                assert (mask in pm.faces) == pm_member(g, f), (g, f)
                assert (mask in pf.faces) == pf_member(g, f), (g, f)


def test_pm_build_needs_no_dual(monkeypatch):
    # The path-missing build reads reachability with each edge crossable
    # where it is removed, so with the Alexander dual broken it still
    # matches the member oracle, on the worked example (the corpus's first
    # graph) and on a seeded corpus.
    for module in (simplicial, pathcomplex):
        monkeypatch.setattr(module, "_dual", lambda x, n: (1 << (1 << n)) - 1)
    corpus = generate_corpus(CorpusSpec(100, seed=4))
    assert corpus[0] == example_graph()
    for g in corpus:
        pm = build_pm(g)
        for k in range(len(g.edges) + 1):
            for f in combinations(g.edge_ids, k):
                assert (g.edge_mask(f) in pm.faces) == pm_member(g, f), (g, f)


def test_r_one_reduces_to_plain_complexes(multigraphs):
    # The r-builds grow the table by Menger's step; the r-member oracles
    # run one augmenting-path flow per subset.
    for g in (example_graph(), parallel_graph(3), loop_graph(), path_graph(2), *multigraphs):
        assert build_pm_r(g, 1) == build_pm(g), g
        assert build_pf_r(g, 1) == build_pf(g), g
    for g in (g for g in multigraphs if len(g.edges) <= 9):
        subsets = [f for k in range(len(g.edges) + 1) for f in combinations(g.edge_ids, k)]
        for r in range(1, len(g.edges) + 2):
            pm, pf = build_pm_r(g, r), build_pf_r(g, r)
            for f in subsets:
                mask = g.edge_mask(f)
                assert (mask in pm.faces) == pm_member(g, f, r), (g, f, r)
                assert (mask in pf.faces) == pf_member(g, f, r), (g, f, r)


# -- f-polynomials by the frontier pass -----------------------------------------------


def test_fpoly_parallel2():
    g = parallel_graph(2)
    assert fpoly_pm_dc(g) == IntPolynomial([1, 2])
    assert fpoly_pf_dc(g) == IntPolynomial([1])


def test_fpoly_edgeless():
    g = edgeless_graph()
    assert fpoly_pm_dc(g).is_zero()
    assert fpoly_pf_dc(g) == IntPolynomial([1])


def test_fpoly_s_equals_t_bases():
    g = loop_graph()
    assert fpoly_pm_dc(g) == IntPolynomial([1, 1])
    assert fpoly_pf_dc(g).is_zero()


def test_fpoly_matches_enumeration_on_example():
    # Deleting edge 3 leaves a useless edge; the last two have cycles.
    for g in (example_graph(), example_graph().delete_edge(3),
              double_cycle_graph(), loop_graph()):
        assert fpoly_pm_dc(g) == build_pm(g).f_polynomial()
        assert fpoly_pf_dc(g) == build_pf(g).f_polynomial()


def test_fpoly_closed_forms_beyond_enumeration():
    n = 1500
    g = path_graph(n)
    assert fpoly_pm_dc(g) == IntPolynomial([1])
    assert fpoly_pf_dc(g) == IntPolynomial.one_plus_x_power(n) - IntPolynomial([1]).shift(n)
    k = 60
    g = parallel_graph(k)
    assert fpoly_pm_dc(g) == IntPolynomial.one_plus_x_power(k) - IntPolynomial([1]).shift(k)
    assert fpoly_pf_dc(g) == IntPolynomial([1])


def grid_text(n: int, rng=None) -> str:
    """Graph file of the n x n grid (right and down edges, corner to corner);
    with ``rng``, its vertex declarations and edge lines are shuffled."""
    name = lambda i, j: f"g{i}_{j}"
    vertices = [f"vertex {name(i, j)}" for i in range(n) for j in range(n)]
    edges = [f"edge e{k} {a} {b}" for k, (a, b) in enumerate(
        (name(i, j), name(i + di, j + dj)) for i in range(n) for j in range(n)
        for di, dj in ((0, 1), (1, 0)) if i + di < n and j + dj < n)]
    if rng is not None:
        rng.shuffle(vertices)
        rng.shuffle(edges)
    return "\n".join([*vertices, f"s {name(0, 0)}", f"t {name(n - 1, n - 1)}", *edges]) + "\n"


def rail_ladder_text(rungs: int, rng=None) -> str:
    """Two directed rails a, b joined by 2-cycle rungs, from a0 to the last b."""
    vertices = [f"vertex {r}{i}" for r in "ab" for i in range(rungs)]
    pairs = [(f"{r}{i}", f"{r}{i + 1}") for i in range(rungs - 1) for r in "ab"]
    pairs += [p for i in range(rungs) for p in ((f"a{i}", f"b{i}"), (f"b{i}", f"a{i}"))]
    edges = [f"edge e{k} {u} {v}" for k, (u, v) in enumerate(pairs)]
    if rng is not None:
        rng.shuffle(vertices)
        rng.shuffle(edges)
    return "\n".join([*vertices, "s a0", f"t b{rungs - 1}", *edges]) + "\n"


def test_fpoly_matches_enumeration_on_random_multigraphs():
    for g in random_multigraphs(11):
        assert fpoly_pm_dc(g) == build_pm(g).f_polynomial(), g


def subdivided_multigraphs(seed: int, count: int) -> list[Digraph]:
    """Random multigraphs on at most 6 vertices, every edge subdivided 1 to 4
    times (a run of 2 to 5 edges), at most 20 edges in all."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(1, 6)
        vertices, edges = list(range(n)), []
        while True:
            u, v, cuts = rng.randrange(n), rng.randrange(n), rng.randint(1, 4)
            if len(edges) + cuts + 1 > 20 or rng.random() < 0.1:
                break
            run = [u, *range(len(vertices), len(vertices) + cuts), v]
            vertices += run[1:-1]
            edges += zip(run, run[1:])
        graphs.append(Digraph.build(vertices, edges, rng.randrange(n), rng.randrange(n)))
    return graphs


def test_fpoly_matches_enumeration_on_subdivided_multigraphs():
    # Series reduction merges every run through vertices of one edge in and
    # one out into one edge; the build enumerates the original edge sets.
    graphs = subdivided_multigraphs(3, 300)
    assert sum(len(g.edges) > 12 for g in graphs) >= 50
    for g in graphs:
        assert fpoly_pm_dc(g) == build_pm(g).f_polynomial(), g
        assert fpoly_pf_dc(g) == build_pf(g).f_polynomial(), g


def test_fpoly_runs_on_no_simple_path():
    # x has one edge in and one out, so u -> x -> u is one run from u back to
    # u.  In the second graph only t enters the 2-cycle c <-> d, and the edges
    # into s and out of t are useless, so c and d are inner and no run
    # starts at either.  Neither cycle lies on a simple s-t-path.
    for g, want in ((Digraph.build("suxt", ["su", "ux", "xu", "ut"], "s", "t"), [1, 2, 1]),
                    (Digraph.build("stcd", ["st", "tc", "cd", "dc", "cs"], "s", "t"),
                     [1, 4, 6, 4, 1])):
        assert fpoly_pm_dc(g) == build_pm(g).f_polynomial() == IntPolynomial(want)


def test_parallel_runs_take_one_state(monkeypatch):
    # Twelve 3-edge runs from s to t: a removed set leaves a path unless it
    # cuts every run.  Without series reduction the inner vertices widen the
    # frontier to 2^12 - 1 states.
    runs, n = 12, 3
    vertices = ["s", "t", *(f"v{i}_{j}" for i in range(runs) for j in range(n - 1))]
    edges = [e for i in range(runs) for e in
             zip(["s", *(f"v{i}_{j}" for j in range(n - 1))],
                 [*(f"v{i}_{j}" for j in range(n - 1)), "t"])]
    g = Digraph.build(vertices, edges, "s", "t")
    monkeypatch.setattr(pathcomplex, "FRONTIER_STATE_LIMIT", 16)
    one = IntPolynomial([1])
    cut_all = one
    for _ in range(runs):
        cut_all *= IntPolynomial.one_plus_x_power(n) - one
    assert fpoly_pm_dc(g) == IntPolynomial.one_plus_x_power(runs * n) - cut_all


def test_fpoly_ignores_edge_and_vertex_order():
    rng = random.Random(5)
    for text, size in ((grid_text, 7), (rail_ladder_text, 10)):
        want = fpoly_pm_dc(parse_graph(text(size)))
        for _ in range(2):
            assert fpoly_pm_dc(parse_graph(text(size, rng))) == want


# sha256 of repr(list(coefficients)) of the n x n grids, computed by the
# deletion-contraction recursion that the frontier pass replaced.
GRID_FPOLY_SHA256 = {
    6: "638af6a973e0ebac10c7515af3bbe4d88220807af7116ba5c636c96ee5f7ac5b",
    7: "0f31fd840520fe0f9714dc8a2b820ffb2423712136a40586ad294fab5fe31374",
    8: "a5d5c8089bd9abad7955dd673ba673c05511faef2b50f55a5b5af87e2ea333fa",
}


@pytest.mark.parametrize("n", sorted(GRID_FPOLY_SHA256))
def test_fpoly_grid_polynomials_are_pinned(n):
    f = fpoly_pm_dc(parse_graph(grid_text(n)))
    # A face keeps at least one of the C(2n-2, n-1) monotone paths of 2n-2 edges.
    assert f.degree == 2 * n * (n - 1) - (2 * n - 2)
    assert f[f.degree] == math.comb(2 * n - 2, n - 1)
    assert hashlib.sha256(repr(list(f.coeffs)).encode()).hexdigest() == GRID_FPOLY_SHA256[n]


def test_fpoly_long_series_chain():
    # 1,200 parallel pairs in series: a face keeps an edge of every pair.
    n = 1200
    g = Digraph.build(range(n + 1), [(i, i + 1) for i in range(n) for _ in "ab"], 0, n)
    assert fpoly_pm_dc(g).evaluate(1) == 3 ** n


def test_frontier_state_guard(monkeypatch):
    # The 7x7 grid holds at most 2^7 - 1 = 127 states at once; in file
    # order, the breadth-first numbering keeps the bidirected 5x5 grid at 1,082.
    for g, peak in ((parse_graph(grid_text(7)), 127), (bidirected_grid(5), 1082)):
        monkeypatch.setattr(pathcomplex, "FRONTIER_STATE_LIMIT", peak)
        assert fpoly_pm_dc(g).evaluate(1) > 0
        monkeypatch.setattr(pathcomplex, "FRONTIER_STATE_LIMIT", peak - 1)
        with pytest.raises(ResourceLimitError,
                           match=f"^frontier states exceed the limit of {peak - 1}$"):
            fpoly_pm_dc(g)


# -- closed-form Euler characteristics ---------------------------------------------------


def test_chi_example_is_zero_with_cycle_tag():
    for report in (chi_pm_closed(example_graph()), chi_pf_closed(example_graph())):
        assert report.value == 0
        assert report.case_tag == CASE_USELESS_OR_CYCLE
        assert report.parity == "even"


def test_chi_parallel_battery():
    for k in range(1, 7):
        report = chi_pm_closed(parallel_graph(k))
        assert report.value == (-1) ** k
        assert report.case_tag == CASE_GENERIC_ACYCLIC
        assert report.parity == "odd"


def test_chi_path2():
    assert chi_pm_closed(path_graph(2)).value == -1
    assert chi_pf_closed(path_graph(2)).value == 1


def test_chi_edgeless():
    pm = chi_pm_closed(edgeless_graph())
    assert (pm.value, pm.case_tag) == (0, CASE_EMPTY_EDGE)
    pf = chi_pf_closed(edgeless_graph())
    assert (pf.value, pf.case_tag, pf.parity) == (-1, CASE_EMPTY_EDGE, "odd")


def test_chi_isolated_s_equals_t():
    g = Digraph.build(["s"], [], "s", "s")
    assert chi_pm_closed(g).value == -1  # the complex is {∅}
    assert chi_pf_closed(g).value == 0


def test_chi_closed_matches_brute_force_on_samples():
    for g in (example_graph(), parallel_graph(3), path_graph(4), loop_graph(),
              double_cycle_graph(), edgeless_graph(), example_graph().delete_edge(3)):
        assert chi_pm_closed(g).value == build_pm(g).reduced_euler_characteristic()
        assert chi_pf_closed(g).value == build_pf(g).reduced_euler_characteristic()


# sha256 of repr() of the list of (value, case tag, parity, homotopy class)
# for pm, then pf, of each graph of the corpus below, recorded when the closed
# forms still carried their own case analysis.
CLOSED_FORMS_SHA256 = "ea9e05fdfe641e043ddf50efb5f8f340d06a7b52411708bb9bf2d9ff1453e701"


def test_closed_forms_are_pinned():
    rows = []
    for g in generate_corpus(CorpusSpec(1500, max_vertices=7, max_edges=14, seed=9)):
        for chi, homotopy in ((chi_pm_closed, homotopy_pm), (chi_pf_closed, homotopy_pf)):
            report = chi(g)
            rows.append((report.value, report.case_tag, report.parity, homotopy(g).describe()))
    assert len(rows) == 2 * 1514
    assert all(type(row[0]) is int for row in rows)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == CLOSED_FORMS_SHA256


# -- homotopy classification --------------------------------------------------------------


def test_homotopy_example_contractible():
    assert homotopy_pm(example_graph()).kind == "contractible"
    assert homotopy_pf(example_graph()).kind == "contractible"


def test_homotopy_path2():
    assert homotopy_pm(path_graph(2)) == sphere(-1)
    assert build_pm(path_graph(2)) == irrelevant_complex((0, 1))
    assert homotopy_pf(path_graph(2)) == sphere(0)
    assert len(build_pf(path_graph(2)).faces) == 3


def test_homotopy_empty_cases():
    assert homotopy_pm(edgeless_graph()).kind == "empty"
    assert homotopy_pf(loop_graph()).kind == "empty"
    assert homotopy_pf(edgeless_graph()) == sphere(-1)


def test_homotopy_parallel_is_sphere():
    for k in range(1, 7):
        assert homotopy_pm(parallel_graph(k)) == sphere(k - 2)
        assert build_pm(parallel_graph(k)) == proper_subsets_complex(range(k))


def test_element_matchings_certify_the_homotopy_class():
    # Discrete Morse theory with the empty face as a cell: one critical cell
    # at size d + 1 makes a d-sphere, none a contractible complex, unless the
    # complex has no faces at all.  Ground or reversed order leaves at most
    # one cell on every complex here, and each such order must agree.
    checked = 0
    for spec in (CorpusSpec(200), CorpusSpec(2000, max_vertices=7, max_edges=12, seed=9)):
        for g in generate_corpus(spec):
            for c, cls in ((build_pm(g), homotopy_pm(g)), (build_pf(g), homotopy_pf(g))):
                n = len(c.ground)
                counts = [simplicial._critical_counts(c.table, n, order)
                          for order in (range(n), reversed(range(n)))]
                decided = [k for k in counts if sum(k) <= 1]
                assert decided, (g, cls, counts)
                for critical in decided:
                    if cls.kind == "sphere":
                        assert critical[cls.dim + 1] == 1, (g, cls, critical)
                    else:
                        assert sum(critical) == 0, (g, cls, critical)
                        assert c.is_empty() == (cls.kind == "empty"), (g, cls)
                checked += 1
    assert checked == 2 * (214 + 2014)


# -- divisibility -----------------------------------------------------------------------------


def test_divisibility_example():
    report = check_divisibility(example_graph())
    assert report.kappa == 1 and report.pm_ok and report.pf_ok


def test_divisibility_double_cycle():
    report = check_divisibility(double_cycle_graph())
    assert report.kappa == 2 and report.pm_ok and report.pf_ok


def test_divisibility_trivial_on_clean_dag():
    report = check_divisibility(path_graph(3))
    assert report.kappa == 0 and report.pm_ok and report.pf_ok


def test_divisibility_remainders_have_low_degree():
    report = check_divisibility(example_graph())
    assert report.pm_remainder.degree <= report.kappa
    assert report.pf_remainder.degree <= report.kappa


# -- r-generalization ---------------------------------------------------------------------------


def test_r_membership_on_triple_bundle():
    g = parallel_graph(3)
    assert pm_member(g, frozenset({0}), 2)
    assert not pm_member(g, frozenset({0, 1}), 2)
    assert pf_member(g, frozenset({0}), 2)
    assert not pf_member(g, frozenset({0, 1}), 1)


def test_r_membership_undoes_a_first_path():
    # The oracles' first search takes s-a-c-t, which blocks both disjoint
    # paths s-a-b-t and s-d-c-t: the second search must send its unit back
    # along a-c.  A search without residual arcs finds one path only.
    g = Digraph.build("sabcdt", [("a", "b"), ("s", "d"), ("s", "a"), ("c", "t"),
                                 ("b", "t"), ("a", "c"), ("d", "c")], "s", "t")
    assert pm_member(g, frozenset(), 2) and not pf_member(g, g.edge_ids, 2)
    assert 0 in build_pm_r(g, 2).faces and (1 << 7) - 1 not in build_pf_r(g, 2).faces


def test_r_membership_requires_positive_r():
    with pytest.raises(ValueError):
        pm_member(parallel_graph(2), frozenset(), 0)
    for build in (build_pm_r, build_pf_r):
        with pytest.raises(ValueError):
            build(parallel_graph(2), 0)


def test_r_membership_when_s_equals_t():
    g = loop_graph()
    assert pm_member(g, frozenset({0}), 5)
    assert not pf_member(g, frozenset(), 5)


def test_rgen_euler_characteristics():
    for k in range(1, 7):
        g = parallel_graph(k)
        for r in range(1, k + 1):
            chi_pf = build_pf_r(g, r).reduced_euler_characteristic()
            chi_pm = build_pm_r(g, r).reduced_euler_characteristic()
            assert chi_pf == (-1) ** r * math.comb(k - 1, r - 1)
            assert chi_pm == (-1) ** (k + r - 1) * math.comb(k - 1, r - 1)


def test_rgen_saturates_past_the_edge_count():
    # No edge set holds more than |E| edge-disjoint paths; with s = t
    # every edge set holds any number.
    for g in (example_graph(), parallel_graph(3), loop_graph(), edgeless_graph()):
        m = len(g.edges)
        full, empty = full_simplex(g.edge_ids), empty_complex(g.edge_ids)
        pf, pm = (empty, full) if g.s == g.t else (full, empty)
        assert build_pf_r(g, m + 1) == build_pf_r(g, 10 ** 9) == pf, g
        assert build_pm_r(g, m + 1) == build_pm_r(g, 10 ** 9) == pm, g


def test_rgen_complexes_are_downward_closed():
    g = example_graph()
    for r in (2, 3):
        build_pm_r(g, r).validate()
        build_pf_r(g, r).validate()


def test_rgen_leaves_the_trichotomy_at_r_two():
    # Graph 754 of CorpusSpec(2000, 7, 12, 9): acyclic, no useless edge.
    # At r = 2 neither complex is empty, contractible or a sphere: each has
    # homology in two degrees, and Alexander duality relates the two.
    g = Digraph.build(
        [f"v{k}" for k in range(6)],
        [("v0", "v2"), ("v1", "v2"), ("v0", "v3"), ("v0", "v2"), ("v5", "v0"),
         ("v2", "v3"), ("v0", "v3"), ("v1", "v0"), ("v1", "v3"), ("v1", "v5"),
         ("v5", "v0")], "v1", "v3")
    assert g.find_cycle() is None and not g.useless_edges()
    assert build_pm_r(g, 2).gf2_reduced_betti().entries == ((4, 2), (5, 1))
    assert build_pf_r(g, 2).gf2_reduced_betti().entries == ((3, 1), (4, 2))


def test_rgen_census_of_the_seed_nine_corpus(monkeypatch):
    # Every complex at r = 2 and 3 of the graphs of CorpusSpec(2000, 7, 12, 9)
    # with s != t and an edge, by its GF(2) homology.  A pin of what the
    # r-complexes are, not a claim: the trichotomy leaves them.
    eliminated = []
    by_elimination = simplicial._betti_by_elimination
    monkeypatch.setattr(simplicial, "_betti_by_elimination",
                        lambda c: eliminated.append(c) or by_elimination(c))

    def kind(c):
        if c.is_empty():
            return "no faces"
        betti = c.gf2_reduced_betti().entries
        if not betti:
            return "acyclic"
        if len(betti) > 1:
            return "several degrees"
        return "one class, rank 1" if betti[0][1] == 1 else "one degree, rank > 1"

    graphs = [g for g in generate_corpus(CorpusSpec(2000, 7, 12, 9)) if g.s != g.t and g.edges]
    census = {(r, which): Counter(kind(build(g, r)) for g in graphs)
              for r in (2, 3) for which, build in (("pm", build_pm_r), ("pf", build_pf_r))}
    assert len(graphs) == 1163 and len(eliminated) == 2
    rows = ("no faces", "acyclic", "one class, rank 1", "one degree, rank > 1",
            "several degrees")
    assert {key: tuple(c[k] for k in rows) for key, c in census.items()} == {
        (2, "pm"): (971, 186, 1, 4, 1),
        (2, "pf"): (0, 1157, 1, 4, 1),
        (3, "pm"): (1090, 68, 1, 4, 0),
        (3, "pf"): (0, 1158, 1, 4, 0),
    }


def test_rgen_builds_match_networkx_flow():
    nx = pytest.importorskip("networkx")

    def flow(g, kept):
        # Parallel edges merge into one arc with their count as capacity;
        # self-loops carry no s-t flow.  s = t admits unboundedly many paths.
        if g.s == g.t:
            return math.inf
        h = nx.DiGraph()
        h.add_nodes_from(g.vertices)
        for eid, u, v in g.edges:
            if eid in kept and u != v:
                cap = h[u][v]["capacity"] + 1 if h.has_edge(u, v) else 1
                h.add_edge(u, v, capacity=cap)
        return nx.maximum_flow_value(h, g.s, g.t)

    graphs = [g for g in generate_corpus(CorpusSpec(graph_count=60)) if len(g.edges) <= 8]
    # Breadth-first search first takes s-a-b-t; the second path must cancel
    # the flow on a-b, and a third search may not use a-b backwards.
    graphs.append(Digraph.build("saegbcft", [
        ("s", "a"), ("a", "b"), ("b", "t"), ("a", "c"), ("c", "t"), ("s", "e"),
        ("e", "b"), ("a", "f"), ("f", "t"), ("s", "g"), ("g", "b")], "s", "t"))
    for g in graphs:
        ids = frozenset(g.edge_ids)
        subsets = [frozenset(c) for k in range(len(ids) + 1)
                   for c in combinations(g.edge_ids, k)]
        value = {f: flow(g, f) for f in subsets}
        for r in (1, 2, 3):
            want_pm = SimplicialComplex.from_faces(
                g.edge_ids, [f for f in subsets if value[ids - f] >= r])
            want_pf = SimplicialComplex.from_faces(
                g.edge_ids, [f for f in subsets if value[f] < r])
            assert build_pm_r(g, r) == want_pm, (g, r)
            assert build_pf_r(g, r) == want_pf, (g, r)
