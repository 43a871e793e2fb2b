import random
from itertools import combinations
from math import comb

import pytest

from pathcomplexes import simplicial
from pathcomplexes.errors import ResourceLimitError
from pathcomplexes.pathcomplex import build_pf, build_pm
from pathcomplexes.polynomial import IntPolynomial
from pathcomplexes.simplicial import SimplicialComplex
from pathcomplexes.verify import CorpusSpec, example_graph, generate_corpus

from complexes import (empty_complex, full_simplex, irrelevant_complex,
                       proper_subsets_complex)

# The corpus of acceptance criterion 7; every graph has at most 8 edges.
CORPUS_SPEC = CorpusSpec(graph_count=500, seed=1)


def complex_of(*faces, ground):
    return SimplicialComplex.from_faces(ground, [frozenset(f) for f in faces])


def test_from_faces_validates():
    with pytest.raises(ValueError):
        complex_of({1, 2}, ground=(1, 2))  # missing subsets
    with pytest.raises(ValueError):
        complex_of((), {3}, ground=(1, 2))  # face outside ground
    with pytest.raises(ValueError):
        complex_of((), {2}, {7}, ground=(5, 2, 9))  # outside an unsorted ground
    # Bit f of a table marks the mask f: the one face here is {1, 2}.
    assert not SimplicialComplex((1, 2), 1 << 0b11).is_downward_closed()
    # {5, 9} on the ground (5, 2, 9) is bits 0 and 2.
    assert not SimplicialComplex((5, 2, 9), 1 << 0b101).is_downward_closed()


def test_empty_and_irrelevant_are_distinct():
    assert empty_complex((1,)) != irrelevant_complex((1,))
    assert empty_complex().is_empty()
    assert not irrelevant_complex().is_empty()


def test_deletion():
    c = complex_of((), {1}, {2}, {1, 2}, ground=(1, 2))
    assert c.deletion(2) == complex_of((), {1}, ground=(1,))
    assert complex_of((), {1}, ground=(1, 2)).deletion(1) == irrelevant_complex((2,))
    assert empty_complex((1, 2)).deletion(1) == empty_complex((2,))
    with pytest.raises(ValueError):
        c.deletion(3)
    # Ground neither sorted nor contiguous; removing the middle element
    # must shift the higher elements down, not lose them.
    c = complex_of((), {5}, {2}, {9}, {5, 2}, {2, 9}, {5, 9}, ground=(5, 2, 9))
    assert c.deletion(2) == complex_of((), {5}, {9}, {5, 9}, ground=(5, 9))
    assert c.deletion(2).facets() == [frozenset({5, 9})]
    assert c.deletion(9) == full_simplex((5, 2))
    assert c.deletion(5).ground == (2, 9)
    with pytest.raises(ValueError):
        c.deletion(7)


def test_link():
    assert full_simplex((1, 2, 3)).link(3) == full_simplex((1, 2))
    assert complex_of((), {1}, ground=(1, 2)).link(2) == empty_complex((1,))
    with pytest.raises(ValueError):
        empty_complex((1,)).link(9)
    c = complex_of((), {5}, {2}, {9}, {5, 2}, {2, 9}, ground=(5, 2, 9))
    assert c.link(2) == complex_of((), {5}, {9}, ground=(5, 9))
    assert c.link(5) == complex_of((), {2}, ground=(2, 9))
    assert c.link(9).facets() == [frozenset({2})]
    with pytest.raises(ValueError):
        c.link(3)


def test_link_matches_edge_deleted_graph():
    g = example_graph()
    pm = build_pm(g)
    c_edge = g.edge_ids[2]
    assert pm.link(c_edge) == build_pm(g.delete_edge(c_edge))


def test_star():
    fs = full_simplex((1, 2, 3))
    assert fs.star(2) == fs
    two_points = complex_of((), {1}, {2}, ground=(1, 2))
    assert two_points.star(1) == complex_of((), {1}, ground=(1, 2))
    assert empty_complex((1,)).star(1) == empty_complex((1,))


def test_is_cone_with_apex():
    g = example_graph().delete_edge(3)  # edge f (id 5) becomes useless
    assert build_pf(g).is_cone_with_apex(5)
    assert build_pm(g).is_cone_with_apex(5)
    assert not complex_of((), {1}, {2}, ground=(1, 2)).is_cone_with_apex(1)
    assert empty_complex((1, 2)).is_cone_with_apex(1)  # vacuous


def test_alexander_dual():
    g = example_graph()
    pm, pf = build_pm(g), build_pf(g)
    assert pf.alexander_dual() == pm
    assert pm.alexander_dual().alexander_dual() == pm
    assert full_simplex((1, 2)).alexander_dual() == empty_complex((1, 2))


def test_enumeration_guard():
    # 2^21 subsets are over the limit of 2^20: refused before enumerating.
    big = irrelevant_complex(range(21))
    message = "^2\\^21 subsets exceed the enumeration limit of 1048576$"
    with pytest.raises(ResourceLimitError, match=message):
        big.alexander_dual()
    with pytest.raises(ResourceLimitError, match=message):
        big.minimal_nonfaces()
    with pytest.raises(ResourceLimitError, match=message):
        big.facets()  # the face table spans the subsets too


def test_raw_table_guards():
    # Bit f of the table marks the mask f, so on n ground elements every set
    # bit lies below 2^n; one at or past it names a face off the ground set.
    for table in (1 << 4, 0b1111 | 1 << 4, 1 << 100):
        with pytest.raises(ValueError, match="^a face leaves the ground set$"):
            SimplicialComplex((1, 2), table).validate()
    SimplicialComplex((1, 2), 0b1111).validate()
    with pytest.raises(ResourceLimitError,
                       match="^2\\^21 subsets exceed the enumeration limit of 1048576$"):
        SimplicialComplex.from_faces(range(21), [()])


def test_f_polynomial():
    two_points = complex_of((), {1}, {2}, ground=(1, 2))
    assert two_points.f_polynomial() == IntPolynomial([1, 2])
    assert empty_complex((1,)).f_polynomial().is_zero()
    assert full_simplex(range(5)).f_polynomial() == IntPolynomial.one_plus_x_power(5)


def test_reduced_euler_characteristic():
    assert irrelevant_complex((1, 2)).reduced_euler_characteristic() == -1
    for k in range(1, 6):
        c = proper_subsets_complex(range(k))
        assert c.reduced_euler_characteristic() == (-1) ** k
    for n in range(1, 5):
        assert full_simplex(range(n)).reduced_euler_characteristic() == 0
    assert empty_complex().reduced_euler_characteristic() == 0


def test_euler_characteristic_is_minus_f_at_minus_one():
    for c in (build_pm(example_graph()), build_pf(example_graph()),
              proper_subsets_complex(range(4))):
        assert c.f_polynomial().evaluate(-1) == -c.reduced_euler_characteristic()


def test_suspension():
    sus = irrelevant_complex().suspension()
    assert sus == complex_of((), {0}, {1}, ground=(0, 1))
    hollow = empty_complex((0, 1)).suspension()
    assert hollow.is_empty() and len(hollow.ground) == 4
    for c in (build_pm(example_graph()), proper_subsets_complex(range(3))):
        assert (c.suspension().reduced_euler_characteristic()
                == -c.reduced_euler_characteristic())


def test_minimal_nonfaces():
    g = example_graph()
    want = {p.edge_set() for p in g.enumerate_st_paths()}
    assert set(build_pf(g).minimal_nonfaces()) == want
    assert full_simplex((1, 2)).minimal_nonfaces() == []
    assert empty_complex((1,)).minimal_nonfaces() == [frozenset()]


def test_codimension():
    g = example_graph()
    assert build_pf(g).codimension() == 2
    assert build_pm(g).codimension() == 2
    assert full_simplex((1, 2, 3)).codimension() == 0
    with pytest.raises(ValueError):
        empty_complex((1,)).codimension()


def test_facets():
    c = complex_of((), {1}, {2}, {1, 2}, {3}, ground=(1, 2, 3))
    assert c.facets() == [frozenset({3}), frozenset({1, 2})]
    assert irrelevant_complex((1,)).facets() == [frozenset()]


def face_sets(c):
    """The faces of c as frozensets of ground elements."""
    return {frozenset(x for i, x in enumerate(c.ground) if f >> i & 1) for f in c.faces}


def check_queries_against_sets(c):
    """The queries of c, which read its face table, against their
    definitions over frozensets of ground elements."""
    ground = frozenset(c.ground)
    faces = face_sets(c)
    subsets = [frozenset(s) for k in range(len(ground) + 1) for s in combinations(c.ground, k)]
    # The element operations and the counts are defined on any family.
    for w in c.ground:
        rest = tuple(x for x in c.ground if x != w)
        lk, dl, st = c.link(w), c.deletion(w), c.star(w)
        assert lk.ground == dl.ground == rest and st.ground == c.ground
        assert face_sets(lk) == {f - {w} for f in faces if w in f}
        assert face_sets(dl) == {f for f in faces if w not in f}
        assert face_sets(st) == {f for f in faces if f | {w} in faces}
        assert c.is_cone_with_apex(w) == all(f | {w} in faces for f in faces)
    sus = c.suspension()
    y = max(c.ground, default=-1) + 1
    assert sus.ground == c.ground + (y, y + 1)
    assert face_sets(sus) == {f | u for f in faces for u in (set(), {y}, {y + 1})}
    assert c.f_polynomial() == IntPolynomial(sum(len(f) == k for f in faces)
                                             for k in range(len(ground) + 1))
    assert c.reduced_euler_characteristic() == sum(1 if len(f) % 2 else -1 for f in faces)
    if faces:
        assert c.codimension() == len(ground) - max(map(len, faces))
    else:
        with pytest.raises(ValueError):
            c.codimension()
    assert c.is_downward_closed() == all(f - {x} in faces for f in faces for x in f)
    if not c.is_downward_closed():
        return
    # Under downward closure a face below another is below a face one larger.
    assert set(c.facets()) == {f for f in faces if not any(f | {x} in faces for x in ground - f)}
    dual = c.alexander_dual()
    assert dual.ground == c.ground
    assert face_sets(dual) == {ground - s for s in subsets if s not in faces}
    assert set(c.minimal_nonfaces()) == {s for s in subsets if s not in faces
                                         and all(s - {x} in faces for x in s)}


def test_queries_match_set_definitions():
    for ground in ((), (1, 2, 3)):
        check_queries_against_sets(empty_complex(ground))
        check_queries_against_sets(irrelevant_complex(ground))
    assert empty_complex().facets() == [] and empty_complex().minimal_nonfaces() == [frozenset()]
    assert irrelevant_complex().facets() == [frozenset()]
    assert irrelevant_complex().minimal_nonfaces() == []
    assert empty_complex().alexander_dual() == irrelevant_complex()
    # Ten ground elements: the faces and the table span more than one byte.
    rng = random.Random(3)
    ground = (7, 3, 12, 0, 5, 9, 1, 20, 4, 8)
    for _ in range(20):
        tops = [rng.sample(ground, rng.randint(0, 9)) for _ in range(rng.randint(1, 5))]
        family = {frozenset(s) for t in tops for k in range(len(t) + 1) for s in combinations(t, k)}
        c = complex_of(*family, ground=ground)
        assert face_sets(c) == family and c.table.bit_count() == len(family)
        check_queries_against_sets(c)
        broken = SimplicialComplex(c.ground, c.table & ~1) if len(c.faces) > 1 else c
        check_queries_against_sets(broken)
    check_queries_against_sets(proper_subsets_complex(ground))


def test_from_faces_rejects_a_missing_drop_of_the_highest_bit():
    # Every subset of ten elements but the one that lacks only the last;
    # the full set is a face, so its drop of the highest bit is missing.
    ground = tuple(range(10))
    faces = [s for k in range(11) for s in combinations(ground, k) if s != ground[:-1]]
    with pytest.raises(ValueError, match="^face family is not downward closed$"):
        SimplicialComplex.from_faces(ground, faces)
    assert SimplicialComplex.from_faces(ground, faces + [ground[:-1]]) == full_simplex(ground)


def test_gf2_betti_on_spheres_and_cones():
    zero_sphere = complex_of((), {1}, {2}, ground=(1, 2))
    assert zero_sphere.gf2_reduced_betti().entries == ((0, 1),)
    one_sphere = proper_subsets_complex((1, 2, 3))
    assert one_sphere.gf2_reduced_betti().entries == ((1, 1),)
    assert full_simplex((1, 2, 3)).gf2_reduced_betti().entries == ()
    assert irrelevant_complex((1,)).gf2_reduced_betti().entries == ((-1, 1),)
    assert empty_complex((1,)).gf2_reduced_betti().entries == ()


def test_gf2_betti_guard(monkeypatch):
    # 2^20 faces is too many to build here, so lower the limit the call reads.
    monkeypatch.setattr(simplicial, "FACE_ENUMERATION_LIMIT", 8)
    assert full_simplex(range(3)).gf2_reduced_betti().entries == ()
    with pytest.raises(ResourceLimitError,
                       match="^16 faces exceed the homology limit of 8$"):
        full_simplex(range(4)).gf2_reduced_betti()


def test_gf2_betti_matches_elimination_on_corpus_complexes():
    # Every pm and pf complex of a corpus with up to 12 edges, against the
    # boundary-matrix elimination that the matchings fall back to.
    spec = CorpusSpec(graph_count=300, max_vertices=7, max_edges=12, seed=3)
    complexes = [build(g) for g in generate_corpus(spec) for build in (build_pm, build_pf)]
    assert max(len(c.ground) for c in complexes) == 12
    for c in complexes:
        assert c.gf2_reduced_betti() == simplicial._betti_by_elimination(c), c


def random_closed_complex(rng):
    """The downward closure of a few random sets on at most 8 elements."""
    n = rng.randint(0, 8)
    quarter = lambda: rng.getrandbits(n) & rng.getrandbits(n)  # each element with chance 1/4
    table = 0
    for _ in range(rng.randint(0, 10)):
        top = sub = quarter() | quarter()
        while True:
            table |= 1 << sub
            if not sub:
                break
            sub = (sub - 1) & top
    return SimplicialComplex(tuple(range(n)), table)


def test_gf2_betti_matches_elimination_on_random_complexes(monkeypatch):
    eliminate = simplicial._betti_by_elimination
    fallbacks = []
    monkeypatch.setattr(simplicial, "_betti_by_elimination",
                        lambda c: fallbacks.append(c) or eliminate(c))
    rng = random.Random(18)
    for _ in range(3000):
        c = random_closed_complex(rng)
        c.validate()
        assert c.gf2_reduced_betti() == eliminate(c), c
    # Both the matchings and the fallback decided some of them.
    assert 0 < len(fallbacks) < 300


def test_worked_example_needs_the_reversed_order(monkeypatch):
    # In the ground order the critical cells of pm sit at sizes 2 and 3 and
    # those of pf at sizes 3 and 4; in the reversed order none is left, so
    # both complexes are decided without elimination.
    g = example_graph()
    for c, ground_order in ((build_pm(g), [0, 0, 1, 1, 0, 0, 0, 0]),
                            (build_pf(g), [0, 0, 0, 1, 1, 0, 0, 0])):
        n = len(c.ground)
        assert simplicial._critical_counts(c.table, n, range(n)) == ground_order
        assert simplicial._critical_counts(c.table, n, reversed(range(n))) == [0] * (n + 1)

    def refuse(c):
        raise AssertionError("elimination ran")

    monkeypatch.setattr(simplicial, "_betti_by_elimination", refuse)
    assert build_pm(g).gf2_reduced_betti().entries == ()
    assert build_pf(g).gf2_reduced_betti().entries == ()


def test_undecided_complex_falls_back_to_elimination(monkeypatch):
    # The triangle boundary plus an isolated point: both orders leave
    # critical cells in two consecutive degrees.
    c = complex_of((), {0}, {1}, {2}, {3}, {0, 1}, {0, 2}, {1, 2}, ground=(0, 1, 2, 3))
    for order in (range(4), reversed(range(4))):
        critical = simplicial._critical_counts(c.table, 4, order)
        assert any(a and b for a, b in zip(critical, critical[1:]))
    eliminate = simplicial._betti_by_elimination
    fallbacks = []
    monkeypatch.setattr(simplicial, "_betti_by_elimination",
                        lambda c: fallbacks.append(c) or eliminate(c))
    assert c.gf2_reduced_betti().entries == ((0, 1), (1, 1))
    assert fallbacks == [c]


def _alternating_sum(betti) -> int:
    """Sum of (-1)^d * betti(d), which is the reduced Euler characteristic."""
    return sum(b if d % 2 == 0 else -b for d, b in betti.entries)


def test_betti_vector_alternating_sum():
    for c in (proper_subsets_complex(range(4)), irrelevant_complex((1,)),
              build_pm(example_graph())):
        assert (_alternating_sum(c.gf2_reduced_betti())
                == c.reduced_euler_characteristic())


# -- generic identities over the corpus complexes ---------------------------------
#
# These hold for every simplicial complex; each test runs one of them over
# the path-missing and path-free complexes of every corpus graph.


@pytest.fixture(scope="module")
def corpus_complexes():
    """(label, complex) for the pm and pf complexes of every corpus graph."""
    return [(f"graph {i} {name}", build(g))
            for i, g in enumerate(generate_corpus(CORPUS_SPEC))
            for name, build in (("pm", build_pm), ("pf", build_pf))]


def test_corpus_queries_match_set_definitions(corpus_complexes):
    for name, c in corpus_complexes:
        check_queries_against_sets(c)
        if len(c.faces) > 1:  # without the empty face, a family is not closed
            check_queries_against_sets(SimplicialComplex(c.ground, c.table & ~1))


def test_corpus_dual_involution(corpus_complexes):
    for name, c in corpus_complexes:
        assert c.alexander_dual().alexander_dual() == c, name


def test_corpus_facets_complement_dual_nonfaces(corpus_complexes):
    for name, c in corpus_complexes:
        gset = frozenset(c.ground)
        want = {gset - n for n in c.alexander_dual().minimal_nonfaces()}
        assert set(c.facets()) == want, name


def test_corpus_deletion_star_partition(corpus_complexes):
    for name, c in corpus_complexes:
        for i, w in enumerate(c.ground):
            dl, st, lk = c.deletion(w), c.star(w), c.link(w)
            # Deletion and link live on the ground without w: put bit i back.
            low = (1 << i) - 1
            dl_faces, lk_faces = ({(f & low) | ((f & ~low) << 1) for f in x.faces}
                                  for x in (dl, lk))
            assert dl_faces | st.faces == c.faces, (name, w)
            assert dl_faces & st.faces == lk_faces, (name, w)
            assert st.is_cone_with_apex(w), (name, w)
            assert sum(1 for f in c.faces if f >> i & 1) == len(lk.faces), (name, w)


def test_corpus_fpoly_deletion_link_recursion(corpus_complexes):
    for name, c in corpus_complexes:
        f = c.f_polynomial()
        for w in c.ground:
            split = c.deletion(w).f_polynomial() + c.link(w).f_polynomial().shift()
            assert f == split, (name, w)


def test_corpus_fpoly_cone_factor(corpus_complexes):
    fired = 0
    for name, c in corpus_complexes:
        for w in c.ground:
            if not c.is_cone_with_apex(w):
                continue
            fired += 1
            lk = c.link(w)
            assert c.deletion(w) == lk, (name, w)
            assert c.f_polynomial() == lk.f_polynomial() * IntPolynomial((1, 1)), (name, w)
    assert fired


def test_corpus_fpoly_dual_coefficients(corpus_complexes):
    for name, c in corpus_complexes:
        n = len(c.ground)
        f = c.f_polynomial()
        fd = c.alexander_dual().f_polynomial()
        for k in range(n + 1):
            assert fd[k] == comb(n, k) - f[n - k], (name, k)


def test_corpus_chi_deletion_link_recursion(corpus_complexes):
    for name, c in corpus_complexes:
        chi = c.reduced_euler_characteristic()
        for w in c.ground:
            assert chi == (c.deletion(w).reduced_euler_characteristic()
                           - c.link(w).reduced_euler_characteristic()), (name, w)


def test_corpus_chi_dual_sign(corpus_complexes):
    for name, c in corpus_complexes:
        n = len(c.ground)
        if n == 0:
            continue
        lhs = c.alexander_dual().reduced_euler_characteristic()
        assert lhs == (-1) ** (n - 1) * c.reduced_euler_characteristic(), name


def test_corpus_chi_boundary_sphere(corpus_complexes):
    for name, c in corpus_complexes:
        if c.ground:
            sphere = proper_subsets_complex(c.ground)
            assert sphere.reduced_euler_characteristic() == (-1) ** len(c.ground), name


def test_corpus_chi_full_simplex(corpus_complexes):
    for name, c in corpus_complexes:
        if c.ground:
            assert full_simplex(c.ground).reduced_euler_characteristic() == 0, name


def test_corpus_chi_cone_vanishes(corpus_complexes):
    fired = 0
    for name, c in corpus_complexes:
        if any(c.is_cone_with_apex(w) for w in c.ground):
            fired += 1
            assert c.reduced_euler_characteristic() == 0, name
    assert fired


def test_corpus_chi_equals_betti_alternating_sum(corpus_complexes):
    for name, c in corpus_complexes:
        assert (c.reduced_euler_characteristic()
                == _alternating_sum(c.gf2_reduced_betti())), name


def test_corpus_suspension_negates_chi(corpus_complexes):
    for name, c in corpus_complexes:
        assert (c.suspension().reduced_euler_characteristic()
                == -c.reduced_euler_characteristic()), name
