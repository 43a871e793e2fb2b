from itertools import combinations

import pytest

from pathcomplexes import grapes
from pathcomplexes.errors import ResourceLimitError
from pathcomplexes.grapes import (BaseCase, ConeWitness, SandwichWitness,
                                  Split, is_combinatorial_grape,
                                  is_strong_grape, replay_certificate,
                                  source_apex_strong_certificate)
from pathcomplexes.pathcomplex import build_pf, build_pm
from pathcomplexes.simplicial import SimplicialComplex, _patterns
from pathcomplexes.verify import (CorpusSpec, double_cycle_graph,
                                  example_graph, fixture_battery,
                                  generate_corpus, parallel_graph)

import grape_reference as reference
from complexes import empty_complex, full_simplex, irrelevant_complex
from families import grid_graph


def projective_plane():
    """Six-vertex triangulation of the real projective plane."""
    triangles = [(1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
                 (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6)]
    faces = set()
    for tri in triangles:
        for k in range(4):
            faces.update(frozenset(c) for c in combinations(tri, k + 1))
    faces.add(frozenset())
    return SimplicialComplex.from_faces(range(1, 7), faces)


def test_tiny_ground_is_always_a_grape():
    for c in (empty_complex(), irrelevant_complex(), empty_complex((7,)),
              irrelevant_complex((7,)), full_simplex((7,))):
        cert = is_strong_grape(c)
        assert isinstance(cert, BaseCase)
        assert replay_certificate(cert, c)
        assert is_combinatorial_grape(c) is not None


def test_full_simplex_is_a_grape_both_ways():
    c = full_simplex((1, 2, 3))
    for recognize in (is_strong_grape, is_combinatorial_grape):
        cert = recognize(c)
        assert cert is not None and replay_certificate(cert, c)


def test_degenerate_families_on_larger_ground():
    # Neither ∅ nor {∅} hits the base clause on ground size 2; the split
    # clause must carry them.
    for c in (empty_complex((1, 2)), irrelevant_complex((1, 2))):
        cert = is_strong_grape(c)
        assert isinstance(cert, Split)
        assert replay_certificate(cert, c)


def test_sandwich_witness_flags_vacuous_pass():
    cert = is_combinatorial_grape(irrelevant_complex((1, 2)))
    assert isinstance(cert, Split)
    assert isinstance(cert.side_condition, SandwichWitness)
    assert cert.side_condition.vacuous


def test_example_complexes_are_strong_grapes():
    g = example_graph()
    for c in (build_pm(g), build_pf(g)):
        cert = is_strong_grape(c)
        assert cert is not None and replay_certificate(cert, c)


def test_strong_implies_combinatorial_on_fixtures():
    for g in fixture_battery():
        for c in (build_pm(g), build_pf(g)):
            if is_strong_grape(c) is not None:
                comb_cert = is_combinatorial_grape(c)
                assert comb_cert is not None and replay_certificate(comb_cert, c)


def test_projective_plane_is_not_a_grape():
    c = projective_plane()
    # Sanity: this is the right complex (one GF(2) class each in dims 1, 2).
    assert c.gf2_reduced_betti().entries == ((1, 1), (2, 1))
    assert is_strong_grape(c) is None
    assert is_combinatorial_grape(c) is None


def test_sandwich_witness_matches_the_face_rule():
    # The table test against its definition: the first element b such that
    # every link face with b added is a deletion face.  The pairs are the
    # link and the deletion at each apex in the top complex's layout, taken
    # both ways round, so the second need not contain the first, and also
    # with the empty face dropped from the first, which leaves it not
    # closed; the rule reads the faces of the squeezed complexes.  On the
    # closed pairs, replay's verdict on each element is held to the same
    # rule: a fresh apex -1 puts x under y as link over deletion, over
    # children certified by the combinatorial search, so only the sandwich
    # step decides.
    def rule(link, deletion, i):
        return all(f | 1 << i in deletion.faces for f in link.faces)

    def by_faces(link, deletion):
        for i, b in enumerate(deletion.ground):
            if rule(link, deletion, i):
                return SandwichWitness(b, vacuous=not link.faces)
        return None

    checked = replayed = 0
    for g in generate_corpus(CorpusSpec(graph_count=120, seed=2)):
        for c in (build_pm(g), build_pf(g)):
            n = len(c.ground)
            pats = _patterns(n)
            for i, a in enumerate(c.ground):
                rest = (1 << n) - 1 ^ 1 << i
                tables = grapes._split(c.table, i, pats[i])
                squeezed = c.link(a), c.deletion(a)
                for (x, y), (cx, cy) in ((tables, squeezed), (tables[::-1], squeezed[::-1])):
                    for z, cz in ((x, cx), (x & ~1, SimplicialComplex(cx.ground, cx.table & ~1))):
                        got = grapes._sandwich(c.ground, pats, rest, z, y)
                        assert got == by_faces(cz, cy), (g, a)
                        checked += 1
                    above = SimplicialComplex((*cx.ground, -1),
                                              cy.table | cx.table << (1 << len(cx.ground)))
                    children = is_combinatorial_grape(cx), is_combinatorial_grape(cy)
                    assert replay_certificate(children[0], cx)
                    assert replay_certificate(children[1], cy)
                    for j, b in enumerate(cx.ground):
                        cert = Split(-1, *children, SandwichWitness(b, vacuous=not cx.faces))
                        assert replay_certificate(cert, above) == rule(cx, cy, j), (g, a, b)
                        replayed += 1
    assert checked > 4000 and replayed > 8000


def test_replay_visits_each_shared_node_once(monkeypatch):
    # The search memo shares subtrees, so the 3x3 grid's strong certificate
    # for pm is a DAG with far more paths than distinct nodes.  Replay must
    # take one link and one deletion, one ``_split``, per distinct (node,
    # complex) split; the walk below counts them on squeezed complexes.
    c = build_pm(grid_graph(3, 3))
    cert = is_strong_grape(c)
    paths, splits = 0, set()

    def walk(node, sub):
        nonlocal paths
        paths += 1
        if isinstance(node, Split):
            splits.add((id(node), sub.ground, sub.table))
            walk(node.link_child, sub.link(node.apex))
            walk(node.deletion_child, sub.deletion(node.apex))

    walk(cert, c)
    assert paths > 10 * len(splits)
    calls = 0
    split = grapes._split

    def counted(*args):
        nonlocal calls
        calls += 1
        return split(*args)

    monkeypatch.setattr(grapes, "_split", counted)
    assert replay_certificate(cert, c)
    assert calls == len(splits)


def test_replay_rejects_mismatched_certificates():
    g = example_graph()
    pm = build_pm(g)
    cert = is_strong_grape(pm)
    assert isinstance(cert, Split)
    # Wrong base case
    assert not replay_certificate(BaseCase((1, 2)), pm)
    # Apex outside the ground set
    broken = Split(99, cert.link_child, cert.deletion_child, cert.side_condition)
    assert not replay_certificate(broken, pm)
    # Forged cone witness
    forged = Split(cert.apex, cert.link_child, cert.deletion_child,
                   ConeWitness("link", 99))
    assert not replay_certificate(forged, pm)
    # One child object in both places: the link and the deletion share
    # their ground, so only the face table tells the two replays apart.
    assert not replay_certificate(cert.link_child, pm.deletion(cert.apex))
    shared = Split(cert.apex, cert.link_child, cert.link_child, cert.side_condition)
    assert not replay_certificate(shared, pm)


def test_replay_rejects_forged_side_conditions():
    # Each forgery keeps the valid children and its element on the ground
    # set, so only the side-condition test can reject it.
    pm = build_pm(example_graph())
    cert = is_strong_grape(pm)
    assert isinstance(cert, Split) and replay_certificate(cert, pm)
    link, deletion = pm.link(cert.apex), pm.deletion(cert.apex)

    def forge(side):
        return Split(cert.apex, cert.link_child, cert.deletion_child, side)

    for name, child in (("link", link), ("deletion", deletion)):
        not_apexes = [w for w in child.ground if not child.is_cone_with_apex(w)]
        assert not_apexes
        for w in not_apexes:
            assert not replay_certificate(forge(ConeWitness(name, w)), pm), (name, w)
    failing = [b for i, b in enumerate(deletion.ground)
               if not all(f | 1 << i in deletion.faces for f in link.faces)]
    assert failing and link.faces
    for b in failing:
        assert not replay_certificate(forge(SandwichWitness(b)), pm), b
    # A sandwich step whose vacuous flag is flipped, on a nonempty link and
    # on an empty one.
    for c in (pm, irrelevant_complex((1, 2))):
        comb = is_combinatorial_grape(c)
        assert isinstance(comb.side_condition, SandwichWitness)
        assert replay_certificate(comb, c)
        side = comb.side_condition
        flipped = SandwichWitness(side.element, vacuous=not side.vacuous)
        assert not replay_certificate(
            Split(comb.apex, comb.link_child, comb.deletion_child, flipped), c)


def test_ground_limit_guard():
    assert is_strong_grape(irrelevant_complex(range(12))) is not None
    assert is_combinatorial_grape(irrelevant_complex(range(12))) is not None
    message = "^ground size 13 exceeds the grape search limit of 12$"
    with pytest.raises(ResourceLimitError, match=message):
        is_strong_grape(irrelevant_complex(range(13)))
    with pytest.raises(ResourceLimitError, match=message):
        is_combinatorial_grape(irrelevant_complex(range(13)))
    g = parallel_graph(13)
    with pytest.raises(ResourceLimitError, match=message):
        source_apex_strong_certificate(g, irrelevant_complex(g.edge_ids), "pm")


def test_source_apex_restricted_search_succeeds():
    for g in (example_graph(), double_cycle_graph()):
        for which, c in (("pm", build_pm(g)), ("pf", build_pf(g))):
            cert = source_apex_strong_certificate(g, c, which)
            assert cert is not None and replay_certificate(cert, c)
            # The top-level apex is the promised non-useless source edge.
            useless = g.useless_edges()
            wanted = min(eid for eid, u, _ in g.edges
                         if u == g.s and eid not in useless)
            assert isinstance(cert, Split) and cert.apex == wanted


CORPORA = [CorpusSpec(graph_count=200, seed=1), CorpusSpec(graph_count=200, seed=9)]


@pytest.mark.parametrize("spec", CORPORA, ids=lambda spec: f"seed{spec.seed}")
def test_searches_match_the_squeezing_reference(spec):
    # The three searches on the top complex's face table against the
    # reference that squeezes every link and deletion into a new complex
    # and walks graph minors: the same certificate, to the last repr byte.
    for g in generate_corpus(spec):
        for which, build in (("pm", build_pm), ("pf", build_pf)):
            c = build(g)
            pairs = ((is_strong_grape(c), reference.search(c, reference.cone_witness)),
                     (is_combinatorial_grape(c), reference.search(c, reference.sandwich_witness)),
                     (source_apex_strong_certificate(g, c, which),
                      reference.minor_walk(g, c, which)))
            for got, want in pairs:
                assert want is not None and repr(got) == repr(want), (g, which)


def test_source_apex_walk_hands_down_the_minor_complexes():
    # Each node of the reference walk takes the link or the deletion of its
    # parent as the complex of its graph, which is G minus e or G/e;
    # enumerate that minor's complex independently at every node and compare.
    nodes = 0
    # The corpus of acceptance criterion 7: at most 8 edges per graph, all
    # within the grape search limit.
    corpus = generate_corpus(CorpusSpec(graph_count=500, seed=1))
    for g in corpus:
        for which, build in (("pm", build_pm), ("pf", build_pf)):

            def visit(h, c):
                nonlocal nodes
                nodes += 1
                assert c == build(h), (g, h)

            c = build(g)
            cert = reference.minor_walk(g, c, which, visit)
            assert cert is not None and replay_certificate(cert, c)
    assert nodes > 2 * len(corpus)  # the walk went below its roots


def test_source_cone_apexes_are_the_useless_edges():
    # The lemma behind the walk's pivot rule: on every minor the walk
    # reaches, in either order of deleting and contracting, the edges out of
    # s that are cone apexes of the path-missing complex, and those of the
    # path-free complex, are exactly the useless edges out of s.
    minors = 0
    corpus = generate_corpus(CorpusSpec(graph_count=500, seed=1))
    for g in corpus:
        todo = [g]
        while todo:
            h = todo.pop()
            minors += 1
            useless = h.useless_edges()
            out = [eid for eid, u, _ in h.edges if u == h.s]
            for c in (build_pm(h), build_pf(h)):
                assert {e for e in out if c.is_cone_with_apex(e)} == useless & set(out), h
            useful = [e for e in out if e not in useless]
            if useful:
                todo += [h.delete_edge(useful[0]), h.contract_edge(useful[0])]
    assert minors > 2 * len(corpus)
