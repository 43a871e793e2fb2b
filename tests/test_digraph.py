import math
import random
from collections import Counter, defaultdict
from itertools import combinations, islice, product
from typing import Iterator

import pytest

from pathcomplexes.digraph import QUASI_CYCLE_PACKING_LIMIT, Digraph, Walk
from pathcomplexes.errors import ResourceLimitError
from pathcomplexes.pathcomplex import build_pf_r, build_pm_r
from pathcomplexes.verify import (CorpusSpec, double_cycle_graph,
                                  edgeless_graph, example_graph,
                                  generate_corpus, loop_graph, parallel_graph,
                                  path_graph)

from families import bidirected_grid, grid_graph
from members import pf_member, pm_member


def edge_names(g, ids):
    labels = g.label_map()
    return sorted(labels[e] for e in ids)


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        Digraph.build(["s"], [("s", "x")], "s", "s")  # undeclared target
    with pytest.raises(ValueError):
        Digraph.build(["s", "t"], [], "s", "x")  # undeclared t
    with pytest.raises(ValueError):
        Digraph(("s", "s"), (), "s", "s")  # duplicate vertex
    with pytest.raises(ValueError):
        Digraph(("s", "t"), ((0, "s", "t"), (0, "s", "t")), "s", "t")  # dup id


def test_s_equal_t_is_allowed():
    g = Digraph.build(["s"], [], "s", "s")
    assert g.has_st_path()


# -- deletion ------------------------------------------------------------------


def test_delete_edge_makes_f_useless_in_example():
    g = example_graph()
    d = g.edge_ids[3]  # label "d"
    assert edge_names(g.delete_edge(d), g.delete_edge(d).useless_edges()) == ["f"]


def test_delete_only_edge_disconnects():
    g = parallel_graph(1).delete_edge(0)
    assert g.edges == ()
    assert not g.has_st_path()


def test_delete_from_parallel_bundle():
    g = parallel_graph(3).delete_edge(1)
    assert len(g.edges) == 2
    assert g.edge_ids == (0, 2)  # surviving ids are not renumbered


def test_delete_unknown_edge():
    with pytest.raises(ValueError):
        example_graph().delete_edge(99)


# -- contraction ----------------------------------------------------------------


def test_contract_first_edge_of_path():
    g = path_graph(2).contract_edge(0)
    assert g.s == "s" and g.t == "t"
    assert g.edges == ((1, "s", "t"),)


def test_contract_example_edge_a():
    g = example_graph().contract_edge(0)
    # s and p merge into s; b now starts at the merged vertex
    assert g.vertices == ("s", "q", "r", "t")
    assert g.edges == ((1, "s", "r"), (2, "r", "t"), (3, "s", "q"),
                       (4, "q", "t"), (5, "q", "s"), (6, "r", "q"))
    assert (g.s, g.t) == ("s", "t")


def test_contract_self_loop_is_deletion():
    g = Digraph.build(["s", "t"], [("s", "s"), ("s", "t")], "s", "t")
    assert g.contract_edge(0) == g.delete_edge(0)


def test_contract_s_to_t_edge_merges_roles():
    g = parallel_graph(2).contract_edge(0)
    assert g.s == g.t


def test_contract_unknown_edge():
    with pytest.raises(ValueError):
        example_graph().contract_edge(99)


def minors(g: Digraph) -> Iterator[Digraph]:
    """Every deletion and every contraction of one edge of g."""
    for e in g.edge_ids:
        yield g.delete_edge(e)
        yield g.contract_edge(e)


def test_minors_pass_the_public_constructor():
    # Minors skip the constructor's checks; rebuilding each one through it
    # re-runs them, and must give the same graph.
    count = 0
    for g in generate_corpus(CorpusSpec(graph_count=200)):
        for h in minors(g):
            assert h == Digraph(h.vertices, h.edges, h.s, h.t, h.edge_labels), (g, h)
            count += 1
    assert count > 1000


# -- path enumeration --------------------------------------------------------------


def test_example_paths_in_lexicographic_order():
    g = example_graph()
    labels = g.label_map()
    got = ["".join(labels[e] for e in p.edges) for p in g.enumerate_st_paths()]
    assert got == ["abc", "abge", "de", "dfbc"]


def test_trivial_path_when_s_equals_t():
    g = loop_graph()
    assert g.enumerate_st_paths() == [Walk(("s",), ())]


def test_no_paths_in_edgeless_graph():
    assert edgeless_graph().enumerate_st_paths() == []


def test_path_witness_shape():
    for p in example_graph().enumerate_st_paths():
        assert len(p.vertices) == len(p.edges) + 1
        assert p.vertices[0] == "s" and p.vertices[-1] == "t"
        assert len(set(p.vertices)) == len(p.vertices)


def test_has_st_path():
    assert example_graph().has_st_path()
    assert loop_graph().has_st_path()
    assert not Digraph.build(["s", "t"], [], "s", "t").has_st_path()


def test_has_st_path_within_matches_subgraph():
    # ``pf_member`` runs its own augmenting-path search: the ids hold an
    # s-t-path iff they are not path-free.  Every edge subset of the example
    # and of a corpus.
    graphs = [example_graph()] + generate_corpus(CorpusSpec(graph_count=200, seed=4))
    for g in graphs:
        for k in range(len(g.edges) + 1):
            for ids in combinations(g.edge_ids, k):
                assert g.has_st_path_within(ids) == (not pf_member(g, ids)), (g, ids)


# -- useless edges, cycles, nonsinks ----------------------------------------------


def test_has_st_path_within_rejects_unknown_ids():
    g = example_graph()
    with pytest.raises(ValueError):
        g.has_st_path_within({42})
    with pytest.raises(ValueError):
        g.has_st_path_within(set(g.edge_ids) | {42})


def test_example_has_no_useless_edges():
    assert example_graph().useless_edges() == frozenset()


def test_self_loop_is_useless():
    g = Digraph.build(["s", "t"], [("s", "t"), ("s", "s")], "s", "t")
    assert 1 in g.useless_edges()


def test_find_cycle_on_example():
    cycle = example_graph().find_cycle()
    assert cycle is not None and cycle.vertices[0] == cycle.vertices[-1]
    assert edge_names(example_graph(), cycle.edge_set()) == ["b", "f", "g"]


def test_find_cycle_absent_on_dag():
    assert path_graph(2).find_cycle() is None


def test_self_loop_counts_as_cycle():
    g = Digraph.build(["s", "t"], [("s", "t"), ("t", "t")], "s", "t")
    cycle = g.find_cycle()
    assert cycle is not None and cycle.edge_set() == frozenset({1})


def random_multigraph(rng: random.Random) -> Digraph:
    """Up to 6 vertices with self-loops, parallel twins and possibly s = t."""
    names = [f"v{i}" for i in range(rng.randint(1, 6))]
    edges = []
    for _ in range(rng.randint(0, 12)):
        u = rng.choice(names)
        v = u if rng.random() < 0.15 else rng.choice(names)
        edges += [(u, v)] * (2 if rng.random() < 0.2 else 1)
    return Digraph.build(names, edges, rng.choice(names), rng.choice(names))


def test_cycles_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(4)
    graphs = generate_corpus(CorpusSpec(graph_count=200))
    graphs += [random_multigraph(rng) for _ in range(300)]
    for g in graphs:
        parallel = defaultdict(list)
        for eid, u, v in g.edges:
            parallel[u, v].append(eid)
        simple = nx.DiGraph(list(parallel))
        simple.add_nodes_from(g.vertices)
        # A vertex cycle stands for one edge cycle per choice of parallel edges.
        want = [frozenset(es) for cyc in nx.simple_cycles(simple)
                for es in product(*(parallel[u, v]
                                    for u, v in zip(cyc, cyc[1:] + cyc[:1])))]
        got = list(g._simple_cycle_edge_sets())
        assert len(got) == len(want) and set(got) == set(want)
        cycle = g.find_cycle()
        assert (cycle is None) == nx.is_directed_acyclic_graph(simple)
        if cycle is not None:
            assert cycle.edge_set() in set(got)
            vs = cycle.vertices
            # A closed walk: it ends where it starts and repeats no other vertex.
            assert vs[0] == vs[-1] and len(set(vs[1:])) == len(vs) - 1
            ends = {eid: (u, v) for eid, u, v in g.edges}
            assert [ends[e] for e in cycle.edges] == list(zip(vs, vs[1:]))


def test_nonsinks():
    assert example_graph().nonsinks() == frozenset({"s", "p", "q", "r"})
    assert parallel_graph(4).nonsinks() == frozenset({"s"})
    assert edgeless_graph().nonsinks() == frozenset()


# -- quasi-cycles ------------------------------------------------------------------


def test_example_has_one_quasi_cycle():
    g = example_graph()
    qcs = g.quasi_cycles()
    assert len(qcs) == 1
    assert qcs[0].kind == "cycle"
    assert edge_names(g, qcs[0].edges) == ["b", "f", "g"]


def test_quasi_cycles_after_deleting_d():
    g = example_graph().delete_edge(3)
    got = {(qc.kind, tuple(edge_names(g, qc.edges))) for qc in g.quasi_cycles()}
    assert got == {("useless-edge", ("f",)), ("cycle", ("b", "f", "g"))}


def test_clean_dag_has_no_quasi_cycles():
    assert path_graph(3).quasi_cycles() == []


def test_self_loop_listed_once_as_cycle():
    g = Digraph.build(["s"], [("s", "s")], "s", "s")
    qcs = g.quasi_cycles()
    assert len(qcs) == 1 and qcs[0].kind == "cycle"


def test_packing_on_example():
    count, witness = example_graph().max_disjoint_quasi_cycles()
    assert count == 1 and len(witness) == 1


def test_packing_two_vertex_disjoint_cycles():
    # Both 2-cycles sit on s-t-paths, so no useless edges sneak in extra
    # singleton quasi-cycles.
    g = Digraph.build(
        ["s", "u1", "v1", "u2", "v2", "t"],
        [("s", "u1"), ("s", "v1"), ("u1", "v1"), ("v1", "u1"),
         ("u1", "t"), ("v1", "t"),
         ("s", "u2"), ("s", "v2"), ("u2", "v2"), ("v2", "u2"),
         ("u2", "t"), ("v2", "t")],
        "s", "t")
    assert g.useless_edges() == frozenset()
    count, witness = g.max_disjoint_quasi_cycles()
    assert count == 2
    used = set()
    for qc in witness:
        assert not (qc.edges & used)
        used |= qc.edges


def test_acyclic_graphs_skip_the_cycle_listing(monkeypatch):
    # With no cycle witness there is nothing to list: no backward scan
    # starts a simple-walk search.
    walks = Digraph._simple_walks
    calls = 0

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return walks(self, *args)

    monkeypatch.setattr(Digraph, "_simple_walks", counted)
    for g in (path_graph(50), grid_graph(6, 6)):
        assert g.max_disjoint_quasi_cycles() == (0, ())
        assert g.quasi_cycles() == []
    assert calls == 0
    # The count is live: a graph with cycles does search.
    assert double_cycle_graph().quasi_cycles() and calls > 0


def test_packing_on_double_cycle_fixture():
    assert double_cycle_graph().max_disjoint_quasi_cycles()[0] == 2


def test_packing_zero_on_clean_dag():
    assert path_graph(2).max_disjoint_quasi_cycles() == (0, ())


def test_packing_guard():
    # Self-loops at s: each is a cycle and a useless edge, counted once.
    def loops(k):
        return Digraph.build(["s", "t"], [("s", "t")] + [("s", "s")] * k, "s", "t")

    assert len(loops(64).quasi_cycles()) == QUASI_CYCLE_PACKING_LIMIT == 64
    assert loops(64).max_disjoint_quasi_cycles()[0] == 64
    with pytest.raises(ResourceLimitError,
                       match="^more than 64 cycles exceed the packing limit of 64$"):
        loops(65).max_disjoint_quasi_cycles()


def cycle_ladder(rungs: int) -> Digraph:
    """c0..c<rungs>, each step a 2-cycle: forward edge 2k, backward 2k + 1."""
    names = [f"c{i}" for i in range(rungs + 1)]
    edges = [e for i in range(rungs)
             for e in ((names[i], names[i + 1]), (names[i + 1], names[i]))]
    return Digraph.build(names, edges, names[0], names[-1])


def test_packing_guard_counts_quasi_cycles_before_reductions():
    # 32 rung cycles and 32 useless backward edges; the reductions leave
    # 32 singletons, but the guard counts all 64.  One more useless edge,
    # into s from a vertex s does not reach, makes 65: refused.
    g = cycle_ladder(32)
    assert len(g.quasi_cycles()) == 64
    assert g.max_disjoint_quasi_cycles()[0] == 32
    g = Digraph(g.vertices + ("x",), g.edges + ((64, "x", "c0"),), g.s, g.t)
    assert len(g.quasi_cycles()) == 65
    with pytest.raises(ResourceLimitError,
                       match="^65 quasi-cycles exceed the packing limit of 64$"):
        g.max_disjoint_quasi_cycles()


def test_packing_guard_stops_at_the_first_cycle_past_the_limit(monkeypatch):
    # The bidirected 5x5 grid has 18,738 simple cycles; the guard must trip
    # after listing 65 of them, not after listing all.
    walks = Digraph._simple_walks
    yielded = 0

    def counted(self, *args):
        nonlocal yielded
        for walk in walks(self, *args):
            yielded += 1
            yield walk

    monkeypatch.setattr(Digraph, "_simple_walks", counted)
    with pytest.raises(ResourceLimitError, match="^more than 64 cycles "):
        bidirected_grid(5).max_disjoint_quasi_cycles()
    assert yielded <= QUASI_CYCLE_PACKING_LIMIT + 1


def with_gapped_ids(g: Digraph, rng: random.Random) -> Digraph:
    """The same graph with its edge ids drawn, unsorted, from a wider range."""
    ids = rng.sample(range(3 * len(g.edges) + 5), len(g.edges))
    return Digraph(g.vertices, tuple((i, u, v) for i, (_, u, v) in zip(ids, g.edges)),
                   g.s, g.t)


def oracle_graphs() -> list[Digraph]:
    """The default corpus plus seeded multigraphs with self-loops, parallel
    edges, s = t and gapped edge ids."""
    rng = random.Random(6)
    graphs = generate_corpus(CorpusSpec(graph_count=200))
    return graphs + [with_gapped_ids(random_multigraph(rng), rng) for _ in range(300)]


def test_walks_follow_the_edge_order_whatever_the_ids():
    # Paths and the cycle witness walk the edges in the order of ``edges``,
    # so drawing new, unsorted ids moves no walk: mapped back through the
    # edge positions, each is the walk of the graph with ids 0, 1, 2, ...
    rng = random.Random(8)
    graphs = generate_corpus(CorpusSpec(graph_count=200))
    graphs += [random_multigraph(rng) for _ in range(300)]
    for g in graphs:
        h = with_gapped_ids(g, rng)
        back = {eid: g.edges[i][0] for i, (eid, _, _) in enumerate(h.edges)}

        def mapped(walk):
            return walk and Walk(walk.vertices, tuple(back[e] for e in walk.edges))

        assert [mapped(p) for p in h.enumerate_st_paths()] == g.enumerate_st_paths()
        assert mapped(h.find_cycle()) == g.find_cycle()


def test_edge_mask_is_the_sum_of_its_position_bits():
    rng = random.Random(11)
    for g in oracle_graphs() + [with_gapped_ids(path_graph(1500), rng)]:
        pos = {eid: i for i, (eid, _, _) in enumerate(g.edges)}
        ids = list(g.edge_ids)
        subsets = [[], ids] + [rng.sample(ids, rng.randint(0, len(ids))) for _ in range(3)]
        for subset in subsets:
            repeated = subset + subset[:2]
            assert g.edge_mask(repeated) == sum(1 << pos[e] for e in set(subset))
    with pytest.raises(ValueError, match="^not an edge id of the graph: 99$"):
        example_graph().edge_mask([0, 99])


def test_packing_matches_brute_force():
    def disjoint(group):
        edges = [e for qc in group for e in qc.edges]
        return len(edges) == len(set(edges))

    checked = 0
    for g in oracle_graphs():
        qcs = g.quasi_cycles()
        if len(qcs) > 16:
            continue
        checked += 1
        want = max(k for k in range(len(qcs) + 1)
                   if any(disjoint(c) for c in combinations(qcs, k)))
        count, witness = g.max_disjoint_quasi_cycles()
        assert count == want == len(witness)
        assert disjoint(witness) and all(qc in qcs for qc in witness)
    assert checked > 450


def test_useless_edges_and_min_cut_match_networkx():
    nx = pytest.importorskip("networkx")
    for g in oracle_graphs():
        parallel = defaultdict(list)
        for eid, u, v in g.edges:
            parallel[u, v].append(eid)
        simple = nx.DiGraph(list(parallel))
        simple.add_nodes_from(g.vertices)
        used = {eid for path in nx.all_simple_paths(simple, g.s, g.t)
                for u, v in zip(path, path[1:]) for eid in parallel[u, v]}
        assert g.useless_edges() == frozenset(g.edge_ids) - used
        if g.s != g.t:
            assert g.min_st_cutset_size() == networkx_min_cut(nx, g)


def networkx_min_cut(nx, g: Digraph) -> int:
    """The s-t min cut of g by networkx.  Parallel edges merge into one arc
    with their count as capacity; self-loops carry no s-t flow."""
    capacity = nx.DiGraph()
    capacity.add_nodes_from(g.vertices)
    arcs = Counter((u, v) for _, u, v in g.edges if u != v)
    capacity.add_edges_from((u, v, {"capacity": k}) for (u, v), k in arcs.items())
    return nx.minimum_cut_value(capacity, g.s, g.t)


# -- flows ---------------------------------------------------------------------------


def test_parallel_flow_value():
    for k in range(1, 7):
        assert parallel_graph(k).max_edge_disjoint_st_paths() == k


def test_example_flow_value():
    assert example_graph().max_edge_disjoint_st_paths() == 2


def test_flow_zero_when_disconnected():
    assert edgeless_graph().max_edge_disjoint_st_paths() == 0


def test_flow_unbounded_when_s_equals_t():
    assert loop_graph().max_edge_disjoint_st_paths() == math.inf


def test_flow_reroutes_a_saturated_edge():
    # Breadth-first search saturates s-a-b-t first; the second unit only
    # exists after canceling flow on a->b, so plain path removal finds 1.
    g = Digraph.build(
        ["s", "a", "c", "b", "d", "t"],
        [("s", "a"), ("a", "b"), ("b", "t"), ("s", "c"), ("c", "b"),
         ("a", "d"), ("d", "t")],
        "s", "t")
    assert g.max_edge_disjoint_st_paths() == 2
    assert g.min_st_cutset_size() == 2


def test_min_cut_values():
    assert example_graph().min_st_cutset_size() == 2
    assert parallel_graph(5).min_st_cutset_size() == 5
    assert edgeless_graph().min_st_cutset_size() == 0


def test_flows_on_minors_whose_edge_positions_are_not_their_ids():
    # Flows index edges by position in ``edges``; a minor keeps the ids of
    # its parent, which has gaps, parallel edges and self-loops.
    nx = pytest.importorskip("networkx")
    cut_checked = member_checked = shifted = 0
    for k, g in enumerate(oracle_graphs()):
        for h in minors(g):
            shifted += h.edge_ids != tuple(range(len(h.edges)))
            if h.s != h.t:
                assert h.min_st_cutset_size() == networkx_min_cut(nx, h), h
                cut_checked += 1
        if k % 4 or len(g.edges) > 8:
            continue
        # The r-builds grow a truth table by Menger's step and run no flow.
        # Every third minor, deletions and contractions alternating.
        for h in islice(minors(g), 1, None, 3):
            subsets = [f for n in range(len(h.edges) + 1) for f in combinations(h.edge_ids, n)]
            for r in (1, 2, 3):
                pm, pf = build_pm_r(h, r), build_pf_r(h, r)
                for f in subsets:
                    mask = sum(1 << h.edge_ids.index(e) for e in f)
                    assert (mask in pm.faces) == pm_member(h, f, r), (h, f, r)
                    assert (mask in pf.faces) == pf_member(h, f, r), (h, f, r)
            member_checked += 1
    assert shifted > 3000 and cut_checked > 3000 and member_checked > 150


def test_member_flows_match_the_subgraph_searches():
    # The membership oracles run their own augmenting-path search over the
    # kept edges; the subgraph answers from its cached breadth-first search.
    checked = 0
    for g in oracle_graphs():
        if len(g.edges) > 10:
            continue
        ids = set(g.edge_ids)
        for k in range(len(g.edges) + 1):
            for f in combinations(g.edge_ids, k):
                assert pm_member(g, f) == g.subgraph(ids - set(f)).has_st_path(), (g, f)
                assert pf_member(g, f) == (not g.subgraph(f).has_st_path()), (g, f)
                checked += 1
    assert checked > 40000


def test_min_cut_on_large_graphs():
    assert grid_graph(30, 30).min_st_cutset_size() == 2
    assert path_graph(1500).min_st_cutset_size() == 1
    assert path_graph(1500).delete_edge(700).min_st_cutset_size() == 0


def test_min_cut_undefined_for_s_equals_t():
    with pytest.raises(ValueError):
        loop_graph().min_st_cutset_size()


def test_shortest_path_length():
    assert example_graph().shortest_st_path_length() == 2
    assert loop_graph().shortest_st_path_length() == 0
    assert edgeless_graph().shortest_st_path_length() is None


def test_shortest_path_length_matches_networkx():
    nx = pytest.importorskip("networkx")
    kinds = set()
    for g in oracle_graphs():
        multi = nx.MultiDiGraph([(u, v) for _, u, v in g.edges])
        multi.add_nodes_from(g.vertices)
        try:
            want = nx.shortest_path_length(multi, g.s, g.t)
        except nx.NetworkXNoPath:
            want = None
        assert g.shortest_st_path_length() == want
        kinds.add("s = t" if g.s == g.t else "unreachable" if want is None else "reachable")
    assert kinds == {"s = t", "unreachable", "reachable"}
