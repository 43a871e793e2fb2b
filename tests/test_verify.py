import re

from pathcomplexes import cli, grapes, pathcomplex, simplicial, verify
from pathcomplexes.digraph import Digraph
from pathcomplexes.graphio import format_graph, parse_graph
from pathcomplexes.simplicial import SimplicialComplex
from pathcomplexes.verify import (CHECK_MANIFEST, CorpusSpec, SplitMix64, _Ctx,
                                  double_cycle_graph, edgeless_graph,
                                  example_graph, fixture_battery,
                                  generate_corpus, loop_graph, parallel_graph,
                                  path_graph, run_all_checks, verify_corpus)


def test_splitmix64_reference_vector():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_corpus_is_deterministic():
    spec = CorpusSpec(graph_count=50, seed=7)
    assert generate_corpus(spec) == generate_corpus(spec)
    other = generate_corpus(CorpusSpec(graph_count=50, seed=8))
    assert other != generate_corpus(spec)


def test_fixture_battery_is_prepended():
    corpus = generate_corpus(CorpusSpec(graph_count=3, seed=1))
    fixtures = fixture_battery()
    assert corpus[:len(fixtures)] == fixtures
    assert len(corpus) == len(fixtures) + 3
    assert corpus[0] == example_graph()
    assert corpus[1:7] == [parallel_graph(k) for k in range(1, 7)]
    assert corpus[7:11] == [path_graph(n) for n in range(1, 5)]
    assert corpus[11:14] == [edgeless_graph(), loop_graph(), double_cycle_graph()]


def test_random_corpus_reaches_multigraphs():
    # Smoke observation on a fixed seed, not a statistical claim.
    corpus = generate_corpus(CorpusSpec(graph_count=200, seed=1))
    random_part = corpus[len(fixture_battery()):]
    multigraphs = [g for g in random_part
                   if len({(u, v) for _, u, v in g.edges}) < len(g.edges)]
    assert multigraphs


def test_corpus_spec_validation():
    import pytest
    with pytest.raises(ValueError):
        generate_corpus(CorpusSpec(graph_count=1, max_edges=30))
    with pytest.raises(ValueError):
        generate_corpus(CorpusSpec(graph_count=-1))
    # Outside input is compared as an edge count, never raised to a power.
    with pytest.raises(ValueError):
        generate_corpus(CorpusSpec(graph_count=1, max_edges=10**9))


def test_registry_matches_manifest():
    outcomes = run_all_checks(edgeless_graph())
    assert tuple(o.check_id for o in outcomes) == CHECK_MANIFEST
    assert len(set(CHECK_MANIFEST)) == len(CHECK_MANIFEST)


def test_example_graph_passes_every_applicable_check():
    outcomes = run_all_checks(example_graph())
    assert [o.check_id for o in outcomes if o.status == "fail"] == []
    passed = {o.check_id for o in outcomes if o.status == "pass"}
    # The load-bearing identities must actually fire on this fixture.
    for expected in ("pf-pm-alexander-dual", "chi-pm-closed-form",
                     "dc-equals-enumeration", "homology-matches-classification",
                     "strong-grape-certificates", "maxflow-equals-mincut",
                     "pf-link-deletion-match-graph-ops"):
        assert expected in passed


def test_conditional_checks_skip_instead_of_passing_silently():
    outcomes = {o.check_id: o for o in run_all_checks(path_graph(2))}
    # A two-edge path has no edge into s and no cycles to exercise these.
    assert outcomes["target-s-edges-useless"].status == "skip"
    assert outcomes["cycle-survives-delete-contract"].status == "skip"
    assert outcomes["useless-edge-cone"].status == "skip"


def test_rare_conditional_check_fires_on_doubled_path():
    # Two parallel s->a arcs plus a->t: deleting either s-arc leaves a
    # clean graph, so contracting it must create a cycle (the survivor
    # becomes a self-loop) while the nonsinks stay put.
    g = Digraph.build(["s", "a", "t"], [("s", "a"), ("s", "a"), ("a", "t")],
                      "s", "t")
    outcomes = {o.check_id: o.status for o in run_all_checks(g)}
    assert outcomes["contract-gains-cycle-when-delete-clean"] == "pass"
    assert outcomes["contract-drops-one-nonsink"] == "pass"
    assert "fail" not in outcomes.values()


def test_oversized_graph_skips_enumeration_checks():
    big = parallel_graph(21)
    outcomes = {o.check_id: o for o in run_all_checks(big)}
    # Every check that reads a complex skips: the one enumeration guard
    # is the face table of the build, which refuses 21 edges.
    for check_id in (
            "build-oracles-downward-closed", "pf-pm-alexander-dual",
            "pf-minimal-nonfaces-are-paths", "pm-minimal-nonfaces-are-min-cuts",
            "pf-codimension-is-min-cut", "pm-codimension-is-shortest-path",
            "pm-link-deletion-match-graph-ops", "pf-link-deletion-match-graph-ops",
            "chi-pm-closed-form", "chi-pf-closed-form",
            "face-count-parity", "dc-equals-enumeration",
            "homology-matches-classification", "strong-grape-certificates",
            "strong-implies-combinatorial", "grape-apex-source-restriction",
            "parallel-rgen-chi"):
        assert outcomes[check_id].status == "skip", check_id
        assert outcomes[check_id].detail == \
            "2^21 subsets exceed the enumeration limit of 1048576", check_id
    # No edge is useless, so the cone check skips before any build.
    assert outcomes["useless-edge-cone"].status == "skip"
    # Recursion-based checks still run.
    assert outcomes["fpoly-quasicycle-divisibility"].status == "pass"


def test_thirteen_edges_build_but_skip_the_grape_search():
    outcomes = {o.check_id: o for o in run_all_checks(parallel_graph(13))}
    for check_id in ("strong-grape-certificates", "strong-implies-combinatorial",
                     "grape-apex-source-restriction"):
        assert outcomes[check_id].status == "skip", check_id
        assert outcomes[check_id].detail == \
            "ground size 13 exceeds the grape search limit of 12", check_id
    for check_id in ("build-oracles-downward-closed", "pf-pm-alexander-dual",
                     "pm-minimal-nonfaces-are-min-cuts", "dc-equals-enumeration",
                     "homology-matches-classification", "parallel-rgen-chi"):
        assert outcomes[check_id].status == "pass", check_id
    assert [o.check_id for o in outcomes.values() if o.status == "fail"] == []


def _run_check(check_id, ctx):
    return dict(verify._REGISTRY)[check_id](ctx)


def _with(g, which, table):
    """A context on g whose complex ``which``, pm or pf, is the given table."""
    ctx = _Ctx(g)
    setattr(ctx, which, SimplicialComplex(g.edge_ids, table))
    return ctx


def _brute_min_cuts(g, paths) -> set:
    """The inclusion-minimal edge masks meeting every path, one mask at a time."""
    masks = [g.edge_mask(p.edges) for p in paths]
    # Every edge mask, ascending by size, so any hitting set found with a
    # strictly smaller hitting subset is caught by the subset test; what
    # remains is minimal.
    minimal: list[int] = []
    for f in sorted(range(1 << len(g.edges)), key=int.bit_count):
        if all(f & p for p in masks) and not any(h & f == h for h in minimal):
            minimal.append(f)
    return set(minimal)


def test_min_cut_check_agrees_with_brute_force():
    # On the default and seed-9 corpora the minimal non-faces are the
    # brute-force minimal cuts and the table check passes.  With the first
    # minimal cut turned into a face the table stays downward closed, as
    # its subsets are faces, and the check fails.
    for spec in (CorpusSpec(200), CorpusSpec(2000, 7, 12, 9)):
        for g in generate_corpus(spec):
            ctx = _Ctx(g)
            cuts = _brute_min_cuts(g, ctx.paths)
            assert {g.edge_mask(f) for f in ctx.pm.minimal_nonfaces()} == cuts
            assert _run_check("pm-minimal-nonfaces-are-min-cuts", ctx) == ("pass", "")
            if cuts:
                forged = _with(g, "pm", ctx.pm.table | 1 << min(cuts))
                assert forged.pm.is_downward_closed()
                assert _run_check("pm-minimal-nonfaces-are-min-cuts", forged)[0] == "fail"


def test_path_check_agrees_with_decoded_nonfaces():
    # On the default and seed-9 corpora the decoded minimal non-faces are
    # the path edge sets and the table check passes.  With one facet taken
    # out the table stays downward closed, as the facet's subsets are faces,
    # and gains the facet as a minimal non-face, so the check fails.
    for spec in (CorpusSpec(200), CorpusSpec(2000, 7, 12, 9)):
        for g in generate_corpus(spec):
            ctx = _Ctx(g)
            assert set(ctx.pf.minimal_nonfaces()) == {p.edge_set() for p in ctx.paths}
            assert _run_check("pf-minimal-nonfaces-are-paths", ctx) == ("pass", "")
            if ctx.pf.table:
                facet = g.edge_mask(ctx.pf.facets()[0])
                forged = _with(g, "pf", ctx.pf.table ^ 1 << facet)
                assert forged.pf.is_downward_closed()
                assert _run_check("pf-minimal-nonfaces-are-paths", forged)[0] == "fail"


def test_build_check_needs_no_validate(monkeypatch):
    # The check reads downward closure off the table itself, so a table
    # that is not downward closed fails even when ``validate`` accepts it.
    monkeypatch.setattr(SimplicialComplex, "validate", lambda self: None)
    g = example_graph()
    ctx = _Ctx(g)
    assert _run_check("build-oracles-downward-closed", ctx)[0] == "pass"
    not_closed = ctx.pm.table & ~1  # every face but the empty one
    assert _run_check("build-oracles-downward-closed", _with(g, "pm", not_closed)) == \
        ("fail", "pm is not downward closed")
    outside = ctx.pm.table | 1 << (1 << len(g.edges))
    assert _run_check("build-oracles-downward-closed", _with(g, "pm", outside)) == \
        ("fail", "pm ground mismatch")


def test_grape_checks_skip_above_the_grape_limit(monkeypatch):
    monkeypatch.setattr(grapes, "GRAPE_GROUND_LIMIT", 6)
    outcomes = {o.check_id: o for o in run_all_checks(example_graph())}
    for check_id in ("strong-grape-certificates", "strong-implies-combinatorial",
                     "grape-apex-source-restriction"):
        assert outcomes[check_id].status == "skip", check_id
        assert "grape search limit" in outcomes[check_id].detail


def test_report_lines_are_stable_and_well_formed():
    report = verify_corpus(CorpusSpec(graph_count=2, seed=11))
    lines = report.to_lines()
    assert lines[-1].startswith("summary graphs=16 ")
    pattern = re.compile(r"^\d+ [a-z0-9-]+ (pass|fail|skip|info)$")
    for line in lines[:-1]:
        assert pattern.match(line), line
    assert lines == verify_corpus(CorpusSpec(graph_count=2, seed=11)).to_lines()


def test_small_corpus_has_zero_failures():
    report = verify_corpus(CorpusSpec(graph_count=40, seed=2))
    counts = report.counts()
    assert counts["fail"] == 0
    assert counts["pass"] > 0


def test_failure_payload_replays_through_the_file_format():
    # Any graph in a report must survive a round trip and reproduce the
    # same outcomes, which is what makes failure payloads replayable.
    report = verify_corpus(CorpusSpec(graph_count=5, seed=9))
    for gv in report.graphs:
        replayed = parse_graph(format_graph(gv.graph))
        assert replayed == gv.graph
        again = run_all_checks(replayed)
        assert [(o.check_id, o.status) for o in again] == \
            [(o.check_id, o.status) for o in gv.outcomes]


def test_failure_payload_format():
    from pathcomplexes.verify import CheckOutcome, GraphVerification, VerificationReport
    g = edgeless_graph()
    report = VerificationReport([GraphVerification(
        3, g, [CheckOutcome("chi-pm-closed-form", "fail", "boom")])])
    payloads = report.failure_payloads()
    assert len(payloads) == 1
    assert payloads[0].startswith("FAIL graph 3 check chi-pm-closed-form: boom\n")
    assert "vertex s" in payloads[0]


def test_dual_checks_fail_when_the_dual_is_wrong(monkeypatch, tmp_path, capsys):
    # The path-missing build runs its own reachability from s, an edge
    # crossable where it is removed, so a broken Alexander dual must show
    # in both duality checks.
    for module in (simplicial, pathcomplex):
        monkeypatch.setattr(module, "_dual", lambda x, n: (1 << (1 << n)) - 1)
    path = tmp_path / "example.graph"
    path.write_text(format_graph(example_graph()))
    assert cli.main(["dual-check", str(path)]) == 1
    assert capsys.readouterr().out == "dual-check: FAILED\n"
    outcomes = {o.check_id: o.status for o in run_all_checks(example_graph())}
    assert outcomes["pf-pm-alexander-dual"] == "fail"
