"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; every expected value here is either a fixed reference value or
recomputed by an independent brute-force oracle inside the test.
"""

import math
import time

import pytest

from pathcomplexes.cli import main
from pathcomplexes.grapes import is_strong_grape, replay_certificate
from pathcomplexes.pathcomplex import (build_pf, build_pf_r, build_pm,
                                       build_pm_r, check_divisibility,
                                       chi_pf_closed, chi_pm_closed,
                                       fpoly_pf_dc, fpoly_pm_dc, homotopy_pf,
                                       homotopy_pm)
from pathcomplexes.verify import (CorpusSpec, generate_corpus, parallel_graph,
                                  verify_corpus)

from complexes import proper_subsets_complex

CORPUS_SPEC = CorpusSpec(graph_count=500, max_vertices=6, max_edges=8, seed=1)
WIDE_SPEC = CorpusSpec(graph_count=60, max_vertices=6, max_edges=10, seed=2)

EXAMPLE_PF_FACETS = {frozenset("bcefg"), frozenset("acefg"), frozenset("bcdg"),
                     frozenset("acdfg"), frozenset("abef"), frozenset("abdfg")}
EXAMPLE_PM_FACETS = {frozenset("defg"), frozenset("cdf"),
                     frozenset("abcfg"), frozenset("aeg")}


def verdict(name: str, ok: bool, extra: str = ""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def brute_chi(c) -> int:
    # Independent of the library's own Euler-characteristic method.
    return sum(1 if f.bit_count() % 2 else -1 for f in c.faces)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CORPUS_SPEC)


@pytest.fixture(scope="module")
def built(corpus):
    return [(g, build_pm(g), build_pf(g)) for g in corpus]


def test_criterion_1_example_facets(capsys, tmp_path):
    path = tmp_path / "example.graph"
    path.write_text(
        "vertex s\nvertex p\nvertex q\nvertex r\nvertex t\ns s\nt t\n"
        "edge a s p\nedge b p r\nedge c r t\nedge d s q\nedge e q t\n"
        "edge f q p\nedge g r q\n")
    start = time.perf_counter()
    assert main(["facets", str(path), "--complex", "pf"]) == 0
    pf_out = capsys.readouterr().out
    assert main(["facets", str(path), "--complex", "pm"]) == 0
    pm_out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    pf_got = {frozenset(line.split()) for line in pf_out.splitlines()}
    pm_got = {frozenset(line.split()) for line in pm_out.splitlines()}
    ok = pf_got == EXAMPLE_PF_FACETS and pm_got == EXAMPLE_PM_FACETS and elapsed < 1.0
    with capsys.disabled():
        verdict("1 example-facets", ok, f"{elapsed:.3f}s")


def test_criterion_2_closed_chi_equals_brute(corpus, capsys):
    # Timed end to end, enumeration of both complexes included.
    start = time.perf_counter()
    bad = 0
    for g in corpus:
        if chi_pm_closed(g).value != brute_chi(build_pm(g)):
            bad += 1
        if chi_pf_closed(g).value != brute_chi(build_pf(g)):
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 60.0
    with capsys.disabled():
        verdict("2 closed-form-chi", ok,
                f"{len(corpus)} graphs, {bad} mismatches, {elapsed:.2f}s")


def test_criterion_3_parallel_battery(capsys):
    ok = True
    for k in range(1, 7):
        g = parallel_graph(k)
        pm = build_pm(g)
        ok &= brute_chi(pm) == (-1) ** k == chi_pm_closed(g).value
        ok &= pm == proper_subsets_complex(g.edge_ids)
        for r in range(1, k + 1):
            ok &= brute_chi(build_pf_r(g, r)) == (-1) ** r * math.comb(k - 1, r - 1)
            ok &= (brute_chi(build_pm_r(g, r))
                   == (-1) ** (k + r - 1) * math.comb(k - 1, r - 1))
    with capsys.disabled():
        verdict("3 parallel-battery", ok, "k=1..6, all 1<=r<=k")


def test_criterion_4_dc_equals_enumeration(corpus, capsys):
    # The shared corpus stays at 8 edges, so a second deterministic corpus
    # pushes the comparison out to 10-edge graphs.  Timed end to end.
    start = time.perf_counter()
    bad = 0
    graphs = 0
    for g in corpus + generate_corpus(WIDE_SPEC):
        graphs += 1
        if fpoly_pm_dc(g) != build_pm(g).f_polynomial():
            bad += 1
        if fpoly_pf_dc(g) != build_pf(g).f_polynomial():
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 120.0
    with capsys.disabled():
        verdict("4 dc-vs-brute-fpoly", ok,
                f"{graphs} graphs, {bad} mismatches, {elapsed:.2f}s")


def test_criterion_5_divisibility(corpus, capsys):
    bad = 0
    for g in corpus:
        report = check_divisibility(g)
        if not (report.pm_ok and report.pf_ok):
            bad += 1
    with capsys.disabled():
        verdict("5 quasicycle-divisibility", bad == 0,
                f"{len(corpus)} graphs, {bad} violations")


def test_criterion_6_homology_certificates(built, capsys):
    bad = 0
    for g, pm, pf in built:
        for cls, c in ((homotopy_pm(g), pm), (homotopy_pf(g), pf)):
            betti = c.gf2_reduced_betti()
            if cls.kind == "empty":
                good = c.is_empty() and betti.entries == ()
            elif cls.kind == "contractible":
                good = betti.entries == ()
            else:
                good = betti.entries == ((cls.dim, 1),)
            if not good:
                bad += 1
    with capsys.disabled():
        verdict("6 homology-certificates", bad == 0,
                f"{2 * len(built)} complexes, {bad} mismatches")


def test_criterion_7_identity_suite(capsys):
    report = verify_corpus(CORPUS_SPEC)
    counts = report.counts()
    skips_by_check: dict[str, int] = {}
    for gv in report.graphs:
        for o in gv.outcomes:
            if o.status == "skip":
                skips_by_check[o.check_id] = skips_by_check.get(o.check_id, 0) + 1
    ok = counts["fail"] == 0
    with capsys.disabled():
        for check_id in sorted(skips_by_check):
            print(f"  skip-count {check_id}: {skips_by_check[check_id]}")
        verdict("7 identity-suite", ok,
                f"pass={counts['pass']} fail={counts['fail']} skip={counts['skip']}")
    if not ok:
        for payload in report.failure_payloads():
            print(payload)


def test_criterion_8_strong_grapes(built, capsys):
    bad = 0
    checked = 0
    for g, pm, pf in built:
        for c in (pm, pf):
            checked += 1
            cert = is_strong_grape(c)
            if cert is None or not replay_certificate(cert, c):
                bad += 1
    with capsys.disabled():
        verdict("8 strong-grape-certificates", bad == 0,
                f"{checked} complexes, {bad} failures")


def test_criterion_9_codimension_identities(built, capsys):
    bad = 0
    checked = 0
    for g, pm, pf in built:
        if g.s != g.t and pf.faces:
            checked += 1
            if pf.codimension() != g.min_st_cutset_size():
                bad += 1
        if pm.faces:
            checked += 1
            if pm.codimension() != g.shortest_st_path_length():
                bad += 1
    with capsys.disabled():
        verdict("9 codimension-identities", bad == 0,
                f"{checked} applicable cases, {bad} mismatches")
