"""Deterministic graph corpus and the cross-checking harness.

Each claim about the path-free and path-missing complexes of a graph is
registered here as a named check; ``run_all_checks`` executes the whole
registry against one graph and reports pass/fail/skip per check.
Identities that hold for every simplicial complex are self-tests of
``simplicial`` and live with its tests.  Conditional checks whose
hypotheses never fire are skipped, never silently passed, and so is
every check that reads a complex of a graph above the face table's 20
edges, with the build's own message.  The registry is compared against
an explicit manifest so that a check cannot be lost without a test
noticing.

The corpus generator uses splitmix64 (64-bit state, golden-gamma
increment, xor-shift-multiply finalizer), so the same spec reproduces the
same graphs on any platform.
"""

from __future__ import annotations

from functools import cached_property, reduce
from math import comb
from operator import or_
from typing import Callable, NamedTuple

from .digraph import Digraph
from .errors import ResourceLimitError
from .graphio import format_graph
from .grapes import (is_combinatorial_grape, is_strong_grape, replay_certificate,
                     source_apex_strong_certificate)
from .pathcomplex import (build_pf, build_pf_r, build_pm, build_pm_r,
                          check_divisibility, chi_pf_closed, chi_pm_closed,
                          fpoly_pf_dc, fpoly_pm_dc, homotopy_pf, homotopy_pm)
from .simplicial import FACE_ENUMERATION_LIMIT, SimplicialComplex, _above, _patterns

# -- pseudo-random generation ----------------------------------------------------

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: state += 0x9E3779B97F4A7C15; output = finalizer(state)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n); modulo bias is irrelevant at corpus scale."""
        return self.next_u64() % n


class CorpusSpec(NamedTuple):
    """Parameters pinning a corpus; equal specs give identical corpora.

    ``graph_count`` random graphs are appended after the fixture battery.
    """

    graph_count: int
    max_vertices: int = 6
    max_edges: int = 8
    seed: int = 1


# -- fixtures --------------------------------------------------------------------


def example_graph() -> Digraph:
    """Five-vertex, seven-edge worked example: two edge-disjoint routes
    from s to t, one cycle, no useless edges."""
    return Digraph.build(
        ["s", "p", "q", "r", "t"],
        [("s", "p"), ("p", "r"), ("r", "t"), ("s", "q"),
         ("q", "t"), ("q", "p"), ("r", "q")],
        "s", "t",
        labels=["a", "b", "c", "d", "e", "f", "g"],
    )


def parallel_graph(k: int) -> Digraph:
    """k parallel edges from s straight to t."""
    return Digraph.build(["s", "t"], [("s", "t")] * k, "s", "t",
                         labels=[f"e{i}" for i in range(k)])


def path_graph(length: int) -> Digraph:
    """A single directed path of the given edge count from s to t."""
    if length < 1:
        raise ValueError("length must be at least 1")
    names = ["s"] + [f"v{i}" for i in range(1, length)] + ["t"]
    edges = list(zip(names, names[1:]))
    return Digraph.build(names, edges, "s", "t",
                         labels=[f"e{i}" for i in range(length)])


def edgeless_graph() -> Digraph:
    return Digraph.build(["s", "t"], [], "s", "t", labels=[])


def loop_graph() -> Digraph:
    """One vertex playing both s and t, carrying a self-loop."""
    return Digraph.build(["s"], [("s", "s")], "s", "s", labels=["e0"])


def double_cycle_graph() -> Digraph:
    """Two edge-disjoint 2-cycles between u and v, every edge on some
    s-t-path: packing number exactly 2 with no useless edges."""
    return Digraph.build(
        ["s", "u", "v", "t"],
        [("s", "u"), ("s", "v"), ("u", "v"), ("v", "u"),
         ("u", "v"), ("v", "u"), ("u", "t"), ("v", "t")],
        "s", "t",
        labels=[f"e{i}" for i in range(8)],
    )


def fixture_battery() -> list[Digraph]:
    graphs = [example_graph()]
    graphs += [parallel_graph(k) for k in range(1, 7)]
    graphs += [path_graph(n) for n in range(1, 5)]
    graphs += [edgeless_graph(), loop_graph(), double_cycle_graph()]
    return graphs


def _random_graph(rng: SplitMix64, spec: CorpusSpec) -> Digraph:
    """One corpus graph.  The drawing order below is part of the corpus
    contract: vertex count, s, t, edge count, then per edge source and
    target.  Self-loops and parallel arcs are kept."""
    n = 1 + rng.below(spec.max_vertices)
    names = [f"v{i}" for i in range(n)]
    s = names[rng.below(n)]
    t = names[rng.below(n)]
    m = rng.below(spec.max_edges + 1)
    edges = []
    for _ in range(m):
        u = names[rng.below(n)]
        v = names[rng.below(n)]
        edges.append((u, v))
    return Digraph.build(names, edges, s, t,
                         labels=[f"e{i}" for i in range(len(edges))])


def generate_corpus(spec: CorpusSpec) -> list[Digraph]:
    """Fixture battery first, then ``graph_count`` random graphs."""
    if spec.max_edges < 0 or spec.max_vertices < 1 or spec.graph_count < 0:
        raise ValueError("corpus spec out of range")
    most = FACE_ENUMERATION_LIMIT.bit_length() - 1  # the edges a complex can build on
    if spec.max_edges > most:
        raise ValueError(f"max_edges beyond the enumeration guard of {most}")
    graphs = fixture_battery()
    rng = SplitMix64(spec.seed)
    for _ in range(spec.graph_count):
        graphs.append(_random_graph(rng, spec))
    return graphs


# -- per-graph context --------------------------------------------------------------


class _Ctx:
    """Lazily computed artifacts shared by the checks on one graph.

    Above the face table's 20 edges a build raises ``ResourceLimitError``,
    which skips the check that asked.
    """

    def __init__(self, g: Digraph):
        self.g = g

    @cached_property
    def pm(self) -> SimplicialComplex:
        return build_pm(self.g)

    @cached_property
    def pf(self) -> SimplicialComplex:
        return build_pf(self.g)

    @cached_property
    def paths(self):
        return self.g.enumerate_st_paths()

    def both(self):
        return (("pm", self.pm), ("pf", self.pf))


_SKIP = ("skip", "hypotheses never fired")
_PASS = ("pass", "")


def _fail(detail: str):
    return ("fail", detail)


# -- check registry -------------------------------------------------------------------

_REGISTRY: list[tuple[str, Callable[[_Ctx], tuple[str, str]]]] = []


def _check(check_id: str):
    def register(fn):
        _REGISTRY.append((check_id, fn))
        return fn
    return register


@_check("build-oracles-downward-closed")
def _chk_build(ctx: _Ctx):
    n = len(ctx.g.edges)
    for name, c in ctx.both():
        if c.ground != tuple(ctx.g.edge_ids) or c.table >> (1 << n):
            return _fail(f"{name} ground mismatch")
        # Downward closed: no set one element above a non-face is a face.
        if _above(c.table ^ ((1 << (1 << n)) - 1), n) & c.table:
            return _fail(f"{name} is not downward closed")
    return _PASS


@_check("pf-pm-alexander-dual")
def _chk_dual(ctx: _Ctx):
    if ctx.pf.alexander_dual() != ctx.pm:
        return _fail("dual of path-free complex is not the path-missing complex")
    return _PASS


@_check("pf-minimal-nonfaces-are-paths")
def _chk_pf_nonfaces(ctx: _Ctx):
    # The path masks must be the minimal non-faces, those above no non-face.
    n = len(ctx.g.edges)
    nonfaces = ctx.pf.table ^ ((1 << (1 << n)) - 1)
    paths = reduce(or_, (1 << ctx.g.edge_mask(p.edges) for p in ctx.paths), 0)
    if paths != nonfaces & ~_above(nonfaces, n):
        return _fail("minimal non-faces differ from the path edge sets")
    return _PASS


@_check("pm-minimal-nonfaces-are-min-cuts")
def _chk_pm_nonfaces(ctx: _Ctx):
    # The table of the edge sets meeting every s-t-path, the cut sets, must
    # be the non-face table; equal tables have equal minimal elements.
    n = len(ctx.g.edges)
    pattern = dict(zip(ctx.g.edge_ids, _patterns(n)))
    cuts = full = (1 << (1 << n)) - 1
    for p in ctx.paths:
        cuts &= reduce(or_, map(pattern.__getitem__, p.edges), 0)
    if cuts != ctx.pm.table ^ full:
        return _fail("non-faces differ from the cut sets")
    return _PASS


@_check("pf-codimension-is-min-cut")
def _chk_pf_codim(ctx: _Ctx):
    if ctx.g.s == ctx.g.t:
        return _SKIP
    if ctx.pf.codimension() != ctx.g.min_st_cutset_size():
        return _fail(f"codim {ctx.pf.codimension()} != min cut {ctx.g.min_st_cutset_size()}")
    return _PASS


@_check("pm-codimension-is-shortest-path")
def _chk_pm_codim(ctx: _Ctx):
    if not ctx.g.has_st_path():
        return _SKIP
    if ctx.pm.codimension() != ctx.g.shortest_st_path_length():
        return _fail(f"codim {ctx.pm.codimension()} != shortest path "
                     f"{ctx.g.shortest_st_path_length()}")
    return _PASS


@_check("pm-link-deletion-match-graph-ops")
def _chk_pm_linkdel(ctx: _Ctx):
    g = ctx.g
    for eid, u, _ in g.edges:
        if ctx.pm.link(eid) != build_pm(g.delete_edge(eid)):
            return _fail(f"link at {eid} differs from deletion-graph complex")
        if u == g.s and ctx.pm.deletion(eid) != build_pm(g.contract_edge(eid)):
            return _fail(f"deletion at {eid} differs from contraction-graph complex")
    return _PASS


@_check("pf-link-deletion-match-graph-ops")
def _chk_pf_linkdel(ctx: _Ctx):
    g = ctx.g
    for eid, u, _ in g.edges:
        if ctx.pf.deletion(eid) != build_pf(g.delete_edge(eid)):
            return _fail(f"deletion at {eid} differs from deletion-graph complex")
        if u == g.s and ctx.pf.link(eid) != build_pf(g.contract_edge(eid)):
            return _fail(f"link at {eid} differs from contraction-graph complex")
    return _PASS


@_check("target-s-edges-useless")
def _chk_target_s(ctx: _Ctx):
    into_s = [eid for eid, _, v in ctx.g.edges if v == ctx.g.s]
    if not into_s:
        return _SKIP
    missing = [e for e in into_s if e not in ctx.g.useless_edges()]
    if missing:
        return _fail(f"edges into s not useless: {missing}")
    return _PASS


@_check("contract-shared-target-makes-useless")
def _chk_shared_target(ctx: _Ctx):
    g = ctx.g
    fired = False
    for eid, u, v in g.edges:
        if u != g.s:
            continue
        if sum(1 for _, _, w in g.edges if w == v) < 2:
            continue
        fired = True
        if not g.contract_edge(eid).useless_edges():
            return _fail(f"contracting {eid} left no useless edge")
    return _PASS if fired else _SKIP


@_check("delete-sole-entry-makes-useless")
def _chk_sole_entry(ctx: _Ctx):
    g = ctx.g
    fired = False
    for eid, u, v in g.edges:
        if u != g.s or eid in g.useless_edges() or len(g.edges) <= 1:
            continue
        if sum(1 for _, _, w in g.edges if w == v) != 1:
            continue
        fired = True
        if not g.delete_edge(eid).useless_edges():
            return _fail(f"deleting {eid} left no useless edge")
    return _PASS if fired else _SKIP


@_check("contract-drops-one-nonsink")
def _chk_nonsink_drop(ctx: _Ctx):
    g = ctx.g
    if g.useless_edges():
        return _SKIP
    fired = False
    for eid, u, v in g.edges:
        if u != g.s or v == g.t:
            continue
        fired = True
        if len(g.contract_edge(eid).nonsinks()) != len(g.nonsinks()) - 1:
            return _fail(f"contracting {eid} did not drop exactly one nonsink")
    return _PASS if fired else _SKIP


@_check("cycle-survives-delete-contract")
def _chk_cycle_survives(ctx: _Ctx):
    g = ctx.g
    if g.useless_edges() or g.find_cycle() is None:
        return _SKIP
    fired = False
    for eid, u, _ in g.edges:
        if u != g.s:
            continue
        fired = True
        if g.delete_edge(eid).find_cycle() is None:
            return _fail(f"deletion of {eid} lost all cycles")
        if g.contract_edge(eid).find_cycle() is None:
            return _fail(f"contraction of {eid} lost all cycles")
    return _PASS if fired else _SKIP


@_check("contract-stays-clean-when-delete-dirty")
def _chk_contract_clean(ctx: _Ctx):
    g = ctx.g
    if g.useless_edges() or g.find_cycle() is not None:
        return _SKIP
    fired = False
    for eid, u, _ in g.edges:
        if u != g.s or not g.delete_edge(eid).useless_edges():
            continue
        fired = True
        contracted = g.contract_edge(eid)
        if contracted.find_cycle() is not None or contracted.useless_edges():
            return _fail(f"contraction of {eid} is not clean")
    return _PASS if fired else _SKIP


@_check("contract-gains-cycle-when-delete-clean")
def _chk_contract_cycle(ctx: _Ctx):
    g = ctx.g
    if g.useless_edges():
        return _SKIP
    fired = False
    for eid, u, v in g.edges:
        if u != g.s or v == g.t:
            continue
        deleted = g.delete_edge(eid)
        if deleted.useless_edges():
            continue
        fired = True
        if g.contract_edge(eid).find_cycle() is None:
            return _fail(f"contraction of {eid} gained no cycle")
        if deleted.nonsinks() != g.nonsinks():
            return _fail(f"deletion of {eid} changed the nonsinks")
    return _PASS if fired else _SKIP


@_check("useless-edge-cone")
def _chk_useless_cone(ctx: _Ctx):
    if not ctx.g.useless_edges():
        return _SKIP
    for name, c in ctx.both():
        for e in sorted(ctx.g.useless_edges()):
            if not c.is_cone_with_apex(e):
                return _fail(f"{name} is not a cone at useless edge {e}")
    return _PASS


@_check("chi-pm-closed-form")
def _chk_chi_pm(ctx: _Ctx):
    brute = ctx.pm.reduced_euler_characteristic()
    report = chi_pm_closed(ctx.g)
    if report.value != brute:
        return _fail(f"closed form {report.value} != brute force {brute}")
    return _PASS


@_check("chi-pf-closed-form")
def _chk_chi_pf(ctx: _Ctx):
    brute = ctx.pf.reduced_euler_characteristic()
    report = chi_pf_closed(ctx.g)
    if report.value != brute:
        return _fail(f"closed form {report.value} != brute force {brute}")
    return _PASS


@_check("face-count-parity")
def _chk_parity(ctx: _Ctx):
    for (name, c), report in zip(ctx.both(),
                                 (chi_pm_closed(ctx.g), chi_pf_closed(ctx.g))):
        want = "odd" if c.table.bit_count() % 2 else "even"
        if report.parity != want:
            return _fail(f"{name}: predicted parity {report.parity}, counted {want}")
    return _PASS


@_check("fpoly-quasicycle-divisibility")
def _chk_divisibility(ctx: _Ctx):
    try:
        report = check_divisibility(ctx.g)
    except ResourceLimitError as exc:
        return ("skip", str(exc))
    if not (report.pm_ok and report.pf_ok):
        return _fail(f"(1+x)^{report.kappa} does not divide both f-polynomials")
    return _PASS


@_check("dc-equals-enumeration")
def _chk_dc(ctx: _Ctx):
    if ctx.pm.f_polynomial() != fpoly_pm_dc(ctx.g):
        return _fail("path-missing recursion differs from enumeration")
    if ctx.pf.f_polynomial() != fpoly_pf_dc(ctx.g):
        return _fail("path-free polynomial differs from enumeration")
    return _PASS


@_check("homology-matches-classification")
def _chk_homology(ctx: _Ctx):
    for (name, c), cls in zip(ctx.both(),
                              (homotopy_pm(ctx.g), homotopy_pf(ctx.g))):
        betti = c.gf2_reduced_betti()
        if cls.kind == "empty":
            if not c.is_empty() or betti.entries:
                return _fail(f"{name}: predicted empty, got faces or homology")
        elif cls.kind == "contractible":
            if betti.entries:
                return _fail(f"{name}: contractible but homology {betti.entries}")
        else:
            if betti.entries != ((cls.dim, 1),):
                return _fail(f"{name}: expected a single class in dimension "
                             f"{cls.dim}, got {betti.entries}")
    return _PASS


@_check("strong-grape-certificates")
def _chk_strong_grape(ctx: _Ctx):
    for name, c in ctx.both():
        cert = is_strong_grape(c)
        if cert is None:
            return _fail(f"{name} is not recognized as a strong grape")
        if not replay_certificate(cert, c):
            return _fail(f"{name}: strong grape certificate does not replay")
    return _PASS


@_check("strong-implies-combinatorial")
def _chk_comb_grape(ctx: _Ctx):
    for name, c in ctx.both():
        cert = is_combinatorial_grape(c)
        if cert is None:
            return _fail(f"{name} is not recognized as a combinatorial grape")
        if not replay_certificate(cert, c):
            return _fail(f"{name}: combinatorial certificate does not replay")
    return _PASS


@_check("grape-apex-source-restriction")
def _chk_grape_apex(ctx: _Ctx):
    for which, c in ctx.both():
        cert = source_apex_strong_certificate(ctx.g, c, which)
        if cert is None:
            return _fail(f"{which}: no certificate through source-s apexes")
        if not replay_certificate(cert, c):
            return _fail(f"{which}: source-apex certificate does not replay")
    return _PASS


@_check("maxflow-equals-mincut")
def _chk_menger(ctx: _Ctx):
    g = ctx.g
    if g.s == g.t:
        return _SKIP
    flow = g.max_edge_disjoint_st_paths()
    cut = g.min_st_cutset_size()
    if flow != cut:
        return _fail(f"max disjoint paths {flow} != min cut {cut}")
    return _PASS


@_check("parallel-rgen-chi")
def _chk_rgen(ctx: _Ctx):
    g = ctx.g
    k = len(g.edges)
    if g.s == g.t or k == 0 or any((u, v) != (g.s, g.t) for _, u, v in g.edges):
        return _SKIP
    for r in range(1, k + 1):
        chi_pf = build_pf_r(g, r).reduced_euler_characteristic()
        chi_pm = build_pm_r(g, r).reduced_euler_characteristic()
        if chi_pf != (-1) ** r * comb(k - 1, r - 1):
            return _fail(f"path-free r={r} Euler characteristic {chi_pf}")
        if chi_pm != (-1) ** (k + r - 1) * comb(k - 1, r - 1):
            return _fail(f"path-missing r={r} Euler characteristic {chi_pm}")
    return _PASS


CHECK_MANIFEST = (
    "build-oracles-downward-closed",
    "pf-pm-alexander-dual",
    "pf-minimal-nonfaces-are-paths",
    "pm-minimal-nonfaces-are-min-cuts",
    "pf-codimension-is-min-cut",
    "pm-codimension-is-shortest-path",
    "pm-link-deletion-match-graph-ops",
    "pf-link-deletion-match-graph-ops",
    "target-s-edges-useless",
    "contract-shared-target-makes-useless",
    "delete-sole-entry-makes-useless",
    "contract-drops-one-nonsink",
    "cycle-survives-delete-contract",
    "contract-stays-clean-when-delete-dirty",
    "contract-gains-cycle-when-delete-clean",
    "useless-edge-cone",
    "chi-pm-closed-form",
    "chi-pf-closed-form",
    "face-count-parity",
    "fpoly-quasicycle-divisibility",
    "dc-equals-enumeration",
    "homology-matches-classification",
    "strong-grape-certificates",
    "strong-implies-combinatorial",
    "grape-apex-source-restriction",
    "maxflow-equals-mincut",
    "parallel-rgen-chi",
)


def _assert_registry_complete():
    registered = tuple(cid for cid, _ in _REGISTRY)
    if registered != CHECK_MANIFEST:
        missing = set(CHECK_MANIFEST) - set(registered)
        extra = set(registered) - set(CHECK_MANIFEST)
        raise AssertionError(
            f"check registry drifted from manifest: missing={sorted(missing)} "
            f"extra={sorted(extra)} (order matters)")


# -- harness ---------------------------------------------------------------------------


class CheckOutcome(NamedTuple):
    check_id: str
    status: str  # "pass" | "fail" | "skip" | "info"
    detail: str = ""


class GraphVerification(NamedTuple):
    index: int
    graph: Digraph
    outcomes: list[CheckOutcome]


class VerificationReport(NamedTuple):
    graphs: list[GraphVerification]

    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "skip": 0, "info": 0}
        for gv in self.graphs:
            for o in gv.outcomes:
                out[o.status] += 1
        return out

    def to_lines(self) -> list[str]:
        lines = [f"{gv.index} {o.check_id} {o.status}"
                 for gv in self.graphs for o in gv.outcomes]
        c = self.counts()
        lines.append(f"summary graphs={len(self.graphs)} pass={c['pass']} "
                     f"fail={c['fail']} skip={c['skip']} info={c['info']}")
        return lines

    def failure_payloads(self) -> list[str]:
        return [f"FAIL graph {gv.index} check {o.check_id}: {o.detail}\n{format_graph(gv.graph)}"
                for gv in self.graphs for o in gv.outcomes if o.status == "fail"]


def run_all_checks(g: Digraph) -> list[CheckOutcome]:
    """Execute the full registry against one graph.

    Check failures are outcomes, not exceptions; a resource guard firing
    inside a check demotes it to a skip with the guard's message.
    """
    _assert_registry_complete()
    ctx = _Ctx(g)
    outcomes = []
    for check_id, fn in _REGISTRY:
        try:
            status, detail = fn(ctx)
        except ResourceLimitError as exc:
            status, detail = "skip", str(exc)
        except Exception as exc:  # a crashing check is a failing check
            status, detail = "fail", f"check raised {exc!r}"
        outcomes.append(CheckOutcome(check_id, status, detail))
    return outcomes


def verify_corpus(spec: CorpusSpec) -> VerificationReport:
    return VerificationReport([GraphVerification(index, g, run_all_checks(g))
                               for index, g in enumerate(generate_corpus(spec))])
