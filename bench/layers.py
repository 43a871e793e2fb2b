"""Which calls of the package are traced, and the per-layer metrics.

Layers are the package modules.  Each public call of interest gets a
span named ``<module>.<call>``; a few calls share one span name when the
metric groups them (``polynomial`` for all polynomial arithmetic,
``*.other`` for calls no metric names).  Counters that need the
call's arguments or result are taken by hooks here, in the benchmark,
never inside the package.
"""

from __future__ import annotations

import importlib

MODULES = ("cli", "digraph", "graphio", "grapes", "pathcomplex", "polynomial",
           "simplicial", "verify")

# The verify check registry at the time the benchmark was written.  A
# check that later leaves the registry reports zero self time.
CHECK_IDS = (
    "build-oracles-downward-closed", "pf-pm-alexander-dual", "dual-involution",
    "pf-minimal-nonfaces-are-paths", "pm-minimal-nonfaces-are-min-cuts",
    "facets-complement-dual-nonfaces", "pf-codimension-is-min-cut",
    "pm-codimension-is-shortest-path", "deletion-star-partition",
    "contraction-path-correspondence", "pm-link-deletion-match-graph-ops",
    "pf-link-deletion-match-graph-ops", "target-s-edges-useless",
    "contract-shared-target-makes-useless", "delete-sole-entry-makes-useless",
    "contract-drops-one-nonsink", "cycle-survives-delete-contract",
    "contract-stays-clean-when-delete-dirty",
    "contract-gains-cycle-when-delete-clean", "fpoly-deletion-link-recursion",
    "fpoly-cone-factor", "fpoly-dual-coefficients", "chi-deletion-link-recursion",
    "chi-dual-sign", "chi-boundary-sphere", "chi-full-simplex", "chi-cone-vanishes",
    "useless-edge-cone", "chi-pm-closed-form", "chi-pf-closed-form",
    "face-count-parity", "fpoly-quasicycle-divisibility", "dc-equals-enumeration",
    "homology-matches-classification", "chi-equals-betti-alternating-sum",
    "suspension-negates-chi", "strong-grape-certificates",
    "strong-implies-combinatorial", "grape-apex-source-restriction",
    "maxflow-equals-mincut", "parallel-rgen-chi", "rgen-duality-probe",
)

# (per-layer metric, unit).  Self times come from spans, the rest from
# call counts and hook counters.
METRICS = [
    ("pathcomplex.fpoly_dc.nodes", "count"),
    ("pathcomplex.fpoly_dc.distinct", "count"),
    ("pathcomplex.fpoly_dc.distinct_ratio", "ratio"),
    ("pathcomplex.fpoly_dc.self_s", "s"),
    ("polynomial.ops", "count"),
    ("polynomial.self_s", "s"),
    ("digraph.delete_edge.calls", "count"),
    ("digraph.contract_edge.calls", "count"),
    ("digraph.minor.self_s", "s"),
    ("digraph.has_st_path.calls", "count"),
    ("digraph.has_st_path.self_s", "s"),
    ("pathcomplex.build.calls", "count"),
    ("pathcomplex.build.subsets", "count"),
    ("pathcomplex.build.faces", "count"),
    ("pathcomplex.build.face_ratio", "ratio"),
    ("pathcomplex.build.self_s", "s"),
    ("digraph.has_st_path_within.calls", "count"),
    ("digraph.has_st_path_within.self_s", "s"),
    ("simplicial.validate.self_s", "s"),
    ("simplicial.facets.calls", "count"),
    ("simplicial.facets.self_s", "s"),
    ("simplicial.alexander_dual.self_s", "s"),
    ("simplicial.gf2_reduced_betti.self_s", "s"),
    ("simplicial.link_deletion.calls", "count"),
    ("simplicial.link_deletion.self_s", "s"),
    ("simplicial.is_cone_with_apex.calls", "count"),
    ("simplicial.other.self_s", "s"),
    ("grapes.strong.self_s", "s"),
    ("grapes.combinatorial.self_s", "s"),
    ("grapes.replay.self_s", "s"),
    ("digraph.find_cycle.self_s", "s"),
    ("digraph.useless_edges.self_s", "s"),
    ("digraph.enumerate_st_paths.self_s", "s"),
    ("digraph.quasi_cycles.self_s", "s"),
    ("digraph.max_disjoint_quasi_cycles.self_s", "s"),
    ("digraph.flow.calls", "count"),
    ("digraph.flow.self_s", "s"),
    ("digraph.other.self_s", "s"),
    ("pathcomplex.closed_form.self_s", "s"),
    ("graphio.parse_graph.calls", "count"),
    ("graphio.parse_graph.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("verify.generate_corpus.self_s", "s"),
    ("verify.run_all_checks.calls", "count"),
    *((f"verify.check.{cid}.self_s", "s") for cid in CHECK_IDS),
    ("verify.check.decided_ratio", "ratio"),
    ("trace.spans", "count"),
    ("trace.counters.self_s", "s"),
    ("trace.pass_s", "s"),
    ("trace.overhead_s", "s"),
]


def _fpoly_hook(complex_name: str):
    """Counts recursion nodes and distinct subproblems: the canonical edge
    multiset plus (s, t), per complex."""
    def hook(tracer, args, result):
        g = args[0]
        tracer.counters["pathcomplex.fpoly_dc.nodes"] += 1
        tracer.distinct["pathcomplex.fpoly_dc.distinct"].add(
            (complex_name, tuple(sorted((u, v) for _, u, v in g.edges)), g.s, g.t))
    return hook


def _build_hook(tracer, args, result):
    tracer.counters["pathcomplex.build.subsets"] += 2 ** len(args[0].edges)
    tracer.counters["pathcomplex.build.faces"] += len(result.faces)


def _checks_hook(tracer, args, result):
    tracer.counters["verify.check.attempted"] += len(result)
    tracer.counters["verify.check.decided"] += sum(o.status != "skip" for o in result)


def install(tracer):
    """Patch every traced call of the package; ``tracer.uninstall()``
    restores them all."""
    mods = [importlib.import_module(f"pathcomplexes.{m}") for m in MODULES]
    mods.append(importlib.import_module("pathcomplexes"))
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
    digraph, pathcomplex = by_name["digraph"], by_name["pathcomplex"]
    polynomial, simplicial = by_name["polynomial"], by_name["simplicial"]
    grapes, verify = by_name["grapes"], by_name["verify"]

    def everywhere(fn, span, hook=None):
        tracer.patch_everywhere(mods, fn, span, hook)

    for complex_name in ("pm", "pf"):
        everywhere(getattr(pathcomplex, f"fpoly_{complex_name}_dc"),
                   "pathcomplex.fpoly_dc", _fpoly_hook(complex_name))
    for name in ("build_pm", "build_pf", "build_pm_r", "build_pf_r"):
        everywhere(getattr(pathcomplex, name), "pathcomplex.build", _build_hook)
    for name in ("chi_pm_closed", "chi_pf_closed", "homotopy_pm", "homotopy_pf"):
        everywhere(getattr(pathcomplex, name), "pathcomplex.closed_form")

    Digraph = digraph.Digraph
    for attr, span in (("delete_edge", "digraph.delete_edge"),
                       ("contract_edge", "digraph.contract_edge"),
                       ("subgraph", "digraph.subgraph"), ("has_st_path", "digraph.has_st_path"),
                       ("has_st_path_within", "digraph.has_st_path_within"),
                       ("find_cycle", "digraph.find_cycle"),
                       ("useless_edges", "digraph.useless_edges"),
                       ("enumerate_st_paths", "digraph.enumerate_st_paths"),
                       ("quasi_cycles", "digraph.quasi_cycles"),
                       ("max_disjoint_quasi_cycles", "digraph.max_disjoint_quasi_cycles"),
                       ("_max_flow", "digraph.flow"),
                       ("nonsinks", "digraph.other"),
                       ("shortest_st_path_length", "digraph.other"),
                       ("min_st_cutset_size", "digraph.other"),
                       ("max_edge_disjoint_st_paths", "digraph.other")):
        tracer.patch(Digraph, attr, span)

    IntPolynomial = polynomial.IntPolynomial
    for attr in ("__add__", "__sub__", "__mul__", "shift", "evaluate",
                 "one_plus_x_power", "divmod_monic", "pretty"):
        tracer.patch(IntPolynomial, attr, "polynomial")
    everywhere(polynomial.poly_divisibility, "polynomial")

    SC = simplicial.SimplicialComplex
    for attr, span in (("validate", "simplicial.validate"), ("facets", "simplicial.facets"),
                       ("alexander_dual", "simplicial.alexander_dual"),
                       ("gf2_reduced_betti", "simplicial.gf2_reduced_betti"),
                       ("link", "simplicial.link_deletion"),
                       ("deletion", "simplicial.link_deletion"),
                       ("is_cone_with_apex", "simplicial.is_cone_with_apex"),
                       ("f_polynomial", "simplicial.other"),
                       ("reduced_euler_characteristic", "simplicial.other"),
                       ("minimal_nonfaces", "simplicial.other"),
                       ("suspension", "simplicial.other"),
                       ("star", "simplicial.other")):
        tracer.patch(SC, attr, span)

    everywhere(grapes.is_strong_grape, "grapes.strong")
    everywhere(grapes.is_combinatorial_grape, "grapes.combinatorial")
    everywhere(grapes.replay_certificate, "grapes.replay")
    everywhere(by_name["graphio"].parse_graph, "graphio.parse_graph")
    everywhere(verify.generate_corpus, "verify.generate_corpus")
    everywhere(verify.run_all_checks, "verify.run_all_checks", _checks_hook)
    for i, (cid, fn) in enumerate(verify._REGISTRY):
        tracer.patch_item(verify._REGISTRY, i,
                          (cid, tracer.wrap(fn, f"verify.check.{cid}")))
    return tracer.patch_everywhere(mods, by_name["cli"].main, "cli.main")


def summarize(tracer) -> dict:
    """Per-op raw numbers: self time and calls per span, counters."""
    self_s, calls, roots = tracer.self_times()
    return {"self_s": self_s, "calls": calls, "roots_s": roots,
            "spans": len(tracer.sid), "counters": tracer.counter_values()}


def metrics(total: dict, traced_pass_s: float, untraced_pass_s: float) -> dict:
    """Per-layer metrics from summaries summed over the ops of a pass."""
    self_s, calls, c = total["self_s"], total["calls"], total["counters"]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "pathcomplex.fpoly_dc.nodes": c.get("pathcomplex.fpoly_dc.nodes", 0),
        "pathcomplex.fpoly_dc.distinct": c.get("pathcomplex.fpoly_dc.distinct", 0),
        "pathcomplex.fpoly_dc.distinct_ratio": ratio(
            c.get("pathcomplex.fpoly_dc.distinct", 0), c.get("pathcomplex.fpoly_dc.nodes", 0)),
        "polynomial.ops": calls.get("polynomial", 0),
        "digraph.delete_edge.calls": calls.get("digraph.delete_edge", 0),
        "digraph.contract_edge.calls": calls.get("digraph.contract_edge", 0),
        "digraph.minor.self_s": sum(self_s.get(f"digraph.{op}", 0.0)
                                    for op in ("delete_edge", "contract_edge", "subgraph")),
        "digraph.has_st_path.calls": calls.get("digraph.has_st_path", 0),
        "pathcomplex.build.calls": calls.get("pathcomplex.build", 0),
        "pathcomplex.build.subsets": c.get("pathcomplex.build.subsets", 0),
        "pathcomplex.build.faces": c.get("pathcomplex.build.faces", 0),
        "pathcomplex.build.face_ratio": ratio(c.get("pathcomplex.build.faces", 0),
                                              c.get("pathcomplex.build.subsets", 0)),
        "digraph.has_st_path_within.calls": calls.get("digraph.has_st_path_within", 0),
        "simplicial.facets.calls": calls.get("simplicial.facets", 0),
        "simplicial.link_deletion.calls": calls.get("simplicial.link_deletion", 0),
        "simplicial.is_cone_with_apex.calls": calls.get("simplicial.is_cone_with_apex", 0),
        "digraph.flow.calls": calls.get("digraph.flow", 0),
        "graphio.parse_graph.calls": calls.get("graphio.parse_graph", 0),
        "verify.run_all_checks.calls": calls.get("verify.run_all_checks", 0),
        "verify.check.decided_ratio": ratio(c.get("verify.check.decided", 0),
                                            c.get("verify.check.attempted", 0)),
        "trace.spans": total["spans"],
        "trace.pass_s": traced_pass_s,
        "trace.overhead_s": traced_pass_s - untraced_pass_s,
    }
    for name, unit in METRICS:
        if name not in out:
            out[name] = self_s.get(name.removesuffix(".self_s"), 0.0)
    return out
