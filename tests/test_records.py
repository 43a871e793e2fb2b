"""The records and the two query-caching classes: import footprint,
value semantics and every repr the package prints."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pathcomplexes.digraph import Digraph
from pathcomplexes.errors import ResourceLimitError
from pathcomplexes.grapes import is_combinatorial_grape, is_strong_grape
from pathcomplexes.pathcomplex import (build_pf, build_pm, check_divisibility,
                                       chi_pf_closed, chi_pm_closed,
                                       homotopy_pf, homotopy_pm)
from pathcomplexes.simplicial import SimplicialComplex
from pathcomplexes.verify import (CorpusSpec, example_graph, generate_corpus,
                                  run_all_checks)

SRC = Path(__file__).resolve().parents[1] / "src"

# sha256 of repr(rows) below, as the reprs read when the records were dataclasses.
REPR_DIGEST = "33c3405ff37d5210b0c69c2e4228ff3d7e86d5660799ec65a90ddbaf031ea1cc"


def test_import_loads_no_dataclasses():
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = ("import sys, pathcomplexes.cli, pathcomplexes.verify; "
            f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == []


def _complex():
    return SimplicialComplex.from_faces((1, 2, 3), [(), (1,), (2,), (1, 2)])


@pytest.mark.parametrize("make, fields, query", [
    (example_graph, ("vertices", "edges", "s", "t", "edge_labels"),
     lambda g: g.useless_edges()),
    (_complex, ("ground", "table"), lambda c: c.faces),
], ids=["Digraph", "SimplicialComplex"])
def test_cached_classes_keep_value_semantics(make, fields, query):
    a, b = make(), make()
    values = tuple(getattr(a, f) for f in fields)

    def assert_frozen(x):
        for name in (fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(x, name, values[0])

    assert a == b and hash(a) == hash(b) and a is not b
    assert a != values and values != a
    assert_frozen(a)
    query(a)  # the cached answer lands in a's __dict__ only
    assert_frozen(a)
    assert a == b and hash(a) == hash(b) and b == a
    assert repr(a) == repr(b) == f"{type(a).__name__}(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)) + ")"


def test_digraphs_differing_in_one_field_are_unequal():
    g = Digraph.build(["s", "t"], [("s", "t")], "s", "t", labels=["a"])
    assert g != Digraph.build(["s", "t"], [("s", "t")], "s", "t")
    assert g != Digraph.build(["s", "t"], [("s", "t")], "t", "s", labels=["a"])
    assert g != g.delete_edge(0)


def _or_limit(fn):
    try:
        return fn()
    except ResourceLimitError as exc:
        return ("limit", str(exc))


def test_every_repr_is_pinned():
    rows = []
    for g in generate_corpus(CorpusSpec(200)):
        pm, pf = build_pm(g), build_pf(g)
        rows.append((g, pm, pf, chi_pm_closed(g), chi_pf_closed(g), homotopy_pm(g),
                     homotopy_pf(g), _or_limit(lambda: check_divisibility(g)),
                     g.find_cycle(), g.enumerate_st_paths(),
                     _or_limit(g.max_disjoint_quasi_cycles), pm.gf2_reduced_betti(),
                     pf.gf2_reduced_betti(), is_strong_grape(pm),
                     is_combinatorial_grape(pf), run_all_checks(g), CorpusSpec(200)))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == REPR_DIGEST
