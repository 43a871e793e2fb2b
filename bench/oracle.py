"""Answers the benchmark checks program output against.

None of them comes from the package under test:

* closed forms derived by hand for each family (grids and paths are
  acyclic with no useless edges; cycle and rail ladders are cyclic, so
  both complexes are contractible);
* a bitset brute force over every edge subset of a family's canonical
  graph, recorded once in ``answers.json`` (``python3 bench/oracle.py
  --record``) and mapped onto each seeded instance by edge label;
* cross-identities between outputs of one instance: Alexander duality of
  the f-polynomials, f(-1) and the Betti numbers against chi.

Grape certificates are not unique, so they are replayed step by step
against the brute-force face set instead of compared as text.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from functools import cache
from math import comb
from pathlib import Path

from graphs import (Family, Instance, cycle_ladder, double_cycle, grid,
                    rail_ladder, worked_example)

ANSWERS_FILE = Path(__file__).with_name("answers.json")

# Families whose brute-force answers are recorded, and which of them get
# the explicit-complex answers (facets, Betti numbers, r = 2 complexes).
RECORDED = (worked_example(), double_cycle(), grid(3, 3), grid(3, 4),
            cycle_ladder(6), rail_ladder(4), rail_ladder(5))
EXPLICIT_EDGE_LIMIT = 14


# -- polynomials as coefficient lists -----------------------------------------


def trim(coeffs) -> list[int]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def pretty(coeffs) -> str:
    """The CLI's polynomial format: ``c0 + c1*x + c2*x^2``, zeros omitted."""
    terms = []
    for k, c in enumerate(coeffs):
        if c:
            terms.append(str(c) if k == 0 else f"{c}*x" if k == 1 else f"{c}*x^{k}")
    return " + ".join(terms) if terms else "0"


def parse_pretty(text: str) -> list[int]:
    text = text.strip()
    if text == "0":
        return []
    out: dict[int, int] = {}
    for term in text.split(" + "):
        if "*x^" in term:
            c, k = term.split("*x^")
        elif term.endswith("*x"):
            c, k = term[:-2], "1"
        else:
            c, k = term, "0"
        out[int(k)] = int(c)
    return trim(out.get(k, 0) for k in range(max(out) + 1))


def evaluate(coeffs, x: int) -> int:
    return sum(c * x ** k for k, c in enumerate(coeffs))


def mod_one_plus_x_power(coeffs, n: int) -> list[int]:
    """Remainder of long division by the monic (1+x)^n."""
    divisor = [comb(n, k) for k in range(n + 1)]
    rem = list(coeffs)
    for i in range(len(rem) - 1, n - 1, -1):
        c = rem[i]
        for j, b in enumerate(divisor):
            rem[i - n + j] -= c * b
    return trim(rem[:n])


def dual_pf(f_pm, m: int) -> list[int]:
    """f_pf[k] = C(m, k) - f_pm[m - k] (Alexander duality)."""
    f = list(f_pm) + [0] * (m + 1 - len(f_pm))
    return trim(comb(m, k) - f[m - k] for k in range(m + 1))


def chi_of(coeffs) -> int:
    """Reduced Euler characteristic of a complex with this f-polynomial."""
    return -evaluate(coeffs, -1)


# -- brute force on the canonical graph ----------------------------------------


def st_path_masks(family: Family) -> list[int]:
    """Edge masks of all simple s-t-paths, by depth-first search."""
    out_edges: dict[str, list[tuple[int, str]]] = {v: [] for v in family.vertices}
    for k, (u, v) in enumerate(family.edges):
        out_edges[u].append((k, v))
    found = []

    def walk(v, visited, mask):
        if v == family.t:
            found.append(mask)
            return
        for k, w in out_edges[v]:
            if w not in visited:
                walk(w, visited | {w}, mask | 1 << k)

    walk(family.s, {family.s}, 0)
    return found


def _repeat(pattern: int, period: int, total: int) -> int:
    out, width = pattern, period
    while width < total:
        out |= out << width
        width *= 2
    return out & ((1 << total) - 1)


def superset_closure(masks, m: int) -> int:
    """Bitset over all 2^m subsets: bit S set iff S contains some mask."""
    n = 1 << m
    arr = 0
    for mask in masks:
        arr |= 1 << mask
    for b in range(m):
        step = 1 << b
        low = _repeat((1 << step) - 1, 2 * step, n)
        arr |= (arr & low) << step
    return arr


def size_classes(m: int) -> list[int]:
    """Bitsets over all 2^m subsets selecting the subsets of each size."""
    classes = [1]
    for j in range(m):
        width = 1 << j
        classes = [(classes[k] if k < len(classes) else 0)
                   | ((classes[k - 1] << width) if k >= 1 else 0)
                   for k in range(j + 2)]
    return classes


def fpolys(family: Family) -> tuple[list[int], list[int]]:
    """f-polynomials of the path-missing and path-free complexes.

    A removed set F is a path-missing face iff its complement contains a
    path; a set is a path-free face iff it contains none.
    """
    m = len(family.edges)
    has_path = superset_closure(st_path_masks(family), m)
    sizes = size_classes(m)
    with_path = [(has_path & sizes[k]).bit_count() for k in range(m + 1)]
    f_pm = trim(with_path[m - k] for k in range(m + 1))
    f_pf = trim(comb(m, k) - with_path[k] for k in range(m + 1))
    return f_pm, f_pf


def face_sets(family: Family) -> dict[str, set[int]]:
    """Explicit face masks of pm, pf and their r = 2 versions."""
    m = len(family.edges)
    full = (1 << m) - 1
    paths = st_path_masks(family)
    has_path = superset_closure(paths, m)
    pairs = [p | q for i, p in enumerate(paths) for q in paths[i + 1:] if not p & q]
    has_two = superset_closure(pairs, m)
    out = {"pm": set(), "pf": set(), "pm2": set(), "pf2": set()}
    for mask in range(full + 1):
        rest = full ^ mask
        if has_path >> rest & 1:
            out["pm"].add(mask)
        if not has_path >> mask & 1:
            out["pf"].add(mask)
        if has_two >> rest & 1:
            out["pm2"].add(mask)
        if not has_two >> mask & 1:
            out["pf2"].add(mask)
    return out


def facets(faces: set[int], m: int) -> list[int]:
    return [f for f in faces
            if not any(not f >> b & 1 and f | 1 << b in faces for b in range(m))]


def gf2_betti(faces: set[int]) -> list[list[int]]:
    """Reduced Betti numbers over GF(2), as [dimension, count] pairs."""
    by_size: dict[int, list[int]] = {}
    for f in faces:
        by_size.setdefault(f.bit_count(), []).append(f)
    index = {k: {f: i for i, f in enumerate(fs)} for k, fs in by_size.items()}

    def rank(k: int) -> int:
        if k not in by_size or k - 1 not in index:
            return 0
        rows, basis, r = index[k - 1], {}, 0
        for f in by_size[k]:
            col, bits = 0, f
            while bits:
                low = bits & -bits
                col |= 1 << rows[f ^ low]
                bits ^= low
            while col:
                h = col.bit_length() - 1
                if h not in basis:
                    basis[h] = col
                    r += 1
                    break
                col ^= basis[h]
        return r

    out = []
    for k in range(max(by_size, default=-1) + 1):
        b = len(by_size.get(k, ())) - rank(k) - rank(k + 1)
        if b:
            out.append([k - 1, b])
    return out


def record() -> dict:
    answers = {}
    for family in RECORDED:
        m = len(family.edges)
        f_pm, f_pf = fpolys(family)
        entry = {"edges": m, "f_pm": f_pm, "f_pf": f_pf}
        if m <= EXPLICIT_EDGE_LIMIT:
            faces = face_sets(family)
            for which in ("pm", "pf"):
                entry[f"facets_{which}"] = sorted(
                    [k for k in range(m) if f >> k & 1]
                    for f in facets(faces[which], m))
                entry[f"betti_{which}"] = gf2_betti(faces[which])
                r2 = faces[which + "2"]
                entry[f"rgen2_{which}"] = [sum(1 if f.bit_count() % 2 else -1 for f in r2),
                                           len(facets(r2, m))]
        answers[family.name] = entry
    return answers


# -- hand-derived closed forms --------------------------------------------------


@dataclass
class Truth:
    """Everything known about one family, in canonical edge indices."""

    m: int
    f_pm: list[int] | None = None
    f_pf: list[int] | None = None
    chi: dict = field(default_factory=dict)       # complex -> (value, case tag)
    homotopy: dict = field(default_factory=dict)  # complex -> description
    analyze: dict | None = None
    recorded: dict = field(default_factory=dict)


def closed_forms(family: Family) -> Truth:
    m, n_vertices = len(family.edges), len(family.vertices)
    truth = Truth(m)
    if family.kind in ("grid", "path"):
        # Acyclic, every edge on an s-t-path, every vertex but t a nonsink.
        nonsinks = n_vertices - 1
        pm = (-1) ** (m - nonsinks + 1)
        pf = (-1) ** nonsinks
        truth.chi = {"pm": (pm, "generic-acyclic"), "pf": (pf, "generic-acyclic")}
        truth.homotopy = {"pm": f"sphere {m - nonsinks - 1}",
                          "pf": f"sphere {nonsinks - 2}"}
        if family.kind == "grid":
            rows, cols = family.size
            cut, shortest = 2, rows + cols - 2
        else:
            cut, shortest = 1, m
            truth.f_pm = [1]
            truth.f_pf = trim(comb(m, k) for k in range(m))
        truth.analyze = dict(cycle=False, useless=set(),
                             nonsinks=set(family.vertices) - {family.t},
                             packing=0, cut=cut, shortest=shortest)
        return truth
    if family.kind in ("cycle-ladder", "rail-ladder"):
        # Every rung is a 2-cycle, so both complexes are contractible; the
        # rung cycles are pairwise disjoint and no other cycle exists.
        rungs = family.size[0]
        truth.chi = {"pm": (0, "useless-or-cycle"), "pf": (0, "useless-or-cycle")}
        truth.homotopy = {"pm": "contractible", "pf": "contractible"}
        if family.kind == "cycle-ladder":
            # Only the forward edges lie on the one s-t-path.
            useless = {2 * i + 1 for i in range(rungs)}
            cut = 1
            truth.f_pm = trim(comb(rungs, k) for k in range(rungs + 1))
            truth.f_pf = dual_pf(truth.f_pm, m)
        else:
            # b0 -> a0 would revisit s, b_last -> a_last would leave t.
            last = rungs - 1
            useless = {family.edges.index(("b0", "a0")),
                       family.edges.index((f"b{last}", f"a{last}"))}
            cut = 2
        truth.analyze = dict(cycle=True, useless=useless,
                             nonsinks=set(family.vertices), packing=rungs,
                             cut=cut, shortest=rungs)
    return truth


@cache
def _answers() -> dict:
    return json.loads(ANSWERS_FILE.read_text())


def truth_for(family: Family) -> Truth:
    truth = closed_forms(family)
    rec = _answers().get(family.name)
    if rec is not None:
        truth.recorded = rec
        truth.f_pm, truth.f_pf = rec["f_pm"], rec["f_pf"]
        if not truth.chi:
            truth.chi = {"pm": (chi_of(rec["f_pm"]), None),
                         "pf": (chi_of(rec["f_pf"]), None)}
    return truth


# -- expected stdout per op --------------------------------------------------------


def _labels(inst: Instance, edges) -> str:
    return " ".join(f"e{k}" for k in sorted(edges, key=inst.position))


def _analyze_text(inst: Instance, a: dict) -> str:
    nonsinks = [inst.rename[v] for v in inst.family.vertices if v in a["nonsinks"]]
    return "\n".join([
        f"cycle: {'yes' if a['cycle'] else 'no'}",
        f"useless-edges: {_labels(inst, a['useless']) if a['useless'] else '(none)'}",
        f"nonsinks: {' '.join(nonsinks) if nonsinks else '(none)'}",
        f"quasi-cycle-packing: {a['packing']}",
        f"min-cut: {a['cut']}",
        f"shortest-path-length: {a['shortest']}",
    ])


def _divis_text(truth: Truth, kappa: int) -> str:
    lines = [f"kappa: {kappa}"]
    for which, f in (("pm", truth.f_pm), ("pf", truth.f_pf)):
        divisible = not mod_one_plus_x_power(f, kappa)
        lines.append(f"{which}-divisible: {'yes' if divisible else 'no'}")
        lines.append(f"{which}-remainder: {pretty(mod_one_plus_x_power(f, kappa + 1))}")
    return "\n".join(lines)


def _facets_text(inst: Instance, facet_list) -> str:
    if not facet_list:
        return "(no faces)"
    rows = sorted((sorted(map(inst.position, f)) for f in facet_list),
                  key=lambda ids: (len(ids), ids))
    return "\n".join(" ".join(f"e{inst.edge_order[i]}" for i in ids) or "(empty)"
                     for ids in rows)


def expected(inst: Instance, truth: Truth, argv: list[str]):
    """Expected stdout (without the final newline) of one CLI call, or a
    checker taking the stdout, or None when nothing is known."""
    cmd, opts = argv[0], dict(zip(argv[2::2], argv[3::2]))
    which = opts.get("--complex")
    rec = truth.recorded
    if cmd == "fpoly":
        f = truth.f_pm if which == "pm" else truth.f_pf
        return None if f is None else pretty(f)
    if cmd == "divis":
        return _divis_text(truth, truth.analyze["packing"])
    if cmd == "chi":
        value, tag = truth.chi[which]
        return f"{value} {tag} {'odd' if value % 2 else 'even'}"
    if cmd == "homotopy":
        return truth.homotopy[which]
    if cmd == "analyze":
        return _analyze_text(inst, truth.analyze)
    if cmd == "facets":
        return _facets_text(inst, rec[f"facets_{which}"])
    if cmd == "homology":
        betti = rec[f"betti_{which}"]
        return "betti: " + (" ".join(f"{d}:{b}" for d, b in betti) if betti else "none")
    if cmd == "dual-check":
        return "dual-check: ok"
    if cmd == "rgen":
        chi, count = rec[f"rgen2_{which}"]
        return f"chi: {chi}\nfacets: {count}"
    if cmd == "grape":
        faces = face_sets(inst.family)[which]
        m = len(inst.family.edges)
        return lambda out: replay(out, tuple(range(m)), faces)
    raise ValueError(f"no oracle for {cmd}")


def cross_check(outputs: dict[tuple, str], truth: Truth) -> list[tuple]:
    """Identities between outputs of one instance; returns the op keys
    (argv tuples) of every identity that fails."""
    bad = []
    polys = {}
    for argv, out in outputs.items():
        if argv[0] == "fpoly":
            polys.setdefault(argv[3], []).append((argv, parse_pretty(out)))
    for pm_argv, f_pm in polys.get("pm", []):
        for pf_argv, f_pf in polys.get("pf", []):
            if dual_pf(f_pm, truth.m) != f_pf:
                bad += [pm_argv, pf_argv]
    for which, entries in polys.items():
        for argv, f in entries:
            if chi_of(f) != truth.chi[which][0]:
                bad.append(argv)
    for argv, out in outputs.items():
        if argv[0] == "homology":
            entries = out.split()[1:] if out != "betti: none" else []
            alt = sum(int(b) * (-1) ** int(d)
                      for d, b in (e.split(":") for e in entries))
            if alt != truth.chi[argv[3]][0]:
                bad.append(argv)
        if argv[0] == "dual-check" and out != "dual-check: ok":
            bad.append(argv)
    return bad


# -- grape certificates --------------------------------------------------------------


def _parse_certificate(lines: list[str]):
    """Nested (header, [children]) from the indented certificate text."""
    def node(i: int, depth: int):
        header = lines[i][2 * depth:]
        if lines[i][:2 * depth].strip() or header.startswith(" "):
            raise ValueError("bad indentation")
        i += 1
        children = []
        if header.startswith("split "):
            for _ in range(2):
                child, i = node(i, depth + 1)
                children.append(child)
        return (header, children), i

    tree, end = node(0, 0)
    if end != len(lines):
        raise ValueError("trailing lines")
    return tree


def _edge(token: str) -> int:
    if not token.startswith("e"):
        raise ValueError(f"not an edge label: {token}")
    return int(token[1:])


def _replay(tree, ground: tuple[int, ...], faces: set[int]) -> bool:
    header, children = tree
    if header.startswith("base "):
        listed = header[len("base "):].strip("{}").split()
        return len(ground) <= 1 and sorted(map(_edge, listed)) == sorted(ground)
    fields = dict(part.split("=", 1) if "=" in part else (part, "")
                  for part in header.split()[1:])
    apex = _edge(fields["apex"])
    if apex not in ground:
        return False
    bit = 1 << apex
    link = {f ^ bit for f in faces if f & bit}
    deletion = {f for f in faces if not f & bit}
    rest = tuple(x for x in ground if x != apex)
    if "cone" in fields:
        child = link if fields["cone"] == "link" else deletion
        w = _edge(fields["cone-apex"])
        if w not in rest or any(f | 1 << w not in child for f in child):
            return False
    else:
        b = _edge(fields["sandwich"])
        if b not in rest or any(f | 1 << b not in deletion for f in link):
            return False
        if ("vacuous" in fields) != (not link):
            return False
    return (_replay(children[0], rest, link)
            and _replay(children[1], rest, deletion))


def replay(stdout: str, ground: tuple[int, ...], faces: set[int]) -> bool:
    """True iff the printed certificate proves a grape on this complex.

    Path-missing and path-free complexes are always grapes, so
    ``not-a-grape`` is a wrong answer.
    """
    try:
        return _replay(_parse_certificate(stdout.splitlines()), ground, faces)
    except (ValueError, KeyError, IndexError):
        return False


# -- the verify corpus ----------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def corpus_digest(seed: int, count: int = 200, max_vertices: int = 6,
                  max_edges: int = 8) -> list[list]:
    """Random part of the default verify corpus, redrawn from the documented
    splitmix64 stream: [vertex count, s, t, edges] per graph."""
    state = seed & _MASK64

    def below(n: int) -> int:
        nonlocal state
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) % n

    out = []
    for _ in range(count):
        n = 1 + below(max_vertices)
        s, t = f"v{below(n)}", f"v{below(n)}"
        m = below(max_edges + 1)
        edges = [[f"v{below(n)}", f"v{below(n)}"] for _ in range(m)]
        out.append([n, s, t, edges])
    return out


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 bench/oracle.py --record")
    ANSWERS_FILE.write_text(json.dumps(record(), separators=(",", ":")) + "\n")
