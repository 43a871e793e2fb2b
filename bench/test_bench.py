"""Self-tests of the benchmark: ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import oracle  # noqa: E402
from graphs import (cycle_ladder, grid, instance, path, rail_ladder,  # noqa: E402
                    worked_example)
from spans import Tracer  # noqa: E402

import pathcomplexes  # noqa: E402
from pathcomplexes import cli, verify  # noqa: E402


def _instance(family, seed=7):
    return instance(family, random.Random(seed), f"{family.name}#0")


def _run_cli(inst, argv_tail, tmp_path):
    file = tmp_path / "g.graph"
    file.write_text(inst.text)
    argv = [argv_tail[0], str(file), *argv_tail[1:]]
    proc = subprocess.run([sys.executable, "-m", "pathcomplexes.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    return argv, proc.stdout.rstrip("\n")


# -- the oracle ---------------------------------------------------------------------


def test_recorded_answers_are_current():
    assert json.loads(oracle.ANSWERS_FILE.read_text()) == oracle.record()


@pytest.mark.parametrize("family", [grid(2, 3), grid(3, 3), path(5), cycle_ladder(4),
                                    rail_ladder(3), rail_ladder(4)])
def test_closed_forms_match_brute_force(family):
    truth = oracle.closed_forms(family)
    f_pm, f_pf = oracle.fpolys(family)
    if truth.f_pm is not None:
        assert (truth.f_pm, truth.f_pf) == (f_pm, f_pf)
    assert truth.chi["pm"][0] == oracle.chi_of(f_pm)
    assert truth.chi["pf"][0] == oracle.chi_of(f_pf)
    used = 0
    for mask in oracle.st_path_masks(family):
        used |= mask
    useless = {k for k in range(len(family.edges)) if not used >> k & 1}
    assert truth.analyze["useless"] == useless
    faces = oracle.face_sets(family)
    m = len(family.edges)
    assert truth.analyze["cut"] == min(
        f.bit_count() for f in range(1 << m) if f not in faces["pm"])
    assert truth.analyze["shortest"] == min(
        p.bit_count() for p in oracle.st_path_masks(family))
    for which in ("pm", "pf"):
        kind, *dim = truth.homotopy[which].split()
        betti = oracle.gf2_betti(faces[which])
        assert betti == ([[int(dim[0]), 1]] if kind == "sphere" else [])


def test_oracle_accepts_the_program_and_rejects_a_corrupted_answer(tmp_path):
    inst = _instance(grid(3, 3))
    truth = oracle.truth_for(inst.family)
    argv, out = _run_cli(inst, ["fpoly", "--complex", "pm", "--method", "dc"], tmp_path)
    assert out == oracle.expected(inst, truth, argv)
    coeffs = oracle.parse_pretty(out)
    coeffs[2] += 1
    assert oracle.pretty(coeffs) != oracle.expected(inst, truth, argv)

    pf_argv, pf_out = _run_cli(inst, ["fpoly", "--complex", "pf", "--method", "dc"], tmp_path)
    pf_argv = tuple(pf_argv[:1]) + ("other-file",) + tuple(pf_argv[2:])
    good = {tuple(argv): out, pf_argv: pf_out}
    assert oracle.cross_check(good, truth) == []
    bad = dict(good)
    bad[tuple(argv)] = oracle.pretty(coeffs)
    assert set(oracle.cross_check(bad, truth)) == {tuple(argv), pf_argv}


def test_grape_replay_rejects_a_tampered_certificate(tmp_path):
    inst = _instance(worked_example())
    truth = oracle.truth_for(inst.family)
    argv, out = _run_cli(inst, ["grape", "--complex", "pm", "--mode", "strong"], tmp_path)
    check = oracle.expected(inst, truth, argv)
    assert check(out)
    assert not check("not-a-grape")
    first = out.splitlines()[0]
    apex = first.split()[1]
    other = next(f"apex=e{k}" for k in range(7) if f"apex=e{k}" != apex)
    assert not check(out.replace(first, first.replace(apex, other), 1))


def test_corpus_digest_matches_the_package():
    graphs = verify.generate_corpus(verify.CorpusSpec(graph_count=50, seed=3))
    digest = [[len(g.vertices), g.s, g.t, [[u, v] for _, u, v in g.edges]]
              for g in graphs[-50:]]
    assert digest == oracle.corpus_digest(3, 50)


# -- tracing ------------------------------------------------------------------------


def _snapshot():
    mods = [getattr(pathcomplexes, m) for m in layers.MODULES] + [pathcomplexes]
    classes = [pathcomplexes.Digraph, pathcomplexes.IntPolynomial,
               pathcomplexes.SimplicialComplex]
    state = {(id(m), k): v for m in mods + classes for k, v in vars(m).items()}
    return state, list(verify._REGISTRY)


def test_wrappers_are_removed_after_a_traced_run(tmp_path, capsys):
    before, registry = _snapshot()
    tracer = Tracer()
    traced_main = layers.install(tracer)
    assert traced_main is cli.main and tracer.installed > 50
    file = tmp_path / "g.graph"
    file.write_text(_instance(grid(3, 3)).text)
    assert cli.main(["divis", str(file)]) == 0
    assert verify.run_all_checks(verify.example_graph())
    tracer.uninstall()
    capsys.readouterr()
    after, registry_after = _snapshot()
    assert tracer.installed == 0
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert all(a is b for a, b in zip(registry_after, registry))


@pytest.mark.parametrize("request_body", [
    {"kind": "cli", "argv": ["divis", "GRAPH"]},
    {"kind": "cli", "argv": ["facets", "GRAPH", "--complex", "pf"]},
    {"kind": "corpus", "seed": 5},
])
def test_span_self_times_add_up_to_the_traced_op_time(tmp_path, request_body):
    file = tmp_path / "g.graph"
    file.write_text(_instance(grid(3, 3)).text)
    body = json.loads(json.dumps(request_body).replace("GRAPH", str(file)))
    body["trace_file"] = str(tmp_path / "op.spans")
    proc = subprocess.run([sys.executable, str(BENCH / "child.py")],
                          input=json.dumps(body), capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    trace = result["trace"]
    total_self = sum(trace["self_s"].values())
    assert total_self == pytest.approx(trace["roots_s"], rel=1e-6)
    assert trace["roots_s"] <= result["op_s"]
    assert trace["roots_s"] == pytest.approx(result["op_s"], rel=0.02, abs=1e-3)
    header = (tmp_path / "op.spans").read_bytes().split(b"\n", 1)[0]
    assert json.loads(header)["spans"] == trace["spans"]


# -- the run ----------------------------------------------------------------------


def test_ops_past_the_time_limit_count_as_crashed(tmp_path):
    import run
    from workloads import prepare
    ops = prepare("fpoly-dc", 1, 0, tmp_path)
    p = run.cli_pass(ops, {}, deadline=run.perf_counter())
    assert len(p.outcomes) == len(ops)
    assert all(o.crashed and o.op_s is None for o in p.outcomes)
    metrics, _ = run.end_to_end([p], [0.0])
    assert metrics["success_rate"][0] == 0


def test_percentile_is_the_harrell_davis_estimate():
    import run
    assert run.betainc(1, 1, 0.3) == pytest.approx(0.3)
    assert run.betainc(7.5, 7.5, 0.5) == pytest.approx(0.5)
    assert run.percentile([3.0, 1.0, 2.0], 50) == pytest.approx(2.0)
    assert run.percentile([4.0] * 30, 95) == pytest.approx(4.0)
    # Weights of the three order statistics for the median of three:
    # I_x(2, 2) at 1/3 and 2/3 is 7/27 and 20/27.
    assert run.percentile([0.0, 0.0, 27.0], 50) == pytest.approx(7.0)


def test_one_seed_draws_the_same_inputs(tmp_path):
    from workloads import pass_count, prepare
    n = pass_count("fpoly-dc", 24)
    first = [[op.argv[0] + op.instance.text for op in prepare("fpoly-dc", 5, i, tmp_path)]
             for i in range(n)]
    again = [[op.argv[0] + op.instance.text for op in prepare("fpoly-dc", 5, i, tmp_path)]
             for i in range(n)]
    assert first == again and first[0] != first[1]


# -- without the package ------------------------------------------------------------


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "fpoly-dc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
