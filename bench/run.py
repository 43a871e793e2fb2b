"""Benchmark of the pathcomplexes CLI and verify harness.

    python3 bench/run.py --workload fpoly-dc --seed 1 --seconds 24 --trace 0

Single process, closed loop, one client: every op runs in a fresh
interpreter (``bench/child.py``) only after the previous one ended, the
way a shell user runs one command after another.  Interpreter start and
package import are set-up cost, not op time.  A run makes a fixed number
of passes over the workload's ops, ``--seconds`` divided by a budget per
pass (``workloads.PASS_S``), checks every output against
``bench/oracle.py`` and prints, as its last line, one JSON object with
the end-to-end metrics (``--trace 0``) or the per-layer metrics of one
extra traced pass (``--trace 1``).  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import layers
import oracle
from child import CORPUS_GRAPHS
from workloads import WORKLOADS, corpus_seed, pass_count, prepare

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
RUN_LIMIT_S = 170.0  # an op still running this long after the start is killed


@dataclass
class Outcome:
    """One timed unit: a CLI op, or one graph of the verify corpus."""

    key: str
    group: str  # graph the unit ran on; per-graph latency sums a group
    op_s: float | None  # None: killed or never run, the run's time limit had passed
    crashed: bool = False  # an exception escaped, or exit code not 0 or 1
    wrong: bool = False    # printed an answer the oracle rejects


@dataclass
class Pass:
    outcomes: list[Outcome] = field(default_factory=list)
    wall_s: float = 0.0  # time inside the children, start-up excluded
    startups: list[float] = field(default_factory=list)
    rss_kb: int = 0
    traces: list[dict] = field(default_factory=list)


def spawn(request: dict, deadline: float, p: Pass) -> dict | None:
    """Run one request in a fresh interpreter and book its start-up.

    Returns None when the request was still running at ``deadline`` and
    was killed; its time up to then counts as op time."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py")],
                              input=json.dumps(request), capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=max(0.0, deadline - start))
    except subprocess.TimeoutExpired:
        p.wall_s += perf_counter() - start
        return None
    wall = perf_counter() - start
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"bench child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    raw = json.loads(proc.stdout.splitlines()[-1])
    p.wall_s += raw["op_s"]
    p.startups.append(wall - raw["op_s"])
    p.rss_kb = max(p.rss_kb, raw["rss_kb"])
    if "trace" in raw:
        p.traces.append(raw["trace"])
    return raw


def cli_pass(ops, truths, deadline, trace_dir=None) -> Pass:
    p = Pass()
    by_argv, outputs = {}, defaultdict(dict)
    for n, op in enumerate(ops):
        request = {"kind": "cli", "argv": list(op.argv)}
        if trace_dir is not None:
            request["trace_file"] = str(trace_dir / f"op{n:03d}.spans")
        raw = spawn(request, deadline, p)
        if raw is None:
            # Killed at the run's time limit: this op and the rest of the
            # pass count as crashed.
            p.outcomes += [Outcome(o.key, o.instance.key, None, crashed=True)
                           for o in ops[n:]]
            break
        out = Outcome(op.key, op.instance.key, raw["op_s"])
        # Exit 1 without an exception is a failed check, which prints an
        # answer; anything else nonzero, or an escaped exception, is a crash.
        out.crashed = raw["error"] is not None or raw["code"] not in (0, 1)
        if not out.crashed:
            truth = truths[op.instance.family.name]
            want = oracle.expected(op.instance, truth, list(op.argv))
            got = raw["stdout"].rstrip("\n")
            out.wrong = raw["code"] != 0 or not (want(got) if callable(want) else got == want)
            outputs[op.instance.key, op.instance.family.name][op.argv] = got
        by_argv[op.argv] = out
        p.outcomes.append(out)
    for (_, family), outs in outputs.items():
        for argv in oracle.cross_check(outs, truths[family]):
            by_argv[argv].wrong = True
    return p


def corpus_pass(seed: int, deadline, trace_dir=None) -> Pass:
    """One verify run; every graph of the corpus is its own slot."""
    p = Pass()
    request = {"kind": "corpus", "seed": seed}
    if trace_dir is not None:
        request["trace_file"] = str(trace_dir / "corpus.spans")
    raw = spawn(request, deadline, p)
    if raw is None:
        p.outcomes += [Outcome(f"corpus-{seed}/graph-{i}", f"corpus-{seed}/graph-{i}",
                               None, crashed=True) for i in range(CORPUS_GRAPHS)]
        return p
    digest_ok = raw["digest"] == oracle.corpus_digest(seed, CORPUS_GRAPHS)
    failing = set(raw["failing"])
    for i, s in enumerate(raw["graph_s"]):
        key = f"corpus-{seed}/graph-{i}"
        p.outcomes.append(Outcome(key, key, s, wrong=i in failing or not digest_ok))
    # Graphs the harness never reached because it died count as crashed.
    for i in range(len(raw["graph_s"]), max(raw["graphs"], CORPUS_GRAPHS)):
        key = f"corpus-{seed}/graph-{i}"
        p.outcomes.append(Outcome(key, key, None, crashed=True))
    return p


# -- metrics ----------------------------------------------------------------------


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by Lentz's method
    on its continued fraction."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(100_000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-12:
            break
    return front * (f - 1.0)


def percentile(values: list[float], q: int) -> float:
    """Harrell-Davis estimate of the q-th percentile: the mean of all order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) distribution.

    A single order statistic jumps between graph families when a run has
    only a few dozen per-graph samples that cluster by family; this
    weighted mean moves far less (measured in bench/README.md)."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q / 100, (n + 1) * (1 - q / 100)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(ordered, cdf, cdf[1:]))


def end_to_end(passes: list[Pass], setup: list[float]) -> tuple[dict, int]:
    """Metrics of the untraced passes, and the number of graph samples."""
    outcomes = [o for p in passes for o in p.outcomes]
    # Every graph of every pass is one per-graph latency sample.
    per_op, graph_ms = defaultdict(list), []
    for p in passes:
        graph_s = defaultdict(float)
        for o in p.outcomes:
            if o.op_s is None:
                continue
            per_op[o.key].append(o.op_s)
            graph_s[o.group] += o.op_s
        graph_ms += [s * 1000 for s in graph_s.values()]
    # A run whose every op was killed still reports, with the time limit
    # as its latency.
    limit_ms = [RUN_LIMIT_S * 1000]
    op_ms = [statistics.median(v) * 1000 for v in per_op.values()] or limit_ms
    graph_ms = graph_ms or limit_ms
    failed = sum(o.crashed or o.wrong for o in outcomes)
    startups = [s for p in passes for s in p.startups] or [0.0]
    return {
        "setup_s": (statistics.median(setup) + statistics.median(startups), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "geomean_op_ms": (math.exp(statistics.fmean(
            math.log(max(ms, 1e-6)) for ms in op_ms)), "ms"),
        "graph_ms_p50": (percentile(graph_ms, 50), "ms"),
        "graph_ms_p95": (percentile(graph_ms, 95), "ms"),
        "success_rate": (1 - failed / len(outcomes), "ratio"),
        "peak_rss_mb": (max(p.rss_kb for p in passes) / 1024, "MB"),
    }, len(graph_ms)


def per_layer(traced: Pass, untraced: list[Pass]) -> dict:
    total = {"self_s": defaultdict(float), "calls": defaultdict(int),
             "counters": defaultdict(int), "spans": 0}
    for t in traced.traces:
        for name, s in t["self_s"].items():
            total["self_s"][name] += s
        for name, n in t["calls"].items():
            total["calls"][name] += n
        for name, n in t["counters"].items():
            total["counters"][name] += n
        total["spans"] += t["spans"]
    untraced_s = statistics.median(p.wall_s for p in untraced)
    values = layers.metrics(total, traced.wall_s, untraced_s)
    return {name: (values[name], unit) for name, unit in layers.METRICS}


# -- main ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pathcomplexes" / "cli.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    begin = perf_counter()
    deadline = begin + RUN_LIMIT_S
    workdir = OUT / "inputs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    truths: dict = {}
    setup: list[float] = []

    def one_pass(index, trace_dir=None) -> Pass:
        if args.workload == "verify-corpus":
            return corpus_pass(corpus_seed(args.seed, index), deadline, trace_dir)
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = perf_counter()
        ops = prepare(args.workload, args.seed, index, workdir)
        setup.append(perf_counter() - t0)
        for op in ops:
            family = op.instance.family
            if family.name not in truths:
                truths[family.name] = oracle.truth_for(family)
        return cli_pass(ops, truths, deadline, trace_dir)

    passes = []
    try:
        for index in range(1 if args.trace else pass_count(args.workload, args.seconds)):
            passes.append(one_pass(index))
            if perf_counter() >= deadline:
                break
        if args.trace:
            # The traced pass repeats the inputs of the untraced one, so the
            # difference of the two is the tracing overhead.
            trace_dir = OUT / "trace" / args.workload
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
            traced = one_pass(0, trace_dir)
            metrics = per_layer(traced, passes)
            passes.append(traced)
        else:
            metrics, samples = end_to_end(passes, setup or [0.0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = [o for p in passes for o in p.outcomes]
    crashed = [o.key for o in outcomes if o.crashed]
    wrong = [o.key for o in outcomes if o.wrong]
    units = "graphs" if args.workload == "verify-corpus" else "ops"
    print(f"# {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{len(outcomes)} {units}, {len(crashed)} crashed, {len(wrong)} wrong, "
          f"{perf_counter() - begin:.1f} s")
    if not args.trace:
        print(f"# graph latency samples: {samples}")
    for key in sorted(set(crashed)):
        print(f"# crashed: {key}")
    for key in sorted(set(wrong)):
        print(f"# wrong answer: {key}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": len(crashed) + len(wrong),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
