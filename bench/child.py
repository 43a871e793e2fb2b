"""One timed op in a fresh interpreter.

Reads a JSON request on stdin, runs it, and prints one JSON line:

* ``{"kind": "cli", "argv": [...]}`` times ``pathcomplexes.cli.main(argv)``
  with stdout and stderr captured.  An exception escaping ``main`` ends
  the op with exit code 1, as it would end the real command.
* ``{"kind": "corpus", "seed": n}`` times ``generate_corpus`` on the
  default verify corpus with that seed and ``run_all_checks`` on each
  graph, each graph timed on its own.

With ``"trace_file"`` set, the package's calls are wrapped for the op,
unwrapped after it, and the spans are written to that file.  Run as
``PYTHONPATH=src python3 bench/child.py < request.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

CORPUS_GRAPHS = 200


def run_cli(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:
            code, error = 1, type(exc).__name__
        op_s = perf_counter() - start
    return {"code": code, "op_s": op_s, "stdout": out.getvalue(), "error": error}


def run_corpus(verify, seed: int) -> dict:
    graph_s, failing, check_ids, error = [], [], None, None
    graphs = []
    try:
        graphs = verify.generate_corpus(
            verify.CorpusSpec(graph_count=CORPUS_GRAPHS, seed=seed))
        for i, g in enumerate(graphs):
            t0 = perf_counter()
            outcomes = verify.run_all_checks(g)
            graph_s.append(perf_counter() - t0)
            ids = [o.check_id for o in outcomes]
            check_ids = check_ids or ids
            if ids != check_ids or any(o.status == "fail" for o in outcomes):
                failing.append(i)
    except Exception as exc:
        error = type(exc).__name__
    return {"code": 0 if error is None else 1, "graph_s": graph_s, "graphs": graphs,
            "failing": failing, "error": error}


def main():
    request = json.loads(sys.stdin.read())
    import pathcomplexes.cli as cli
    import pathcomplexes.verify as verify

    tracer = None
    if request.get("trace_file"):
        import layers
        from spans import Tracer
        tracer = Tracer()
        entry = layers.install(tracer)
    else:
        entry = cli.main
    if request["kind"] == "cli":
        result = run_cli(entry, request["argv"])
    else:
        run = tracer.wrap(run_corpus, "bench.corpus_pass") if tracer else run_corpus
        start = perf_counter()
        result = run(verify, request["seed"])
        result["op_s"] = perf_counter() - start
        graphs = result.pop("graphs")
        result["graphs"] = len(graphs)
        result["digest"] = [[len(g.vertices), g.s, g.t, [[u, v] for _, u, v in g.edges]]
                            for g in graphs[-CORPUS_GRAPHS:]]
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = layers.summarize(tracer)
        tracer.write(Path(request["trace_file"]))
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
