"""argparse's help and error text for the CLI, pinned byte for byte.

``cli_golden.json`` holds stdout, stderr and the exit code of each argv
below, at 80 columns.  It was recorded from the hand-written parser that
the ``COMMANDS`` table replaced, so it pins that the table builds the same
parser.  argparse's wording belongs to the interpreter, so the recording
is compared only on the Python version that made it.  Re-record, on
purpose only, with

    COLUMNS=80 PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.json
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from pathcomplexes.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
NAMES = ("analyze", "fpoly", "chi", "homotopy", "facets", "dual-check", "divis",
         "grape", "homology", "rgen", "verify", "show")
CASES = ([("--help",)] + [(name, "-h") for name in NAMES] + [
    (),
    ("frobnicate", "g.graph"),                          # unknown command
    ("fpoly",),                                         # no arguments
    ("fpoly", "g.graph"),                               # missing --complex
    ("fpoly", "g.graph", "--complex", "xx"),            # bad choice
    ("rgen", "f", "-r", "x", "--complex", "pm"),        # bad int
    ("analyze", "a.graph", "b.graph"),                  # extra positional
])


def capture(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": list(argv), "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_help_and_usage_errors_match_recording(monkeypatch):
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    version = "%d.%d" % sys.version_info[:2]
    if recorded["python"] != version:
        pytest.skip(f"recorded with Python {recorded['python']}, running {version}")
    monkeypatch.setenv("COLUMNS", "80")
    assert [tuple(case["argv"]) for case in recorded["cases"]] == CASES
    for case in recorded["cases"]:
        assert capture(case["argv"]) == case


if __name__ == "__main__":
    json.dump({"python": "%d.%d" % sys.version_info[:2],
               "cases": [capture(argv) for argv in CASES]}, sys.stdout, indent=1)
    sys.stdout.write("\n")
