"""The four workloads: which graphs, which commands, how many passes.

Every pass of a run draws its own instances (vertex names and edge order)
and its own op order from the workload, the seed and the pass index; the
families, the commands and the number of passes are fixed, so one seed
always measures the same inputs.  A slot (``grid-3x3``) is one graph of a
pass, re-drawn each pass, so the median over passes of a slot's latency
is a typical latency of that family under random edge orders, which the
deletion-contraction pivot depends on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from graphs import (Instance, cycle_ladder, double_cycle, grid, instance, path,
                    rail_ladder, worked_example)

PM, PF = ("--complex", "pm"), ("--complex", "pf")
FPOLY_DC = [("fpoly", *PM, "--method", "dc"), ("fpoly", *PF, "--method", "dc"), ("divis",)]
CLOSED = [("chi", *PM), ("chi", *PF), ("homotopy", *PM), ("homotopy", *PF)]
EXPLICIT = [("facets", *PM), ("facets", *PF), ("homology", *PM), ("homology", *PF),
            ("fpoly", *PM, "--method", "brute"), ("fpoly", *PF, "--method", "brute"),
            ("dual-check",), ("rgen", "-r", "2", *PM)]
GRAPES = [("grape", *c, "--mode", mode) for c in (PM, PF) for mode in ("strong", "combinatorial")]

# (family, commands) per workload.  Why these graphs is written down in
# bench/README.md.
PLANS = {
    "fpoly-dc": [
        (grid(3, 3), FPOLY_DC),
        (grid(3, 4), FPOLY_DC),
        (rail_ladder(5), FPOLY_DC),
        (cycle_ladder(12), FPOLY_DC),
        (path(200), FPOLY_DC),
    ],
    "explicit-complex": [
        (worked_example(), EXPLICIT + GRAPES[:2]),
        (double_cycle(), EXPLICIT + GRAPES[2:]),
        (grid(3, 3), EXPLICIT + [("rgen", "-r", "2", *PF)] + GRAPES[:2]),
        (cycle_ladder(6), EXPLICIT + GRAPES[2:]),
        (rail_ladder(4), EXPLICIT),
    ],
    "query-scale": [
        (grid(11, 11), CLOSED + [("analyze",)]),
        (grid(30, 30), CLOSED),
        (path(900), CLOSED + [("analyze",)]),
        (path(1500), CLOSED + [("analyze",)]),
        (cycle_ladder(12), CLOSED + [("analyze",)]),
        (rail_ladder(8), CLOSED + [("analyze",)]),
    ],
    "verify-corpus": [],
}
WORKLOADS = tuple(PLANS)

# Seconds of run time budgeted to one pass.  A run makes a fixed number of
# passes, ``pass_count(workload, seconds)``, so that one seed always
# measures the same inputs, however fast the machine or the code under
# test runs.  At 24 s these are 6, 3, 4 and 6 passes; a pass takes longer
# than its budget in the machine's slow phases, which the sum of all
# runs must still absorb.
PASS_S = {"fpoly-dc": 4.0, "explicit-complex": 8.0, "query-scale": 6.0,
          "verify-corpus": 4.0}
MIN_PASSES = 2


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, int(seconds // PASS_S[workload]))


@dataclass(frozen=True)
class Op:
    """One command on one graph file; ``argv`` is what ``main`` receives."""

    key: str
    instance: Instance
    argv: tuple[str, ...]


def prepare(workload: str, seed: int, index: int, workdir: Path) -> list[Op]:
    """Draw the instances of pass ``index``, write their graph files and
    return the ops in the order the pass runs them."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    ops = []
    workdir.mkdir(parents=True, exist_ok=True)
    for family, commands in PLANS[workload]:
        inst = instance(family, rng, family.name)
        file = workdir / f"{family.name}.graph"
        file.write_text(inst.text)
        for cmd, *opts in commands:
            ops.append(Op(f"{family.name} {cmd} {' '.join(opts)}".rstrip(), inst,
                          (cmd, str(file), *opts)))
    rng.shuffle(ops)
    return ops


def corpus_seed(seed: int, index: int) -> int:
    """``CorpusSpec.seed`` of pass ``index``: the run seed for the first
    pass, then fresh 64-bit seeds derived from it."""
    return seed + (index << 32)
