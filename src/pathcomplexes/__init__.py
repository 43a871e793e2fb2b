"""Path-free and path-missing complexes of directed multigraphs.

A digraph with distinguished vertices s and t carries two simplicial
complexes on its edge set: the subsets containing no s-t-path, and the
subsets whose removal keeps one.  This package builds both explicitly,
computes their f-polynomials by one frontier pass, evaluates closed
forms for their reduced Euler characteristics and sphere/contractible
classifications, certifies the classification through GF(2) homology,
recognizes the grape structure of the complexes, and cross-checks all of
it against brute-force oracles over a deterministic graph corpus.
"""

from .digraph import Digraph, QuasiCycle, Walk
from .errors import GraphParseError, ResourceLimitError
from .graphio import format_graph, parse_graph
from .grapes import (GrapeCertificate, is_combinatorial_grape, is_strong_grape,
                     replay_certificate)
from .pathcomplex import (ChiReport, DivisibilityReport, HomotopyClass,
                          build_pf, build_pf_r, build_pm, build_pm_r,
                          check_divisibility, chi_pf_closed, chi_pm_closed,
                          fpoly_pf_dc, fpoly_pm_dc, homotopy_pf, homotopy_pm)
from .polynomial import IntPolynomial, poly_divisibility
from .simplicial import BettiVector, SimplicialComplex
from .verify import (CorpusSpec, VerificationReport, generate_corpus,
                     run_all_checks, verify_corpus)

__version__ = "0.1.0"

__all__ = [
    "BettiVector", "ChiReport", "CorpusSpec", "Digraph", "DivisibilityReport",
    "GrapeCertificate", "GraphParseError", "HomotopyClass", "IntPolynomial",
    "QuasiCycle", "ResourceLimitError", "SimplicialComplex",
    "VerificationReport", "Walk", "build_pf", "build_pf_r", "build_pm",
    "build_pm_r", "check_divisibility", "chi_pf_closed", "chi_pm_closed",
    "format_graph", "fpoly_pf_dc", "fpoly_pm_dc", "generate_corpus",
    "homotopy_pf", "homotopy_pm", "is_combinatorial_grape", "is_strong_grape",
    "parse_graph", "poly_divisibility",
    "replay_certificate", "run_all_checks", "verify_corpus",
]
