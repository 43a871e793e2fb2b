"""Stock simplicial complexes shared by the test modules."""

from typing import Iterable

from pathcomplexes.simplicial import SimplicialComplex


def empty_complex(ground: Iterable[int] = ()) -> SimplicialComplex:
    """The complex with no face at all."""
    return SimplicialComplex(tuple(ground), 0)


def irrelevant_complex(ground: Iterable[int] = ()) -> SimplicialComplex:
    """The complex whose only face is the empty set."""
    return SimplicialComplex(tuple(ground), 1)


def full_simplex(ground: Iterable[int]) -> SimplicialComplex:
    g = tuple(ground)
    return SimplicialComplex(g, (1 << (1 << len(g))) - 1)


def proper_subsets_complex(ground: Iterable[int]) -> SimplicialComplex:
    """All proper subsets of a nonempty ground set: a sphere's face family."""
    g = tuple(ground)
    if not g:
        raise ValueError("ground set must be nonempty")
    return SimplicialComplex(g, (1 << (1 << len(g)) - 1) - 1)
