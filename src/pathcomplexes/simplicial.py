"""Explicit simplicial complexes over small ground sets.

A complex is its face table: one 2^n-bit int over the n-element ordered
ground set, whose bit f is set iff the mask f is a face, bit i of f
standing for ``ground[i]``.  Every operation is a few shifts, masks and
bit counts of the table against the cached ``_patterns(n)`` (entry i marks
the masks holding element i) and ``_levels(n)`` (entry k marks the masks
of k elements).  ``from_faces`` encodes frozensets of ground elements;
``faces`` decodes the table into masks (here only for the elimination
fallback of homology), ``facets`` and ``minimal_nonfaces`` into frozensets.
The empty complex (no faces) and the irrelevant complex {∅} are distinct.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import compress
from operator import or_
from typing import Iterable, Iterator, NamedTuple

from .errors import ResourceLimitError
from .polynomial import IntPolynomial

FACE_ENUMERATION_LIMIT = 2 ** 20

Face = frozenset


class BettiVector(NamedTuple):
    """Reduced Betti numbers over the 2-element field, nonzero entries only."""

    entries: tuple[tuple[int, int], ...]  # (dimension, count), ascending

    @classmethod
    def from_dict(cls, values: dict[int, int]) -> "BettiVector":
        return cls(tuple(sorted((d, b) for d, b in values.items() if b)))


def _check_enumeration(n_ground: int):
    if 2 ** n_ground > FACE_ENUMERATION_LIMIT:
        raise ResourceLimitError(f"2^{n_ground} subsets exceed the enumeration "
                                 f"limit of {FACE_ENUMERATION_LIMIT}")


_PATTERNS, _LEVELS = {0: ()}, {0: (1,)}  # n -> _patterns(n), n -> _levels(n)


def _patterns(n: int) -> tuple[int, ...]:
    """Entry i is the 2^n-bit int whose bit x is set iff mask x has bit i."""
    _check_enumeration(n)
    if n not in _PATTERNS:
        half = 1 << (n - 1)
        _PATTERNS[n] = (*(p | p << half for p in _patterns(n - 1)), ((1 << half) - 1) << half)
    return _PATTERNS[n]


def _levels(n: int) -> tuple[int, ...]:
    """Entry k is the 2^n-bit int whose bit x is set iff mask x has k bits."""
    _check_enumeration(n)
    if n not in _LEVELS:
        half, low = 1 << (n - 1), _levels(n - 1)
        _LEVELS[n] = tuple(a | b << half for a, b in zip((*low, 0), (0, *low)))
    return _LEVELS[n]


_BIT = bytes.maketrans(b"01", b"\0\1")


def _positions(x: int, size: int) -> Iterator[int]:
    """The set bits of the ``size``-bit int x, ascending."""
    return compress(range(size), format(x, f"0{size}b").encode()[::-1].translate(_BIT))


def _below(x: int, n: int) -> int:
    """The table of the sets one element short of a set in the table x."""
    return reduce(or_, ((x & p) >> (1 << i) for i, p in enumerate(_patterns(n))), 0)


def _above(x: int, n: int) -> int:
    """The table of the sets one element more than a set in the table x."""
    return reduce(or_, (x << (1 << i) & p for i, p in enumerate(_patterns(n))), 0)


def _is_cone(x: int, i: int, p: int) -> bool:
    """True iff adding element i, of pattern p, to a set in the table x
    gives a set in x: those lacking it move up by 2^i."""
    return not (x & ~p) << (1 << i) & ~x


def _dual(x: int, n: int) -> int:
    """The table of the complements of the sets missing from the table x:
    the complement of x read from the top, bit f moving to bit 2^n - 1 - f."""
    _check_enumeration(n)
    return int(format(x, f"0{1 << n}b")[::-1], 2) ^ ((1 << (1 << n)) - 1)


class SimplicialComplex:
    """A downward-closed family of subsets of an ordered ground set.

    ``table`` is the family as one 2^n-bit int: bit f is set iff the mask
    f, bit i standing for ``ground[i]``, is a face.  The ground set may
    contain elements that appear in no face.  Instances produced by the
    operations below preserve downward closure; use ``from_faces`` to
    validate externally supplied families.  Setting an attribute raises.
    """

    def __init__(self, ground: tuple[int, ...], table: int):
        vars(self).update(ground=ground, table=table)

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.table == other.table
                and self.ground == other.ground)

    def __hash__(self) -> int:
        return hash((self.ground, self.table))

    def __repr__(self) -> str:
        return f"SimplicialComplex(ground={self.ground!r}, table={self.table!r})"

    @classmethod
    def from_faces(cls, ground: Iterable[int],
                   faces: Iterable[Iterable[int]]) -> "SimplicialComplex":
        g = tuple(ground)
        _check_enumeration(len(g))
        index = {x: 1 << i for i, x in enumerate(g)}
        digits = bytearray(b"0") * (1 << len(g))
        for f in faces:
            f = frozenset(f)
            if not f <= index.keys():
                raise ValueError(f"face {sorted(f)} leaves the ground set")
            digits[sum(index[x] for x in f)] = 49  # ord("1")
        c = cls(g, int(digits[::-1], 2))
        c.validate()
        return c

    def validate(self):
        if len(set(self.ground)) != len(self.ground):
            raise ValueError("ground set has repeated elements")
        if self.table >> (1 << len(self.ground)):
            raise ValueError("a face leaves the ground set")
        if not self.is_downward_closed():
            raise ValueError("face family is not downward closed")

    def is_downward_closed(self) -> bool:
        return not _below(self.table, len(self.ground)) & ~self.table

    @cached_property
    def faces(self) -> frozenset[int]:
        """The face masks, decoded from the table once."""
        _check_enumeration(len(self.ground))
        return frozenset(_positions(self.table, 1 << len(self.ground)))

    def _decode(self, m: int) -> Face:
        return frozenset(x for i, x in enumerate(self.ground) if m >> i & 1)

    # -- simple views ---------------------------------------------------------

    def is_empty(self) -> bool:
        """True for the complex with no faces at all."""
        return not self.table

    def facets(self) -> list[Face]:
        """Inclusion-maximal faces, in (size, lexicographic) order."""
        # A face below another is one element short of some face, by
        # downward closure; the facets are the faces that are not.
        x, n = self.table, len(self.ground)
        out = _positions(x & ~_below(x, n), 1 << n)
        return sorted(map(self._decode, out), key=lambda f: (len(f), sorted(f)))

    # -- element operations ----------------------------------------------------

    def _at(self, w: int) -> tuple[int, int]:
        """The index i of ground element w and the pattern of the masks
        holding it; in the table, adding w to a set is a shift by 2^i."""
        try:
            i = self.ground.index(w)
        except ValueError:
            raise ValueError(f"{w} is not a ground element") from None
        return i, _patterns(len(self.ground))[i]

    def _drop(self, i: int, x: int) -> "SimplicialComplex":
        """The complex on the ground without element i whose table is x, sets
        lacking i: each later element j moves its bits down by 2^(j-1)."""
        p = _patterns(len(self.ground))
        for j in range(i + 1, len(self.ground)):
            y = x & p[j]
            x ^= y ^ y >> (1 << (j - 1))
        return SimplicialComplex(self.ground[:i] + self.ground[i + 1:], x)

    def deletion(self, w: int) -> "SimplicialComplex":
        """Faces avoiding w, on the ground set without w."""
        i, p = self._at(w)
        return self._drop(i, self.table & ~p)

    def link(self, w: int) -> "SimplicialComplex":
        """F with F ∪ {w} a face, on the ground set without w."""
        i, p = self._at(w)
        return self._drop(i, (self.table & p) >> (1 << i))

    def star(self, w: int) -> "SimplicialComplex":
        """Faces whose union with w is still a face; a cone with apex w."""
        i, p = self._at(w)
        up = self.table & p
        return SimplicialComplex(self.ground, up | self.table & up >> (1 << i))

    def is_cone_with_apex(self, w: int) -> bool:
        """True iff adding w to any face yields a face (vacuous when faceless)."""
        return _is_cone(self.table, *self._at(w))

    # -- global operations -------------------------------------------------------

    def alexander_dual(self) -> "SimplicialComplex":
        """Complements of non-faces: {F : ground \\ F not a face}."""
        return SimplicialComplex(self.ground, _dual(self.table, len(self.ground)))

    def f_polynomial(self) -> IntPolynomial:
        """Coefficient of x^k counts the faces of size k."""
        return IntPolynomial((self.table & level).bit_count()
                             for level in _levels(len(self.ground)))

    def reduced_euler_characteristic(self) -> int:
        """Alternating face-count sum including the empty face."""
        return -self.f_polynomial().evaluate(-1)

    def suspension(self) -> "SimplicialComplex":
        """Join with two fresh points: faces A ∪ U, U a proper subset of them."""
        fresh = max(self.ground, default=-1) + 1
        t, size = self.table, 1 << len(self.ground)
        return SimplicialComplex(self.ground + (fresh, fresh + 1),
                                 t | t << size | t << 2 * size)

    def minimal_nonfaces(self) -> list[Face]:
        """Inclusion-minimal subsets of the ground set that are not faces.

        A non-face all of whose one-smaller subsets are faces is minimal,
        and downward closure makes the converse hold too.
        """
        _check_enumeration(len(self.ground))
        n = len(self.ground)
        nonfaces = self.table ^ ((1 << (1 << n)) - 1)
        out = _positions(nonfaces & ~_above(nonfaces, n), 1 << n)
        return sorted(map(self._decode, out), key=lambda f: (len(f), sorted(f)))

    def codimension(self) -> int:
        """Ground size minus the largest face size."""
        if not self.table:
            raise ValueError("codimension needs at least one face")
        return len(self.ground) - self.f_polynomial().degree

    # -- homology ------------------------------------------------------------------

    def gf2_reduced_betti(self) -> BettiVector:
        """Reduced Betti numbers over GF(2), the empty face in degree -1.

        Each unmatched face F lacking i pairs with F ∪ {i} if unmatched, for each
        element i in turn: an acyclic matching (Jonsson, *Simplicial Complexes of
        Graphs*, LNM 1928, 2008, ch. 4).  By discrete Morse theory (Forman, Adv.
        Math. 1998), if no two consecutive degrees hold unmatched faces, betti(d)
        counts those in degree d; else the reversed order, then elimination.
        """
        if self.table.bit_count() > FACE_ENUMERATION_LIMIT:
            raise ResourceLimitError(f"{self.table.bit_count()} faces exceed the homology "
                                     f"limit of {FACE_ENUMERATION_LIMIT}")
        n = len(self.ground)
        for order in (range(n), range(n - 1, -1, -1)):
            critical = _critical_counts(self.table, n, order)
            if not any(a and b for a, b in zip(critical, critical[1:])):
                return BettiVector.from_dict({k - 1: c for k, c in enumerate(critical)})
        return _betti_by_elimination(self)


def _critical_counts(table: int, n: int, order: Iterable[int]) -> list[int]:
    """Faces per size left unmatched by the element matchings in ``order``."""
    p, r = _patterns(n), table
    for i in order:
        lower = r & ~p[i] & (r & p[i]) >> (1 << i)
        r ^= lower | lower << (1 << i)
    return [(r & level).bit_count() for level in _levels(n)]


def _betti_by_elimination(c: SimplicialComplex) -> BettiVector:
    """``gf2_reduced_betti`` by boundary-matrix ranks of the decoded faces."""
    singles = [1 << i for i in range(len(c.ground))]
    by_size: dict[int, list[int]] = {}
    for f in c.faces:
        by_size.setdefault(f.bit_count(), []).append(f)

    def boundary_rank(size: int) -> int:
        # Rank of the map sending a size-k face to the sum of its
        # (k-1)-subsets, as bitmask columns over GF(2).
        if size not in by_size or (size - 1) not in by_size:
            return 0
        rows = {f: 1 << i for i, f in enumerate(by_size[size - 1])}
        return _gf2_rank([sum(rows[f ^ b] for b in singles if f & b)
                          for f in by_size[size]])

    max_size = max(by_size, default=0)  # size = dimension + 1
    rank = [boundary_rank(size) for size in range(max_size + 2)]
    return BettiVector.from_dict({size - 1: len(by_size.get(size, ())) - rank[size]
                                  - rank[size + 1] for size in range(max_size + 1)})


def _gf2_rank(columns: list[int]) -> int:
    basis: dict[int, int] = {}
    rank = 0
    for v in columns:
        while v:
            h = v.bit_length() - 1
            if h in basis:
                v ^= basis[h]
            else:
                basis[h] = v
                rank += 1
                break
    return rank

