"""Explicit simplicial complexes over small ground sets.

A face is an ``int`` bitmask over the ordered ground set: bit i stands
for ``ground[i]``.  Links, deletions and the Alexander dual are bit
operations, and frozensets of ground elements appear only at the API
edge (``from_faces`` encodes them; ``facets`` and ``minimal_nonfaces``
decode).  The empty complex (no faces at all) and the irrelevant complex
{∅} are distinct values.

Downward closure, facets, the Alexander dual and minimal non-faces read
the derived ``_table``, the face family as one 2^n-bit int (bit f set iff
f is a face): against ``_patterns(n)`` each is n shifts and masks of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress
from typing import Iterable, Iterator

from .errors import ResourceLimitError
from .polynomial import IntPolynomial

FACE_ENUMERATION_LIMIT = 2 ** 20

Face = frozenset


@dataclass(frozen=True)
class BettiVector:
    """Reduced Betti numbers over the 2-element field, nonzero entries only."""

    entries: tuple[tuple[int, int], ...]  # (dimension, count), ascending

    @classmethod
    def from_dict(cls, values: dict[int, int]) -> "BettiVector":
        return cls(tuple(sorted((d, b) for d, b in values.items() if b)))

    def alternating_sum(self) -> int:
        """Sum of (-1)^d * betti(d); equals the reduced Euler characteristic."""
        return sum(b if d % 2 == 0 else -b for d, b in self.entries)


def _check_enumeration(n_ground: int):
    if 2 ** n_ground > FACE_ENUMERATION_LIMIT:
        raise ResourceLimitError(f"2^{n_ground} subsets exceed the enumeration "
                                 f"limit of {FACE_ENUMERATION_LIMIT}")


@lru_cache(maxsize=None)
def _patterns(n: int) -> tuple[int, ...]:
    """Entry i is the 2^n-bit int whose bit x is set iff mask x has bit i."""
    if not n:
        return ()
    half = 1 << (n - 1)
    return (*(p | p << half for p in _patterns(n - 1)), ((1 << half) - 1) << half)


_BIT = bytes.maketrans(b"01", b"\0\1")


def _positions(x: int, size: int, msb_first: bool = False) -> Iterator[int]:
    """The set bits of the ``size``-bit int x, ascending.  With
    ``msb_first`` bit j is reported as size - 1 - j instead, which for a
    truth table over the subsets of a ground set is the complement mask."""
    digits = format(x, f"0{size}b").encode()
    return compress(range(size), (digits if msb_first else digits[::-1]).translate(_BIT))


def _below(x: int, n: int) -> int:
    """The table of the sets one element short of a set in the table x."""
    out = 0
    for i, p in enumerate(_patterns(n)):
        out |= (x & p) >> (1 << i)
    return out


def _above(x: int, n: int) -> int:
    """The table of the sets one element more than a set in the table x."""
    out = 0
    for i, p in enumerate(_patterns(n)):
        out |= x << (1 << i) & p
    return out


def _squeeze(m: int, i: int) -> int:
    """Drop bit i of m and shift the higher bits down by one."""
    low = (1 << i) - 1
    return (m & low) | ((m >> 1) & ~low)


@dataclass(frozen=True)
class SimplicialComplex:
    """A downward-closed family of subsets of an ordered ground set.

    ``faces`` holds one bitmask per face, bit i standing for
    ``ground[i]``.  The ground set may contain elements that appear in no
    face.  Instances produced by the operations below preserve downward
    closure; use ``from_faces`` to validate externally supplied families.
    """

    ground: tuple[int, ...]
    faces: frozenset[int]

    @classmethod
    def from_faces(cls, ground: Iterable[int],
                   faces: Iterable[Iterable[int]]) -> "SimplicialComplex":
        g = tuple(ground)
        index = {x: 1 << i for i, x in enumerate(g)}
        masks = set()
        for f in faces:
            f = frozenset(f)
            if not f <= index.keys():
                raise ValueError(f"face {sorted(f)} leaves the ground set")
            masks.add(sum(index[x] for x in f))
        c = cls(g, frozenset(masks))
        c.validate()
        return c

    def validate(self):
        if len(set(self.ground)) != len(self.ground):
            raise ValueError("ground set has repeated elements")
        if any(f >> len(self.ground) for f in self.faces):
            raise ValueError("a face leaves the ground set")
        if not self.is_downward_closed():
            raise ValueError("face family is not downward closed")

    def is_downward_closed(self) -> bool:
        return not _below(self._table, len(self.ground)) & ~self._table

    def bit(self, w: int) -> int:
        """The one-bit mask standing for ground element w."""
        try:
            return 1 << self.ground.index(w)
        except ValueError:
            raise ValueError(f"{w} is not a ground element") from None

    @cached_property
    def _table(self) -> int:
        """Bit f is set iff f is a face: the face family as one 2^n-bit int."""
        _check_enumeration(len(self.ground))
        digits = bytearray(b"0") * (1 << len(self.ground))
        for f in self.faces:
            digits[f] = 49  # ord("1")
        return int(digits[::-1], 2)

    def _decode(self, m: int) -> Face:
        return frozenset(x for i, x in enumerate(self.ground) if m >> i & 1)

    # -- simple views ---------------------------------------------------------

    def is_empty(self) -> bool:
        """True for the complex with no faces at all."""
        return not self.faces

    def facets(self) -> list[Face]:
        """Inclusion-maximal faces, in (size, lexicographic) order."""
        # A face below another is one element short of some face, by
        # downward closure; the facets are the faces that are not.
        x, n = self._table, len(self.ground)
        out = _positions(x & ~_below(x, n), 1 << n)
        return sorted(map(self._decode, out), key=lambda f: (len(f), sorted(f)))

    # -- element operations ----------------------------------------------------

    def deletion(self, w: int) -> "SimplicialComplex":
        """Faces avoiding w, on the ground set without w."""
        b = self.bit(w)
        i = b.bit_length() - 1
        return SimplicialComplex(self.ground[:i] + self.ground[i + 1:],
                                 frozenset(_squeeze(f, i) for f in self.faces if not f & b))

    def link(self, w: int) -> "SimplicialComplex":
        """F with F ∪ {w} a face, on the ground set without w."""
        b = self.bit(w)
        i = b.bit_length() - 1
        return SimplicialComplex(self.ground[:i] + self.ground[i + 1:],
                                 frozenset(_squeeze(f, i) for f in self.faces if f & b))

    def star(self, w: int) -> "SimplicialComplex":
        """Faces whose union with w is still a face; a cone with apex w."""
        b = self.bit(w)
        return SimplicialComplex(self.ground,
                                 frozenset(f for f in self.faces if f | b in self.faces))

    def is_cone_with_apex(self, w: int) -> bool:
        """True iff adding w to any face yields a face (vacuous when faceless)."""
        b = self.bit(w)
        return all(f | b in self.faces for f in self.faces)

    # -- global operations -------------------------------------------------------

    def alexander_dual(self) -> "SimplicialComplex":
        """Complements of non-faces: {F : ground \\ F not a face}."""
        _check_enumeration(len(self.ground))
        size = 1 << len(self.ground)
        return SimplicialComplex(self.ground, frozenset(
            _positions(self._table ^ ((1 << size) - 1), size, msb_first=True)))

    def f_polynomial(self) -> IntPolynomial:
        """Coefficient of x^k counts the faces of size k."""
        counts = [0] * (len(self.ground) + 1)
        for f in self.faces:
            counts[f.bit_count()] += 1
        return IntPolynomial(counts)

    def reduced_euler_characteristic(self) -> int:
        """Alternating face-count sum including the empty face."""
        return sum(1 if f.bit_count() % 2 else -1 for f in self.faces)

    def suspension(self) -> "SimplicialComplex":
        """Join with two fresh points: faces A ∪ U, U a proper subset of them."""
        fresh = max(self.ground, default=-1) + 1
        y, z = 1 << len(self.ground), 2 << len(self.ground)
        faces = {a | u for a in self.faces for u in (0, y, z)}
        return SimplicialComplex(self.ground + (fresh, fresh + 1), frozenset(faces))

    def minimal_nonfaces(self) -> list[Face]:
        """Inclusion-minimal subsets of the ground set that are not faces.

        A non-face all of whose one-smaller subsets are faces is minimal,
        and downward closure makes the converse hold too.
        """
        _check_enumeration(len(self.ground))
        n = len(self.ground)
        nonfaces = self._table ^ ((1 << (1 << n)) - 1)
        out = _positions(nonfaces & ~_above(nonfaces, n), 1 << n)
        return sorted(map(self._decode, out), key=lambda f: (len(f), sorted(f)))

    def codimension(self) -> int:
        """Ground size minus the largest face size."""
        if not self.faces:
            raise ValueError("codimension needs at least one face")
        return len(self.ground) - max(f.bit_count() for f in self.faces)

    # -- homology ------------------------------------------------------------------

    def gf2_reduced_betti(self) -> BettiVector:
        """Reduced Betti numbers over GF(2) from boundary-matrix ranks.

        The chain complex is augmented: the empty face spans degree -1, so
        the irrelevant complex {∅} has betti(-1) = 1 while the complex with
        no faces has every Betti number zero.
        """
        if len(self.faces) > FACE_ENUMERATION_LIMIT:
            raise ResourceLimitError(f"{len(self.faces)} faces exceed the homology "
                                     f"limit of {FACE_ENUMERATION_LIMIT}")
        singles = [1 << i for i in range(len(self.ground))]
        by_size: dict[int, list[int]] = {}
        for f in self.faces:
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
        betti = {size - 1: len(by_size.get(size, ())) - rank[size] - rank[size + 1]
                 for size in range(max_size + 1)}
        return BettiVector.from_dict(betti)


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


# -- stock complexes -------------------------------------------------------------


def empty_complex(ground: Iterable[int] = ()) -> SimplicialComplex:
    return SimplicialComplex(tuple(ground), frozenset())


def irrelevant_complex(ground: Iterable[int] = ()) -> SimplicialComplex:
    """The complex whose only face is the empty set."""
    return SimplicialComplex(tuple(ground), frozenset([0]))


def full_simplex(ground: Iterable[int]) -> SimplicialComplex:
    g = tuple(ground)
    return SimplicialComplex(g, frozenset(range(1 << len(g))))


def proper_subsets_complex(ground: Iterable[int]) -> SimplicialComplex:
    """All proper subsets of a nonempty ground set: a sphere's face family."""
    g = tuple(ground)
    if not g:
        raise ValueError("ground set must be nonempty")
    return SimplicialComplex(g, frozenset(range((1 << len(g)) - 1)))
