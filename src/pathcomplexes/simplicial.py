"""Explicit simplicial complexes over small ground sets.

A face is an ``int`` bitmask over the ordered ground set: bit i stands
for ``ground[i]``.  Links, deletions and the Alexander dual are bit
operations, and frozensets of ground elements appear only at the API
edge (``from_faces`` encodes them; ``facets`` and ``minimal_nonfaces``
decode).  The empty complex (no faces at all) and the irrelevant complex
{∅} are distinct values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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
        return all(self._drops(b) <= self.faces for b in self._singles())

    def bit(self, w: int) -> int:
        """The one-bit mask standing for ground element w."""
        try:
            return 1 << self.ground.index(w)
        except ValueError:
            raise ValueError(f"{w} is not a ground element") from None

    def _singles(self) -> list[int]:
        return [1 << i for i in range(len(self.ground))]

    def _drops(self, b: int) -> set[int]:
        """The faces containing bit b, with b removed."""
        return {f ^ b for f in self.faces if f & b}

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
        out = self.faces.difference(*map(self._drops, self._singles()))
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
        full = (1 << len(self.ground)) - 1
        return SimplicialComplex(self.ground, frozenset(
            full ^ m for m in range(full + 1) if m not in self.faces))

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
        faces, singles = self.faces, self._singles()
        out = [self._decode(m) for m in range(1 << len(self.ground))
               if m not in faces and all(m ^ b in faces for b in singles if m & b)]
        return sorted(out, key=lambda f: (len(f), sorted(f)))

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
        singles = self._singles()
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
