"""Explicit simplicial complexes over small ground sets.

Faces are stored outright as frozensets of ground elements, which keeps
every operation a direct transcription of its set-theoretic definition.
The empty complex (no faces at all) and the irrelevant complex {∅} are
distinct values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
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

    def __getitem__(self, dim: int) -> int:
        for d, b in self.entries:
            if d == dim:
                return b
        return 0

    def alternating_sum(self) -> int:
        """Sum of (-1)^d * betti(d); equals the reduced Euler characteristic."""
        return sum(b if d % 2 == 0 else -b for d, b in self.entries)


def _check_enumeration(n_ground: int, limit: int):
    if 2 ** n_ground > limit:
        raise ResourceLimitError(
            f"2^{n_ground} subsets exceed the enumeration limit of {limit}")


@dataclass(frozen=True)
class SimplicialComplex:
    """A downward-closed family of subsets of an ordered ground set.

    The ground set may contain elements that appear in no face.  Instances
    produced by the operations below preserve downward closure; use
    ``from_faces`` to validate externally supplied families.
    """

    ground: tuple[int, ...]
    faces: frozenset[Face]

    @classmethod
    def from_faces(cls, ground: Iterable[int], faces: Iterable[Iterable[int]],
                   validate: bool = True) -> "SimplicialComplex":
        g = tuple(ground)
        fs = frozenset(frozenset(f) for f in faces)
        c = cls(g, fs)
        if validate:
            c.validate()
        return c

    def validate(self):
        gset = set(self.ground)
        if len(gset) != len(self.ground):
            raise ValueError("ground set has repeated elements")
        for f in self.faces:
            if not f <= gset:
                raise ValueError(f"face {sorted(f)} leaves the ground set")
        if not self.is_downward_closed():
            raise ValueError("face family is not downward closed")

    def is_downward_closed(self) -> bool:
        for f in self.faces:
            for x in f:
                if f - {x} not in self.faces:
                    return False
        return True

    # -- simple views ---------------------------------------------------------

    def is_empty(self) -> bool:
        """True for the complex with no faces at all."""
        return not self.faces

    def facets(self) -> list[Face]:
        """Inclusion-maximal faces, in (size, lexicographic) order."""
        # Checking one-element extensions suffices: downward closure puts
        # such an extension between a face and anything containing it.
        out = [f for f in self.faces
               if not any(f | {x} in self.faces for x in self.ground if x not in f)]
        return sorted(out, key=lambda f: (len(f), sorted(f)))

    # -- element operations ----------------------------------------------------

    def _require_element(self, w: int):
        if w not in self.ground:
            raise ValueError(f"{w} is not a ground element")

    def deletion(self, w: int) -> "SimplicialComplex":
        """Faces avoiding w, on the ground set without w."""
        self._require_element(w)
        ground = tuple(x for x in self.ground if x != w)
        return SimplicialComplex(ground, frozenset(f for f in self.faces if w not in f))

    def link(self, w: int) -> "SimplicialComplex":
        """F with F ∪ {w} a face, on the ground set without w."""
        self._require_element(w)
        ground = tuple(x for x in self.ground if x != w)
        return SimplicialComplex(ground,
                                 frozenset(f - {w} for f in self.faces if w in f))

    def star(self, w: int) -> "SimplicialComplex":
        """Faces whose union with w is still a face; a cone with apex w."""
        self._require_element(w)
        return SimplicialComplex(self.ground,
                                 frozenset(f for f in self.faces if f | {w} in self.faces))

    def is_cone_with_apex(self, w: int) -> bool:
        """True iff adding w to any face yields a face (vacuous when faceless)."""
        self._require_element(w)
        return all(f | {w} in self.faces for f in self.faces)

    def is_cone(self) -> bool:
        return any(self.is_cone_with_apex(w) for w in self.ground)

    # -- global operations -------------------------------------------------------

    def alexander_dual(self, limit: int = FACE_ENUMERATION_LIMIT) -> "SimplicialComplex":
        """Complements of non-faces: {F : ground \\ F not a face}."""
        _check_enumeration(len(self.ground), limit)
        gset = frozenset(self.ground)
        dual = set()
        for k in range(len(self.ground) + 1):
            for combo in combinations(self.ground, k):
                f = frozenset(combo)
                if gset - f not in self.faces:
                    dual.add(f)
        return SimplicialComplex(self.ground, frozenset(dual))

    def f_polynomial(self) -> IntPolynomial:
        """Coefficient of x^k counts the faces of size k."""
        if not self.faces:
            return IntPolynomial()
        counts = [0] * (max(len(f) for f in self.faces) + 1)
        for f in self.faces:
            counts[len(f)] += 1
        return IntPolynomial(counts)

    def reduced_euler_characteristic(self) -> int:
        """Alternating face-count sum including the empty face."""
        return sum(1 if len(f) % 2 else -1 for f in self.faces)

    def suspension(self) -> "SimplicialComplex":
        """Join with two fresh points: faces A ∪ U, U a proper subset of them."""
        fresh = max(self.ground, default=-1) + 1
        y, z = fresh, fresh + 1
        faces = set()
        for a in self.faces:
            faces.add(a)
            faces.add(a | {y})
            faces.add(a | {z})
        return SimplicialComplex(self.ground + (y, z), frozenset(faces))

    def minimal_nonfaces(self, limit: int = FACE_ENUMERATION_LIMIT) -> list[Face]:
        """Inclusion-minimal subsets of the ground set that are not faces.

        A non-face all of whose one-smaller subsets are faces is minimal,
        and downward closure makes the converse hold too.
        """
        _check_enumeration(len(self.ground), limit)
        out = []
        for k in range(len(self.ground) + 1):
            for combo in combinations(self.ground, k):
                f = frozenset(combo)
                if f in self.faces:
                    continue
                if all(f - {x} in self.faces for x in f):
                    out.append(f)
        return out

    def codimension(self) -> int:
        """Ground size minus the largest face size."""
        if not self.faces:
            raise ValueError("codimension needs at least one face")
        return len(self.ground) - max(len(f) for f in self.faces)

    # -- homology ------------------------------------------------------------------

    def gf2_reduced_betti(self, limit: int = FACE_ENUMERATION_LIMIT) -> BettiVector:
        """Reduced Betti numbers over GF(2) from boundary-matrix ranks.

        The chain complex is augmented: the empty face spans degree -1, so
        the irrelevant complex {∅} has betti(-1) = 1 while the complex with
        no faces has every Betti number zero.
        """
        if len(self.faces) > limit:
            raise ResourceLimitError(
                f"{len(self.faces)} faces exceed the homology limit of {limit}")
        by_size: dict[int, list[Face]] = {}
        for f in self.faces:
            by_size.setdefault(len(f), []).append(f)
        for fs in by_size.values():
            fs.sort(key=sorted)
        index = {size: {f: i for i, f in enumerate(fs)} for size, fs in by_size.items()}

        def boundary_rank(size: int) -> int:
            # Rank of the map sending a size-k face to the sum of its
            # (k-1)-subsets, as bitmask columns over GF(2).
            if size not in by_size or (size - 1) not in index:
                return 0
            rows = index[size - 1]
            columns = []
            for f in by_size[size]:
                mask = 0
                for x in f:
                    mask |= 1 << rows[f - {x}]
                columns.append(mask)
            return _gf2_rank(columns)

        max_size = max(by_size, default=0)
        betti = {}
        for size in range(0, max_size + 1):  # size = dimension + 1
            n = len(by_size.get(size, ()))
            kernel = n - boundary_rank(size)
            image_from_above = boundary_rank(size + 1)
            b = kernel - image_from_above
            if b:
                betti[size - 1] = b
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
    return SimplicialComplex(tuple(ground), frozenset([frozenset()]))


def full_simplex(ground: Iterable[int]) -> SimplicialComplex:
    g = tuple(ground)
    faces = [frozenset(c) for k in range(len(g) + 1) for c in combinations(g, k)]
    return SimplicialComplex(g, frozenset(faces))


def proper_subsets_complex(ground: Iterable[int]) -> SimplicialComplex:
    """All proper subsets of a nonempty ground set: a sphere's face family."""
    g = tuple(ground)
    if not g:
        raise ValueError("ground set must be nonempty")
    faces = [frozenset(c) for k in range(len(g)) for c in combinations(g, k)]
    return SimplicialComplex(g, frozenset(faces))
