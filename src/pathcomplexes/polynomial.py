"""Integer-coefficient univariate polynomials.

Face-count generating polynomials of the complexes in this package live
here, together with exact division by powers of (1+x).
"""

from __future__ import annotations

from typing import Iterable


class IntPolynomial:
    """Immutable polynomial with integer coefficients, index = degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    # -- basics ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("IntPolynomial", self.coeffs))

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(self[k] + other[k] for k in range(n))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(self[k] - other[k] for k in range(n))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero() or other.is_zero():
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    def shift(self, k: int = 1) -> "IntPolynomial":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    @classmethod
    def one_plus_x_power(cls, n: int) -> "IntPolynomial":
        """(1+x)^n from its binomial coefficients."""
        return cls(binomials(n))

    def divmod_monic(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Long division by a monic divisor; exact over the integers."""
        if divisor.is_zero() or divisor.coeffs[-1] != 1:
            raise ValueError("divisor must be monic")
        rem = list(self.coeffs)
        d = divisor.degree
        if d == 0:
            return IntPolynomial(rem), IntPolynomial()
        quo = [0] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            quo[i - d] = c
            for j, b in enumerate(divisor.coeffs):
                rem[i - d + j] -= c * b
        return IntPolynomial(quo), IntPolynomial(rem[:d])

    # -- rendering -------------------------------------------------------

    def pretty(self) -> str:
        """Render as ``c0 + c1*x + c2*x^2 + ...`` with zero terms omitted."""
        if self.is_zero():
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{k}")
        return " + ".join(terms)


def binomials(n: int) -> list[int]:
    """The row C(n, 0), ..., C(n, n), empty for negative n: its first half
    by C(n, k+1) = C(n, k) (n-k) / (k+1), the rest by C(n, n-k) = C(n, k)."""
    row, c = [1] * (n + 1), 1
    for k in range(n // 2):
        c = c * (n - k) // (k + 1)
        row[k + 1] = row[n - k - 1] = c
    return row


def poly_divisibility(p: IntPolynomial, k: int) -> tuple[bool, IntPolynomial]:
    """Decide whether (1+x)^k divides p exactly over the integers, and
    return the remainder of the division by (1+x)^k, so a failed verdict
    still reports what is left over."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    _, remainder = p.divmod_monic(IntPolynomial.one_plus_x_power(k))
    return remainder.is_zero(), remainder
