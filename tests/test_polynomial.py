import math

import pytest

from pathcomplexes.polynomial import IntPolynomial, binomials, poly_divisibility


def test_trailing_zeros_are_normalized():
    assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPolynomial([0, 0]).coeffs == ()


def test_zero_polynomial():
    z = IntPolynomial()
    assert z.is_zero() and z.degree == -1 and z.evaluate(5) == 0
    assert z.pretty() == "0"


def test_indexing_defaults_to_zero():
    p = IntPolynomial([3, 1])
    assert p[0] == 3 and p[1] == 1 and p[7] == 0


def test_arithmetic():
    p = IntPolynomial([1, 1])
    assert (p * p).coeffs == (1, 2, 1)
    assert (p + IntPolynomial([0, -1])).coeffs == (1,)
    assert (p - p).is_zero()
    assert p.shift(2).coeffs == (0, 0, 1, 1)


def test_one_plus_x_power_is_binomial():
    assert IntPolynomial.one_plus_x_power(0).coeffs == (1,)
    assert IntPolynomial.one_plus_x_power(4).coeffs == (1, 4, 6, 4, 1)
    assert IntPolynomial.one_plus_x_power(200).coeffs == tuple(
        math.comb(200, k) for k in range(201))


def test_binomials_match_comb():
    for n in range(65):
        assert binomials(n) == [math.comb(n, k) for k in range(n + 1)], n
    assert binomials(-1) == []


def test_evaluate():
    p = IntPolynomial([1, 2, 3])
    assert p.evaluate(-1) == 2
    assert p.evaluate(2) == 17


def test_divmod_monic_roundtrip():
    p = IntPolynomial([7, -3, 2, 5])
    d = IntPolynomial([1, 1])
    q, r = p.divmod_monic(d)
    assert q * d + r == p
    assert r.degree < d.degree


def test_divmod_requires_monic():
    with pytest.raises(ValueError):
        IntPolynomial([1]).divmod_monic(IntPolynomial([1, 2]))


def test_divisibility_of_exact_power():
    ok, rem = poly_divisibility(IntPolynomial.one_plus_x_power(2), 2)
    assert ok and rem.is_zero()


def test_divisibility_failure_reports_remainder():
    ok, rem = poly_divisibility(IntPolynomial([1, 2]), 1)
    assert not ok
    assert rem == IntPolynomial([-1])  # value at x = -1


def test_divisibility_by_zeroth_power():
    ok, rem = poly_divisibility(IntPolynomial([5, 1]), 0)
    assert ok and rem.is_zero()


def test_pretty_formats():
    assert IntPolynomial([1, 2]).pretty() == "1 + 2*x"
    assert IntPolynomial([0, 0, 3]).pretty() == "3*x^2"
    assert IntPolynomial([1, 1, 1]).pretty() == "1 + 1*x + 1*x^2"
    assert IntPolynomial([-2, -2]).pretty() == "-2 + -2*x"


def test_hash_and_eq():
    assert IntPolynomial([1, 2]) == IntPolynomial((1, 2, 0))
    assert hash(IntPolynomial([1, 2])) == hash(IntPolynomial((1, 2)))
    assert IntPolynomial([1]) != IntPolynomial([2])
