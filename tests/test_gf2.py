import pytest

from psp4nse.arith import divisors
from psp4nse.gf2 import FieldSpec, find_generator, lexicographic_modulus, multiplicative_order
from reference import euler_phi


def test_lexicographic_moduli():
    # smallest irreducibles: x^2+x+1, x^3+x+1, x^4+x+1
    assert lexicographic_modulus(2) == 0b111
    assert lexicographic_modulus(3) == 0b1011
    assert lexicographic_modulus(4) == 0b10011


def test_gf4_basics():
    s = FieldSpec.for_degree(2)
    x = 2  # the polynomial x
    assert x ^ x == 0
    assert s.mul(x, x) == 3  # x^2 = x + 1 under x^2+x+1
    assert multiplicative_order(s, x) == 3
    assert multiplicative_order(s, 1) == 1
    with pytest.raises(ZeroDivisionError):
        s.inv(0)
    with pytest.raises(ZeroDivisionError):
        multiplicative_order(s, 0)


@pytest.mark.parametrize("f", [2, 3, 4, 5])
def test_field_axioms_exhaustive(f):
    s = FieldSpec.for_degree(f)
    n = s.order
    elements = range(n)
    for a in elements:
        for b in elements:
            assert s.mul(a, b) == s.mul(b, a)
            for c in elements:
                assert s.mul(s.mul(a, b), c) == s.mul(a, s.mul(b, c))
                assert s.mul(a, b ^ c) == s.mul(a, b) ^ s.mul(a, c)


@pytest.mark.parametrize("f", [2, 3, 4, 5])
def test_multiplicative_group_structure(f):
    s = FieldSpec.for_degree(f)
    n = s.order
    for a in range(1, n):
        assert s.pow(a, n - 1) == 1
    by_order: dict[int, int] = {}
    for a in range(1, n):
        d = multiplicative_order(s, a)
        by_order[d] = by_order.get(d, 0) + 1
    for d in divisors(n - 1):
        assert by_order.get(d, 0) == euler_phi(d)


def test_inverse_roundtrip():
    for f in (2, 3, 4, 6, 8):
        s = FieldSpec.for_degree(f)
        for a in range(1, s.order):
            assert s.mul(a, s.inv(a)) == 1


def test_find_generator_deterministic():
    s = FieldSpec.for_degree(4)
    g = find_generator(s)
    assert multiplicative_order(s, g) == 15
    # no smaller bitmask generates
    for a in range(1, g):
        assert multiplicative_order(s, a) < 15

