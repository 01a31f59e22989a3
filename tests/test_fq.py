from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from carlitz.fq import Fq, FqElem, _power
from carlitz.poly import poly_parse
from carlitz.quotient import QuotElem, QuotientRing

QS = (2, 3, 4, 9)


@st.composite
def field_triples(draw):
    """Three elements of one F_q, q in {2, 3, 4, 9}: prime fields and
    proper extensions."""
    fq = Fq.get(draw(st.sampled_from(QS)))
    elem = st.integers(0, fq.q - 1).map(lambda i: FqElem(fq, i))
    return fq, draw(elem), draw(elem), draw(elem)


def test_prime_field_arithmetic():
    f5 = Fq.get(5)
    a = f5.from_int(3)
    b = f5.from_int(4)
    assert (a + b).prime_value() == 2
    assert (a * b).prime_value() == 2
    assert (a - b).prime_value() == 4
    assert (a / b).prime_value() == 2  # 3 * 4^-1 = 3 * 4 = 12 = 2
    assert (-a).prime_value() == 2
    assert a ** 4 == f5.one  # Fermat


def test_extension_field_f4():
    f4 = Fq.get(4)
    assert f4.p == 2 and f4.m == 2
    g = FqElem(f4, 2)  # the class of x
    assert g * g == g + f4.one  # x^2 = x + 1 under the canonical modulus
    assert g ** 3 == f4.one
    for e in f4.elements():
        if e:
            assert e * (f4.one / e) == f4.one


def test_f8_and_f9_multiplicative_order():
    for q in (8, 9):
        fq = Fq.get(q)
        for e in fq.elements():
            if e:
                assert e ** (q - 1) == fq.one


@pytest.mark.parametrize("q", [4, 8, 9, 16, 27, 243, 256])
def test_product_table_matches_pairwise_coordinate_products(q):
    # the log/antilog-built table against one coordinate product per pair
    fq = Fq(q)
    table = fq._make_mul()
    for i in range(q):
        for j in range(i, q):
            k = fq._mul_index(i, j)
            assert table[i * q + j].i == k and table[j * q + i].i == k


def test_canonical_modulus_is_smallest():
    # F_4 modulus x^2+x+1 is the unique irreducible quadratic over F_2;
    # the invariant is lexicographic-minimality among monic irreducibles
    f4 = Fq.get(4)
    assert f4.modulus == (1, 1, 1)
    pinned = {
        8: (1, 1, 0, 1), 9: (1, 0, 1), 16: (1, 1, 0, 0, 1), 25: (2, 0, 1),
        27: (1, 2, 0, 1), 32: (1, 0, 1, 0, 0, 1), 49: (1, 0, 1),
        81: (2, 1, 0, 0, 1), 121: (1, 0, 1), 125: (1, 1, 0, 1),
    }
    for q, modulus in pinned.items():
        assert Fq.get(q).modulus == modulus, q


def test_enumeration_order_is_by_index():
    f9 = Fq.get(9)
    idx = [e.sort_key() for e in f9.elements()]
    assert idx == list(range(9))


def test_coords_round_trip():
    f9 = Fq.get(9)
    for e in f9.elements():
        assert f9.from_coords(e.coords) == e


def test_prime_value_rejects_proper_extension_elements():
    f4 = Fq.get(4)
    g = FqElem(f4, 2)
    with pytest.raises(ValueError):
        g.prime_value()


def test_bad_sizes_rejected():
    for q in (1, 6, 12, 0, -3):
        with pytest.raises(ValueError):
            Fq.get(q)


def test_instances_are_cached():
    assert Fq.get(3) is Fq.get(3)


def test_cross_field_coercion_rejected():
    f2, f3 = Fq.get(2), Fq.get(3)
    with pytest.raises(ValueError):
        f3.coerce(f2.one)


@settings(max_examples=80)
@given(field_triples())
def test_field_axioms(case):
    fq, a, b, c = case
    zero, one = fq.zero, fq.one
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a + (-a) == zero and a - b == a + (-b)
    acc = zero
    for _ in range(fq.p):
        acc = acc + a
    assert acc == zero  # characteristic p
    assert a ** fq.q == a  # every element is a root of X^q - X
    if a == zero:
        with pytest.raises(ZeroDivisionError):
            b / a
    else:
        assert a * a ** -1 == one and (b / a) * a == b


def test_power_multiplies_only_past_the_first_factor():
    # base^e takes floor(log2 e) squarings and popcount(e) - 1 products:
    # no product with the one it would start from, and one only for e = 0
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a * b

    one = object()
    assert _power(3, 0, one, mul) is one and not calls
    for e in range(1, 70):
        calls.clear()
        assert _power(3, e, one, mul) == 3 ** e
        assert len(calls) == e.bit_length() - 1 + bin(e).count("1") - 1, e
        assert all(one not in pair for pair in calls)
    # the elements' own powers: a QuotElem inverse is one extended gcd and
    # no product, and a non-interned F_p element still powers to the table's
    f3 = Fq.get(3)
    d = QuotientRing(poly_parse("T^2+1", f3)).coerce(poly_parse("T+1", f3))
    real, products = QuotElem.__mul__, []
    with mock.patch.object(QuotElem, "__mul__",
                           lambda x, y: products.append(1) or real(x, y)):
        inv = d ** -1
    assert not products and inv == d.inv() and d * inv == d.ring.one
    f5 = Fq.get(5)
    a = FqElem(f5, 2)
    assert a ** 1 is f5.from_index(2) and a ** 5 is f5.from_index(2)
