import random

import pytest
from hypothesis import given, settings, strategies as st

import carlitz.poly as polymod
from carlitz.errors import InvariantError, ParseError
from carlitz.fq import Fq, FqElem
from carlitz.poly import (
    MAX_PARSE_DEGREE, Poly, ZZ, all_residues, is_irreducible, monic_enumerate,
    _interned, poly_parse, poly_to_str,
)


QS = (2, 3, 4, 9)


@st.composite
def poly_pairs(draw):
    """Two polynomials over one F_q, q in {2, 3, 4, 9} (the int kernel on
    F_2 and F_3, the generic loops on F_4 and F_9), each zero, constant or
    up to degree 8, sparse or dense, monic or not, with a shared factor
    drawn as often as not."""
    fq = Fq.get(draw(st.sampled_from(QS)))
    coeff = st.integers(0, fq.q - 1).map(lambda i: FqElem(fq, i))

    def poly(max_deg):
        return Poly(fq, "T", draw(st.lists(coeff, max_size=max_deg + 1)))
    a, b, common = poly(8), poly(6), poly(3)
    if draw(st.booleans()):
        a, b = a * common, b * common
    return fq, a, b


def rand_poly(rng, fq, deg):
    return Poly(fq, "T", [FqElem(fq, rng.randrange(fq.q)) for _ in range(deg + 1)])


def test_parse_print_round_trip():
    rng = random.Random(7)
    for q in (2, 3, 5):
        fq = Fq.get(q)
        for _ in range(40):
            p = rand_poly(rng, fq, rng.randrange(7))
            assert poly_parse(poly_to_str(p), fq) == p


def test_parse_expressions():
    f3 = Fq.get(3)
    assert poly_parse("(T+1)*(T+2)", f3) == poly_parse("T^2+2", f3)
    assert poly_parse("2*T^2 - T + 1", f3) == poly_parse("2*T^2+2*T+1", f3)
    with pytest.raises(ParseError):
        poly_parse("T^2^2", f3)  # ^ binds once, no chaining


def test_parse_errors_carry_position():
    f2 = Fq.get(2)
    with pytest.raises(ParseError):
        poly_parse("T+", f2)
    with pytest.raises(ParseError):
        poly_parse("x+1", f2)
    with pytest.raises(ParseError):
        poly_parse("T^T", f2)
    with pytest.raises(ParseError):
        poly_parse("T$1", f2)


def test_parse_refuses_powers_past_the_degree_limit(monkeypatch):
    f2, cap = Fq.get(2), MAX_PARSE_DEGREE
    taken, pow_ = [], polymod._int_power

    def power(b, e, p):
        # large powers are only recorded, so no coefficient list is built
        taken.append(e)
        return pow_(b, e, p) if e < 10 else b

    monkeypatch.setattr(polymod, "_int_power", power)
    for text in (f"T^{cap + 1}", f"(T^2+1)^{cap // 2 + 1}", f"1^{cap + 1}"):
        with pytest.raises(ParseError, match=f"degree limit {cap}"):
            poly_parse(text, f2)
    assert taken == [2]  # the inner T^2 alone
    poly_parse(f"T^{cap}", f2)
    poly_parse(f"(T^2+1)^{cap // 2}", f2)
    assert taken == [2, cap, 2, cap // 2]


def test_parse_accepts_ascii_digits_only():
    f2 = Fq.get(2)
    # a superscript digit is neither a digit nor a letter to the tokenizer
    with pytest.raises(ParseError) as exc:
        poly_parse("T^\u00b2", f2)
    assert exc.value.pos == 2
    assert str(exc.value) == "unexpected character '\u00b2' (at position 2)"
    # an Arabic-Indic three is no coefficient 3
    with pytest.raises(ParseError) as exc:
        poly_parse("\u0663*T", f2)
    assert exc.value.pos == 0
    assert str(exc.value) == "unexpected character '\u0663' (at position 0)"
    assert poly_parse("3*T^2", f2) == poly_parse("T^2", f2)


def test_divmod_and_gcd():
    rng = random.Random(8)
    f3 = Fq.get(3)
    for _ in range(30):
        a = rand_poly(rng, f3, rng.randrange(1, 7))
        b = rand_poly(rng, f3, rng.randrange(1, 5))
        if b.is_zero():
            continue
        qt, r = a.divmod(b)
        assert qt * b + r == a
        assert r.is_zero() or r.degree < b.degree
        g, u, v = a.egcd(b)
        assert u * a + v * b == g
        if not a.is_zero():
            assert a.gcd(b).is_monic() or a.gcd(b).is_zero()


@settings(max_examples=80)
@given(poly_pairs())
def test_division_with_remainder_and_bezout(case):
    fq, a, b = case
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.divmod(b)
    else:
        quo, rem = a.divmod(b)
        assert quo * b + rem == a and rem.degree < b.degree
    g, u, v = a.egcd(b)
    assert u * a + v * b == g
    if a.is_zero() and b.is_zero():
        assert g.is_zero()
        return
    assert g.is_monic() and g == a.gcd(b)
    assert (a % g).is_zero() and (b % g).is_zero()


def test_divmod_over_integers_requires_monic():
    x = Poly.gen(ZZ, "x")
    f = x ** 3 - x + Poly(ZZ, "x", [2])
    q, r = f.divmod(x - Poly(ZZ, "x", [1]))
    assert q * (x - Poly(ZZ, "x", [1])) + r == f
    with pytest.raises(ValueError):
        f.divmod(Poly(ZZ, "x", [1, 2]))  # 2x+1 is not monic


def test_eval_and_compose():
    f5 = Fq.get(5)
    p = poly_parse("T^3+2*T+1", f5)
    assert p.eval(f5.from_int(2)) == f5.from_int(13 % 5)
    inner = poly_parse("T^2+1", f5)
    assert p.compose(inner).eval(f5.from_int(3)) == p.eval(inner.eval(f5.from_int(3)))


def test_derivative_product_rule():
    rng = random.Random(9)
    f3 = Fq.get(3)
    for _ in range(20):
        a = rand_poly(rng, f3, 4)
        b = rand_poly(rng, f3, 4)
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def test_frobenius_twist():
    f3 = Fq.get(3)
    p = poly_parse("T^2+2*T+1", f3)
    assert p.frobenius_twist(1, 3) == p ** 3
    # over F_4 coefficients move too: (cT)^2 = c^2 T^2
    f4 = Fq.get(4)
    g = FqElem(f4, 2)
    p4 = Poly(f4, "T", [f4.zero, g])
    assert p4.frobenius_twist(1, 4) == Poly(f4, "T", [f4.zero, f4.zero, f4.zero, f4.zero, g ** 4])


def test_irreducible_counts_match_necklace_numbers():
    # numbers of monic irreducibles: q=2 -> 2,1,2,3,6; q=3 -> 3,3,8,18
    f2, f3 = Fq.get(2), Fq.get(3)
    got2 = [sum(is_irreducible(p) for p in monic_enumerate(f2, d)) for d in (1, 2, 3, 4, 5)]
    assert got2 == [2, 1, 2, 3, 6]
    got3 = [sum(is_irreducible(p) for p in monic_enumerate(f3, d)) for d in (1, 2, 3, 4)]
    assert got3 == [3, 3, 8, 18]


def test_monic_enumeration_is_index_ordered():
    f3 = Fq.get(3)
    polys = monic_enumerate(f3, 2)
    assert len(polys) == 9
    assert polys[0] == poly_parse("T^2", f3)
    assert polys[1] == poly_parse("T^2+1", f3)
    assert polys[3] == poly_parse("T^2+T", f3)
    idx = [sum(c.sort_key() * 3 ** i for i, c in enumerate(p.coeffs)) for p in polys]
    assert idx == sorted(idx)  # constant coefficient varies fastest


def _digit_polys_generic(fq, n, monic):
    """The q^n digit polynomials built from FqElems, stripped by Poly."""
    top = [fq.one] if monic else []
    out = []
    for v in range(fq.q ** n):
        digits = [(v // fq.q ** k) % fq.q for k in range(n)]
        out.append(Poly(fq, "T", [fq.from_index(i) for i in digits] + top))
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 257])
def test_enumeration_matches_the_generic_build(q):
    fq = Fq.get(q)
    for n in range(4 if q <= 5 else 2):
        for monic, got in ((True, monic_enumerate(fq, n)),
                           (False, all_residues(fq, n))):
            assert got == _digit_polys_generic(fq, n, monic)
            for p in got:
                assert not p.coeffs or p.coeffs[-1]  # stripped
                if _interned(fq):
                    assert p._ix == [c.i for c in p.coeffs]
        assert all_residues(fq, n)[0].is_zero()


def test_shift_valuation_monic():
    f2 = Fq.get(2)
    p = poly_parse("T^3+T^2", f2)
    assert p.valuation(poly_parse("T", f2)) == 2
    assert p.valuation(poly_parse("T+1", f2)) == 1
    assert p.monic() == p  # already monic


def test_zero_and_degree_conventions():
    f2 = Fq.get(2)
    z = Poly(f2, "T", [])
    assert z.is_zero() and z.degree == -1
    assert (z * poly_parse("T", f2)).is_zero()
    with pytest.raises(ValueError):
        z.valuation(poly_parse("T", f2))


BINARY_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "divmod": lambda a, b: a.divmod(b),
    "gcd": lambda a, b: a.gcd(b),
}


@pytest.mark.parametrize("op", sorted(BINARY_OPS))
def test_mixed_operands_raise_the_pinned_types(op):
    # the F_p kernel (q = 2, 3) and the generic loops (q = 4, 9) alike
    fn = BINARY_OPS[op]
    for q in (2, 3, 4, 9):
        fq = Fq.get(q)
        a = poly_parse("T^3+T+1", fq)
        with pytest.raises(ValueError):  # mixed variable
            fn(a, poly_parse("x^2+1", fq, "x"))
        other_q = {2: 3, 3: 2, 4: 9, 9: 4}[q]
        with pytest.raises(ValueError):  # mixed field
            fn(a, poly_parse("T^2+1", Fq.get(other_q)))
        for x in (5, 2.5, fq.one):
            with pytest.raises(AttributeError):
                fn(a, x)
        for x in (None, "T"):  # ``-`` negates these first, which fails
            with pytest.raises(TypeError if op == "-" else AttributeError):
                fn(a, x)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("op", sorted(BINARY_OPS))
def test_an_equal_field_instance_on_the_right(op, p):
    # Fq(p) built directly is a second instance of Fq.get(p): it is accepted,
    # and over F_p every result lands on the left operand's interned elements
    fq, twin = Fq.get(p), Fq(p)
    assert twin is not fq and twin == fq
    rng = random.Random(p)
    for _ in range(20):
        a = Poly(fq, "T", [fq.from_index(rng.randrange(p))
                           for _ in range(rng.randrange(0, 10))])
        ib = [rng.randrange(p) for _ in range(rng.randrange(0, a.degree + 2))]
        b = Poly(twin, "T", [twin.from_index(i) for i in ib])
        b_same = Poly(fq, "T", [fq.from_index(i) for i in ib])
        if b.is_zero() and op == "divmod":
            continue
        got, want = BINARY_OPS[op](a, b), BINARY_OPS[op](a, b_same)
        assert got == want
        for r in got if isinstance(got, tuple) else (got,):
            assert r.ring is fq
            assert all(c is fq._elems[c.i] for c in r.coeffs)


def test_internal_quotient_of_a_non_divisor_is_an_invariant_error():
    # _poly_quo serves divisions the library makes exact by construction:
    # a remainder is a bug (exit 3); exact_div keeps ValueError for a
    # caller's own operands (exit 2)
    f3 = Fq.get(3)
    a, g = poly_parse("T^2+1", f3), poly_parse("T+1", f3)
    with pytest.raises(InvariantError, match="cancellation left a remainder"):
        polymod._poly_quo(a, g)
    with pytest.raises(ValueError) as ei:
        a.exact_div(g)
    assert not isinstance(ei.value, InvariantError)
    assert polymod._poly_quo(a * g, g) == a
