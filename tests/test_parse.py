"""The text boundary against its oracles.

``poly_parse`` evaluates text on integer coefficient lists and builds one
``Poly``; ``OracleParser`` below is the slower independent route, the same
grammar evaluated by ``Poly`` arithmetic in the coefficient parent.  Over an
interned F_p ``poly_to_str`` writes terms from the index view; the generic
``_poly_text`` loop is its oracle.
"""

import pytest
from hypothesis import given, settings, strategies as st

from carlitz.errors import ParseError
from carlitz.fq import Fq, FqElem
from carlitz.poly import (
    MAX_PARSE_DEGREE, Poly, PolyRing, ZZ, _coeff_int, _interned, _poly_text,
    _tokenize, poly_parse, poly_to_str,
)
from carlitz.ratfun import base_field


class OracleParser:
    """The grammar of ``poly_parse`` with every value a ``Poly`` over the
    parent: a constant is ``Poly.const`` and each operator is the
    parent's own arithmetic."""

    def __init__(self, text, ring, var):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ring = ring
        self.var = var

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self):
        t = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            t = t + rhs if op == "+" else t - rhs
        return t

    def term(self):
        f = self.factor()
        while self.peek()[0] == "*":
            self.take()
            f = f * self.factor()
        return f

    def factor(self):
        b = self.base()
        if self.peek()[0] == "^":
            self.take()
            kind, val, pos = self.take()
            if kind != "uint":
                raise ParseError("exponent must be an unsigned integer", pos)
            if val * max(b.degree, 1) > MAX_PARSE_DEGREE:
                raise ParseError(f"power exceeds the degree limit "
                                 f"{MAX_PARSE_DEGREE}", pos)
            b = b ** val
        return b

    def base(self):
        kind, val, pos = self.take()
        if kind == "name":
            if val != self.var:
                raise ParseError(
                    f"unknown variable {val!r}, expected {self.var!r}", pos)
            return Poly.gen(self.ring, self.var)
        if kind == "uint":
            return Poly.const(self.ring, self.var, val)
        if kind == "(":
            inner = self.expr()
            kind2, _, pos2 = self.take()
            if kind2 != ")":
                raise ParseError("expected ')'", pos2)
            return inner
        raise ParseError(f"unexpected token {kind!r}", pos)


def oracle_parse(text, ring, var="T"):
    parser = OracleParser(text, ring, var)
    result = parser.expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input starting with {kind!r}", pos)
    return result


def outcome(parse, text, ring):
    """The parsed Poly, or the message and position of the ParseError."""
    try:
        return parse(text, ring)
    except ParseError as ex:
        return ("ParseError", str(ex), ex.pos)


# F_257 is a prime field past the interning limit; A[x] (var "T" over
# F_3[s]) maps the integer result into a tower
PARENTS = [Fq.get(q) for q in (2, 3, 4, 5, 9, 257)] + [ZZ, PolyRing(Fq.get(3), "s")]

variables = st.sampled_from(["T", "T", "T", "x"])
literals = st.integers(0, 300).map(str)


def _spaced(parts):
    return st.lists(st.sampled_from(["", "", " "]), min_size=len(parts),
                    max_size=len(parts)).map(
        lambda gaps: "".join(g + p for g, p in zip(gaps, parts)))


well_formed = st.recursive(
    st.one_of(variables, literals),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).flatmap(_spaced),
        inner.flatmap(lambda e: _spaced(["(", e, ")"])),
        st.tuples(inner, st.integers(0, 4).map(str)).flatmap(
            lambda t: _spaced([t[0], "^", t[1]]))),
    max_leaves=8)

# token soup: mostly malformed, with the same alphabet
soup = st.lists(st.one_of(variables, literals, st.sampled_from(list("+-*^() "))),
                max_size=10).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(well_formed, soup), st.sampled_from(PARENTS))
def test_parse_matches_the_poly_oracle(text, ring):
    got = outcome(poly_parse, text, ring)
    assert got == outcome(oracle_parse, text, ring)
    if isinstance(got, Poly):
        assert got.ring is ring and got.var == "T"
        if _interned(ring):  # the index view the kernel reads
            assert got._ix == [c.i for c in got.coeffs]
            assert all(c is ring._elems[c.i] for c in got.coeffs)


@pytest.mark.parametrize("text", [
    "", "T+", "T^T", "T^2^2", "(T+1", "T+1)", "T$1", "x+1", "T2", "2T",
    "T^", "*T", "-T", "T--1", "()",
])
def test_malformed_texts_raise_what_the_oracle_raises(text):
    for ring in PARENTS:
        got = outcome(poly_parse, text, ring)
        assert isinstance(got, tuple)
        assert got == outcome(oracle_parse, text, ring)


def test_the_degree_check_sees_reduced_coefficients():
    # 3*T^2 is zero over F_3 and over F_3[s], so its power is degree -1
    text = f"(3*T^2)^{MAX_PARSE_DEGREE}"
    for ring in (Fq.get(3), Fq.get(9), PolyRing(Fq.get(3), "s")):
        assert poly_parse(text, ring).is_zero()
    with pytest.raises(ParseError, match="degree limit"):
        poly_parse(text, ZZ)
    # a sum whose top terms cancel is degree 0 on every parent
    for ring in PARENTS:
        one = poly_parse(f"(T^2-T^2+1)^{MAX_PARSE_DEGREE}", ring)
        assert one == oracle_parse("1", ring)


PRIME_FIELDS = [Fq.get(p) for p in (2, 3, 5, 7, 257)]


@st.composite
def prime_field_polys(draw):
    fq = draw(st.sampled_from(PRIME_FIELDS))
    ints = draw(st.lists(st.integers(0, fq.p - 1), max_size=12))
    return Poly(fq, draw(st.sampled_from(["T", "x"])),
                [fq.from_index(i) for i in ints])


@settings(max_examples=200, deadline=None)
@given(prime_field_polys())
def test_print_matches_the_generic_loop_and_round_trips(p):
    text = poly_to_str(p)
    assert text == _poly_text(p, lambda c: str(_coeff_int(c)))
    assert str(p) == text
    assert poly_parse(text, p.ring, p.var) == p


def test_str_pins():
    # captured before the printer read the index view
    f3, f4, f9 = Fq.get(3), Fq.get(4), Fq.get(9)

    def over(fq, ixs):
        return Poly(fq, "T", [fq.from_index(i) for i in ixs])
    assert str(over(f4, (1, 0, 1))) == "T^2+1"
    assert str(over(f4, (2, 1, 0, 3))) == "Fq4[1,1]*T^3+T+Fq4[0,1]"
    assert str(over(f9, (2, 1, 0, 2))) == "2*T^3+T+2"
    assert str(over(f9, (0, 4, 1, 0, 8))) == "Fq9[2,2]*T^4+T^2+Fq9[1,1]*T"
    assert str(Poly(ZZ, "x", [-1, 0, 3, -2, 1])) == "x^4+(-2)*x^3+3*x^2+(-1)"
    assert str(Poly(ZZ, "x", [5, 1, 0, 2])) == "2*x^3+x+5"
    F = base_field(f3)
    T = F.gen()
    fx = Poly(F, "x", [T / (T + F.one), F.zero, F.one, T * T + F.one])
    assert str(fx) == "(T^2+1)*x^3+x^2+(T/(T+1))"
    A = PolyRing(f3, "T")
    ax = Poly(A, "x", [poly_parse("T^2+2", f3), A.one, A.zero,
                       poly_parse("2*T", f3)])
    assert str(ax) == "(2*T)*x^3+x+(T^2+2)"
    for zero in (Poly(F, "x", []), Poly(A, "x", []), Poly(f4, "T", [])):
        assert str(zero) == "0"


def test_canonical_text_refuses_what_it_cannot_write():
    f4 = Fq.get(4)
    with pytest.raises(ValueError, match="not in the prime field"):
        poly_to_str(Poly(f4, "T", [FqElem(f4, 2)]))
    with pytest.raises(ValueError, match="negative integers"):
        poly_to_str(Poly(ZZ, "x", [-1]))

