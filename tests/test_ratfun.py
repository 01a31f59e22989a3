import operator
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from carlitz.coleman import x_field
from carlitz.cyclo import CycloField
from carlitz.errors import InvariantError
from carlitz.fq import Fq, FqElem
from carlitz.poly import (
    Poly, _fp_gcd, _fp_mul, _gcd_generic, poly_parse,
)
from carlitz.ratfun import (
    FracField, RatFun, _exact_quo, _gcd_ax, _poly_kernel, _prem, _primitive,
    _product, _reduced, _sum, base_field,
)

QS = (2, 3, 4, 9)


def rand_ratfun(rng, F, max_deg=4):
    fq = F.cring
    num = Poly(fq, "T", [FqElem(fq, rng.randrange(fq.q)) for _ in range(rng.randrange(1, max_deg))])
    den = Poly(fq, "T", [FqElem(fq, rng.randrange(fq.q)) for _ in range(rng.randrange(1, max_deg))])
    if den.is_zero():
        den = Poly(fq, "T", [fq.one])
    return F.coerce(num) / F.coerce(den)


def test_reduction_is_canonical():
    F = base_field(Fq.get(3))
    fq = Fq.get(3)
    a = F.coerce(poly_parse("T^2+2*T", fq)) / F.coerce(poly_parse("2*T", fq))
    # gcd cancels, denominator is forced monic
    assert a.den.is_monic()
    assert a.num == poly_parse("2*T+1", fq)  # (T+2)/2 = 2T+1 after scaling
    assert a.den == Poly(fq, "T", [fq.one])


def test_field_axioms_on_random_elements():
    rng = random.Random(11)
    F = base_field(Fq.get(2))
    for _ in range(25):
        a, b, c = (rand_ratfun(rng, F) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        if not b.is_zero():
            assert (a / b) * b == a
        assert a - a == F.zero
    x = rand_ratfun(rng, F)
    with pytest.raises(ZeroDivisionError):
        x / F.zero


def test_base_field_is_cached():
    assert base_field(Fq.get(2)) is base_field(Fq.get(2))


def test_valuation():
    fq = Fq.get(2)
    F = base_field(fq)
    T = poly_parse("T", fq)
    f = F.coerce(poly_parse("T^3+T^2", fq)) / F.coerce(poly_parse("T^5", fq))
    assert f.valuation(T) == -3
    assert f.valuation(poly_parse("T+1", fq)) == 1
    assert F.zero.valuation(T) == float("inf")


def test_valuation_at_a_constant_raises():
    # a nonzero constant divides everything: no multiplicity to count
    fq = Fq.get(3)
    f = poly_parse("T^2+1", fq)
    for c in ("2", "1"):
        with pytest.raises(ValueError):
            f.valuation(poly_parse(c, fq))
        with pytest.raises(ValueError):
            base_field(fq).coerce(f).valuation(poly_parse(c, fq))
    with pytest.raises(ZeroDivisionError):
        f.valuation(Poly(fq, "T", []))


def test_derivative_quotient_rule():
    rng = random.Random(12)
    F = base_field(Fq.get(3))
    for _ in range(15):
        a = rand_ratfun(rng, F)
        b = rand_ratfun(rng, F)
        lhs = (a * b).derivative()
        assert lhs == a.derivative() * b + a * b.derivative()


def test_nested_fraction_field():
    # F_q(T)(x): coefficients of the outer field are themselves rational
    fq = Fq.get(2)
    F = base_field(fq)
    Fx = FracField(F, "x")
    x = Fx.coerce(Poly.gen(F, "x"))
    t = Fx.coerce(poly_parse("T", fq))  # base-ring polynomial climbs the tower
    f = (x + t) / x
    assert f * Fx.coerce(Poly.gen(F, "x")) == Fx.coerce(Poly.gen(F, "x")) + t
    assert str(t) == "T"


def test_eval_matches_substitution():
    fq = Fq.get(5)
    F = base_field(fq)
    f = F.coerce(poly_parse("T^2+1", fq)) / F.coerce(poly_parse("T+3", fq))
    v = f.eval(fq.from_int(1), fq)
    assert v == fq.from_int(3)  # (1+1)/(1+3) = 2 * 4^-1 = 2 * 4 = 3 mod 5


def test_eval_with_a_unit_denominator_skips_the_inverse():
    # n / 1 is returned as n; the value is the one n * d^-1 gives
    fq = Fq.get(5)
    F = base_field(fq)
    f = F.coerce(poly_parse("T^2+1", fq))
    for t in fq.elements():
        assert f.eval(t, fq) == f.num.eval(t, fq) * f.den.eval(t, fq) ** -1
    field = CycloField.get(poly_parse("T", Fq.get(3)), 2)
    Fx = FracField(field.F, "x")
    g = Fx.coerce(Poly(field.F, "x", [field.F.gen(), field.F.one,
                                      field.F.one]))
    n, d = g.num.eval(field.omega, field), g.den.eval(field.omega, field)
    assert g.eval(field.omega, field) == n * d ** -1


# -- Henrici's rule against one gcd of the textbook pair ---------------------

def textbook(op, f, g):
    """The unreduced numerator and denominator of f op g."""
    a, b, c, d = f.num, f.den, g.num, g.den
    if op is operator.add:
        return a * d + c * b, b * d
    if op is operator.sub:
        return a * d - c * b, b * d
    if op is operator.mul:
        return a * c, b * d
    return a * d, b * c


def reduced_by_hand(F, num, den):
    """num/den in canonical form by a route apart from the rule: Euclid on
    the coefficients, exact division and a monic denominator."""
    if num.is_zero():
        return F.zero
    g = _gcd_generic(num, den)
    num, den = num.exact_div(g), den.exact_div(g)
    lcinv = den.leading ** -1
    return RatFun(F, num.mul_scalar(lcinv), den.mul_scalar(lcinv))


def assert_canonical(r):
    assert r.den.is_monic()
    assert r.num.gcd(r.den).is_one()


def check_against_oracle(f, g):
    F = f.field
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        if op is operator.truediv and g.is_zero():
            continue
        got = op(f, g)
        assert got == reduced_by_hand(F, *textbook(op, f, g)), op
        assert got == RatFun.make(F, *textbook(op, f, g)), op
        assert_canonical(got)


@st.composite
def factor_products(draw, field, coeff, nonzero, max_deg, count):
    """``count`` polynomials over ``field`` (any of them may be zero), each
    a scalar times a product of factors from one small shared pool, so that
    numerators and denominators share factors and every cancellation of the
    rule happens."""
    var = "x" if isinstance(field, FracField) else "T"

    def poly(n):
        cs = [draw(coeff) for _ in range(n)]
        cs.append(draw(nonzero))
        return Poly(field, var, cs)

    pool = [poly(draw(st.integers(0, max_deg)))
            for _ in range(draw(st.integers(1, 3)))]
    out = []
    for _ in range(count):
        if draw(st.integers(0, 9)) == 0:
            out.append(Poly(field, var, []))
            continue
        p = poly(0)
        for i in draw(st.lists(st.integers(0, len(pool) - 1), max_size=3)):
            p = p * pool[i]
        out.append(p)
    return out


def fraction_pair(F, polys):
    nums, dens = polys[:2], polys[2:]
    dens = [d if d.coeffs else F.one.num for d in dens]
    return [RatFun.make(F, n, d) for n, d in zip(nums, dens)]


@st.composite
def base_pairs(draw):
    fq = Fq.get(draw(st.sampled_from(QS)))
    coeff = st.integers(0, fq.q - 1).map(fq.from_index)
    nonzero = st.integers(1, fq.q - 1).map(fq.from_index)
    polys = draw(factor_products(fq, coeff, nonzero, 2, 4))
    return fraction_pair(base_field(fq), polys)


@st.composite
def nested_pairs(draw, fields=(2, 3)):
    fq = Fq.get(draw(st.sampled_from(fields)))
    F = base_field(fq)
    digit = st.integers(0, fq.q - 1)
    small = st.tuples(st.lists(digit, max_size=1), digit).map(
        lambda t: Poly(fq, "T", [fq.from_index(i) for i in t[0] + [t[1]]]))
    nonzero_small = small.filter(lambda p: p.coeffs)
    coeff = st.tuples(small, nonzero_small).map(lambda nd: RatFun.make(F, *nd))
    nonzero = st.tuples(nonzero_small, nonzero_small).map(
        lambda nd: RatFun.make(F, *nd))
    polys = draw(factor_products(F, coeff, nonzero, 1, 4))
    return fraction_pair(FracField(F, "x"), polys)


@given(base_pairs())
@settings(max_examples=200)
def test_henrici_rule_matches_make_over_fq_t(pair):
    check_against_oracle(*pair)


@given(nested_pairs())
@settings(max_examples=40)
def test_henrici_rule_matches_make_over_nested_field(pair):
    # F_q(T)(x): the gcds run the A[x] route, F_q(T) being over a prime field
    check_against_oracle(*pair)


def test_henrici_edge_cases(monkeypatch):
    fq = Fq.get(3)
    F = base_field(fq)

    def r(num, den="1"):
        return RatFun.make(F, poly_parse(num, fq), poly_parse(den, fq))

    def boom(*args):
        raise AssertionError("+, -, * and / must not call RatFun.make")

    f, g = r("T+1", "T^2"), r("2*T", "T+2")
    want = {op: reduced_by_hand(F, *textbook(op, f, g))
            for op in (operator.add, operator.sub, operator.mul,
                       operator.truediv)}
    monkeypatch.setattr(RatFun, "make", staticmethod(boom))
    for op, value in want.items():
        assert op(f, g) == value
    monkeypatch.undo()
    # zero operands
    for x in (f, F.zero):
        assert x + F.zero == x and F.zero + x == x
        assert (x * F.zero).is_zero() and (F.zero * x).is_zero()
    assert F.zero / f == F.zero
    # equal denominators, and sums that cancel to the canonical zero
    assert r("T", "T^2+1") + r("1", "T^2+1") == r("T+1", "T^2+1")
    assert r("T", "T+1") + r("1", "T+1") == F.one
    assert f - f == F.zero and f + (-f) == F.zero
    assert (f - f).den.is_one()
    # g = gcd(b, d) = T and t = (T+2) + (T+1) = 2T, so h = gcd(t, g) = T
    s = r("1", "T^2+T") + r("1", "T^2+2*T")
    assert s == r("2", "T^2+2") and s.num.degree == 0
    # a non-monic divisor: 1/(2T) is 2/T
    q = F.one / r("2*T")
    assert (q.num, q.den) == (poly_parse("2", fq), poly_parse("T", fq))
    assert_canonical(q)
    with pytest.raises(ZeroDivisionError):
        f / F.zero


# -- gcds in F_q(T)[x]: the A[x] route against the generic Euclid -----------

# prime fields on the index kernel and F_4, F_8, F_9 on the Poly kernel
GCD_FIELDS = (2, 3, 4, 5, 7, 8, 9)
# how the coefficients of a random x-polynomial are drawn (``rand_x_poly``)
LEADS = ("frac", "unit", "poly")


def rand_a(rng, fq, deg):
    """An element of A = F_q[T] of degree at most deg, zero now and then."""
    return Poly(fq, "T", [fq.from_index(rng.randrange(fq.q))
                          for _ in range(deg + 1)])


def rand_coeff(rng, F):
    """An element of F = F_q(T): zero now and then, and often with a
    T-denominator."""
    fq = F.cring
    den = rand_a(rng, fq, rng.randrange(3))
    return RatFun.make(F, rand_a(rng, fq, rng.randrange(-1, 4)),
                       den if den.coeffs else F.one.num)


def rand_x_poly(rng, F, deg, lead="frac"):
    """A polynomial in x over F of degree at most deg (zero for deg -1).
    Its coefficients are fractions ("frac"), or elements of A led by a
    nonzero constant ("unit") or by a polynomial of positive degree
    ("poly"), so that cleared of denominators it is led by a unit or by a
    non-unit of A."""
    if lead == "frac" or deg < 0:
        return Poly(F, "x", [rand_coeff(rng, F) for _ in range(deg + 1)])
    fq = F.cring
    top = Poly(fq, "T", [fq.from_index(rng.randrange(1, fq.q))])
    if lead == "poly":
        top = top * Poly(fq, "T", [fq.from_index(rng.randrange(fq.q)),
                                   fq.one])
    return Poly(F, "x", [F.coerce(rand_a(rng, fq, rng.randrange(-1, 3)))
                         for _ in range(deg)] + [F.coerce(top)])


@st.composite
def fx_gcd_pairs(draw):
    """(F, a, b) over F = F_q(T), of x-degree up to 6: each operand zero,
    constant or not, with T-denominators or led by a unit or a non-unit of
    A, and half the time both times one planted common factor of degree
    1-3 (otherwise they are coprime but for chance)."""
    F = base_field(Fq.get(draw(st.sampled_from(GCD_FIELDS))))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    planted = draw(st.integers(1, 3)) if draw(st.booleans()) else 0
    a, b = (rand_x_poly(rng, F, draw(st.integers(-1, 6 - planted)),
                        draw(st.sampled_from(LEADS)))
            for _ in range(2))
    if planted:
        c = rand_x_poly(rng, F, planted, draw(st.sampled_from(LEADS)))
        a, b = a * c, b * c
    return F, a, b


@given(fx_gcd_pairs())
@settings(max_examples=150, deadline=None)
def test_ax_gcd_matches_generic(case):
    F, a, b = case
    assert F.poly_gcd is _gcd_ax
    for x, y in ((a, b), (b, a), (a, a)):
        got = x.gcd(y)
        assert got == _gcd_generic(x, y)
        assert got.is_zero() or got.is_monic()


def test_ax_gcd_edge_cases():
    fq = Fq.get(3)
    F = base_field(fq)
    t = F.gen()

    def xp(*cs):
        return Poly(F, "x", list(cs))

    zero, one = xp(), xp(F.one)
    f = xp(t / (t + F.one), F.one / t, t * t)  # T-denominators on both sides
    for x, y in ((zero, zero), (zero, f), (f, zero), (one, f), (f, one),
                 (xp(t), f), (f, f), (f * f, f)):
        assert x.gcd(y) == _gcd_generic(x, y), (x, y)
    assert f.gcd(zero) == f.monic() and zero.gcd(zero).is_zero()
    assert xp(t / (t + F.one)).gcd(f).is_one()
    # the content of the cleared operand is a power of T, removed first
    g = xp(t * t, t ** 3 / (t + F.one))
    a, b = g * f, g * xp(F.one, t)
    assert a.gcd(b) == _gcd_generic(a, b) == g.monic()


def test_gcd_route_is_chosen_by_the_coefficient_field():
    # every F_q(T) takes the A[x] route, on either kernel; F(x), whose
    # coefficients are no F_q, keeps Euclid
    for q in (2, 3, 4, 5, 7, 9, 251, 257):
        assert base_field(Fq.get(q)).poly_gcd is _gcd_ax
    for q in (3, 4):
        assert x_field(Fq.get(q)).poly_gcd is None
    F = base_field(Fq.get(5))
    calls = []

    def spy(a, b):
        calls.append((a, b))
        return _gcd_ax(a, b)

    a = Poly(F, "x", [F.gen(), F.one])
    with mock.patch.object(F, "poly_gcd", spy):
        assert a.gcd(a) == a
    assert calls == [(a, a)]


def rand_ax(rng, k, fq, deg):
    """A nonzero element of A[x] of x-degree deg on k's values, each the
    view of a Poly over fq, so shared with it."""
    cs = [rand_a(rng, fq, rng.randrange(-1, 3)) for _ in range(deg)]
    top = rand_a(rng, fq, rng.randrange(3))
    while not top.coeffs:
        top = rand_a(rng, fq, rng.randrange(3))
    return [k.view(c) for c in cs + [top]]


def frozen(v):
    """A copy of an A[x]-value down to its A-values' index lists."""
    return [list(c) if isinstance(c, list) else c for c in v]


@pytest.mark.parametrize("q", (3, 4))
def test_ax_operations_write_to_no_input(q):
    # a kernel value may be shared with a Poly, so nothing writes to one:
    # A[x] add, sub and neg, _prem, _primitive and _exact_quo on the index
    # kernel (F_3(T)) and the Poly kernel (F_4(T)) leave their inputs as
    # they were
    fq = Fq.get(q)
    k = base_field(fq).kernel
    rng = random.Random(q)
    for _ in range(30):
        f = rand_ax(rng, k, fq, rng.randrange(1, 5))
        g = rand_ax(rng, k, fq, rng.randrange(1, len(f)))
        h = k.x.mul(f, g)
        inputs = [f, g, h]
        before = [frozen(v) for v in inputs]
        k.x.add(f, g), k.x.sub(f, g), k.x.sub(g, f), k.x.neg(f)
        _prem(k, f, g), _prem(k, h, f)
        _primitive(k, f), _primitive(k, h)
        assert _exact_quo(k, h, g) == f
        assert [frozen(v) for v in inputs] == before
        # a remainder in A[x] (deg g >= 1 does not divide 1), and one in A
        # (T does not divide 1): both name the division in A[x]
        with pytest.raises(InvariantError, match=r"not divisible .* A\[x\]"):
            _exact_quo(k, k.x.add(h, [k.one]), g)
    t = k.view(Poly(fq, "T", [fq.zero, fq.one]))
    with pytest.raises(InvariantError, match=r"not divisible .* A\[x\]"):
        _exact_quo(k, [k.one], [t])


def generic_gcds(F):
    """Switch F's polynomials over to the generic gcd."""
    return mock.patch.object(F, "poly_gcd", None)


@given(nested_pairs(GCD_FIELDS))
@settings(max_examples=40, deadline=None)
def test_nested_field_arithmetic_matches_the_generic_gcd(pair):
    # RatFun *, / and make over F(x) give the bytes the generic route gave
    f, g = pair
    F = f.field.cring
    ops = [operator.mul, lambda x, y: RatFun.make(x.field, x.num * y.den
                                                  + y.num, x.den * y.den)]
    if not g.is_zero():
        ops.append(operator.truediv)
    got = [op(f, g) for op in ops]
    with generic_gcds(F):
        want = [op(f, g) for op in ops]
    for x, y in zip(got, want):
        assert (str(x), x.num, x.den) == (str(y), y.num, y.den)


# -- the F_p(T) index kernel against the Poly kernel, through the one rule ---

KERNEL_PRIMES = (2, 3, 5, 7)


def poly_kernel(F):
    """A Poly kernel for F's elements, whatever F's own kernel is."""
    return _poly_kernel(F.zero.num, F.one.num)


def on_polys(F, rule, *polys):
    """The RatFun that ``rule`` gives on the Poly kernel for Poly operands."""
    k = poly_kernel(F)
    return k.box(F, rule(k, *polys))


def quotient_on_polys(x, y):
    """x/y as (x.num/x.den)(y.den/y.num) on the Poly kernel."""
    pair = poly_kernel(x.field).monic(y.den, y.num)
    return on_polys(x.field, _product, x.num, x.den, *pair)


def same(x, y):
    """Equal values, built alike: canonical parts, index views that match
    the coefficients, and the field's own denominator 1."""
    assert (x.num, x.den) == (y.num, y.den)
    for part in (x.num, x.den):
        assert part._ix == [c.i for c in part.coeffs]
    if x.den.is_one():
        assert x.den is x.field.one.den


@st.composite
def kernel_cases(draw):
    """Two canonical elements of F_p(T) and a raw (num, den) pair: zero,
    constants and non-monic values among them, and factors shared through
    one small pool so that every cancellation of the rule happens."""
    fq = Fq.get(draw(st.sampled_from(KERNEL_PRIMES)))
    coeff = st.integers(0, fq.q - 1).map(fq.from_index)
    nonzero = st.integers(1, fq.q - 1).map(fq.from_index)
    polys = draw(factor_products(fq, coeff, nonzero, 2, 6))
    F = base_field(fq)
    raw = (polys[4], polys[5] if polys[5].coeffs else F.one.num)
    return F, fraction_pair(F, polys[:4]), raw


@given(kernel_cases())
@settings(max_examples=300)
def test_pair_kernel_matches_the_poly_rule(case):
    F, (f, g), (num, den) = case
    a, b, c, d = f.num, f.den, g.num, g.den
    same(f + g, on_polys(F, _sum, a, b, c, d))
    same(f - g, on_polys(F, _sum, a, b, -c, d))
    same(f * g, on_polys(F, _product, a, b, c, d))
    if not g.is_zero():
        same(f / g, quotient_on_polys(f, g))
        same(f / g, RatFun.make(F, a * d, b * c))
    if not num.is_zero():
        same(RatFun.make(F, num, den), on_polys(F, _reduced, num, den))


def test_pair_kernel_edge_cases():
    fq = Fq.get(5)
    F = base_field(fq)

    def r(num, den="1"):
        return on_polys(F, _reduced, poly_parse(num, fq), poly_parse(den, fq))

    f, g = r("3*T^2+2", "T+4"), r("2*T+3", "T^2+1")
    for x, y in ((f, F.zero), (F.zero, f), (F.zero, F.zero), (f, r("3")),
                 (r("2"), r("4")), (f, f), (f, -f), (g, f), (f, g)):
        for op in (operator.add, operator.sub, operator.mul):
            assert op(x, y) == reduced_by_hand(F, *textbook(op, x, y))
        if not y.is_zero():
            same(x / y, quotient_on_polys(x, y))
    # division by a non-monic constant and by a non-monic polynomial
    same(f / r("3"), r("T^2+4", "T+4"))
    same(F.one / r("2*T+4"), r("3", "T+2"))
    # a sum cancelling to zero, and one whose shared factor T+1 of the
    # denominators also divides t = (T+2) + T, so h = T+1
    assert (f - f) is F.zero
    same(r("1", "T^2+T") + r("1", "T^2+3*T+2"), r("2", "T^2+2*T"))
    same(r("T", "T+1") + r("1", "T+1"), F.one)
    # make: a planted common factor, a non-monic denominator, a zero
    same(RatFun.make(F, poly_parse("2*T^2+2*T", fq), poly_parse("3*T+3", fq)),
         r("4*T"))
    assert RatFun.make(F, Poly(fq, "T", []), poly_parse("2", fq)) is F.zero
    with pytest.raises(ZeroDivisionError):
        RatFun.make(F, poly_parse("T", fq), Poly(fq, "T", []))


def test_pair_kernel_route_is_chosen_by_the_coefficient_field():
    # F_p(T) reads each Poly's index view and runs the _fp_* functions on
    # it with p bound; F_{p^m}(T), F over the uninterned F_257 and F(x)
    # hold Polys.  Each field builds its own kernel
    a, b = [1, 2, 1], [2, 0, 1]
    for q in (2, 3, 5, 7, 251):
        F = base_field(Fq.get(q))
        k = F.kernel
        assert (k.zero, k.one) == ([], [1])
        assert k.mul(a, b) == _fp_mul(a, b, q)
        assert k.gcd(a, b) == _fp_gcd(a, b, q)
        t = F.gen().num
        assert k.view(t) is t._ix
    for F in (base_field(Fq.get(4)), base_field(Fq.get(257)),
              x_field(Fq.get(3))):
        k = F.kernel
        t = F.gen().num
        assert k.view(t) is t and (k.zero, k.one) == (F.zero.num, F.one.num)
    assert base_field(Fq.get(3)).kernel is not FracField(Fq.get(3),
                                                         "T").kernel


def test_a_broken_cancellation_is_an_invariant_error(monkeypatch):
    # the rule's divisions are exact by construction: a remainder is a bug
    # in the kernel, not bad input, so it is no ValueError
    fq = Fq.get(3)
    F = base_field(fq)
    f = F.coerce(poly_parse("T^2+1", fq))
    g = F.one / F.coerce(poly_parse("T^2+2", fq))
    monkeypatch.setattr(F.kernel, "gcd", lambda a, b: [1, 1])
    with pytest.raises(InvariantError,
                       match="F_p.T. cancellation left a remainder"):
        f * g


@pytest.mark.parametrize("q", (3, 4))
def test_kernel_quo_of_a_non_divisor_is_an_invariant_error(q):
    # both kernels: the index kernel over F_3(T), the Poly kernel over
    # F_4(T); an exact division that leaves a remainder is no usage error
    fq = Fq.get(q)
    k = base_field(fq).kernel
    a, g = poly_parse("T^2+T+1", fq), poly_parse("T+1", fq)
    assert not (a % g).is_zero()
    with pytest.raises(InvariantError, match="cancellation left a remainder"):
        k.quo(k.view(a), k.view(g))
    assert k.quo(k.view(a * g), k.view(g)) == k.view(a)
