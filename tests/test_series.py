import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from carlitz import series as series_module
from carlitz.cmod import carlitz_exp, carlitz_log
from carlitz.coleman import cyclotomic_unit_series, x_field
from carlitz.cw import dlog_exp_series
from carlitz.errors import PrecisionError
from carlitz.fq import Fq, FqElem
from carlitz.poly import Poly, poly_parse
from carlitz.ratfun import FracField, RatFun, base_field
from carlitz.series import TruncSeries


def rand_series(rng, fq, order, n, prec):
    return TruncSeries(fq, "z", order,
                       [FqElem(fq, rng.randrange(fq.q)) for _ in range(n)], prec)


def test_normalization():
    f3 = Fq.get(3)
    s = TruncSeries(f3, "z", 2, [f3.zero, f3.one, f3.zero], None)
    assert s.order == 3 and len(s.coeffs) == 1
    z = TruncSeries(f3, "z", 5, [f3.zero], 9)
    assert z.is_zero() and z.prec == 9


def test_coefficient_beyond_precision_raises():
    f2 = Fq.get(2)
    s = TruncSeries(f2, "z", 0, [f2.one], 4)
    assert s.coefficient(3) == f2.zero
    with pytest.raises(PrecisionError) as ei:
        s.coefficient(4)
    assert ei.value.needed == 5
    exact = TruncSeries(f2, "z", 0, [f2.one], None)
    assert exact.coefficient(100) == f2.zero  # exact data answers everything


def test_mul_precision_rule():
    f3 = Fq.get(3)
    # prec(fg) = min(ord f + prec g, ord g + prec f)
    f = TruncSeries(f3, "z", 2, [f3.one, f3.one], 7)
    g = TruncSeries(f3, "z", 1, [f3.one], 5)
    assert (f * g).prec == min(2 + 5, 1 + 7)
    assert (f * g).order == 3


def test_invert_precision_and_laurent():
    f3 = Fq.get(3)
    s = TruncSeries(f3, "z", 2, [f3.one, f3.from_int(2), f3.one], 8)
    inv = s.invert()
    assert inv.order == -2
    assert inv.prec == 8 - 2 * 2
    prod = s * inv
    one = TruncSeries.one(f3, "z")
    assert prod.agrees_with(one)


def test_invert_exact_polynomial_must_truncate_first():
    f2 = Fq.get(2)
    s = TruncSeries(f2, "z", 0, [f2.one, f2.one], None)  # 1 + z exactly
    with pytest.raises(ValueError):
        s.invert()
    assert s.truncate(6).invert().prec == 6
    # pure monomials invert exactly
    m = TruncSeries.monomial(f2, "z", 1, 3, None)
    assert m.invert().order == -3 and m.invert().prec is None


def test_compose_matches_polynomial_substitution():
    rng = random.Random(21)
    f3 = Fq.get(3)
    for _ in range(15):
        outer_poly = Poly(f3, "z", [FqElem(f3, rng.randrange(3)) for _ in range(5)])
        inner_poly = Poly(f3, "z", [f3.zero, FqElem(f3, rng.randrange(1, 3))]
                          + [FqElem(f3, rng.randrange(3)) for _ in range(2)])
        prec = 9
        outer = TruncSeries.from_poly(outer_poly, prec)
        inner = TruncSeries.from_poly(inner_poly, prec)
        direct = TruncSeries.from_poly(outer_poly.compose(inner_poly), None).truncate(prec)
        assert outer.compose(inner).agrees_with(direct)


def test_compose_precision_capped_by_inner_order():
    f2 = Fq.get(2)
    outer = TruncSeries(f2, "z", 0, [f2.one] * 4, 4)
    inner = TruncSeries(f2, "z", 2, [f2.one], None)  # z^2 exact
    out = outer.compose(inner)
    assert out.prec == 2 * 4


def test_compose_requires_positive_inner_order():
    f2 = Fq.get(2)
    outer = TruncSeries(f2, "z", 0, [f2.one], 4)
    bad = TruncSeries(f2, "z", 0, [f2.one], 4)
    with pytest.raises(ValueError):
        outer.compose(bad)


def test_laurent_compose_inverts_through_negative_powers():
    f3 = Fq.get(3)
    # f = z^-1 + 1, g = z + z^2: f(g) = 1/(z+z^2) + 1
    f = TruncSeries(f3, "z", -1, [f3.one, f3.one], 5)
    g = TruncSeries(f3, "z", 1, [f3.one, f3.one], 6)
    got = f.compose(g)
    direct = g.invert() + TruncSeries.one(f3, "z", 5)
    assert got.agrees_with(direct, upto=min(got.prec, direct.prec))


def test_laurent_compose_of_a_zero_skips_the_inverse(monkeypatch):
    # O(z^-j)(g) is the zero known through ord(g) * -j: what the slow route
    # f(g) = (z^j f)(g) * g^-j gives by the product rule, with no inverse
    f3 = Fq.get(3)
    g = TruncSeries(f3, "z", 2, [f3.one, f3.zero, f3.from_int(2)], 8)
    slow = {j: (TruncSeries.zero(f3, "z", 0).compose(g) * g.invert() ** j)
            .truncate(-2 * j) for j in (1, 2, 3)}
    calls = []

    def invert(self, real=TruncSeries.invert):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(TruncSeries, "invert", invert)
    for j, want in slow.items():
        got = TruncSeries.zero(f3, "z", -j).compose(g)
        assert (got.order, got.coeffs, got.prec) == \
            (want.order, want.coeffs, want.prec) == (-2 * j, (), -2 * j)
    # over F_3(T)(x): a 4-term inner series of order 2 and precision 8
    F = x_field(f3)
    x = F.gen()
    t = F.coerce(Poly.const(F.cring, "x", F.cring.gen()))
    h = TruncSeries(F, "z", 2, [x, t + F.one, x / (x + t), t * x], 8)
    got = TruncSeries.zero(F, "z", -2).compose(h)
    assert got == TruncSeries.zero(F, "z", -4)
    assert calls == []
    # an exact inner series is refused first, as before
    with pytest.raises(ValueError, match="truncate the inner series"):
        TruncSeries.zero(f3, "z", -1).compose(TruncSeries.monomial(
            f3, "z", f3.one, 1))


def test_derivative_and_shift():
    f5 = Fq.get(5)
    s = TruncSeries(f5, "z", -2, [f5.from_int(3), f5.zero, f5.from_int(1)], 4)
    d = s.derivative()
    assert d.coefficient(-3) == f5.from_int(-6 % 5)
    assert d.prec == 3
    sh = s.shift(4)
    assert sh.order == 2 and sh.prec == 8


def test_scale_argument():
    f5 = Fq.get(5)
    s = TruncSeries(f5, "z", 0, [f5.one, f5.one, f5.one], 5)
    t = s.scale_argument(f5.from_int(2))
    assert t.coefficient(2) == f5.from_int(4)


def test_add_alignment_and_cancellation():
    f2 = Fq.get(2)
    a = TruncSeries(f2, "z", 0, [f2.one, f2.one], 6)
    b = TruncSeries(f2, "z", 0, [f2.one], 8)
    c = a + b  # constant terms cancel in char 2
    assert c.order == 1 and c.prec == 6


# -- the precision rules of the module docstring, against exact Poly work ----

PRECISION = settings(max_examples=60)


@st.composite
def series(draw, fq, orders=(-3, 4), unit=False, exact=True):
    """A series over fq: order in ``orders``, up to six stored coefficients
    (the first nonzero when ``unit``), and a precision 0-4 past the last
    stored one, or None (exact) when ``exact`` allows it."""
    digit = st.integers(0, fq.q - 1).map(fq.from_index)
    order = draw(st.integers(*orders))
    coeffs = draw(st.lists(digit, max_size=6))
    if unit:
        coeffs = [draw(digit.filter(lambda c: c != fq.zero))] + coeffs
    slack = draw(st.integers(0, 4) | st.none()) if exact \
        else draw(st.integers(0, 4))
    prec = None if slack is None else order + len(coeffs) + slack
    return TruncSeries(fq, "z", order, coeffs, prec)


def in_one_field(*specs):
    """One series per keyword dict in specs, all over F_2 or all over F_3."""
    return st.sampled_from((2, 3)).map(Fq.get).flatmap(
        lambda fq: st.tuples(*(series(fq, **spec) for spec in specs)))


def rep(s):
    """s's stored coefficients as a polynomial, read from z^order on."""
    return Poly(s.ring, "z", s.coeffs)


def agrees_below(got, order, poly, top):
    """got's coefficients equal those of z^order poly below top, from the
    lower of the two orders on."""
    return all(got.coefficient(n) == poly.coeff(n - order)
               for n in range(min(got.order, order), top))


@PRECISION
@given(in_one_field({}, {}))
def test_mul_knows_exactly_its_declared_precision(pair):
    f, g = pair
    got = f * g
    if (f.prec is None and not f.coeffs) or (g.prec is None and not g.coeffs):
        assert got.prec is None and got.is_zero()
        return
    bounds = [o + p for o, p in ((f.order, g.prec), (g.order, f.prec))
              if p is not None]
    assert got.prec == (min(bounds) if bounds else None)
    exact = rep(f) * rep(g)
    top = got.prec if bounds else f.order + g.order + len(exact.coeffs)
    assert agrees_below(got, f.order + g.order, exact, top)


@PRECISION
@given(in_one_field({"unit": True, "exact": False}))
def test_inverse_knows_exactly_its_declared_precision(single):
    (f,) = single
    got = f ** -1
    assert got.prec == f.prec - 2 * f.order and got.order == -f.order
    # f = z^v U and got = z^-v W: W U = 1 mod z^(prec f - v)
    rel = f.prec - f.order
    product = rep(got) * rep(f)
    assert [product.coeff(n) for n in range(rel)] == \
        [f.ring.one] + [f.ring.zero] * (rel - 1)


@PRECISION
@given(in_one_field({"orders": (0, 3)}, {"orders": (1, 3), "unit": True}))
def test_compose_knows_exactly_its_declared_precision(pair):
    f, g = pair
    got = f.compose(g)
    if f.prec is not None:
        assert got.prec is not None and got.prec <= g.order * f.prec
    elif g.prec is None:
        assert got.prec is None
    exact = rep(f).shift(f.order).compose(rep(g).shift(g.order))
    top = got.prec if got.prec is not None else len(exact.coeffs)
    assert agrees_below(got, 0, exact, top)


# -- fraction fields: the kernel loops against the generic ones --------------

KERNEL_FIELDS = [base_field(Fq.get(q)) for q in (2, 3, 5, 7, 4, 9)] + [
    x_field(Fq.get(3))]


def generic_loops():
    """Run every series product, inverse and composition on RatFun
    coefficients."""
    return mock.patch.object(series_module, "_on_kernel", lambda ring: False)


def small_elements(ring, terms=3):
    """F_q digits, or fractions of polynomials with up to ``terms`` small
    coefficients over a fraction field (zero now and then); over F(x) the
    coefficients of those are fractions with up to two terms, and so are
    the x-polynomials, since nested fractions grow fast under ``compose``."""
    if isinstance(ring, Fq):
        return st.integers(0, ring.q - 1).map(ring.from_index)
    if isinstance(ring.cring, FracField):
        terms = 2
    small = st.lists(small_elements(ring.cring, 2), min_size=1,
                     max_size=terms).map(
        lambda cs: Poly(ring.cring, ring.var, cs))
    return st.tuples(small, small.filter(lambda p: p.coeffs)).map(
        lambda nd: RatFun.make(ring, *nd))


@st.composite
def fraction_series(draw, F, orders=(-3, 4), unit=False, exact=True):
    """A series over the fraction field F as ``series`` draws one, its
    coefficients small fractions with shared factors."""
    coeff = small_elements(F)
    order = draw(st.integers(*orders))
    coeffs = draw(st.lists(coeff, max_size=6))
    if unit:
        coeffs = [draw(coeff.filter(bool))] + coeffs
    slack = draw(st.integers(0, 4) | st.none()) if exact \
        else draw(st.integers(0, 4))
    prec = None if slack is None else order + len(coeffs) + slack
    return TruncSeries(F, "z", order, coeffs, prec)


def over_one_fraction_field(*specs):
    return st.sampled_from(KERNEL_FIELDS).flatmap(
        lambda F: st.tuples(*(fraction_series(F, **spec) for spec in specs)))


def same_series(got, want):
    assert (got.order, got.prec, got.coeffs) == \
        (want.order, want.prec, want.coeffs)
    # canonical coefficients, a zero with the denominator 1
    assert all(c.den.is_monic() and (c.num.coeffs or c.den.is_one())
               for c in got.coeffs)


@settings(max_examples=100, deadline=None)
@given(over_one_fraction_field({}, {}))
def test_pair_mul_matches_the_generic_loop(pair):
    f, g = pair
    got = f * g
    with generic_loops():
        want = f * g
    same_series(got, want)


@settings(max_examples=100, deadline=None)
@given(over_one_fraction_field({"unit": True, "exact": False}))
def test_pair_inverse_matches_the_generic_loop(single):
    (f,) = single
    got = f.invert()
    with generic_loops():
        want = f.invert()
    same_series(got, want)


@settings(max_examples=60, deadline=None)
@given(over_one_fraction_field({"orders": (-2, 3)},
                               {"orders": (1, 3), "unit": True}))
def test_pair_compose_matches_the_generic_loop(pair):
    f, g = pair
    if f.order < 0 and g.prec is None:
        g = g.truncate(g.order + len(g.coeffs) + 2)
    got = f.compose(g)
    with generic_loops():
        want = f.compose(g)
    same_series(got, want)


def test_pair_loops_route(monkeypatch):
    # every fraction field takes the kernel loops; F_3 keeps the generic ones
    calls = []
    for name in ("_pair_convolve", "_pair_quotient", "_pair_compose"):
        def spy(*args, real=getattr(series_module, name)):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(series_module, name, spy)
    f3 = Fq.get(3)
    for ring, paired in [(F, True) for F in KERNEL_FIELDS] + [(f3, False)]:
        calls.clear()
        s = TruncSeries(ring, "z", 0, [ring.one, ring.one, ring.one], 5)
        s * s
        s.invert()
        s.compose(s.shift(1))
        assert len(calls) == (3 if paired else 0), ring


# -- a / u: one recurrence, against a * u.invert() ---------------------------

QUOTIENT_RINGS = [base_field(Fq.get(q)) for q in (2, 3, 4, 9)] + [
    Fq.get(q) for q in (2, 3, 4, 9)]


@st.composite
def divisor(draw, ring):
    """A truncated series with a unit lead, or an exact monomial."""
    if draw(st.booleans()):
        return draw(fraction_series(ring, unit=True, exact=False))
    c = draw(small_elements(ring).filter(bool))
    return TruncSeries.monomial(ring, "z", c, draw(st.integers(-3, 4)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(QUOTIENT_RINGS).flatmap(
    lambda R: st.tuples(fraction_series(R), divisor(R))))
def test_quotient_matches_the_product_with_the_inverse(pair):
    # exact, truncated and Laurent numerators; truncated and monomial
    # divisors; F_q(T) on both kernels and F_q on the generic loop
    a, u = pair
    got, want = a / u, a * u.invert()
    assert (got.order, got.prec, got.coeffs) == \
        (want.order, want.prec, want.coeffs)


@pytest.mark.parametrize("ring", [base_field(Fq.get(3)), base_field(
    Fq.get(4)), x_field(Fq.get(2)), Fq.get(3)], ids=repr)
def test_quotient_raises_as_the_inverse_does(ring):
    no_terms = (TruncSeries.zero(ring, "z", 4), TruncSeries.zero(ring, "z"))
    not_monomial = TruncSeries(ring, "z", 1, [ring.one, ring.one], None)
    for a in (TruncSeries(ring, "z", 0, [ring.one, ring.one], 6),
              TruncSeries.zero(ring, "z")):
        for u, exc in [(u, ZeroDivisionError) for u in no_terms] + [
                (not_monomial, ValueError)]:
            with pytest.raises(exc):
                a / u
            with pytest.raises(exc):
                a * u.invert()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS).flatmap(
    lambda F: st.tuples(fraction_series(F), divisor(F))))
def test_pair_quotient_matches_the_generic_loop(pair):
    a, u = pair
    got = a / u
    with generic_loops():
        want = a / u
    same_series(got, want)


# -- nested denominators: chains D_i | D_(i+1), as in e(z), log z and dlog ---

NESTED_QS = (2, 3, 4, 5, 7)


def nested_prec(q):
    """A precision that reaches z^(q^2), the third term of e(z)."""
    return max(24, q * q + 3)


@pytest.mark.parametrize("q", NESTED_QS)
def test_exp_and_log_series_match_the_generic_loops(q):
    fq = Fq.get(q)
    P = nested_prec(q)
    e, lam = carlitz_exp(fq, P), carlitz_log(fq, P)
    got = (e.invert(), e.compose(lam))
    with generic_loops():
        want = (e.invert(), e.compose(lam))
    for g, w in zip(got, want):
        same_series(g, w)
    assert got[1].coeffs == (e.ring.one,) and got[1].order == 1


@pytest.mark.parametrize("q", NESTED_QS)
def test_dlog_exp_series_matches_the_generic_loops(q):
    fq = Fq.get(q)
    t = Poly.gen(fq, "T")
    u = cyclotomic_unit_series(t, Poly.const(fq, "T", 1))
    k = nested_prec(q)
    got = dlog_exp_series(u, k)
    with generic_loops():
        want = dlog_exp_series(u, k)
    same_series(got, want)


def monic_polys(ring, var, degrees=(1, 2)):
    """Monic polynomials over ring of the given degrees, small coefficients."""
    return st.integers(*degrees).flatmap(lambda d: st.lists(
        small_elements(ring, 2), min_size=d, max_size=d)).map(
        lambda cs: Poly(ring, var, [*cs, ring.one]))


@st.composite
def chain_series_pair(draw):
    """Two series over one kernel field, the second of order 1-2 with a
    unit lead, whose coefficient denominators are drawn from one chain
    d | de | def and one factor c coprime to def, so that the running
    denominator both divides and takes lcms."""
    F = draw(st.sampled_from(KERNEL_FIELDS))
    monic = monic_polys(F.cring, F.var)
    d, e, f = draw(monic), draw(monic), draw(monic)
    c = draw(monic.filter(lambda c: c.gcd(d * e * f).is_one()))
    den = st.sampled_from((F.one.num, d, d * e, d * e * f, c))
    num = st.lists(small_elements(F.cring, 2), min_size=1, max_size=3).map(
        lambda cs: Poly(F.cring, F.var, cs))
    coeff = st.tuples(num, den).map(lambda nd: RatFun.make(F, *nd))

    def one_series(orders, unit):
        coeffs = draw(st.lists(coeff, min_size=1, max_size=5))
        if unit:
            coeffs[0] = draw(coeff.filter(bool))
        order = draw(st.integers(*orders))
        prec = order + len(coeffs) + draw(st.integers(0, 2))
        return TruncSeries(F, "z", order, coeffs, prec)

    return one_series((0, 3), False), one_series((1, 2), True)


@settings(max_examples=30, deadline=None)
@given(chain_series_pair())
def test_chained_denominators_match_the_generic_loops(pair):
    f, g = pair
    ops = (lambda: f * f, lambda: f * g, lambda: g.invert(),
           lambda: f.compose(g))
    got = [op() for op in ops]
    with generic_loops():
        want = [op() for op in ops]
    for x, y in zip(got, want):
        same_series(x, y)


def test_running_denominator_divides_and_takes_lcms(monkeypatch):
    # over the index kernel (F_3(T)) and the Poly kernel (F_4(T)): a sum
    # whose denominators are T, T^2 and T + 1 goes through the divides
    # branch (T | T^2) and the lcm branch (T^2 and T + 1)
    for q in (3, 4):
        F = base_field(Fq.get(q))
        k = F.kernel
        remainders = []

        def divmod_spy(a, b, real=k.divmod):
            quo, rem = real(a, b)
            remainders.append(bool(k.size(rem)))
            return quo, rem

        monkeypatch.setattr(k, "divmod", divmod_spy)
        t = F.gen()
        f = TruncSeries(F, "z", 0, [F.one, F.one / t, F.one / (t * t),
                                    F.one / (t + F.one)], 6)
        got = f * f
        with generic_loops():
            want = f * f
        same_series(got, want)
        assert False in remainders and True in remainders, q


def test_series_invert_reduces_each_coefficient_once(monkeypatch):
    # one gcd per output coefficient at most: Henrici's rule on every term
    # took 552 here
    F = base_field(Fq.get(3))
    real = F.kernel.gcd
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(F.kernel, "gcd", counted)
    rel = 160 - 1
    inv = carlitz_exp(Fq.get(3), 160).invert()
    assert inv.prec - inv.order == rel
    assert 0 < len(calls) <= rel
