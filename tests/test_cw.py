import math
import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from carlitz import cw
from carlitz.cli import main
from carlitz.cmod import bernoulli_carlitz
from carlitz.coleman import (
    ColemanSeries, _fq_of, _x_order, cyclotomic_unit_series, star_action,
    x_field,
)
from carlitz.cw import (
    CWReport, CWRow, _exp_in_x, coates_wiles, cw_verify, dlog,
    dlog_exp_series, ht_derivative, lucas_binom,
)
from carlitz.fq import Fq, FqElem
from carlitz.poly import Poly, poly_parse
from carlitz.ratfun import RatFun, base_field
from carlitz.series import TruncSeries


def test_lucas_binom_matches_comb():
    for p in (2, 3, 5):
        for n in range(0, 26):
            for k in range(0, 26):
                assert lucas_binom(n, k, p) == math.comb(n, k) % p


def test_lucas_binom_negative_upper_index():
    for p in (2, 3):
        for n in range(-12, 0):
            for k in range(0, 12):
                expect = (-1) ** k * math.comb(k - n - 1, k)
                assert lucas_binom(n, k, p) == expect % p
    assert lucas_binom(5, -1, 3) == 0


def test_divided_derivatives_compose():
    rng = random.Random(31)
    f3 = Fq.get(3)
    for _ in range(6):
        coeffs = [FqElem(f3, rng.randrange(3)) for _ in range(12)]
        f = TruncSeries(f3, "x", rng.randrange(-2, 3), coeffs, None)
        f = TruncSeries(f3, "x", f.order, f.coeffs, f.order + 12)
        for i in range(4):
            for j in range(4):
                lhs = ht_derivative(i, ht_derivative(j, f))
                rhs = ht_derivative(i + j, f).mul_scalar(
                    FqElem(f3, lucas_binom(i + j, i, 3)))
                assert lhs.agrees_with(rhs)


def test_divided_derivative_reconstruction():
    rng = random.Random(90)
    f2 = Fq.get(2)
    for _ in range(10):
        coeffs = [FqElem(f2, rng.randrange(2)) for _ in range(9)]
        f = TruncSeries(f2, "x", 0, coeffs, 9)
        rebuilt = TruncSeries(f2, "x", 0, [], 9)
        for j in range(9):
            c = ht_derivative(j, f).coefficient(0)
            rebuilt = rebuilt + TruncSeries.monomial(f2, "x", c, j, 9)
        assert rebuilt.agrees_with(f)


def test_dlog_is_additive_on_products():
    f3 = Fq.get(3)
    a = cyclotomic_unit_series(poly_parse("T", f3), poly_parse("1", f3))
    b = cyclotomic_unit_series(poly_parse("T+1", f3), poly_parse("2", f3))
    assert dlog((a * b).value) == dlog(a.value) + dlog(b.value)
    # and for truncated series
    ta = TruncSeries.from_poly(a.value.num).truncate(7)
    tb = TruncSeries.from_poly(b.value.num).truncate(7)
    assert dlog(ta * tb).agrees_with(dlog(ta) + dlog(tb))


def test_dlog_of_zero_raises():
    f2 = Fq.get(2)
    with pytest.raises(ZeroDivisionError):
        dlog(Poly(f2, "x", []))


def test_delta1_spot_value():
    f2 = Fq.get(2)
    rep = cw_verify(poly_parse("T", f2), poly_parse("1", f2), 4)
    assert rep.passed
    assert str(rep.rows[0].lhs) == "1/T"


def test_identity_rows_carry_both_sides():
    f3 = Fq.get(3)
    F = base_field(f3)
    a, b = poly_parse("T", f3), poly_parse("T+1", f3)
    rep = cw_verify(a, b, 6)
    assert rep.passed
    for row in rep.rows:
        bc = bernoulli_carlitz(row.k, f3)
        expect = (F.coerce(a) ** row.k - F.coerce(b) ** row.k) * bc.value \
            / F.coerce(bc.factorial)
        assert row.rhs == expect
        assert row.lhs == expect
        if row.k % 2 == 1:
            assert row.lhs.is_zero()  # odd k < q-1 multiples vanish at q=3


def test_coates_wiles_matches_series_coefficient():
    f2 = Fq.get(2)
    u = cyclotomic_unit_series(poly_parse("T^2+T+1", f2), poly_parse("1", f2))
    ser = dlog_exp_series(u, 7)
    for k in range(1, 6):
        assert coates_wiles(k, u) == ser.coefficient(k - 1)


def test_coates_wiles_reads_an_x_polynomial_as_a_coleman_series():
    # a polynomial in x over F_q is lifted into F(x), as ColemanSeries
    # lifts it, rather than mixed with the exponential over F
    for q in (2, 3):
        fq = Fq.get(q)
        p = poly_parse("x^2+x+1", fq, "x")
        for k in (1, 2, 3):
            assert coates_wiles(k, p) == coates_wiles(k, ColemanSeries(p))
    assert coates_wiles(2, poly_parse("x^2+x+1", Fq.get(2), "x")) == \
        base_field(Fq.get(2)).one


def test_galois_equivariance():
    f2 = Fq.get(2)
    F = base_field(f2)
    u = cyclotomic_unit_series(poly_parse("T", f2), poly_parse("1", f2))
    for atxt in ("T", "T+1", "T^2+T+1"):
        a = poly_parse(atxt, f2)
        for k in (1, 2, 3, 4):
            lhs = coates_wiles(k, star_action(a, u))
            assert lhs == F.coerce(a) ** k * coates_wiles(k, u)


def test_verify_equal_indices_gives_zero_rows():
    # c(a, a) = 1, so dlog is the zero function and every row reads 0 = 0
    f3 = Fq.get(3)
    a = poly_parse("T+2", f3)
    rep = cw_verify(a, a, 4)
    assert rep.passed
    assert all(r.lhs.is_zero() and r.rhs.is_zero() for r in rep.rows)


def test_report_dict_schema():
    f2 = Fq.get(2)
    rep = cw_verify(poly_parse("T", f2), poly_parse("1", f2), 3)
    d = rep.as_dict()
    assert sorted(d) == ["a", "b", "q", "rows"]
    assert d["q"] == 2 and d["a"] == "T" and d["b"] == "1"
    for row in d["rows"]:
        assert sorted(row) == ["equal", "k", "lhs", "rhs"]
        assert isinstance(row["lhs"], str) and isinstance(row["equal"], bool)
    assert [row["k"] for row in d["rows"]] == [1, 2, 3]


def test_verify_input_validation():
    f2 = Fq.get(2)
    t = poly_parse("T", f2)
    with pytest.raises(ValueError):
        cw_verify(t, Poly(f2, "T", []), 3)
    with pytest.raises(ValueError):
        cw_verify(t, t, 0)
    with pytest.raises(ValueError):
        coates_wiles(0, cyclotomic_unit_series(t, poly_parse("1", f2)))


def test_report_record_contract():
    f2 = Fq.get(2)
    F = base_field(f2)
    a, b = poly_parse("T", f2), poly_parse("1", f2)
    row = CWRow(1, F.one, F.zero, False)
    assert (row.k, row.lhs, row.rhs, row.equal) == (1, F.one, F.zero, False)
    assert row == CWRow(k=1, lhs=F.one, rhs=F.zero, equal=False)
    assert hash(row) == hash(CWRow(1, F.one, F.zero, False))
    with pytest.raises(AttributeError):
        row.equal = True
    assert repr(row).startswith("CWRow(k=1, ")
    rep = CWReport(q=2, a=a, b=b, rows=(row,))
    assert rep == CWReport(2, a, b, (row,))
    assert hash(rep) == hash(CWReport(2, a, b, (row,)))
    assert rep.q == 2 and rep.a == a and rep.b == b and not rep.passed
    with pytest.raises(AttributeError):
        rep.rows = ()
    assert repr(rep).startswith("CWReport(q=2, ")
    verified = cw_verify(a, b, 3)
    assert verified.passed and [r.k for r in verified.rows] == [1, 2, 3]
    assert verified == cw_verify(a, b, 3)


# -- the derived margins against generously padded ones ------------------------

def padded_dlog_exp_series(f, prec):
    """Oracle for dlog_exp_series: the same substitution with e(z) padded by
    2(ord num + ord den) + 2 terms for rational dlog f and 2|min(ord, 0)| + 2
    for a series, far more than the precision rules ask for."""
    d = dlog(f.value if isinstance(f, ColemanSeries) else f)
    if isinstance(d, RatFun):
        margin = 2 * (_x_order(d.num) + _x_order(d.den)) + 2
        e = _exp_in_x(_fq_of(d.field.cring), max(prec + margin, 2))
        out = (TruncSeries.from_poly(d.num).compose(e)
               * TruncSeries.from_poly(d.den).compose(e).invert())
    else:
        margin = 2 * abs(min(d.order, 0)) + 2
        out = d.compose(_exp_in_x(_fq_of(d.ring), max(prec + margin, 2)))
    return out.truncate(prec)


def _outcome(fn, f, prec):
    """fn(f, prec) with its precision, or the type of what it raised."""
    try:
        got = fn(f, prec)
    except Exception as ex:  # the oracle must raise alike
        return type(ex)
    return got, got.prec


def _coeff(fq, rng):
    """A random element of F_q(T) with denominator T + 1."""
    num = Poly(fq, "T", [fq.from_index(rng.randrange(fq.q)) for _ in range(2)])
    F = base_field(fq)
    return F.coerce(num) / F.coerce(poly_parse("T+1", fq))


def _index(fq, rng):
    """A random nonzero a in F_q[T] of degree <= 2."""
    while True:
        a = Poly(fq, "T", [fq.from_index(rng.randrange(fq.q)) for _ in range(3)])
        if not a.is_zero():
            return a


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_derived_margins_match_padded_ones(q):
    fq = Fq.get(q)
    F, X = base_field(fq), x_field(fq)
    rng = random.Random(q)
    a, b = _index(fq, rng), _index(fq, rng)
    unit = cyclotomic_unit_series(a, b)
    grid = [unit]
    # rational f with a pole of order 1-3 at x = 0, coefficients in F_q(T)
    for pole in (1, 2, 3):
        num = Poly(F, "x", [F.one, _coeff(fq, rng)])
        den = Poly(F, "x", [F.zero] * pole
                   + [F.one / F.coerce(poly_parse("T", fq)), _coeff(fq, rng)])
        grid.append(X.from_pair(num, den))
    # truncated series of order 0-3
    for order in range(4):
        cs = [F.one] + [_coeff(fq, rng) for _ in range(3)]
        grid.append(TruncSeries(F, "x", order, cs, order + 4))
    for f in grid:
        for prec in (1, 2, 5, 9):
            assert _outcome(dlog_exp_series, f, prec) == \
                _outcome(padded_dlog_exp_series, f, prec)
    # the callers' reads against the padded requests kmax + 2 and k + 1
    padded = padded_dlog_exp_series(unit, 9 + 2)
    assert [r.lhs for r in cw_verify(a, b, 9).rows] == \
        [padded.coefficient(k - 1) for k in range(1, 10)]
    for k in (1, 2, 5):
        assert coates_wiles(k, unit) == \
            padded_dlog_exp_series(unit, k + 1).coefficient(k - 1)


@st.composite
def rational_f(draw):
    """A rational f in x over F_q(T), q in {2, 3}: numerator and denominator
    of x-order 0-3 with up to three further terms, each coefficient a
    quotient of polynomials in T of degree <= 1."""
    fq = Fq.get(draw(st.sampled_from((2, 3))))
    F = base_field(fq)
    digit = st.integers(0, fq.q - 1).map(fq.from_index)
    small = st.lists(digit, min_size=1, max_size=2).map(
        lambda cs: F.coerce(Poly(fq, "T", cs)))
    coeff = st.tuples(small, small.filter(lambda c: not c.is_zero())).map(
        lambda nd: nd[0] / nd[1])
    unit = coeff.filter(lambda c: not c.is_zero())

    def side():
        order = draw(st.integers(0, 3))
        return Poly(F, "x", [F.zero] * order + [draw(unit)]
                    + draw(st.lists(coeff, max_size=3)))
    return x_field(fq).from_pair(side(), side())


@settings(max_examples=60)
@given(rational_f(), st.integers(1, 8))
def test_dlog_exp_series_reaches_exactly_the_asked_precision(f, p):
    # e(x) is sized so that the series reaches O(x^p) before its final
    # truncate, and no further unless e is at its floor of O(x^2)
    exp_precs, seen = [], []
    real_exp, real_truncate = cw._exp_in_x, TruncSeries.truncate

    def exp_spy(fq, prec):
        exp_precs.append(prec)
        return real_exp(fq, prec)

    def truncate_spy(self, prec):
        seen.append(self.prec)
        return real_truncate(self, prec)

    with patch.object(cw, "_exp_in_x", exp_spy), \
            patch.object(TruncSeries, "truncate", truncate_spy):
        got = dlog_exp_series(f, p)
    before = seen[-1]  # the series the final truncate received
    assert before in (p, None) or (before > p and exp_precs == [2])
    assert got.prec == p
    assert got == dlog_exp_series(f, p + 3).truncate(p)


# -- dlog by two small gcds, against the full quotient f'/f --------------------

@settings(max_examples=100, deadline=None)
@given(rational_f())
def test_dlog_matches_the_derivative_over_f(f):
    assert dlog(f) == f.derivative() / f


def x_constant(F, text):
    """The polynomial in T given by text, as a constant of F = F_q(T)(x)."""
    t = F.cring.coerce(poly_parse(text, _fq_of(F)))
    return F.coerce(Poly.const(F.cring, "x", t))


@pytest.mark.parametrize("q", (2, 3))
def test_dlog_of_p_th_powers_matches_the_derivative_over_f(q):
    # P = x^q + T has P' = 0, so one of gcd(n, n') and gcd(d, d') is the
    # whole of n or d made monic; over F_q(T) on the index kernel T^q + 1
    # does the same
    fq = Fq.get(q)
    for F, var in ((x_field(fq), "x"), (base_field(fq), "T")):
        z = F.gen()
        c = x_constant(F, "T") if var == "x" else F.one
        P, Q = z ** q + c, z * z + z + F.one
        for f in (P, F.one / P, P / Q, Q / P, P / (z + F.one),
                  (z + F.one) / P, P * P / Q, c * F.one / P):
            assert dlog(f) == f.derivative() / f, (F, f)


def test_dlog_of_a_constant_unit_is_zero():
    F = x_field(Fq.get(3))
    f = x_constant(F, "T^2+1")
    assert dlog(f) == F.zero == f.derivative() / f


# -- rows compared by cross products --------------------------------------------

def wrong_bc_over_factorial(monkeypatch):
    real = cw._bc_over_factorial

    def wrong(k, recip, fq):
        return real(k, recip, fq) + base_field(fq).one

    monkeypatch.setattr(cw, "_bc_over_factorial", wrong)
    return wrong


def test_unequal_rows_hold_the_reduced_rhs(monkeypatch):
    f3 = Fq.get(3)
    F = base_field(f3)
    a, b = poly_parse("T", f3), poly_parse("1", f3)
    recip = cw._exp_reciprocal(f3, 8)
    wrong = wrong_bc_over_factorial(monkeypatch)
    rep = cw_verify(a, b, 6)
    assert not rep.passed
    for row in rep.rows:
        want = F.coerce(a ** row.k - b ** row.k) * wrong(row.k, recip, f3)
        assert row.rhs == want and row.rhs != row.lhs and not row.equal
        assert row.rhs.den.is_monic() and row.rhs.num.gcd(
            row.rhs.den).is_one()
    assert main(["cwverify", "--q", "3", "--a", "T", "--b", "1",
                 "--kmax", "6"]) == 1


def test_agreeing_rows_take_no_kernel_gcd(monkeypatch):
    # the left side is fixed in advance and the reciprocal is warm, so
    # cw_verify's own work is its rows: three A-products each, no gcd
    fq = Fq.get(3)
    a, b = poly_parse("T+1", fq), poly_parse("T", fq)
    ser = dlog_exp_series(cyclotomic_unit_series(a, b), 12)
    cw_verify(a, b, 12)
    monkeypatch.setattr(cw, "dlog_exp_series", lambda f, prec: ser)
    # phi_a/phi_b is reduced by a gcd in F(x), whose A-contents are kernel
    # gcds too; the left side is fixed, so it is not built at all
    monkeypatch.setattr(cw, "cyclotomic_unit_series", lambda a, b: None)
    k = base_field(fq).kernel
    calls = []

    def counted(x, y, real=k.gcd):
        calls.append((x, y))
        return real(x, y)

    monkeypatch.setattr(k, "gcd", counted)
    assert cw_verify(a, b, 12).passed
    assert calls == []
    # the spy sees the gcds of Henrici's rule once the rows disagree
    wrong_bc_over_factorial(monkeypatch)
    assert not cw_verify(a, b, 12).passed
    assert calls
