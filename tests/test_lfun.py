import pytest

from carlitz.errors import CharacterError, PrecisionError, TailError
from carlitz.fq import Fq
from carlitz.groupring import CharSpec, GroupRing
from carlitz.lfun import (
    OkadaReport, okada_report, power_sum, power_sum_enum,
    stickelberger_coefficient, stickelberger_coefficient_enum,
    stickelberger_series, zeta_neg, zeta_pos_trunc, zeta_v_adic_neg,
    zeta_v_adic_neg_enum,
)
from carlitz.poly import Poly, is_irreducible, monic_enumerate, poly_parse
from carlitz.ratfun import base_field
from carlitz.series import TruncSeries


def test_power_sums_match_enumeration():
    # q = 4 and 9 put p != q; at p = 2, 3 many multinomial prefixes are 0 mod p
    for q, dmax in ((2, 3), (3, 3), (4, 3), (9, 2)):
        fq = Fq.get(q)
        for d in range(dmax + 1):
            for k in range(1, 13):
                assert power_sum(d, k, fq) == power_sum_enum(d, k, fq), (q, d, k)


def test_power_sum_degree_zero_and_cutoff():
    f3 = Fq.get(3)
    one = Poly(f3, "T", [f3.one])
    assert power_sum(0, 5, f3) == one
    # strata with d(q-1) > k vanish identically
    assert power_sum(2, 3, f3).is_zero()
    assert power_sum(3, 4, f3).is_zero()


def test_zeta_neg_trivial_zeros():
    for q in (2, 3, 4):
        fq = Fq.get(q)
        for k in range(1, 9):
            if k % (q - 1) == 0:
                assert zeta_neg(k, fq).is_zero()


def test_zeta_neg_at_minus_one_is_one_for_q3():
    f3 = Fq.get(3)
    assert zeta_neg(1, f3) == Poly(f3, "T", [f3.one])


def test_zeta_neg_matches_literal_monic_sum():
    for q, k in ((3, 1), (3, 3), (3, 5), (2, 3), (3, 7), (3, 11), (4, 5),
                 (4, 7)):
        fq = Fq.get(q)
        bound = k // (q - 1) + 1
        total = Poly(fq, "T", [])
        for d in range(bound + 1):
            for a in monic_enumerate(fq, d):
                total = total + a ** k
        assert zeta_neg(k, fq) == total


def test_v_adic_euler_identity():
    for q, pitxt, k in ((3, "T", 3), (3, "T+1", 1), (2, "T^2+T+1", 3)):
        fq = Fq.get(q)
        pi = poly_parse(pitxt, fq)
        lhs = zeta_v_adic_neg(k, pi)
        one = Poly(fq, "T", [fq.one])
        assert lhs == (one - pi ** k) * zeta_neg(k, fq)


def test_v_adic_matches_literal_coprime_sum():
    f3 = Fq.get(3)
    pi = poly_parse("T", f3)
    k = 3
    bound = k // 2 + pi.degree + 1
    total = Poly(f3, "T", [])
    for d in range(bound + 1):
        for a in monic_enumerate(f3, d):
            if not (a % pi).is_zero():
                total = total + a ** k
    assert zeta_v_adic_neg_enum(k, pi) == total
    assert zeta_v_adic_neg(k, pi) == total
    assert total == poly_parse("1+2*T^3", f3)
    for q, pitxt, k in ((2, "T", 1), (2, "T", 4), (2, "T^2+T+1", 3),
                        (2, "T^3+T+1", 2), (3, "T", 5), (3, "T+2", 4),
                        (3, "T^2+1", 3), (4, "T", 5), (5, "T+1", 4)):
        pi = poly_parse(pitxt, Fq.get(q))
        assert zeta_v_adic_neg(k, pi) == zeta_v_adic_neg_enum(k, pi), \
            (q, pitxt, k)


def test_v_adic_skips_enumeration(monkeypatch):
    import carlitz.lfun as lfun
    f3 = Fq.get(3)
    pi = poly_parse("T", f3)
    monkeypatch.setattr(lfun, "monic_enumerate", None)
    one = Poly(f3, "T", [f3.one])
    assert zeta_v_adic_neg(16, pi) == (one - pi ** 16) * zeta_neg(16, f3)


def test_v_adic_rejects_bad_modulus():
    f2 = Fq.get(2)
    with pytest.raises(ValueError):
        zeta_v_adic_neg(2, poly_parse("T^2+1", f2))


def expand_at_infinity(r, prec):
    # r = num(T)/den(T); substitute T = 1/t and expand around t = 0
    num, den = r.num, r.den
    fq = num.ring
    shift = den.degree - num.degree
    wprec = prec + abs(shift)
    nrev = TruncSeries(fq, "t", 0, list(reversed(num.coeffs)), None)
    drev = TruncSeries(fq, "t", 0, list(reversed(den.coeffs)), None)
    return (nrev.truncate(wprec) * drev.truncate(wprec).invert()) \
        .shift(shift).truncate(prec)


def test_zeta_pos_matches_exact_rational_sum():
    for q, k, dmax, prec in ((2, 1, 2, 3), (3, 2, 1, 4), (2, 3, 1, 6)):
        fq = Fq.get(q)
        F = base_field(fq)
        total = F.zero
        for d in range(dmax + 1):
            for a in monic_enumerate(fq, d):
                total = total + F.one / F.coerce(a) ** k
        assert zeta_pos_trunc(k, fq, dmax, prec).agrees_with(
            expand_at_infinity(total, prec))


def test_zeta_pos_certified_digits_are_stable():
    f2 = Fq.get(2)
    a = zeta_pos_trunc(2, f2, 2, 6)
    b = zeta_pos_trunc(2, f2, 5, 6)
    assert a.agrees_with(b)


def test_zeta_pos_precision_guardrails():
    f2 = Fq.get(2)
    with pytest.raises(PrecisionError):
        zeta_pos_trunc(2, f2, 1, 5)  # only (1+1)*2 = 4 certified
    with pytest.raises(ValueError):
        zeta_pos_trunc(0, f2, 1, 1)
    with pytest.raises(ValueError):
        zeta_pos_trunc(1, f2, -1, 1)
    with pytest.raises(ValueError):
        zeta_pos_trunc(1, f2, 1, 0)


def worked_theta(udeg=12):
    f2 = Fq.get(2)
    pi = poly_parse("T^2+T+1", f2)
    t = poly_parse("T", f2)
    return stickelberger_series(pi, 1, s_extra=(), t_aux=(t,), udeg=udeg)


def test_theta_worked_example_coefficients():
    f2 = Fq.get(2)
    theta = worked_theta()
    G = theta.ring
    t = poly_parse("T", f2)
    t1 = poly_parse("T+1", f2)
    g, g2 = G.element(t), G.element(t1)
    assert theta.degree == 2
    assert theta.coefficient(0) == G.one()
    assert theta.coefficient(1) == g2 - g
    assert theta.coefficient(2) == g - g2 - G.one()
    assert theta.coefficient(3).is_zero()
    assert theta.at_one().is_zero()


def test_theta_raw_coefficients_before_modification():
    f2 = Fq.get(2)
    pi = poly_parse("T^2+T+1", f2)
    G = GroupRing(pi, 1)
    g = G.element(poly_parse("T", f2))
    g2 = G.element(poly_parse("T+1", f2))
    assert stickelberger_coefficient(pi, 1, [pi], 0) == G.one()
    assert stickelberger_coefficient(pi, 1, [pi], 1) == g + g2
    full = G.one() + g + g2
    for n in range(2, 7):
        assert stickelberger_coefficient(pi, 1, [pi], n) == \
            full.scale(2 ** (n - 2))


COUNTED_CASES = [
    # (q, pi, level, extra finite places of S)
    (2, "T^2+T+1", 1, ()),
    (2, "T^2+T+1", 2, ()),
    (2, "T", 2, ("T+1",)),
    (2, "T", 1, ("T^2+T+1",)),
    (3, "T^2+1", 1, ("T",)),
    (3, "T", 2, ("T+1",)),
    (4, "T", 1, ("T+1",)),
    (3, "T+2", 1, ("T", "T+1")),
]


@pytest.mark.parametrize("q,pitxt,level,extra", COUNTED_CASES)
def test_counted_coefficients_match_enumeration(q, pitxt, level, extra):
    # every n through deg M + 2, where the count replaces the enumeration
    fq = Fq.get(q)
    pi = poly_parse(pitxt, fq)
    s_finite = [pi] + [poly_parse(v, fq) for v in extra]
    deg_m = level * pi.degree + sum(v.degree for v in s_finite[1:])
    ns = [n for n in range(deg_m + 3) if q ** n <= 30000]
    assert ns[-1] >= deg_m
    for n in ns:
        assert stickelberger_coefficient(pi, level, s_finite, n) == \
            stickelberger_coefficient_enum(pi, level, s_finite, n), n


def test_counted_coefficient_skips_enumeration(monkeypatch):
    import carlitz.lfun as lfun
    f3 = Fq.get(3)
    pi = poly_parse("T^2+1", f3)
    s_finite = [pi, poly_parse("T", f3)]
    monkeypatch.setattr(lfun, "monic_enumerate", None)
    c = stickelberger_coefficient(pi, 1, s_finite, 20)
    assert set(c.coeffs.values()) == {3 ** 17 * 2}
    assert len(c.coeffs) == 8


def test_coefficient_input_validation():
    f2 = Fq.get(2)
    pi = poly_parse("T^2+T+1", f2)
    with pytest.raises(ValueError):
        stickelberger_coefficient(pi, 1, [], 3)  # pi must be in S
    with pytest.raises(ValueError):
        stickelberger_coefficient(pi, 1, [pi, poly_parse("T^2+1", f2)], 3)
    with pytest.raises(ValueError):
        stickelberger_coefficient(pi, 0, [pi], 3)


def test_theta_terminates_far_beyond_enumeration():
    # 3^40 monic polynomials of degree 40: reachable only by counting
    f3 = Fq.get(3)
    pi = poly_parse("T^2+1", f3)
    kw = dict(s_extra=(poly_parse("T", f3),), t_aux=(poly_parse("T+1", f3),))
    deep = stickelberger_series(pi, 1, udeg=40, **kw)
    assert deep == stickelberger_series(pi, 1, udeg=12, **kw)
    assert deep.degree == 3


def oracle_series(pi, level, s_extra=(), t_aux=(), udeg=12):
    """The modified coefficients by group-ring products, one per coefficient
    and place, with stickelberger_series's tail check: the route that the
    one-pass translation replaced."""
    fq = pi.ring
    G = GroupRing(pi, level)
    s_finite = sorted({pi, *s_extra}, key=lambda v: v.sort_key())
    t_list = sorted(set(t_aux), key=lambda v: v.sort_key())
    coeffs = [stickelberger_coefficient(pi, level, s_finite, n)
              for n in range(udeg + 1)]
    for v in t_list:
        gv, qd = G.element(v), fq.q ** v.degree
        coeffs = [c - (gv * coeffs[n - v.degree]).scale(qd)
                  if n >= v.degree else c for n, c in enumerate(coeffs)]
    tail = level * pi.degree + sum(v.degree for v in t_list) + 2
    for n in range(udeg - tail + 1, udeg + 1):
        if not coeffs[n].is_zero():
            raise TailError(
                f"coefficient of u^{n} is nonzero inside the tail window; "
                f"the series does not terminate by degree {udeg}")
    return coeffs


def monic_primes(fq, d):
    return [v for v in monic_enumerate(fq, d) if is_irreducible(v)]


def one_pass_grid(q):
    """(pi, level, auxiliary places) over pi of degree 1-2, every level
    1-3 with |G| <= 200, and one or two places of degree 1-2."""
    fq = Fq.get(q)
    for pi in (monic_primes(fq, 1)[0], monic_primes(fq, 2)[0]):
        lines = [v for v in monic_primes(fq, 1) if v != pi][:1]
        quads = [v for v in monic_primes(fq, 2) if v != pi][:1]
        places = [(v,) for v in lines + quads] + [
            (a, b) for a in lines for b in quads]
        for level in (1, 2, 3):
            if GroupRing(pi, level).group_order() <= 200:
                for t_aux in places:
                    yield pi, level, t_aux


@pytest.mark.parametrize("q", [2, 3, 5])
def test_one_pass_series_matches_group_ring_products(q):
    # udeg from the tail window to the window + 3, where most inputs still
    # fail the tail check, and at the window + 7, past every degree here
    cases = 0
    for pi, level, t_aux in one_pass_grid(q):
        cases += 1
        tail = level * pi.degree + sum(v.degree for v in t_aux) + 2
        for udeg in (*range(tail, tail + 4), tail + 7):
            args = (pi, level, (), t_aux, udeg)
            try:
                want = oracle_series(*args)
            except TailError as exc:
                assert udeg < tail + 7, args
                with pytest.raises(TailError) as got:
                    stickelberger_series(*args)
                assert str(got.value) == str(exc)
                continue
            theta = stickelberger_series(*args)
            assert theta.coeffs == want[:theta.degree + 1], args
            assert all(c.is_zero() for c in want[theta.degree + 1:])
    assert cases >= 12


def test_one_pass_series_with_extra_places_of_s():
    f3 = Fq.get(3)
    pi, t, t1, t2 = (poly_parse(x, f3) for x in ("T^2+1", "T", "T+1", "T+2"))
    for s_extra, t_aux in (((t,), (t1,)), ((t, t2), (t1,)),
                           ((t2,), (t, t1))):
        for udeg in (10, 13):
            args = (pi, 1, s_extra, t_aux, udeg)
            theta = stickelberger_series(*args)
            want = oracle_series(*args)
            assert theta.coeffs == want[:theta.degree + 1], args


def test_nonterminating_series_fails_on_both_routes():
    f2 = Fq.get(2)
    pi = poly_parse("T", f2)
    t_aux = (poly_parse("T+1", f2), poly_parse("T^2+T+1", f2))
    with pytest.raises(TailError, match="u\\^5 is nonzero") as exc:
        oracle_series(pi, 3, (), t_aux, 12)
    with pytest.raises(TailError) as got:
        stickelberger_series(pi, 3, t_aux=t_aux, udeg=12)
    assert str(got.value) == str(exc.value)


def test_series_translates_each_key_once_per_place(monkeypatch):
    # one permutation of the |G| keys per auxiliary place, however many
    # coefficients it is applied to
    f3 = Fq.get(3)
    pi = poly_parse("T^2+1", f3)
    t_aux = (poly_parse("T", f3), poly_parse("T+1", f3), poly_parse("T^2+T+2", f3))
    calls = []
    mul_key = GroupRing.mul_key

    def counted(self, a, b):
        calls.append(self)
        return mul_key(self, a, b)

    monkeypatch.setattr(GroupRing, "mul_key", counted)
    theta = stickelberger_series(pi, 1, t_aux=t_aux, udeg=24)
    assert theta.degree > 0
    assert 0 < len(calls) <= len(t_aux) * theta.ring.group_order()


def test_theta_character_values():
    f2 = Fq.get(2)
    t = poly_parse("T", f2)
    theta = worked_theta()
    R = CharSpec(3, {}).values()
    w = R.gen()
    two = R.coerce(2)
    triv = theta.eval_char(CharSpec(3, {t: 0}))
    assert [triv.coeff(i) for i in range(3)] == [R.one, R.zero, -R.one]
    cubic = theta.eval_char(CharSpec(3, {t: 1}))
    assert cubic.coeff(0) == R.one
    assert cubic.coeff(1) == -(R.one + two * w)
    assert cubic.coeff(2) == two * w


def test_character_product_is_an_euler_product():
    # Independent oracle: the product of Theta over all three characters mod
    # pi has integer coefficients and must match the degree-truncated Euler
    # product prod_{v != pi} (1 - u^{f_v deg v})^{-3/f_v} times the
    # termination factor prod_chi (1 - 2 chi(T) u) = 1 - 8u^3.
    N = 9
    f2 = Fq.get(2)
    pi = poly_parse("T^2+T+1", f2)
    t = poly_parse("T", f2)
    one = Poly(f2, "T", [f2.one])
    theta = worked_theta()

    prod = theta.eval_char(CharSpec(3, {t: 0}))
    for e in (1, 2):
        prod = prod * theta.eval_char(CharSpec(3, {t: e}))
    assert all(c.rep.degree <= 0 for c in prod.coeffs)
    lhs = [prod.coeff(i).rep.constant for i in range(N)]

    def conv(a, b):
        out = [0] * N
        for i, ai in enumerate(a):
            if ai:
                for j in range(N - i):
                    if b[j]:
                        out[i + j] += ai * b[j]
        return out

    def geom(m):
        return [1 if j % m == 0 else 0 for j in range(N)]

    rhs = [1, 0, 0, -8] + [0] * (N - 4)
    count = 0
    for d in range(1, N):
        for v in monic_enumerate(f2, d):
            if not is_irreducible(v) or v == pi:
                continue
            count += 1
            if v % pi == one:
                factor = conv(conv(geom(d), geom(d)), geom(d))
            else:
                factor = geom(3 * d)
            rhs = conv(rhs, factor)
    assert count == 70
    assert lhs == rhs
    assert lhs == [1, 0, 0, -6, 3, 6, -4, 0, 0]


def test_theta_projection_matches_native_level():
    f2 = Fq.get(2)
    pi = poly_parse("T^2+T+1", f2)
    t = poly_parse("T", f2)
    deep = stickelberger_series(pi, 2, t_aux=(t,), udeg=12)
    assert deep.project(1) == worked_theta()


def test_theta_tail_errors():
    f2 = Fq.get(2)
    pi = poly_parse("T^2+T+1", f2)
    t = poly_parse("T", f2)
    with pytest.raises(TailError):
        stickelberger_series(pi, 1, t_aux=(t,), udeg=3)  # window is 5


def test_theta_input_validation():
    f2 = Fq.get(2)
    pi = poly_parse("T^2+T+1", f2)
    t = poly_parse("T", f2)
    with pytest.raises(ValueError):
        stickelberger_series(poly_parse("T^2+1", f2), 1, t_aux=(t,))
    with pytest.raises(ValueError):
        stickelberger_series(pi, 0, t_aux=(t,))
    with pytest.raises(ValueError):
        stickelberger_series(pi, 1, s_extra=(t,), t_aux=(t,))
    for udeg in (12, 30):
        with pytest.raises(ValueError):  # no T_aux: never terminates
            stickelberger_series(pi, 1, udeg=udeg)


def test_theta_eval_char_requires_full_reach():
    theta = worked_theta()
    f2 = Fq.get(2)
    one = poly_parse("1", f2)
    with pytest.raises(CharacterError):
        theta.eval_char(CharSpec(3, {one: 0}))


def test_theta_dict_schema():
    d = worked_theta().as_dict()
    assert d["q"] == 2 and d["pi"] == "T^2+T+1" and d["level"] == 1
    assert d["S"] == ["T^2+T+1", "inf"]
    assert d["T"] == ["T"]
    assert [c["u"] for c in d["coeffs"]] == [0, 1, 2]
    for c in d["coeffs"]:
        for term in c["terms"]:
            assert sorted(term) == ["c", "rep"]


def test_okada_report_classification():
    f2 = Fq.get(2)
    pi = poly_parse("T^3+T+1", f2)
    rep = okada_report(pi)
    assert rep.kmax == 6
    from carlitz.cmod import bernoulli_carlitz
    irregular, hits = [], []
    for k in range(1, 7):
        bc = bernoulli_carlitz(k, f2)
        if bc.value.is_zero():
            irregular.append(k)
        elif bc.value.den.valuation(pi) > 0:
            hits.append(k)
        elif bc.value.num.valuation(pi) > 0:
            irregular.append(k)
    assert list(rep.irregular) == irregular
    assert list(rep.denominator_hits) == hits
    d = rep.as_dict()
    assert sorted(d) == ["denominator_hits", "irregular", "kmax", "pi", "q"]


def test_okada_rejects_reducible():
    f3 = Fq.get(3)
    with pytest.raises(ValueError):
        okada_report(poly_parse("T^2+2", f3))  # (T+1)(T+2)


def test_okada_report_record_contract():
    f2 = Fq.get(2)
    pi = poly_parse("T^3+T+1", f2)
    rep = okada_report(pi)
    assert rep.q == 2 and rep.pi == pi and rep.kmax == 6
    same = OkadaReport(q=2, pi=pi, kmax=6, irregular=rep.irregular,
                       denominator_hits=rep.denominator_hits)
    assert same == rep == okada_report(pi)
    assert hash(same) == hash(rep)
    with pytest.raises(AttributeError):
        rep.kmax = 7
    assert repr(rep).startswith("OkadaReport(q=2, ")
