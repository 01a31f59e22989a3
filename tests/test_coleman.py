import random

import pytest

from carlitz.coleman import (
    ColemanSeries, coleman_norm, cyclotomic_unit_series, eval_at_omega,
    phi_poly, star_action, x_field,
)
from carlitz.cyclo import CycloField, cyclotomic_unit, galois_act
from carlitz.errors import PrecisionError
from carlitz.fq import Fq
from carlitz.poly import Poly, PolyRing, poly_parse
from carlitz.quotient import QuotientRing, quotient_norm
from carlitz.series import TruncSeries


def rand_xpoly(rng, fq, deg, nonzero_const=False):
    Fb = x_field(fq).cring
    coeffs = [Fb.coerce(rng.randrange(fq.q)) for _ in range(deg + 1)]
    if nonzero_const and coeffs[0].is_zero():
        coeffs[0] = Fb.one
    if coeffs[deg].is_zero():
        coeffs[deg] = Fb.one
    return Poly(Fb, "x", coeffs)


def decompose_bottom_up(g, pi):
    """The h over F with h(phi_pi(x)) = g(x): the lowest term of
    phi_pi(x)^k is pi^k x^k, so coefficient k of the residual, times
    pi^(-k), is h_k.  ValueError if g is not a polynomial in phi_pi(x)."""
    if g.is_zero():
        return g
    F = g.ring
    phi = phi_poly(pi, var=g.var)
    qd = phi.degree
    if g.degree % qd:
        raise ValueError(f"degree {g.degree} is not a multiple of {qd}")
    pi_inv = F.coerce(pi).inv()
    out = []
    r = g
    phi_pow = Poly(F, g.var, [F.one])
    for k in range(g.degree // qd + 1):
        if k:
            phi_pow = phi_pow * phi
        hk = r.coeff(k) * pi_inv ** k
        out.append(hk)
        if hk != F.zero:
            r = r - phi_pow.mul_scalar(hk)
    if not r.is_zero():
        raise ValueError("residual is not a polynomial in phi_pi(x)")
    return Poly(F, g.var, out)


def norm_over_fraction_field(p, pi):
    """The F_q(T) route for N(p): quotient_norm of the Taylor shift
    p(x + ybar) in F[x][y]/(phi_pi(y)), then the bottom-up decomposition."""
    if p.is_zero():
        return p
    R = PolyRing(p.ring, p.var)
    qr = QuotientRing(phi_poly(pi, var="y").map_coeffs(R.coerce, ring=R))
    shifted = p.eval(qr.coerce(R.gen()) + qr.gen(), qr)
    return decompose_bottom_up(quotient_norm(shifted), pi)


def rand_frac_xpoly(rng, fq, deg):
    """x-polynomial over F whose coefficients often have T-denominators."""
    F = x_field(fq).cring
    dens = [F.one, F.coerce(poly_parse("T", fq)),
            F.coerce(poly_parse("T+1", fq)),
            F.coerce(poly_parse("T^2+T+1", fq))]
    coeffs = [F.coerce(Poly(fq, "T", [fq.from_index(rng.randrange(fq.q))
                                      for _ in range(2)]))
              / rng.choice(dens) for _ in range(deg)]
    coeffs.append(F.one / rng.choice(dens))
    return Poly(F, "x", coeffs)


ORACLE_CASES = [(q, pi) for q in (2, 3, 4, 5) for pi in ("T", "T+1")] + [
    (2, "T^2+T+1")]


@pytest.mark.parametrize("q,pi_text", ORACLE_CASES)
def test_integral_norm_matches_fraction_field_route(q, pi_text):
    # coleman_norm runs over A = F_q[T] after clearing denominators; the
    # oracle norms in F[y]/(phi_pi(y)) and decomposes bottom-up
    rng = random.Random(100 * q + len(pi_text))
    fq = Fq.get(q)
    pi = poly_parse(pi_text, fq)
    xf = x_field(fq)
    F = xf.cring
    T = F.coerce(poly_parse("T", fq))
    x = Poly.gen(F, "x")
    fixed = [x + Poly(F, "x", [F.one / T]),
             (x ** 2).mul_scalar(F.one / F.coerce(poly_parse("T+1", fq)))
             + Poly(F, "x", [F.one])]
    for p in fixed + [rand_frac_xpoly(rng, fq, rng.randrange(1, 3))
                      for _ in range(3)]:
        want = norm_over_fraction_field(p, pi)
        # exact input: num and den are normed separately
        den = Poly(F, "x", [F.one, F.one])
        got = coleman_norm(ColemanSeries(xf.from_pair(p, den), pi)).value
        assert got == xf.from_pair(want, norm_over_fraction_field(den, pi))


def assert_norm_matches_oracle(p, pi):
    """coleman_norm of p against the F_q(T) route; returns the oracle's
    N(p)."""
    want = norm_over_fraction_field(p, pi)
    xf = x_field(pi.ring)
    assert coleman_norm(ColemanSeries(xf.coerce(p), pi)).value == \
        xf.coerce(want)
    return want


@pytest.mark.parametrize("q,pi_text", [(2, "T^2+T+1"), (3, "T"), (4, "T+1")])
def test_norm_of_constant_is_its_power(q, pi_text):
    # every torsion translate of a constant is the constant: N(c) = c^n
    fq = Fq.get(q)
    pi = poly_parse(pi_text, fq)
    F = x_field(fq).cring
    c = F.coerce(poly_parse("T+1", fq)) / F.coerce(poly_parse("T", fq))
    want = assert_norm_matches_oracle(Poly(F, "x", [c]), pi)
    assert want == Poly(F, "x", [c ** (q ** pi.degree)])


@pytest.mark.parametrize("q,pi_text,a_texts", [
    (3, "T", ("T^2+1", "T^2+T")), (2, "T^2+T+1", ("T^2", "T^2+T+1"))])
def test_norm_of_input_at_least_as_long_as_the_modulus(q, pi_text, a_texts):
    # deg phi_a = q^deg a >= q^deg pi, so P(y) is reduced mod phi_pi(y) - x
    # before its matrix is built; phi_a is fixed when a is prime to pi
    fq = Fq.get(q)
    pi = poly_parse(pi_text, fq)
    for a_text in a_texts:
        a = poly_parse(a_text, fq)
        p = phi_poly(a)
        assert p.degree >= q ** pi.degree
        want = assert_norm_matches_oracle(p, pi)
        assert (want == p) == (not (a % pi).is_zero())


@pytest.mark.parametrize("q", [2, 3, 5])
def test_norm_with_leading_coefficient_divisible_by_pi(q):
    fq = Fq.get(q)
    pi = poly_parse("T", fq)
    F = x_field(fq).cring
    t = F.coerce(pi)
    assert_norm_matches_oracle(Poly(F, "x", [F.one, F.zero, t]), pi)
    assert_norm_matches_oracle(Poly(F, "x", [F.one / t, t, t * t]), pi)


def test_norm_over_f4_takes_the_generic_loops():
    # F_4 is not a prime field: no interned elements, so the norm runs on
    # Polys over F_4 (the Poly kernel) with schoolbook A[x] products
    fq = Fq.get(4)
    F = x_field(fq).cring
    w = F.coerce(fq.from_index(2))
    den = F.coerce(poly_parse("T^2+T+1", fq))
    p = Poly(F, "x", [w, F.one / den, w * w, F.one])
    for pi_text in ("T", "T+1"):
        assert_norm_matches_oracle(p, poly_parse(pi_text, fq))


def test_norm_takes_no_taylor_shift_and_no_decomposition(monkeypatch):
    fq = Fq.get(5)
    pi = poly_parse("T", fq)
    F = x_field(fq).cring
    p = Poly(F, "x", [F.one, F.coerce(pi), F.one / F.coerce(pi), F.one])
    want = norm_over_fraction_field(p, pi)

    def forbidden(*args):
        raise RuntimeError("the Coleman norm took a detour")
    monkeypatch.setattr(Poly, "compose", forbidden)
    got = coleman_norm(ColemanSeries(p, pi)).value
    assert got == x_field(fq).coerce(want)


def test_norm_against_literal_torsion_product():
    # For q = 2, pi = T the pi-torsion of x^2 + T x is rational: {0, T}.
    # So (N f)(phi_T(x)) must literally equal f(x) * f(x + T).
    rng = random.Random(20)
    f2 = Fq.get(2)
    pi = poly_parse("T", f2)
    xf = x_field(f2)
    phi = phi_poly(pi)
    shift = Poly.gen(xf.cring, "x") + Poly(xf.cring, "x",
                                           [xf.cring.coerce(pi)])
    for _ in range(10):
        num = rand_xpoly(rng, f2, rng.randrange(1, 4), nonzero_const=True)
        den = rand_xpoly(rng, f2, rng.randrange(1, 4), nonzero_const=True)
        f = ColemanSeries(xf.from_pair(num, den), pi)
        nf = coleman_norm(f).value
        lhs = xf.from_pair(nf.num.compose(phi), nf.den.compose(phi))
        rhs = xf.from_pair(num * num.compose(shift), den * den.compose(shift))
        assert lhs == rhs
    # a coefficient with a T-denominator: N(x + 1/T)(phi_T(x)) is
    # (x + 1/T)(x + T + 1/T)
    inv_t = xf.cring.coerce(pi).inv()
    num = Poly.gen(xf.cring, "x") + Poly(xf.cring, "x", [inv_t])
    nf = coleman_norm(ColemanSeries(xf.coerce(num), pi)).value
    assert nf.den.is_one()
    assert nf.num.compose(phi) == num * num.compose(shift)


def test_norm_fixes_phi_a_for_a_prime_to_pi():
    f2 = Fq.get(2)
    for pi_text in ("T", "T^2+T+1"):
        pi = poly_parse(pi_text, f2)
        for a_text in ("T", "T+1", "T^2", "T^2+T+1"):
            a = poly_parse(a_text, f2)
            if (a % pi).is_zero():
                continue
            f = ColemanSeries(phi_poly(a), pi)
            assert coleman_norm(f) == f


def test_norm_is_multiplicative():
    rng = random.Random(7)
    f3 = Fq.get(3)
    pi = poly_parse("T", f3)
    xf = x_field(f3)
    for _ in range(8):
        a = ColemanSeries(xf.from_pair(
            rand_xpoly(rng, f3, 2, True), rand_xpoly(rng, f3, 2, True)), pi)
        b = ColemanSeries(xf.from_pair(
            rand_xpoly(rng, f3, 2, True), rand_xpoly(rng, f3, 2, True)), pi)
        assert coleman_norm(a * b) == coleman_norm(a) * coleman_norm(b)


def test_norm_splits_off_x_powers():
    # N(x^v g) = x^v N(g): the norm of x is x itself
    f2 = Fq.get(2)
    pi = poly_parse("T^2+T+1", f2)
    xf = x_field(f2)
    x = Poly.gen(xf.cring, "x")
    g = phi_poly(poly_parse("T+1", f2))
    lhs = coleman_norm(ColemanSeries(xf.coerce(x ** 3 * g), pi))
    rhs = ColemanSeries(xf.coerce(x ** 3), pi) * \
        coleman_norm(ColemanSeries(xf.coerce(g), pi))
    assert lhs == rhs


def test_truncated_series_is_refused():
    f2 = Fq.get(2)
    pi = poly_parse("T", f2)
    g = phi_poly(poly_parse("T+1", f2))
    with pytest.raises(PrecisionError, match="read every coefficient"):
        ColemanSeries(TruncSeries.from_poly(g).truncate(8), pi)
    # an exact TruncSeries is not one of the two accepted forms either
    with pytest.raises(TypeError):
        ColemanSeries(TruncSeries.from_poly(g), pi)
    with pytest.raises(ValueError):
        ColemanSeries(phi_poly(poly_parse("T+1", f2), var="y"), pi)


def test_no_truncation_determines_norm_or_torsion_value():
    # 1 + x and 1 + x + x^2 agree through x^1, yet their norms differ at
    # x^0 (the constant term is the product of f(u) over all the torsion
    # u); 1 and 1 + x agree at x^0, yet differ at omega_1 = T: no
    # truncation fixes either
    f2 = Fq.get(2)
    pi = poly_parse("T", f2)
    xf = x_field(f2)
    F = xf.cring
    one, t = F.one, F.coerce(pi)
    short = ColemanSeries(Poly(F, "x", [one, one]), pi)
    longer = ColemanSeries(Poly(F, "x", [one, one, one]), pi)
    assert coleman_norm(short).value == xf.coerce(
        Poly(F, "x", [t + one, one]))
    assert coleman_norm(longer).value == xf.coerce(
        Poly(F, "x", [t * t + t + one, t + one, one]))
    assert eval_at_omega(short, 1) == CycloField.get(pi, 1).coerce(
        poly_parse("T+1", f2))
    assert eval_at_omega(ColemanSeries(Poly(F, "x", [one]), pi), 1) == \
        CycloField.get(pi, 1).one


def test_as_series_expands_at_zero():
    # the exact series, expanded through O(x^prec), times its denominator
    # gives back its numerator; a pole at 0 gives a negative order
    f2 = Fq.get(2)
    pi = poly_parse("T", f2)
    xf = x_field(f2)
    x = Poly.gen(xf.cring, "x")
    f = ColemanSeries(xf.from_pair(phi_poly(poly_parse("T+1", f2)),
                                   x ** 2 * phi_poly(pi)), pi)
    s = f.as_series(6)
    assert (s.order, s.prec) == (f.order(), 6) == (-2, 6)
    back = s * TruncSeries.from_poly(f.value.den)
    assert back.agrees_with(TruncSeries.from_poly(f.value.num))
    assert back.prec is not None and back.prec > f.value.num.degree


def test_star_action_composes_phi():
    f2 = Fq.get(2)
    pi = poly_parse("T^2+T+1", f2)
    a = poly_parse("T", f2)
    b = poly_parse("T+1", f2)
    f = cyclotomic_unit_series(poly_parse("T", f2), poly_parse("1", f2), pi)
    ab = star_action(a, star_action(b, f))
    assert ab == star_action(a * b, f)


def test_eval_at_omega_gives_cyclotomic_units():
    for q in (2, 3):
        fq = Fq.get(q)
        pi = poly_parse("T", fq)
        a = poly_parse("T+1", fq)
        b = Poly(fq, "T", [fq.one])
        for n in (1, 2):
            field = CycloField.get(pi, n)
            f = cyclotomic_unit_series(a, b, pi)
            assert eval_at_omega(f, n) == cyclotomic_unit(a, b, field)


def test_eval_at_omega_matches_galois_action():
    f2 = Fq.get(2)
    pi = poly_parse("T^2+T+1", f2)
    field = CycloField.get(pi, 1)
    a = poly_parse("T", f2)
    f = ColemanSeries(phi_poly(a), pi)
    assert eval_at_omega(f, 1) == galois_act(a, field.omega)


def test_eval_at_omega_precision_gate():
    f2 = Fq.get(2)
    pi = poly_parse("T^2+T+1", f2)
    field = CycloField.get(pi, 1)
    g = phi_poly(poly_parse("T+1", f2))
    # a power basis of the field's length is no certificate either: every
    # truncation is refused, and the exact series evaluates
    assert g.degree < field.degree
    for prec in (field.degree - 1, field.degree, field.degree + 4):
        with pytest.raises(PrecisionError):
            ColemanSeries(TruncSeries.from_poly(g).truncate(prec), pi)
    assert eval_at_omega(ColemanSeries(g, pi), 1) == \
        field.coerce(poly_parse("T+1", f2)) * field.omega \
        + field.omega ** 2


def test_mixed_prime_arithmetic_rejected():
    f2 = Fq.get(2)
    g = phi_poly(poly_parse("T", f2))
    a = ColemanSeries(g, poly_parse("T", f2))
    b = ColemanSeries(g, poly_parse("T+1", f2))
    with pytest.raises(ValueError):
        a * b
    assert (a * ColemanSeries(g)).pi == poly_parse("T", f2)


def test_norm_requires_a_prime():
    f2 = Fq.get(2)
    f = ColemanSeries(phi_poly(poly_parse("T", f2)))
    with pytest.raises(ValueError):
        coleman_norm(f)
