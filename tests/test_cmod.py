import random

import pytest
from hypothesis import given, settings, strategies as st

from carlitz import cmod, cw, poly
from carlitz.cmod import (
    SkewPoly, bernoulli_carlitz, bernoulli_carlitz_table, bracket, carlitz_exp,
    carlitz_factorial, carlitz_log, carlitz_phi, d_sequence, l_sequence,
    omega_minpoly, torsion_poly,
)
from carlitz.coleman import ColemanSeries
from carlitz.cw import cw_verify
from carlitz.errors import InvariantError
from carlitz.fq import Fq, FqElem
from carlitz.groupring import GroupRing
from carlitz.lfun import stickelberger_series
from carlitz.poly import (
    Poly, PolyRing, is_irreducible, monic_enumerate, poly_parse,
)
from carlitz.ratfun import base_field
from carlitz.series import TruncSeries


def rand_poly(rng, fq, deg):
    return Poly(fq, "T", [FqElem(fq, rng.randrange(fq.q)) for _ in range(deg + 1)])


def solved_exp(fq, prec):
    """Oracle: e(z) = z + ... solved degree by degree from phi_T(e) = e(Tz);
    the coefficient of z^n is fixed by (T^n - T) c_n = [z^n] e^q."""
    F = base_field(fq)
    t = F.gen()
    coeffs = [F.zero] * prec
    coeffs[1] = F.one
    for n in range(2, prec):
        partial = TruncSeries(F, "z", 0, coeffs[:n], None)  # exact so far
        lhs = partial.mul_scalar(t) + partial ** fq.q
        residual = (lhs - partial.scale_argument(t)).coefficient(n)
        coeffs[n] = residual / (t ** n - t)
    return TruncSeries(F, "z", 0, coeffs, prec)


def reverted_series(e):
    """Oracle: the compositional inverse of e = z + ..., term by term."""
    F = e.ring
    coeffs = [F.zero] * e.prec
    coeffs[1] = F.one
    for n in range(2, e.prec):
        partial = TruncSeries(F, "z", 0, coeffs[:n], None)  # exact so far
        coeffs[n] = -e.truncate(n + 1).compose(partial).coefficient(n)
    return TruncSeries(F, "z", 0, coeffs, e.prec)


def test_skew_multiplication_twists_scalars():
    f3 = Fq.get(3)
    t = poly_parse("T", f3)
    tau = SkewPoly(f3, [Poly(f3, "T", []), Poly(f3, "T", [f3.one])])
    c = SkewPoly.const(f3, t)
    left = tau * c   # tau T = T^3 tau
    right = c * tau  # T tau
    assert left.coeff(1) == t ** 3
    assert right.coeff(1) == t
    assert left != right


def test_phi_T_is_the_defining_operator():
    f3 = Fq.get(3)
    phi_t = carlitz_phi(poly_parse("T", f3))
    assert phi_t.coeff(0) == poly_parse("T", f3)
    assert phi_t.coeff(1) == Poly(f3, "T", [f3.one])
    assert phi_t.tau_degree == 1


def test_phi_is_ring_homomorphism():
    rng = random.Random(41)
    for q in (2, 3, 4):
        fq = Fq.get(q)
        for _ in range(8):
            a = rand_poly(rng, fq, rng.randrange(4))
            b = rand_poly(rng, fq, rng.randrange(4))
            assert carlitz_phi(a + b) == carlitz_phi(a) + carlitz_phi(b)
            assert carlitz_phi(a * b) == carlitz_phi(a) * carlitz_phi(b)
            assert carlitz_phi(a * b) == carlitz_phi(b) * carlitz_phi(a)


def test_phi_degree_and_leading_coefficient():
    f2 = Fq.get(2)
    a = poly_parse("T^3+T+1", f2)
    sk = carlitz_phi(a)
    assert sk.tau_degree == 3
    assert sk.coeff(3) == Poly(f2, "T", [f2.one])  # monic a gives leading 1
    assert sk.coeff(0) == a


def test_torsion_poly_degree_and_additivity():
    f2 = Fq.get(2)
    pi = poly_parse("T^2+T+1", f2)
    for n in (1, 2):
        p = torsion_poly(pi, n)
        assert p.degree == 2 ** (2 * n)
        # additive polynomials have support only at q-power exponents
        for e, c in enumerate(p.coeffs):
            if not c.is_zero():
                assert e & (e - 1) == 0  # power of 2


def test_omega_minpoly_divides_torsion_tower():
    for q in (2, 3):
        fq = Fq.get(q)
        for pi in [p for d in (1, 2) for p in monic_enumerate(fq, d) if is_irreducible(p)]:
            for n in (1, 2):
                m = omega_minpoly(pi, n)
                below = torsion_poly(pi, n - 1) if n > 1 else Poly.gen(
                    m.ring, m.var)
                assert m * below == torsion_poly(pi, n)
                assert m.is_monic()
                assert m.constant == pi
                for c in m.coeffs[:-1]:
                    assert (c % pi).is_zero()  # Eisenstein


def test_brackets_and_factorial_sequences():
    f3 = Fq.get(3)
    t = poly_parse("T", f3)
    assert bracket(f3, 1) == t ** 3 - t
    assert bracket(f3, 2) == t ** 9 - t
    ds = d_sequence(f3, 3)
    assert ds[0] == Poly(f3, "T", [f3.one])
    assert ds[1] == bracket(f3, 1)
    assert ds[2] == bracket(f3, 2) * ds[1] ** 3
    ls = l_sequence(f3, 3)
    assert ls[2] == bracket(f3, 2) * bracket(f3, 1)


def test_factorial_digit_product():
    f3 = Fq.get(3)
    ds = d_sequence(f3, 3)
    # 14 = 112 base 3
    assert carlitz_factorial(14, f3) == ds[0] ** 2 * ds[1] ** 1 * ds[2] ** 1
    assert carlitz_factorial(0, f3) == Poly(f3, "T", [f3.one])
    for i in range(3):
        assert carlitz_factorial(3 ** i, f3) == ds[i]


def test_exp_coefficients_are_inverse_factorials():
    for q in (2, 3):
        fq = Fq.get(q)
        F = base_field(fq)
        e = carlitz_exp(fq, q ** 2 + 1)
        ds = d_sequence(fq, 3)
        for i in range(3):
            if q ** i < q ** 2 + 1:
                assert e.coefficient(q ** i) == F.one / F.coerce(ds[i])
        # everything off the q-power lattice vanishes
        for n in range(1, q ** 2 + 1):
            if n not in (q ** 0, q ** 1, q ** 2):
                assert e.coefficient(n).is_zero()


def test_closed_forms_match_solved_series():
    for q in (2, 3, 4, 5, 7):
        fq = Fq.get(q)
        prec = q ** 2 + 2
        e = solved_exp(fq, prec)
        assert carlitz_exp(fq, prec) == e
        assert carlitz_log(fq, prec) == reverted_series(e)


def test_exp_satisfies_the_functional_equation():
    for q in (2, 3):
        fq = Fq.get(q)
        F = base_field(fq)
        T = F.coerce(poly_parse("T", fq))
        e = carlitz_exp(fq, 12)
        lhs = e.mul_scalar(T) + e ** q
        assert lhs.agrees_with(e.scale_argument(T))


def test_log_is_compositional_inverse():
    for q in (2, 3):
        fq = Fq.get(q)
        e = carlitz_exp(fq, 11)
        lam = carlitz_log(fq, 11)
        z = TruncSeries.monomial(e.ring, "z", 1, 1, 11)
        assert e.compose(lam).agrees_with(z)
        assert lam.compose(e).agrees_with(z)


def test_log_coefficients_alternate_over_l_sequence():
    f3 = Fq.get(3)
    F = base_field(f3)
    lam = carlitz_log(f3, 10)
    ls = l_sequence(f3, 3)
    assert lam.coefficient(1) == F.one
    assert lam.coefficient(3) == -(F.one / F.coerce(ls[1]))
    assert lam.coefficient(9) == F.one / F.coerce(ls[2])


def test_bernoulli_known_values_q2():
    # from 1/e = z^-1 (1 - g + g^2 - ...) with g = z/D_1 + z^3/D_2 + ...:
    # BC_1 = 1/D_1 and BC_2 = Pi(2)/D_1^2 = 1/D_1
    f2 = Fq.get(2)
    F = base_field(f2)
    d1 = F.coerce(d_sequence(f2, 2)[1])
    assert bernoulli_carlitz(1, f2).value == F.one / d1
    assert bernoulli_carlitz(2, f2).value == F.one / d1
    assert bernoulli_carlitz(0, f2).value == F.one


def test_bernoulli_known_values_q3():
    # [z^1](1/e) = -1/D_1, [z^3](1/e) = 1/D_1^2, [z^5](1/e) = -1/D_1^3,
    # with Pi(2) = 1, Pi(4) = D_1, Pi(6) = D_1^2
    f3 = Fq.get(3)
    F = base_field(f3)
    d1 = F.coerce(d_sequence(f3, 2)[1])
    assert bernoulli_carlitz(2, f3).value == -(F.one / d1)
    assert bernoulli_carlitz(4, f3).value == F.one / d1
    assert bernoulli_carlitz(6, f3).value == -(F.one / d1)


def test_bernoulli_vanishing_and_factorials():
    for q in (2, 3, 4):
        fq = Fq.get(q)
        singles = [bernoulli_carlitz(n, fq) for n in range(13)]
        for n in range(13):
            assert bernoulli_carlitz_table(n, fq) == singles[:n + 1]
        for n, bc in enumerate(singles):
            assert bc.n == n
            if n % (q - 1) != 0:
                assert bc.value.is_zero()
            assert bc.factorial == carlitz_factorial(n, fq)
    # the table's factorials come from one recurrence, the per-n digit
    # products are its oracle: past the carry into the third base-q digit
    for q in (2, 3, 4, 5, 9):
        fq = Fq.get(q)
        nmax = q * q + q + 1
        table = bernoulli_carlitz_table(nmax, fq)
        assert [bc.factorial for bc in table] == [
            carlitz_factorial(n, fq) for n in range(nmax + 1)]
    with pytest.raises(ValueError):
        bernoulli_carlitz_table(-1, Fq.get(2))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_cached_reciprocal_is_a_fresh_inversion(q, monkeypatch):
    fq = Fq.get(q)
    precs = range(2, 41)
    fresh = {p: carlitz_exp(fq, p).invert() for p in precs}
    for order in (precs, reversed(precs)):  # smallest-first, largest-first
        monkeypatch.setattr(cmod, "_RECIP_CACHE", {})
        for p in order:
            got = cmod._exp_reciprocal(fq, p)
            assert (got.order, got.prec) == (fresh[p].order, fresh[p].prec)
            assert got == fresh[p]


def count_inversions(monkeypatch):
    calls = []
    real = TruncSeries.invert

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(TruncSeries, "invert", counted)
    return calls


def test_warm_bernoulli_values_invert_nothing(monkeypatch):
    fq = Fq.get(3)
    bernoulli_carlitz_table(12, fq)  # warm the cache
    calls = count_inversions(monkeypatch)
    bernoulli_carlitz_table(12, fq)
    for n in range(13):
        bernoulli_carlitz(n, fq)
    assert calls == []


def test_cw_verify_left_side_inverts_its_own_series(monkeypatch):
    # the right side reads the cached 1/e(z); the left side must not, or
    # the two sides of the law would share more than the certified e(z):
    # it makes exactly one series division of its own and never reads
    # cmod._RECIP_CACHE
    f2 = Fq.get(2)
    a, b = poly_parse("T", f2), poly_parse("T+1", f2)
    cw_verify(a, b, 10)  # warm every cache
    left, divisions, reads = [], [], []
    real_div, real_left = TruncSeries.__truediv__, cw.dlog_exp_series

    def divide(self, other):
        divisions.append(bool(left))
        return real_div(self, other)

    def left_side(*args):
        left.append(True)
        try:
            return real_left(*args)
        finally:
            left.pop()

    class ReadSpy(dict):
        def get(self, *args):
            reads.append(bool(left))
            return super().get(*args)

        def __getitem__(self, key):
            reads.append(bool(left))
            return super().__getitem__(key)

    monkeypatch.setattr(TruncSeries, "__truediv__", divide)
    monkeypatch.setattr(cw, "dlog_exp_series", left_side)
    monkeypatch.setattr(cmod, "_RECIP_CACHE", ReadSpy(cmod._RECIP_CACHE))
    assert cw_verify(a, b, 10).passed
    assert divisions == [True]
    assert reads and not any(reads)  # the right side's reads only


def test_minpoly_rejects_reducible_modulus():
    f2 = Fq.get(2)
    with pytest.raises(ValueError):
        omega_minpoly(poly_parse("T^2+1", f2), 1)  # (T+1)^2
    with pytest.raises(ValueError):
        torsion_poly(poly_parse("T^2", f2), 1)


def test_minpoly_checks_eisenstein_coefficients(monkeypatch):
    # one remainder mod pi per coefficient: phi_T(x) + x^2 over F_3 gives
    # m = x^2 + x + T, monic with constant T but x-coefficient 1
    f3 = Fq.get(3)
    pi = poly_parse("T", f3)
    real = cmod.torsion_poly
    A = PolyRing(f3, "T")
    x2 = Poly(A, "x", [A.zero, A.zero, A.one])
    monkeypatch.setattr(cmod, "torsion_poly", lambda p, n: real(p, n) + x2)
    with pytest.raises(InvariantError,
                       match=r"coefficient 1 not divisible by T"):
        omega_minpoly(pi, 1)


def test_bc_value_record_contract():
    f3 = Fq.get(3)
    bc = bernoulli_carlitz(2, f3)
    assert isinstance(bc, cmod.BCValue)
    assert bc.n == 2 and bc.factorial == carlitz_factorial(2, f3)
    again = cmod.BCValue(n=bc.n, value=bc.value, factorial=bc.factorial)
    assert again == cmod.BCValue(bc.n, bc.value, bc.factorial) == bc
    assert hash(again) == hash(bc)
    assert again != cmod.BCValue(3, bc.value, bc.factorial)
    with pytest.raises(AttributeError):
        bc.n = 4
    assert repr(bc).startswith("BCValue(n=2, ")
    assert str(bc) == f"BC_2 = {bc.value}"


def count_irreducibility_tests(monkeypatch):
    # poly.is_monic_prime, behind every prime check, calls this name
    calls = []
    real = poly.is_irreducible

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(poly, "is_irreducible", counted)
    return calls


def test_accepted_prime_is_tested_once(monkeypatch):
    f3 = Fq.get(3)
    pi = poly_parse("T^2+1", f3)
    x = Poly.gen(base_field(f3), "x")
    ColemanSeries(x, pi)
    calls = count_irreducibility_tests(monkeypatch)
    again = ColemanSeries(x, poly_parse("T^2+1", f3))
    assert again.pi == pi and calls == []
    torsion_poly(pi, 1)
    omega_minpoly(pi, 2)
    assert calls == []


def test_rejected_prime_raises_on_every_call(monkeypatch):
    f2 = Fq.get(2)
    pi = poly_parse("T^2+1", f2)  # (T+1)^2
    x = Poly.gen(base_field(f2), "x")
    calls = count_irreducibility_tests(monkeypatch)
    for _ in range(3):
        with pytest.raises(ValueError):
            ColemanSeries(x, pi)
    assert len(calls) == 3


def test_residue_rings_and_stickelberger_share_one_prime_test(monkeypatch):
    f2 = Fq.get(2)
    pi, t = poly_parse("T^2+T+1", f2), poly_parse("T", f2)
    monkeypatch.setattr(poly, "_PRIMES", set())  # forget earlier tests
    calls = count_irreducibility_tests(monkeypatch)
    for n in (1, 2, 3):
        GroupRing(pi, n)
    stickelberger_series(pi, 1, t_aux=(t,), udeg=12)
    assert calls.count(pi) == 1


@st.composite
def phi_cases(draw):
    """a, b in F_q[T] with q^(deg a + deg b) <= 81, and c in F_q."""
    q = draw(st.sampled_from((2, 3, 4, 9)))
    fq = Fq.get(q)
    digit = st.integers(0, q - 1).map(lambda i: FqElem(fq, i))
    top = {2: 6, 3: 4, 4: 3, 9: 2}[q]
    da = draw(st.integers(0, top // 2))
    db = draw(st.integers(0, top - da))
    a, b = (Poly(fq, "T", draw(st.lists(digit, min_size=d + 1,
                                         max_size=d + 1)))
            for d in (da, db))
    return a, b, draw(digit)


@settings(max_examples=30)
@given(case=phi_cases())
def test_phi_is_an_fq_algebra_homomorphism(case):
    a, b, c = case

    def phi(x):
        return carlitz_phi(x).as_additive()
    assert phi(a + b) == phi(a) + phi(b)
    assert phi(a * b) == phi(a).compose(phi(b))
    cx = phi(Poly(a.ring, "T", [c]))
    x = Poly.gen(cx.ring, "x")
    assert cx == x.mul_scalar(cx.ring.coerce(c))
