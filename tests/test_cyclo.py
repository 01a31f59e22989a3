import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from carlitz import cyclo, poly as poly_mod, quotient
from carlitz.cmod import carlitz_phi
from carlitz.coleman import ColemanSeries, eval_at_omega, x_field
from carlitz.cyclo import (
    CycloField, _norm_poly, _torsion, cyclotomic_unit, field_norm,
    galois_act, upsilon, valuation_at_p,
)
from carlitz.errors import InvariantError
from carlitz.fq import Fq
from carlitz.groupring import cyclotomic_poly
from carlitz.poly import (
    Poly, PolyRing, all_residues, is_irreducible, monic_enumerate,
    poly_parse,
)
from carlitz.quotient import QuotElem
from carlitz.ratfun import RatFun, base_field
from norm_oracle import poly_route, torsion_quotient, torsion_route


def irreducibles(fq, d):
    return [p for p in monic_enumerate(fq, d) if is_irreducible(p)]


def rand_elem(rng, field):
    rep = Poly(field.F, "x",
               [field.F.coerce(rng.randrange(field.fq.q))
                for _ in range(field.degree)])
    return field.coerce(rep)


def rand_frac_elem(rng, field):
    """A dense element whose coefficients often have T-denominators."""
    fq, F = field.fq, field.F
    dens = [F.one, F.coerce(poly_parse("T", fq)),
            F.coerce(poly_parse("T+1", fq))]
    cs = [F.coerce(Poly(fq, "T", [fq.from_index(rng.randrange(fq.q))
                                  for _ in range(2)])) / rng.choice(dens)
          for _ in range(field.degree)]
    return field.coerce(Poly(F, "x", cs))


def conjugate_product(e, m):
    """Oracle for field_norm down to level m >= 1: the product of the
    conjugates galois_act(1 + pi^m b, e) over b of degree < (n-m) deg pi,
    still an element of the level-n field."""
    field = e.ring
    fq, pi = field.fq, field.pi
    one = Poly(fq, pi.var, [fq.one])
    acc = field.one
    for b in all_residues(fq, (field.n - m) * pi.degree, pi.var):
        acc = acc * galois_act(one + pi ** m * b, e)
    return acc


def embed(x, field):
    """x in a lower level as an element of field: omega_m goes to
    phi_{pi^(n-m)}(omega_n), so no linear solve is needed."""
    k = field.n - x.ring.n
    image = carlitz_phi(field.pi ** k).eval(field.omega, field)
    return x.rep.eval(image, field)


def test_degrees_match_unit_group_order():
    for q in (2, 3):
        fq = Fq.get(q)
        for d in (1, 2):
            for pi in irreducibles(fq, d):
                for n in (1, 2):
                    field = CycloField.get(pi, n)
                    expect = q ** ((n - 1) * d) * (q ** d - 1)
                    assert field.degree == expect
                    assert len(field.galois_reps()) == expect


def test_omega_is_a_root_of_its_minpoly():
    f2 = Fq.get(2)
    pi = poly_parse("T^2+T+1", f2)
    field = CycloField.get(pi, 2)
    m = field.minpoly_A.map_coeffs(field.F.coerce, ring=field.F)
    assert m.eval(field.omega, ring=field).rep.is_zero()


def test_norm_of_omega_down_to_base_is_pm_pi():
    for q in (2, 3):
        fq = Fq.get(q)
        for pi in irreducibles(fq, 1) + irreducibles(fq, 2):
            field = CycloField.get(pi, 1)
            nrm = field_norm(field.omega, 0)
            sign = (-1) ** field.degree
            assert nrm == field.F.coerce(pi) * field.F.coerce(sign)


def test_tower_norm_sends_omega2_to_omega1():
    # and N(omega_n) = omega_m at every level below n = 3
    for q in (2, 3):
        fq = Fq.get(q)
        pi = poly_parse("T", fq)
        for n, m in ((2, 1), (3, 1), (3, 2)):
            field = CycloField.get(pi, n)
            assert field_norm(field.omega, m) == CycloField.get(pi, m).omega


@pytest.mark.parametrize("q,pi_text,n,m", [
    (2, "T", 3, 1), (2, "T", 3, 2), (2, "T^2+T+1", 2, 1), (3, "T", 2, 1),
    (4, "T", 2, 1), (5, "T", 2, 1)])
def test_tower_norm_matches_conjugate_product(q, pi_text, n, m):
    rng = random.Random(10 * q + n + m)
    field = CycloField.get(poly_parse(pi_text, Fq.get(q)), n)
    for _ in range(2):
        e = rand_frac_elem(rng, field)
        nrm = field_norm(e, m)
        assert nrm.ring == CycloField.get(field.pi, m)
        assert embed(nrm, field) == conjugate_product(e, m)


@pytest.mark.parametrize("q,n,m", [(2, 3, 1), (2, 3, 2), (3, 2, 1),
                                   (4, 2, 1)])
def test_tower_norm_of_zero_and_constants(q, n, m):
    fq = Fq.get(q)
    pi = poly_parse("T", fq)
    field, sub = CycloField.get(pi, n), CycloField.get(pi, m)
    assert field_norm(field.zero, m) == sub.zero
    # a constant is its own conjugate: N(c) = c^[F_n:F_m]
    c = field.F.coerce(poly_parse("T+1", fq)) / field.F.coerce(pi)
    assert field_norm(field.coerce(c), m) == \
        sub.coerce(c ** (field.degree // sub.degree))


@st.composite
def transitivity_cases(draw):
    """Monic linear a, b over F_q, q in {2, 3, 4}, so ab is composite of
    degree 2 (a square when a = b), and p over F with T-denominators."""
    q = draw(st.sampled_from((2, 3, 4)))
    fq = Fq.get(q)
    F = base_field(fq)
    a, b = (draw(st.sampled_from(monic_enumerate(fq, 1))) for _ in range(2))
    dens = [F.one, F.coerce(poly_parse("T", fq)),
            F.coerce(poly_parse("T+1", fq))]

    def coeff(num):
        return F.coerce(num) / draw(st.sampled_from(dens))
    cs = [coeff(Poly(fq, "T", [fq.from_index(draw(st.integers(0, q - 1)))
                               for _ in range(2)]))
          for _ in range(draw(st.integers(0, 2)))]
    return Poly(F, "x", cs + [coeff(Poly(fq, "T", [fq.one]))]), a, b


@settings(max_examples=25)
@given(case=transitivity_cases())
def test_torsion_norm_is_transitive(case):
    # phi_ab = phi_a phi_b: norming along phi_b, then phi_a, is norming
    # along phi_ab; a stray q^deg pi for q^deg a breaks the d^n scaling
    p, a, b = case
    assert _norm_poly(p, a * b) == _norm_poly(_norm_poly(p, b), a)
    # phi_1(x) = x has the single torsion point 0
    assert _norm_poly(p, a ** 0) == p


def over_x(b):
    """Whether a matrix entry of the torsion norm depends on x: an A-value
    is an index list of ints over F_p and a Poly over F_{p^m}, an
    A[x]-value a list of A-values, x low first."""
    return isinstance(b, list) and len(b) > 1 and not isinstance(b[0], int)


def norm_sides(p, a):
    """The uncached _norm_poly(p, a) and, for every matrix it hands to
    ``charpoly`` (directly or through ``det``), its side and whether an
    entry depends on x."""
    real = quotient.charpoly
    sides = []

    def spy(mat, *ops):
        sides.append((len(mat), any(over_x(b) for row in mat for b in row)))
        return real(mat, *ops)
    with mock.patch.object(cyclo, "charpoly", spy), \
            mock.patch.object(quotient, "charpoly", spy):
        return _norm_poly.__wrapped__(p, a), sides


def grid_poly(rng, fq, k, lead, with_dens):
    """Degree-k p over F, small random coefficients below the F-element
    lead, over the denominators T and T + 1 when with_dens."""
    F = base_field(fq)
    dens = [F.one]
    if with_dens:
        dens += [F.coerce(poly_parse("T", fq)),
                 F.coerce(poly_parse("T+1", fq))]
    cs = [F.coerce(Poly(fq, "T", [fq.from_index(rng.randrange(fq.q))
                                  for _ in range(2)])) / rng.choice(dens)
          for _ in range(k)]
    return Poly(F, "x", cs + [lead])


@pytest.mark.parametrize("q,a_text", [
    (2, "T"), (2, "T^2"), (3, "T"), (3, "T^2"), (4, "T"), (5, "T"),
    (9, "T")])
def test_norm_poly_matches_torsion_route(q, a_text):
    # the uncached norm against the Q x Q oracle, exact and over
    # T-denominators.  Once the denominators are cleared, d p has a leading
    # coefficient in F_q^* for the first two variants (T and T + 1 divide
    # T^2 + T, so d = T^2 + T) and outside it for the other three.  Every
    # p takes one characteristic polynomial of side below Q, or of side Q
    # with entries free of x when deg p = Q, that leading coefficient lies
    # in F_q^* and p is kept unreduced.  deg p runs from 0 to 2Q + 1; at
    # Q = 9, where one p of degree past Q + 1 takes seconds, it stops at
    # Q + 1 with one variant per degree
    fq = Fq.get(q)
    F = base_field(fq)
    a = poly_parse(a_text, fq)
    Q = q ** a.degree
    rng = random.Random(7 * q + Q)
    unit = F.coerce(fq.from_index(q - 1))
    non_unit = F.coerce(poly_parse("T+1", fq))
    over_d = unit / F.coerce(poly_parse("T^2+T", fq))
    variants = [(unit, False), (over_d, True), (non_unit, False),
                (non_unit, True), (non_unit / over_d, True)]
    for k in range(Q + 2 if Q > 5 else 2 * Q + 2):
        for v, (lead, with_dens) in enumerate(variants):
            if Q > 5 and v != k % len(variants):
                continue
            p = grid_poly(rng, fq, k, lead, with_dens)
            got, sides = norm_sides(p, a)
            assert got == torsion_route(p, a), (k, p)
            assert len(sides) <= 1 and all(
                n < Q or n == Q and not over_x for n, over_x in sides), \
                (k, p, sides)


def test_norm_poly_pins_a_leading_coefficient_in_x():
    # q = 2, a = T: y^2 = x + T y mod phi_T(y) - x, so p = x^3 + T x^2 +
    # T x + 1 reduces to (x + T) y + 1, whose leading coefficient
    # depends on x; the norm divides by c^(Q(k - 1)) = 1 here
    f2 = Fq.get(2)
    F = base_field(f2)
    a = poly_parse("T", f2)
    T = F.coerce(a)
    p = Poly(F, "x", [F.one, T, T, F.one])
    qr = torsion_quotient(a)
    R = qr.K
    A = R.cring
    pbar = qr.coerce(Poly(R, qr.var, [Poly(A, R.var, [c.num])
                                      for c in p.coeffs])).rep
    assert pbar == Poly(R, qr.var, [R.one, Poly(A, R.var, [a, A.one])])
    want = Poly(F, "x", [T * T + F.one, T * T + T, F.zero, F.one])
    got, sides = norm_sides(p, a)
    assert got == want == torsion_route(p, a)
    assert sides == [(1, True)]


def test_norm_poly_keeps_p_of_degree_q_when_reducing_does_not_pay():
    # q = 3, a = T, Q = 3: y^3 = x - T y mod phi_T(y) - x.  y^3 + T y^2 + 1
    # reduces to T y^2 - T y + x + 1, led by T, so it is kept: one 3 x 3
    # matrix free of x.  y^3 + (T + 1) y reduces to y + x, led by 1: one
    # 1 x 1 matrix in x
    f3 = Fq.get(3)
    F = base_field(f3)
    a = poly_parse("T", f3)
    T = F.coerce(a)
    for p, want in ((Poly(F, "x", [F.one, F.zero, T, F.one]), [(3, False)]),
                    (Poly(F, "x", [F.zero, T + F.one, F.zero, F.one]),
                     [(1, True)])):
        got, sides = norm_sides(p, a)
        assert got == torsion_route(p, a)
        assert sides == want


def test_norm_poly_certifies_its_division(monkeypatch):
    # q = 3, a = T: y^5 + 1 reduces to x y^2 + T^2 y - T x + 1, so
    # c = x and k = 2: the determinant must be divisible by c^Q in F[x].
    # One changed coefficient of the characteristic polynomial breaks that
    f3 = Fq.get(3)
    F = base_field(f3)
    a = poly_parse("T", f3)
    p = Poly(F, "x", [F.one] + [F.zero] * 4 + [F.one])
    assert _norm_poly.__wrapped__(p, a) == torsion_route(p, a)
    real = quotient.charpoly
    one = F.kernel.x.one  # the matrix is over A[x]

    def perturbed(mat, add, mul, neg):
        chi = real(mat, add, mul, neg)
        return chi[:-1] + [add(chi[-1], one)]
    monkeypatch.setattr(cyclo, "charpoly", perturbed)
    with pytest.raises(InvariantError, match=r"not divisible .* A\[x\]"):
        _norm_poly.__wrapped__(p, a)


# (q, deg a): every q of the differential test, and a of degree 2 where Q
# stays small enough for the oracles
NORM_FIELDS = ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (5, 1), (7, 1),
               (9, 1))


def norm_shapes(q, Q):
    """The shapes of ``norm_case`` taken at q and Q = q^deg a.  Over F_9 a
    norm of degree Q takes seconds (the generic loops), and
    test_norm_poly_matches_torsion_route covers it."""
    shapes = ["below", "constant"]
    if q != 9:
        shapes += ["at", "above"]
    if Q >= 3:
        shapes.append("x_lead")
    return shapes


@st.composite
def norm_case(draw, q, deg_a, shape):
    """(p, a): a monic a of degree deg_a, Q = q^deg a, and p over F with
    small coefficients over the T-denominators 1, T and T + 1.  By shape:
    p of degree below Q, at Q or above it, led by 1, by another unit, by
    T + 1 or by a fraction; p = r(phi_a(x)) with deg r in {1, 2}, whose
    reduction mod phi_a(y) - x is the constant r(x); or p = c x^m phi_a(x)
    + r(x) with 2 <= m <= min(3, Q - 1) and deg r < m, which reduces to
    c x y^m + r(y), led by c x: a matrix over A[x] and an e that depends
    on x."""
    fq = Fq.get(q)
    F = base_field(fq)
    a = draw(st.sampled_from(monic_enumerate(fq, deg_a)))
    Q = q ** deg_a
    T = F.coerce(poly_parse("T", fq))

    def coeff(nonzero=False):
        low = draw(st.integers(int(nonzero), q - 1))
        c = F.coerce(Poly(fq, "T", [fq.from_index(low),
                                    fq.from_index(draw(st.integers(0, q - 1)))]))
        return c / draw(st.sampled_from((F.one, T, T + F.one)))
    phi = Poly(F, "x", [F.coerce(c) for c in carlitz_phi(a)
                        .as_additive(var="x").coeffs])
    if shape == "constant":
        r = [coeff() for _ in range(draw(st.integers(1, 2)))]
        p = Poly(F, "x", [coeff(True)])
        for c in r:
            p = p * phi + Poly(F, "x", [c])
        return p, a
    if shape == "x_lead":
        m = draw(st.integers(2, min(3, Q - 1)))
        lead = Poly(F, "x", [F.zero] * m + [coeff(True)])
        return lead * phi + Poly(F, "x", [coeff() for _ in range(m)]), a
    k = {"below": st.integers(0, Q - 1), "at": st.just(Q),
         "above": st.integers(Q + 1, Q + 2)}[shape]
    lead = draw(st.sampled_from((
        F.one, F.coerce(fq.from_index(q - 1)), T + F.one,
        F.coerce(fq.from_index(q - 1)) / (T * T + T))))
    return Poly(F, "x", [coeff() for _ in range(draw(k))] + [lead]), a


@pytest.mark.parametrize("q,deg_a,shape", [
    (q, d, shape) for q, d in NORM_FIELDS for shape in norm_shapes(q, q ** d)])
@settings(max_examples=5)
@given(data=st.data())
def test_norm_poly_matches_the_poly_route_and_the_torsion_route(
        q, deg_a, shape, data):
    # the kernel route against the same route on Polys over A and A[x]
    # and, where Q x Q stays cheap, against the determinant
    Q = q ** deg_a
    p, a = data.draw(norm_case(q, deg_a, shape))
    got, sides = norm_sides(p, a)
    assert got == poly_route(p, a), (p, a)
    if Q <= 5:
        assert got == torsion_route(p, a), (p, a)
    assert all(n < Q or n == Q and not x for n, x in sides), sides
    if shape == "constant":
        assert sides == []
    if shape == "x_lead":
        assert sides == [(p.degree - Q, True)]
    if shape == "above":
        assert sides == [] or sides[0][0] < Q


def norm_route_calls(fn, *args):
    """fn(*args) and what it did among: a Poly built over A or A[x] (a
    PolyRing parent), Poly.__mul__, Poly.divmod and _divmod_generic."""
    seen = []
    init, mul, divmod_ = Poly.__init__, Poly.__mul__, Poly.divmod
    generic = poly_mod._divmod_generic

    def spy_init(self, ring, var, coeffs):
        if isinstance(ring, PolyRing):
            seen.append(("Poly", ring))
        init(self, ring, var, coeffs)

    def spy(name, real):
        def wrapped(*a):
            seen.append(name)
            return real(*a)
        return wrapped
    with mock.patch.object(Poly, "__init__", spy_init), \
            mock.patch.object(Poly, "__mul__", spy("mul", mul)), \
            mock.patch.object(Poly, "divmod", spy("divmod", divmod_)), \
            mock.patch.object(poly_mod, "_divmod_generic",
                              spy("_divmod_generic", generic)):
        return fn(*args), seen


@pytest.mark.parametrize("q", (2, 3, 5))
def test_norm_poly_over_fp_takes_no_poly_over_a(q):
    # over F_p(T) the torsion norm runs on index lists from the cleared
    # coefficients to the boxed answer: reduction, matrix, Berkowitz and
    # the division by e build no Poly over A or A[x], multiply no Poly and
    # divide none
    fq = Fq.get(q)
    F = base_field(fq)
    T = F.coerce(poly_parse("T", fq))
    rng = random.Random(q)
    for a_text in ("T", "T+1") + (("T^2",) if q == 2 else ()):
        a = poly_parse(a_text, fq)
        Q = q ** a.degree
        cyclo._torsion(a)  # built once per a
        cases = [grid_poly(rng, fq, k, lead, True)
                 for k in (1, Q - 1, Q, Q + 1, Q + 3)
                 for lead in (F.one, T + F.one, F.one / (T * T + T))]
        if q == 3 and a_text == "T":
            # reduces to x y^2 + ...: a matrix over A[x] and e = x^3
            cases.append(Poly(F, "x", [F.one] + [F.zero] * 4 + [F.one]))
        for p in cases:
            got, seen = norm_route_calls(_norm_poly.__wrapped__, p, a)
            assert seen == [], (p, a, seen)
            assert got == poly_route(p, a)


def test_norm_memo_matches_the_uncached_norm():
    # _norm_poly is an LRU cache on (p, a): on a seeded grid every value is
    # the uncached one, and a repeat is a hit handing back the same object
    rng = random.Random(19)
    for q in (2, 3, 4):
        fq = Fq.get(q)
        F = base_field(fq)
        over_d = F.coerce(fq.from_index(q - 1)) / F.coerce(
            poly_parse("T^2+T", fq))
        for a in (rng.sample(monic_enumerate(fq, 1), 2)
                  + rng.sample(monic_enumerate(fq, 2), 2)):
            for k in (1, 2):
                for lead, with_dens in ((F.one, False), (over_d, True)):
                    p = grid_poly(rng, fq, k, lead, with_dens)
                    got = _norm_poly(p, a)
                    assert got == _norm_poly.__wrapped__(p, a), (a, p)
                    hits = _norm_poly.cache_info().hits
                    assert _norm_poly(p, a) is got
                    assert _norm_poly.cache_info().hits == hits + 1
    # the same coefficients over another F_q are another key
    f2, f3 = Fq.get(2), Fq.get(3)
    for fq in (f2, f3):
        F = base_field(fq)
        p = Poly(F, "x", [F.one, F.one])
        assert _norm_poly(p, poly_parse("T", fq)).ring == F


@st.composite
def split_products(draw):
    """p with deg p <= Q, its leading coefficient in F_q^* or T + 1 once
    denominators are cleared, and r with deg(p r) > Q, so that p r is
    reduced mod phi_a(y) - x first; over F with T-denominators, a monic
    linear, q in {2, 3, 4}."""
    q = draw(st.sampled_from((2, 3, 4)))
    fq = Fq.get(q)
    F = base_field(fq)
    a = draw(st.sampled_from(monic_enumerate(fq, 1)))
    dens = [F.one, F.coerce(poly_parse("T", fq)),
            F.coerce(poly_parse("T+1", fq))]

    digit = st.integers(0, q - 1).map(fq.from_index)

    def coeffs(n):
        return [F.coerce(Poly(fq, "T", [draw(digit), draw(digit)]))
                / draw(st.sampled_from(dens)) for _ in range(n)]
    low = coeffs(draw(st.integers(0, q)))
    lead = F.coerce(fq.from_index(draw(st.integers(1, q - 1))))
    if draw(st.booleans()):
        lead = lead * F.coerce(poly_parse("T+1", fq))
    if any(not c.den.is_one() for c in low):
        lead = lead / F.coerce(poly_parse("T^2+T", fq))  # d = T^2 + T
    r = Poly(F, "x", coeffs(q - len(low) + 1) + [F.one])
    return Poly(F, "x", low + [lead]), r, a


@settings(max_examples=25)
@given(case=split_products())
def test_norm_is_multiplicative_across_the_size_rule(case):
    # the size rule is now only where P is reduced first: past deg P = Q,
    # and at it unless P is led by F_q^* and its reduction is not
    p, r, a = case
    Q = a.ring.q ** a.degree
    assert p.degree <= Q < (p * r).degree
    whole, sides = norm_sides(p * r, a)
    part, more = norm_sides(p, a)
    assert whole == part * norm_sides(r, a)[0]
    # each norm, reduced or not, is one characteristic polynomial of
    # side below Q, or of side Q with entries free of x
    assert all(n < Q or n == Q and not over_x
               for n, over_x in sides + more), (sides, more)


def test_galois_action_is_an_action():
    rng = random.Random(97)
    f2 = Fq.get(2)
    pi = poly_parse("T^2+T+1", f2)
    field = CycloField.get(pi, 1)
    reps = field.galois_reps()
    for _ in range(10):
        a, b = rng.choice(reps), rng.choice(reps)
        e = rand_elem(rng, field)
        assert galois_act(a * b, e) == galois_act(a, galois_act(b, e))
    one = Poly(f2, "T", [f2.one])
    e = rand_elem(rng, field)
    assert galois_act(one, e) == e


def test_galois_action_is_a_field_automorphism():
    rng = random.Random(13)
    f3 = Fq.get(3)
    pi = poly_parse("T", f3)
    field = CycloField.get(pi, 2)
    a = poly_parse("T+1", f3)
    for _ in range(8):
        x, y = rand_elem(rng, field), rand_elem(rng, field)
        assert galois_act(a, x + y) == galois_act(a, x) + galois_act(a, y)
        assert galois_act(a, x * y) == galois_act(a, x) * galois_act(a, y)
    # fixes the base field pointwise
    c = field.coerce(field.F.coerce(poly_parse("T^2+1", f3)))
    assert galois_act(a, c) == c


def test_conjugates_of_omega_are_distinct_torsion_points():
    f2 = Fq.get(2)
    pi = poly_parse("T^2+T+1", f2)
    field = CycloField.get(pi, 1)
    images = [galois_act(a, field.omega) for a in field.galois_reps()]
    assert len({tuple(e.rep.coeffs) for e in images}) == field.degree


def test_norm_is_multiplicative_down_the_tower():
    rng = random.Random(55)
    f2 = Fq.get(2)
    pi = poly_parse("T", f2)
    field = CycloField.get(pi, 2)
    for target in (1, 0):
        for _ in range(6):
            x, y = rand_elem(rng, field), rand_elem(rng, field)
            assert field_norm(x * y, target) == \
                field_norm(x, target) * field_norm(y, target)


def test_valuations():
    f3 = Fq.get(3)
    pi = poly_parse("T", f3)
    field = CycloField.get(pi, 2)
    assert valuation_at_p(field.omega) == 1
    assert valuation_at_p(field.zero) == math.inf
    # pi is totally ramified with index = field degree
    assert valuation_at_p(field.coerce(field.F.coerce(pi))) == field.degree
    assert valuation_at_p(field.one) == 0


# (q, pi, level) for pi in {T, T^2+T+1, T^2+1} where pi is prime, levels
# 1-3, q in {2, 3, 4, 5}, while the field degree is at most 12: the oracle's
# norm is a Berkowitz determinant over F_q(T) of that side
def valuation_cases(max_degree=12):
    out = []
    for q in (2, 3, 4, 5):
        for pi_text in ("T", "T^2+T+1", "T^2+1"):
            pi = poly_parse(pi_text, Fq.get(q))
            if not is_irreducible(pi):
                continue
            for n in (1, 2, 3):
                # deg F_n/F = |(A/pi^n)^*|
                if (q ** pi.degree - 1) * q ** ((n - 1) * pi.degree) \
                        <= max_degree:
                    out.append((q, pi_text, n))
    return out


def pi_power_elem(rng, field):
    """A random element whose coefficients are small fractions times
    pi^k, -2 <= k <= 2, with pi also inside numerators and denominators;
    some coefficients are zero."""
    fq, F = field.fq, field.F
    pi = F.coerce(field.pi)

    def small():  # nonzero, of degree 0 or 1
        return Poly(fq, "T", [fq.from_index(rng.randrange(fq.q))
                              for _ in range(rng.randrange(2))]
                    + [fq.from_index(rng.randrange(1, fq.q))])

    cs = []
    for _ in range(field.degree):
        if rng.randrange(4) == 0:
            cs.append(F.zero)
            continue
        num = small() * field.pi ** rng.randrange(2)
        c = RatFun.make(F, num, small() * field.pi ** rng.randrange(2))
        cs.append(c * pi ** rng.randrange(-2, 3))
    return field.coerce(Poly(F, "x", cs))


@pytest.mark.parametrize("q,pi_text,n", valuation_cases())
def test_valuation_closed_form_matches_the_norm(q, pi_text, n):
    # the power-basis minimum against val_pi of the norm to F
    field = CycloField.get(poly_parse(pi_text, Fq.get(q)), n)
    deg, pi = field.degree, field.pi
    rng = random.Random(q * 100 + 10 * pi.degree + n)
    cases = [(field.omega ** k, k) for k in range(deg + 2)]
    cases += [(field.coerce(field.F.coerce(pi)) ** k, k * deg)
              for k in range(-2, 3)]
    # fewer random elements in the larger fields, where each norm costs more
    cases += [(pi_power_elem(rng, field), None)
              for _ in range(min(12, 24 // deg))]
    for e, want in cases:
        if e.is_zero():
            continue
        got = valuation_at_p(e)
        assert got == field_norm(e, 0).valuation(pi), e
        assert want is None or got == want


def test_valuation_refuses_an_unreduced_representative():
    field = CycloField.get(poly_parse("T", Fq.get(3)), 1)
    rep = Poly(field.F, "x", [field.F.one] * (field.degree + 1))
    with pytest.raises(InvariantError):
        valuation_at_p(QuotElem(field, rep))


def test_upsilon_valuation_is_exponent_sum():
    f2 = Fq.get(2)
    pi = poly_parse("T^2+T+1", f2)
    field = CycloField.get(pi, 1)
    reps = field.galois_reps()
    assert len(reps) == 3
    for exps in ([1, 0, 0], [1, 1, 1], [2, -1, 0], [0, -2, 1]):
        c = upsilon(field, dict(zip(reps, exps)))
        assert valuation_at_p(c) == sum(exps)


def test_cyclotomic_units_are_units_and_cocycle():
    f3 = Fq.get(3)
    pi = poly_parse("T", f3)
    field = CycloField.get(pi, 1)
    a = poly_parse("T+1", f3)
    b = poly_parse("T+2", f3)
    d = poly_parse("2", f3)
    cab = cyclotomic_unit(a, b, field)
    assert valuation_at_p(cab) == 0
    assert cab * cyclotomic_unit(b, a, field) == field.one
    assert cab * cyclotomic_unit(b, d, field) == cyclotomic_unit(a, d, field)


@pytest.mark.parametrize("q,pi_text,n", [
    (3, "T", 2), (2, "T^2+T+1", 1), (5, "T", 1)])
def test_cyclotomic_unit_matches_the_egcd_route(q, pi_text, n):
    # the stored inverse of phi_b(omega) against num / den by one egcd, for
    # every pair of classes; b is read mod pi^n, so b + pi^n is the same unit
    field = CycloField.get(poly_parse(pi_text, Fq.get(q)), n)
    reps = field.galois_reps()
    for b in reps:
        den = galois_act(b, field.omega)
        for a in reps:
            want = galois_act(a, field.omega) / den
            assert cyclotomic_unit(a, b, field) == want
            assert cyclotomic_unit(a, b + field.pi ** n, field) == want


def test_rejected_inputs():
    f2 = Fq.get(2)
    pi = poly_parse("T", f2)
    field = CycloField.get(pi, 1)
    with pytest.raises(ValueError):
        galois_act(pi, field.omega)  # not prime to pi
    with pytest.raises(ValueError):
        field_norm(field.omega, 2)  # above the field's own level
    other = CycloField.get(poly_parse("T+1", f2), 1)
    with pytest.raises(ValueError):
        field.coerce(other.omega)


@pytest.mark.parametrize("build,args", [
    (Fq.get, lambda: (4,)),
    (base_field, lambda: (Fq(3),)),
    (x_field, lambda: (Fq(3),)),
    (CycloField.get, lambda: (poly_parse("T^2+T+1", Fq.get(2)), 2)),
    (_torsion, lambda: (poly_parse("T+1", Fq.get(3)),)),
    (cyclotomic_poly, lambda: (12,)),
], ids=["Fq", "base_field", "x_field", "CycloField", "torsion",
        "cyclotomic_poly"])
def test_parent_constructors_share_one_instance_per_key(build, args):
    """Equal keys built afresh (a new Fq or Poly object) reach one instance,
    and the repeat is counted as a cache hit."""
    first = build(*args())
    hits = build.cache_info().hits
    assert build(*args()) is first
    assert build.cache_info().hits == hits + 1


# -- evaluation at omega: one reduction mod m_n against Horner ----------------

OMEGA_LEVELS = [(q, n) for q in (2, 3, 5) for n in (1, 2, 3)]


def rand_x_fraction_poly(rng, field, deg):
    """A polynomial in x of degree deg over F, its coefficients small
    fractions in T."""
    fq, F = field.fq, field.F

    def small(nonzero):
        while True:
            p = Poly(fq, "T", [fq.from_index(rng.randrange(fq.q))
                               for _ in range(rng.randrange(1, 3))])
            if p.coeffs or not nonzero:
                return p

    def coeff(nonzero=False):
        return RatFun.make(F, small(nonzero), small(True))

    return Poly(F, "x", [coeff() for _ in range(deg)] + [coeff(True)])


def horner(p, field):
    return p.eval(field.omega, field)


@pytest.mark.parametrize("q,n", OMEGA_LEVELS)
def test_eval_at_omega_matches_horner(q, n):
    fq = Fq.get(q)
    pi = poly_parse("T", fq)
    field = CycloField.get(pi, n)
    xf, e = x_field(fq), field.degree
    rng = random.Random(100 * q + n)
    for deg in sorted({0, 1, e - 1, e, e + 2}):  # below and above deg m_n
        num = rand_x_fraction_poly(rng, field, deg)
        assert eval_at_omega(ColemanSeries(xf.coerce(num), pi), n) == \
            horner(num, field)
        if e > 20:
            # at deg m_n = 100 (q = 5, level 3) the inverse of f.den(omega)
            # is an extended gcd over F taking seconds, and the products
            # around it more; the smaller fields cover the denominator
            continue
        while True:  # a denominator that stays, and is a unit at omega
            f = xf.from_pair(num, rand_x_fraction_poly(rng, field,
                                                       rng.randrange(1, 3)))
            if not f.den.is_one() and not horner(f.den, field).is_zero():
                break
        want = horner(f.num, field) * horner(f.den, field) ** -1
        assert eval_at_omega(ColemanSeries(f, pi), n) == want


@pytest.mark.parametrize("q,n", [(q, n) for q, n in OMEGA_LEVELS if n > 1])
def test_field_norm_matches_horner(q, n):
    fq = Fq.get(q)
    pi = poly_parse("T", fq)
    field = CycloField.get(pi, n)
    rng = random.Random(10 * q + n)
    for m in range(1, n):
        sub = CycloField.get(pi, m)
        # the norm h has the degree of e's representative: below deg m_m
        # and, but for q = 2 at level 2, above it
        for deg in (1, min(sub.degree + 1, field.degree - 1)):
            e = field.coerce(rand_x_fraction_poly(rng, field, deg))
            h = _norm_poly(e.rep, pi ** (n - m))
            assert h.degree == e.rep.degree == deg
            assert field_norm(e, m) == horner(h, sub)
