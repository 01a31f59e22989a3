import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from carlitz.cmod import carlitz_phi
from carlitz.cyclo import CycloField
from carlitz.fq import Fq, FqElem
from carlitz.groupring import CharSpec, GroupRing
from carlitz.poly import Poly, PolyRing, ZZ, poly_parse
from carlitz.quotient import (
    QuotientRing, _mult_matrix, charpoly, det, quotient_norm,
)
from carlitz.ratfun import base_field
from norm_oracle import torsion_quotient

PROPERTY = settings(max_examples=40)


def leibniz_det(mat, zero):
    """Oracle: the permutation expansion sum of sign(s) prod_r mat[r][s(r)]."""
    n = len(mat)
    acc = zero
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = mat[0][perm[0]]
        for r in range(1, n):
            term = term * mat[r][perm[r]]
        acc = acc - term if inversions % 2 else acc + term
    return acc


def laplace_det(mat, zero):
    """Oracle: cofactor expansion along the first row."""
    if len(mat) == 1:
        return mat[0][0]
    acc = zero
    for j, e in enumerate(mat[0]):
        term = e * laplace_det([row[:j] + row[j + 1:] for row in mat[1:]],
                               zero)
        acc = acc - term if j % 2 else acc + term
    return acc


def matmul(a, b, zero):
    n = len(a)
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


@st.composite
def fq_matrices(draw, min_n, max_n, count):
    q = draw(st.sampled_from((2, 3, 4, 5, 9)))
    n = draw(st.integers(min_n, max_n))
    fq = Fq.get(q)
    entry = st.integers(0, q - 1).map(lambda i: FqElem(fq, i))
    mats = [draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                          min_size=n, max_size=n)) for _ in range(count)]
    return fq, mats


@st.composite
def poly_matrix_pairs(draw, max_n):
    fq = Fq.get(draw(st.sampled_from((2, 3))))
    n = draw(st.integers(1, max_n))
    entry = st.lists(st.integers(0, fq.q - 1), max_size=3).map(
        lambda cs: Poly(fq, "T", [FqElem(fq, c) for c in cs]))
    square = st.lists(st.lists(entry, min_size=n, max_size=n),
                      min_size=n, max_size=n)
    return Poly(fq, "T", []), draw(square), draw(square)


@st.composite
def charpoly_cases(draw):
    """A 1x1 to 4x4 matrix over F_q or over A = F_q[T], q in {2, 3, 4, 5}."""
    fq = Fq.get(draw(st.sampled_from((2, 3, 4, 5))))
    n = draw(st.integers(1, 4))
    digit = st.integers(0, fq.q - 1).map(lambda i: FqElem(fq, i))
    if draw(st.booleans()):
        K = fq
        entry = digit
    else:
        K = PolyRing(fq, "T")
        entry = st.lists(digit, max_size=3).map(lambda cs: Poly(fq, "T", cs))
    return K, draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                            min_size=n, max_size=n))


def test_residue_ring_units_and_inverses():
    f2 = Fq.get(2)
    pi = poly_parse("T^2+T+1", f2)
    ring = GroupRing(pi, 2)
    qr = QuotientRing(ring.modulus)  # A/pi^2 as a ring of elements
    units = ring.group_keys()
    assert len(units) == 12  # (q^d - 1) q^d = 3 * 4
    for u in units:
        x = qr.coerce(u)
        assert x * x.inv() == qr.one
        for v in units:  # group keys multiply as residue classes do
            assert ring.mul_key(u, v) == (x * qr.coerce(v)).rep
    with pytest.raises(ZeroDivisionError):
        qr.coerce(pi).inv()


def test_residue_ring_level_zero_is_trivial():
    f2 = Fq.get(2)
    pi = poly_parse("T", f2)
    ring = GroupRing(pi, 0)
    assert ring.group_keys() == [Poly(f2, "T", [])]
    assert ring.key(poly_parse("T^5+1", f2)) == Poly(f2, "T", [])


def test_quotient_ring_field_arithmetic():
    fq = Fq.get(3)
    F = base_field(fq)
    # F[x]/(x^2 - T): a quadratic extension of F
    mod = Poly(F, "x", [F.coerce(poly_parse("2*T", fq)), F.zero, F.one])
    qr = QuotientRing(mod)
    x = qr.gen()
    assert x * x == qr.coerce(poly_parse("T", fq))
    a = x + qr.one
    inv = a.inv()
    assert a * inv == qr.one


def test_det_ring_agrees_with_det_field():
    rng = random.Random(31)
    fq = Fq.get(5)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            rows = [[FqElem(fq, rng.randrange(5)) for _ in range(n)] for _ in range(n)]
            assert det(rows) == leibniz_det(rows, fq.zero)


def test_det_ring_permutation_signs():
    fq = Fq.get(7)
    m = [[fq.zero, fq.one], [fq.one, fq.zero]]
    assert det(m) == fq.from_int(-1) == leibniz_det(m, fq.zero)


def test_det_rejects_empty_matrix():
    with pytest.raises(ValueError):
        det([])
    with pytest.raises(ValueError):
        charpoly([])


@PROPERTY
@given(charpoly_cases())
def test_charpoly_matches_laplace_expansion(case):
    # charpoly lists det(t I + M) below its leading 1, highest power first
    K, mat = case
    n = len(mat)
    shifted = [[Poly(K, "t", [e] + [K.one] * (i == j))
                for j, e in enumerate(row)] for i, row in enumerate(mat)]
    chi = laplace_det(shifted, Poly(K, "t", []))
    assert chi.degree == n and chi.is_monic()
    got = charpoly(mat)
    assert got == [chi.coeff(n - 1 - i) for i in range(n)]
    assert det(mat) == got[-1]


@PROPERTY
@given(fq_matrices(min_n=1, max_n=5, count=1))
def test_det_matches_leibniz_over_fq(case):
    fq, (mat,) = case
    assert det(mat) == leibniz_det(mat, fq.zero)


@PROPERTY
@given(fq_matrices(min_n=6, max_n=8, count=2))
def test_det_is_multiplicative_beyond_six(case):
    fq, (a, b) = case
    assert det(matmul(a, b, fq.zero)) == det(a) * det(b)


@PROPERTY
@given(poly_matrix_pairs(max_n=5))
def test_det_is_multiplicative_over_polynomials(case):
    zero, a, b = case
    assert det(matmul(a, b, zero)) == det(a) * det(b)


def test_quotient_norm_is_multiplicative():
    rng = random.Random(32)
    fq = Fq.get(2)
    F = base_field(fq)
    mod = Poly(F, "y", [F.coerce(poly_parse("T", fq)), F.one, F.one])  # y^2+y+T
    qr = QuotientRing(mod)
    for _ in range(10):
        a = qr.coerce(Poly(F, "y", [F.coerce(rng.randrange(2)), F.coerce(rng.randrange(2))]))
        b = qr.coerce(Poly(F, "y", [F.coerce(poly_parse("T", fq)), F.coerce(rng.randrange(2))]))
        assert quotient_norm(a) * quotient_norm(b) == quotient_norm(a * b)


def test_quotient_norm_of_scalar_is_power():
    fq = Fq.get(2)
    F = base_field(fq)
    mod = Poly(F, "y", [F.coerce(poly_parse("T", fq)), F.one, F.one])
    qr = QuotientRing(mod)
    t = F.coerce(poly_parse("T", fq))
    assert quotient_norm(qr.coerce(t)) == t ** 2  # [F(y):F] = 2


def test_quotient_norm_is_multiplicative_in_degree_seven():
    rng = random.Random(33)
    fq = Fq.get(2)
    F = base_field(fq)
    t = F.coerce(poly_parse("T", fq))
    qr = QuotientRing(Poly(F, "y", [F.one, t] + [F.zero] * 5 + [F.one]))
    assert qr.degree == 7

    def element():
        return qr.coerce(Poly(F, "y", [F.coerce(poly_parse(
            rng.choice(("0", "1", "T", "T+1", "T^2")), fq)) for _ in range(7)]))

    for _ in range(2):
        a, b = element(), element()
        assert quotient_norm(a) * quotient_norm(b) == quotient_norm(a * b)
    assert quotient_norm(qr.coerce(t)) == t ** 7


# -- QuotElem: one residue-class type over five coefficient parents ----------

def _small_poly(draw, fq, max_len=3):
    cs = draw(st.lists(st.integers(0, fq.q - 1), max_size=max_len))
    return Poly(fq, "T", [fq.from_int(c) for c in cs])


@st.composite
def cyclo_elems(draw):
    """F_q(T): elements of small Carlitz cyclotomic fields, with
    denominators."""
    q, pitxt, n = draw(st.sampled_from(
        ((2, "T", 2), (3, "T", 1), (2, "T^2+T+1", 1), (3, "T+1", 2))))
    fq = Fq.get(q)
    field = CycloField.get(poly_parse(pitxt, fq), n)
    F = field.F
    dens = [poly_parse(d, fq) for d in ("1", "T", "T+1")]

    def elem():
        cs = [F.coerce(_small_poly(draw, fq)) / F.coerce(draw(st.sampled_from(dens)))
              for _ in range(field.degree)]
        return field.coerce(Poly(F, field.var, cs))
    return field, [elem() for _ in range(3)]


@st.composite
def cyclotomic_int_elems(draw):
    """Z: Z[x]/(Phi_m), the ring characters of order m take values in."""
    ring = CharSpec(draw(st.sampled_from((1, 3, 4, 6))), {}).values()
    coeffs = st.lists(st.integers(-4, 4), max_size=ring.degree + 2)
    return ring, [ring.coerce(Poly(ZZ, "x", draw(coeffs))) for _ in range(3)]


@st.composite
def residue_elems(draw):
    """F_q: A/pi^2 as a ring of elements."""
    q, pitxt = draw(st.sampled_from(
        ((2, "T"), (2, "T^2+T+1"), (3, "T+1"), (5, "T+2"))))
    fq = Fq.get(q)
    ring = QuotientRing(poly_parse(pitxt, fq) ** 2)
    return ring, [ring.coerce(_small_poly(draw, fq, ring.degree + 2))
                  for _ in range(3)]


@st.composite
def integral_elems(draw):
    """A = F_q[T]: phi_T(y) = y^q + T y, monic with coefficients in A."""
    fq = Fq.get(draw(st.sampled_from((2, 3))))
    A = PolyRing(fq, "T")
    ring = QuotientRing(carlitz_phi(poly_parse("T", fq)).as_additive(var="y"))
    assert ring.K == A

    def elem():
        return ring.coerce(Poly(A, "y", [_small_poly(draw, fq)
                                        for _ in range(ring.degree + 1)]))
    return ring, [elem() for _ in range(3)]


@st.composite
def torsion_elems(draw):
    """A[x]: the torsion quotient A[x][y]/(phi_pi(y) - x) of the norm
    oracles, on prime fields and on F_4."""
    q, pitxt = draw(st.sampled_from(
        ((2, "T"), (2, "T^2+T+1"), (3, "T"), (3, "T+1"), (4, "T"))))
    fq = Fq.get(q)
    ring = torsion_quotient(poly_parse(pitxt, fq))
    R = ring.K

    def elem():
        # P(y) with A[x] coefficients, longer than deg m so coerce reduces
        cs = [Poly(R.cring, R.var, [_small_poly(draw, fq, 2)
                                    for _ in range(draw(st.integers(0, 2)))])
              for _ in range(draw(st.integers(0, ring.degree + 2)))]
        return ring.coerce(Poly(R, ring.var, cs))
    return ring, [elem() for _ in range(3)]


PARENTS = [cyclo_elems, cyclotomic_int_elems, residue_elems, integral_elems,
           torsion_elems]


@pytest.mark.parametrize("parent", PARENTS, ids=lambda f: f.__name__)
@settings(max_examples=20)
@given(data=st.data())
def test_quotient_ring_laws(parent, data):
    ring, (a, b, c) = data.draw(parent())
    zero, one = ring.zero, ring.one
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a - a == zero and a + (-a) == zero and a - b == a + (-b)
    assert a ** 3 == a * a * a and a ** 0 == one
    for r in (a, b, a + b, a - b, -a, a * b, a * b * c, a ** 3, ring.gen()):
        assert r.ring == ring and r.rep.degree < ring.degree


@pytest.mark.parametrize("parent", [cyclo_elems, residue_elems],
                         ids=lambda f: f.__name__)
@settings(max_examples=20)
@given(data=st.data())
def test_quotient_inverses_over_fields(parent, data):
    ring, (x, y, _) = data.draw(parent())
    # a unit of F(omega_n) is any nonzero element; of A/pi^2, any residue
    # prime to pi: either way, one that shares no factor with the modulus
    if x.rep.gcd(ring.modulus).degree == 0:
        xinv = x.inv()
        assert x * xinv == ring.one
        assert (y * x) * xinv == y
    else:
        with pytest.raises(ZeroDivisionError):
            x.inv()


def test_mixed_quotient_rings_raise():
    f2 = Fq.get(2)
    a = CycloField.get(poly_parse("T", f2), 1)
    b = CycloField.get(poly_parse("T+1", f2), 1)
    z3, z4 = CharSpec(3, {}).values(), CharSpec(4, {}).values()
    for x, y in ((a.omega, b.omega), (z3.gen(), z4.gen())):
        for op in (lambda u, v: u + v, lambda u, v: u - v,
                   lambda u, v: u * v):
            with pytest.raises(ValueError):
                op(x, y)
        assert x != y
    with pytest.raises(ValueError):
        a.coerce(b.omega)
    # equal moduli are one ring, even as separate instances
    assert CharSpec(3, {}).values().gen() * z3.gen() == z3.gen() ** 2


@pytest.mark.parametrize("q", [2, 3, 5])
def test_quotient_norm_over_A_matches_fraction_field(q):
    """The Coleman-norm matrices over A = F_q[T] give the same determinant
    as over F = F_q(T): the torsion quotient A[y]/(phi_T(y)), then coerced
    into F, against F[y]/(phi_T(y))."""
    rng = random.Random(70 + q)
    fq = Fq.get(q)
    F = base_field(fq)
    phi = carlitz_phi(poly_parse("T", fq)).as_additive(var="y")
    qa = QuotientRing(phi)
    qf = QuotientRing(phi.map_coeffs(F.coerce, ring=F))

    def to_f(u):
        return qf.coerce(u.rep.map_coeffs(F.coerce, ring=F))

    def small():
        return Poly(fq, "T", [fq.from_int(rng.randrange(q)) for _ in range(3)])

    for _ in range(3):
        u = qa.coerce(Poly(qa.K, "y", [small() for _ in range(qa.degree)]))
        assert F.coerce(quotient_norm(u)) == quotient_norm(to_f(u))
        # p(x + y) with p in A[x]: the Taylor-shift element of the oracle
        # route for cyclo._norm_poly (tests/test_coleman.py)
        p = Poly(fq, "x", [fq.from_int(rng.randrange(q)) for _ in range(3)]
                 + [fq.one])
        na = quotient_norm(taylor_shift(p, qa.modulus))
        nf = quotient_norm(taylor_shift(p, qf.modulus))
        assert na.map_coeffs(F.coerce, ring=F) == nf


def taylor_shift(p, modulus):
    """p(x + ybar) as one element of K[x][y]/(modulus), for p in x over the
    coefficient parent K of the modulus (or over a subring of it)."""
    K = modulus.ring
    R = PolyRing(K, p.var)
    qr = QuotientRing(modulus.map_coeffs(lambda c: Poly(K, p.var, [c]),
                                         ring=R))
    return p.eval(qr.coerce(R.gen()) + qr.gen(), qr)


# -- the multiplication matrix: shift-and-reduce against full products -------

def mult_matrix_by_products(u):
    """Oracle for _mult_matrix: column j is the full residue product
    u * ybar^j, reduced mod m by its own divmod."""
    qr = u.ring
    cols = []
    ypow = qr.one
    for _ in range(qr.degree):
        rep = (u * ypow).rep
        cols.append([rep.coeff(i) for i in range(qr.degree)])
        ypow = ypow * qr.gen()
    return [list(row) for row in zip(*cols)]


@pytest.mark.parametrize("parent", PARENTS, ids=lambda f: f.__name__)
@settings(max_examples=15)
@given(data=st.data())
def test_mult_matrix_shift_and_reduce_matches_products(parent, data):
    ring, elems = data.draw(parent())
    for u in elems:
        assert _mult_matrix(u) == mult_matrix_by_products(u)


def test_quotient_norm_takes_only_residue_classes():
    fq = Fq.get(2)
    qr = QuotientRing(poly_parse("T^2+T+1", fq))
    with pytest.raises(TypeError):
        quotient_norm(Poly(qr, "x", [qr.gen(), qr.one]))
    with pytest.raises(TypeError):
        quotient_norm(poly_parse("T+1", fq))


@settings(max_examples=15)
@given(data=st.data())
def test_quotient_norm_is_multiplicative_in_torsion_quotient(data):
    ring, (a, b, _) = data.draw(torsion_elems())
    assert quotient_norm(a) * quotient_norm(b) == quotient_norm(a * b)
