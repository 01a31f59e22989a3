"""The F_p polynomial kernel against the generic loops it replaces.

Over an interned prime field ``Poly`` runs ``+``, ``-``, negation, ``*``,
``divmod``, ``gcd`` and ``mul_scalar`` on coefficient-index lists, and the
fraction field's kernel multiplies A[x] = F_p[T][x] on lists of index lists
by the schoolbook rule, one ``_fp_mul`` per pair of nonzero coefficients;
the generic loops, which F_{p^m} and ``Poly`` over A[x] still run, are the
oracle.
"""

import hashlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from carlitz import poly as poly_mod, ratfun as ratfun_mod
from carlitz.fq import Fq, FqElem, _power
from carlitz.poly import (
    _KRONECKER_MIN, Poly, PolyRing, _divmod_generic, _fp_mul, _fp_strip,
    _gcd_generic, _interned, _mul_generic, monic_enumerate, poly_parse,
    poly_to_str,
)
from carlitz.ratfun import base_field

PRIMES = (2, 3, 5, 7)
KERNEL = settings(max_examples=60)


def fresh_poly(fq, ints):
    """A polynomial whose coefficients are new, non-interned elements."""
    return Poly(fq, "T", [FqElem(fq, c) for c in ints])


@st.composite
def fp_polys(draw, max_deg=300):
    """(fq, polys): two or three polynomials over one F_p, each zero,
    constant, short (schoolbook side of the Kronecker cutoff) or long, dense
    or sparse, monic or not."""
    fq = Fq.get(draw(st.sampled_from(PRIMES)))
    out = []
    for _ in range(draw(st.integers(2, 3))):
        deg = draw(st.one_of(st.integers(-1, 4), st.integers(5, max_deg)))
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        density = draw(st.sampled_from((1.0, 0.2)))
        ints = [rng.randrange(fq.q) if rng.random() < density else 0
                for _ in range(deg + 1)]
        if deg >= 0:
            ints[-1] = draw(st.integers(1, fq.q - 1))  # monic or not
        out.append(fresh_poly(fq, ints))
    return fq, out


def test_kernel_runs_exactly_on_small_prime_fields():
    for p in PRIMES + (251,):
        assert _interned(Fq.get(p))
    for q in (4, 8, 9, 25, 257):
        assert not _interned(Fq.get(q))
    f = Fq.get(257)  # above the limit: exact through the coordinate loops
    for a, b in ((3, 250), (256, 256), (0, 5), (100, 0)):
        x, y = f.from_int(a), f.from_int(b)
        assert ((x + y).i, (x - y).i, (x * y).i, (-x).i) == (
            (a + b) % 257, (a - b) % 257, a * b % 257, -a % 257)
        if b:
            assert (x / y).i == a * pow(b, -1, 257) % 257


@KERNEL
@given(fp_polys())
def test_mul_matches_generic(case):
    _, (a, b, *_) = case
    assert a * b == _mul_generic(a, b)
    assert b * a == _mul_generic(b, a)


@KERNEL
@given(fp_polys())
def test_divmod_matches_generic(case):
    _, (a, b, *_) = case
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.divmod(b)
        return
    quo, rem = a.divmod(b)
    assert (quo, rem) == _divmod_generic(a, b)
    assert quo * b + rem == a and rem.degree < b.degree


@KERNEL
@given(fp_polys())
def test_gcd_and_egcd_match_generic(case):
    _, (a, b, *rest) = case
    if rest:  # a common factor, so the gcd is not always 1
        a, b = a * rest[0], b * rest[0]
    g = a.gcd(b)
    assert g == _gcd_generic(a, b)
    g2, u, v = a.egcd(b)
    assert g2 == g and u * a + v * b == g


def generic(fn, *args):
    """fn(*args) with the kernel switched off: Poly then runs the generic
    loops on F_p operands, as it does on every other parent.  The Polys it
    builds carry no index view, so they are only compared, never fed back
    into the kernel."""
    with mock.patch.object(poly_mod, "_interned", lambda ring: False):
        return fn(*args)


def check_view(x):
    """x is stripped, its coefficients are its field's own elements, and
    its index view agrees with them."""
    assert not x.coeffs or x.coeffs[-1].i != 0
    assert all(c is x.ring._elems[c.i] for c in x.coeffs)
    assert x._ix == [c.i for c in x.coeffs]


def snapshot(polys):
    return [(x.coeffs, x._ix, list(x._ix)) for x in polys]


def check_untouched(polys, before):
    """No operand changed: the same coefficients, and the same index view,
    filled since construction, with the same entries."""
    for x, (coeffs, ix, ix_copy) in zip(polys, before):
        assert x.coeffs is coeffs
        assert x._ix is ix and ix == ix_copy == [c.i for c in coeffs]


FP_OPS = {
    "+": lambda a, b, c: a + b,
    "-": lambda a, b, c: a - b,
    "neg": lambda a, b, c: -a,
    "*": lambda a, b, c: a * b,
    "divmod": lambda a, b, c: a.divmod(b),
    "gcd": lambda a, b, c: a.gcd(b),
    "mul_scalar": lambda a, b, c: a.mul_scalar(c),
    "monic": lambda a, b, c: a.monic(),
}


@pytest.mark.parametrize("op", sorted(FP_OPS))
@KERNEL
@given(case=fp_polys(), scalar=st.integers(0, 6))
def test_kernel_results_are_built_once(op, case, scalar):
    fq, (a, b, *_) = case
    if op == "divmod" and b.is_zero():
        return
    c = fq.from_int(scalar)
    before = snapshot((a, b))
    got = FP_OPS[op](a, b, c)
    check_untouched((a, b), before)
    assert got == generic(FP_OPS[op], a, b, c)
    for r in got if op == "divmod" else (got,):
        if r is a:  # a + 0, a - 0, -0 and monic of a monic a are a itself
            continue
        check_view(r)


@st.composite
def unequal_fp_polys(draw):
    """(fq, a, b) over one F_p: a zero, short or long, and b of another
    length, zero among them."""
    fq = Fq.get(draw(st.sampled_from(PRIMES)))
    length = st.one_of(st.just(0), st.integers(1, 3), st.integers(8, 40))
    la = draw(length)
    lb = draw(length.filter(lambda n: n != la))

    def poly(n):
        ints = draw(st.lists(st.integers(0, fq.q - 1), min_size=n,
                             max_size=n))
        if n:
            ints[-1] = draw(st.integers(1, fq.q - 1))
        return fresh_poly(fq, ints)

    return fq, poly(la), poly(lb)


@KERNEL
@given(unequal_fp_polys())
def test_add_and_sub_of_unequal_lengths_match_generic(case):
    _, a, b = case
    for x, y in ((a, b), (b, a)):
        for op in (FP_OPS["+"], FP_OPS["-"]):
            before = snapshot((x, y))
            got = op(x, y, None)
            check_untouched((x, y), before)
            assert got == generic(op, x, y, None)
            check_view(got)
    # a zero operand of + gives the other operand itself
    zero, x = Poly(a.ring, "T", []), a if a.coeffs else b
    assert zero + x is x and x + zero is x
    assert -zero is zero  # and negating the zero polynomial gives itself


@KERNEL
@given(case=fp_polys(max_deg=30), scalar=st.integers(0, 6),
       k=st.integers(0, 3))
def test_every_fp_poly_carries_its_index_view(case, scalar, k):
    fq, (a, b, *_) = case
    twin = Fq(fq.q)  # a second F_p: equal elements, not the same objects
    c = fq.from_int(scalar)
    A, F = PolyRing(fq, "T"), base_field(fq)
    padded = [e.i for e in a.coeffs] + [0] * k  # zeros for the strip
    built = [
        a, b,
        Poly(fq, "T", [twin.from_index(i) for i in padded]),
        Poly(twin, "T", [fq.from_index(i) for i in padded]),
        Poly.const(fq, "T", scalar), Poly.gen(fq, "T"),
        A.zero, A.one, A.coerce(scalar), A.coerce(a), A.gen(),
        F.zero.num, F.zero.den, F.one.num, F.coerce(scalar).num,
        F.coerce(c).num, F.coerce(a).den,
        a.shift(k), a.derivative(), a.map_coeffs(lambda x: x * c),
        a.frobenius_twist(1, fq.q), a.compose(b),
        poly_parse(poly_to_str(a), fq), *monic_enumerate(fq, 2),
        a + b, a - b, -a, a * b, a.mul_scalar(c), a.monic(), a.gcd(b),
        a ** 2,
    ]
    if b.coeffs:
        built += a.divmod(b)
        f = F.coerce(a) / F.coerce(b)
        built += [f.num, f.den]
    for x in built:
        check_view(x)


@st.composite
def ax_polys(draw, fields=PRIMES):
    """(A, a, b): two polynomials in x over A = F_q[T], each zero, constant
    or of x-length up to 40, with coefficients of T-degree up to 30 and zero
    coefficients at either end and in the middle."""
    fq = Fq.get(draw(st.sampled_from(fields)))
    A = PolyRing(fq, "T")
    out = []
    for _ in range(2):
        xlen = draw(st.one_of(st.integers(0, 1), st.integers(2, 40)))
        tdeg = draw(st.integers(0, 30))
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        coeffs = []
        for i in range(xlen):
            if xlen > 2 and rng.random() < 0.25 and i < xlen - 1:
                coeffs.append(A.zero)  # zero T-coefficient, low end or middle
                continue
            d = rng.randrange(-1 if i < xlen - 1 else 0, tdeg + 1)
            ts = [rng.randrange(fq.q) for _ in range(d + 1)]
            if ts:
                ts[-1] = rng.randrange(1, fq.q)
            coeffs.append(Poly(fq, "T", [fq.from_index(t) for t in ts]))
        out.append(Poly(A, "x", coeffs))
    return A, out[0], out[1]


@KERNEL
@given(ax_polys(PRIMES + (251,)))
def test_kernel_ax_mul_matches_generic(case):
    # the index kernel's A[x] product on lists of index lists against the
    # generic loops on Polys over A
    A, a, b = case
    p = A.cring.p
    mul = base_field(A.cring).kernel.x.mul
    before = snapshot(a.coeffs + b.coeffs)
    ia, ib = ([c._ix for c in x.coeffs] for x in (a, b))
    got = mul(ia, ib)
    check_untouched(a.coeffs + b.coeffs, before)
    assert got == [c._ix for c in _mul_generic(a, b).coeffs]
    assert mul(ib, ia) == got
    assert not got or got[-1]
    for r in got:
        assert r == _fp_strip(list(r)) and all(0 <= c < p for c in r)


def test_ax_mul_path_is_chosen_by_the_coefficient_field():
    # A[x] products on lists of kernel values, index lists over an interned
    # F_p and Polys over F_{p^m}, by the kernel's one schoolbook rule; Poly
    # itself multiplies A[x] by the generic loops on every field
    rng = random.Random(11)
    for q in (2, 3, 4, 5, 7, 9):
        fq = Fq.get(q)
        A = PolyRing(fq, "T")
        k = ratfun_mod.FracField(fq, "T").kernel

        def rand_ax():
            # about a quarter of the A-coefficients zero, as in the
            # torsion norms' matrix entries
            return Poly(A, "x", [
                Poly(fq, "T", [fq.from_index(rng.randrange(q))
                               for _ in range(rng.randrange(6))] + [fq.one])
                if rng.random() < 0.75 else A.zero
                for _ in range(rng.randrange(1, 8))])

        for _ in range(5):
            a, b = rand_ax(), rand_ax()
            want = _mul_generic(a, b)
            assert a * b == want
            got = k.x.mul([k.view(c) for c in a.coeffs],
                          [k.view(c) for c in b.coeffs])
            assert got == [k.view(c) for c in want.coeffs]
            assert all(type(c) is (list if _interned(fq) else Poly)
                       for c in got), q


def test_mul_both_sides_of_the_kronecker_cutoff():
    rng = random.Random(5)
    for p in PRIMES:
        fq = Fq.get(p)
        for la in range(1, 11):
            for lb in (1, 2, 3, 5, 8, 13, 40, 301):
                a = [rng.randrange(p) for _ in range(la - 1)] + [1]
                b = [rng.randrange(p) for _ in range(lb - 1)]
                b.append(rng.randrange(1, p))
                want = _mul_generic(fresh_poly(fq, a), fresh_poly(fq, b))
                assert fresh_poly(fq, _fp_mul(a, b, p)) == want, (p, la, lb)
    assert 1 < _KRONECKER_MIN < 10 * 301


def test_prime_field_results_are_interned():
    # every field with q <= 256, prime or not, hands out only its q entries;
    # over F_p each value is also checked against arithmetic mod p
    for q in (2, 3, 4, 5, 7, 8, 9, 25):
        fq = Fq.get(q)
        p, table = fq.p, fq._elems
        assert len(table) == q and all(x.i == i for i, x in enumerate(table))
        assert fq.zero is table[0] and fq.one is table[1]
        assert all(x is y for x, y in zip(fq.elements(), table))
        for n in range(-2 * q, 2 * q):
            assert fq.from_int(n) is table[n % p]
        for a in (FqElem(fq, i) for i in range(q)):  # not interned inputs
            assert fq.neg(a) is table[fq.neg(a).i] and -a is fq.neg(a)
            if fq.m == 1:
                assert fq.neg(a) is table[-a.i % p]
            for b in (FqElem(fq, i) for i in range(q)):
                for got in (fq.add(a, b), fq.sub(a, b), fq.mul(a, b)):
                    assert got is table[got.i]
                assert a + b is fq.add(a, b)
                assert a - b is fq.sub(a, b) and a * b is fq.mul(a, b)
                if fq.m == 1:
                    assert fq.add(a, b) is table[(a.i + b.i) % p]
                    assert fq.sub(a, b) is table[(a.i - b.i) % p]
                    assert fq.mul(a, b) is table[a.i * b.i % p]
            if a:
                assert fq.inv(a) is table[fq.inv(a).i]
                assert a ** -1 is fq.inv(a) and a ** 5 is table[(a ** 5).i]
                if fq.m == 1:
                    assert fq.inv(a) is table[pow(a.i, -1, p)]
        c = fresh_poly(fq, [1, 2 % p, 1]) * fresh_poly(fq, [p - 1, 1])
        assert all(x is table[x.i] for x in c.coeffs)


@pytest.mark.parametrize("q", [8, 16, 27, 32, 81])
def test_extension_field_matches_polynomials_mod_the_modulus(q):
    # F_q = F_p[s]/(modulus) taken literally: sums, products and inverses
    # of coordinate polynomials over F_p, reduced by Poly's own division
    fq = Fq.get(q)
    fp = Fq.get(fq.p)
    modulus = Poly(fp, "s", [fp.from_int(c) for c in fq.modulus])
    one = Poly(fp, "s", [fp.one])

    def lift(x):
        return Poly(fp, "s", [fp.from_int(c) for c in x.coords])

    els = fq.elements()
    lifted = [lift(x) for x in els]
    for a, la in zip(els, lifted):
        assert lift(-a) == -la
        for b, lb in zip(els, lifted):
            assert lift(a + b) == la + lb and lift(a - b) == la - lb
            assert lift(a * b) == la * lb % modulus
        if a:
            assert lift(a) * lift(fq.inv(a)) % modulus == one


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_tables_match_the_coordinate_loops(q):
    fq = Fq.get(q)
    els = fq.elements()
    for i in range(q):
        assert fq._neg[i].i == fq._digitwise(0, i, -1)
        for j in range(q):
            assert fq._add[i * q + j].i == fq._digitwise(i, j, 1)
            assert fq._mul[i * q + j].i == fq._mul_index(i, j)
            # sub has no table of its own: add of the negation
            assert fq.sub(els[i], els[j]).i == fq._digitwise(i, j, -1)
        if i:  # a^(q-2) by the coordinate loops alone
            assert fq._inv[i].i == _power(i, q - 2, 1, fq._mul_index)
            assert fq._mul_index(i, fq._inv[i].i) == 1


def test_extension_field_arithmetic_unchanged():
    # SHA-256 of every +, -, *, /, negation and fifth power over F_4 and
    # F_9, by index, as computed before prime fields were interned
    pinned = {
        4: "fd22c9864d1c7e064f6dbb72a8d633c2e6c888e41adc89d638c355d4727bb4b4",
        9: "a0d368ca388666792a3e27908142b2dec29c04f355afd7a3af20c41df8c03235",
    }
    for q, digest in pinned.items():
        els = Fq.get(q).elements()
        rows = []
        for a in els:
            rows.append((-a).i)
            for b in els:
                rows += [(a + b).i, (a - b).i, (a * b).i]
                if b:
                    rows.append((a / b).i)
            rows.append((a ** 5).i)
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest, q
