"""Coates-Wiles homomorphisms and the main identity verifier.

delta_k reads the x^(k-1) coefficient of (dlog f)(e_C(x)), where f is the
series attached to a unit (for the cyclotomic units c(a, b) this is
phi_a(x)/phi_b(x)).  The verifier compares, exactly in F = F_q(T),

    delta_k(c(a, b))  =  (a^k - b^k) * BC_k / Pi(k)

for k = 1..kmax.  Both sides are prime-free and read the same Carlitz
exponential, which is certified by its functional equation
phi_T(e(z)) = e(Tz) when it is built.  Past that shared input they are
independent: the left substitutes e(z) into dlog c(a, b) and divides by its
own series, never reading the cached 1/e(z); the right reads
BC_k/Pi(k) = [z^(k-1)] 1/e(z) off the cached copy, with no Pi(k) multiplied
in or divided out, and uses a, b only via a^k - b^k.  Each row compares the
two by cross products in A = F_q[T], and only a row that disagrees builds
its reduced right side.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .cmod import _bc_over_factorial, _exp_reciprocal, carlitz_exp
from .coleman import ColemanSeries, _fq_of, _x_order, cyclotomic_unit_series
from .fq import Fq
from .poly import Poly
from .ratfun import FracField, RatFun, base_field
from .series import TruncSeries

__all__ = [
    "lucas_binom",
    "ht_derivative",
    "dlog",
    "dlog_exp_series",
    "coates_wiles",
    "CWRow",
    "CWReport",
    "cw_verify",
]


def lucas_binom(n: int, k: int, p: int) -> int:
    """binom(n, k) mod p for any integer n, by Lucas' theorem.

    Negative upper index goes through binom(n, k) = (-1)^k binom(k-n-1, k),
    which keeps the divided-power calculus on Laurent series exact."""
    if k < 0:
        return 0
    if n < 0:
        v = lucas_binom(k - n - 1, k, p)
        return (-v) % p if k % 2 else v
    if k > n:
        return 0
    out = 1
    while k:
        ni, ki = n % p, k % p
        if ki > ni:
            return 0
        num = den = 1
        for i in range(ki):
            num = num * (ni - i) % p
            den = den * (i + 1) % p
        out = out * num * pow(den, -1, p) % p
        n //= p
        k //= p
    return out


def ht_derivative(j: int, f: TruncSeries) -> TruncSeries:
    """The jth divided-power derivative:
    sum c_n x^n  |->  sum binom(n+j, j) c_{n+j} x^n.

    Delta_0 is the identity; Delta_j eats j terms of precision."""
    if j < 0:
        raise ValueError("derivative index must be >= 0")
    if j == 0:
        return f
    p = _fq_of(f.ring).p
    out = []
    for i, c in enumerate(f.coeffs):
        n = f.order + i - j
        b = lucas_binom(n + j, j, p)
        out.append(c * f.ring.coerce(b))
    prec = None if f.prec is None else f.prec - j
    return TruncSeries(f.ring, f.var, f.order - j, out, prec)


def dlog(f):
    """f'/f.  Rational input stays rational; truncated series input returns
    a truncated series (additive on products either way)."""
    if isinstance(f, ColemanSeries):
        f = f.value
    if isinstance(f, Poly):
        f = FracField(f.ring, f.var).coerce(f)
    if isinstance(f, RatFun):
        if f.is_zero():
            raise ZeroDivisionError("dlog of zero")
        return _dlog_rational(f)
    if isinstance(f, TruncSeries):
        if f.is_zero():
            raise ZeroDivisionError("dlog of zero")
        return f.derivative() / f
    raise TypeError(f"cannot take dlog of {f!r}")


def _dlog_rational(f: RatFun) -> RatFun:
    """f'/f = (n'd - nd')/(nd) for f = n/d in canonical form, on the
    field's kernel.  n and d are coprime, so gcd(n'd - nd', n) = gcd(n', n)
    and gcd(n'd - nd', d) = gcd(d', d): the fraction is reduced by
    g1 = gcd(n, n') and g2 = gcd(d, d') alone (gcd(a, 0) is a made monic),
    each division exact by construction."""
    field = f.field
    k = field.kernel
    size, view, mul, quo = k.size, k.view, k.mul, k.quo
    n, dn = view(f.num), view(f.num.derivative())
    d, dd = view(f.den), view(-f.den.derivative())  # d and -d'
    if size(n) > 1:
        g1 = k.gcd(n, dn)
        if size(g1) > 1:
            n, dn = quo(n, g1), quo(dn, g1)
    if size(d) > 1:
        g2 = k.gcd(d, dd)
        if size(g2) > 1:
            d, dd = quo(d, g2), quo(dd, g2)
    num = k.add(mul(dn, d), mul(n, dd))
    if not size(num):
        return field.zero
    return k.box(field, k.monic(num, mul(n, d)))


def _exp_in_x(fq: Fq, prec: int) -> TruncSeries:
    e = carlitz_exp(fq, prec)
    return TruncSeries(e.ring, "x", e.order, e.coeffs, e.prec)


def _gain(g: Poly) -> float:
    """t - ord g, t the least positive degree of a term of g: 0 unless g is
    a unit, and inf for a constant, whose g(e) is exact."""
    t = next((k for k, c in enumerate(g.coeffs) if k and c != g.ring.zero),
             math.inf)
    return t - _x_order(g)


def dlog_exp_series(f, prec: int) -> TruncSeries:
    """(dlog f)(e_C(x)) through O(x^prec); the generating series of the
    delta_k values, coefficient of x^(k-1) being delta_k.  e_C is built
    only as far as the series precision rules need for that."""
    val = f.value if isinstance(f, ColemanSeries) else f
    d = dlog(val)
    if isinstance(d, RatFun):
        fq = _fq_of(d.field.cring)
        # e known to O(x^P), relative precision P - 1, gives g(e) for g of
        # order o to relative precision P - 1 + _gain(g): g(0) is exact, so
        # a unit g gains its least positive degree.  The quotient, of order
        # on - v, is then known to O(x^(P + on - v - 1 + s)), s the smaller
        # gain of num and den; P = prec + v - on + 1 - s.
        s = min(_gain(d.num), _gain(d.den))
        margin = _x_order(d.den) - _x_order(d.num) + 1 - s
        e = _exp_in_x(fq, max(prec + margin, 2))
        num = TruncSeries.from_poly(d.num).compose(e)
        den = TruncSeries.from_poly(d.den).compose(e)
        out = num / den
    else:
        fq = _fq_of(d.ring)
        # d(e) is known through min(prec d, P - 2j), j = -ord d <= 1 for a dlog
        margin = 2 * max(0, -d.order)
        e = _exp_in_x(fq, max(prec + margin, 2))
        out = d.compose(e)
    return out.truncate(prec)


def coates_wiles(k: int, f) -> RatFun:
    """delta_k(f) = [x^(k-1)] (dlog f)(e_C(x)) read off O(x^k), exact in F."""
    if k < 1:
        raise ValueError("index must be >= 1")
    return dlog_exp_series(f, k).coefficient(k - 1)


# -- the reciprocity-law verifier ------------------------------------------------

CWRow = namedtuple("CWRow", "k lhs rhs equal")
CWRow.__doc__ = "One k: lhs and rhs in F = F_q(T), and whether they agree."


class CWReport(namedtuple("CWReport", "q a b rows")):
    """Row-by-row comparison delta_k(c(a,b)) vs (a^k - b^k) BC_k/Pi(k):
    q, the indices a and b (Polys) and a sequence of CWRows."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(r.equal for r in self.rows)

    def as_dict(self) -> dict:
        return {
            "q": self.q,
            "a": str(self.a),
            "b": str(self.b),
            "rows": [
                {"k": r.k, "lhs": str(r.lhs), "rhs": str(r.rhs),
                 "equal": r.equal}
                for r in self.rows
            ],
        }


def cw_verify(a: Poly, b: Poly, kmax: int) -> CWReport:
    """Run the identity for k = 1..kmax: the left side from one
    dlog_exp_series, the right from the cached 1/e(z) and a^k - b^k."""
    fq = a.ring
    if not isinstance(fq, Fq):
        raise TypeError("indices must be polynomials over F_q")
    if b.ring != fq:
        raise ValueError("mixed coefficient fields")
    if a.is_zero() or b.is_zero():
        raise ValueError("both indices must be nonzero")
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    F = base_field(fq)
    ser = dlog_exp_series(cyclotomic_unit_series(a, b), kmax)
    recip = _exp_reciprocal(fq, kmax + 2)
    ak = bk = Poly.const(fq, a.var, 1)
    rows = []
    for k in range(1, kmax + 1):
        ak, bk = ak * a, bk * b
        lhs = ser.coefficient(k - 1)
        c, diff = _bc_over_factorial(k, recip, fq), ak - bk
        # n/d = diff cn/cd iff n cd = diff cn d; both sides are canonical,
        # so an equal row's rhs is lhs itself
        if lhs.num * c.den == diff * c.num * lhs.den:
            rows.append(CWRow(k, lhs, lhs, True))
        else:
            rows.append(CWRow(k, lhs, F.coerce(diff) * c, False))
    return CWReport(q=fq.q, a=a, b=b, rows=rows)
