"""Rational functions num/den over any polynomial ring with field coefficients.

Canonical form: gcd(num, den) = 1 and den monic, so equality is componentwise.
``FracField(Fq.get(q), "T")`` is the base field F = F_q(T); nesting as in
``FracField(F, "x")`` gives rational functions in x over F, which is how
logarithmic derivatives of Carlitz ratios are carried around exactly.

``+``, ``*`` and ``/`` follow Henrici's rule (JACM 3, 1956; Knuth, TAOCP
vol. 2, 4.5.1): with canonical operands a/b and c/d, a common factor can only
come from the factors themselves, so the gcds run on them, never on the
assembled product.
  * (a/b)(c/d) = ((a/g1)(c/g2)) / ((b/g2)(d/g1)), g1 = gcd(a, d) and
    g2 = gcd(c, b), each skipped when one side is a unit.
  * a/b + c/d with g = gcd(b, d): (ad + cb)/(bd) when g = 1; otherwise
    t = a(d/g) + c(b/g), h = gcd(t, g) and the sum is (t/h)/((b/g)(d/h)).
``RatFun.make`` reduces an arbitrary pair with one gcd of the whole; it
serves ``from_pair``, ``derivative`` and every caller that assembles a
fraction from an arbitrary pair.

Over F_p(T) on an interned F_p (p <= 256), ``+`` (so ``-``), ``*``, ``/``
and ``make`` run on ``poly``'s integer kernel: each operand is a pair of
index lists (num, den), ``_ff_sum``, ``_ff_product`` and ``_ff_reduced``
take every gcd, cofactor division and product as one ``_fp_*`` call, and
``_ff_box`` builds the result's two polynomials once.  ``series`` runs its
products and inverses over F_p(T) on the same pairs.  The rule's divisions
are exact by construction, so a remainder raises ``InvariantError``.  Over
F_{p^m}(T), F(x) and every other field the rule runs on Polys (``_sum``,
``_product``, ``_reduced``), and the tests keep those as the oracle for the
pairs.

Which gcd a ``Poly`` takes follows its coefficient parent.  Over F_p
(p <= 256) it is ``poly``'s integer kernel.  Over F = F_p(T) on such an F_p,
the parent's ``poly_gcd`` is ``_gcd_ax``: each operand is cleared of its
T-denominators into A[x], A = F_p[T], and a primitive remainder sequence
runs there on the kernel's index lists, so the only fractions built are the
coefficients of the monic answer.  That serves the numerators and
denominators of F(x), the rational functions of the Coleman norm.  Over
F_{p^m}(T), over F(x) itself and over every other field, ``poly_gcd`` is
None and Euclid runs on the field's elements (``poly._gcd_generic``, the
oracle for ``_gcd_ax`` in the tests).
"""

from __future__ import annotations

import functools
import math
import operator

from .errors import InvariantError
from .fq import _power
from .poly import (
    Poly, _fp_add, _fp_divmod, _fp_gcd, _fp_mul, _fp_poly, _fp_scale,
    _interned, _ints,
)

__all__ = ["FracField", "RatFun", "base_field"]


class FracField:
    is_field = True

    def __init__(self, cring, var: str) -> None:
        self.cring = cring
        self.var = var
        pzero = Poly(cring, var, [])
        pone = Poly(cring, var, [cring.one])
        self.zero = RatFun(self, pzero, pone)
        self.one = RatFun(self, pone, pone)
        # the gcd Poly.gcd takes for polynomials over this field
        self.poly_gcd = _gcd_ax if _interned(cring) else None

    def coerce(self, x) -> "RatFun":
        if isinstance(x, RatFun):
            if x.field != self:
                raise ValueError(f"{x!r} not in {self!r}")
            return x
        if isinstance(x, Poly) and x.var == self.var and x.ring == self.cring:
            return RatFun(self, x, self.one.num)
        # anything else (ints, coefficient-ring elements, polynomials over
        # a deeper base) becomes a constant
        c = self.cring.coerce(x)
        return RatFun(self, Poly(self.cring, self.var, [c]), self.one.num)

    def from_pair(self, num: Poly, den: Poly) -> "RatFun":
        return RatFun.make(self, num, den)

    def gen(self) -> "RatFun":
        return self.coerce(Poly.gen(self.cring, self.var))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FracField) and other.var == self.var
                and other.cring == self.cring)

    def __hash__(self) -> int:
        return hash(("FracField", self.var, self.cring))

    def __repr__(self) -> str:
        return f"Frac({self.cring!r}[{self.var}])"


@functools.cache
def base_field(fq) -> FracField:
    """F_q(T), cached per field."""
    return FracField(fq, "T")


class RatFun:
    __slots__ = ("field", "num", "den")

    def __init__(self, field: FracField, num: Poly, den: Poly) -> None:
        # trusted constructor: inputs already canonical
        self.field = field
        self.num = num
        self.den = den

    @staticmethod
    def make(field: FracField, num: Poly, den: Poly) -> "RatFun":
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            return field.zero
        cring = field.cring
        if _interned(cring):
            return _ff_box(field,
                           *_ff_reduced(_ints(num), _ints(den), cring.p))
        return _reduced(field, num, den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def __bool__(self) -> bool:
        return bool(self.num.coeffs)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, RatFun):
            return NotImplemented
        return ((self.field is other.field or self.field == other.field)
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other: "RatFun") -> "RatFun":
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a.coeffs:
            return other
        if not c.coeffs:
            return self
        field = self.field
        if len(b.coeffs) == 1 and len(d.coeffs) == 1:  # monic, so b = d = 1
            return _canonical(field, a + c, b)
        cring = field.cring
        if _interned(cring):
            return _ff_box(field, *_ff_sum(_ints(a), _ints(b), _ints(c),
                                           _ints(d), cring.p), (b, d))
        return _sum(field, a, b, c, d)

    def __sub__(self, other: "RatFun") -> "RatFun":
        return self + (-other)

    def __neg__(self) -> "RatFun":
        return RatFun(self.field, -self.num, self.den)

    def __mul__(self, other: "RatFun") -> "RatFun":
        return _times(self.field, self.num, self.den, other.num, other.den)

    def __truediv__(self, other: "RatFun") -> "RatFun":
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return _times(self.field, self.num, self.den, other.den, other.num)

    def inv(self) -> "RatFun":
        return self.field.one / self

    def __pow__(self, e: int) -> "RatFun":
        if e < 0:
            return self.inv() ** (-e)
        return _power(self, e, self.field.one, operator.mul)

    def derivative(self) -> "RatFun":
        return RatFun.make(
            self.field,
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def valuation(self, p: Poly) -> int | float:
        """Order of vanishing at the monic irreducible p (+inf for 0)."""
        if self.is_zero():
            return math.inf
        return self.num.valuation(p) - self.den.valuation(p)

    def eval(self, point, ring):
        """Evaluate at a point of another parent; denominator must be a unit
        there (its inverse is taken with ``** -1``, unless it is 1)."""
        n = self.num.eval(point, ring)
        if self.den.is_one():
            return n
        d = self.den.eval(point, ring)
        return n * d ** -1

    def __str__(self) -> str:
        ns = str(self.num)
        if self.den.is_one():
            return ns
        ds = str(self.den)
        return f"{_wrap(ns)}/{_wrap(ds)}"

    def __repr__(self) -> str:
        return self.__str__()


# -- Henrici's rule on Poly operands: F_{p^m}(T), F(x), and the oracle -------

def _gcd(a: Poly, b: Poly) -> Poly | None:
    """gcd(a, b) for nonzero a and b, or None when it is 1; a unit on either
    side answers without dividing."""
    if len(a.coeffs) == 1 or len(b.coeffs) == 1:
        return None
    g = a.gcd(b)
    return g if len(g.coeffs) > 1 else None


def _canonical(field: FracField, num: Poly, den: Poly) -> RatFun:
    # num/den with gcd 1 and den monic; only zero still needs its own form
    return RatFun(field, num, den) if num.coeffs else field.zero


def _reduced(field: FracField, num: Poly, den: Poly) -> RatFun:
    """num/den for nonzero num and den, by one gcd of the whole."""
    if not den.is_one():
        g = num.gcd(den)
        if g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        if not den.is_monic():
            lcinv = den.leading ** -1
            num = num.mul_scalar(lcinv)
            den = den.mul_scalar(lcinv)
    return RatFun(field, num, den)


def _sum(field: FracField, a: Poly, b: Poly, c: Poly, d: Poly) -> RatFun:
    """a/b + c/d for canonical operands."""
    if not a.coeffs:
        return _canonical(field, c, d)
    if not c.coeffs:
        return RatFun(field, a, b)
    if len(b.coeffs) == 1 and len(d.coeffs) == 1:  # monic, so b = d = 1
        return _canonical(field, a + c, b)
    g = _gcd(b, d)
    if g is None:
        return RatFun(field, a * d + c * b, b * d)
    b = b.exact_div(g)
    t = a * d.exact_div(g) + c * b
    h = _gcd(t, g) if t.coeffs else None
    if h is not None:
        t, d = t.exact_div(h), d.exact_div(h)
    return _canonical(field, t, b * d)


def _product(field: FracField, a: Poly, b: Poly, c: Poly, d: Poly) -> RatFun:
    """(a/b)(c/d) with gcd(a, b) = gcd(c, d) = 1 and b monic: the cross gcds
    are the only cancellation left.  d need not be monic (a quotient passes
    the divisor's numerator), so the denominator is made monic last."""
    if not a.coeffs or not c.coeffs:
        return field.zero
    g1 = _gcd(a, d)
    if g1 is not None:
        a, d = a.exact_div(g1), d.exact_div(g1)
    g2 = _gcd(c, b)
    if g2 is not None:
        c, b = c.exact_div(g2), b.exact_div(g2)
    num, den = a * c, b if d.is_one() else d if b.is_one() else b * d
    if not den.is_monic():
        lcinv = den.leading ** -1
        num, den = num.mul_scalar(lcinv), den.mul_scalar(lcinv)
    return RatFun(field, num, den)


def _times(field: FracField, a: Poly, b: Poly, c: Poly, d: Poly) -> RatFun:
    """``_product`` on index-list pairs over F_p(T), on Polys elsewhere; a
    product of polynomials (b = d = 1) is one product either way."""
    if len(b.coeffs) == 1 and d.is_one():
        return _canonical(field, a * c, b) if a.coeffs else field.zero
    cring = field.cring
    if _interned(cring):
        return _ff_box(field, *_ff_product(_ints(a), _ints(b), _ints(c),
                                           _ints(d), cring.p), (b, d))
    return _product(field, a, b, c, d)


# -- the F_p(T) kernel: Henrici's rule on (num, den) index-list pairs --------
#
# A pair is two index lists over F_p as ``poly``'s kernel keeps them, in
# canonical form: gcd(num, den) = 1 and den monic, the zero ([], [1]).  Every
# input list is shared with a Poly's index view, so nothing here writes to
# one; outputs may share an input list.

_FF_ZERO = ([], [1])


def _ff_quo(a: list[int], g: list[int], p: int) -> list[int]:
    """a/g for a divisor g of a.  Every division of the rule is exact by
    construction, so a remainder means the kernel itself is broken."""
    quo, rem = _fp_divmod(a, g, p)
    if rem:
        raise InvariantError(
            f"F_p(T) cancellation left a remainder: {a} / {g} over F_{p}")
    return quo


def _ff_cancel(a: list[int], b: list[int], p: int):
    """a/g and b/g for g = gcd(a, b).  The callers skip a unit on either
    side, which has nothing to cancel, without calling."""
    g = _fp_gcd(a, b, p)
    if len(g) == 1:
        return a, b
    return _ff_quo(a, g, p), _ff_quo(b, g, p)


def _ff_monic(a: list[int], b: list[int], p: int):
    """a/b scaled so that b is monic."""
    lcinv = pow(b[-1], -1, p)
    return _fp_scale(a, lcinv, p), _fp_scale(b, lcinv, p)


def _ff_reduced(a: list[int], b: list[int], p: int):
    """``_reduced``: a/b for nonzero a and b, by one gcd of the whole."""
    if len(a) > 1 and len(b) > 1:
        a, b = _ff_cancel(a, b, p)
    return (a, b) if b[-1] == 1 else _ff_monic(a, b, p)


def _ff_sum(a: list[int], b: list[int], c: list[int], d: list[int], p: int):
    """``_sum``: a/b + c/d for canonical pairs."""
    if not a:
        return c, d
    if not c:
        return a, b
    if len(b) == 1 and len(d) == 1:  # monic, so b = d = 1
        t = _fp_add(a, c, 1, p)
        return (t, b) if t else _FF_ZERO
    g = _fp_gcd(b, d, p) if len(b) > 1 and len(d) > 1 else None
    if g is None or len(g) == 1:
        den = d if len(b) == 1 else b if len(d) == 1 else _fp_mul(b, d, p)
        return _fp_add(_fp_mul(a, d, p), _fp_mul(c, b, p), 1, p), den
    b = _ff_quo(b, g, p)
    t = _fp_add(_fp_mul(a, _ff_quo(d, g, p), p), _fp_mul(c, b, p), 1, p)
    if not t:
        return _FF_ZERO
    if len(t) > 1:
        h = _fp_gcd(t, g, p)
        if len(h) > 1:
            t, d = _ff_quo(t, h, p), _ff_quo(d, h, p)
    return t, _fp_mul(b, d, p)


def _ff_product(a: list[int], b: list[int], c: list[int], d: list[int],
                p: int):
    """``_product``: (a/b)(c/d) with b monic and d monic or not."""
    if not a or not c:
        return _FF_ZERO
    if len(a) > 1 and len(d) > 1:
        a, d = _ff_cancel(a, d, p)
    if len(c) > 1 and len(b) > 1:
        c, b = _ff_cancel(c, b, p)
    num = _fp_mul(a, c, p)
    den = b if d == [1] else d if len(b) == 1 else _fp_mul(b, d, p)
    return (num, den) if den[-1] == 1 else _ff_monic(num, den, p)


def _ff_box(field: FracField, a: list[int], b: list[int],
            dens: tuple = ()) -> RatFun:
    """The RatFun of a canonical pair, each Poly built once.  A denominator
    1 is the field's own, and one that is the index view of a Poly in dens
    (the operands' denominators) is that Poly."""
    if not a:
        return field.zero
    fp, var = field.cring, field.var
    if len(b) == 1:
        return RatFun(field, _fp_poly(fp, var, a), field.one.den)
    for den in dens:
        if den._ix is b:
            return RatFun(field, _fp_poly(fp, var, a), den)
    return RatFun(field, _fp_poly(fp, var, a), _fp_poly(fp, var, b))


# -- gcds in F_p(T)[x] by a primitive remainder sequence over A = F_p[T] -----

def _gcd_ax(a: Poly, b: Poly) -> Poly:
    """The monic gcd of a and b in F[x], F = F_p(T) over an interned F_p.

    Each operand is cleared of its T-denominators and made primitive in
    A[x]; by Gauss's lemma their gcd there, made monic over F, is the gcd
    in F[x].  Collins's primitive remainder sequence finds it (Knuth, TAOCP
    vol. 2, 4.6.1) with every A-operation a ``_fp_*`` call on index lists,
    so the only fractions built are the coefficients of the answer: one
    ``RatFun.make(c, lc)`` each.  The monic gcd is unique, so this equals
    ``_gcd_generic``, which runs Euclid on ``RatFun`` coefficients and is
    the oracle in the tests."""
    if not b.coeffs:
        return a.monic()
    if not a.coeffs:
        return b.monic()
    F = a.ring
    p = F.cring.p
    f, g = _primitive(_cleared(a, p), p), _primitive(_cleared(b, p), p)
    if len(f) < len(g):
        f, g = g, f
    while len(g) > 1:
        r = _prem(f, g, p)
        if not r:
            lc = g[-1]
            return Poly(F, a.var, [_ff_box(F, *_ff_reduced(c, lc, p)) if c
                                   else F.zero for c in g[:-1]] + [F.one])
        f, g = g, _primitive(r, p)
    return Poly(F, a.var, [F.one])


def _cleared(a: Poly, p: int) -> list[list[int]]:
    """The A-coefficients of d a, d the monic lcm of a's denominators."""
    d = [1]
    for c in a.coeffs:
        den = _ints(c.den)
        if len(den) > 1:  # monic, so a constant denominator is 1
            d = den if len(d) == 1 else _fp_mul(
                d, _fp_divmod(den, _fp_gcd(d, den, p), p)[0], p)
    if len(d) == 1:
        return [_ints(c.num) for c in a.coeffs]
    return [_fp_mul(_ints(c.num), _fp_divmod(d, _ints(c.den), p)[0], p)
            for c in a.coeffs]


def _primitive(f: list[list[int]], p: int) -> list[list[int]]:
    """Nonzero f in A[x] divided by the gcd of its coefficients."""
    content = None
    for c in f:
        if c:
            content = c if content is None else _fp_gcd(content, c, p)
            if len(content) == 1:
                return f
    return [_fp_divmod(c, content, p)[0] for c in f]


def _prem(f: list[list[int]], g: list[list[int]], p: int) -> list[list[int]]:
    """f mod g in A[x] for deg f >= deg g >= 1, up to a factor in A: each
    step cancels the top term of f with lc(g) f - top x^s g, or with
    f - (top/lc(g)) x^s g when lc(g) is a unit.  Stripped."""
    lc, m = g[-1], len(g) - 1
    linv = pow(lc[0], -1, p) if len(lc) == 1 else 0
    r = list(f)
    for s in range(len(r) - 1 - m, -1, -1):
        top = r.pop()
        if not top:
            continue
        if linv:
            top = _fp_scale(top, linv, p)
        else:
            r = [_fp_mul(c, lc, p) for c in r]
        for j in range(m):
            r[s + j] = _fp_add(r[s + j], _fp_mul(top, g[j], p), -1, p)
    while r and not r[-1]:
        r.pop()
    return r


def _wrap(s: str) -> str:
    """Parenthesize unless the string is a single grammar factor."""
    if "+" in s or "-" in s or "*" in s:
        return f"({s})"
    return s
