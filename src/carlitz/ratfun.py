"""Rational functions num/den over any polynomial ring with field coefficients.

Canonical form: gcd(num, den) = 1 and den monic, so equality is componentwise.
``FracField(Fq.get(q), "T")`` is the base field F = F_q(T); nesting as in
``FracField(F, "x")`` gives rational functions in x over F, which is how
logarithmic derivatives of Carlitz ratios are carried around exactly.

``+``, ``*``, ``/`` and ``make`` follow Henrici's rule (JACM 3, 1956; Knuth,
TAOCP vol. 2, 4.5.1), written once: with canonical operands a/b and c/d, a
common factor can only come from the factors themselves, so the gcds run on
them, never on the assembled product.
  * ``_product``: (a/b)(c/d) = ((a/g1)(c/g2)) / ((b/g2)(d/g1)), g1 =
    gcd(a, d) and g2 = gcd(c, b), each skipped when one side is a unit.
  * ``_sum``: a/b + c/d with g = gcd(b, d) is (ad + cb)/(bd) when g = 1;
    otherwise t = a(d/g) + c(b/g), h = gcd(t, g) and the sum is
    (t/h)/((b/g)(d/h)).
  * ``_reduced``: an arbitrary pair by one gcd of the whole.  It serves
    ``make``, so ``from_pair``, ``derivative`` and every caller that
    assembles a fraction from an arbitrary pair.

The rule runs on a kernel (``_Kernel``), the one adapter for the ring A of
numerators and denominators, which each ``FracField`` builds in
``__init__``.  Over F_p(T) on an interned F_p (p <= 256), the index kernel
holds values as ``poly``'s index lists, each operation a closure over one
``_fp_*`` call with p bound, and builds the result's two polynomials once.
Over F_{p^m}(T), F(x) and every other field, the Poly kernel holds Polys
and calls their methods.  A division the rule makes exact that leaves a
remainder raises ``InvariantError`` on both kernels.  The tests check the
index kernel against the Poly kernel on F_p(T).  A kernel carries zero,
one and neg, so it is a ring as ``fq._power`` and ``quotient.charpoly``
take one, and it owns A[x] on plain lists of its values (its ``x``: add,
sub and the schoolbook product, the same loop over every field), with
``_exact_quo``, ``_primitive`` and ``_prem`` written once on it.  The
torsion norms of ``cyclo`` run on it: ``_cleared`` clears a polynomial's
T-denominators into kernel values, and A and A[x] serve their reductions
and matrices.

``series`` runs its products, quotients and compositions over every fraction
field on the same kernels, but not term by term through the rule: ``_dot``
sums a whole coefficient sum(a_i c_i / (b_i d_i)) over a running
denominator, with the kernel's ``divmod`` deciding whether one denominator
divides the other, and reduces it by one gcd at the end.

Which gcd a ``Poly`` takes follows its coefficient parent.  Over F_p
(p <= 256) it is ``poly``'s integer kernel.  Over every F = F_q(T), the
parent's ``poly_gcd`` is ``_gcd_ax``: each operand is cleared of its
T-denominators into A[x], A = F_q[T], and a primitive remainder sequence
runs there on F's kernel, so the only fractions built are the coefficients
of the monic answer.  That serves the numerators and denominators of F(x),
the rational functions of the Coleman norm.  Over F(x) itself and over
every other field, ``poly_gcd`` is None and Euclid runs on the field's
elements (``poly._gcd_generic``, the oracle for ``_gcd_ax`` in the
tests).
"""

from __future__ import annotations

import functools
import math
import operator

from .errors import InvariantError
from .fq import Fq, _power
from .poly import (
    Poly, _fp_add, _fp_divmod, _fp_gcd, _fp_mul, _fp_poly, _fp_scale,
    _interned, _poly_quo,
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
        # the gcd Poly.gcd takes for polynomials over this field, and the
        # kernel Henrici's rule runs on for its elements
        self.poly_gcd = _gcd_ax if isinstance(cring, Fq) else None
        self.kernel = (_index_kernel(cring.p) if _interned(cring)
                       else _poly_kernel(pzero, pone))

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
        k = field.kernel
        return k.box(field, _reduced(k, k.view(num), k.view(den)))

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
        if not self.num.coeffs:
            return other
        if not other.num.coeffs:
            return self
        k = self.field.kernel
        view = k.view
        return k.box(self.field, _sum(k, view(self.num), view(self.den),
                                      view(other.num), view(other.den)))

    def __sub__(self, other: "RatFun") -> "RatFun":
        return self + (-other)

    def __neg__(self) -> "RatFun":
        return RatFun(self.field, -self.num, self.den)

    def __mul__(self, other: "RatFun") -> "RatFun":
        k = self.field.kernel
        view = k.view
        return k.box(self.field, _product(k, view(self.num), view(self.den),
                                          view(other.num), view(other.den)))

    def __truediv__(self, other: "RatFun") -> "RatFun":
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        # a/b divided by c/d is (a/b)(d/c), with c made monic first
        k = self.field.kernel
        view = k.view
        pair = k.monic(view(other.den), view(other.num))
        return k.box(self.field,
                     _product(k, view(self.num), view(self.den), *pair))

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


# -- Henrici's rule, once for every kernel ------------------------------------

class _Ring:
    """A commutative ring as the generic loops take one (``fq._power``,
    ``quotient.charpoly``, ``_reduce`` and ``_mult_rows``): its zero and
    one, and add, sub (a - b), mul and neg on its values."""

    __slots__ = ("zero", "one", "add", "sub", "mul", "neg")

    def __init__(self, zero, one, add, sub, mul, neg) -> None:
        self.zero, self.one = zero, one
        self.add, self.sub, self.mul, self.neg = add, sub, mul, neg


class _Kernel(_Ring):
    """A, the ring a numerator or denominator lies in, on the values the
    rule holds it as: a ``_Ring`` whose operations take values alone (the
    index kernel binds p in them).  size(a) is 0 for zero and 1 for a
    unit; view maps a Poly to its value; gcd is monic; quo(a, g) is a/g
    for a divisor g of a, and a remainder is an ``InvariantError``;
    divmod(a, b) is the quotient and remainder by nonzero b; monic(a, b)
    is a/b with b made monic; box(field, pair) is the RatFun of a
    canonical pair.  A zero may carry any denominator, so each
    entry of the rule tests for zero first.  x is the ``_Ring`` A[x] on
    plain lists of values (x low first, no trailing zero), the form the
    gcds below and the torsion norms of ``cyclo`` take: add, sub and neg
    coefficientwise, and mul by the schoolbook rule on the kernel's own
    add and mul, on every field, one product per pair of nonzero entries
    (the torsion norms' A[x] values carry many zero A-coefficients), and
    an add only onto a nonzero partial sum.  Input
    values may be shared with a Poly, so nothing writes to one."""

    __slots__ = ("size", "view", "divmod", "gcd", "quo", "monic", "box",
                 "x")

    def __init__(self, zero, one, size, view, add, sub, neg, mul, divmod,
                 gcd, quo, monic, box) -> None:
        super().__init__(zero, one, add, sub, mul, neg)
        self.size, self.view, self.divmod = size, view, divmod
        self.gcd, self.quo, self.monic, self.box = gcd, quo, monic, box

        def add_x(a, b):
            if len(a) < len(b):
                a, b = b, a
            out = [add(u, v) for u, v in zip(a, b)] + a[len(b):]
            while out and not size(out[-1]):
                out.pop()
            return out

        def sub_x(a, b):
            out = [sub(u, v) for u, v in zip(a, b)]
            out += a[len(b):] or [neg(v) for v in b[len(a):]]
            while out and not size(out[-1]):
                out.pop()
            return out

        def schoolbook(a, b):
            if not a or not b:
                return []
            out = [zero] * (len(a) + len(b) - 1)
            for i, u in enumerate(a):
                if size(u):
                    for j, v in enumerate(b, i):
                        if size(v):
                            w = mul(u, v)
                            out[j] = add(out[j], w) if size(out[j]) else w
            return out

        self.x = _Ring([], [one], add_x, sub_x, schoolbook,
                       lambda a: [neg(c) for c in a])


def _cancel(k: _Kernel, a, b):
    """a/g and b/g for g = gcd(a, b).  The callers skip a unit on either
    side, which has nothing to cancel, without calling."""
    g = k.gcd(a, b)
    if k.size(g) == 1:
        return a, b
    return k.quo(a, g), k.quo(b, g)


def _reduced(k: _Kernel, a, b):
    """a/b for nonzero a and b, by one gcd of the whole."""
    size = k.size
    if size(a) > 1 and size(b) > 1:
        a, b = _cancel(k, a, b)
    return k.monic(a, b)


def _sum(k: _Kernel, a, b, c, d):
    """a/b + c/d for canonical pairs."""
    size = k.size
    if not size(a):
        return c, d
    if not size(c):
        return a, b
    if size(b) == 1 and size(d) == 1:  # monic, so b = d = 1
        return k.add(a, c), b
    mul, add = k.mul, k.add
    g = k.gcd(b, d) if size(b) > 1 and size(d) > 1 else None
    if g is None or size(g) == 1:
        den = d if size(b) == 1 else b if size(d) == 1 else mul(b, d)
        return add(mul(a, d), mul(c, b)), den
    quo = k.quo
    b = quo(b, g)
    t = add(mul(a, quo(d, g)), mul(c, b))
    if size(t) > 1:
        h = k.gcd(t, g)
        if size(h) > 1:
            t, d = quo(t, h), quo(d, h)
    return t, mul(b, d)


def _product(k: _Kernel, a, b, c, d):
    """(a/b)(c/d) for canonical pairs: the cross gcds are the only
    cancellation left, and they leave both denominators monic."""
    size = k.size
    if not size(a):
        return a, b
    if not size(c):
        return c, d
    # a denominator is 1 more often than a numerator is a constant
    if size(d) > 1 and size(a) > 1:
        a, d = _cancel(k, a, d)
    if size(b) > 1 and size(c) > 1:
        c, b = _cancel(k, c, b)
    return k.mul(a, c), (b if size(d) == 1 else d if size(b) == 1
                         else k.mul(b, d))


def _dot(k: _Kernel, xs, ys):
    """The sum of x*y over x of xs and y of ys taken in step, each a
    canonical pair or None for a zero: a canonical pair, or None when the
    sum is zero.  A single term is a product, whose cross gcds skip a unit
    side (``_product``).  Otherwise each term a*c/(b*d) joins the sum n/l
    unreduced.  The running denominator l grows by one exact quotient when
    one of l and e = b*d divides the other, and otherwise becomes their
    lcm, through one gcd with the remainder that test left.  The sum is
    reduced once, by ``_reduced``, so a coefficient of a series product or
    quotient costs one gcd where Henrici's rule took several per term."""
    terms = [(x, y) for x, y in zip(xs, ys) if x and y]
    if len(terms) < 2:
        return _product(k, *terms[0][0], *terms[0][1]) if terms else None
    size, mul, add = k.size, k.mul, k.add
    n = l = None
    for (a, b), (c, d) in terms:
        t = mul(a, c)
        e = b if size(d) == 1 else d if size(b) == 1 else mul(b, d)
        if n is None or not size(n):
            n, l = t, e
        elif size(e) == 1:  # monic, so e = 1
            n = add(n, t if size(l) == 1 else mul(t, l))
        elif size(l) == 1:
            n, l = add(mul(n, e), t), e
        else:
            big, small = (l, e) if size(e) <= size(l) else (e, l)
            q, r = k.divmod(big, small)
            if not size(r):
                if big is l:
                    n = add(n, mul(t, q))
                else:
                    n, l = add(mul(n, q), t), e
                continue
            g = k.gcd(small, r)  # = gcd(l, e)
            if size(g) > 1:
                lg, eg = k.quo(l, g), k.quo(e, g)
            else:
                lg, eg = l, e
            n, l = add(mul(n, eg), mul(t, lg)), mul(l, eg)
    return _reduced(k, n, l) if size(n) else None


# -- the index kernel: F_p(T) on index lists, as poly's _fp_* keep them ------

def _index_kernel(p: int) -> _Kernel:
    """A = F_p[T] on poly's index lists, each operation one ``_fp_*`` call
    with p bound."""

    def quo(a: list[int], g: list[int]) -> list[int]:
        q, rem = _fp_divmod(a, g, p)
        if rem:
            raise InvariantError(
                f"F_p(T) cancellation left a remainder: {a} / {g} over F_{p}")
        return q

    def monic(a: list[int], b: list[int]):
        if b[-1] == 1:
            return a, b
        lcinv = pow(b[-1], -1, p)
        return _fp_scale(a, lcinv, p), _fp_scale(b, lcinv, p)

    return _Kernel(
        [], [1], len, operator.attrgetter("_ix"),
        lambda a, b: _fp_add(a, b, p),
        lambda a, b: _fp_add(a, b, p, -1),
        lambda a: _fp_scale(a, p - 1, p),
        lambda a, b: _fp_mul(a, b, p),
        lambda a, b: _fp_divmod(a, b, p),
        lambda a, b: _fp_gcd(a, b, p),
        quo, monic, _fp_box)


def _fp_box(field: FracField, pair: tuple) -> RatFun:
    """The RatFun of a canonical pair, each Poly built once; a denominator
    1 is the field's own."""
    a, b = pair
    if not a:
        return field.zero
    fp, var = field.cring, field.var
    if len(b) == 1:
        return RatFun(field, _fp_poly(fp, var, a), field.one.den)
    return RatFun(field, _fp_poly(fp, var, a), _fp_poly(fp, var, b))


# -- the Poly kernel: F_{p^m}(T), F(x) and every other field ------------------

def _poly_kernel(zero: Poly, one: Poly) -> _Kernel:
    """The ring of the Polys zero and one on their own methods."""
    return _Kernel(
        zero, one, lambda a: len(a.coeffs), lambda a: a, operator.add,
        operator.sub, operator.neg, operator.mul,
        lambda a, b: a.divmod(b), lambda a, b: a.gcd(b), _poly_quo,
        _poly_monic, _poly_box)


def _poly_monic(a: Poly, b: Poly):
    """a/b with b scaled monic."""
    if b.is_monic():
        return a, b
    lcinv = b.leading ** -1
    return a.mul_scalar(lcinv), b.mul_scalar(lcinv)


def _poly_box(field: FracField, pair: tuple) -> RatFun:
    a, b = pair
    return RatFun(field, a, b) if a.coeffs else field.zero


# -- A[x] on kernel values: exact quotients and gcds in F_q(T)[x] -----------

def _exact_quo(k: _Kernel, h: list, e: list) -> list:
    """h/e in A[x] for an e that divides h by construction: a remainder
    in A or in A[x] is one ``InvariantError`` naming h and e."""
    size, sub, mul = k.size, k.sub, k.mul
    n = len(e) - 1
    r = list(h)
    quo = []
    try:
        for i in range(len(r) - 1, n - 1, -1):
            c = k.quo(r.pop(), e[-1])
            quo.append(c)
            if size(c):
                for j in range(n):
                    r[i - n + j] = sub(r[i - n + j], mul(c, e[j]))
    except InvariantError:
        pass
    else:
        if not any(map(size, r)):
            return quo[::-1]
    raise InvariantError(f"{h} is not divisible by {e} in A[x]")


def _primitive(k: _Kernel, f: list) -> list:
    """Nonzero f in A[x] divided by the gcd of its coefficients."""
    size, gcd = k.size, k.gcd
    content = None
    for c in f:
        if size(c):
            content = c if content is None else gcd(content, c)
            if size(content) == 1:
                return f
    return [k.quo(c, content) for c in f]


def _prem(k: _Kernel, f: list, g: list) -> list:
    """f mod g in A[x] for deg f >= deg g >= 1, up to a factor in A: each
    step cancels the top term of f with lc(g) f - top x^s g, or with
    f - (top/lc(g)) x^s g when lc(g) is a unit.  Stripped."""
    size, mul, sub = k.size, k.mul, k.sub
    lc, m = g[-1], len(g) - 1
    unit = size(lc) == 1
    r = list(f)
    for s in range(len(r) - 1 - m, -1, -1):
        top = r.pop()
        if not size(top):
            continue
        if unit:
            top = k.monic(top, lc)[0]  # top/lc
        else:
            r = [mul(c, lc) for c in r]
        for j in range(m):
            r[s + j] = sub(r[s + j], mul(top, g[j]))
    while r and not size(r[-1]):
        r.pop()
    return r


def _gcd_ax(a: Poly, b: Poly) -> Poly:
    """The monic gcd of a and b in F[x], F = F_q(T).

    Each operand is cleared of its T-denominators and made primitive in
    A[x]; by Gauss's lemma their gcd there, made monic over F, is the gcd
    in F[x].  Collins's primitive remainder sequence finds it (Knuth, TAOCP
    vol. 2, 4.6.1) on F's kernel values, so the only fractions built are
    the coefficients of the answer, each c/lc by ``_reduced``.  The monic
    gcd is unique, so this equals ``_gcd_generic``, which runs Euclid on
    ``RatFun`` coefficients and is the oracle in the tests."""
    if not b.coeffs:
        return a.monic()
    if not a.coeffs:
        return b.monic()
    F = a.ring
    k = F.kernel
    f = _primitive(k, _cleared(F, a.coeffs)[1])
    g = _primitive(k, _cleared(F, b.coeffs)[1])
    if len(f) < len(g):
        f, g = g, f
    while len(g) > 1:
        r = _prem(k, f, g)
        if not r:
            lc = g[-1]
            return Poly(F, a.var, [k.box(F, _reduced(k, c, lc)) if k.size(c)
                                   else F.zero for c in g[:-1]] + [F.one])
        f, g = g, _primitive(k, r)
    return Poly(F, a.var, [F.one])


def _cleared(F: FracField, cs) -> tuple:
    """(d, [c d for c in cs]) on F's kernel values, for fractions cs over
    F: d is the monic lcm of their denominators, 1 when they have none."""
    k = F.kernel
    size, view = k.size, k.view
    d = view(F.one.den)
    for c in cs:
        den = view(c.den)
        if size(den) > 1:  # monic, so a constant denominator is 1
            d = den if size(d) == 1 else k.mul(d, k.quo(den, k.gcd(d, den)))
    if size(d) == 1:
        return d, [view(c.num) for c in cs]
    return d, [k.mul(view(c.num), k.quo(d, view(c.den))) for c in cs]


def _wrap(s: str) -> str:
    """Parenthesize unless the string is a single grammar factor."""
    if "+" in s or "-" in s or "*" in s:
        return f"({s})"
    return s
