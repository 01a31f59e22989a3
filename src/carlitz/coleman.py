"""The norm operator on Carlitz power series.

For a series or rational function f in x over F = F_q(T) and a monic prime
pi, the norm N f is pinned down by

    prod_{u in phi[pi]} f(x + u)  =  (N f)(phi_pi(x)),

the product running over all pi-torsion points of the Carlitz module.  The
product is computed without ever adjoining a torsion point.  phi_pi is monic
and F_q-linear, so phi_pi(y) - phi_pi(x) is the product of y - x - u over
the torsion u, and the norm of P(y) from K[x][y]/(phi_pi(y) - x) down to
K[x] -- the determinant of multiplication by P(y) -- is h(x) with
h(phi_pi(x)) = prod_u P(x + u).  One norm gives N P already written in
phi_pi(x): no Taylor shift P(x + y) and no decomposition of a product.
That norm is the resultant Res_y(phi_pi(y) - x, P): P is reduced mod
phi_pi(y) - x to degree k < q^deg pi (or kept at k = q^deg pi when it
is led by F_q^* and its reduction is not), and the symmetry of the resultant
makes it one k x k characteristic polynomial.

The coefficient ring K is A = F_q[T]: a polynomial in x over F is first
scaled by the lcm d of its coefficient denominators, phi_pi is monic with A
coefficients, so the norm matrix and its determinant need no division.
When the reduced P's leading coefficient c depends on x, the norm is
divided by a power of c exactly in A[x].  F is touched once at the end:
each coefficient is put over d^(q^deg pi) by one gcd.  All of it runs on
F's kernel, which is the ring A and owns A[x] (index lists over F_p, Polys
over F_{p^m}), and no Poly has A or A[x] as its coefficient ring.  The
gcds that keep the rational functions of F(x) reduced run on the same
kernel, over every F_q(T) (``ratfun._gcd_ax``).

That norm is ``cyclo._norm_poly`` along phi_a for any monic a: the tower
norm N_{F_n/F_m} is the same construction along phi_{pi^(n-m)}, read at
omega_m, so it lives with the cyclotomic fields and this module calls it
with a = pi.  N is asked for f, g and fg built from a few small factors,
so ``_norm_poly`` keeps its last 128 (p, a) results in an LRU cache.  Its
sibling in ``cyclo``, the inverse of each Galois image phi_b(omega) that a
``CycloField`` keeps for ``cyclotomic_unit``, is bounded by the field's
|(A/pi^n)^*| classes.

Exact inputs are ratios of polynomials in x and stay exact.  Truncated
inputs are handled on their stored representative: the leading x-power is
split off (N x = x), the unit part is normed exactly, and the result keeps
the input's precision tag.
"""

from __future__ import annotations

import functools

from .cmod import carlitz_phi, _require_prime
from .cyclo import CycloField, _norm_poly
from .errors import PrecisionError
from .fq import Fq
from .poly import Poly
from .quotient import QuotElem
from .ratfun import FracField, RatFun, base_field
from .series import TruncSeries

__all__ = [
    "ColemanSeries",
    "coleman_norm",
    "star_action",
    "eval_at_omega",
    "phi_poly",
    "cyclotomic_unit_series",
]

@functools.cache
def x_field(fq: Fq) -> FracField:
    """F(x) with F = F_q(T); rational functions in the series variable."""
    return FracField(base_field(fq), "x")


def phi_poly(a: Poly, var: str = "x") -> Poly:
    """phi_a(x) as a plain polynomial in x with coefficients in F."""
    return carlitz_phi(a).as_additive(base_field(a.ring), var)


class ColemanSeries:
    """A series-with-provenance: either an exact ratio of polynomials in x
    over F, or a truncated Laurent series.  ``pi`` is the prime the norm
    operator (and torsion evaluation) is taken at; it may be left unset for
    the operations that never use it."""

    __slots__ = ("fq", "value", "pi")

    def __init__(self, value, pi: Poly | None = None) -> None:
        if isinstance(value, (Poly, TruncSeries)) and isinstance(value.ring, Fq):
            F = base_field(value.ring)
            if isinstance(value, Poly):
                value = value.map_coeffs(F.coerce, ring=F)
            else:
                value = TruncSeries(F, value.var, value.order,
                                    [F.coerce(c) for c in value.coeffs],
                                    value.prec)
        if isinstance(value, (Poly, TruncSeries)) and value.var != "x":
            raise ValueError(f"the series variable must be x, got {value.var}")
        if isinstance(value, TruncSeries) and value.prec is None:
            # exact Laurent polynomial: fold into the rational form
            F = value.ring
            xf = x_field(_fq_of(F))
            num = Poly(F, "x", value.coeffs)
            if value.order >= 0:
                value = xf.from_pair(num.shift(value.order), xf.one.den)
            else:
                den = Poly(F, "x", [F.zero] * (-value.order) + [F.one])
                value = xf.from_pair(num, den)
        if isinstance(value, Poly):
            value = x_field(_fq_of(value.ring)).coerce(value)
        if isinstance(value, RatFun):
            self.fq = _fq_of(value.field.cring)
        elif isinstance(value, TruncSeries):
            self.fq = _fq_of(value.ring)
        else:
            raise TypeError(f"cannot build a Coleman series from {value!r}")
        if pi is not None:
            _require_prime(pi)
        self.value = value
        self.pi = pi

    @property
    def tag(self) -> str:
        if isinstance(self.value, RatFun):
            return "exact"
        return f"truncated at {self.value.prec}"

    def is_exact(self) -> bool:
        return isinstance(self.value, RatFun)

    def order(self) -> int:
        """x-adic order of the leading term."""
        if isinstance(self.value, TruncSeries):
            if not self.value.coeffs:
                raise ValueError("order of a series with no known terms")
            return self.value.order
        if self.value.is_zero():
            raise ValueError("order of the zero function")
        return _x_order(self.value.num) - _x_order(self.value.den)

    def as_series(self, prec: int) -> TruncSeries:
        """Expand at x = 0 through O(x^prec)."""
        if isinstance(self.value, TruncSeries):
            return self.value.truncate(prec)
        num, den = self.value.num, self.value.den
        if num.is_zero():
            return TruncSeries.zero(num.ring, num.var, prec)
        a, b = _x_order(num), _x_order(den)
        nu = TruncSeries(num.ring, num.var, 0, num.coeffs[a:], prec - a + b)
        de = TruncSeries(den.ring, den.var, 0, den.coeffs[b:], prec - a + b)
        return (nu / de).shift(a - b).truncate(prec)

    def _merge_pi(self, other: "ColemanSeries") -> Poly | None:
        if self.pi is None:
            return other.pi
        if other.pi is None or other.pi == self.pi:
            return self.pi
        raise ValueError("mixed primes in Coleman series arithmetic")

    def __mul__(self, other: "ColemanSeries") -> "ColemanSeries":
        pi = self._merge_pi(other)
        a, b = self.value, other.value
        if isinstance(a, RatFun) and isinstance(b, RatFun):
            return ColemanSeries(a * b, pi)
        prec = _finite_prec(a, b)
        return ColemanSeries(self.as_series(prec) * other.as_series(prec), pi)

    def __truediv__(self, other: "ColemanSeries") -> "ColemanSeries":
        pi = self._merge_pi(other)
        a, b = self.value, other.value
        if isinstance(a, RatFun) and isinstance(b, RatFun):
            return ColemanSeries(a / b, pi)
        prec = _finite_prec(a, b)
        return ColemanSeries(self.as_series(prec) / other.as_series(prec), pi)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ColemanSeries) and other.value == self.value
                and other.pi == self.pi)

    def __hash__(self) -> int:
        return hash(("ColemanSeries", self.value))

    def __repr__(self) -> str:
        return f"ColemanSeries({self.value!r}; {self.tag})"


def _fq_of(ring) -> Fq:
    if isinstance(ring, Fq):
        return ring
    if isinstance(ring, FracField):
        return _fq_of(ring.cring)
    raise TypeError(f"no finite base field under {ring!r}")


def _x_order(p: Poly) -> int:
    """Index of the lowest nonzero coefficient; 0 for the zero polynomial."""
    for i, c in enumerate(p.coeffs):
        if c != p.ring.zero:
            return i
    return 0


def _finite_prec(a, b) -> int:
    precs = [v.prec for v in (a, b)
             if isinstance(v, TruncSeries) and v.prec is not None]
    if not precs:
        raise ValueError("no finite precision on either operand")
    return min(precs)


def cyclotomic_unit_series(a: Poly, b: Poly, pi: Poly | None = None) -> ColemanSeries:
    """phi_a(x)/phi_b(x): evaluating at a torsion generator gives the
    cyclotomic unit c(a, b)."""
    if a.is_zero() or b.is_zero():
        raise ValueError("both indices must be nonzero")
    F = x_field(a.ring)
    return ColemanSeries(F.from_pair(phi_poly(a), phi_poly(b)), pi)


# -- the norm ------------------------------------------------------------------

def coleman_norm(f: ColemanSeries) -> ColemanSeries:
    """N f, with (N f)(phi_pi(x)) = prod over pi-torsion u of f(x + u).

    Multiplicative; fixes phi_a for a prime to pi; on truncated input the
    stored representative is normed exactly and the precision tag carried."""
    if f.pi is None:
        raise ValueError("Coleman norm needs the prime attached to the series")
    pi = f.pi
    if isinstance(f.value, RatFun):
        num = _norm_poly(f.value.num, pi)
        den = _norm_poly(f.value.den, pi)
        return ColemanSeries(RatFun.make(f.value.field, num, den), pi)
    ser = f.value
    if not ser.coeffs:
        raise ZeroDivisionError("norm of a series with no known terms")
    unit = Poly(ser.ring, ser.var, ser.coeffs)
    normed = _norm_poly(unit, pi)
    return ColemanSeries(
        TruncSeries(ser.ring, ser.var, ser.order, normed.coeffs, ser.prec), pi)


# -- Galois twisting and torsion evaluation ------------------------------------

def star_action(a: Poly, f: ColemanSeries) -> ColemanSeries:
    """(a * f)(x) = f(phi_a(x)); the series-level Galois action."""
    if a.is_zero():
        raise ValueError("the acting element must be nonzero")
    if isinstance(f.value, RatFun):
        pa = phi_poly(a, var=f.value.num.var)
        return ColemanSeries(
            RatFun.make(f.value.field, f.value.num.compose(pa),
                        f.value.den.compose(pa)), f.pi)
    ser = f.value
    inner = TruncSeries.from_poly(phi_poly(a, var=ser.var))
    if ser.order < 0:
        inner = inner.truncate(ser.prec + 2 * (-ser.order) + 2)
    return ColemanSeries(ser.compose(inner), f.pi)


def eval_at_omega(f: ColemanSeries, n: int) -> QuotElem:
    """f(omega_n) in the level-n cyclotomic field.

    Exact input always evaluates (the denominator must stay invertible).  A
    truncated input is evaluated on its representative once its precision
    covers a full power basis of the field, i.e. prec >= deg m_n.  Each
    polynomial in x is read at omega by one reduction mod m_n (the field's
    ``coerce``), not by Horner's rule."""
    if f.pi is None:
        raise ValueError("evaluation needs the prime attached to the series")
    field = CycloField.get(f.pi, n)
    if isinstance(f.value, RatFun):
        num, den = f.value.num, f.value.den
        value = field.coerce(num)
        return value if den.is_one() else value * field.coerce(den) ** -1
    ser = f.value
    if ser.prec is not None and ser.prec < field.degree:
        raise PrecisionError(
            f"evaluating at a level-{n} torsion point needs precision "
            f">= {field.degree}, have {ser.prec}",
            needed=field.degree,
        )
    value = field.coerce(Poly(ser.ring, ser.var, ser.coeffs))
    return value * field.omega ** ser.order if ser.order else value
