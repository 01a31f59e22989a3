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

A Coleman series is exact: a ratio of polynomials in x, which every
series the paper norms or evaluates is (phi_a(x)/phi_b(x) and its
products).  A truncated series is refused with a ``PrecisionError``: the
translates x + u and the point omega are not small x-adically, so every
coefficient of f reaches the low terms of N f and the value f(omega), and
no truncation determines either.  ``as_series`` expands an exact series at
x = 0 when a truncation is wanted.
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
    """An exact ratio of polynomials in x over F, with provenance: ``pi``
    is the prime the norm operator (and torsion evaluation) is taken at;
    it may be left unset for the operations that never use it.  A
    polynomial in x over F_q or F is lifted into F(x) and a RatFun must
    already lie there; a truncated series is a ``PrecisionError`` and
    anything else a ``TypeError``."""

    __slots__ = ("value", "pi")

    def __init__(self, value, pi: Poly | None = None) -> None:
        if isinstance(value, Poly):
            if value.var != "x":
                raise ValueError(
                    f"the series variable must be x, got {value.var}")
            if isinstance(value.ring, Fq):
                F = base_field(value.ring)
                value = value.map_coeffs(F.coerce, ring=F)
            value = x_field(_fq_of(value.ring)).coerce(value)
        elif isinstance(value, TruncSeries) and value.prec is not None:
            raise PrecisionError(
                f"a Coleman series must be exact, not truncated at "
                f"O(x^{value.prec}): its norm and torsion values read "
                "every coefficient")
        elif not (isinstance(value, RatFun) and value.field.var == "x"
                  and isinstance(value.field.cring, FracField)
                  and value.field.cring.var == "T"
                  and isinstance(value.field.cring.cring, Fq)):
            # F(x), F = F_q(T), as ``x_field`` builds it, read off the
            # attributes: an ``==`` against ``x_field`` takes about 1.5 us,
            # and every product and quotient builds a Coleman series
            raise TypeError(f"cannot build a Coleman series from {value!r}")
        if pi is not None:
            _require_prime(pi)
        self.value = value
        self.pi = pi

    def order(self) -> int:
        """x-adic order of the leading term."""
        if self.value.is_zero():
            raise ValueError("order of the zero function")
        return _x_order(self.value.num) - _x_order(self.value.den)

    def as_series(self, prec: int) -> TruncSeries:
        """Expand at x = 0 through O(x^prec)."""
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
        return ColemanSeries(self.value * other.value, self._merge_pi(other))

    def __truediv__(self, other: "ColemanSeries") -> "ColemanSeries":
        return ColemanSeries(self.value / other.value, self._merge_pi(other))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ColemanSeries) and other.value == self.value
                and other.pi == self.pi)

    def __hash__(self) -> int:
        return hash(("ColemanSeries", self.value))

    def __repr__(self) -> str:
        return f"ColemanSeries({self.value!r})"


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

    Multiplicative, and fixes phi_a for a prime to pi; num and den are
    normed separately."""
    if f.pi is None:
        raise ValueError("Coleman norm needs the prime attached to the series")
    pi = f.pi
    num = _norm_poly(f.value.num, pi)
    den = _norm_poly(f.value.den, pi)
    return ColemanSeries(RatFun.make(f.value.field, num, den), pi)


# -- Galois twisting and torsion evaluation ------------------------------------

def star_action(a: Poly, f: ColemanSeries) -> ColemanSeries:
    """(a * f)(x) = f(phi_a(x)); the series-level Galois action."""
    if a.is_zero():
        raise ValueError("the acting element must be nonzero")
    pa = phi_poly(a, var=f.value.num.var)
    return ColemanSeries(
        RatFun.make(f.value.field, f.value.num.compose(pa),
                    f.value.den.compose(pa)), f.pi)


def eval_at_omega(f: ColemanSeries, n: int) -> QuotElem:
    """f(omega_n) in the level-n cyclotomic field; the denominator must
    stay invertible there.  Each polynomial in x is read at omega by one
    reduction mod m_n (the field's ``coerce``), not by Horner's rule."""
    if f.pi is None:
        raise ValueError("evaluation needs the prime attached to the series")
    field = CycloField.get(f.pi, n)
    num, den = f.value.num, f.value.den
    value = field.coerce(num)
    return value if den.is_one() else value * field.coerce(den) ** -1
