"""Carlitz cyclotomic fields F_n = F(omega_n) and their Galois arithmetic.

F_n is the splitting field of the pi^n-torsion of the Carlitz module,
presented concretely as F[x]/(m_n) where m_n is the minimal polynomial of a
torsion generator omega_n.  CycloField is the QuotientRing on m_n, so its
elements are plain QuotElems.  Gal(F_n/F) = (A/pi^n)^* acts through the
module: the class of a sends omega_n to phi_a(omega_n).  The field holds
that group as the ``groupring.GroupRing`` ``galois``, whose reduced keys
are the Galois representatives, the same keys Stickelberger elements use.

Norms down the tower are torsion norms.  The conjugates of omega_n over F_m
(1 <= m < n) are omega_n + phi[pi^(n-m)], the translates by the
pi^(n-m)-torsion, so N_{F_n/F_m}(r(omega_n)) = h(omega_m) with
h(phi_{pi^(n-m)}(x)) = prod_u r(x + u): one norm in A[x][y]/(phi_a(y) - x)
with a = pi^(n-m), the same one the Coleman norm takes with a = pi.  That
norm is the resultant Res_y(phi_a(y) - x, r) with r's denominators cleared,
and it is taken from the smaller side: with Q = q^deg a, k = deg r <= Q and
lc(r) = c in F_q^*, the symmetry of the resultant gives c^Q det(x I - M),
M multiplication by phi_a(y) on A[y]/(r/c), a k x k characteristic
polynomial over A.  The sign (-1)^(k(Q+1)) is 1: Q + 1 is even for odd q,
and -1 = 1 for even q.  Otherwise the Q x Q determinant over A[x] is taken.
The torsion norm h is read at omega_m as h reduced mod m_m
(``coerce``), one division in place of Horner's rule, which stays the path
for every other point (``galois_act``).  The norm to F itself is the
determinant over F.  Each of these is ``det``
or ``charpoly`` of one ``quotient._mult_matrix``.  The extension is
totally ramified at pi, of degree e = deg m_n, with uniformizer omega_n, so
the valuation of sum_(i < e) c_i omega^i is the least e val_pi(c_i) + i:
these are distinct mod e, so no two terms cancel.  ``valuation_at_p``
reads it off the power basis and takes no norm; val_pi(N_{F_n/F}(e)), the
same number, is its oracle in the tests.

Two caches keep a warm process from redoing the same work.  The torsion
norm ``_norm_poly`` is memoized on (p, a) in an LRU cache of 128 entries:
its keys are values rather than parents, so an unbounded cache would grow
with every new input, and 256 entries cost twice the memory for about 7%
more hits.  Each CycloField keeps, per reduced Galois key b, the
image phi_b(omega) and its inverse, so ``cyclotomic_unit`` multiplies by a
stored inverse instead of running one extended gcd per call; a field has
only |(A/pi^n)^*| keys, so these need no bound.
"""

from __future__ import annotations

import functools
import math

from .cmod import carlitz_phi, omega_minpoly
from .errors import InvariantError
from .fq import Fq
from .groupring import GroupRing
from .poly import Poly, PolyRing
from .quotient import (
    QuotElem, QuotientRing, _mult_matrix, charpoly, quotient_norm,
)
from .ratfun import RatFun, base_field

__all__ = [
    "CycloField",
    "galois_act",
    "field_norm",
    "valuation_at_p",
    "upsilon",
    "cyclotomic_unit",
]


class CycloField(QuotientRing):
    """F[x]/(m_n); use :meth:`get` so towers share instances."""

    def __init__(self, pi: Poly, n: int) -> None:
        self.fq: Fq = pi.ring
        self.pi = pi
        self.n = n
        self.minpoly_A = omega_minpoly(pi, n)  # x-poly, F_q[T] coefficients
        self.galois = GroupRing(pi, n)
        F = base_field(self.fq)
        self.F = F
        super().__init__(self.minpoly_A.map_coeffs(F.coerce, ring=F))
        self.omega = self.gen()
        self._act_images: dict[Poly, QuotElem] = {}
        self._act_inverses: dict[Poly, QuotElem] = {}

    @staticmethod
    @functools.cache
    def get(pi: Poly, n: int) -> "CycloField":
        return CycloField(pi, n)

    def galois_reps(self) -> list[Poly]:
        """Canonical representatives of (A/pi^n)^* in enumeration order."""
        return self.galois.group_keys()

    def _omega_image(self, a_red: Poly) -> QuotElem:
        img = self._act_images.get(a_red)
        if img is None:
            img = carlitz_phi(a_red).eval(self.omega, self)
            self._act_images[a_red] = img
        return img

    def _omega_image_inverse(self, a_red: Poly) -> QuotElem:
        inv = self._act_inverses.get(a_red)
        if inv is None:
            inv = self._omega_image(a_red).inv()
            self._act_inverses[a_red] = inv
        return inv

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CycloField) and other.pi == self.pi
                and other.n == self.n)

    def __hash__(self) -> int:
        return hash(("CycloField", self.pi, self.n))

    def __repr__(self) -> str:
        return f"CycloField({self.pi!r}, {self.n})"


def _unit_rep(field: CycloField, a) -> Poly:
    if not isinstance(a, Poly):
        raise TypeError(f"Galois element must be a polynomial, got {a!r}")
    return field.galois.key(a)


def galois_act(a, e: QuotElem) -> QuotElem:
    """Action of the class of a in (A/pi^n)^*: omega |-> phi_a(omega)."""
    field = e.ring
    img = field._omega_image(_unit_rep(field, a))
    return e.rep.eval(img, ring=field)


def field_norm(e: QuotElem, target_level: int):
    """Norm from level n to level m <= n; lands in F itself for m = 0.

    For 1 <= m < n the Galois group of F_n/F_m is the classes 1 + pi^m b,
    which move omega_n to omega_n + phi_b(omega_(n-m)): the conjugates are
    omega_n + u over the pi^(n-m)-torsion phi[pi^(n-m)].  So with
    e = r(omega_n) the norm is h(omega_m), h the torsion norm of r along
    phi_{pi^(n-m)} (``_norm_poly``), read at omega_m = phi_{pi^(n-m)}(omega_n).
    """
    field = e.ring
    n, m = field.n, target_level
    if m < 0 or m > n:
        raise ValueError(f"target level {m} outside [0, {n}]")
    if m == n:
        return e
    if m == 0:
        return quotient_norm(e)
    sub = CycloField.get(field.pi, m)
    # h(omega_m) is h mod m_m: one division, not Horner's rule
    return sub.coerce(_norm_poly(e.rep, field.pi ** (n - m)))


@functools.lru_cache(maxsize=128)
def _norm_poly(p: Poly, a: Poly) -> Poly:
    """h with h(phi_a(x)) = prod over the a-torsion u of p(x + u).

    p has coefficients in F; with d the monic lcm of their denominators,
    P = d p lies in A[y], and N(p) = N(P)/d^Q with Q = q^deg a.  N(P) is
    the norm of P(y) in A[x][y]/(phi_a(y) - x), which lands in A[x]
    already written in phi_a(x); dividing its coefficients by d^Q in F is
    the only fraction work.

    That norm is the resultant Res_y(phi_a(y) - x, P), and it is taken from
    the smaller side: when k = deg P <= Q and lc(P) = c lies in F_q^*,
    ``_resultant_norm`` swaps the arguments and takes a k x k determinant
    over A; otherwise ``_torsion_norm`` takes the Q x Q one over A[x].

    Memoized (128 entries, least recently used out): the Coleman norm
    meets the same few factors again and again.  Equal keys have equal
    rings, so a hit never crosses fields, and the Poly it returns is
    immutable."""
    if p.is_zero():
        return p
    F = p.ring
    qr = _torsion_quotient(a)
    A = qr.K.cring
    d = A.one
    for c in p.coeffs:
        if not c.den.is_one():
            d = d * c.den.exact_div(d.gcd(c.den))
    P = [c.num * d.exact_div(c.den) for c in p.coeffs]
    if len(P) - 1 <= qr.degree and P[-1].degree == 0:
        h = _resultant_norm(P, qr)
    else:
        h = _torsion_norm(P, qr)
    if d.is_one():
        return Poly(F, p.var, [F.coerce(c) for c in h])
    dn = d ** qr.degree
    return Poly(F, p.var, [RatFun.make(F, c, dn) for c in h])


def _torsion_norm(P: list, qr: QuotientRing) -> list:
    """Coefficients in A of N(P) for P in A[y] (coefficients low first):
    the Q x Q determinant of multiplication by P(y) in the torsion quotient
    qr = A[x][y]/(phi_a(y) - x)."""
    R = qr.K
    elem = Poly(R, qr.var, [Poly(R.cring, R.var, [c]) for c in P])
    return list(quotient_norm(qr.coerce(elem)).coeffs)


def _resultant_norm(P: list, qr: QuotientRing) -> list:
    """N(P) as in ``_torsion_norm``, for deg P = k <= Q and lc(P) = c in
    F_q^*, by a k x k characteristic polynomial over A.

    By the symmetry of the resultant, with beta over the roots of P,
    Res_y(phi_a(y) - x, P) = (-1)^(kQ) c^Q prod_beta (phi_a(beta) - x)
    = (-1)^(k(Q+1)) c^Q det(x I - M), where M is multiplication by
    phi_a(ybar) on A[y]/(P/c).  The sign is 1: Q + 1 is even for odd q, and
    -1 = 1 for even q.  c^Q = c, as c lies in F_q.  det(x I - M) is
    ``charpoly`` of -M, the ``_mult_matrix`` of -phi_a(ybar)."""
    A = qr.K.cring
    c = P[-1]
    if len(P) == 1:
        return [c]
    ring = QuotientRing(Poly(A, qr.var, [b.mul_scalar(c.constant ** -1)
                                         for b in P]))
    # -phi_a(y): the modulus phi_a(y) - x of qr without its -x term, negated
    neg = Poly(A, qr.var,
               [A.zero] + [-m.coeff(0) for m in qr.modulus.coeffs[1:]])
    chi = charpoly(_mult_matrix(ring.coerce(neg)))
    return [b.mul_scalar(c.constant) for b in reversed(chi)] + [c]


@functools.cache
def _torsion_quotient(a: Poly) -> QuotientRing:
    """A[x][y]/(phi_a(y) - x) over A = F_q[T], for a monic a.

    phi_a is monic and F_q-linear, so phi_a(y) - phi_a(x) is the product
    of y - x - u over the a-torsion u: the norm of P(y) is h(x) with
    h(phi_a(x)) = prod_u P(x + u).  The modulus is monic in y, so reducing
    by it needs no inverse."""
    phi = carlitz_phi(a).as_additive(var="y")
    A = phi.ring
    R = PolyRing(A, "x")
    coeffs = [Poly(A, R.var, [c]) for c in phi.coeffs]
    coeffs[0] = -R.gen()
    return QuotientRing(Poly(R, phi.var, coeffs))


def valuation_at_p(e: QuotElem):
    """omega-adic valuation, read off the power basis; +inf for 0.

    F_n/F is totally ramified at pi of degree deg = field.degree, with
    uniformizer omega.  For e = sum_(i < deg) c_i omega^i the terms have
    valuations deg * val_pi(c_i) + i, distinct mod deg, so no two can
    cancel and val(e) is their minimum.  It equals val_pi(N_{F_n/F}(e)),
    the route the tests keep as the oracle."""
    if e.is_zero():
        return math.inf
    field = e.ring
    coeffs = e.rep.coeffs
    if len(coeffs) > field.degree:
        raise InvariantError(
            f"representative of degree {len(coeffs) - 1} in a field of "
            f"degree {field.degree}")
    return min(field.degree * c.valuation(field.pi) + i
               for i, c in enumerate(coeffs) if c)


def upsilon(field: CycloField, exponents) -> QuotElem:
    """prod_a galois_act(a, omega)^(c_a) for integer exponents c_a."""
    items = sorted(exponents.items(), key=lambda kv: kv[0].sort_key()) \
        if isinstance(exponents, dict) else list(exponents)
    acc = field.one
    for a, c in items:
        if c == 0:
            continue
        base = galois_act(a, field.omega)
        acc = acc * base ** c
    return acc


def cyclotomic_unit(a: Poly, b: Poly, field: CycloField) -> QuotElem:
    """c(a, b) = phi_a(omega)/phi_b(omega); a unit when a, b are prime to pi.
    The inverse of phi_b(omega) is the field's stored one."""
    num = field._omega_image(_unit_rep(field, a))
    return num * field._omega_image_inverse(_unit_rep(field, b))
