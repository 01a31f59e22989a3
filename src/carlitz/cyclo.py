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
and it has one route: r is reduced mod phi_a(y) - x to degree k < Q =
q^deg a (kept at k = Q when it is led by F_q^* and its reduction is
not), and the symmetry of the resultant makes it one k x k
characteristic polynomial, over A when no coefficient of the reduced r
depends on x and over A[x] otherwise (``_resultant_norm``).  The Q x Q
determinant over A[x] is the tests' oracle.  The torsion norm h is read at
omega_m as h reduced mod m_m (``coerce``), one division in place of
Horner's rule, which stays the path for every other point
(``galois_act``).  The norm to F itself is the determinant over F.  Each
of these is ``det`` or ``charpoly`` of one ``quotient._mult_matrix``.  The
extension is totally ramified at pi, of degree e = deg m_n, with
uniformizer omega_n, so the valuation of sum_(i < e) c_i omega^i is the
least e val_pi(c_i) + i: these are distinct mod e, so no two terms cancel.
``valuation_at_p`` reads it off the power basis and takes no norm;
val_pi(N_{F_n/F}(e)), the same number, is its oracle in the tests.

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
from .poly import Poly, PolyRing, _poly_quo
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
    already written in phi_a(x).  ``_resultant_norm`` gives it as h/e in
    A[x].  An e free of x joins d^Q in each coefficient's denominator;
    otherwise h/d^Q is divided by e in F[x], and a remainder is an
    ``InvariantError``.

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
            d = d * _poly_quo(c.den, d.gcd(c.den))
    h, e = _resultant_norm([c.num * _poly_quo(d, c.den) for c in p.coeffs],
                           qr)
    den = d ** qr.degree
    if e.degree == 0:
        den = den * e.constant
    norm = Poly(F, p.var, [F.coerce(c) if den.is_one()
                           else RatFun.make(F, c, den) for c in h.coeffs])
    if e.degree == 0:
        return norm
    norm, rem = norm.divmod(Poly(F, p.var, [F.coerce(c) for c in e.coeffs]))
    if not rem.is_zero():
        raise InvariantError(f"torsion norm of {p!r} along {a!r} leaves "
                             f"the remainder {rem!r}")
    return norm


def _resultant_norm(P: list, qr: QuotientRing) -> tuple[Poly, Poly]:
    """(h, e) in A[x] with N(P) = h/e, for P in A[y] (coefficients low
    first) and N(P) its norm in qr = A[x][y]/(m), m = phi_a(y) - x, by one
    characteristic polynomial of side at most Q = q^deg a.

    N(P) is the resultant Res_y(m, P).  P is first reduced mod m to Pbar
    of degree k < Q, with leading coefficient c.  A P of degree Q led by
    F_q^* is kept as Pbar (k = Q, its matrix free of x) unless the reduced
    one is constant or led by F_q^* too: otherwise reducing it would only
    fill the matrix with powers of c.  With beta over the roots of Pbar,
    Res_y(m, Pbar) = (-1)^(kQ) c^Q prod_beta m(beta).  Put z = c y:
    Pt(z) = c^(k-1) Pbar(z/c) is monic, and c^Q m(z/c) = M'(z) - c^Q x,
    M' the y^j terms of m (j >= 1) times c^(Q-j).  So N(P) =
    (-1)^(kQ) det(M'(zbar) - c^Q x) / c^(Q(k-1)) on A[x][z]/(Pt), and
    det(M'(zbar) - t) = (-1)^k chi(t), chi the ``charpoly`` of the
    ``_mult_matrix`` of -M'(zbar).  The sign (-1)^(k(Q+1)) is 1: Q + 1 is
    even for odd q, and -1 = 1 for even q.  For c = 1 nothing is scaled
    and e = 1."""
    R = qr.K
    A = R.cring
    Q = qr.degree
    P = Poly(R, qr.var, [Poly(A, R.var, [b]) for b in P])
    if P.degree >= Q:
        Pbar = qr.coerce(P).rep
        if (P.degree > Q or not _unit_led(P) or _unit_led(Pbar)
                or Pbar.degree == 0):
            P = Pbar
    # M'(y) = phi_a(y): the modulus without its -x term
    mod = [R.zero] + list(qr.modulus.coeffs[1:])
    P = list(P.coeffs)
    K = R
    if all(b.degree <= 0 for b in P):
        # no entry depends on x: the same matrix over A, which is cheaper
        K = A
        P, mod = [b.constant for b in P], [b.constant for b in mod]
    k = len(P) - 1
    c = P[-1]
    if k == 0:
        terms, e = [c ** Q], K.one
    else:
        monic = c.is_one()
        if not monic:
            P = [b * c ** (k - 1 - i) for i, b in enumerate(P[:-1])] + [K.one]
            mod = [b if b.is_zero() else b * c ** (Q - j)
                   for j, b in enumerate(mod)]
        ring = QuotientRing(Poly(K, qr.var, P))
        chi = charpoly(_mult_matrix(ring.coerce(
            Poly(K, qr.var, [-b for b in mod]))))
        # chi(c^Q x), low first: the coefficient of x^i is chi_(k-i) c^(Qi)
        terms, e = chi[::-1] + [K.one], K.one
        if not monic:
            cq = c ** Q
            terms = [b * cq ** i for i, b in enumerate(terms)]
            e = cq ** (k - 1)
    if K is A:
        terms, e = [Poly(A, R.var, [t]) for t in terms], Poly(A, R.var, [e])
    return sum((t.shift(i) for i, t in enumerate(terms)), R.zero), e


def _unit_led(P: Poly) -> bool:
    """Whether P in A[x][y] has its leading coefficient in F_q^*."""
    return P.leading.degree == 0 and P.leading.constant.degree == 0


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
