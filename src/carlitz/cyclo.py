"""Carlitz cyclotomic fields F_n = F(omega_n) and their Galois arithmetic.

F_n is the splitting field of the pi^n-torsion of the Carlitz module,
presented concretely as F[x]/(m_n) where m_n is the minimal polynomial of a
torsion generator omega_n.  CycloField is the QuotientRing on m_n, so its
elements are plain QuotElems.  Gal(F_n/F) = (A/pi^n)^* acts through the
module: the class of a sends omega_n to phi_a(omega_n).  The field holds
that group as ``galois``, the ``groupring.GroupRing.get(pi, n)`` whose keys
the Stickelberger elements of level pi^n use: one instance for both.

Norms down the tower are torsion norms.  The conjugates of omega_n over F_m
(1 <= m < n) are omega_n + phi[pi^(n-m)], the translates by the
pi^(n-m)-torsion, so N_{F_n/F_m}(r(omega_n)) = h(omega_m) with
h(phi_{pi^(n-m)}(x)) = prod_u r(x + u): one norm in A[x][y]/(phi_a(y) - x)
with a = pi^(n-m), the same one the Coleman norm takes with a = pi.  That
norm is the resultant Res_y(phi_a(y) - x, r) with r's denominators cleared,
and it has one route: r is reduced mod phi_a(y) - x to degree k < Q =
q^deg a (kept at k = Q when it is led by F_q^* and its reduction is
not), and the symmetry of the resultant makes it one k x k
characteristic polynomial, over A when r is not reduced and over A[x]
when it is, since a reduced r always depends on x (``_resultant_norm``).
The route runs on F's kernel (``ratfun._Kernel``), which is the ring A
and owns A[x], from the cleared coefficients to the answer: an A-value is
an index list over F_p and a Poly over F_{p^m}, an A[x]-value a plain
list of them (the kernel's ``x``), multiplied by its schoolbook rule on
every field;
phi_a(y) - x is kept per a as its taps over A[x], -x at y^0 and
A-constants above (``_torsion``), r is reduced by them with
``poly._reduce``, and a division by e in A[x] is the kernel's
``ratfun._exact_quo``.  No Poly over A or A[x] is built, and each
coefficient of the answer is boxed once, by ``ratfun._reduced``.  The
same route on Polys and a QuotientRing over A[x], and the Q x Q
determinant there, are the tests' oracles.  The torsion norm h is read at
omega_m as h reduced mod m_m (``coerce``), one division in place of
Horner's rule, and so is phi_a(x) at omega_n; Horner's rule stays the path
for every other point (``galois_act``).  The norm to F itself is the
determinant over F (``quotient_norm``).  Each of these is ``det`` or
``charpoly`` of one multiplication matrix (``quotient._mult_rows``), on the
entry ring's own operations.

The extension is totally ramified at pi, of degree e = deg m_n, with
uniformizer omega_n, so the valuation of sum_(i < e) c_i omega^i is the
least e val_pi(c_i) + i: these are distinct mod e, so no two terms cancel.
``valuation_at_p`` reads it off the power basis and takes no norm;
val_pi(N_{F_n/F}(e)), the same number, is its oracle in the tests.

Caches keep a warm process from redoing the same work.  The torsion
norm ``_norm_poly`` is memoized on (p, a) in an LRU cache of 128 entries:
its keys are values rather than parents, so an unbounded cache would grow
with every new input, and 256 entries cost twice the memory for about 7%
more hits.  Each CycloField keeps, per reduced Galois key b, the image
phi_b(omega) and its inverse, so ``cyclotomic_unit`` and ``upsilon``
multiply by a stored inverse instead of running one extended gcd per call;
a field has only |(A/pi^n)^*| keys, so these need no bound.  Like the
``get`` of CycloField and GroupRing, the taps of each phi_a(y) - x
(``_torsion``) are built once and kept: they grow with the moduli a
process meets, not with its inputs.  The rings A and A[x] need no cache
of their own: they are the kernel that
``base_field(fq)``, itself cached, built with F.
"""

from __future__ import annotations

import functools
import math

from .cmod import carlitz_phi, omega_minpoly
from .errors import InvariantError
from .fq import Fq, _power
from .groupring import GroupRing
from .poly import Poly, _reduce, _taps
from .quotient import (
    QuotElem, QuotientRing, _mult_rows, charpoly, quotient_norm,
)
from .ratfun import _cleared, _exact_quo, _reduced, base_field

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
        self.galois = GroupRing.get(pi, n)
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
            # phi_a(omega) is phi_a(x) mod m_n: one division, as field_norm
            img = self.coerce(carlitz_phi(a_red).as_additive(self.F))
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
    A[x], on F's kernel values.  An e free of x joins d^Q in each
    coefficient's denominator; otherwise h is divided by e in A[x] first,
    and a remainder is an ``InvariantError``.  Each coefficient is boxed
    over its denominator by one ``_reduced``.

    Memoized (128 entries, least recently used out): the Coleman norm
    meets the same few factors again and again.  Equal keys have equal
    rings, so a hit never crosses fields, and the Poly it returns is
    immutable."""
    if p.is_zero():
        return p
    F = p.ring
    k = F.kernel
    d, P = _cleared(F, p.coeffs)
    h, e = _resultant_norm(P, a)
    den = d if d == k.one else _power(d, _torsion(a)[0], k.one, k.mul)
    if len(e) == 1:
        if e != k.x.one:
            den = k.mul(den, e[0])
    else:
        h = _exact_quo(k, h, e)
    return Poly(F, p.var, [k.box(F, _reduced(k, c, den)) if k.size(c)
                           else F.zero for c in h])


def _resultant_norm(P: list, a: Poly) -> tuple[list, list]:
    """(h, e) in A[x] with N(P) = h/e, for P in A[y] (coefficients low
    first) and N(P) its norm in A[x][y]/(m), m = phi_a(y) - x, by one
    characteristic polynomial of side at most Q = q^deg a.  A-values are
    kernel values and A[x]-values lists of them (the kernel's ``x``).

    N(P) is the resultant Res_y(m, P).  P is first reduced mod m to Pbar
    of degree k < Q, with leading coefficient c.  A P of degree Q led by
    F_q^* is kept as Pbar (k = Q, its matrix free of x) unless the reduced
    one is constant or led by F_q^* too: otherwise reducing it would only
    fill the matrix with powers of c.  With beta over the roots of Pbar,
    Res_y(m, Pbar) = (-1)^(kQ) c^Q prod_beta m(beta).  Put z = c y:
    Pt(z) = c^(k-1) Pbar(z/c) is monic, and c^Q m(z/c) = M'(z) - c^Q x,
    M' the y^j terms of m (j >= 1) times c^(Q-j).  So N(P) =
    (-1)^(kQ) det(M'(zbar) - c^Q x) / c^(Q(k-1)) on K[z]/(Pt), and
    det(M'(zbar) - t) = (-1)^k chi(t), chi the ``charpoly`` of
    multiplication by -M'(zbar).  The sign (-1)^(k(Q+1)) is 1: Q + 1 is
    even for odd q, and -1 = 1 for even q.  K is A when P is not reduced
    and A[x] when it is.  For c = 1 nothing is scaled and e = 1."""
    Q, taps = _torsion(a)
    A = base_field(a.ring).kernel
    AX, size = A.x, A.size
    K = A
    if len(P) > Q:
        # P is nonzero and free of x, and phi_a(y) - x has x-degree 1, so
        # no multiple of it is P and Pbar is nonzero.  Nor is Pbar free of
        # x: then P - Pbar, a multiple of it, would be free of x too, so
        # zero, and deg P >= Q > deg Pbar
        Pbar = _reduce([[c] if size(c) else [] for c in P], taps, Q,
                       AX.zero, AX.sub, AX.mul)
        while not Pbar[-1]:
            Pbar.pop()
        top = Pbar[-1]
        if (len(P) > Q + 1 or size(P[-1]) != 1 or len(Pbar) == 1
                or len(top) == 1 and size(top[0]) == 1):
            P, K = Pbar, AX
    zero, one, mul = K.zero, K.one, K.mul
    k = len(P) - 1
    c = P[-1]
    if k == 0:
        terms, e = [_power(c, Q, one, mul)], one
    else:
        # M'(y) = phi_a(y): the modulus without its -x, its only tap at
        # y^0 (phi_a has no y^0 term)
        mod = [zero] * Q + [one]
        for j, phi in taps:
            if j:
                mod[j] = phi[0] if K is A else phi
        monic = c == one
        if not monic:
            P = [mul(b, _power(c, k - 1 - i, one, mul))
                 for i, b in enumerate(P[:-1])] + [one]
            mod = [b if b == zero else mul(b, _power(c, Q - j, one, mul))
                   for j, b in enumerate(mod)]
        ptaps = _taps(P, zero)
        col = [K.neg(b) for b in _reduce(mod, ptaps, k, zero, K.sub, mul)]
        chi = charpoly(_mult_rows(col, ptaps, zero, K.sub, mul),
                       K.add, mul, K.neg)
        # chi(c^Q x), low first: the coefficient of x^i is chi_(k-i) c^(Qi)
        terms, e = chi[::-1] + [one], one
        if not monic:
            cq = _power(c, Q, one, mul)
            terms = [mul(b, _power(cq, i, one, mul))
                     for i, b in enumerate(terms)]
            e = _power(cq, k - 1, one, mul)
    if K is A:
        return terms, [e]
    h = AX.zero
    for i, t in enumerate(terms):
        if t:
            h = AX.add(h, [A.zero] * i + t)
    return h, e


@functools.cache
def _torsion(a: Poly) -> tuple[int, list]:
    """(Q, taps) for m = phi_a(y) - x, a monic in A = F_q[T]: Q = q^deg a
    and taps the ``_taps`` of m over A[x], as lists of kernel values: -x
    at y^0 and the A-constants phi_j of phi_a below y^Q.

    phi_a is monic and F_q-linear, so phi_a(y) - phi_a(x) is the product
    of y - x - u over the a-torsion u: the norm of P(y) is h(x) with
    h(phi_a(x)) = prod_u P(x + u).  The modulus is monic in y, so reducing
    by it needs no inverse."""
    phi = carlitz_phi(a).as_additive(var="y")
    k = base_field(a.ring).kernel
    m = [[k.view(c)] if c.coeffs else [] for c in phi.coeffs]
    m[0] = k.x.sub(m[0], [k.zero, k.one])
    return phi.degree, _taps(m, [])


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
        k = _unit_rep(field, a)
        base = field._omega_image(k) if c > 0 else field._omega_image_inverse(k)
        acc = acc * base ** abs(c)
    return acc


def cyclotomic_unit(a: Poly, b: Poly, field: CycloField) -> QuotElem:
    """c(a, b) = phi_a(omega)/phi_b(omega); a unit when a, b are prime to pi.
    The inverse of phi_b(omega) is the field's stored one."""
    num = field._omega_image(_unit_rep(field, a))
    return num * field._omega_image_inverse(_unit_rep(field, b))
