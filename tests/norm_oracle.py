"""Slower independent routes for the torsion norm of ``cyclo._norm_poly``.

The library takes the norm on the kernel values of F = F_q(T): index lists
over F_p, ``Poly``s over F_{p^m}, and plain lists of them for A[x].  These
routes build ``Poly``s over A = F_q[T] and A[x] and a ``QuotientRing`` on
phi_a(y) - x instead, and are the tests' oracles:

* ``poly_route``: the same k x k route as the library (reduce mod
  phi_a(y) - x, rescale by the leading coefficient, one characteristic
  polynomial), on ``Poly`` and ``QuotientRing`` arithmetic;
* ``torsion_route``: the Q x Q determinant over A[x] of multiplication by
  d p(y), with no reduction rule at all.
"""

import functools

from carlitz.cmod import carlitz_phi
from carlitz.errors import InvariantError
from carlitz.poly import Poly, PolyRing, _poly_quo
from carlitz.quotient import (
    QuotientRing, _mult_matrix, charpoly, quotient_norm,
)
from carlitz.ratfun import RatFun


@functools.cache
def torsion_quotient(a):
    """A[x][y]/(phi_a(y) - x) over A = F_q[T], for a monic a."""
    phi = carlitz_phi(a).as_additive(var="y")
    A = phi.ring
    R = PolyRing(A, "x")
    coeffs = [Poly(A, R.var, [c]) for c in phi.coeffs]
    coeffs[0] = -R.gen()
    return QuotientRing(Poly(R, phi.var, coeffs))


def torsion_route(p, a):
    """The Q x Q determinant over A[x] of multiplication by d p(y) in
    A[x][y]/(phi_a(y) - x), divided by d^Q, with d the plain product of
    the coefficient denominators."""
    F = p.ring
    d = F.one
    for c in p.coeffs:
        d = d * F.coerce(c.den)
    qr = torsion_quotient(a)
    R = qr.K
    elem = Poly(R, qr.var, [Poly(R.cring, R.var, [(c * d).num])
                            for c in p.coeffs])
    h = quotient_norm(qr.coerce(elem)).coeffs
    return Poly(F, p.var, [F.coerce(c) / d ** qr.degree for c in h])


def poly_route(p, a):
    """The library's k x k route on Polys over A and A[x]: d p is reduced
    mod phi_a(y) - x by ``QuotientRing.coerce`` under the same rule, its
    norm is h/e from one ``charpoly`` over A or A[x], and h/(e d^Q) is
    taken in F[x], where a remainder is an ``InvariantError``."""
    if p.is_zero():
        return p
    F = p.ring
    qr = torsion_quotient(a)
    A = qr.K.cring
    d = A.one
    for c in p.coeffs:
        if not c.den.is_one():
            d = d * _poly_quo(c.den, d.gcd(c.den))
    h, e = _poly_resultant([c.num * _poly_quo(d, c.den) for c in p.coeffs],
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
        raise InvariantError(f"remainder {rem!r}")
    return norm


def _unit_led(P):
    return P.leading.degree == 0 and P.leading.constant.degree == 0


def _poly_resultant(P, qr):
    R = qr.K
    A = R.cring
    Q = qr.degree
    P = Poly(R, qr.var, [Poly(A, R.var, [b]) for b in P])
    if P.degree >= Q:
        Pbar = qr.coerce(P).rep
        if (P.degree > Q or not _unit_led(P) or _unit_led(Pbar)
                or Pbar.degree == 0):
            P = Pbar
    mod = [R.zero] + list(qr.modulus.coeffs[1:])
    P = list(P.coeffs)
    K = R
    if all(b.degree <= 0 for b in P):
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
        terms, e = chi[::-1] + [K.one], K.one
        if not monic:
            cq = c ** Q
            terms = [b * cq ** i for i, b in enumerate(terms)]
            e = cq ** (k - 1)
    if K is A:
        terms, e = [Poly(A, R.var, [t]) for t in terms], Poly(A, R.var, [e])
    return sum((t.shift(i) for i, t in enumerate(terms)), R.zero), e
