"""Carlitz cyclotomic fields F_n = F(omega_n) and their Galois arithmetic.

F_n is the splitting field of the pi^n-torsion of the Carlitz module,
presented concretely as F[x]/(m_n) where m_n is the minimal polynomial of a
torsion generator omega_n.  CycloField is the QuotientRing on m_n, so its
elements are plain QuotElems.  Gal(F_n/F) = (A/pi^n)^* acts through the
module: the class of a sends omega_n to phi_a(omega_n).  The extension is
totally ramified at pi with uniformizer omega_n, so valuations descend
through the multiplication-matrix norm: val(e) = val_pi(N_{F_n/F}(e)).
"""

from __future__ import annotations

import math

from .cmod import carlitz_phi, omega_minpoly
from .fq import Fq
from .poly import Poly, all_residues
from .quotient import (
    QuotElem, QuotientRing, ResidueRing, quotient_norm, solve_linear,
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

_CYCLO_CACHE: dict[tuple[int, tuple, int], "CycloField"] = {}


class CycloField(QuotientRing):
    """F[x]/(m_n); use :meth:`get` so towers share instances."""

    def __init__(self, pi: Poly, n: int) -> None:
        self.fq: Fq = pi.ring
        self.pi = pi
        self.n = n
        self.minpoly_A = omega_minpoly(pi, n)  # x-poly, F_q[T] coefficients
        self.residues = ResidueRing(pi, n)
        F = base_field(self.fq)
        self.F = F
        super().__init__(self.minpoly_A.map_coeffs(F.coerce, ring=F))
        self.omega = self.gen()
        self._act_images: dict[Poly, QuotElem] = {}

    @staticmethod
    def get(pi: Poly, n: int) -> "CycloField":
        key = (pi.ring.q, pi.coeffs, n)
        field = _CYCLO_CACHE.get(key)
        if field is None:
            field = CycloField(pi, n)
            _CYCLO_CACHE[key] = field
        return field

    def galois_reps(self) -> list[Poly]:
        """Canonical representatives of (A/pi^n)^* in enumeration order."""
        return self.residues.unit_residues()

    def _omega_image(self, a_red: Poly) -> QuotElem:
        img = self._act_images.get(a_red)
        if img is None:
            img = carlitz_phi(a_red).eval(self.omega, self)
            self._act_images[a_red] = img
        return img

    def _omega_image_subfield(self, k: int) -> QuotElem:
        """phi_{pi^k}(omega_n) inside the level-n field."""
        return carlitz_phi(self.pi ** k).eval(self.omega, self)

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
    a_red = field.residues.reduce(a)
    if not field.residues.is_unit_key(a_red):
        raise ValueError(f"{a!r} is not prime to {field.pi!r}")
    return a_red


def galois_act(a, e: QuotElem) -> QuotElem:
    """Action of the class of a in (A/pi^n)^*: omega |-> phi_a(omega)."""
    field = e.ring
    img = field._omega_image(_unit_rep(field, a))
    return e.rep.eval(img, ring=field)


def field_norm(e: QuotElem, target_level: int):
    """Norm from level n to level m <= n; lands in F itself for m = 0.

    The Galois group of F_n/F_m is the classes of {1 + pi^m b}, so the norm
    is the product of those conjugates; the result is rewritten through the
    subfield embedding omega_m = phi_{pi^(n-m)}(omega_n) by linear algebra.
    """
    field = e.ring
    n, m = field.n, target_level
    if m < 0 or m > n:
        raise ValueError(f"target level {m} outside [0, {n}]")
    if m == n:
        return e
    if m == 0:
        return quotient_norm(e)
    fq, pi = field.fq, field.pi
    d = pi.degree
    acc = field.one
    pim = pi ** m
    one = Poly(fq, pi.var, [fq.one])
    for b in all_residues(fq, (n - m) * d, pi.var):
        a = one + pim * b
        acc = acc * galois_act(a, e)
    # rewrite acc as a polynomial in omega_m = phi_{pi^(n-m)}(omega_n)
    sub = CycloField.get(pi, m)
    image = field._omega_image_subfield(n - m)
    cols = []
    power = field.one
    for _ in range(sub.degree):
        cols.append([power.rep.coeff(i) for i in range(field.degree)])
        power = power * image
    mat = [[cols[j][i] for j in range(sub.degree)] for i in range(field.degree)]
    rhs = [acc.rep.coeff(i) for i in range(field.degree)]
    sol = solve_linear(mat, rhs, field.F)
    return QuotElem(sub, Poly(sub.K, sub.var, sol))


def valuation_at_p(e: QuotElem):
    """omega-adic valuation via the norm; +inf for 0.  Total ramification
    makes val(e) = val_pi(N_{F_n/F}(e)) exact."""
    if e.is_zero():
        return math.inf
    nrm: RatFun = field_norm(e, 0)
    return nrm.valuation(e.ring.pi)


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
    """c(a, b) = phi_a(omega)/phi_b(omega); a unit when a, b are prime to pi."""
    num = galois_act(a, field.omega)
    den = galois_act(b, field.omega)
    return num / den
