"""Residue-class rings R[y]/(m) and multiplication-matrix norms.

QuotientRing/QuotElem is the one residue-class type: polynomials over a
coefficient parent R modulo a monic m.  Reducing by a monic modulus never
inverts a coefficient, so R may be a field or not.  It serves

* F_q(T): the Carlitz cyclotomic fields F[x]/(m_n) (``cyclo.CycloField``
  is a subclass);
* Z: Z[x]/(Phi_m), where characters take their values
  (``groupring.CharSpec.values``);
* F_q: A/pi^n as a ring of elements, with inverses by the extended gcd
  (``groupring.GroupRing`` keys its unit group by the reduced
  representatives alone);
* A[x] = F_q[T][x] (``PolyRing`` over ``PolyRing``): in the tests only,
  the torsion quotient A[x][y]/(phi_a(y) - x) of the norm oracles.

The norm of an element u of R[y]/(m) is the determinant of multiplication by
u on the power basis 1, y, ..., y^(deg m - 1) (``_mult_matrix``); each
column is y times the one before, reduced by the nonzero coefficients of m
alone.  Every norm in the package is ``det`` or ``charpoly`` of that one
matrix, built by ``_mult_rows`` from its first column and m's nonzero
coefficients on any entry ring.  The torsion norms (``cyclo._norm_poly``)
build it on A or A[x]: the fraction field's kernel (``ratfun._Kernel``)
is A, and its ``x`` is A[x], each with its zero, one, add, sub, mul and
neg.  They reduce by a monic modulus with ``_reduce`` and hand
``charpoly`` that ring's add, mul and neg, as ``fq._power`` takes its one
and mul.  ``quotient_norm``, the norm of any QuotElem (the norm to F,
``cyclo.field_norm`` at level 0, among them), builds it on the element's
coefficients and takes their own operators.  Berkowitz's recurrence never
divides, so entries in a field, in A or in A[x] take the same path.  It
builds the whole characteristic polynomial det(t I + M) on its way
(``charpoly``); ``det`` keeps the constant term.
"""

from __future__ import annotations

import operator
from functools import reduce

from .fq import _power
from .poly import Poly

__all__ = [
    "QuotientRing",
    "QuotElem",
    "quotient_norm",
    "charpoly",
    "det",
]


class QuotientRing:
    """R[y]/(modulus) for a monic modulus over any coefficient parent R;
    not assumed to be a field."""

    is_field = False

    def __init__(self, modulus: Poly) -> None:
        if not modulus.is_monic() or modulus.degree < 1:
            raise ValueError("modulus must be monic of positive degree")
        self.K = modulus.ring
        self.var = modulus.var
        self.modulus = modulus
        self.degree = modulus.degree
        self.zero = QuotElem(self, Poly(self.K, self.var, []))
        self.one = QuotElem(self, Poly(self.K, self.var, [self.K.one]))

    def coerce(self, x) -> "QuotElem":
        if isinstance(x, QuotElem):
            if x.ring != self:
                raise ValueError("element of a different quotient ring")
            return x
        if isinstance(x, Poly) and x.var == self.var and x.ring == self.K:
            return QuotElem(self, x % self.modulus)
        # anything else (including base-ring polynomials) must embed in K
        c = self.K.coerce(x)
        return QuotElem(self, Poly(self.K, self.var, [c]))

    def gen(self) -> "QuotElem":
        return QuotElem(self, Poly.gen(self.K, self.var) % self.modulus)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QuotientRing) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("QuotientRing", self.modulus))

    def __repr__(self) -> str:
        return f"QuotientRing({self.modulus!r})"


class QuotElem:
    __slots__ = ("ring", "rep")

    def __init__(self, ring: QuotientRing, rep: Poly) -> None:
        self.ring = ring
        self.rep = rep

    def _check(self, other: "QuotElem") -> None:
        if other.ring is not self.ring and other.ring != self.ring:
            raise ValueError(
                f"mixed quotient rings: {self.ring!r} vs {other.ring!r}")

    def __add__(self, other: "QuotElem") -> "QuotElem":
        self._check(other)
        return QuotElem(self.ring, self.rep + other.rep)

    def __sub__(self, other: "QuotElem") -> "QuotElem":
        self._check(other)
        return QuotElem(self.ring, self.rep - other.rep)

    def __neg__(self) -> "QuotElem":
        return QuotElem(self.ring, -self.rep)

    def __mul__(self, other: "QuotElem") -> "QuotElem":
        self._check(other)
        return QuotElem(self.ring, (self.rep * other.rep) % self.ring.modulus)

    def inv(self) -> "QuotElem":
        """The inverse by the extended gcd; needs a field of coefficients."""
        if not self.ring.K.is_field:
            raise ValueError(
                f"no inverse over the non-field {self.ring.K!r}")
        g, u, _ = self.rep.egcd(self.ring.modulus)
        if g.degree != 0:
            raise ZeroDivisionError(
                f"{self.rep!r} is not invertible mod {self.ring.modulus!r}")
        return QuotElem(self.ring,
                        (u.mul_scalar(g.constant ** -1)) % self.ring.modulus)

    def __truediv__(self, other: "QuotElem") -> "QuotElem":
        return self * other.inv()

    def __pow__(self, e: int) -> "QuotElem":
        if e < 0:
            return self.inv() ** (-e)
        return _power(self, e, self.ring.one, operator.mul)

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, QuotElem)
                and (other.ring is self.ring or other.ring == self.ring)
                and other.rep == self.rep)

    def __hash__(self) -> int:
        return hash(("QuotElem", self.rep))

    def __repr__(self) -> str:
        return f"<{self.rep!r}>"


# -- determinants -------------------------------------------------------------

def charpoly(mat: list[list], add=operator.add, mul=operator.mul,
             neg=operator.neg) -> list:
    """Coefficients of det(t I + mat) below the leading 1, highest first, by
    Berkowitz's division-free recurrence (Berkowitz, IPL 18, 1984); O(n^4)
    ring operations using only +, - and *, so it serves field entries and
    polynomial entries alike.  add, mul and neg are the entry ring's, by
    default the entries' own operators.

    With A_k the leading k x k block, A_(k+1) = [[A_k, u], [r, a]] and
    chi_k(t) = det(t I + A_k), the coefficients of chi_(k+1) are those of
    chi_k times the lower-triangular Toeplitz matrix whose first column is
    (1, a, -r u, r A_k u, -r A_k^2 u, ..., +-r A_k^(k-1) u).
    """
    n = len(mat)
    if n == 0:
        raise ValueError("empty matrix")
    # c[i] is the coefficient of t^(k-1-i) in chi_k; the leading 1 is implicit
    c: list = []
    for k in range(n):
        block = [row[:k] for row in mat[:k]]
        r = mat[k][:k]
        v = [row[k] for row in mat[:k]]
        col = [mat[k][k]]
        for j in range(k):
            if j:
                v = [_dot(brow, v, add, mul) for brow in block]
            w = _dot(r, v, add, mul)
            col.append(w if j % 2 else neg(w))
        c = [reduce(add, [col[i]]
                    + [mul(col[i - 1 - j], c[j]) for j in range(i)]
                    + c[i:i + 1])
             for i in range(k + 1)]
    return c


def det(mat: list[list], add=operator.add, mul=operator.mul,
        neg=operator.neg):
    """Determinant: the constant term chi_n(0) of ``charpoly``."""
    return charpoly(mat, add, mul, neg)[-1]


def _dot(a: list, b: list, add, mul):
    """a[0] b[0] + a[1] b[1] + ...; a and b nonempty."""
    return reduce(add, map(mul, a, b))


# -- multiplication-matrix norms ----------------------------------------------

def quotient_norm(u: QuotElem):
    """Norm of u down to K: det of multiplication by u on K[y]/(m)."""
    if not isinstance(u, QuotElem):
        raise TypeError(f"cannot take a quotient norm of {u!r}")
    return det(_mult_matrix(u))


def _mult_matrix(u: QuotElem) -> list[list]:
    """Rows of multiplication by u on the power basis 1, ybar, ...."""
    qr = u.ring
    zero = qr.K.zero
    col = list(u.rep.coeffs) + [zero] * (qr.degree - len(u.rep.coeffs))
    return _mult_rows(col, _taps(qr.modulus.coeffs, zero), zero,
                      operator.sub, operator.mul)


def _taps(m: list, zero) -> list:
    """(i, m_i) for the nonzero coefficients of the monic m below its top."""
    return [(i, c) for i, c in enumerate(m[:-1]) if c != zero]


def _mult_rows(col: list, taps: list, zero, sub, mul) -> list[list]:
    """Rows of multiplication on the power basis 1, ybar, ... of R[y]/(m),
    for m monic of degree len(col) with the ``_taps`` taps: col is the
    first column, and column j + 1 is ybar times column j, shifted up by
    one and reduced by subtracting top * m_i over the taps only, so no
    product of residue classes and no division is taken.  sub and mul are
    R's, and zero, R's zero, enters at the foot of each new column."""
    cols = [col]
    for _ in range(len(col) - 1):
        top = col[-1]
        col = [zero] + col[:-1]
        if top != zero:
            for i, m in taps:
                col[i] = sub(col[i], mul(top, m))
        cols.append(col)
    return [list(row) for row in zip(*cols)]


def _reduce(r: list, taps: list, n: int, zero, sub, mul) -> list:
    """r mod a monic m of degree n >= 1 with the ``_taps`` taps, for r
    low first over any ring with sub and mul: the n coefficients below
    y^n.  r itself is left as it was."""
    r = list(r)
    for i in range(len(r) - 1, n - 1, -1):
        top = r.pop()
        if top != zero:
            for j, m in taps:
                r[i - n + j] = sub(r[i - n + j], mul(top, m))
    return r + [zero] * (n - len(r))
