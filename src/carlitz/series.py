"""Truncated Laurent series with explicit precision bookkeeping.

A ``TruncSeries`` knows its coefficients on the window ``[order, prec)`` and
nothing beyond: reading past ``prec`` raises ``PrecisionError`` instead of
returning a fabricated zero.  ``prec=None`` means the series is an exactly
known Laurent polynomial (every unstored coefficient is a true zero); this is
how polynomials enter series arithmetic without losing their natural
precision.

Precision rules (a zero series has ord = prec, and an exactly zero factor
makes a product exactly zero):
  * ``f*g``    knows through  min(ord(f)+prec(g), ord(g)+prec(f))
  * ``f**-1``  knows through  prec(f) - 2*ord(f)
  * ``f(g)``   (ord(g) >= 1)  knows through  min(ord(g)*prec(f), Horner)

Coefficients are tested against zero by truth value, which for ``FqElem``
and ``RatFun`` is one index or length check instead of a full ``==``.

Over every fraction field, ``*`` and ``invert`` (so ``compose`` and ``**``)
run their convolution and recurrence on the field's kernel (``ratfun``):
each coefficient is a (num, den) pair of the kernel's values, index lists
over F_p(T) and Polys over F_{p^m}(T) and F(x), every term is one step of
Henrici's rule, and only the output coefficients become ``RatFun``s.  Every
other ring (F_q series) runs the generic loops on its elements, and the
tests keep those as the oracle for the kernel loops.
"""

from __future__ import annotations

import operator

from .errors import PrecisionError
from .fq import _power
from .poly import Poly
from .ratfun import FracField, _product, _sum

__all__ = ["TruncSeries"]


def _min_prec(*precs: int | None) -> int | None:
    vals = [p for p in precs if p is not None]
    return min(vals) if vals else None


# -- the fraction-field loops: coefficients as (num, den) kernel pairs -------

def _on_kernel(ring) -> bool:
    """Whether ring is a fraction field, whose series run the loops below
    on its kernel; every other ring runs the generic loops."""
    return isinstance(ring, FracField)


def _pairs(k, coeffs) -> list:
    view = k.view
    return [(view(c.num), view(c.den)) for c in coeffs]


def _pair_convolve(ring, a, b, width: int) -> list:
    """The first ``width`` coefficients of the product of a and b."""
    k = ring.kernel
    size = k.size
    b = _pairs(k, b)
    out = _pairs(k, [ring.zero]) * width
    for i, (an, ad) in enumerate(_pairs(k, a)):
        if not size(an):
            continue
        for j in range(min(len(b), width - i)):
            bn, bd = b[j]
            if size(bn):
                sn, sd = out[i + j]
                tn, td = _product(k, an, ad, bn, bd)
                out[i + j] = _sum(k, sn, sd, tn, td)
    box = k.box
    return [box(ring, c) for c in out]


def _pair_inverse(ring, u, u0inv, rel: int) -> list:
    """The first ``rel`` coefficients of 1/u, u0inv = 1/u[0]: Henrici's
    rule on every term of w_n = (-u0inv) * sum_(1 <= j <= n) u_j w_(n-j)."""
    k = ring.kernel
    size = k.size
    u = _pairs(k, u)
    zero, (mn, md) = _pairs(k, [ring.zero, -u0inv])
    w = _pairs(k, [u0inv])
    for n in range(1, rel):
        sn, sd = zero
        for j in range(1, min(n, len(u) - 1) + 1):
            un, ud = u[j]
            if size(un):
                wn, wd = w[n - j]
                tn, td = _product(k, un, ud, wn, wd)
                sn, sd = _sum(k, sn, sd, tn, td)
        w.append(_product(k, mn, md, sn, sd))
    box = k.box
    return [box(ring, c) for c in w]


class TruncSeries:
    __slots__ = ("ring", "var", "order", "coeffs", "prec")

    def __init__(self, ring, var: str, order: int, coeffs, prec: int | None) -> None:
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        lead = 0
        while lead < len(cs) and not cs[lead]:
            lead += 1
        if lead:
            cs = cs[lead:]
            order += lead
        # an empty window is a zero known through prec, wherever order was
        if prec is not None and cs and order + len(cs) > prec:
            raise ValueError("stored coefficients exceed declared precision")
        if not cs:
            order = 0 if prec is None else prec
        self.ring = ring
        self.var = var
        self.order = order
        self.coeffs = tuple(cs)
        self.prec = prec

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_poly(poly: Poly, prec: int | None = None, var: str | None = None) -> "TruncSeries":
        return TruncSeries(poly.ring, var or poly.var, 0, poly.coeffs, prec)

    @staticmethod
    def monomial(ring, var: str, c, e: int, prec: int | None = None) -> "TruncSeries":
        return TruncSeries(ring, var, e, [ring.coerce(c)], prec)

    @staticmethod
    def const(ring, var: str, c, prec: int | None = None) -> "TruncSeries":
        return TruncSeries(ring, var, 0, [ring.coerce(c)], prec)

    @staticmethod
    def zero(ring, var: str, prec: int | None = None) -> "TruncSeries":
        return TruncSeries(ring, var, 0, [], prec)

    @staticmethod
    def one(ring, var: str, prec: int | None = None) -> "TruncSeries":
        return TruncSeries.const(ring, var, ring.one, prec)

    # -- structure -----------------------------------------------------------

    def is_exact(self) -> bool:
        return self.prec is None

    def is_zero(self) -> bool:
        """Zero as far as this series knows itself (exactly zero if exact)."""
        return not self.coeffs

    def coefficient(self, n: int):
        if self.prec is not None and n >= self.prec:
            raise PrecisionError(
                f"coefficient of {self.var}^{n} beyond precision {self.prec}",
                needed=n + 1,
            )
        k = n - self.order
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.ring.zero

    def items(self) -> list[tuple[int, object]]:
        return [(self.order + k, c) for k, c in enumerate(self.coeffs) if c]

    def _check(self, other: "TruncSeries") -> None:
        if self.var != other.var or self.ring != other.ring:
            raise ValueError("mixed series arithmetic")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        if not self.coeffs and self.prec is None:
            return other
        if not other.coeffs and other.prec is None:
            return self
        prec = _min_prec(self.prec, other.prec)
        lo = min(self.order, other.order)
        hi_self = self.order + len(self.coeffs)
        hi_other = other.order + len(other.coeffs)
        hi = max(hi_self, hi_other)
        if prec is not None:
            hi = min(hi, prec)
        zero = self.ring.zero
        out = [zero] * max(0, hi - lo)
        for k, c in enumerate(self.coeffs):
            n = self.order + k
            if n < hi:
                out[n - lo] = out[n - lo] + c
        for k, c in enumerate(other.coeffs):
            n = other.order + k
            if n < hi:
                out[n - lo] = out[n - lo] + c
        return TruncSeries(self.ring, self.var, lo, out, prec)

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.ring, self.var, self.order,
                           [-c for c in self.coeffs], self.prec)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        if (not self.coeffs and self.prec is None) or (
                not other.coeffs and other.prec is None):
            return TruncSeries(self.ring, self.var, 0, [], None)
        precs = []
        if other.prec is not None:
            precs.append(self.order + other.prec)
        if self.prec is not None:
            precs.append(other.order + self.prec)
        prec = min(precs) if precs else None
        lo = self.order + other.order
        if prec is None:
            width = len(self.coeffs) + len(other.coeffs) - 1 if self.coeffs and other.coeffs else 0
        else:
            width = prec - lo
            if self.coeffs and other.coeffs:
                width = min(width, len(self.coeffs) + len(other.coeffs) - 1)
        if width <= 0 or not self.coeffs or not other.coeffs:
            return TruncSeries(self.ring, self.var, 0, [], prec)
        if _on_kernel(self.ring):
            out = _pair_convolve(self.ring, self.coeffs, other.coeffs, width)
            return TruncSeries(self.ring, self.var, lo, out, prec)
        zero = self.ring.zero
        out = [zero] * width
        for i, ai in enumerate(self.coeffs):
            if not ai:
                continue
            jmax = min(len(other.coeffs), width - i)
            for j in range(jmax):
                out[i + j] = out[i + j] + ai * other.coeffs[j]
        return TruncSeries(self.ring, self.var, lo, out, prec)

    def mul_scalar(self, c) -> "TruncSeries":
        c = self.ring.coerce(c)
        return TruncSeries(self.ring, self.var, self.order,
                           [a * c for a in self.coeffs], self.prec)

    def shift(self, k: int) -> "TruncSeries":
        """Multiply by var^k (k may be negative)."""
        prec = None if self.prec is None else self.prec + k
        return TruncSeries(self.ring, self.var, self.order + k,
                           self.coeffs, prec)

    def truncate(self, prec: int) -> "TruncSeries":
        new_prec = _min_prec(self.prec, prec)
        keep = [c for k, c in enumerate(self.coeffs)
                if self.order + k < new_prec]
        return TruncSeries(self.ring, self.var, self.order, keep, new_prec)

    def invert(self) -> "TruncSeries":
        """Multiplicative inverse; lowest coefficient must be invertible."""
        if not self.coeffs:
            raise ZeroDivisionError("inverting a series with no known terms")
        v = self.order
        u0inv = self.coeffs[0] ** -1
        if self.prec is None:
            if len(self.coeffs) == 1:
                return TruncSeries(self.ring, self.var, -v, [u0inv], None)
            raise ValueError("truncate an exact series before inverting")
        rel = self.prec - v
        if _on_kernel(self.ring):
            w = _pair_inverse(self.ring, self.coeffs, u0inv, rel)
            return TruncSeries(self.ring, self.var, -v, w, self.prec - 2 * v)
        u = self.coeffs
        w = [u0inv]
        zero = self.ring.zero
        for n in range(1, rel):
            s = zero
            for j in range(1, min(n, len(u) - 1) + 1):
                uj = u[j]
                if uj:
                    s = s + uj * w[n - j]
            w.append(-(u0inv * s))
        return TruncSeries(self.ring, self.var, -v, w, self.prec - 2 * v)

    def __pow__(self, e: int) -> "TruncSeries":
        if e < 0:
            return self.invert() ** (-e)
        return _power(self, e, TruncSeries.one(self.ring, self.var),
                      operator.mul)

    def derivative(self) -> "TruncSeries":
        out = []
        lo = self.order - 1
        for k, c in enumerate(self.coeffs):
            n = self.order + k
            out.append(c * self.ring.coerce(n))
        prec = None if self.prec is None else self.prec - 1
        return TruncSeries(self.ring, self.var, lo, out, prec)

    def scale_argument(self, c) -> "TruncSeries":
        """f(z) -> f(c z)."""
        c = self.ring.coerce(c)
        out = []
        for k, _ in enumerate(self.coeffs):
            n = self.order + k
            out.append(self.coeffs[k] * c ** n)
        return TruncSeries(self.ring, self.var, self.order, out, self.prec)

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """Substitute ``inner`` (positive order) for the variable."""
        self._check(inner)
        if not inner.coeffs:
            raise ValueError("composition with a series with no known terms")
        v = inner.order
        if v < 1:
            raise ValueError(f"inner series must have order >= 1, got {v}")
        cap = None if self.prec is None else v * self.prec
        if self.order < 0:
            j = -self.order
            if inner.prec is None:
                raise ValueError("truncate the inner series before composing "
                                 "with a Laurent outer series")
            if not self.coeffs:
                # O(z^-j): the product below is a zero known through v * -j
                return TruncSeries.zero(self.ring, self.var, cap)
            pos = TruncSeries(self.ring, self.var, 0, self.coeffs,
                              None if self.prec is None else self.prec + j)
            res = pos.compose(inner) * inner.invert() ** j
        else:
            acc = TruncSeries(self.ring, self.var, 0, [], None)
            top = self.order + len(self.coeffs) - 1
            for n in range(top, -1, -1):
                k = n - self.order
                c = self.coeffs[k] if 0 <= k < len(self.coeffs) else self.ring.zero
                acc = acc * inner + TruncSeries.const(self.ring, self.var, c)
                if cap is not None and acc.prec is None:
                    # sound to drop: inner has positive order, so truncated
                    # tails never feed back below the cap
                    acc = acc.truncate(cap)
            res = acc
        if cap is not None:
            res = res.truncate(cap)
        return res

    # -- comparison / display --------------------------------------------------

    def agrees_with(self, other: "TruncSeries", upto: int | None = None) -> bool:
        """Equality of every coefficient both sides know (optionally capped)."""
        self._check(other)
        top = _min_prec(self.prec, other.prec, upto)
        if top is None:
            return self.order == other.order and self.coeffs == other.coeffs
        lo = min(self.order, other.order)
        for n in range(lo, top):
            if self.coefficient(n) != other.coefficient(n):
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.var == other.var and self.ring == other.ring
                and self.order == other.order and self.coeffs == other.coeffs
                and self.prec == other.prec)

    def __hash__(self) -> int:
        return hash((self.var, self.order, self.coeffs, self.prec))

    def __repr__(self) -> str:
        parts = []
        for n, c in self.items():
            if n == 0:
                parts.append(f"{c!r}")
            else:
                e = self.var if n == 1 else f"{self.var}^{n}"
                one = c == self.ring.one
                parts.append(e if one else f"({c!r})*{e}")
        if self.prec is not None:
            parts.append(f"O({self.var}^{self.prec})")
        return " + ".join(parts) if parts else "0"
