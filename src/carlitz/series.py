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
  * ``f/g``    knows what ``f * g**-1`` knows: the same order, window and
    exceptions, by one recurrence instead of an inverse and a product
  * ``f(g)``   (ord(g) >= 1)  knows through  min(ord(g)*prec(f), Horner)

Coefficients are tested against zero by truth value, which for ``FqElem``
and ``RatFun`` is one index or length check instead of a full ``==``.

Over every fraction field, ``*``, ``/`` and ``compose`` (so ``invert``,
which is 1/f, and ``**``) run their convolution, recurrence and Horner steps
on the field's kernel (``ratfun``): each coefficient is a (num, den) pair of
the kernel's values, index lists over F_p(T) and Polys over F_{p^m}(T) and
F(x), None for a zero.
Each output coefficient is one ``ratfun._dot``: its terms are summed over a
running denominator and reduced by one gcd, and only the result's
coefficients become ``RatFun``s.  ``compose`` keeps its windows by the same
functions as ``*`` and ``+``.  Every other ring (F_q series) runs the generic
loops on its elements, and the tests keep those as the oracle for the
kernel loops.
"""

from __future__ import annotations

import collections
import itertools
import operator

from .errors import PrecisionError
from .fq import _power
from .poly import Poly
from .ratfun import FracField, _dot, _product

__all__ = ["TruncSeries"]


def _min_prec(*precs: int | None) -> int | None:
    vals = [p for p in precs if p is not None]
    return min(vals) if vals else None


# -- windows: the precision rules of * and +, shared with compose ------------
#
# A window is a series or a _Window: coefficients stored from ``order`` on,
# known through ``prec``.  The rules below read nothing else, so the pair
# loops of ``compose`` keep their windows exactly as ``*`` and ``+`` would.

_Window = collections.namedtuple("_Window", "order coeffs prec")


def _trim(order: int, cs: list, prec: int | None):
    """(order, cs, prec) as a series holds it: the zero ends of cs (zero by
    truth value) stripped, order moved past the leading ones, and an empty
    window the zero known through prec (order 0 when exact)."""
    while cs and not cs[-1]:
        cs.pop()
    lead = 0
    while lead < len(cs) and not cs[lead]:
        lead += 1
    if lead:
        cs = cs[lead:]
        order += lead
    if prec is not None and cs and order + len(cs) > prec:
        raise ValueError("stored coefficients exceed declared precision")
    if not cs:
        order = 0 if prec is None else prec
    return order, cs, prec


def _mul_window(f, g):
    """(order, width, prec) of f*g, neither an exact zero: the product's
    first width terms from order on, known through prec.  width <= 0 when
    nothing is stored there."""
    precs = []
    if g.prec is not None:
        precs.append(f.order + g.prec)
    if f.prec is not None:
        precs.append(g.order + f.prec)
    prec = min(precs) if precs else None
    lo = f.order + g.order
    if not f.coeffs or not g.coeffs:
        return lo, 0, prec
    width = len(f.coeffs) + len(g.coeffs) - 1
    if prec is not None:
        width = min(width, prec - lo)
    return lo, width, prec


def _add_window(f, g):
    """(lo, hi, prec) of f + g, neither an exact zero: the sum's terms
    lo <= n < hi, known through prec."""
    prec = _min_prec(f.prec, g.prec)
    hi = max(f.order + len(f.coeffs), g.order + len(g.coeffs))
    if prec is not None:
        hi = min(hi, prec)
    return min(f.order, g.order), hi, prec


# -- the fraction-field loops: coefficients as (num, den) kernel pairs -------

def _on_kernel(ring) -> bool:
    """Whether ring is a fraction field, whose series run the loops below
    on its kernel; every other ring runs the generic loops."""
    return isinstance(ring, FracField)


def _pairs(k, coeffs) -> list:
    """The kernel pairs of coeffs, None for a zero."""
    view = k.view
    return [(view(c.num), view(c.den)) if c else None for c in coeffs]


def _boxed(ring, pairs) -> list:
    box = ring.kernel.box
    return [box(ring, c) if c else ring.zero for c in pairs]


def _convolve(k, a, b, width: int) -> list:
    """The first ``width`` coefficients of the product of the pair lists a
    and b, each one ``_dot``: c_m = sum a_i b_(m-i), from the lowest i that
    b reaches."""
    lb = len(b)
    out = []
    for m in range(width):
        i0 = max(0, m - lb + 1)
        out.append(_dot(k, a[i0:m + 1], b[m - i0::-1]))
    return out


def _pair_convolve(ring, a, b, width: int) -> list:
    """The first ``width`` coefficients of the product of a and b."""
    k = ring.kernel
    return _boxed(ring, _convolve(k, _pairs(k, a), _pairs(k, b), width))


def _pair_quotient(ring, a, u, u0inv, width: int) -> list:
    """The first ``width`` coefficients of a/u, u0inv = 1/u[0]: with
    v_j = -u0inv u_j, taken once each, q_m = u0inv a_m + sum_(1 <= j <= m)
    v_j q_(m-j) is one ``_dot``."""
    k = ring.kernel
    r, (mn, md), *us = _pairs(k, [u0inv, -u0inv, *u[1:]])
    rv = [r] + [_product(k, mn, md, *x) if x else None for x in us]
    a = _pairs(k, a)
    q = []
    for m in range(width):
        am = a[m] if m < len(a) else None
        q.append(_dot(k, rv, itertools.chain((am,), reversed(q))))
    return _boxed(ring, q)


def _pair_compose(ring, outer, inner, cap: int | None) -> "TruncSeries":
    """outer(inner) for ord(outer) >= 0 by Horner's rule, acc -> acc*inner
    + c, on kernel pairs: the windows of ``*`` and ``+``, each coefficient
    of acc*inner one ``_dot``, and only the result's coefficients boxed."""
    k = ring.kernel
    g = _pairs(k, inner.coeffs)
    acc = _Window(0, [], None)
    for c in reversed([None] * outer.order + _pairs(k, outer.coeffs)):
        if acc.coeffs or acc.prec is not None:
            lo, width, prec = _mul_window(acc, inner)
            acc = _Window(*_trim(lo, _convolve(k, acc.coeffs, g, width),
                                 prec))
        if c:
            const = _Window(0, [c], None)
            if not acc.coeffs and acc.prec is None:
                acc = const
            else:
                lo, hi, prec = _add_window(acc, const)
                out = [None] * (hi - lo)
                for i, x in enumerate(acc.coeffs, acc.order - lo):
                    out[i] = x
                # acc*inner starts at ord(inner) >= 1 or is a zero known
                # through prec >= 1, so the slot of z^0 is c's alone
                out[-lo] = c
                acc = _Window(*_trim(lo, out, prec))
        if cap is not None and acc.prec is None:
            acc = _Window(*_trim(acc.order,
                                 acc.coeffs[:max(0, cap - acc.order)], cap))
    return TruncSeries(ring, inner.var, acc.order, _boxed(ring, acc.coeffs),
                       acc.prec)


class TruncSeries:
    __slots__ = ("ring", "var", "order", "coeffs", "prec")

    def __init__(self, ring, var: str, order: int, coeffs, prec: int | None) -> None:
        order, cs, prec = _trim(order, list(coeffs), prec)
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
        lo, hi, prec = _add_window(self, other)
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
        lo, width, prec = _mul_window(self, other)
        if width <= 0:
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
        keep = self.coeffs[:max(0, new_prec - self.order)]
        return TruncSeries(self.ring, self.var, self.order, keep, new_prec)

    def __truediv__(self, other: "TruncSeries") -> "TruncSeries":
        """self * other.invert(), with its order, window and exceptions, by
        one recurrence: q_m = u0^-1 a_m + sum_(j >= 1) v_j q_(m-j) for
        a = self and u = other, each v_j = -u0^-1 u_j taken once."""
        if not other.coeffs:
            raise ZeroDivisionError("dividing by a series with no known terms")
        v = other.order
        u0inv = other.coeffs[0] ** -1
        if other.prec is None and len(other.coeffs) > 1:
            raise ValueError("truncate an exact series before dividing by it")
        self._check(other)
        if not self.coeffs and self.prec is None:
            return TruncSeries(self.ring, self.var, 0, [], None)
        # the window of self * other**-1, where other**-1 has order -v and
        # is known through prec(other) - 2v, or exactly for a monomial
        lo = self.order - v
        prec = _min_prec(
            None if other.prec is None else self.order + other.prec - 2 * v,
            None if self.prec is None else self.prec - v)
        a, u = self.coeffs, other.coeffs
        width = len(a) if prec is None else prec - lo  # <= 0 for a zero
        if _on_kernel(self.ring):
            q = _pair_quotient(self.ring, a, u, u0inv, width)
            return TruncSeries(self.ring, self.var, lo, q, prec)
        zero = self.ring.zero
        vs = [-(u0inv * uj) for uj in u[1:]]
        q = []
        for m in range(width):
            s = u0inv * a[m] if m < len(a) and a[m] else zero
            for j in range(1, min(m, len(vs)) + 1):
                vj = vs[j - 1]
                if vj:
                    s = s + vj * q[m - j]
            q.append(s)
        return TruncSeries(self.ring, self.var, lo, q, prec)

    def invert(self) -> "TruncSeries":
        """Multiplicative inverse; lowest coefficient must be invertible."""
        return TruncSeries.one(self.ring, self.var) / self

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
        elif _on_kernel(self.ring):
            res = _pair_compose(self.ring, self, inner, cap)
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
