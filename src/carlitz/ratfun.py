"""Rational functions num/den over any polynomial ring with field coefficients.

Canonical form: gcd(num, den) = 1 and den monic, so equality is componentwise.
``FracField(Fq.get(q), "T")`` is the base field F = F_q(T); nesting as in
``FracField(F, "x")`` gives rational functions in x over F, which is how
logarithmic derivatives of Carlitz ratios are carried around exactly.
"""

from __future__ import annotations

import math
import operator

from .fq import _power
from .poly import Poly

__all__ = ["FracField", "RatFun", "base_field"]


class FracField:
    is_field = True

    def __init__(self, cring, var: str) -> None:
        self.cring = cring
        self.var = var
        pzero = Poly(cring, var, [])
        pone = Poly(cring, var, [cring.one])
        self.zero = RatFun(self, pzero, pone)
        self.one = RatFun(self, pone, pone)

    def coerce(self, x) -> "RatFun":
        if isinstance(x, RatFun):
            if x.field != self:
                raise ValueError(f"{x!r} not in {self!r}")
            return x
        if isinstance(x, Poly) and x.var == self.var and x.ring == self.cring:
            return RatFun(self, x, self.one.num)
        # anything else (ints, coefficient-ring elements, polynomials over
        # a deeper base) becomes a constant
        c = self.cring.coerce(x)
        return RatFun(self, Poly(self.cring, self.var, [c]), self.one.num)

    def from_pair(self, num: Poly, den: Poly) -> "RatFun":
        return RatFun.make(self, num, den)

    def gen(self) -> "RatFun":
        return self.coerce(Poly.gen(self.cring, self.var))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FracField) and other.var == self.var
                and other.cring == self.cring)

    def __hash__(self) -> int:
        return hash(("FracField", self.var, self.cring))

    def __repr__(self) -> str:
        return f"Frac({self.cring!r}[{self.var}])"


_BASE_CACHE: dict[int, FracField] = {}


def base_field(fq) -> FracField:
    """F_q(T), cached per field size."""
    f = _BASE_CACHE.get(fq.q)
    if f is None:
        f = FracField(fq, "T")
        _BASE_CACHE[fq.q] = f
    return f


class RatFun:
    __slots__ = ("field", "num", "den")

    def __init__(self, field: FracField, num: Poly, den: Poly) -> None:
        # trusted constructor: inputs already canonical
        self.field = field
        self.num = num
        self.den = den

    @staticmethod
    def make(field: FracField, num: Poly, den: Poly) -> "RatFun":
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            return field.zero
        if not den.is_one():
            g = num.gcd(den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            if not den.is_monic():
                lcinv = den.leading ** -1
                num = num.mul_scalar(lcinv)
                den = den.mul_scalar(lcinv)
        return RatFun(field, num, den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFun):
            return NotImplemented
        return (self.field == other.field and self.num == other.num
                and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other: "RatFun") -> "RatFun":
        if self.den.is_one() and other.den.is_one():
            return RatFun.make(self.field, self.num + other.num, self.den)
        return RatFun.make(
            self.field,
            self.num * other.den + other.num * self.den,
            self.den * other.den,
        )

    def __sub__(self, other: "RatFun") -> "RatFun":
        return self + (-other)

    def __neg__(self) -> "RatFun":
        return RatFun(self.field, -self.num, self.den)

    def __mul__(self, other: "RatFun") -> "RatFun":
        if self.den.is_one() and other.den.is_one():
            return RatFun.make(self.field, self.num * other.num, self.den)
        return RatFun.make(self.field, self.num * other.num,
                           self.den * other.den)

    def __truediv__(self, other: "RatFun") -> "RatFun":
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFun.make(self.field, self.num * other.den,
                           self.den * other.num)

    def inv(self) -> "RatFun":
        return self.field.one / self

    def __pow__(self, e: int) -> "RatFun":
        if e < 0:
            return self.inv() ** (-e)
        return _power(self, e, self.field.one, operator.mul)

    def derivative(self) -> "RatFun":
        return RatFun.make(
            self.field,
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def valuation(self, p: Poly) -> int | float:
        """Order of vanishing at the monic irreducible p (+inf for 0)."""
        if self.is_zero():
            return math.inf
        return self.num.valuation(p) - self.den.valuation(p)

    def eval(self, point, ring):
        """Evaluate at a point of another parent; denominator must be a unit
        there (its inverse is taken with ``** -1``)."""
        n = self.num.eval(point, ring)
        d = self.den.eval(point, ring)
        return n * d ** -1

    def __str__(self) -> str:
        ns = str(self.num)
        if self.den.is_one():
            return ns
        ds = str(self.den)
        return f"{_wrap(ns)}/{_wrap(ds)}"

    def __repr__(self) -> str:
        return self.__str__()


def _wrap(s: str) -> str:
    """Parenthesize unless the string is a single grammar factor."""
    if "+" in s or "-" in s or "*" in s:
        return f"({s})"
    return s
