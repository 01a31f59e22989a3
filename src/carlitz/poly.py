"""Dense univariate polynomials over an arbitrary coefficient parent.

A coefficient parent must expose ``zero``, ``one``, ``coerce(x)`` and an
``is_field`` flag, and may expose ``poly_gcd``, the gcd its polynomials take
in place of the generic one; its elements must support ``+``, ``-``, ``*``,
``==`` and, where an algorithm divides, ``** -1``.  Plain Python ints work
through the ``IntRing`` singleton.  Polynomials are immutable; coefficients
are stored low degree first with trailing zeros stripped, and the zero
polynomial has degree -1.

Towers are built by using a ``PolyRing`` as the coefficient parent of an
outer ``Poly``: e.g. additive polynomials in x whose coefficients live in
F_q[T].

Every F_q with q <= 256 interns its elements and looks each result up in a
table (see ``fq``).  Over such a prime field F_p, ``+``, ``-``, negation,
``*``, ``divmod``, ``gcd`` and ``mul_scalar`` (so ``monic``) are each one
call into the ``_fp_*`` kernel on plain lists of coefficient indices, and
no ``FqElem`` is built.  Every F_p ``Poly`` carries its index view
(``_ix``) from construction: ``Poly.__init__`` strips on the indices and
takes its coefficients from the interned elements.  A view is shared and
never written to: every kernel function copies an input before it changes
anything.  A kernel result is built once (``_fp_poly``), straight from the
interned elements and with no strip: every kernel output is already
stripped, since over a field a product's top coefficient is lc * lc != 0
and a quotient's lc(a)/lc(b), and sums, remainders and gcds are stripped
explicitly; ``tests/test_poly_kernel.py`` pins that.  On every parent,
adding or subtracting the zero polynomial returns the left operand itself,
and negating it returns it.
Multiplication is schoolbook while the product of the operand
lengths is below ``_KRONECKER_MIN`` and Kronecker substitution above it: both
operands are packed into one integer each, with room for every coefficient of
the integer product, multiplied once and unpacked mod p (Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution", JSC 2009).
Every other coefficient parent, A = F_p[T] itself, F_{p^m} and F_{p^m}[T]
included (the kernel reduces indices mod p, which is not F_{p^m}
arithmetic), runs the generic loops (in the methods and ``_mul_generic``,
``_divmod_generic``, ``_gcd_generic``), which the tests also use as the
oracle for the kernel, and ``_gcd_generic`` as the oracle for ``ratfun``'s
gcds and reductions.  Their division steps down once, in ``_reduce`` on
plain lists and the divisor's nonzero coefficients (``_taps``), which
``quotient._mult_rows``, ``cyclo``'s torsion reductions and
``ratfun._exact_quo`` run on their own rings too.
The one exception is ``gcd`` over F_q(T), prime q or not: that
``FracField``'s ``poly_gcd`` (``ratfun._gcd_ax``) runs a remainder sequence
over A = F_q[T] on the field's kernel, and ``gcd`` takes it; over F(x) and
every other parent ``poly_gcd`` is absent or None and ``_gcd_generic``
runs.  Outside this module only ``ratfun``'s index kernel names index lists
or ``_fp_*`` (``tests/test_exports.py`` pins that): Henrici's rule over
F_p(T) runs on it, and the torsion norms of ``cyclo`` reach the kernel only
through it.
``egcd`` runs ``_egcd_generic`` on every parent: only ``QuotElem.inv`` and
the self-test take it, so a kernel copy would not pay for itself.

Text crosses the boundary without the algebra.  ``poly_parse`` evaluates
its grammar on plain lists of integer coefficients, reduced mod the
characteristic p of the parent (none over Z), with ``*`` and powers on
``_fp_mul``, and builds the one result through the ring homomorphism
Z -> parent: by ``_fp_poly`` over an interned F_p, by ``coerce`` elsewhere.
``poly_to_str``, the canonical text, writes an interned F_p polynomial
straight from its index view and any other through ``_poly_text``, which
also gives the display form.  ``str`` picks the form by the parent: over
F_q and Z the canonical text where one exists (not for an F_{p^m}
coefficient outside F_p or a negative integer); over F(x), A[x] and
quotient rings the display form.  ``monic_enumerate`` and ``all_residues``
build each polynomial from its stripped digit list, by ``_fp_poly`` over an
interned F_p.
"""

from __future__ import annotations

import operator
import sys
from array import array

from .errors import InvariantError, ParseError
from .fq import Fq, FqElem, _power, _prime_divisors

__all__ = [
    "IntRing",
    "ZZ",
    "PolyRing",
    "Poly",
    "poly_parse",
    "poly_to_str",
    "monic_enumerate",
    "all_residues",
    "is_irreducible",
    "is_monic_prime",
]


class IntRing:
    """Parent for plain Python integers."""

    is_field = False
    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, int):
            return x
        raise TypeError(f"cannot coerce {x!r} into Z")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntRing)

    def __hash__(self) -> int:
        return hash("IntRing")

    def __repr__(self) -> str:
        return "ZZ"


ZZ = IntRing()


class Poly:
    # _ix: over an interned prime field, the index view of coeffs, which
    # are the field's own elements; None on every other parent
    __slots__ = ("ring", "var", "coeffs", "_ix")

    def __init__(self, ring, var: str, coeffs) -> None:
        self.ring = ring
        self.var = var
        if _interned(ring):
            ix = _fp_strip([c.i for c in coeffs])
            elems = ring._elems
            self.coeffs = tuple([elems[i] for i in ix])
            self._ix = ix
            return
        zero = ring.zero
        cs = list(coeffs)
        while cs and cs[-1] == zero:
            cs.pop()
        self.coeffs = tuple(cs)
        self._ix = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(ring, var: str, c) -> "Poly":
        return Poly(ring, var, [ring.coerce(c)])

    @staticmethod
    def gen(ring, var: str) -> "Poly":
        return Poly(ring, var, [ring.zero, ring.one])

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == self.ring.one

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ring.one

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.zero

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant(self):
        return self.coeff(0)

    def _check(self, other: "Poly") -> None:
        if self.var != other.var or (other.ring is not self.ring
                                     and other.ring != self.ring):
            raise ValueError(
                f"mixed polynomial arithmetic: {self.var}/{self.ring!r} vs "
                f"{other.var}/{other.ring!r}"
            )

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        ring = self.ring
        if other.ring is not ring or other.var != self.var:
            self._check(other)
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        if _interned(ring):
            return _fp_poly(ring, self.var,
                            _fp_add(self._ix, other._ix, ring.p))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(ring, self.var, out)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return self + (-other)  # raises what a non-Poly always raised
        ring = self.ring
        if other.ring is not ring or other.var != self.var:
            self._check(other)
        if not other.coeffs:
            return self
        if _interned(ring):
            return _fp_poly(ring, self.var,
                            _fp_add(self._ix, other._ix, ring.p, -1))
        a, b = self.coeffs, other.coeffs
        out = [x - y for x, y in zip(a, b)]
        out += a[len(b):] or [-y for y in b[len(a):]]
        return Poly(ring, self.var, out)

    def __neg__(self) -> "Poly":
        if not self.coeffs:
            return self
        ring = self.ring
        if _interned(ring):
            return _fp_poly(ring, self.var,
                            _fp_scale(self._ix, ring.p - 1, ring.p))
        return Poly(ring, self.var, [-c for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        ring = self.ring
        if other.ring is not ring or other.var != self.var:
            self._check(other)
        if _interned(ring):
            return _fp_poly(ring, self.var,
                            _fp_mul(self._ix, other._ix, ring.p))
        return _mul_generic(self, other)

    def mul_scalar(self, c) -> "Poly":
        ring = self.ring
        c = ring.coerce(c)
        if _interned(ring):
            return _fp_poly(ring, self.var,
                            _fp_scale(self._ix, c.i, ring.p))
        if c == ring.zero:
            return Poly(ring, self.var, [])
        return Poly(ring, self.var, [a * c for a in self.coeffs])

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        return _power(self, e, Poly(self.ring, self.var, [self.ring.one]),
                      operator.mul)

    def shift(self, k: int) -> "Poly":
        """Multiply by var^k, k >= 0."""
        if k < 0:
            raise ValueError("negative shift")
        if not self.coeffs:
            return self
        return Poly(self.ring, self.var, (self.ring.zero,) * k + self.coeffs)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        ring = self.ring
        if other.ring is not ring or other.var != self.var:
            self._check(other)
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        if not _interned(ring):
            return _divmod_generic(self, other)
        quo, rem = _fp_divmod(self._ix, other._ix, ring.p)
        return _fp_poly(ring, self.var, quo), _fp_poly(ring, self.var, rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        """self/other for a caller's own operands: a remainder is bad input
        (ValueError).  A division the library makes exact by construction
        goes through ``_poly_quo`` instead."""
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError(f"inexact polynomial division: remainder {r!r}")
        return q

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        if not self.ring.is_field:
            raise ValueError("cannot normalize over a non-field")
        return self.mul_scalar(self.leading ** -1)

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd; coefficient parent must be a field."""
        ring = self.ring
        if other.ring is not ring or other.var != self.var:
            self._check(other)
        if not _interned(ring):
            route = getattr(ring, "poly_gcd", None) or _gcd_generic
            return route(self, other)
        return _fp_poly(ring, self.var,
                        _fp_gcd(self._ix, other._ix, ring.p))

    def egcd(self, other: "Poly") -> tuple["Poly", "Poly", "Poly"]:
        """(g, u, v) with u*self + v*other = g, g monic; (0, 1, 0) when both
        inputs are zero."""
        self._check(other)
        return _egcd_generic(self, other)

    def derivative(self) -> "Poly":
        out = []
        for n in range(1, len(self.coeffs)):
            out.append(self.coeffs[n] * self.ring.coerce(n))
        return Poly(self.ring, self.var, out)

    def valuation(self, p: "Poly") -> int:
        """Multiplicity of the factor p; self must be nonzero and p must not
        be a nonzero constant, which divides everything."""
        if self.is_zero():
            raise ValueError("valuation of the zero polynomial")
        if p.degree == 0:
            raise ValueError(f"valuation at the constant {p!r}")
        count, cur = 0, self
        while True:
            q, r = cur.divmod(p)
            if not r.is_zero():
                return count
            count += 1
            cur = q

    def eval(self, point, ring=None):
        """Horner evaluation; coefficients are coerced into the target parent."""
        if ring is None:
            ring = self.ring
        acc = ring.zero
        for c in reversed(self.coeffs):
            acc = acc * point + ring.coerce(c)
        return acc

    def compose(self, other: "Poly") -> "Poly":
        self._check(other)
        acc = Poly(self.ring, self.var, [])
        for c in reversed(self.coeffs):
            acc = acc * other + Poly(self.ring, self.var, [c])
        return acc

    def map_coeffs(self, fn, ring=None) -> "Poly":
        return Poly(ring if ring is not None else self.ring, self.var,
                    [fn(c) for c in self.coeffs])

    def frobenius_twist(self, i: int, q: int) -> "Poly":
        """c_k X^k  ->  c_k^(q^i) X^(k q^i); the q^i-power map in char p."""
        if i == 0 or self.is_zero():
            return self
        step = q ** i
        zero = self.ring.zero
        out = [zero] * ((len(self.coeffs) - 1) * step + 1)
        for k, c in enumerate(self.coeffs):
            if c != zero:
                out[k * step] = c ** step
        return Poly(self.ring, self.var, out)

    # -- ordering / text ----------------------------------------------------

    def sort_key(self):
        return (len(self.coeffs), tuple(c.sort_key() for c in self.coeffs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.var == other.var and (other.ring is self.ring
                                           or other.ring == self.ring)
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        # over an interned F_p the index view: one C-level hash per
        # coefficient instead of a Python-level FqElem.__hash__
        ix = self._ix
        if ix is not None:
            return hash((self.var, tuple(ix)))
        return hash((self.var, self.coeffs))

    def __str__(self) -> str:
        # F(x), A[x] and QuotElem coefficients have only the display form;
        # over F_q and Z the canonical form fails only on an F_{p^m}
        # coefficient outside F_p or a negative integer
        if isinstance(self.ring, (Fq, IntRing)):
            try:
                return poly_to_str(self)
            except ValueError:
                pass
        return _poly_text(self, str)

    def __repr__(self) -> str:
        return self.__str__()


# -- generic loops: any coefficient parent; the oracle for the F_p kernel ------

def _mul_generic(a: Poly, b: Poly) -> Poly:
    ac, bc = a.coeffs, b.coeffs
    if not ac or not bc:
        return Poly(a.ring, a.var, [])
    zero = a.ring.zero
    out = [zero] * (len(ac) + len(bc) - 1)
    for i, ai in enumerate(ac):
        if ai == zero:
            continue
        for j, bj in enumerate(bc):
            out[i + j] = out[i + j] + ai * bj
    return Poly(a.ring, a.var, out)


def _taps(m: list, zero) -> list:
    """(i, m_i) for the nonzero coefficients of m below its top."""
    return [(i, c) for i, c in enumerate(m[:-1]) if c != zero]


def _reduce(r: list, taps: list, n: int, zero, sub, mul, lead=None,
            quo=None) -> list:
    """r mod a divisor m of degree n with the ``_taps`` taps, for r low
    first over any ring with sub and mul: the n coefficients below y^n,
    with r itself left as it was.  This is the one step-down of schoolbook
    division (Knuth, TAOCP vol. 2, 4.6.1): the top coefficient of r is
    popped, lead maps it to its quotient coefficient (None, for a monic m,
    keeps the top itself), and that times m_i is subtracted over the taps
    only.  A list quo gets the quotient coefficients, highest first; with
    quo None none is kept, so each popped top is freed at once."""
    r = list(r)
    for i in range(len(r) - n - 1, -1, -1):
        top = r.pop()
        if top != zero:
            if lead is not None:
                top = lead(top)
            for j, m in taps:
                r[i + j] = sub(r[i + j], mul(top, m))
        if quo is not None:
            quo.append(top)
    return r + [zero] * (n - len(r))


def _divmod_generic(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    ring = a.ring
    zero = ring.zero
    if b.is_monic():
        lead = None
    elif ring.is_field:
        linv = b.leading ** -1
        lead = lambda c: c * linv
    else:
        raise ValueError("division needs a monic divisor over a non-field")
    dn = len(b.coeffs) - 1
    if len(a.coeffs) <= dn:
        return Poly(ring, a.var, []), a
    quo: list = []
    rem = _reduce(a.coeffs, _taps(b.coeffs, zero), dn, zero, operator.sub,
                  operator.mul, lead, quo)
    return Poly(ring, a.var, quo[::-1]), Poly(ring, a.var, rem)


def _gcd_generic(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, _divmod_generic(a, b)[1]
    return a.monic()


def _egcd_generic(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    one = Poly(a.ring, a.var, [a.ring.one])
    zero = Poly(a.ring, a.var, [])
    r0, r1 = a, b
    u0, u1 = one, zero
    v0, v1 = zero, one
    while not r1.is_zero():
        q, r = _divmod_generic(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - _mul_generic(q, u1)
        v0, v1 = v1, v0 - _mul_generic(q, v1)
    if r0.is_zero():
        return r0, u0, v0
    lc = r0.leading ** -1
    return r0.mul_scalar(lc), u0.mul_scalar(lc), v0.mul_scalar(lc)


def _poly_quo(a: Poly, g: Poly) -> Poly:
    """a/g for a divisor g of a that the library's own construction makes
    exact, so a remainder is an ``InvariantError``, a bug rather than bad
    input.  This is also the Poly kernel's ``quo``."""
    quo, rem = a.divmod(g)
    if rem.coeffs:
        raise InvariantError(
            f"{a.ring!r}[{a.var}] cancellation left a remainder: {a} / {g}")
    return quo


# -- the F_p kernel: coefficient indices, low degree first, no trailing 0 ----

# Schoolbook while len(a) * len(b) is below this, Kronecker from here on.
# Measured on CPython 3.11 for p in {2, 3, 5, 7}: schoolbook is faster below
# a product of about 24, Kronecker above about 36 (2-4x at 8x32 and up).
_KRONECKER_MIN = 32
# array typecodes by item size, to pack and unpack Kronecker digits; with
# p <= 256 a digit outgrows 8 bytes only past 2^48 coefficients
_DIGIT_CODES = [(array(c).itemsize, c) for c in "BHIQ"]


def _interned(ring) -> bool:
    """Whether ring is a prime field with interned elements: the kernel's
    domain.  The kernel reduces indices mod p, so F_{p^m} stays out."""
    return type(ring) is Fq and ring.m == 1


def _fp_poly(ring: Fq, var: str, ints: list[int]) -> Poly:
    """The Poly over ring with the coefficient indices ints, which must be
    reduced and stripped, as every kernel output is; ints becomes its index
    view.  Built once: no strip loop, no FqElem comparison."""
    out = object.__new__(Poly)
    out.ring = ring
    out.var = var
    elems = ring._elems
    # through a list, whose size is known: a tuple grown from a map and cut
    # back raised a session's peak memory by 1.6 MB
    out.coeffs = tuple([elems[c] for c in ints])
    out._ix = ints
    return out


def _fp_strip(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _fp_add(a: list[int], b: list[int], p: int, s: int = 1) -> list[int]:
    """a + s*b for s = 1 or -1, stripped.  The longer operand's tail is
    taken by one slice unless it is negated."""
    out = [(x + s * y) % p for x, y in zip(a, b)]
    if len(a) == len(b):
        return _fp_strip(out)
    if len(a) > len(b):
        return out + a[len(b):]
    return out + (b[len(a):] if s == 1 else [-y % p for y in b[len(a):]])


def _fp_scale(a: list[int], c: int, p: int) -> list[int]:
    """c*a; stripped since p is prime."""
    return [x * c % p for x in a] if c else []


def _fp_mul(a: list[int], b: list[int], p: int | None) -> list[int]:
    """a*b over F_p; over Z, unreduced, when p is None (the parser's route
    for integer coefficients)."""
    if not a or not b:
        return []
    la, lb = len(a), len(b)
    if p and la * lb >= _KRONECKER_MIN:
        # each product coefficient is a sum of at most min(la, lb) terms below
        # p^2; a p too large for 8-byte digits falls through to schoolbook
        bound = min(la, lb) * (p - 1) ** 2
        for size, code in _DIGIT_CODES:
            if bound < 1 << (8 * size):
                order = sys.byteorder
                x = int.from_bytes(array(code, a).tobytes(), order)
                y = int.from_bytes(array(code, b).tobytes(), order)
                digits = array(code)
                digits.frombytes((x * y).to_bytes((la + lb - 1) * size, order))
                return [c % p for c in digits]
    out = [0] * (la + lb - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return [c % p for c in out] if p else out


def _fp_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by nonzero b, both stripped."""
    db = len(b) - 1
    dq = len(a) - 1 - db
    if dq < 0:
        return [], list(a)
    linv = pow(b[-1], -1, p)
    negb = [-c for c in b[:db]]
    rem = list(a)  # reduced lazily: only rem[k + db] is read, mod p
    quo = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + db] * linv % p
        if c:
            quo[k] = c
            rem[k:k + db] = [r + c * x for r, x in zip(rem[k:k + db], negb)]
    return quo, _fp_strip([r % p for r in rem[:db]])


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    if not a:
        return a
    lc = pow(a[-1], -1, p)
    return [x * lc % p for x in a]


class PolyRing:
    """F_q[T] (or any coefficient parent's polynomial ring) as a parent."""

    is_field = False

    def __init__(self, cring, var: str) -> None:
        self.cring = cring
        self.var = var
        self.zero = Poly(cring, var, [])
        self.one = Poly(cring, var, [cring.one])

    def coerce(self, x) -> Poly:
        if isinstance(x, Poly):
            if x.var != self.var or x.ring != self.cring:
                raise ValueError(f"polynomial {x!r} not in {self!r}")
            return x
        return Poly(self.cring, self.var, [self.cring.coerce(x)])

    def gen(self) -> Poly:
        return Poly.gen(self.cring, self.var)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PolyRing) and other.var == self.var
                and other.cring == self.cring)

    def __hash__(self) -> int:
        return hash(("PolyRing", self.var, self.cring))

    def __repr__(self) -> str:
        return f"PolyRing({self.cring!r}, {self.var!r})"


# -- parsing / printing ------------------------------------------------------

MAX_PARSE_DEGREE = 100_000  # a parsed power past it is refused, never built


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":  # ASCII only: str.isdigit admits '²' and '٣'
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("uint", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    """expr := term (('+'|'-') term)*; term := factor ('*' factor)*;
    factor := base ('^' uint)?; base := VAR | uint | '(' expr ')'.

    Every value is a stripped list of integer coefficients, low degree
    first, reduced mod p when the parent has characteristic p and unreduced
    over Z (p None); ``poly_parse`` maps the result into the parent once."""

    def __init__(self, text: str, var: str, p: int | None) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        self.var = var
        self.p = p

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, object, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> list[int]:
        t = self.term()
        while self.peek()[0] in ("+", "-"):
            sign = 1 if self.take()[0] == "+" else -1
            t = _int_add(t, self.term(), sign, self.p)
        return t

    def term(self) -> list[int]:
        f = self.factor()
        while self.peek()[0] == "*":
            self.take()
            f = _fp_mul(f, self.factor(), self.p)
        return f

    def factor(self) -> list[int]:
        b = self.base()
        if self.peek()[0] == "^":
            self.take()
            kind, val, pos = self.take()
            if kind != "uint":
                raise ParseError("exponent must be an unsigned integer", pos)
            if val * max(len(b) - 1, 1) > MAX_PARSE_DEGREE:
                raise ParseError(f"power exceeds the degree limit "
                                 f"{MAX_PARSE_DEGREE}", pos)
            b = _int_power(b, val, self.p)
        return b

    def base(self) -> list[int]:
        kind, val, pos = self.take()
        if kind == "name":
            if val != self.var:
                raise ParseError(
                    f"unknown variable {val!r}, expected {self.var!r}", pos)
            return [0, 1]
        if kind == "uint":
            if self.p:
                val %= self.p
            return [val] if val else []
        if kind == "(":
            inner = self.expr()
            kind2, _, pos2 = self.take()
            if kind2 != ")":
                raise ParseError("expected ')'", pos2)
            return inner
        raise ParseError(f"unexpected token {kind!r}", pos)


def _int_add(a: list[int], b: list[int], s: int, p: int | None) -> list[int]:
    """a + s*b for s = 1 or -1 on the parser's coefficient lists."""
    if p:
        return _fp_add(a, b, p, s)
    out = [x + s * y for x, y in zip(a, b)]
    return _fp_strip(out + (a[len(b):] or [s * y for y in b[len(a):]]))


def _int_power(b: list[int], e: int, p: int | None) -> list[int]:
    """b^e on the parser's coefficient lists; its one power step."""
    return _power(b, e, [1], lambda x, y: _fp_mul(x, y, p))


def _characteristic(ring) -> int | None:
    """p for a parent built over an F_q (through the coefficient parent of a
    polynomial ring, fraction field or quotient ring), None over Z."""
    while ring is not None and not isinstance(ring, Fq):
        ring = getattr(ring, "cring", None) or getattr(ring, "K", None)
    return ring.p if ring is not None else None


def poly_parse(text: str, ring, var: str = "T") -> Poly:
    """Parse polynomial text over a coefficient parent (integers land in the
    prime field when the parent is F_q).  The text is evaluated on integer
    coefficient lists and the result is built once, through the ring
    homomorphism Z -> ring, so no intermediate Poly is made."""
    parser = _Parser(text, var, _characteristic(ring))
    ints = parser.expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input starting with {kind!r}", pos)
    if _interned(ring):
        return _fp_poly(ring, var, ints)
    coerce = ring.coerce
    return Poly(ring, var, [coerce(c) for c in ints])


def _coeff_int(c) -> int:
    if isinstance(c, int):
        if c < 0:
            raise ValueError("no canonical text form for negative integers")
        return c
    if isinstance(c, FqElem):
        return c.i if c.field.m == 1 else c.prime_value()
    raise ValueError(f"no canonical text form for coefficient {c!r}")


def poly_to_str(poly: Poly) -> str:
    """Canonical text: terms highest degree first, '+'-separated, prime-field
    coefficients as integer literals.  Round-trips through poly_parse.  Over
    an interned F_p the terms are written straight from the index view."""
    if not _interned(poly.ring):
        return _poly_text(poly, lambda c: str(_coeff_int(c)))
    ix = poly._ix
    if not ix:
        return "0"
    var = poly.var
    parts = []
    for e in range(len(ix) - 1, 0, -1):
        c = ix[e]
        if c:
            xpart = var if e == 1 else f"{var}^{e}"
            parts.append(xpart if c == 1 else f"{c}*{xpart}")
    if ix[0]:
        parts.append(str(ix[0]))
    return "+".join(parts)


def _poly_text(poly: Poly, text) -> str:
    """Terms highest degree first, '+'-separated, each coefficient written
    by ``text``; a unit coefficient is left out, and one whose text is not a
    single factor is parenthesised.  With ``str`` this is the display-only
    form for coefficients with no canonical integer text (rational
    functions, tower elements), not meant to be re-parsed.  The oracle for
    the index-view loop of ``poly_to_str``."""
    if poly.is_zero():
        return "0"
    parts = []
    for e in range(poly.degree, -1, -1):
        c = poly.coeff(e)
        if c == poly.ring.zero:
            continue
        cs = text(c)
        if e == 0:
            parts.append(cs if _is_factor(cs) else f"({cs})")
            continue
        xpart = poly.var if e == 1 else f"{poly.var}^{e}"
        if c == poly.ring.one:
            parts.append(xpart)
        elif _is_factor(cs):
            parts.append(f"{cs}*{xpart}")
        else:
            parts.append(f"({cs})*{xpart}")
    return "+".join(parts)


def _is_factor(s: str) -> bool:
    return not any(ch in s for ch in "+-*/")


# -- enumeration -------------------------------------------------------------

def monic_enumerate(fq: Fq, d: int, var: str = "T") -> list[Poly]:
    """All monic polynomials of degree exactly d over F_q, constant
    coefficient varying fastest (index order)."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    return _digit_polys(fq, d, var, True)


def all_residues(fq: Fq, bound: int, var: str = "T") -> list[Poly]:
    """All polynomials of degree < bound over F_q, in index order."""
    return _digit_polys(fq, bound, var, False)


def _digit_polys(fq: Fq, n: int, var: str, monic: bool) -> list[Poly]:
    """For v = 0, 1, ..., q^n - 1: the base-q digits of v as coefficients
    0..n-1 (element index order, constant varying fastest), then a leading
    1 when monic."""
    lists = _digit_lists(fq.q, n, monic)
    if _interned(fq):
        return [_fp_poly(fq, var, ix) for ix in lists]
    elems = fq.elements()
    return [Poly(fq, var, [elems[i] for i in ix]) for ix in lists]


def _digit_lists(q: int, n: int, monic: bool) -> list[list[int]]:
    """The index lists of ``_digit_polys`` in its order, stripped with no
    strip loop: v in [q^d, q^(d+1)) is a top digit t = 1..q-1, varying
    slowest, over every list of d lower digits, and the monic polynomials
    of degree n are every list of n digits below a top index 1."""
    lows = [[1]] if monic else [[]]  # every list of d digits (over the 1)
    out = [] if monic else [[]]
    for d in range(n):
        if not monic:
            out += [low + [t] for t in range(1, q) for low in lows]
        if monic or d < n - 1:
            lows = [[c] + low for low in lows for c in range(q)]
    return lows if monic else out


# -- irreducibility ----------------------------------------------------------

def _poly_powmod(base: Poly, e: int, mod: Poly) -> Poly:
    return _power(base % mod, e, Poly(base.ring, base.var, [base.ring.one]),
                  lambda a, b: (a * b) % mod)


def is_irreducible(poly: Poly) -> bool:
    """Deterministic Rabin test over F_q; units and constants are not
    irreducible."""
    fq = poly.ring
    if not getattr(fq, "is_field", False) or not isinstance(fq, Fq):
        raise TypeError("irreducibility test expects F_q coefficients")
    if poly.is_zero():
        raise ValueError("zero polynomial")
    n = poly.degree
    if n == 0:
        return False
    f = poly.monic()
    q = fq.q
    x = Poly.gen(fq, poly.var)
    if _poly_powmod(x, q ** n, f) != x % f:
        return False
    for r in _prime_divisors(n):
        h = _poly_powmod(x, q ** (n // r), f) - x
        if f.gcd(h).degree > 0:
            return False
    return True


_PRIMES: set[Poly] = set()  # every poly is_monic_prime has accepted


def is_monic_prime(poly: Poly) -> bool:
    """poly is monic and irreducible over F_q.  Rabin's test runs once per
    accepted prime; a rejected polynomial is never stored, so it is tested
    again on every call."""
    if poly in _PRIMES:
        return True
    if not poly.is_monic() or not is_irreducible(poly):
        return False
    _PRIMES.add(poly)
    return True
