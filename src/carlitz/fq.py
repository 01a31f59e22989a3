"""Finite fields F_q, q = p^m, with a deterministic canonical modulus.

F_q is realized as F_p[s]/(modulus) where modulus is the lexicographically
smallest monic irreducible of degree m over F_p, coefficient vectors compared
highest degree first.  A given q therefore names the same field, with the same
element order, in every run and every process.

Elements carry a single integer index i = sum c_j p^j over the coordinate
vector (c_0, ..., c_{m-1}); index order is the canonical element order used
by every enumeration in the package.

A field with q <= _TABLE_LIMIT, prime or not, interns its q elements: every
element it hands out (arithmetic results, ``zero``, ``one``, ``from_int``,
``from_index``, ``elements``) is an entry of ``_elems``, and ``+``, ``-``,
``*`` and inversion are lookups in tables of those entries, built with the
field by the coordinate loops below (the product table through the powers
of one generator of F_q^*).  A larger field (``Fq(q)`` returns a
``_CoordFq`` there) builds each result by those loops, and inverts by
a^(q-2).  ``FqElem``s built directly still compare equal by index.
"""

from __future__ import annotations

import functools

__all__ = ["Fq", "FqElem"]

_TABLE_LIMIT = 256  # interned elements and q x q tables only for small q


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, m) with q = p^m, or raise ValueError."""
    if q < 2:
        raise ValueError(f"field size must be >= 2, got {q}")
    n, p = q, 0
    for cand in range(2, q + 1):
        if cand * cand > q:
            cand = q  # q itself prime
        if n % cand == 0:
            p = cand
            break
    m = 0
    while n > 1:
        if n % p:
            raise ValueError(f"{q} is not a prime power")
        n //= p
        m += 1
    return p, m


def _power(base, e: int, one, mul):
    """base^e for e >= 0 by square-and-multiply; the one copy every power in
    the package goes through.  Callers handle negative e and reduce first.
    The result starts from the lowest set bit's power, not from ``one``, so
    base^e takes floor(log2 e) squarings and popcount(e) - 1 products, and
    ``one`` is returned only for e = 0; every element is immutable and
    canonical, so a product with one would change nothing."""
    if not e:
        return one
    while not e & 1:
        base = mul(base, base)
        e >>= 1
    result = base
    e >>= 1
    while e:
        base = mul(base, base)
        if e & 1:
            result = mul(result, base)
        e >>= 1
    return result


def _prime_divisors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _canonical_modulus(p: int, m: int) -> tuple[int, ...]:
    if m == 1:
        return (0, 1)  # F_p[s]/(s)
    from .poly import Poly, is_irreducible  # poly imports this module
    fp = Fq.get(p)
    for v in range(p ** m):
        # digits of v, read highest-power-first, give (c_{m-1}, ..., c_0);
        # counting v upward scans candidates in lexicographic order
        hi_first = [(v // p ** k) % p for k in range(m - 1, -1, -1)]
        coeffs = list(reversed(hi_first)) + [1]  # low-to-high, monic
        if is_irreducible(Poly(fp, "s", [fp.from_index(c) for c in coeffs])):
            return tuple(coeffs)
    raise ValueError(f"no irreducible of degree {m} over F_{p}")  # unreachable


class FqElem:
    """Element of F_q, identified by its integer index."""

    __slots__ = ("field", "i")

    def __init__(self, field: "Fq", i: int) -> None:
        self.field = field
        self.i = i

    # coordinates over F_p, constant first
    @property
    def coords(self) -> tuple[int, ...]:
        p, m = self.field.p, self.field.m
        w, out = self.i, []
        for _ in range(m):
            out.append(w % p)
            w //= p
        return tuple(out)

    def prime_value(self) -> int:
        """The element as an integer in [0, p) if it lies in F_p."""
        c = self.coords
        if any(c[1:]):
            raise ValueError(f"{self!r} is not in the prime field")
        return c[0]

    def sort_key(self) -> int:
        return self.i

    def __bool__(self) -> bool:
        return self.i != 0

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, FqElem)
            and other.field.q == self.field.q
            and other.i == self.i
        )

    def __hash__(self) -> int:
        return hash((self.field.q, self.i))

    def __add__(self, other: "FqElem") -> "FqElem":
        return self.field.add(self, other)

    def __sub__(self, other: "FqElem") -> "FqElem":
        return self.field.sub(self, other)

    def __neg__(self) -> "FqElem":
        return self.field.neg(self)

    def __mul__(self, other: "FqElem") -> "FqElem":
        return self.field.mul(self, other)

    def __truediv__(self, other: "FqElem") -> "FqElem":
        return self.field.mul(self, self.field.inv(other))

    def __pow__(self, e: int) -> "FqElem":
        f = self.field
        if e < 0:
            return f.inv(self) ** (-e)
        if self.i == 0:
            return f.one if e == 0 else f.zero
        # element order divides q-1; the base is the field's own copy, since
        # e = 1 returns it unmultiplied
        return _power(f.from_index(self.i), e % (f.q - 1), f.one, f.mul)

    def __repr__(self) -> str:
        if self.field.m == 1:
            return str(self.i)
        return f"Fq{self.field.q}[{','.join(map(str, self.coords))}]"


class Fq:
    """The field F_q.  Use :meth:`Fq.get` so equal q share one instance."""

    is_field = True

    def __new__(cls, q: int) -> "Fq":
        # past the limit q x q tables would not pay for themselves
        return super().__new__(_CoordFq if q > _TABLE_LIMIT else cls)

    def __init__(self, q: int) -> None:
        p, m = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.m = m
        self.modulus = _canonical_modulus(p, m)
        if q <= _TABLE_LIMIT:
            self._elems = [FqElem(self, i) for i in range(q)]
        self.zero = self.from_index(0)
        self.one = self.from_index(1)
        if q <= _TABLE_LIMIT:  # _make_inv's powers need one and _mul
            self._add = self._make_add()
            self._neg = self._make_neg()
            self._mul = self._make_mul()
            self._inv = self._make_inv()

    @staticmethod
    @functools.cache
    def get(q: int) -> "Fq":
        return Fq(q)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Fq) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("Fq", self.q))

    def __repr__(self) -> str:
        return f"Fq({self.q})"

    # -- parent protocol ------------------------------------------------

    def coerce(self, x) -> FqElem:
        if isinstance(x, FqElem):
            if x.field.q != self.q:
                raise ValueError(f"element of F_{x.field.q} used in F_{self.q}")
            return x
        if isinstance(x, int):
            return self.from_int(x)
        raise TypeError(f"cannot coerce {x!r} into F_{self.q}")

    def from_int(self, n: int) -> FqElem:
        return self.from_index(n % self.p)

    def from_index(self, i: int) -> FqElem:
        """The element with index i, 0 <= i < q."""
        return self._elems[i]

    def from_coords(self, coords) -> FqElem:
        p = self.p
        i = 0
        for c in reversed(list(coords)):
            i = i * p + (c % p)
        return self.from_index(i)

    def elements(self) -> list[FqElem]:
        return [self.from_index(i) for i in range(self.q)]

    # -- arithmetic: one lookup each ---------------------------------------
    # Each table is a plain list built by _make<table> in __init__; the
    # binary tables hold a op b at a.i * q + b.i.

    def _make_add(self) -> list[FqElem]:
        q, elems = self.q, self._elems
        return [elems[self._digitwise(i, j, 1)]
                for i in range(q) for j in range(q)]

    def _make_neg(self) -> list[FqElem]:
        elems = self._elems
        return [elems[self._digitwise(0, i, -1)] for i in range(self.q)]

    def _make_mul(self) -> list[FqElem]:
        # a * b = g^(log a + log b) for a generator g of F_q^*: q - 2
        # coordinate products build the powers of g, the rest is lookups
        q, elems = self.q, self._elems
        g = self._generator()
        power = [1]
        for _ in range(q - 2):
            power.append(self._mul_index(power[-1], g))
        log = [0] * q
        for k, i in enumerate(power):
            log[i] = k
        power += power  # log a + log b < 2(q - 1) needs no reduction
        table = [elems[0]] * (q * q)  # row and column 0 stay zero
        for i in range(1, q):
            row, li = i * q, log[i]
            for j in range(1, q):
                table[row + j] = elems[power[li + log[j]]]
        return table

    def _generator(self) -> int:
        """The smallest index of a generator of F_q^*: an element none of
        whose powers (q - 1)/r, r a prime dividing q - 1, is 1."""
        n = self.q - 1
        exps = [n // r for r in _prime_divisors(n)]
        for g in range(1, self.q):
            if all(_power(g, e, 1, self._mul_index) != 1 for e in exps):
                return g
        raise ValueError(f"F_{self.q}^* has no generator")  # unreachable

    def _make_inv(self) -> list[FqElem | None]:
        return [None] + [a ** (self.q - 2) for a in self._elems[1:]]

    def add(self, a: FqElem, b: FqElem) -> FqElem:
        return self._add[a.i * self.q + b.i]

    def sub(self, a: FqElem, b: FqElem) -> FqElem:
        return self._add[a.i * self.q + self._neg[b.i].i]

    def neg(self, a: FqElem) -> FqElem:
        return self._neg[a.i]

    def mul(self, a: FqElem, b: FqElem) -> FqElem:
        return self._mul[a.i * self.q + b.i]

    def inv(self, a: FqElem) -> FqElem:
        if a.i == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.q}")
        return self._inv[a.i]

    # -- coordinate loops: the tables' source, and q > _TABLE_LIMIT -------

    def _digitwise(self, i: int, j: int, sign: int) -> int:
        """The index whose coordinates are those of index i plus sign times
        those of index j, each mod p."""
        p, out, mult = self.p, 0, 1
        while i or j:
            out += ((i % p + sign * (j % p)) % p) * mult
            i //= p
            j //= p
            mult *= p
        return out

    def _mul_index(self, i: int, j: int) -> int:
        p, m, mod = self.p, self.m, self.modulus
        if m == 1:
            return i * j % p
        a = [(i // p ** k) % p for k in range(m)]
        b = [(j // p ** k) % p for k in range(m)]
        conv = [0] * (2 * m - 1)
        for u, au in enumerate(a):
            if au:
                for v, bv in enumerate(b):
                    conv[u + v] = (conv[u + v] + au * bv) % p
        for k in range(2 * m - 2, m - 1, -1):  # reduce by the monic modulus
            ck = conv[k]
            if ck:
                for c in range(m):
                    conv[k - m + c] = (conv[k - m + c] - ck * mod[c]) % p
        idx = 0
        for c in reversed(conv[:m]):
            idx = idx * p + c
        return idx


class _CoordFq(Fq):
    """F_q with q > _TABLE_LIMIT, where q x q tables would not pay: every
    result is a fresh ``FqElem`` built by the coordinate loops."""

    def from_index(self, i: int) -> FqElem:
        return FqElem(self, i)

    def add(self, a: FqElem, b: FqElem) -> FqElem:
        return FqElem(self, self._digitwise(a.i, b.i, 1))

    def sub(self, a: FqElem, b: FqElem) -> FqElem:
        return FqElem(self, self._digitwise(a.i, b.i, -1))

    def neg(self, a: FqElem) -> FqElem:
        return FqElem(self, self._digitwise(0, a.i, -1))

    def mul(self, a: FqElem, b: FqElem) -> FqElem:
        return FqElem(self, self._mul_index(a.i, b.i))

    def inv(self, a: FqElem) -> FqElem:
        if a.i == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.q}")
        return a ** (self.q - 2)
