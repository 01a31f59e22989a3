"""Integral group rings Z[(A/pi^n)^*], cyclotomic polynomials over Z, and
character specifications.

(A/pi^n)^* is Gal(F_n/F), so one ``GroupRing`` serves both the
Stickelberger elements and the Galois action of ``cyclo.CycloField``.  Its
classes are keyed by their reduced representatives, polynomials of degree
below n deg pi; group-ring elements are coefficient maps on those keys, and
multiplication is convolution with the product of two keys reduced mod pi^n.
A ``GroupRing`` enumerates its unit keys on the first ``group_keys`` call
and keeps them, so the q^(n deg pi) residues are run through once per ring.
``translation`` turns left translation by a class into one permutation of
those keys and ``projection`` turns the push-down to a lower level into one
key map, so an element is translated or projected by dictionary lookups
and a series of elements pays the |G| reductions once.
Characters take values in Z[x]/(Phi_m), a ``quotient.QuotientRing`` over Z
with Phi_m the classical m-th cyclotomic polynomial, so every comparison
stays exact.
"""

from __future__ import annotations

import functools

from .errors import CharacterError
from .poly import Poly, ZZ, _poly_quo, all_residues, is_monic_prime
from .quotient import QuotientRing

__all__ = [
    "GroupRing",
    "GroupRingElem",
    "cyclotomic_poly",
    "CharSpec",
    "character_table",
]


class GroupRing:
    """Z[G] for G = (A/pi^n)^* and a monic irreducible pi in F_q[T]; n = 0
    gives the trivial group A/(1), whose one key is 0."""

    def __init__(self, pi: Poly, n: int) -> None:
        if n < 0:
            raise ValueError("level must be >= 0")
        if not is_monic_prime(pi):
            raise ValueError(f"{pi!r} is not monic irreducible")
        self.fq = pi.ring
        self.pi = pi
        self.n = n
        self.modulus = pi ** n
        self._keys = None  # the unit keys, once group_keys enumerates them

    def key(self, a: Poly) -> Poly:
        """Canonical dictionary key for the class of a; must be a unit."""
        r = a % self.modulus
        if self.n and (r % self.pi).is_zero():
            raise ValueError(f"{a!r} is not prime to {self.pi!r}")
        return r

    def mul_key(self, a: Poly, b: Poly) -> Poly:
        """Key of the product of the classes keyed a and b."""
        return (a * b) % self.modulus

    def translation(self, a: Poly) -> dict:
        """Left translation by the class of a as a permutation of the keys,
        k -> key(a k) for every key k of G; a must be a unit."""
        ka = self.key(a)
        return {k: self.mul_key(ka, k) for k in self.group_keys()}

    def projection(self, target: "GroupRing") -> dict:
        """The push-down to target = GroupRing(pi, m) as a key map,
        k -> target.key(k) for every key k of G."""
        return {k: target.key(k) for k in self.group_keys()}

    def zero(self) -> "GroupRingElem":
        return GroupRingElem(self, {})

    def one(self) -> "GroupRingElem":
        one_key = Poly(self.fq, self.pi.var, [self.fq.one]) % self.modulus
        return GroupRingElem(self, {one_key: 1})

    def element(self, a: Poly, c: int = 1) -> "GroupRingElem":
        return GroupRingElem(self, {self.key(a): c})

    def group_order(self) -> int:
        if self.n == 0:
            return 1
        qd = self.fq.q ** self.pi.degree
        return (qd - 1) * qd ** (self.n - 1)

    def group_keys(self) -> list[Poly]:
        """The keys of G, in enumeration order of the residues: enumerated
        on the first call, and a fresh list each time, which the caller
        may change."""
        if self._keys is None:
            keys = all_residues(self.fq, self.n * self.pi.degree, self.pi.var)
            if self.n:
                keys = [a for a in keys if not (a % self.pi).is_zero()]
            self._keys = keys
        return list(self._keys)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GroupRing) and other.pi == self.pi
                and other.n == self.n)

    def __hash__(self) -> int:
        return hash(("GroupRing", self.pi, self.n))

    def __repr__(self) -> str:
        return f"GroupRing({self.pi!r}, {self.n})"


class GroupRingElem:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: GroupRing, coeffs: dict) -> None:
        self.ring = ring
        self.coeffs = {k: c for k, c in coeffs.items() if c != 0}

    def coefficient(self, a: Poly) -> int:
        return self.coeffs.get(self.ring.key(a), 0)

    def augmentation(self) -> int:
        return sum(self.coeffs.values())

    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self) -> list[tuple[Poly, int]]:
        """(key, coefficient) pairs in canonical key order."""
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key())

    def _check(self, other: "GroupRingElem") -> None:
        if other.ring != self.ring:
            raise ValueError("mixed group rings")

    def __add__(self, other: "GroupRingElem") -> "GroupRingElem":
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return GroupRingElem(self.ring, out)

    def __sub__(self, other: "GroupRingElem") -> "GroupRingElem":
        return self + (-other)

    def __neg__(self) -> "GroupRingElem":
        return GroupRingElem(self.ring, {k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other: "GroupRingElem") -> "GroupRingElem":
        self._check(other)
        ring = self.ring
        out: dict[Poly, int] = {}
        for ka, ca in self.coeffs.items():
            for kb, cb in other.coeffs.items():
                k = ring.mul_key(ka, kb)
                out[k] = out.get(k, 0) + ca * cb
        return GroupRingElem(ring, out)

    def scale(self, c: int) -> "GroupRingElem":
        return GroupRingElem(self.ring, {k: c * v for k, v in self.coeffs.items()})

    def act(self, a: Poly) -> "GroupRingElem":
        """Left translation by the class of a."""
        perm = self.ring.translation(a)
        return GroupRingElem(self.ring,
                             {perm[k]: c for k, c in self.coeffs.items()})

    def project(self, m: int, target: GroupRing | None = None,
                keymap: dict | None = None) -> "GroupRingElem":
        """Push down along (A/pi^n)^* -> (A/pi^m)^*, m <= n.  target is
        GroupRing(pi, m) and keymap is ring.projection(target) when the
        caller has built them already, as ThetaPoly.project does for all
        of its coefficients."""
        if m > self.ring.n:
            raise ValueError("projection target above current level")
        if target is None:
            target = GroupRing(self.ring.pi, m)
        if keymap is None:
            keymap = {k: target.key(k) for k in self.coeffs}
        out: dict[Poly, int] = {}
        for k, c in self.coeffs.items():
            km = keymap[k]
            out[km] = out.get(km, 0) + c
        return GroupRingElem(target, out)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GroupRingElem) and other.ring == self.ring
                and other.coeffs == self.coeffs)

    def __hash__(self) -> int:
        return hash((self.ring.n, tuple(self.items())))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in self.items():
            head = "" if c == 1 else f"{c}*"
            parts.append(f"{head}[{k}]")
        return " + ".join(parts)


# -- cyclotomic polynomials ------------------------------------------------------

@functools.cache
def cyclotomic_poly(m: int) -> Poly:
    """The m-th cyclotomic polynomial over Z, by exact division of x^m - 1
    by the proper-divisor factors."""
    if m < 1:
        raise ValueError("index must be >= 1")
    xm1 = Poly(ZZ, "x", [-1] + [0] * (m - 1) + [1])
    for d in range(1, m):
        if m % d == 0:
            xm1 = _poly_quo(xm1, cyclotomic_poly(d))
    return xm1


# -- characters ------------------------------------------------------------------

class CharSpec:
    """A character of (A/pi^n)^* of order dividing m, given by generator
    images: gens maps a residue (any representative) to the exponent e with
    chi(class) = zeta_m^e, as a dict or as (residue, e) pairs, in which a
    residue may repeat; ``character_table`` checks that images agree."""

    def __init__(self, order: int, gens) -> None:
        if order < 1:
            raise ValueError("character order must be >= 1")
        self.order = order
        self.gens = tuple(gens.items() if isinstance(gens, dict) else gens)

    def values(self) -> QuotientRing:
        """Z[x]/(Phi_m) for m the order; x is a primitive m-th root of 1."""
        return QuotientRing(cyclotomic_poly(self.order))


def character_table(ring: GroupRing, spec: CharSpec) -> dict:
    """Exponent of chi on every residue the generators reach.

    Breadth-first closure of the generated subgroup, carrying exponents mod
    the character order; any relation that maps the same residue to two
    different exponents means the data is not a homomorphism."""
    m = spec.order
    table: dict[Poly, int] = {ring.one().items()[0][0]: 0}
    frontier = list(table.items())
    gen_pairs = []
    for a, e in spec.gens:
        k = ring.key(a)
        gen_pairs.append((k, e % m))
    while frontier:
        nxt = []
        for k, e in frontier:
            for gk, ge in gen_pairs:
                k2 = ring.mul_key(k, gk)
                e2 = (e + ge) % m
                seen = table.get(k2)
                if seen is None:
                    table[k2] = e2
                    nxt.append((k2, e2))
                elif seen != e2:
                    raise CharacterError(
                        f"generator images are inconsistent at [{k2}]: "
                        f"exponent {seen} vs {e2} mod {m}")
        frontier = nxt
    return table
