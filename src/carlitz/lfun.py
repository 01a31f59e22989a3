"""Special values of the Carlitz-Goss zeta function and Stickelberger-type
group-ring series.

For A = F_q[T] the zeta values at negative integers are the finite sums

    zeta_A(-k) = sum_{d >= 0} S_d(k),   S_d(k) = sum_{a monic, deg a = d} a^k,

which lie in A because S_d(k) = 0 once d(q-1) > k.  The v-adic variant
removes the Euler factor at a finite prime, and the positive-k values are
expanded as series in t = 1/T.  Stickelberger-type elements live in the
integral group ring Z[(A/pi^n)^*], ``GroupRing.get(pi, n)``, and are
assembled degree by degree from the classes of monic polynomials prime to
a finite set of places.

Neither family is enumerated where counting already gives the answer.  In
S_d(k) a multinomial that is 0 mod p kills every term below it.  The monic
polynomials of degree n >= deg M are equidistributed mod M = pi^level times
the other finite places of S, so those Stickelberger coefficients are one
count on every class.  The enumerating routes stay as power_sum_enum,
zeta_v_adic_neg_enum and stickelberger_coefficient_enum, the oracles in
tests.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .cmod import bernoulli_carlitz_table
from .errors import CharacterError, InvariantError, PrecisionError, TailError
from .fq import Fq
from .groupring import CharSpec, GroupRing, GroupRingElem, character_table
from .poly import ZZ, Poly, is_monic_prime, monic_enumerate, poly_to_str
from .series import TruncSeries


# -- power sums over monic polynomials ---------------------------------------

def power_sum(d: int, k: int, fq: Fq) -> Poly:
    """S_d(k) = sum of a^k over the q^d monic polynomials of degree d.

    Expanding a = T^d + c_{d-1} T^{d-1} + ... + c_0 multinomially and summing
    each free coefficient over F_q kills every term in which some c_i carries
    an exponent that is zero or not a positive multiple of q - 1 (the sum of
    c^j over F_q is -1 for such j and 0 otherwise).  What survives is

        S_d(k) = (-1)^d sum multinom(k; k_0,...,k_{d-1}, r) T^{dr + sum i k_i}

    over tuples with each k_i a positive multiple of q - 1 and r = k - sum k_i
    >= 0.  The sum is empty once d(q-1) > k, so S_d(k) = 0 there.  The
    multinomial is built one factor binom(remaining, k_i) at a time, and a
    prefix whose product is 0 mod p kills every tuple that extends it, so
    the walk skips that subtree (by Lucas' theorem most of them for p = 3).
    """
    if d < 0 or k < 0:
        raise ValueError("need d >= 0 and k >= 0")
    if d == 0:
        return Poly(fq, "T", [fq.one])
    p, q = fq.p, fq.q
    step = q - 1
    acc: dict[int, int] = {}

    def descend(i: int, remaining: int, texp: int, mult: int) -> None:
        if i == d:
            e = texp + d * remaining
            acc[e] = (acc.get(e, 0) + mult) % p
            return
        slots_left = d - i - 1
        j = step
        while remaining - j >= slots_left * step:
            m = mult * math.comb(remaining, j) % p
            if m:
                descend(i + 1, remaining - j, texp + i * j, m)
            j += step

    descend(0, k, 0, 1)
    sign = pow(p - 1, d, p)
    if not acc:
        return Poly(fq, "T", [])
    top = max(acc)
    coeffs = [fq.from_int(sign * acc.get(e, 0)) for e in range(top + 1)]
    return Poly(fq, "T", coeffs)


def power_sum_enum(d: int, k: int, fq: Fq) -> Poly:
    """S_d(k) by literal enumeration.  Oracle for power_sum; exponential in d."""
    total = Poly(fq, "T", [])
    for a in monic_enumerate(fq, d):
        total = total + a ** k
    return total


# -- zeta special values ------------------------------------------------------

def zeta_neg(k: int, fq: Fq) -> Poly:
    """zeta_A(-k) = sum_d S_d(k) as an element of A = F_q[T].

    Strata with d(q-1) > k vanish; the sweep still computes every stratum up
    to d = k + 2 and checks the vanishing instead of assuming it.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    total = Poly(fq, "T", [])
    for d in range(k + 3):
        s = power_sum(d, k, fq)
        if d * (fq.q - 1) > k and not s.is_zero():
            raise InvariantError(
                f"stratum d={d} fails the vanishing bound for k={k}")
        total = total + s
    return total


def zeta_v_adic_neg(k: int, pi: Poly) -> Poly:
    """The v-adic value (1 - pi^k) zeta_A(-k) at the place v = (pi).

    The Euler factor is removed from zeta_neg.  A coprime stratum of degree
    d > k/(q-1) + deg(pi) + 1 is S_d(k) - pi^k S_(d - deg pi)(k), two power
    sums with d(q-1) > k and (d - deg pi)(q-1) > k, so it vanishes where
    they do: zeta_neg checks every such power sum up to d = k + 2 instead
    of assuming it.  zeta_v_adic_neg_enum, the literal coprime sum, is its
    oracle in tests and in the selftest.
    """
    fq = pi.ring
    if k < 1:
        raise ValueError("need k >= 1")
    if not is_monic_prime(pi):
        raise ValueError("pi must be monic irreducible")
    one = Poly(fq, pi.var, [fq.one])
    return (one - pi ** k) * zeta_neg(k, fq)


def zeta_v_adic_neg_enum(k: int, pi: Poly) -> Poly:
    """(1 - pi^k) zeta_A(-k) as the literal sum of a^k over monic a prime to
    pi of degree at most k/(q-1) + deg(pi) + 1.  Oracle for zeta_v_adic_neg;
    exponential in k/(q-1)."""
    fq = pi.ring
    total = Poly(fq, pi.var, [])
    for d in range(k // (fq.q - 1) + pi.degree + 2):
        for a in monic_enumerate(fq, d):
            if not (a % pi).is_zero():
                total = total + a ** k
    return total


def zeta_pos_trunc(k: int, fq: Fq, dmax: int, prec: int) -> TruncSeries:
    """zeta_A(k) = sum over monic a of 1/a^k as a series in t = 1/T.

    Each monic a of degree d is T^d u_a(t) with u_a a unit in F_q[[t]], so
    the stratum contributes t^{dk} sum u_a^{-k}.  Summing strata d <= dmax
    certifies the expansion only up to t^{(dmax+1)k}; a request beyond that
    bound raises PrecisionError rather than returning uncertified digits.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if dmax < 0:
        raise ValueError("need dmax >= 0")
    cap = (dmax + 1) * k
    if prec > cap:
        raise PrecisionError(
            f"strata through degree {dmax} certify only {cap} coefficients",
            needed=prec)
    if prec < 1:
        raise ValueError("need prec >= 1")
    total = TruncSeries(fq, "t", 0, [], prec)
    for d in range(dmax + 1):
        if d * k >= prec:
            break
        rel = prec - d * k
        for a in monic_enumerate(fq, d):
            unit = TruncSeries(fq, "t", 0, [a.coeff(d - i) for i in range(d + 1)],
                               None)
            total = total + (unit.truncate(rel).invert() ** k).shift(d * k)
    return total


# -- Stickelberger-type group-ring series -------------------------------------

def _distinct_places(places, label: str) -> list[Poly]:
    """The distinct members of places, each checked monic irreducible."""
    out: list[Poly] = []
    for v in places:
        if not is_monic_prime(v):
            raise ValueError(f"members of {label} must be monic irreducible")
        if v not in out:
            out.append(v)
    return out


def stickelberger_coefficient(pi: Poly, level: int, s_finite,
                              n: int) -> GroupRingElem:
    """Degree-n coefficient before any auxiliary-place modification: the sum
    of [a mod pi^level] over monic a of degree n prime to every member of
    s_finite, the finite places of S (pi among them).

    Let M = pi^level * prod v over the members v != pi.  Once n >= deg M the
    monic polynomials of degree n run over every residue mod M exactly
    q^(n - deg M) times (Rosen, Number Theory in Function Fields, ch. 4), and
    by the Chinese remainder theorem each unit class mod pi^level lifts to
    prod_v (q^deg v - 1) units mod M.  So the coefficient is that count on
    every class, with no enumeration; below deg M the monic polynomials are
    enumerated.  stickelberger_series takes all of its coefficients through
    _raw_coefficients, which finds M once per series.
    """
    if level < 1:
        raise ValueError("need level >= 1")
    ring = GroupRing.get(pi, level)
    s_finite = _distinct_places(s_finite, "S")
    if pi not in s_finite:
        raise ValueError("s_finite must contain pi")
    return _raw_coefficients(ring, s_finite, [n])[0]


def _raw_coefficients(ring: GroupRing, s_finite, degrees) -> list[GroupRingElem]:
    """stickelberger_coefficient for each n in degrees, with M, its degree
    and the unit count of the other places found once."""
    pi, level = ring.pi, ring.n
    q = pi.ring.q
    extra = [v for v in s_finite if v != pi]
    deg_m = level * pi.degree + sum(v.degree for v in extra)
    units = math.prod(q ** v.degree - 1 for v in extra)
    out = []
    for n in degrees:
        if n < deg_m:
            out.append(stickelberger_coefficient_enum(pi, level, s_finite, n))
        else:
            out.append(GroupRingElem(ring, dict.fromkeys(
                ring.group_keys(), q ** (n - deg_m) * units)))
    return out


def stickelberger_coefficient_enum(pi: Poly, level: int, s_finite,
                                   n: int) -> GroupRingElem:
    """The same coefficient by literal enumeration of the q^n monic
    polynomials of degree n.  Oracle for stickelberger_coefficient."""
    ring = GroupRing.get(pi, level)
    acc: dict = {}
    for a in monic_enumerate(pi.ring, n, pi.var):
        if any((a % v).is_zero() for v in s_finite):
            continue
        key = ring.key(a)
        acc[key] = acc.get(key, 0) + 1
    return GroupRingElem(ring, acc)


class ThetaPoly:
    """A polynomial in u with coefficients in Z[(A/pi^level)^*].

    Built by stickelberger_series: the coefficient of u^n collects the
    classes of monic polynomials of degree n prime to S, then each auxiliary
    place v multiplies by (1 - [v] q^{deg v} u^{deg v}) to force the series
    to terminate.
    """

    __slots__ = ("ring", "pi", "level", "s_finite", "t_aux", "coeffs")

    def __init__(self, ring: GroupRing, s_finite, t_aux, coeffs) -> None:
        self.ring = ring
        self.pi = ring.pi
        self.level = ring.n
        self.s_finite = tuple(s_finite)
        self.t_aux = tuple(t_aux)
        self.coeffs = list(coeffs)
        while self.coeffs and self.coeffs[-1].is_zero():
            self.coeffs.pop()

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> GroupRingElem:
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return self.ring.zero()

    def at_one(self) -> GroupRingElem:
        """Evaluate at u = 1."""
        return sum(self.coeffs, self.ring.zero())

    def project(self, m: int) -> "ThetaPoly":
        """Push every coefficient down to Z[(A/pi^m)^*]."""
        return ThetaPoly(GroupRing.get(self.pi, m), self.s_finite, self.t_aux,
                         [c.project(m) for c in self.coeffs])

    def eval_char(self, spec: CharSpec) -> Poly:
        """Apply a character coefficientwise; the result is a polynomial in u
        over Z[x]/(Phi_m) for m the character order: sum coef zeta^e is the
        integer polynomial sum coef x^e, reduced once mod Phi_m."""
        ring = spec.values()
        table = character_table(self.ring, spec)
        out = []
        for c in self.coeffs:
            sums = [0] * spec.order
            for key, coef in c.items():
                e = table.get(key)
                if e is None:
                    raise CharacterError(
                        f"character generators do not reach [{key}]")
                sums[e] += coef
            out.append(ring.coerce(Poly(ZZ, "x", sums)))
        return Poly(ring, "u", out)

    def as_dict(self) -> dict:
        fq = self.pi.ring
        places = [poly_to_str(v) for v in self.s_finite] + ["inf"]
        return {
            "q": fq.q,
            "pi": poly_to_str(self.pi),
            "level": self.level,
            "S": places,
            "T": [poly_to_str(v) for v in self.t_aux],
            "coeffs": [
                {"u": n,
                 "terms": [{"rep": poly_to_str(key), "c": coef}
                           for key, coef in c.items()]}
                for n, c in enumerate(self.coeffs)
            ],
        }

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ThetaPoly) and other.ring == self.ring
                and other.coeffs == self.coeffs)

    def __hash__(self) -> int:
        return hash((self.ring, tuple(self.coeffs)))

    def __repr__(self) -> str:
        inner = " + ".join(f"({c!r})*u^{n}" for n, c in enumerate(self.coeffs))
        return inner or "0"


def stickelberger_series(pi: Poly, level: int, s_extra=(), t_aux=(),
                         udeg: int = 12) -> ThetaPoly:
    """The modified Stickelberger element at level pi^level as a ThetaPoly.

    S consists of pi, the infinite place, and any extra finite places; the
    raw series sums [a mod pi^level] u^{deg a} over monic a prime to the
    finite part of S.  Multiplying by (1 - [v] q^{deg v} u^{deg v}) for each
    auxiliary place v in t_aux turns the series into a polynomial.  Each
    factor is one pass: the translation k -> key(v k) is built once per place
    as a permutation of the keys of G, and the coefficients are rewritten
    from u^udeg down, c_n - q^{deg v} (c_{n - deg v} translated), so that
    c_{n - deg v} is still the unmodified one when c_n reads it.  The last
    B = level deg(pi) + sum deg(v) + 2 coefficients through degree udeg must
    come out zero; anything else raises TailError (the bound udeg is too
    small to certify termination, or the input does not terminate).

    An empty t_aux raises ValueError: the raw coefficient of u^n is then the
    positive count of stickelberger_coefficient on every class for all
    n >= deg M, so no bound can certify termination.
    """
    fq = pi.ring
    if not is_monic_prime(pi):
        raise ValueError("pi must be monic irreducible")
    if level < 1:
        raise ValueError("need level >= 1")
    s_finite = [pi] + [v for v in _distinct_places(s_extra, "S") if v != pi]
    t_list = _distinct_places(t_aux, "T")
    if not t_list:
        raise ValueError(
            "T must contain an auxiliary place: without one the coefficient "
            "of u^n is a positive count for every large n, so the series "
            "never terminates")
    if any(v in s_finite for v in t_list):
        raise ValueError("S and T must be disjoint")
    s_finite.sort(key=lambda v: v.sort_key())
    t_list.sort(key=lambda v: v.sort_key())

    tail = level * pi.degree + sum(v.degree for v in t_list) + 2
    if udeg < tail:
        raise TailError(
            f"degree bound {udeg} is below the tail window {tail}; raise it")

    ring = GroupRing.get(pi, level)
    coeffs = _raw_coefficients(ring, s_finite, range(udeg + 1))

    for v in t_list:
        d, qd = v.degree, fq.q ** v.degree
        perm = ring.translation(v)
        for n in range(udeg, d - 1, -1):
            out = dict(coeffs[n].coeffs)
            for k, c in coeffs[n - d].coeffs.items():
                k = perm[k]
                out[k] = out.get(k, 0) - qd * c
            coeffs[n] = GroupRingElem(ring, out)

    for n in range(udeg - tail + 1, udeg + 1):
        if not coeffs[n].is_zero():
            raise TailError(
                f"coefficient of u^{n} is nonzero inside the tail window; "
                f"the series does not terminate by degree {udeg}")
    return ThetaPoly(ring, s_finite, t_list, coeffs)


# -- irregularity scan --------------------------------------------------------

class OkadaReport(namedtuple("OkadaReport",
                             "q pi kmax irregular denominator_hits")):
    """The scan at a prime pi (a Poly) up to kmax; irregular and
    denominator_hits are tuples of indices k."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "q": self.q,
            "pi": poly_to_str(self.pi),
            "kmax": self.kmax,
            "irregular": list(self.irregular),
            "denominator_hits": list(self.denominator_hits),
        }


def okada_report(pi: Poly) -> OkadaReport:
    """Scan k in [1, q^{deg pi} - 2] with (q-1) | k for Bernoulli-Carlitz
    numerators divisible by pi (the irregular indices).  Indices where pi
    divides the denominator are reported separately rather than counted."""
    fq = pi.ring
    if not is_monic_prime(pi):
        raise ValueError("pi must be monic irreducible")
    kmax = fq.q ** pi.degree - 2
    irregular = []
    den_hits = []
    for bc in bernoulli_carlitz_table(kmax, fq)[1:]:
        k = bc.n
        if k % (fq.q - 1) != 0:
            continue
        if bc.value.is_zero():
            irregular.append(k)
            continue
        if bc.value.den.valuation(pi) > 0:
            den_hits.append(k)
        elif bc.value.num.valuation(pi) > 0:
            irregular.append(k)
    return OkadaReport(fq.q, pi, kmax, tuple(irregular), tuple(den_hits))
