"""The Carlitz module and its analytic series.

phi: A -> A{tau} is the F_q-algebra map with phi_T = T + tau, where tau is
the q-power Frobenius (tau x = x^q).  phi_a is an additive polynomial whose
linear coefficient is a itself; its roots for a = pi^n are the pi^n-torsion
of the module, and the quotients phi_{pi^n}/phi_{pi^(n-1)} are the minimal
polynomials of the torsion generators omega_n (Eisenstein at pi, constant
term exactly pi).

The Carlitz exponential and logarithm are built from their closed forms
e(z) = sum z^(q^i)/D_i and log z = sum (-1)^i z^(q^i)/L_i, with D_0 = L_0 = 1,
D_i = [i] D_{i-1}^q, L_i = [i] L_{i-1} and [i] = T^(q^i) - T, and each is
certified once by the equation that defines it: e(z) = z + O(z^2) with
phi_T(e(z)) = e(Tz), and e(log z) = z.
The Carlitz factorial Pi(n) is the base-q digit product of the D_i, and
BC_n = Pi(n) * [z^(n-1)] (1/e(z)) are the Bernoulli-Carlitz numbers.  Every
BC value reads one cached 1/e(z) per q, kept at the highest precision asked
for so far and truncated on reads; inverting a truncation of e gives the
truncation of 1/e, so the cache changes no coefficient.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvariantError
from .fq import Fq
from .poly import Poly, PolyRing, _poly_quo, is_monic_prime
from .ratfun import RatFun, base_field
from .series import TruncSeries

__all__ = [
    "SkewPoly",
    "carlitz_phi",
    "torsion_poly",
    "omega_minpoly",
    "bracket",
    "d_sequence",
    "l_sequence",
    "carlitz_exp",
    "carlitz_log",
    "carlitz_factorial",
    "BCValue",
    "bernoulli_carlitz",
    "bernoulli_carlitz_table",
]


class SkewPoly:
    """Twisted polynomial sum c_i tau^i with c_i in F_q[T]; tau c = c^q tau."""

    __slots__ = ("fq", "coeffs")

    def __init__(self, fq: Fq, coeffs) -> None:
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.fq = fq
        self.coeffs = tuple(cs)

    @staticmethod
    def const(fq: Fq, a: Poly) -> "SkewPoly":
        return SkewPoly(fq, [a])

    @property
    def tau_degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Poly:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Poly(self.fq, "T", [])

    def __add__(self, other: "SkewPoly") -> "SkewPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return SkewPoly(self.fq, out)

    def __sub__(self, other: "SkewPoly") -> "SkewPoly":
        return self + SkewPoly(other.fq, [-c for c in other.coeffs])

    def __mul__(self, other: "SkewPoly") -> "SkewPoly":
        """Composition product: tau^i c = c^(q^i) tau^i."""
        if not self.coeffs or not other.coeffs:
            return SkewPoly(self.fq, [])
        q = self.fq.q
        zero = Poly(self.fq, "T", [])
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci.is_zero():
                continue
            for j, cj in enumerate(other.coeffs):
                if cj.is_zero():
                    continue
                out[i + j] = out[i + j] + ci * cj.frobenius_twist(i, q)
        return SkewPoly(self.fq, out)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SkewPoly) and other.fq == self.fq
                and other.coeffs == self.coeffs)

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def as_additive(self, coeff_parent=None, var: str = "x") -> Poly:
        """The additive polynomial sum c_i X^(q^i), default over F_q[T]."""
        parent = coeff_parent if coeff_parent is not None else PolyRing(self.fq, "T")
        q = self.fq.q
        if not self.coeffs:
            return Poly(parent, var, [])
        out = [parent.zero] * (q ** self.tau_degree + 1)
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                out[q ** i] = parent.coerce(c)
        return Poly(parent, var, out)

    def eval(self, point, ring):
        """sum c_i * point^(q^i) in any parent that can absorb F_q[T]."""
        q = self.fq.q
        acc = ring.zero
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                acc = acc + ring.coerce(c) * point ** (q ** i)
        return acc

    def __repr__(self) -> str:
        terms = [f"({c!r})*tau^{i}" for i, c in enumerate(self.coeffs)
                 if not c.is_zero()]
        return " + ".join(terms) if terms else "0"


def carlitz_phi(a: Poly) -> SkewPoly:
    """phi_a, by Horner in the twisted polynomial ring from phi_T = T + tau."""
    fq = a.ring
    if not isinstance(fq, Fq):
        raise TypeError("phi expects a polynomial over F_q")
    one = Poly(fq, a.var, [fq.one])
    tvar = Poly.gen(fq, a.var)
    phi_t = SkewPoly(fq, [tvar, one])
    acc = SkewPoly(fq, [])
    for c in reversed(a.coeffs):
        acc = acc * phi_t + SkewPoly.const(fq, Poly(fq, a.var, [c]))
    return acc


def torsion_poly(pi: Poly, n: int) -> Poly:
    """phi_{pi^n}(x) over F_q[T]; its roots are the pi^n-torsion points."""
    _require_prime(pi)
    if n < 1:
        raise ValueError("level must be >= 1")
    return carlitz_phi(pi ** n).as_additive()


def omega_minpoly(pi: Poly, n: int) -> Poly:
    """Minimal polynomial of a generator of the pi^n-torsion:
    phi_{pi^n}/phi_{pi^(n-1)} (phi_pi(x)/x for n = 1).  Monic, Eisenstein at
    pi, constant term exactly pi; checked before returning."""
    _require_prime(pi)
    if n < 1:
        raise ValueError("level must be >= 1")
    tn = torsion_poly(pi, n)
    if n == 1:
        m = Poly(tn.ring, tn.var, tn.coeffs[1:])
    else:
        m = _poly_quo(tn, torsion_poly(pi, n - 1))
    if not m.is_monic():
        raise InvariantError("torsion quotient failed to be monic")
    const = m.constant
    if const != pi:
        raise InvariantError(f"constant term {const!r} != {pi!r}")
    for i in range(m.degree):
        if not (m.coeff(i) % pi).is_zero():
            raise InvariantError(f"coefficient {i} not divisible by {pi!r}")
    return m


def _require_prime(pi: Poly) -> None:
    if not is_monic_prime(pi):
        raise ValueError(f"{pi!r} must be monic irreducible")


# -- bracket / factorial sequences --------------------------------------------

def bracket(fq: Fq, i: int) -> Poly:
    """[i] = T^(q^i) - T."""
    if i < 1:
        raise ValueError("bracket index must be >= 1")
    q = fq.q
    coeffs = [fq.zero] * (q ** i + 1)
    coeffs[1] = -fq.one
    coeffs[q ** i] = fq.one
    return Poly(fq, "T", coeffs)


def d_sequence(fq: Fq, count: int) -> list[Poly]:
    """D_0, ..., D_{count-1} with D_i = [i] * D_{i-1}^q."""
    out = [Poly(fq, "T", [fq.one])]
    for i in range(1, count):
        out.append(bracket(fq, i) * out[-1].frobenius_twist(1, fq.q))
    return out


def l_sequence(fq: Fq, count: int) -> list[Poly]:
    """L_0, ..., L_{count-1} with L_i = [i] * L_{i-1}."""
    out = [Poly(fq, "T", [fq.one])]
    for i in range(1, count):
        out.append(bracket(fq, i) * out[-1])
    return out


# -- exponential / logarithm ---------------------------------------------------

_EXP_CACHE: dict[int, TruncSeries] = {}
_RECIP_CACHE: dict[int, TruncSeries] = {}


def _qpower_series(fq: Fq, prec: int, denominators, alternate: bool) -> TruncSeries:
    """sum_{q^i < prec} s_i z^(q^i) / den_i to O(z^prec), where den_0, den_1,
    ... = denominators(fq, count) and s_i = (-1)^i if alternate else 1."""
    F = base_field(fq)
    q = fq.q
    count = 1
    while q ** count < prec:
        count += 1
    coeffs: list[RatFun] = [F.zero] * prec
    for i, den in enumerate(denominators(fq, count)):
        c = F.one / F.coerce(den)
        coeffs[q ** i] = -c if alternate and i % 2 else c
    return TruncSeries(F, "z", 0, coeffs, prec)


def carlitz_exp(fq: Fq, prec: int) -> TruncSeries:
    """e(z) = sum_{q^i < prec} z^(q^i)/D_i to O(z^prec), checked to be the
    solution of phi_T(e(z)) = e(Tz) with e(z) = z + O(z^2)."""
    if prec < 2:
        raise ValueError("precision must be >= 2")
    cached = _EXP_CACHE.get(fq.q)
    if cached is not None and cached.prec >= prec:
        return cached.truncate(prec)
    e = _qpower_series(fq, prec, d_sequence, alternate=False)
    t = e.ring.gen()
    if not (e.mul_scalar(t) + e ** fq.q).agrees_with(e.scale_argument(t)):
        raise InvariantError("e(z) fails phi_T(e(z)) = e(Tz) within precision")
    # the equation fixes e only up to a scalar in F_q^*
    if e.coefficient(1) != e.ring.one:
        raise InvariantError("e(z) is not z + O(z^2)")
    _EXP_CACHE[fq.q] = e
    return e


def _exp_reciprocal(fq: Fq, prec: int) -> TruncSeries:
    """carlitz_exp(fq, prec).invert(), i.e. 1/e(z) to O(z^(prec-2)), cut
    from the longest reciprocal computed so far for q."""
    recip = _RECIP_CACHE.get(fq.q)
    if recip is None or recip.prec < prec - 2:
        recip = carlitz_exp(fq, prec).invert()
        _RECIP_CACHE[fq.q] = recip
    return recip.truncate(prec - 2)


def carlitz_log(fq: Fq, prec: int) -> TruncSeries:
    """log z = sum_{q^i < prec} (-1)^i z^(q^i)/L_i to O(z^prec), checked to
    be the series reverse of the exponential: e(log z) = z + O(z^prec)."""
    if prec < 2:
        raise ValueError("precision must be >= 2")
    lam = _qpower_series(fq, prec, l_sequence, alternate=True)
    z = TruncSeries.monomial(lam.ring, "z", lam.ring.one, 1)
    if not carlitz_exp(fq, prec).compose(lam).agrees_with(z):
        raise InvariantError("e(log z) != z within precision")
    return lam


# -- factorial and Bernoulli numbers -------------------------------------------

def carlitz_factorial(n: int, fq: Fq) -> Poly:
    """Pi(n) = prod D_i^(n_i) over the base-q digits n_i of n."""
    if n < 0:
        raise ValueError("factorial index must be >= 0")
    q = fq.q
    digits = []
    w = n
    while w:
        digits.append(w % q)
        w //= q
    ds = d_sequence(fq, len(digits) or 1)
    out = Poly(fq, "T", [fq.one])
    for i, ni in enumerate(digits):
        if ni:
            out = out * ds[i] ** ni
    return out


class BCValue(namedtuple("BCValue", "n value factorial")):
    """A Bernoulli-Carlitz number: value = BC_n in F_q(T), together with
    factorial = Pi(n) in F_q[T]."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"BC_{self.n} = {self.value}"


def bernoulli_carlitz(n: int, fq: Fq) -> BCValue:
    """BC_n = Pi(n) * [z^(n-1)] (1/e(z)); BC_0 = 1, and BC_n = 0 whenever
    q - 1 does not divide n > 0."""
    if n < 0:
        raise ValueError("index must be >= 0")
    return _bc_value(n, _exp_reciprocal(fq, n + 2), carlitz_factorial(n, fq),
                     fq)


def bernoulli_carlitz_table(nmax: int, fq: Fq) -> list[BCValue]:
    """[BC_0, ..., BC_nmax] read off one reciprocal 1/e(z)."""
    if nmax < 0:
        raise ValueError("index must be >= 0")
    recip = _exp_reciprocal(fq, nmax + 2)
    return [_bc_value(n, recip, fact, fq)
            for n, fact in enumerate(_factorial_table(nmax, fq))]


def _factorial_table(nmax: int, fq: Fq) -> list[Poly]:
    """[Pi(0), ..., Pi(nmax)] from one D-sequence: Pi(n) = Pi(n - q^k) D_k,
    q^k the place of the lowest nonzero base-q digit of n."""
    q, count = fq.q, 1
    while q ** count <= nmax:
        count += 1
    ds = d_sequence(fq, count)
    out = [Poly(fq, "T", [fq.one])]
    for n in range(1, nmax + 1):
        k, w = 0, n
        while not w % q:
            k, w = k + 1, w // q
        out.append(out[n - q ** k] * ds[k])
    return out


def _bc_value(n: int, recip: TruncSeries, fact: Poly, fq: Fq) -> BCValue:
    value = _bc_over_factorial(n, recip, fq) * recip.ring.coerce(fact)
    return BCValue(n, value, fact)


def _bc_over_factorial(n: int, recip: TruncSeries, fq: Fq) -> RatFun:
    """BC_n/Pi(n) = [z^(n-1)] of recip = 1/e(z), checked 0 unless (q-1) | n."""
    c = recip.coefficient(n - 1)
    if n % (fq.q - 1) != 0 and not c.is_zero():
        raise InvariantError(f"BC_{n} should vanish for q={fq.q}")
    return c
