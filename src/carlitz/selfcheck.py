"""Property suites behind the selftest and colemancheck subcommands.

Each suite returns (name, ok, detail) rows at a scale well below the full
verification tables, with fixed seeds so reruns are byte-identical.
"""

from __future__ import annotations

import random

from .cmod import (
    _require_prime, bernoulli_carlitz_table, carlitz_exp, carlitz_log,
    carlitz_phi, omega_minpoly,
)
from .coleman import (
    ColemanSeries, coleman_norm, cyclotomic_unit_series, eval_at_omega,
    phi_poly, star_action,
)
from .cw import cw_verify, coates_wiles, ht_derivative
from .cyclo import CycloField, field_norm, upsilon, valuation_at_p
from .errors import InvariantError
from .fq import Fq, FqElem
from .lfun import (
    power_sum, power_sum_enum, stickelberger_series, zeta_neg, zeta_v_adic_neg,
    zeta_v_adic_neg_enum,
)
from .poly import Poly, is_irreducible, monic_enumerate, poly_parse, poly_to_str
from .ratfun import base_field
from .series import TruncSeries

Row = tuple[str, bool, str]


def _rand_elem(rng: random.Random, fq: Fq) -> FqElem:
    return fq.from_index(rng.randrange(fq.q))


def _rand_poly(rng: random.Random, fq: Fq, deg: int, var: str = "T",
               nonzero_const: bool = False) -> Poly:
    coeffs = [_rand_elem(rng, fq) for _ in range(deg + 1)]
    if nonzero_const:
        coeffs[0] = fq.from_index(rng.randrange(1, fq.q))
    return Poly(fq, var, coeffs)


def _first_irreducible(fq: Fq, d: int) -> Poly:
    for p in monic_enumerate(fq, d):
        if is_irreducible(p):
            return p
    raise InvariantError("no irreducible of requested degree")


def suite_basealg() -> list[Row]:
    rows: list[Row] = []
    rng = random.Random(101)
    ok = True
    for _ in range(25):
        fq = Fq.get(rng.choice([2, 3, 4]))
        p = _rand_poly(rng, fq, rng.randrange(6))
        ok = ok and poly_parse(poly_to_str(p), fq) == p if fq.m == 1 else ok
    rows.append(("poly text round-trip", ok, "25 random polynomials"))

    ok = True
    for _ in range(15):
        fq = Fq.get(rng.choice([2, 3]))
        a = _rand_poly(rng, fq, rng.randrange(1, 5))
        b = _rand_poly(rng, fq, rng.randrange(1, 5))
        if a.is_zero() or b.is_zero():
            continue
        g, u, v = a.egcd(b)
        ok = ok and u * a + v * b == g
    rows.append(("egcd Bezout identity", ok, "15 random pairs"))

    ok = True
    for _ in range(10):
        fq = Fq.get(rng.choice([2, 3]))
        coeffs = [_rand_elem(rng, fq) for _ in range(6)]
        coeffs[0] = fq.from_index(rng.randrange(1, fq.q))
        s = TruncSeries(fq, "z", 0, coeffs, 8)
        ok = ok and (s * s.invert()).agrees_with(TruncSeries.one(fq, "z", 8))
    rows.append(("series inversion", ok, "10 random units"))
    return rows


def suite_carlitz() -> list[Row]:
    rows: list[Row] = []
    rng = random.Random(202)
    ok = True
    for _ in range(10):
        fq = Fq.get(rng.choice([2, 3]))
        a = _rand_poly(rng, fq, rng.randrange(3))
        b = _rand_poly(rng, fq, rng.randrange(3))
        ok = ok and carlitz_phi(a + b) == carlitz_phi(a) + carlitz_phi(b)
        ok = ok and carlitz_phi(a * b) == carlitz_phi(a) * carlitz_phi(b)
    rows.append(("phi is a ring homomorphism", ok, "10 random pairs"))

    ok = True
    for q in (2, 3):
        fq = Fq.get(q)
        e = carlitz_exp(fq, 10)
        lam = carlitz_log(fq, 10)
        z = TruncSeries.monomial(e.ring, "z", 1, 1, 10)
        ok = ok and e.compose(lam).agrees_with(z)
        ok = ok and lam.compose(e).agrees_with(z)
    rows.append(("exp/log inversion", ok, "q in {2,3}, prec 10"))

    ok = True
    for q in (2, 3):
        fq = Fq.get(q)
        table = bernoulli_carlitz_table(7, fq)
        for bc in table[1:]:
            if bc.n % (q - 1) != 0:
                ok = ok and bc.value.is_zero()
        ok = ok and table[0].value == base_field(fq).one
    rows.append(("Bernoulli-Carlitz vanishing pattern", ok, "n < 8"))
    return rows


def suite_cyclo() -> list[Row]:
    rows: list[Row] = []
    ok = True
    for q in (2, 3):
        fq = Fq.get(q)
        for d in (1, 2):
            pi = _first_irreducible(fq, d)
            for n in (1, 2):
                m = omega_minpoly(pi, n)
                ok = ok and m.is_monic() and m.constant == pi
                ok = ok and all((c % pi).is_zero() for c in m.coeffs[:-1])
    rows.append(("minpoly Eisenstein at pi", ok, "q in {2,3}, d,n <= 2"))

    fq = Fq.get(2)
    pi = poly_parse("T", fq)
    f2 = CycloField.get(pi, 2)
    ok = field_norm(f2.omega, 1) == CycloField.get(pi, 1).omega
    rows.append(("tower norm sends omega_2 to omega_1", ok, "q=2, pi=T"))

    pi3 = poly_parse("T^2+T+1", fq)
    f1 = CycloField.get(pi3, 1)
    reps = f1.galois_reps()
    ok = True
    for c0 in (-1, 0, 1):
        for c1 in (-1, 0, 1):
            for c2 in (-1, 0, 1):
                exps = dict(zip(reps, (c0, c1, c2)))
                ok = ok and valuation_at_p(upsilon(f1, exps)) == c0 + c1 + c2
    rows.append(("unit criterion on the order-3 group", ok, "|c| <= 1 grid"))
    return rows


def suite_coleman(fq: Fq | None = None, pis: list[Poly] | None = None,
                  trials: int = 10) -> list[Row]:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows: list[Row] = []
    fq = fq if fq is not None else Fq.get(2)
    if pis is None:
        pis = [_first_irreducible(fq, 1), _first_irreducible(fq, 2)]
    for pi in pis:
        _require_prime(pi)
    texts = ["T", "T+1", "T^2", "T^2+T+1"]
    cand = [poly_parse(t, fq) for t in texts]

    ok = True
    checked = 0
    for pi in pis:
        for a in cand:
            if (a % pi).is_zero():
                continue
            f = ColemanSeries(phi_poly(a), pi)
            ok = ok and coleman_norm(f).value == f.value
            checked += 1
    rows.append(("norm fixes phi_a for a prime to pi", ok, f"{checked} pairs"))

    rng = random.Random(303)
    ok = True
    for _ in range(trials):
        pi = rng.choice(pis)
        fs = []
        for _ in range(2):
            num = _rand_poly(rng, fq, rng.randrange(1, 4), var="x",
                             nonzero_const=True)
            den = _rand_poly(rng, fq, rng.randrange(1, 3), var="x",
                             nonzero_const=True)
            fs.append(ColemanSeries(num, pi) / ColemanSeries(den, pi))
        prod = coleman_norm(fs[0] * fs[1])
        ok = ok and prod.value == (coleman_norm(fs[0]) * coleman_norm(fs[1])).value
    rows.append(("norm is multiplicative", ok, f"{trials} random rational pairs"))

    piT = _first_irreducible(fq, 1)
    ok = True
    for _ in range(trials):
        f = ColemanSeries(_rand_poly(rng, fq, rng.randrange(1, 5), var="x",
                                     nonzero_const=True), piT)
        lhs = field_norm(eval_at_omega(f, 2), 1)
        rhs = eval_at_omega(coleman_norm(f), 1)
        ok = ok and lhs == rhs
    rows.append(("norm commutes with torsion evaluation", ok,
                 f"{trials} random polynomials, pi={poly_to_str(piT)}"))
    return rows


def suite_coates_wiles() -> list[Row]:
    rows: list[Row] = []
    fq = Fq.get(2)
    F = base_field(fq)
    T = poly_parse("T", fq)
    one = poly_parse("1", fq)
    rep = cw_verify(T, one, 4)
    ok = rep.passed and str(rep.rows[0].lhs) == "1/T"
    rows.append(("delta_k identity, q=2 pair (T,1), k <= 4", ok,
                 "spot value 1/T at k=1"))

    rng = random.Random(404)
    ok = True
    for _ in range(10):
        coeffs = [_rand_elem(rng, fq) for _ in range(8)]
        f = TruncSeries(fq, "x", 0, coeffs, 8)
        total = TruncSeries(fq, "x", 0, [], 8)
        for j in range(8):
            c = ht_derivative(j, f).coefficient(0)
            total = total + TruncSeries.monomial(fq, "x", c, j, 8)
        ok = ok and total.agrees_with(f)
    rows.append(("divided-derivative reconstruction", ok, "10 random series"))

    ok = True
    u = cyclotomic_unit_series(T, one)
    for k in (1, 2, 3):
        for atxt in ("T", "T+1"):
            a = poly_parse(atxt, fq)
            lhs = coates_wiles(k, star_action(a, u))
            rhs = F.coerce(a) ** k * coates_wiles(k, u)
            ok = ok and lhs == rhs
    rows.append(("Galois equivariance of delta_k", ok, "k <= 3, a in {T, T+1}"))
    return rows


def suite_lfun() -> list[Row]:
    rows: list[Row] = []
    ok = True
    for q in (2, 3):
        fq = Fq.get(q)
        for d in range(0, 3):
            for k in range(0, 7):
                ok = ok and power_sum(d, k, fq) == power_sum_enum(d, k, fq)
    rows.append(("power sums match enumeration", ok, "d <= 2, k <= 6"))

    ok = True
    for q in (2, 3):
        fq = Fq.get(q)
        for k in range(1, 7):
            if k % (q - 1) == 0:
                ok = ok and zeta_neg(k, fq).is_zero()
    rows.append(("trivial zeros of zeta at negative integers", ok,
                 "k <= 6, q in {2,3}"))

    fq = Fq.get(2)
    pi = poly_parse("T^2+T+1", fq)
    T = poly_parse("T", fq)
    theta = stickelberger_series(pi, 1, (), (T,), udeg=12)
    G = theta.ring
    g = G.element(T)
    ok = (theta.degree == 2 and theta.at_one().is_zero()
          and theta.coefficient(1) == g * g - g)
    rows.append(("Stickelberger element terminates and kills u=1", ok,
                 "q=2, pi=T^2+T+1, level 1"))

    ok = True
    for k in (1, 2, 3):
        ok = ok and zeta_v_adic_neg(k, pi) == zeta_v_adic_neg_enum(k, pi)
    rows.append(("v-adic zeta dual routes agree", ok, "k <= 3 at T^2+T+1"))
    return rows


SUITES = [
    ("basealg", suite_basealg),
    ("carlitz", suite_carlitz),
    ("cyclo", suite_cyclo),
    ("coleman", suite_coleman),
    ("coateswiles", suite_coates_wiles),
    ("lfun", suite_lfun),
]


def run_all() -> list[tuple[str, list[Row]]]:
    return [(name, fn()) for name, fn in SUITES]
