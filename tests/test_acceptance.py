"""End-to-end acceptance runs, one test per criterion.

Each test prints a single "criterion NN <name>: PASS/FAIL" line on the real
terminal (bypassing capture) so a log of the run reads as a checklist.
"""

import contextlib
import io
import json
import random
import subprocess
import sys

import pytest

from carlitz.cli import main as cli_main
from carlitz.cmod import (
    bernoulli_carlitz, carlitz_exp, carlitz_factorial, omega_minpoly,
)
from carlitz.coleman import (
    ColemanSeries, coleman_norm, cyclotomic_unit_series, eval_at_omega,
    phi_poly, star_action, x_field,
)
from carlitz.cw import coates_wiles, cw_verify, ht_derivative
from carlitz.cyclo import (
    CycloField, field_norm, galois_act, upsilon, valuation_at_p,
)
from carlitz.fq import Fq, FqElem
from carlitz.lfun import stickelberger_coefficient, stickelberger_series, \
    zeta_neg, zeta_v_adic_neg
from carlitz.groupring import CharSpec, GroupRing
from carlitz.poly import Poly, is_irreducible, monic_enumerate, poly_parse
from carlitz.ratfun import base_field
from carlitz.series import TruncSeries


@pytest.fixture
def announce(capsys):
    @contextlib.contextmanager
    def ctx(num, name):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"criterion {num:02d} {name}: FAIL")
            raise
        with capsys.disabled():
            print(f"criterion {num:02d} {name}: PASS")
    return ctx


def nonzero_polys(fq, maxdeg):
    out = []
    for d in range(maxdeg + 1):
        for a in monic_enumerate(fq, d):
            for c in fq.elements():
                if c:
                    out.append(a.mul_scalar(c))
    return out


_Q3_REPORTS = {}


def q3_reports():
    if not _Q3_REPORTS:
        f3 = Fq.get(3)
        elems = nonzero_polys(f3, 1)
        for a in elems:
            for b in elems:
                if a != b:
                    _Q3_REPORTS[(a, b)] = cw_verify(a, b, 12)
    return _Q3_REPORTS


def test_criterion_01_main_identity_grid(announce):
    with announce(1, "delta_k(c(a,b)) = (a^k-b^k) BC_k/Pi(k)"):
        f2 = Fq.get(2)
        pairs2 = 0
        elems = nonzero_polys(f2, 2)
        assert len(elems) == 7
        for a in elems:
            for b in elems:
                if a == b:
                    continue
                rep = cw_verify(a, b, 8)
                assert rep.passed, (str(a), str(b))
                pairs2 += 1
        assert pairs2 == 42

        reports = q3_reports()
        assert len(reports) == 56
        for (a, b), rep in reports.items():
            assert rep.passed, (str(a), str(b))

        spot = cw_verify(poly_parse("T", f2), poly_parse("1", f2), 8)
        assert str(spot.rows[0].lhs) == "1/T"


def test_criterion_02_odd_vanishing_q3(announce):
    with announce(2, "odd-index vanishing at q=3"):
        checked = 0
        for rep in q3_reports().values():
            for row in rep.rows:
                if row.k % 2 == 1:
                    assert row.lhs.is_zero(), (str(rep.a), str(rep.b), row.k)
                    checked += 1
        assert checked == 56 * 6


def test_criterion_03_norm_fixed_points_and_multiplicativity(announce):
    with announce(3, "Coleman norm: phi_a fixed points, multiplicativity"):
        f2 = Fq.get(2)
        fixed = 0
        for pitxt in ("T", "T^2+T+1"):
            pi = poly_parse(pitxt, f2)
            for atxt in ("T", "T+1", "T^2", "T^2+T+1"):
                a = poly_parse(atxt, f2)
                if (a % pi).is_zero():
                    continue
                f = ColemanSeries(phi_poly(a), pi)
                assert coleman_norm(f) == f, (pitxt, atxt)
                fixed += 1
        assert fixed == 5

        rng = random.Random(1009)
        pi = poly_parse("T", f2)
        xf = x_field(f2)
        Fb = xf.cring

        def rand_ratio():
            def poly():
                cs = [Fb.coerce(rng.randrange(2)) for _ in range(4)]
                cs[0] = Fb.one
                if cs[3].is_zero():
                    cs[3] = Fb.one
                return Poly(Fb, "x", cs)
            return ColemanSeries(xf.from_pair(poly(), poly()), pi)

        for _ in range(10):
            f, g = rand_ratio(), rand_ratio()
            assert coleman_norm(f * g) == coleman_norm(f) * coleman_norm(g)


def test_criterion_04_norm_compatible_with_torsion_evaluation(announce):
    with announce(4, "(N f)(omega_1) = N_{F_2/F_1} f(omega_2)"):
        rng = random.Random(2003)
        f2 = Fq.get(2)
        pi = poly_parse("T", f2)
        Fb = x_field(f2).cring
        field2 = CycloField.get(pi, 2)
        # both sides norm through cyclo._norm_poly; the oracle is the
        # product of the conjugates of f(omega_2) over F_1, sigma_a with
        # a = 1 + T b, and omega_1 = phi_T(omega_2) embeds the left side
        omega1 = phi_poly(pi).eval(field2.omega, field2)
        conj = [poly_parse(a, f2) for a in ("1", "T+1")]
        for _ in range(10):
            cs = [Fb.coerce(rng.randrange(2)) for _ in range(5)]
            if all(c.is_zero() for c in cs):
                cs[0] = Fb.one
            f = ColemanSeries(Poly(Fb, "x", cs), pi)
            e = eval_at_omega(f, 2)
            lhs = field_norm(e, 1)
            rhs = eval_at_omega(coleman_norm(f), 1)
            assert lhs == rhs
            assert lhs.rep.eval(omega1, field2) == \
                galois_act(conj[0], e) * galois_act(conj[1], e)


def test_criterion_05_eisenstein_and_tower_norm(announce):
    with announce(5, "torsion minpolys Eisenstein; N(omega_2) = omega_1"):
        for q in (2, 3):
            fq = Fq.get(q)
            for d in (1, 2):
                for pi in monic_enumerate(fq, d):
                    if not is_irreducible(pi):
                        continue
                    for n in (1, 2):
                        m = omega_minpoly(pi, n)
                        assert m.is_monic()
                        assert m.degree == q ** ((n - 1) * d) * (q ** d - 1)
                        assert m.constant == pi
                        for c in m.coeffs[:-1]:
                            assert (c % pi).is_zero()
            pi = poly_parse("T", fq)
            w2 = CycloField.get(pi, 2).omega
            assert field_norm(w2, 1) == CycloField.get(pi, 1).omega


def test_criterion_06_unit_valuation_grid(announce):
    with announce(6, "val(Upsilon(c)) = sum(c) on the full |c| <= 2 grid"):
        f2 = Fq.get(2)
        pi = poly_parse("T^2+T+1", f2)
        field = CycloField.get(pi, 1)
        reps = field.galois_reps()
        assert len(reps) == 3
        grids = 0
        for c0 in range(-2, 3):
            for c1 in range(-2, 3):
                for c2 in range(-2, 3):
                    exps = dict(zip(reps, (c0, c1, c2)))
                    val = valuation_at_p(upsilon(field, exps))
                    assert val == c0 + c1 + c2, exps
                    grids += 1
        assert grids == 125


def test_criterion_07_stickelberger_worked_example(announce):
    with announce(7, "Stickelberger element at q=2, pi=T^2+T+1"):
        f2 = Fq.get(2)
        pi = poly_parse("T^2+T+1", f2)
        t = poly_parse("T", f2)
        t1 = poly_parse("T+1", f2)
        theta = stickelberger_series(pi, 1, t_aux=(t,), udeg=12)
        G = theta.ring
        g, g2 = G.element(t), G.element(t1)

        full = G.one() + g + g2
        assert stickelberger_coefficient(pi, 1, [pi], 0) == G.one()
        assert stickelberger_coefficient(pi, 1, [pi], 1) == g + g2
        for n in range(2, 7):
            assert stickelberger_coefficient(pi, 1, [pi], n) == \
                full.scale(2 ** (n - 2))

        assert theta.degree == 2
        assert theta.coefficient(0) == G.one()
        assert theta.coefficient(1) == g2 - g
        assert theta.coefficient(2) == g - g2 - G.one()
        for n in range(3, 13):
            assert theta.coefficient(n).is_zero()
        assert theta.at_one().is_zero()

        R = CharSpec(3, {}).values()
        w, two = R.gen(), R.coerce(2)
        triv = theta.eval_char(CharSpec(3, {t: 0}))
        assert [triv.coeff(i) for i in range(3)] == [R.one, R.zero, -R.one]
        cubic = theta.eval_char(CharSpec(3, {t: 1}))
        assert [cubic.coeff(i) for i in range(3)] == \
            [R.one, -(R.one + two * w), two * w]


def test_criterion_08_projection_consistency(announce):
    with announce(8, "level 2 -> 1 projection matches the native element"):
        f2 = Fq.get(2)
        pi = poly_parse("T^2+T+1", f2)
        t = poly_parse("T", f2)
        deep = stickelberger_series(pi, 2, t_aux=(t,), udeg=12)
        flat = stickelberger_series(pi, 1, t_aux=(t,), udeg=12)
        assert deep.project(1) == flat


def test_criterion_09_zeta_special_values(announce):
    with announce(9, "zeta at negative integers: zeros, -1, Euler factors"):
        for q in (2, 3, 4):
            fq = Fq.get(q)
            for k in range(1, 13):
                if k % (q - 1) == 0:
                    assert zeta_neg(k, fq).is_zero(), (q, k)
        f3 = Fq.get(3)
        assert zeta_neg(1, f3) == Poly(f3, "T", [f3.one])

        rng = random.Random(3511)
        pairs = 0
        while pairs < 20:
            q = rng.choice((2, 3))
            fq = Fq.get(q)
            d = rng.choice((1, 2))
            pis = [p for p in monic_enumerate(fq, d) if is_irreducible(p)]
            pi = rng.choice(pis)
            k = rng.randrange(1, 6)
            one = Poly(fq, "T", [fq.one])
            assert zeta_v_adic_neg(k, pi) == (one - pi ** k) * zeta_neg(k, fq)
            pairs += 1


def test_criterion_10_bernoulli_from_exp_reciprocal(announce):
    with announce(10, "BC_k = Pi(k) [z^(k-1)] 1/e_C across k = n(q-1)"):
        for q in (2, 3):
            fq = Fq.get(q)
            F = base_field(fq)
            for n in range(1, 7):
                k = n * (q - 1)
                recip = carlitz_exp(fq, k + 2).invert()
                bc = bernoulli_carlitz(k, fq)
                assert bc.factorial == carlitz_factorial(k, fq)
                assert recip.coefficient(k - 1) == \
                    bc.value / F.coerce(bc.factorial), (q, k)


def test_criterion_11_divided_derivatives_and_equivariance(announce):
    with announce(11, "divided-derivative reconstruction and equivariance"):
        rng = random.Random(4099)
        f2 = Fq.get(2)
        for _ in range(100):
            coeffs = [FqElem(f2, rng.randrange(2)) for _ in range(10)]
            f = TruncSeries(f2, "x", 0, coeffs, 10)
            rebuilt = TruncSeries(f2, "x", 0, [], 10)
            for j in range(10):
                c = ht_derivative(j, f).coefficient(0)
                rebuilt = rebuilt + TruncSeries.monomial(f2, "x", c, j, 10)
            assert rebuilt.agrees_with(f)

        F = base_field(f2)
        u = cyclotomic_unit_series(poly_parse("T", f2), poly_parse("1", f2))
        for atxt in ("T", "T+1"):
            a = poly_parse(atxt, f2)
            for k in range(1, 7):
                lhs = coates_wiles(k, star_action(a, u))
                assert lhs == F.coerce(a) ** k * coates_wiles(k, u), (atxt, k)


CLI_INVOCATIONS = [
    ["phi", "--q", "2", "--a", "T^2+T"],
    ["torsion", "--q", "2", "--pi", "T", "--n", "2"],
    ["minpoly", "--q", "3", "--pi", "T", "--n", "2"],
    ["exp", "--q", "2", "--prec", "9"],
    ["log", "--q", "3", "--prec", "9"],
    ["factorial", "--q", "2", "--n", "5"],
    ["bc", "--q", "3", "--n", "6"],
    ["zetaneg", "--q", "3", "--k", "6"],
    ["zetapos", "--q", "2", "--k", "2", "--dmax", "2", "--prec", "6"],
    ["zetavadic", "--q", "3", "--pi", "T", "--k", "3"],
    ["stickelberger", "--q", "2", "--pi", "T^2+T+1", "--level", "1",
     "--S", "inf", "--T", "T", "--udeg", "12"],
    ["project", "--q", "2", "--pi", "T^2+T+1", "--level", "2", "--m", "1",
     "--S", "inf", "--T", "T", "--udeg", "12"],
    ["charval", "--q", "2", "--pi", "T^2+T+1", "--level", "1", "--S", "inf",
     "--T", "T", "--order", "3", "--gen", "T=1"],
    ["colemancheck", "--q", "2"],
    ["cwverify", "--q", "2", "--a", "T", "--b", "1", "--kmax", "8"],
    ["okada", "--q", "2", "--pi", "T^3+T+1"],
    ["selftest", "--q", "2"],
]


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(argv)
    return rc, out.getvalue()


def test_criterion_12_cli_determinism(announce):
    with announce(12, "CLI output is reproducible for every subcommand"):
        subcommands = {argv[0] for argv in CLI_INVOCATIONS}
        assert len(subcommands) == 17
        for argv in CLI_INVOCATIONS:
            rc1, out1 = run_cli(argv)
            rc2, out2 = run_cli(argv)
            assert rc1 == rc2 == 0, argv
            assert out1 == out2, argv

        for argv in CLI_INVOCATIONS:
            if argv[0] not in ("cwverify", "stickelberger", "okada"):
                continue
            proc = subprocess.run([sys.executable, "-m", "carlitz"] + argv,
                                  capture_output=True, text=True)
            _, expect = run_cli(argv)
            assert proc.returncode == 0, argv
            assert proc.stdout == expect, argv
            doc = json.loads(proc.stdout)
            assert doc  # well-formed JSON payload
