import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import carlitz
import carlitz.cli as climod
import carlitz.cmod as cmodmod
import carlitz.cw as cwmod
import carlitz.lfun as lfunmod
import carlitz.poly as polymod
import carlitz.selfcheck as selfcheckmod
from carlitz.cli import main
from carlitz.cmod import carlitz_factorial
from carlitz.cw import CWReport, CWRow
from carlitz.errors import InvariantError
from carlitz.fq import Fq
from carlitz.poly import MAX_PARSE_DEGREE, Poly, poly_parse, poly_to_str
from carlitz.ratfun import base_field
from carlitz.selfcheck import suite_lfun


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_cwverify_pinned_example():
    rc, out, err = run(["cwverify", "--q", "2", "--a", "T", "--b", "1",
                        "--kmax", "8"])
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["q"] == 2 and doc["a"] == "T" and doc["b"] == "1"
    assert len(doc["rows"]) == 8
    first = doc["rows"][0]
    assert first["k"] == 1 and first["lhs"] == "1/T" and first["equal"]
    assert all(r["equal"] for r in doc["rows"])


def test_bc_pinned_example():
    rc, out, err = run(["bc", "--q", "3", "--n", "7"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["rows"][7] == {"n": 7, "bc": "0", "factorial": doc["rows"][7]["factorial"]}
    rc, out, err = run(["bc", "--q", "3", "--n", "7", "--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n,bc,factorial"
    assert len(lines) == 9
    assert lines[8].startswith("7,0,")
    assert out.endswith("\n")


def test_stickelberger_pinned_example():
    rc, out, err = run(["stickelberger", "--q", "2", "--pi", "T^2+T+1",
                        "--level", "1", "--S", "inf", "--T", "T",
                        "--udeg", "12"])
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["pi"] == "T^2+T+1" and doc["level"] == 1
    assert doc["S"] == ["T^2+T+1", "inf"] and doc["T"] == ["T"]
    assert [c["u"] for c in doc["coeffs"]] == [0, 1, 2]
    assert doc["coeffs"][0]["terms"] == [{"rep": "1", "c": 1}]


def test_json_is_indented_with_trailing_newline():
    rc, out, _ = run(["factorial", "--q", "2", "--n", "3"])
    assert rc == 0
    assert out.startswith("{\n  \"q\": 2")
    assert out.endswith("}\n")
    assert json.loads(out)["value"] == poly_to_str(
        carlitz_factorial(3, Fq.get(2)))


def test_emitted_polynomials_reparse():
    rc, out, _ = run(["torsion", "--q", "2", "--pi", "T", "--n", "2"])
    doc = json.loads(out)
    f2 = Fq.get(2)
    for term in doc["monomials"]:
        c = poly_parse(term["c"], f2)
        assert poly_to_str(c) == term["c"]
    rc, out, _ = run(["zetaneg", "--q", "3", "--k", "5"])
    f3 = Fq.get(3)
    for row in json.loads(out)["rows"]:
        assert poly_to_str(poly_parse(row["value"], f3)) == row["value"]


def test_zetapos_and_vadic_payloads():
    rc, out, _ = run(["zetapos", "--q", "2", "--k", "2", "--dmax", "2",
                      "--prec", "6"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["var"] == "t" and doc["terms"][0] == {"e": 0, "c": 1}
    rc, out, _ = run(["zetavadic", "--q", "3", "--pi", "T", "--k", "3"])
    assert rc == 0
    assert json.loads(out)["value"] == "2*T^3+1"


def test_charval_and_project_payloads():
    base = ["--q", "2", "--pi", "T^2+T+1", "--S", "inf", "--T", "T"]
    rc, out, _ = run(["charval"] + base + ["--level", "1", "--order", "3",
                                           "--gen", "T=1"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["order"] == 3 and doc["gens"] == [{"g": "T", "e": 1}]
    assert [v["u"] for v in doc["values"]] == [0, 1, 2]
    assert doc["values"][0]["c"] == [1, 0]
    rc, out2, _ = run(["project"] + base + ["--level", "2", "--m", "1"])
    assert rc == 0
    rc, out1, _ = run(["stickelberger"] + base + ["--level", "1"])
    assert json.loads(out2)["coeffs"] == json.loads(out1)["coeffs"]


def test_charval_repeated_generator_must_agree():
    argv = ["charval", "--q", "2", "--pi", "T^2+T+1", "--level", "1", "--S",
            "inf", "--T", "T", "--order", "3", "--gen", "T=1", "--gen"]
    clash = "error: generator images are inconsistent at [T]: " \
        "exponent 1 vs 2 mod 3\n"
    # the same residue again with another exponent, through the same
    # polynomial or another representative
    for gen in ("T=2", "T^3+T^2=2"):
        rc, out, err = run(argv + [gen])
        assert (rc, out, err) == (2, "", clash), gen
    # a repeat that agrees mod the order is the character of T=1 alone
    rc, out, _ = run(argv + ["T=4"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["gens"] == [{"g": "T", "e": 1}, {"g": "T", "e": 4}]
    _, single, _ = run(argv[:-1])
    assert doc["values"] == json.loads(single)["values"]


def test_okada_csv_and_json():
    rc, out, _ = run(["okada", "--q", "2", "--pi", "T^3+T+1"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["kmax"] == 6
    rc, out, _ = run(["okada", "--q", "2", "--pi", "T^3+T+1",
                      "--format", "csv"])
    assert rc == 0
    assert out.splitlines()[0] == "k,flag"


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "phi.json"
    rc, out, _ = run(["phi", "--q", "2", "--a", "T^2+T", "--out", str(target)])
    assert rc == 0 and out == ""
    rc, expect, _ = run(["phi", "--q", "2", "--a", "T^2+T"])
    assert target.read_text() == expect


def test_runs_are_deterministic():
    invocations = [
        ["phi", "--q", "3", "--a", "T^2+2"],
        ["exp", "--q", "2", "--prec", "9"],
        ["bc", "--q", "3", "--n", "6", "--format", "csv"],
        ["zetapos", "--q", "3", "--k", "2", "--dmax", "1", "--prec", "4"],
        ["stickelberger", "--q", "2", "--pi", "T^2+T+1", "--level", "1",
         "--S", "inf", "--T", "T"],
        ["colemancheck", "--q", "2"],
    ]
    for argv in invocations:
        rc1, out1, _ = run(argv)
        rc2, out2, _ = run(argv)
        assert rc1 == rc2 == 0
        assert out1 == out2


def test_verification_failure_exit_code(monkeypatch):
    f2 = Fq.get(2)
    F = base_field(f2)
    rep = CWReport(q=2, a=poly_parse("T", f2), b=poly_parse("1", f2),
                   rows=[CWRow(1, F.one, F.zero, False)])
    monkeypatch.setattr(climod, "cw_verify", lambda *a, **k: rep)
    rc, out, err = run(["cwverify", "--q", "2", "--a", "T", "--b", "1",
                        "--kmax", "1"])
    assert rc == 1
    assert err == "error: verification failed\n"
    assert json.loads(out)["rows"][0]["equal"] is False


def test_usage_errors_exit_2():
    cases = [
        ["bc", "--q", "2"],                                   # missing --n
        ["bc", "--q", "2", "--n", "-1"],                      # negative --n
        ["phi", "--q", "2", "--a", "T+%"],                    # parse error
        ["phi", "--q", "2", "--a", "T", "--format", "csv"],   # csv not flat
        ["bc", "--q", "2", "--n", "3", "--threads", "2"],    # removed flag
        ["stickelberger", "--q", "2", "--pi", "T^2+T+1", "--level", "1",
         "--T", "T"],                                         # no --S inf
        ["zetapos", "--q", "2", "--k", "2", "--dmax", "1", "--prec", "5"],
        ["nosuchcmd", "--q", "2"],
        ["bc", "--q", "6", "--n", "2"],                       # bad field size
        ["charval", "--q", "2", "--pi", "T^2+T+1", "--level", "1", "--S",
         "inf", "--T", "T", "--order", "3", "--gen", "T"],    # no '='
        ["project", "--q", "2", "--pi", "T^2+T+1", "--level", "1", "--S",
         "inf", "--T", "T", "--m", "2"],                      # m > level
        ["stickelberger", "--q", "4", "--pi", "T", "--level", "1", "--S",
         "inf", "--T", "T+1"],                                # not prime field
        ["minpoly", "--q", "2", "--pi", "T^2+1", "--n", "1"], # reducible pi
        ["stickelberger", "--q", "2", "--pi", "T^2+T+1", "--level", "1",
         "--S", "inf", "--udeg", "12"],                       # no --T place
        ["stickelberger", "--q", "3", "--pi", "T", "--level", "2", "--S",
         "inf", "--S", "T+1", "--udeg", "9"],                 # no --T place
        ["colemancheck", "--q", "2", "--pi", "0"],            # zero pi
        ["colemancheck", "--q", "2", "--pi", "2*T"],          # 2*T = 0 in F_2
        ["colemancheck", "--q", "2", "--trials", "-1"],       # negative trials
        ["colemancheck", "--q", "2", "--trials", "0"],        # vacuous check
    ]
    for argv in cases:
        rc, out, err = run(argv)
        assert rc == 2, argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_parse_degree_limit_exits_2(monkeypatch):
    pow_ = polymod._int_power

    def power(b, e, p):
        if e > 64:
            raise AssertionError("a power past the limit was built")
        return pow_(b, e, p)

    monkeypatch.setattr(polymod, "_int_power", power)
    rc, out, err = run(["phi", "--q", "2", "--a", f"T^{MAX_PARSE_DEGREE + 1}"])
    assert rc == 2 and out == ""
    assert f"degree limit {MAX_PARSE_DEGREE}" in err


def test_non_ascii_digit_exits_2_with_its_position():
    rc, out, err = run(["phi", "--q", "2", "--a", "T^\u00b2"])
    assert (rc, out) == (2, "")
    assert err == "error: unexpected character '\u00b2' (at position 2)\n"


@pytest.mark.parametrize("k", ["0", "-1"])
def test_zetaneg_rejects_k_below_one(k):
    # the library's own message, not an empty table with exit 0
    with pytest.raises(ValueError) as exc:
        lfunmod.zeta_neg(int(k), Fq.get(3))
    for fmt in ([], ["--format", "csv"]):
        rc, out, err = run(["zetaneg", "--q", "3", "--k", k] + fmt)
        assert (rc, out, err) == (2, "", f"error: {exc.value}\n")


def test_internal_errors_exit_3():
    rc, out, err = run(["stickelberger", "--q", "2", "--pi", "T^2+T+1",
                        "--level", "1", "--S", "inf", "--T", "T",
                        "--udeg", "3"])
    assert rc == 3
    assert err.startswith("error: ") and err.count("\n") == 1


def test_an_inexact_internal_division_exits_3(monkeypatch):
    # omega_minpoly divides phi_(pi^n) by phi_(pi^(n-1)), exact by
    # construction: a remainder there is an internal failure, not bad input
    real = cmodmod.torsion_poly

    def wrong(pi, n):
        t = real(pi, n)
        return t + Poly.const(t.ring, t.var, t.ring.one) if n == 1 else t

    monkeypatch.setattr(cmodmod, "torsion_poly", wrong)
    rc, out, err = run(["minpoly", "--q", "2", "--pi", "T", "--n", "2"])
    assert (rc, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "cancellation left a remainder" in err


def test_an_inexact_dlog_division_exits_3(monkeypatch):
    # the dlog's two gcds divide n, n', d and d' exactly by construction;
    # a wrong divisor (x + 1, which divides none of them) is exit 3
    real = cwmod.dlog

    def broken(f):
        k = f.field.kernel
        with monkeypatch.context() as m:
            m.setattr(k, "gcd", lambda a, b: Poly(
                a.ring, a.var, [a.ring.one, a.ring.one]))
            return real(f)

    monkeypatch.setattr(cwmod, "dlog", broken)
    rc, out, err = run(["cwverify", "--q", "3", "--a", "T", "--b", "1",
                        "--kmax", "4"])
    assert (rc, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "cancellation left a remainder" in err


@pytest.mark.parametrize("exc", [MemoryError(), RecursionError(
    "maximum recursion depth\nexceeded")])
def test_exhausted_resources_exit_3(monkeypatch, exc):
    # an internal failure, not exit 1 ("verification failed") and not a
    # traceback: one stderr line and nothing on stdout
    def handler(args):
        raise exc

    monkeypatch.setattr(climod, "_cmd_bc", handler)
    rc, out, err = run(["bc", "--q", "2", "--n", "3"])
    assert (rc, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert type(exc).__name__ in err


def test_unexpected_exception_exits_3():
    # a --prec too large for an index overflows before anything is
    # allocated; an unforeseen exception is an internal failure too
    rc, out, err = run(["exp", "--q", "2", "--prec", "100000000000000000000"])
    assert (rc, out) == (3, "")
    assert err.startswith("error: OverflowError: ") and err.count("\n") == 1


@pytest.mark.parametrize("q,pi", [("7", "T"), ("2", "T^3+T+1"), ("5", "T")])
def test_colemancheck_beyond_six_by_six(q, pi):
    # norm matrix sides 7 and 8, and side 5 as the control
    rc, out, err = run(["colemancheck", "--q", q, "--pi", pi, "--trials", "2"])
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["ok"] is True
    assert [c["name"] for c in doc["checks"]] == [
        "norm fixes phi_a for a prime to pi", "norm is multiplicative",
        "norm commutes with torsion evaluation"]
    assert all(c["ok"] for c in doc["checks"])


def test_selftest_subcommand():
    rc, out, err = run(["selftest", "--q", "2"])
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["ok"] is True
    names = [s["suite"] for s in doc["suites"]]
    assert len(names) == len(set(names)) >= 5
    assert all(s["ok"] for s in doc["suites"])


def test_selftest_needs_no_field_size():
    # selftest runs on fixed fields of its own, so --q is optional there;
    # every other subcommand still requires it
    plain = run(["selftest"])
    assert plain[0] == 0 and plain == run(["selftest", "--q", "2"])
    rc, out, err = run(["bc", "--n", "2"])
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "--q" in err


def test_selftest_reports_disagreeing_v_adic_routes(monkeypatch):
    real = lfunmod.zeta_neg
    monkeypatch.setattr(
        lfunmod, "zeta_neg",
        lambda k, fq: real(k, fq) + Poly(fq, "T", [fq.one]))
    rows = {name: ok for name, ok, _ in suite_lfun()}
    assert rows["v-adic zeta dual routes agree"] is False
    assert rows["trivial zeros of zeta at negative integers"] is True


def test_selftest_broken_invariant_exits_3(monkeypatch):
    # an InvariantError inside a suite is an internal failure (exit 3), not
    # a failed row (exit 1)
    def broken(k, pi):
        raise InvariantError("v-adic zeta invariant broken")

    monkeypatch.setattr(selfcheckmod, "zeta_v_adic_neg", broken)
    rc, out, err = run(["selftest", "--q", "2"])
    assert (rc, out) == (3, "")
    assert err == "error: v-adic zeta invariant broken\n"


BROKEN_INVARIANTS = {
    "exp shape": (
        "import carlitz.cmod as m\n"
        "real = m.d_sequence\n"
        "m.d_sequence = lambda fq, n: [d.shift(1) for d in real(fq, n)]\n"
        "m.carlitz_exp(m.Fq.get(2), 6)\n",
        "e(z) fails phi_T(e(z)) = e(Tz) within precision"),
    "exp normalisation": (
        "import carlitz.cmod as m\n"
        "real = m.d_sequence\n"
        "m.d_sequence = lambda fq, n: [-d for d in real(fq, n)]\n"
        "m.carlitz_exp(m.Fq.get(3), 6)\n",
        "e(z) is not z + O(z^2)"),
    "log round trip": (
        "import carlitz.cmod as m\n"
        "real = m.l_sequence\n"
        "m.l_sequence = lambda fq, n: [d.shift(1) for d in real(fq, n)]\n"
        "m.carlitz_log(m.Fq.get(2), 6)\n",
        "e(log z) != z within precision"),
    "F_p(T) cancellation": (
        "import carlitz.ratfun as m\n"
        "from carlitz.fq import Fq\n"
        "from carlitz.poly import poly_parse\n"
        "fq = Fq.get(3)\n"
        "F = m.base_field(fq)\n"
        "f = F.coerce(poly_parse('T^2+1', fq))\n"
        "g = F.one / F.coerce(poly_parse('T^2+2', fq))\n"
        "F.kernel.gcd = lambda a, b: [1, 1]  # T+1 does not divide T^2+1\n"
        "f * g\n",
        "F_p(T) cancellation left a remainder"),
    "zeta stratum vanishing": (
        "import carlitz.lfun as m\n"
        "m.power_sum = lambda d, k, fq: m.Poly(fq, 'T', [fq.one])\n"
        "m.zeta_neg(1, m.Fq.get(2))\n",
        "stratum d=2 fails the vanishing bound for k=1"),
    "v-adic zeta stratum vanishing": (
        "import carlitz.lfun as m\n"
        "m.power_sum = lambda d, k, fq: m.Poly(fq, 'T', [fq.one])\n"
        "m.zeta_v_adic_neg(1, m.Poly.gen(m.Fq.get(2), 'T'))\n",
        "stratum d=2 fails the vanishing bound for k=1"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_INVARIANTS))
def test_invariants_survive_python_O(case):
    script, message = BROKEN_INVARIANTS[case]
    src = os.path.dirname(os.path.dirname(carlitz.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert f"InvariantError: {message}" in proc.stderr


def test_module_entry_point_matches_inprocess():
    argv = ["cwverify", "--q", "2", "--a", "T", "--b", "1", "--kmax", "4"]
    proc = subprocess.run([sys.executable, "-m", "carlitz"] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 0
    _, out, _ = run(argv)
    assert proc.stdout == out

    bad = subprocess.run([sys.executable, "-m", "carlitz", "bc", "--q", "2"],
                         capture_output=True, text=True)
    assert bad.returncode == 2
    assert bad.stdout == "" and bad.stderr.startswith("error: ")
