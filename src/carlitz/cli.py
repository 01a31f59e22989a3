"""Batch command-line front end.

Every subcommand maps onto one library operation, prints a deterministic
JSON document (or CSV for the flat tables) to stdout or --out, and exits
0 on success, 1 on verification failure, 2 on usage or parse errors, 3 on
internal failures (a broken invariant, running out of memory or recursion
depth, or any other unexpected exception).
"""

from __future__ import annotations

import argparse
import json
import sys

from .cmod import (
    bernoulli_carlitz_table, carlitz_exp, carlitz_factorial, carlitz_log,
    carlitz_phi, omega_minpoly, torsion_poly,
)
from .cw import cw_verify
from .errors import CharacterError, ParseError, PrecisionError, TailError
from .fq import Fq
from .groupring import CharSpec
from .lfun import (
    okada_report, stickelberger_series, zeta_neg, zeta_pos_trunc,
    zeta_v_adic_neg,
)
from .poly import Poly, poly_parse, poly_to_str
from .series import TruncSeries

FLAT_COMMANDS = ("bc", "zetaneg", "okada")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse prints multi-line usage by default; errors must be one line
    def error(self, message):
        raise _UsageError(message)


def _fq(args) -> Fq:
    return Fq.get(args.q)


def _coeff_json(c):
    if c.field.m == 1:
        return c.prime_value()
    return list(c.coords)


def _sparse_terms(p: Poly) -> list[dict]:
    out = []
    for e, c in enumerate(p.coeffs):
        if not c.is_zero():
            out.append({"e": e, "c": poly_to_str(c)})
    return out


def _series_terms(s: TruncSeries) -> list[dict]:
    return [{"e": e, "c": str(c)} for e, c in s.items()]


def _require_prime_field(fq: Fq, what: str) -> None:
    if fq.m > 1:
        raise _UsageError(
            f"{what} requires a prime field: residue text output is only "
            f"defined over F_p")


# -- subcommand handlers ------------------------------------------------------

def _cmd_phi(args):
    fq = _fq(args)
    a = poly_parse(args.a, fq)
    sk = carlitz_phi(a)
    add = sk.as_additive()
    doc = {
        "q": fq.q,
        "a": poly_to_str(a),
        "tau": [poly_to_str(sk.coeff(i)) for i in range(sk.tau_degree + 1)],
        "additive": _sparse_terms(add),
    }
    return doc, 0


def _cmd_torsion(args):
    fq = _fq(args)
    pi = poly_parse(args.pi, fq)
    p = torsion_poly(pi, args.n)
    doc = {
        "q": fq.q,
        "pi": poly_to_str(pi),
        "n": args.n,
        "degree": p.degree,
        "monomials": _sparse_terms(p),
    }
    return doc, 0


def _cmd_minpoly(args):
    fq = _fq(args)
    pi = poly_parse(args.pi, fq)
    m = omega_minpoly(pi, args.n)
    doc = {
        "q": fq.q,
        "pi": poly_to_str(pi),
        "n": args.n,
        "degree": m.degree,
        "monomials": _sparse_terms(m),
        "constant": poly_to_str(m.constant),
    }
    return doc, 0


def _cmd_exp(args):
    fq = _fq(args)
    e = carlitz_exp(fq, args.prec)
    return {"q": fq.q, "prec": args.prec, "var": "z",
            "terms": _series_terms(e)}, 0


def _cmd_log(args):
    fq = _fq(args)
    lam = carlitz_log(fq, args.prec)
    return {"q": fq.q, "prec": args.prec, "var": "z",
            "terms": _series_terms(lam)}, 0


def _cmd_factorial(args):
    fq = _fq(args)
    return {"q": fq.q, "n": args.n,
            "value": poly_to_str(carlitz_factorial(args.n, fq))}, 0


def _cmd_bc(args):
    fq = _fq(args)
    table = bernoulli_carlitz_table(args.n, fq)
    rows = [{"n": bc.n, "bc": str(bc.value),
             "factorial": poly_to_str(bc.factorial)} for bc in table]
    if args.format == "csv":
        lines = ["n,bc,factorial"]
        lines += [f"{r['n']},{r['bc']},{r['factorial']}" for r in rows]
        return "\n".join(lines) + "\n", 0
    return {"q": fq.q, "n": args.n, "rows": rows}, 0


def _cmd_zetaneg(args):
    fq = _fq(args)
    rows = []
    # a --k below 1 goes to zeta_neg, which rejects it in its own words
    for k in range(1, args.k + 1) if args.k >= 1 else [args.k]:
        rows.append({"k": k,
                     "value": poly_to_str(zeta_neg(k, fq))})
    if args.format == "csv":
        lines = ["k,value"]
        lines += [f"{r['k']},{r['value']}" for r in rows]
        return "\n".join(lines) + "\n", 0
    return {"q": fq.q, "kmax": args.k, "rows": rows}, 0


def _cmd_zetapos(args):
    fq = _fq(args)
    s = zeta_pos_trunc(args.k, fq, args.dmax, args.prec)
    terms = [{"e": e, "c": _coeff_json(c)} for e, c in s.items()]
    return {"q": fq.q, "k": args.k, "dmax": args.dmax, "prec": args.prec,
            "var": "t", "terms": terms}, 0


def _cmd_zetavadic(args):
    fq = _fq(args)
    pi = poly_parse(args.pi, fq)
    v = zeta_v_adic_neg(args.k, pi)
    return {"q": fq.q, "pi": poly_to_str(pi), "k": args.k,
            "value": poly_to_str(v)}, 0


def _split_places(args, fq: Fq):
    if "inf" not in args.S:
        raise _UsageError("S must contain the infinite place: pass --S inf")
    s_extra = [poly_parse(t, fq) for t in args.S if t != "inf"]
    t_aux = [poly_parse(t, fq) for t in args.T]
    return s_extra, t_aux


def _theta_from_args(args, fq: Fq):
    pi = poly_parse(args.pi, fq)
    s_extra, t_aux = _split_places(args, fq)
    return stickelberger_series(pi, args.level, s_extra, t_aux,
                                udeg=args.udeg)


def _cmd_stickelberger(args):
    fq = _fq(args)
    _require_prime_field(fq, "stickelberger")
    return _theta_from_args(args, fq).as_dict(), 0


def _cmd_project(args):
    fq = _fq(args)
    _require_prime_field(fq, "project")
    if args.m > args.level:
        raise _UsageError("projection target --m must be <= --level")
    return _theta_from_args(args, fq).project(args.m).as_dict(), 0


def _cmd_charval(args):
    fq = _fq(args)
    _require_prime_field(fq, "charval")
    theta = _theta_from_args(args, fq)
    gens = []  # pairs, so that a repeated --gen reaches the consistency check
    gen_doc = []
    for spec_text in args.gen:
        left, sep, right = spec_text.partition("=")
        if not sep:
            raise _UsageError(f"--gen takes poly=exponent, got {spec_text!r}")
        g = poly_parse(left, fq)
        try:
            e = int(right)
        except ValueError:
            raise _UsageError(f"exponent {right!r} is not an integer")
        gens.append((g, e))
        gen_doc.append({"g": poly_to_str(g), "e": e})
    vals = theta.eval_char(CharSpec(args.order, gens))
    width = max(1, vals.ring.modulus.degree)
    coeffs = [{"u": n, "c": [c.rep.coeff(i) for i in range(width)]}
              for n, c in enumerate(vals.coeffs)]
    doc = theta.as_dict()
    doc.pop("coeffs")
    doc.update({"order": args.order, "gens": gen_doc, "values": coeffs})
    return doc, 0


def _cmd_colemancheck(args):
    # selfcheck imports random, which no other subcommand needs
    from .selfcheck import suite_coleman
    fq = _fq(args)
    pis = [poly_parse(args.pi, fq)] if args.pi is not None else None
    rows = suite_coleman(fq, pis, trials=args.trials)
    checks = [{"name": n, "ok": ok, "detail": d} for n, ok, d in rows]
    ok = all(c["ok"] for c in checks)
    doc = {"q": fq.q, "checks": checks, "ok": ok}
    return doc, 0 if ok else 1


def _cmd_cwverify(args):
    fq = _fq(args)
    a = poly_parse(args.a, fq)
    b = poly_parse(args.b, fq)
    rep = cw_verify(a, b, args.kmax)
    return rep.as_dict(), 0 if rep.passed else 1


def _cmd_okada(args):
    fq = _fq(args)
    pi = poly_parse(args.pi, fq)
    rep = okada_report(pi)
    if args.format == "csv":
        rows = sorted([(k, "irregular") for k in rep.irregular]
                      + [(k, "denominator") for k in rep.denominator_hits])
        lines = ["k,flag"] + [f"{k},{flag}" for k, flag in rows]
        return "\n".join(lines) + "\n", 0
    return rep.as_dict(), 0


def _cmd_selftest(args):
    from .selfcheck import run_all
    suites = []
    for name, rows in run_all():
        checks = [{"name": n, "ok": ok, "detail": d} for n, ok, d in rows]
        suites.append({"suite": name, "checks": checks,
                       "ok": all(c["ok"] for c in checks)})
    ok = all(s["ok"] for s in suites)
    return {"suites": suites, "ok": ok}, 0 if ok else 1


# -- parser -------------------------------------------------------------------

def build_parser() -> _Parser:
    top = _Parser(prog="carlitz", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--q", type=int, required=True,
                        help="field size, a prime power")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--format", choices=("json", "csv"), default="json")

    def cmd(name, handler, description=None, **flags):
        p = sub.add_parser(name, parents=[common], description=description)
        for flag, spec in flags.items():
            p.add_argument(f"--{flag}", **spec)
        p.set_defaults(handler=handler)
        return p

    cmd("phi", _cmd_phi, a={"required": True, "help": "operator index in F_q[T]"})
    cmd("torsion", _cmd_torsion, pi={"required": True},
        n={"type": int, "required": True})
    cmd("minpoly", _cmd_minpoly, pi={"required": True},
        n={"type": int, "required": True})
    cmd("exp", _cmd_exp, prec={"type": int, "required": True})
    cmd("log", _cmd_log, prec={"type": int, "required": True})
    cmd("factorial", _cmd_factorial, n={"type": int, "required": True})
    cmd("bc", _cmd_bc, n={"type": int, "required": True})
    cmd("zetaneg", _cmd_zetaneg, k={"type": int, "required": True})
    cmd("zetapos", _cmd_zetapos, k={"type": int, "required": True},
        dmax={"type": int, "required": True},
        prec={"type": int, "required": True})
    cmd("zetavadic", _cmd_zetavadic, pi={"required": True},
        k={"type": int, "required": True})

    theta_flags = dict(
        pi={"required": True},
        level={"type": int, "required": True},
        S={"action": "append", "default": [],
           "help": "places of S besides pi; repeatable; must include inf"},
        T={"action": "append", "default": [],
           "help": "auxiliary places; repeatable"},
        udeg={"type": int, "default": 12})
    cmd("stickelberger", _cmd_stickelberger, **theta_flags)
    cmd("project", _cmd_project, m={"type": int, "required": True}, **theta_flags)
    cmd("charval", _cmd_charval, order={"type": int, "required": True},
        gen={"action": "append", "default": [],
             "help": "generator image poly=exponent; repeatable"},
        **theta_flags)

    cmd("colemancheck", _cmd_colemancheck, pi={"default": None},
        trials={"type": int, "default": 10})
    cmd("cwverify", _cmd_cwverify, a={"required": True}, b={"required": True},
        kmax={"type": int, "required": True})
    cmd("okada", _cmd_okada, pi={"required": True})
    cmd("selftest", _cmd_selftest, description="Run the check suites on "
        "fixed fields of their own; --q is required but not read.")
    return top


def _emit(payload, out_path: str | None) -> None:
    text = payload if isinstance(payload, str) else (
        json.dumps(payload, indent=2) + "\n")
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _fail(reason: str, code: int) -> int:
    sys.stderr.write("error: " + " ".join(str(reason).split()) + "\n")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.format == "csv" and args.command not in FLAT_COMMANDS:
            raise _UsageError(
                "csv output is only available for " + ", ".join(FLAT_COMMANDS))
        payload, code = args.handler(args)
        _emit(payload, args.out)
        if code == 1:
            sys.stderr.write("error: verification failed\n")
        return code
    except _UsageError as ex:
        return _fail(str(ex), 2)
    except (ParseError, PrecisionError, CharacterError, ValueError) as ex:
        return _fail(str(ex), 2)
    except (TailError, AssertionError) as ex:
        return _fail(str(ex) or "internal assertion failed", 3)
    except Exception as ex:
        # anything else (a resource ran out, an unforeseen error) is an
        # internal failure, not a failed verification
        return _fail(f"{type(ex).__name__}: {ex}" if str(ex)
                     else type(ex).__name__, 3)


if __name__ == "__main__":
    sys.exit(main())
