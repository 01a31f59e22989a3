"""One in-process carlitz library session: warm-up, then a closed loop.

    python3 perfbench/session.py SEED (--seconds S | --count N)
                                 [--samples | --trace-out F]

A single client sends its next request only after the previous one returns.
Requests come from six kinds over fixed (q, pi) families; a generator seeded
with SEED draws their operands, so sessions with the same seed serve the
same requests in the same order.  Every request checks its own algebraic
law.  Before the loop an untimed warm-up fills the structural caches
(fields, quotient rings, exp series) with a different draw from the same
families; no timed request repeats a warm-up request verbatim.

Protocol on stdout: the line ``ready`` once the warm-up is done, then one
JSON line with the requests served and their start and end times on the
``time.perf_counter`` clock, in order, the time the warm-up ended, the loop time, failures and the SHA-256 of every request's
canonical result.  With ``--samples`` the machine-speed sampler of
``calib.py`` runs from before the package is imported to the end of the loop,
and the line carries its samples too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
import traceback

FAMILIES = ((2, "T"), (2, "T^2+T+1"), (3, "T"), (5, "T"))
# torsion_eval families: their level-2 fields keep field_norm affordable
TORSION_FAMILIES = ((2, "T^2+T+1"), (3, "T"))
CW_FIELDS = (2, 3, 5)
# over F_2; at level 2 only the degree-1 primes terminate by udeg 9
STICKELBERGER_PIS = ("T", "T+1", "T^2+T+1")


# -- request generation: pure data, no library calls ---------------------------

def _text(coeffs: list[int], var: str) -> str:
    """Canonical polynomial text (highest degree first) from low-first ints."""
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        if e == 0:
            parts.append(str(c))
            continue
        head = "" if c == 1 else f"{c}*"
        parts.append(head + (var if e == 1 else f"{var}^{e}"))
    return "+".join(parts) or "0"


def _unit_series(rng: random.Random, p: int, d: int) -> str:
    """Random x-polynomial of degree d with nonzero constant term."""
    coeffs = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(d - 1)]
    return _text(coeffs + [rng.randrange(1, p)], "x")


def _prime_to(rng: random.Random, p: int, pi: str) -> str:
    """Random T-polynomial of degree 1 or 2 prime to pi.  With degree <= 2 the
    only primes used here are T (constant term must be nonzero) and T^2+T+1
    (only itself is divisible)."""
    while True:
        d = rng.randint(1, 2)
        coeffs = [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
        if pi == "T" and not coeffs[0]:
            continue
        if pi == "T^2+T+1" and coeffs == [1, 1, 1]:
            continue
        return _text(coeffs, "T")


def _nonzero_linear(rng: random.Random, p: int) -> str:
    while True:
        coeffs = [rng.randrange(p), rng.randrange(p)]
        if any(coeffs):
            return _text(coeffs, "T")


def draw(rng: random.Random, kind: str, q: int, pi: str = "", level: int = 1,
         n: int | None = None) -> tuple:
    """One request of a class as a tuple of ints and strings.  The class
    fixes the kind, field, prime and sizes; the seed picks the operands."""
    if kind == "coleman":
        return (kind, q, pi, _unit_series(rng, q, 2), _unit_series(rng, q, 1),
                _unit_series(rng, q, 2), _unit_series(rng, q, 1),
                _prime_to(rng, q, pi))
    if kind == "torsion_eval":
        return (kind, q, pi, _unit_series(rng, q, 3))
    if kind == "cyclo_unit":
        return (kind, q, pi, level, _prime_to(rng, q, pi), _prime_to(rng, q, pi))
    if kind == "cw_small":
        a = _nonzero_linear(rng, q)
        b = _nonzero_linear(rng, q)
        while b == a:
            b = _nonzero_linear(rng, q)
        return (kind, q, a, b, 8)
    if kind == "bc":
        return (kind, q, n or rng.randint(14, 17))
    if kind == "stickelberger_small":
        level = rng.randint(1, 2) if pi != "T^2+T+1" else 1
        taux = rng.choice([v for v in STICKELBERGER_PIS if v != pi])
        return (kind, q, pi, level, taux, 9)
    raise ValueError(f"unknown request kind {kind!r}")


# Request classes: a kind with its field, prime and sizes pinned.  The timed
# loop serves them in seeded shuffled blocks of one of each, so every run has
# the same class mix and seeds differ only in the operands.  The classes are
# chosen so that the median latency falls among several classes of similar
# cost (about 15-30 ms here), where the distribution is dense.
CLASSES = ([("coleman", {"q": q, "pi": pi}) for q, pi in FAMILIES]
           + [("torsion_eval", {"q": q, "pi": pi}) for q, pi in TORSION_FAMILIES]
           + [("cyclo_unit", {"q": q, "pi": pi, "level": level})
              for q, pi, level in ((3, "T", 2), (2, "T^2+T+1", 1), (5, "T", 1))]
           + [("cw_small", {"q": q}) for q in CW_FIELDS]
           + [("bc", {"q": q}) for q in (2, 3)]
           + [("stickelberger_small", {"q": 2, "pi": pi}) for pi in STICKELBERGER_PIS])
# the warm-up's exp series must cover every timed bc and cw_small request
WARMUP_SIZES = {"bc": {"n": 20}}


def warmup_requests(rng: random.Random) -> list[tuple]:
    return [draw(rng, kind, **params, **WARMUP_SIZES.get(kind, {}))
            for kind, params in CLASSES]


def timed_requests(rng: random.Random, exclude: set[str]):
    """Endless request sequence in shuffled blocks of CLASSES, skipping any
    request that repeats one in ``exclude`` verbatim."""
    while True:
        block = list(CLASSES)
        rng.shuffle(block)
        for kind, params in block:
            req = draw(rng, kind, **params)
            while request_key(req) in exclude:
                req = draw(rng, kind, **params)
            yield req


# -- request execution: every kind checks its own law --------------------------

def run_request(C, req: tuple) -> tuple[bool, str]:
    """Returns (law holds, canonical result text).  ``C`` is the carlitz
    package; names are looked up on it at call time so a tracer installed
    after import sees every call."""
    kind, q = req[0], req[1]
    fq = C.Fq.get(q)
    if kind == "coleman":
        _, _, pi_t, fn, fd, gn, gd, a_t = req
        pi = C.poly_parse(pi_t, fq)

        def series(num, den):
            return (C.ColemanSeries(C.poly_parse(num, fq, "x"), pi)
                    / C.ColemanSeries(C.poly_parse(den, fq, "x"), pi))
        f, g = series(fn, fd), series(gn, gd)
        prod = C.coleman_norm(f * g)
        multiplicative = prod.value == (C.coleman_norm(f) * C.coleman_norm(g)).value
        phi_a = C.ColemanSeries(C.phi_poly(C.poly_parse(a_t, fq)), pi)
        fixed = C.coleman_norm(phi_a).value
        return multiplicative and fixed == phi_a.value, f"{prod.value}|{fixed}"
    if kind == "torsion_eval":
        _, _, pi_t, h_t = req
        pi = C.poly_parse(pi_t, fq)
        h = C.ColemanSeries(C.poly_parse(h_t, fq, "x"), pi)
        lhs = C.field_norm(C.eval_at_omega(h, 2), 1)
        rhs = C.eval_at_omega(C.coleman_norm(h), 1)
        return lhs == rhs, str(lhs.rep)
    if kind == "cyclo_unit":
        _, _, pi_t, level, a_t, b_t = req
        field = C.CycloField.get(C.poly_parse(pi_t, fq), level)
        u = C.cyclotomic_unit(C.poly_parse(a_t, fq), C.poly_parse(b_t, fq), field)
        v = C.valuation_at_p(u)
        return v == 0, f"{u.rep}|{v}"
    if kind == "cw_small":
        _, _, a_t, b_t, kmax = req
        rep = C.cw_verify(C.poly_parse(a_t, fq), C.poly_parse(b_t, fq), kmax)
        return rep.passed, json.dumps(rep.as_dict())
    if kind == "bc":
        n = req[2]
        bc = C.bernoulli_carlitz(n, fq)
        vanishes = n % (q - 1) != 0
        return (not vanishes or bc.value.is_zero(),
                f"{bc.value}|{C.poly_to_str(bc.factorial)}")
    if kind == "stickelberger_small":
        _, _, pi_t, level, t_t, udeg = req
        theta = C.stickelberger_series(C.poly_parse(pi_t, fq), level, (),
                                       (C.poly_parse(t_t, fq),), udeg=udeg)
        return theta.at_one().is_zero(), json.dumps(theta.as_dict())
    raise ValueError(f"unknown request kind {kind!r}")


def request_key(req: tuple) -> str:
    return " ".join(map(str, req))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("seed", type=int)
    budget = ap.add_mutually_exclusive_group(required=True)
    budget.add_argument("--seconds", type=float)
    budget.add_argument("--count", type=int)
    ap.add_argument("--trace-out")
    ap.add_argument("--samples", action="store_true")
    args = ap.parse_args()

    sampler = None
    if args.samples:
        from calib import Sampler
        sampler = Sampler()
        sampler.start()
    import carlitz as C
    warm = warmup_requests(random.Random(f"warm:{args.seed}"))
    for req in warm:
        run_request(C, req)
    warm_keys = {request_key(r) for r in warm}
    tracer = None
    if args.trace_out:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    clock = time.perf_counter
    ready_at = clock()
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    requests = timed_requests(random.Random(f"session:{args.seed}"), warm_keys)
    keys, spans, digests, errors = [], [], {}, []
    failed = 0
    start = clock()
    while True:
        if args.count is not None:
            if len(spans) >= args.count:
                break
        elif clock() - start >= args.seconds:
            break
        req = next(requests)
        key = request_key(req)
        t0 = clock()
        try:
            ok, text = run_request(C, req)
        except Exception:  # a failed request is counted, not fatal
            ok, text = False, None
            errors.append(f"{key}: {traceback.format_exc(limit=3)}")
        spans.append((t0, clock()))
        keys.append(key)
        if text is not None:
            d = digest(text)
            if digests.setdefault(key, d) != d:
                ok = False
                errors.append(f"{key}: result changed within the session")
        if not ok:
            failed += 1
            if text is not None:
                errors.append(f"{key}: law check failed")
    loop_s = clock() - start
    if sampler is not None:
        sampler.stop()
    if tracer is not None:
        tracer.dump(args.trace_out)
    json.dump({"keys": keys, "spans": spans, "ready_at": ready_at, "loop_s": loop_s,
               "failed": failed, "samples": sampler.samples if sampler else [],
               "digests": digests, "errors": errors[:20]}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
