"""What the carlitz benchmark measures: workloads, inputs and metrics.

Every per-layer metric names the trace statistic it is read from and the
end-to-end metric and workload it should move; ``record.py`` copies this
mapping, with the measured baseline, into ``perfbench/baseline.json``.
"""

WORKLOADS = {
    "reciprocity": {
        "loop": "closed, 1 client: passes of fresh-interpreter CLI runs until "
                "the time is up; a command's latency is the mean of its scaled "
                "times over the passes",
        "seed": "picks the cwverify pair (a, b), distinct nonzero of degree <= 1 over F_2",
        "why": "the paper's headline computation: cmod exp/BC, series invert and "
               "compose, RatFun.make -> gcd and high-degree poly",
    },
    "enumeration": {
        "loop": "closed, 1 client: passes of fresh-interpreter CLI runs until "
                "the time is up; a command's latency is the mean of its scaled "
                "times over the passes",
        "seed": "orders the two degree-1 auxiliary places T of the Stickelberger "
                "element; every pass runs both, as their costs differ by about 5%",
        "why": "millions of tiny polynomials: a % v and GroupRing.key, and "
               "lfun.power_sum integer recursion that no poly kernel touches",
    },
    "session": {
        "loop": "closed, 1 client, in-process: 3 fresh repeats of one seeded "
                "session; a request's latency is the median of its scaled "
                "latencies over the repeats",
        "seed": "draws the operands of every request and of the warm-up",
        "why": "warm caches, no startup: quotient norms, Coleman norms and "
               "cyclotomic units dominate; q=5 Coleman requests set the tail",
    },
}

# -- CLI workloads: every input the seed can pick ---------------------------------

CW_PAIRS = [(a, b) for a in ("1", "T", "T+1") for b in ("1", "T", "T+1") if a != b]
AUX_PLACES = ("T", "T+1")


def cli_commands(workload: str, rng, toy: bool = False) -> list[tuple[str, list[str]]]:
    """The commands of one pass, as (command name, argv after ``carlitz``)."""
    if workload == "reciprocity":
        a, b = rng.choice(CW_PAIRS)
        return [
            ("cwverify", ["cwverify", "--q", "2", "--a", a, "--b", b,
                          "--kmax", "6" if toy else "24"]),
            ("bc", ["bc", "--q", "3", "--n", "6" if toy else "24"]),
            ("log", ["log", "--q", "2", "--prec", "6" if toy else "14"]),
        ]
    if workload == "enumeration":
        places = list(AUX_PLACES)
        rng.shuffle(places)
        return [
            ("stickelberger", ["stickelberger", "--q", "2", "--pi", "T^2+T+1",
                               "--level", "1", "--S", "inf", "--T", t,
                               "--udeg", "8" if toy else "14"])
            for t in places
        ] + [("zetaneg", ["zetaneg", "--q", "3", "--k", "8" if toy else "40"])]
    raise ValueError(workload)


CLI_NAMES = ("cwverify", "bc", "log", "stickelberger", "zetaneg")

# -- metrics ----------------------------------------------------------------------

# (name, unit, better, bound).  Every time is scaled to one machine speed
# (calib.py), which removes most of what other tenants of a shared machine
# add; the scaling does not follow their effect exactly, so timings keep a
# wide bound.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_ratio", "ratio", "higher", 0.01),
    ("requests_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
]

R, E, S = "reciprocity", "enumeration", "session"

# (name, unit, better, source, moves)
# source is (trace name, statistic), ("module", layer) for a layer's summed
# self time, or ("run", key) for values the runner measures itself.
PER_LAYER = [
    ("fq.add.calls", "count", "lower", ("fq.Fq.add", "calls"), f"wall_s@{R}"),
    ("fq.mul.calls", "count", "lower", ("fq.Fq.mul", "calls"), f"wall_s@{R}"),
    ("fq.neg.calls", "count", "lower", ("fq.Fq.neg", "calls"), f"wall_s@{R}"),
    ("fq.inv.calls", "count", "lower", ("fq.Fq.inv", "calls"), f"wall_s@{R}"),
    ("fq.elem_new.calls", "count", "lower", ("fq.FqElem.__init__", "calls"), f"wall_s@{R}"),
    ("fq.self_s", "s", "lower", ("module", "fq"), f"wall_s@{R}; unchanged on {E}(b)"),
    ("poly.self_s", "s", "lower", ("module", "poly"), f"wall_s@{R},{E}"),
    ("poly.mul.calls", "count", "lower", ("poly.Poly.__mul__", "calls"), f"wall_s@{R},{E}"),
    ("poly.mul.self_s", "s", "lower", ("poly.Poly.__mul__", "self_s"), f"wall_s@{R},{E}"),
    ("poly.mul.mean_deg", "deg", "lower", ("poly.Poly.__mul__", "mean_deg"), f"wall_s@{R},{E}"),
    ("poly.divmod.calls", "count", "lower", ("poly.Poly.divmod", "calls"), f"wall_s@{R},{E}"),
    ("poly.divmod.self_s", "s", "lower", ("poly.Poly.divmod", "self_s"), f"wall_s@{R},{E}"),
    ("poly.divmod.mean_deg", "deg", "lower", ("poly.Poly.divmod", "mean_deg"), f"wall_s@{R},{E}"),
    ("poly.gcd.calls", "count", "lower", ("poly.Poly.gcd", "calls"), f"wall_s@{R}"),
    ("poly.gcd.total_s", "s", "lower", ("poly.Poly.gcd", "total_s"), f"wall_s@{R}"),
    ("poly.monic_enumerate.calls", "count", "lower", ("poly.monic_enumerate", "calls"), f"wall_s@{E}"),
    ("poly.monic_enumerate.polys", "count", "lower", ("poly.monic_enumerate", "polys"), f"wall_s@{E}"),
    ("poly.monic_enumerate.self_s", "s", "lower", ("poly.monic_enumerate", "self_s"), f"wall_s@{E}"),
    ("poly.is_irreducible.calls", "count", "lower", ("poly.is_irreducible", "calls"), f"wall_s@{E}"),
    ("ratfun.self_s", "s", "lower", ("module", "ratfun"), f"wall_s@{R}"),
    ("ratfun.make.calls", "count", "lower", ("ratfun.RatFun.make", "calls"), f"wall_s@{R}"),
    ("ratfun.make.total_s", "s", "lower", ("ratfun.RatFun.make", "total_s"), f"wall_s@{R}"),
    ("ratfun.make.reduced_ratio", "ratio", "higher", ("ratfun.RatFun.make", "reduced_ratio"), f"wall_s@{R}"),
    ("ratfun.add.calls", "count", "lower", ("ratfun.RatFun.__add__", "calls"), f"wall_s@{R}"),
    ("ratfun.mul.calls", "count", "lower", ("ratfun.RatFun.__mul__", "calls"), f"wall_s@{R}"),
    ("series.self_s", "s", "lower", ("module", "series"), f"wall_s@{R}"),
    ("series.mul.calls", "count", "lower", ("series.TruncSeries.__mul__", "calls"), f"wall_s@{R}"),
    ("series.mul.self_s", "s", "lower", ("series.TruncSeries.__mul__", "self_s"), f"wall_s@{R}"),
    ("series.invert.calls", "count", "lower", ("series.TruncSeries.invert", "calls"), f"wall_s@{R}"),
    ("series.invert.total_s", "s", "lower", ("series.TruncSeries.invert", "total_s"), f"wall_s@{R}"),
    ("series.compose.calls", "count", "lower", ("series.TruncSeries.compose", "calls"), f"wall_s@{R}"),
    ("series.compose.total_s", "s", "lower", ("series.TruncSeries.compose", "total_s"), f"wall_s@{R}"),
    ("cmod.self_s", "s", "lower", ("module", "cmod"), f"wall_s@{R}"),
    ("cmod.carlitz_exp.calls", "count", "lower", ("cmod.carlitz_exp", "calls"), f"wall_s@{R}"),
    ("cmod.carlitz_exp.total_s", "s", "lower", ("cmod.carlitz_exp", "total_s"), f"wall_s@{R}"),
    ("cmod.carlitz_log.total_s", "s", "lower", ("cmod.carlitz_log", "total_s"), f"wall_s@{R}"),
    ("cmod.bernoulli_carlitz.calls", "count", "lower", ("cmod.bernoulli_carlitz", "calls"), f"wall_s@{R}; requests_per_s@{S}"),
    ("cmod.bernoulli_carlitz.total_s", "s", "lower", ("cmod.bernoulli_carlitz", "total_s"), f"wall_s@{R}; requests_per_s@{S}"),
    ("cmod.omega_minpoly.total_s", "s", "lower", ("cmod.omega_minpoly", "total_s"), f"wall_s@{R}"),
    ("quotient.self_s", "s", "lower", ("module", "quotient"), f"latency_p90_ms@{S}"),
    ("quotient.quotient_norm.calls", "count", "lower", ("quotient.quotient_norm", "calls"), f"latency_p90_ms@{S}"),
    ("quotient.quotient_norm.total_s", "s", "lower", ("quotient.quotient_norm", "total_s"), f"latency_p90_ms@{S}"),
    ("quotient.quotient_norm.max_dim", "dim", "lower", ("quotient.quotient_norm", "max_dim"), f"latency_p90_ms@{S}"),
    ("quotient.residue_reduce.calls", "count", "lower", ("quotient.ResidueRing.reduce", "calls"), f"wall_s@{E}"),
    ("quotient.residue_reduce.self_s", "s", "lower", ("quotient.ResidueRing.reduce", "self_s"), f"wall_s@{E}"),
    ("cyclo.self_s", "s", "lower", ("module", "cyclo"), f"latency_p90_ms@{S}"),
    ("cyclo.field_norm.calls", "count", "lower", ("cyclo.field_norm", "calls"), f"latency_p90_ms@{S}; requests_per_s@{S}"),
    ("cyclo.field_norm.total_s", "s", "lower", ("cyclo.field_norm", "total_s"), f"latency_p90_ms@{S}; requests_per_s@{S}"),
    ("cyclo.valuation_at_p.total_s", "s", "lower", ("cyclo.valuation_at_p", "total_s"), f"latency_p90_ms@{S}; requests_per_s@{S}"),
    ("cyclo.CycloField_get.calls", "count", "lower", ("cyclo.CycloField.get", "calls"), f"requests_per_s@{S}"),
    ("coleman.self_s", "s", "lower", ("module", "coleman"), f"latency_p90_ms@{S}"),
    ("coleman.coleman_norm.calls", "count", "lower", ("coleman.coleman_norm", "calls"), f"latency_p90_ms@{S}; requests_per_s@{S}"),
    ("coleman.coleman_norm.total_s", "s", "lower", ("coleman.coleman_norm", "total_s"), f"latency_p90_ms@{S}; requests_per_s@{S}"),
    ("coleman.decompose_by_phi.total_s", "s", "lower", ("coleman.decompose_by_phi", "total_s"), f"latency_p90_ms@{S}; requests_per_s@{S}"),
    ("coleman.eval_at_omega.total_s", "s", "lower", ("coleman.eval_at_omega", "total_s"), f"latency_p90_ms@{S}; requests_per_s@{S}"),
    ("cw.self_s", "s", "lower", ("module", "cw"), f"wall_s@{R}"),
    ("cw.cw_verify.total_s", "s", "lower", ("cw.cw_verify", "total_s"), f"wall_s@{R}"),
    ("cw.dlog_exp_series.total_s", "s", "lower", ("cw.dlog_exp_series", "total_s"), f"wall_s@{R}"),
    ("groupring.self_s", "s", "lower", ("module", "groupring"), f"wall_s@{E}"),
    ("groupring.key.calls", "count", "lower", ("groupring.GroupRing.key", "calls"), f"wall_s@{E}"),
    ("groupring.key.self_s", "s", "lower", ("groupring.GroupRing.key", "self_s"), f"wall_s@{E}"),
    ("lfun.self_s", "s", "lower", ("module", "lfun"), f"wall_s@{E}"),
    ("lfun.stickelberger_coefficient.calls", "count", "lower", ("lfun.stickelberger_coefficient", "calls"), f"wall_s@{E}"),
    ("lfun.stickelberger_coefficient.self_s", "s", "lower", ("lfun.stickelberger_coefficient", "self_s"), f"wall_s@{E}"),
    ("lfun.power_sum.calls", "count", "lower", ("lfun.power_sum", "calls"), f"wall_s@{E}"),
    ("lfun.power_sum.self_s", "s", "lower", ("lfun.power_sum", "self_s"), f"wall_s@{E}"),
    ("lfun.zeta_neg.total_s", "s", "lower", ("lfun.zeta_neg", "total_s"), f"wall_s@{E}"),
]
# cli.<command>.wall_s: one untraced run of the command (of both places for
# stickelberger, summed), scaled by the reference jobs run right before and
# after it.
PER_LAYER += [
    (f"cli.{c}.{stat}", unit, "lower", ("run", f"cli.{c}.{stat}"),
     f"wall_s,peak_rss_mb@{R if c in ('cwverify', 'bc', 'log') else E}")
    for c in CLI_NAMES for stat, unit in (("wall_s", "s"), ("peak_rss_mb", "MB"))
]
PER_LAYER += [
    ("cli.startup_s", "s", "lower", ("run", "cli.startup_s"), f"setup_s@{R},{E}"),
    ("trace.overhead_ratio", "ratio", "lower", ("run", "trace.overhead_ratio"),
     "none: traced wall / untraced wall"),
]

# The layers of the traced breakdown, and the coarse ones among them whose
# spans absorb the kernel work done below them.
LAYERS = ("fq", "poly", "ratfun", "series", "cmod", "quotient", "cyclo",
          "coleman", "cw", "groupring", "lfun")
COARSE_LAYERS = ("series", "cmod", "quotient", "cyclo", "coleman", "cw", "lfun")

PREDICTIONS = {
    "item 2 (batch BC, closed-form exp, counted Stickelberger coefficients)":
        f"moves wall_s on {R} and on the (a) half of {E} (cli.stickelberger.wall_s); "
        f"cli.zetaneg.wall_s unchanged",
    "item 3 (packed F_p[T] kernel)":
        f"moves wall_s on {R} and on {E}(a) (fq/poly self_s); "
        f"{E}(b) unchanged: cli.zetaneg.wall_s and lfun.power_sum.self_s",
    "item 4 (Berkowitz determinant)":
        f"moves latency_p90_ms on {S} only; quotient.quotient_norm.total_s falls",
}

CAPABILITY_LIMITS = [
    {"command": "colemancheck --q 7 --pi T", "exit": 2,
     "reason": "ring determinant limited to 6x6 (norm matrix side 7)"},
    {"command": "colemancheck --q 2 --pi T^3+T+1", "exit": 2,
     "reason": "ring determinant limited to 6x6 (norm matrix side 8)"},
]
