"""Outside-in tracer for the carlitz package.

``install()`` wraps the public functions and methods of each carlitz module
(plus the arithmetic operators of its classes) without touching the package
source.  Every wrapper records call count, inclusive time and self time
(its duration minus the time spent in wrapped callees).  Calls into the
coarse layers (cmod, series, quotient, cyclo, coleman, cw, lfun) are also
recorded as spans with parent ids, and their folded time counts the kernel
work done below them; the hot kernels (fq, poly, ratfun, groupring) keep
aggregates only.
Everything stays in memory until ``Tracer.dump`` writes it once.

Functions are imported by name across the package (``from .cmod import
bernoulli_carlitz`` in cw, lfun and cli), so a wrapped function is rebound in
every ``carlitz.*`` module whose attribute *is* the original object.  Names
that later versions of the package may delete are recorded as absent rather
than failing the run.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import types

MODULES = ("fq", "poly", "ratfun", "series", "cmod", "quotient", "cyclo",
           "coleman", "cw", "groupring", "lfun")
# Coarse layers: each call is kept as a span with its parent, and its folded
# time (duration minus the time in nested coarse spans) says which layer the
# kernel work below it was done for.
SPAN_MODULES = frozenset(("cmod", "series", "quotient", "cyclo", "coleman",
                          "cw", "lfun"))
# Hot kernels: per-call aggregates only.
KERNEL_MODULES = frozenset(MODULES) - SPAN_MODULES
OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__",
             "__pow__", "__mod__")
# FqElem's operators only forward to Fq.add/mul/neg/inv, which are traced;
# wrapping both would double the cost of the hottest calls.
FORWARDING_CLASSES = ("fq.FqElem",)
# Private names traced on purpose, and names whose presence is recorded
# because planned changes to the package may delete or replace them.
EXTRA_NAMES = ("quotient._perm_sign",)
SURFACE = ("quotient.det_ring", "quotient._perm_sign", "quotient.det_field",
           "cmod.bernoulli_carlitz", "lfun.stickelberger_coefficient",
           "poly.monic_enumerate")
THREADS_PARAMS = ("cw.cw_verify", "lfun.zeta_neg", "lfun.stickelberger_series",
                  "selfcheck.run_all")
SPAN_LIMIT = 200_000


class Stat:
    __slots__ = ("calls", "total", "self", "folded", "depth", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.folded = 0.0
        self.depth = 0
        self.extra: dict[str, float] = {}

    def as_dict(self) -> dict:
        out = {"calls": self.calls, "total_s": self.total, "self_s": self.self,
               "folded_s": self.folded}
        out.update(self.extra)
        return out


# -- per-function extras: the layer's work size and useful/attempted ratios --

def _mul_degree(st, args, result):
    a, b = args[0].coeffs, args[1].coeffs
    if a and b:
        st.extra["deg_sum"] = st.extra.get("deg_sum", 0) + len(a) + len(b) - 2


def _divmod_degree(st, args, result):
    st.extra["deg_sum"] = st.extra.get("deg_sum", 0) + max(len(args[0].coeffs) - 1, 0)


def _ratfun_reduced(st, args, result):
    _field, num, den = args[:3]
    dcs = den.coeffs
    if not num.coeffs or (len(dcs) == 1 and dcs[0] == den.ring.one):
        return  # no canonicalising gcd was taken
    st.extra["gcd_attempts"] = st.extra.get("gcd_attempts", 0) + 1
    if len(result.den.coeffs) < len(dcs):
        st.extra["gcd_reduced"] = st.extra.get("gcd_reduced", 0) + 1


def _norm_dim(st, args, result):
    dim = args[0].ring.degree
    if dim > st.extra.get("max_dim", 0):
        st.extra["max_dim"] = dim


def _count_polys(st, args, result):
    st.extra["polys"] = st.extra.get("polys", 0) + len(result)


HOOKS = {
    "poly.Poly.__mul__": _mul_degree,
    "poly.Poly.divmod": _divmod_degree,
    "ratfun.RatFun.make": _ratfun_reduced,
    "quotient.quotient_norm": _norm_dim,
    "poly.monic_enumerate": _count_polys,
}
COUNT_ONLY = ("fq.FqElem.__init__",)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.present: list[str] = []
        self.absent: list[str] = []
        # one entry per open call, plus the root: time spent in wrapped
        # callees, and time spent in coarse-layer callees
        self._child = [0.0]
        self._outer = [0.0]
        self._span_ids = [0]     # open span ids; 0 is the root
        self._next_span = 1
        self._t0 = time.perf_counter()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        st = self.stats.setdefault(name, Stat())
        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                st.calls += 1
                return fn(*args, **kwargs)
            return counted
        layer = name.split(".", 1)[0]
        if layer in KERNEL_MODULES:
            return self._kernel_wrapper(fn, st, HOOKS.get(name))
        return self._span_wrapper(name, fn, st, HOOKS.get(name))

    def _kernel_wrapper(self, fn, st, hook):
        child, outer = self._child, self._outer
        clock = time.perf_counter

        def kernel(*args, **kwargs):
            child.append(0.0)
            outer.append(0.0)
            st.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st.depth -= 1
                inner = child.pop()
                child[-1] += dt
                nested = outer.pop()
                outer[-1] += nested  # kernels are transparent when folding
                st.calls += 1
                st.self += dt - inner
                if not st.depth:
                    st.total += dt
            if hook is not None:
                hook(st, args, result)
            return result
        return kernel

    def _span_wrapper(self, name, fn, st, hook):
        child, outer, ids, spans = self._child, self._outer, self._span_ids, self.spans
        clock = time.perf_counter
        base = self._t0
        tracer = self

        def spanned(*args, **kwargs):
            sid = tracer._next_span
            tracer._next_span += 1
            parent = ids[-1]
            ids.append(sid)
            child.append(0.0)
            outer.append(0.0)
            st.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                st.depth -= 1
                inner = child.pop()
                child[-1] += dt
                nested = outer.pop()
                outer[-1] += dt
                st.calls += 1
                st.self += dt - inner
                st.folded += dt - nested
                if not st.depth:
                    st.total += dt
                ids.pop()
                if len(spans) < SPAN_LIMIT:
                    spans.append((sid, parent, name, t0 - base, t1 - base))
                else:
                    tracer.spans_dropped += 1
            if hook is not None:
                hook(st, args, result)
            return result
        return spanned

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name of the already-importable carlitz package."""
        import carlitz  # noqa: F401  (imports every submodule)
        import carlitz.cli  # noqa: F401
        self._record_surface()
        package = [m for k, m in sorted(sys.modules.items())
                   if k == "carlitz" or k.startswith("carlitz.")]
        for short in MODULES:
            mod = sys.modules.get(f"carlitz.{short}")
            if mod is None:
                self.absent.append(short)
                continue
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if isinstance(obj, types.FunctionType) and (
                        not attr.startswith("_") or name in EXTRA_NAMES):
                    wrapper = self._wrap(name, obj)
                    for m in package:
                        for k, v in list(vars(m).items()):
                            if v is obj:
                                setattr(m, k, wrapper)
                elif isinstance(obj, type) and not attr.startswith("_"):
                    self._install_class(name, obj)

    def _install_class(self, prefix: str, cls: type) -> None:
        for mname, raw in list(vars(cls).items()):
            name = f"{prefix}.{mname}"
            operator = mname in OPERATORS and prefix not in FORWARDING_CLASSES
            if not (operator or name in COUNT_ONLY or not mname.startswith("_")):
                continue
            if isinstance(raw, staticmethod):
                setattr(cls, mname, staticmethod(self._wrap(name, raw.__func__)))
            elif isinstance(raw, classmethod):
                setattr(cls, mname, classmethod(self._wrap(name, raw.__func__)))
            elif isinstance(raw, types.FunctionType):
                setattr(cls, mname, self._wrap(name, raw))

    def _record_surface(self) -> None:
        for name in SURFACE:
            short, attr = name.split(".", 1)
            mod = sys.modules.get(f"carlitz.{short}")
            found = mod is not None and hasattr(mod, attr)
            (self.present if found else self.absent).append(name)
        for name in THREADS_PARAMS:
            short, attr = name.split(".", 1)
            fn = getattr(sys.modules.get(f"carlitz.{short}"), attr, None)
            found = fn is not None and "threads" in inspect.signature(fn).parameters
            (self.present if found else self.absent).append(f"{name}(threads=)")

    # -- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        doc = {
            "stats": {k: st.as_dict() for k, st in sorted(self.stats.items())
                      if st.calls},
            "traced_s": self._child[0],
            "in_coarse_s": self._outer[0],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
            "present": self.present,
            "absent": self.absent,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
