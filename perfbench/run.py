"""The carlitz benchmark.

    python3 perfbench/run.py --workload {reciprocity,enumeration,session}
                             --seed N --seconds S --trace {0,1} [--toy]

Run from the root of a source checkout; the package is used straight from
``src`` and nothing is written outside ``.bench_build/`` (bytecode cache,
stderr logs, trace files).

``--trace 0`` measures the end-to-end metrics on untraced processes for about
S seconds.  Every time it reports is scaled to one machine speed with the
reference job of ``calib.py``, run right before and after every child process
and every ``calib.INTERVAL_S`` seconds inside it, because other tenants of a
shared machine change a process's speed by up to a half from one second to
the next.  ``--trace 1`` runs one fixed pass untraced and once more under the
outside-in tracer (``tracer.py``) and reports the per-layer metrics; a fixed
pass makes every count repeat exactly for a given seed.  Either way
every output is checked: exit codes, the library's own verdicts, pinned
SHA-256 digests (``digests.json``) and, when tracing, byte-identity of the
traced and untraced outputs.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
PYCACHE = WORK / "pycache"
sys.pycache_prefix = str(PYCACHE)

import calib  # noqa: E402  (after the pycache prefix is set)
import spec  # noqa: E402

PY = sys.executable
STARTUP_SAMPLES = 5
# every speed sample taken in this run, for the summary line
SPEED_SAMPLES: list[float] = []
SESSION_REPEATS = 3
TRACE_REQUESTS = 100
TOY_TRACE_REQUESTS = 10


# -- child processes ---------------------------------------------------------------

class Child:
    """One finished child process: exit code, stdout, start and end on the
    ``time.perf_counter`` clock, wall time and peak RSS (from os.wait4, so
    the figure is this child's own, not a running maximum over all
    children)."""

    def __init__(self, rc, out, start, end, rss_mb, ready_s=None):
        self.rc, self.out, self.start, self.end = rc, out, start, end
        self.wall, self.rss_mb, self.ready_s = end - start, rss_mb, ready_s


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    return env


def run_child(argv: list[str], log_name: str, ready: bool = False) -> Child:
    """Run argv to completion.  With ``ready`` the child announces the end of
    its set-up with a ``ready`` line, whose arrival time is recorded."""
    with open(WORK / f"{log_name}.stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT)
        ready_s = None
        with proc.stdout:
            if ready:
                line = proc.stdout.readline()
                if line == b"ready\n":
                    ready_s = time.perf_counter() - t0
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out, t0, end, usage.ru_maxrss / 1024, ready_s)


def timed_child(argv: list[str], log_name: str, samples_file: Path | None = None,
                ready: bool = False) -> tuple[Child, "calib.Clock"]:
    """Run argv between two reference jobs.  The returned clock scales any
    interval of the child's run, from those two samples and from the ones the
    child wrote to ``samples_file``."""
    before = calib.reference()
    child = run_child(argv, log_name, ready)
    after = calib.reference()
    samples = [before, after]
    if samples_file is not None and samples_file.exists():
        samples += json.loads(samples_file.read_text())
        samples_file.unlink()
    SPEED_SAMPLES.extend(d for _, d in samples)
    return child, calib.Clock(samples)


def stderr_tail(log_name: str) -> str:
    text = (WORK / f"{log_name}.stderr").read_text(errors="replace").strip()
    return text.splitlines()[-1] if text else ""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def prewarm_bytecode() -> None:
    """Compile the package into the benchmark's own bytecode cache, so that
    set-up times measure startup rather than compilation."""
    subprocess.run([PY, "-m", "compileall", "-q", str(SRC / "carlitz"), str(HERE)],
                   env=child_env(), cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)


# -- correctness -----------------------------------------------------------------

def cli_verdict(name: str, argv: list[str], out: bytes) -> str | None:
    """The library's own verdict on a CLI output; None when it holds."""
    doc = json.loads(out)
    if name == "cwverify":
        if not doc["rows"] or not all(r["equal"] for r in doc["rows"]):
            return "cwverify: a row is not equal"
    elif name == "bc":
        q = doc["q"]
        for r in doc["rows"]:
            if r["n"] > 0 and r["n"] % (q - 1) and r["bc"] != "0":
                return f"bc: BC_{r['n']} should vanish for q={q}"
    elif name == "log":
        q, powers = doc["q"], set()
        p = 1
        while p < doc["prec"]:
            powers.add(p)
            p *= q
        if {t["e"] for t in doc["terms"]} != powers:
            return "log: terms are not exactly at z^(q^i)"
    elif name == "stickelberger":
        at_one: dict[str, int] = {}
        for c in doc["coeffs"]:
            for t in c["terms"]:
                at_one[t["rep"]] = at_one.get(t["rep"], 0) + t["c"]
        if any(at_one.values()):
            return "stickelberger: Theta(1) is not zero"
    elif name == "zetaneg":
        q = doc["q"]
        for r in doc["rows"]:
            if r["k"] % (q - 1) == 0 and r["value"] != "0":
                return f"zetaneg: trivial zero missing at k={r['k']}"
    return None


class Checker:
    def __init__(self) -> None:
        pinned = json.loads((HERE / "digests.json").read_text())
        self.cli_pins = pinned["cli"]
        self.session_pins = pinned["session"]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.errors.append(reason)

    def cli(self, name: str, argv: list[str], child: Child, log_name: str) -> None:
        self.attempted += 1
        key = " ".join(argv)
        if child.rc != 0:
            return self.fail(f"{key}: exit {child.rc}: {stderr_tail(log_name)}")
        try:
            bad = cli_verdict(name, argv, child.out)
        except (ValueError, KeyError, TypeError) as ex:
            bad = f"unreadable output ({ex})"
        if bad:
            return self.fail(f"{key}: {bad}")
        pin = self.cli_pins.get(key)
        if pin is not None and pin != sha256(child.out):
            return self.fail(f"{key}: stdout digest differs from the pinned one")

    def session(self, result: dict) -> None:
        self.attempted += len(result["keys"])
        self.failed += result["failed"]
        self.errors += result["errors"]
        for key, d in result["digests"].items():
            pin = self.session_pins.get(key)
            if pin is not None and pin != d:
                self.fail(f"{key}: result digest differs from the pinned one")


# -- workloads -----------------------------------------------------------------

def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def latency_metrics(latencies: list[float]) -> dict:
    """End-to-end figures from the scaled latency of each distinct request."""
    return {
        "requests_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * percentile(latencies, 90),
    }


def startup_samples(tag: str) -> tuple[list[float], list[float]]:
    """Scaled times of a fresh interpreter importing carlitz.cli, and the
    peak RSS of each.  The speed is sampled inside the child too: it can
    change more than once in the half second an import takes."""
    times, rss = [], []
    samples_file = WORK / f"{tag}.samples.json"
    for i in range(STARTUP_SAMPLES):
        log = f"{tag}-startup{i}"
        c, clock = timed_child(
            [PY, str(HERE / "launch.py"), "--samples", str(samples_file)], log, samples_file)
        if c.rc != 0:
            raise SystemExit(f"importing carlitz.cli failed: {stderr_tail(log)}")
        times.append(clock.scaled(c.start, c.end))
        rss.append(c.rss_mb)
    return times, rss


def cli_run(args, check: Checker) -> dict:
    """Passes over the workload's commands until the time is up.  A command's
    latency is the mean of its scaled times over the passes: a run has only
    two to four passes, and their mean varies less than their median."""
    cmds = spec.cli_commands(args.workload, random.Random(args.seed), args.toy)
    start = time.perf_counter()
    startup, rss = startup_samples(args.workload)
    times: dict[str, list[float]] = {" ".join(argv): [] for _, argv in cmds}
    samples_file = WORK / f"{args.workload}.samples.json"
    while True:
        t0 = time.perf_counter()
        for name, argv in cmds:
            log = f"{args.workload}-{name}"
            c, clock = timed_child(
                [PY, str(HERE / "launch.py"), "--samples", str(samples_file), *argv],
                log, samples_file)
            check.cli(name, argv, c, log)
            times[" ".join(argv)].append(clock.scaled(c.start, c.end))
            rss.append(c.rss_mb)
        # the last pass ends about as far after the deadline as the others before it
        end = time.perf_counter()
        if end - start + (end - t0) / 2 >= args.seconds:
            break
    per_cmd = [statistics.fmean(t) for t in times.values()]
    out = latency_metrics(per_cmd)
    out.update(setup_s=statistics.median(startup), peak_rss_mb=max(rss),
               wall_s=sum(per_cmd))
    return out


def session_child(args, budget: list[str], trace_out: str | None = None,
                  timed: bool = False):
    """Run one session; with ``timed`` it samples the machine's speed and a
    clock that scales its intervals is returned too."""
    argv = [PY, str(HERE / "session.py"), str(args.seed), *budget]
    if trace_out:
        argv += ["--trace-out", trace_out]
    if timed:
        argv += ["--samples"]
    log = f"session{'-traced' if trace_out else ''}"
    if timed:
        c, clock = timed_child(argv, log, ready=True)
    else:
        c, clock = run_child(argv, log, ready=True), None
    if c.rc != 0 or c.ready_s is None:
        raise SystemExit(f"session failed: {stderr_tail(log)}")
    result = json.loads(c.out)
    if timed:
        clock = calib.Clock(clock.samples + result["samples"])
        SPEED_SAMPLES.extend(d for _, d in result["samples"])
    return c, result, clock


def session_run(args, check: Checker) -> dict:
    """SESSION_REPEATS fresh sessions serve the same seeded request sequence;
    the first for its share of the time, the others for as many requests.
    Each runs in a new process with its own hash seed and the same cache
    state, so repeats measure no extra caching and a result that depends on
    the process shows up as a disagreement.  A request's latency is the
    median of its scaled latencies over the repeats."""
    setups, rss, results, latencies = [], [], [], []
    budget = ["--seconds", str(args.seconds / SESSION_REPEATS)]
    for _ in range(SESSION_REPEATS):
        c, result, clock = session_child(args, budget, timed=True)
        check.session(result)
        if results and (result["keys"] != results[0]["keys"]
                        or result["digests"] != results[0]["digests"]):
            check.fail("session: fresh repeats of one seed disagree")
        setups.append(clock.scaled(c.start, result["ready_at"]))
        rss.append(c.rss_mb)
        results.append(result)
        latencies.append([clock.scaled(t0, t1) for t0, t1 in result["spans"]])
        budget = ["--count", str(len(result["keys"]))]
    per_request = [statistics.median(lat) for lat in zip(*latencies)]
    out = latency_metrics(per_request)
    # scaled time of a pass of 100 requests
    out.update(setup_s=statistics.median(setups), peak_rss_mb=max(rss),
               wall_s=100 * sum(per_request) / len(per_request))
    return out


# -- traced runs -----------------------------------------------------------------

def merge_traces(paths: list[Path]) -> dict:
    stats: dict[str, dict] = {}
    present, absent, spans, dropped = set(), set(), 0, 0
    traced_s = in_coarse_s = 0.0
    for path in paths:
        doc = json.loads(path.read_text())
        for name, st in doc["stats"].items():
            acc = stats.setdefault(name, {})
            for k, v in st.items():
                acc[k] = max(acc.get(k, 0), v) if k == "max_dim" else acc.get(k, 0) + v
        present.update(doc["present"])
        absent.update(doc["absent"])
        spans += len(doc["spans"])
        dropped += doc["spans_dropped"]
        traced_s += doc["traced_s"]
        in_coarse_s += doc["in_coarse_s"]
    return {"stats": stats, "present": sorted(present), "absent": sorted(absent),
            "spans": spans, "spans_dropped": dropped, "traced_s": traced_s,
            "in_coarse_s": in_coarse_s}


def breakdown(trace: dict) -> tuple[dict, dict]:
    """Two shares of the traced time: each layer's self time, and each coarse
    layer's span time with the kernel work below it folded in (``outside
    coarse layers`` is kernel work called from the CLI front end or the
    benchmark itself)."""
    stats, total = trace["stats"], trace["traced_s"] or 1.0
    own, folded = {}, {}
    for layer in spec.LAYERS:
        prefix = layer + "."
        mine = [st for name, st in stats.items() if name.startswith(prefix)]
        own[layer] = sum(st["self_s"] for st in mine) / total
        if layer in spec.COARSE_LAYERS:
            folded[layer] = sum(st["folded_s"] for st in mine) / total
    folded["outside coarse layers"] = (trace["traced_s"] - trace["in_coarse_s"]) / total
    return own, folded


def layer_value(source: tuple, trace: dict, run_values: dict) -> float:
    stats = trace["stats"]
    if source[0] == "run":
        return run_values.get(source[1], 0.0)
    if source[0] == "module":
        prefix = source[1] + "."
        return sum(st["self_s"] for name, st in stats.items() if name.startswith(prefix))
    st = stats.get(source[0], {})
    key = source[1]
    if key == "mean_deg":
        return st.get("deg_sum", 0) / st["calls"] if st.get("calls") else 0.0
    if key == "reduced_ratio":
        tried = st.get("gcd_attempts", 0)
        return st.get("gcd_reduced", 0) / tried if tried else 0.0
    return st.get(key, 0)


def traced_cli(args, check: Checker, trace_dir: Path) -> tuple[dict, list[Path]]:
    cmds = spec.cli_commands(args.workload, random.Random(args.seed), args.toy)
    startup, _ = startup_samples(args.workload)
    values = {"cli.startup_s": statistics.median(startup)}
    plain_total = traced_total = 0.0
    paths = []
    for i, (name, argv) in enumerate(cmds):
        log = f"{args.workload}-{name}"
        plain, clock = timed_child([PY, "-m", "carlitz", *argv], log)
        check.cli(name, argv, plain, log)
        out = trace_dir / f"{i}-{name}.json"
        traced = run_child([PY, str(HERE / "launch.py"), "--trace", str(out), *argv],
                           log + "-traced")
        check.attempted += 1
        if traced.rc != plain.rc or traced.out != plain.out:
            check.fail(f"{' '.join(argv)}: traced stdout differs from untraced")
        wall, rss = f"cli.{name}.wall_s", f"cli.{name}.peak_rss_mb"
        values[wall] = values.get(wall, 0.0) + clock.scaled(plain.start, plain.end)
        values[rss] = max(values.get(rss, 0.0), plain.rss_mb)
        plain_total += plain.wall
        traced_total += traced.wall
        paths.append(out)
    values["trace.overhead_ratio"] = traced_total / plain_total
    return values, paths


def traced_session(args, check: Checker, trace_dir: Path) -> tuple[dict, list[Path]]:
    count = ["--count", str(TOY_TRACE_REQUESTS if args.toy else TRACE_REQUESTS)]
    out = trace_dir / "session.json"
    _, plain, _ = session_child(args, count)
    _, traced, _ = session_child(args, count, trace_out=str(out))
    check.session(plain)
    check.attempted += 1
    if traced["digests"] != plain["digests"] or traced["failed"] != plain["failed"]:
        check.fail("session: traced results differ from untraced")
    return {"trace.overhead_ratio": traced["loop_s"] / plain["loop_s"]}, [out]


def trace_run(args, check: Checker) -> dict:
    trace_dir = WORK / "trace" / f"{args.workload}-{args.seed}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    if args.workload == "session":
        values, paths = traced_session(args, check, trace_dir)
    else:
        values, paths = traced_cli(args, check, trace_dir)
    trace = merge_traces(paths)
    trace["self_share"], trace["folded_share"] = breakdown(trace)
    (trace_dir / "summary.json").write_text(json.dumps(trace, indent=1))
    for label, key in (("self time", "self_share"),
                       ("kernels folded into coarse layers", "folded_share")):
        print(f"layer share of traced time, {label}:",
              ", ".join(f"{k} {v:.1%}" for k, v in trace[key].items()))
    if trace["absent"]:
        print("absent from this version:", ", ".join(trace["absent"]))
    return {name: layer_value(source, trace, values)
            for name, _unit, _better, source, _moves in spec.PER_LAYER}


# -- entry point -------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="tiny inputs, for the benchmark's own smoke test")
    args = ap.parse_args(argv)
    if not (SRC / "carlitz" / "cli.py").is_file():
        sys.stderr.write(f"error: carlitz sources not found under {SRC}\n")
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    prewarm_bytecode()
    check = Checker()
    if args.trace:
        values = trace_run(args, check)
        units = {name: unit for name, unit, _b, _s, _m in spec.PER_LAYER}
    else:
        run = session_run if args.workload == "session" else cli_run
        values = run(args, check)
        values["ok_ratio"] = 1 - check.failed / max(check.attempted, 1)
        units = {name: unit for name, unit, _b, _bound in spec.END_TO_END}
    for reason in check.errors[:10]:
        sys.stderr.write(f"failure: {reason}\n")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:>14.6g} {m['unit']}")
    print(f"fail_ratio {check.failed}/{check.attempted}")
    if SPEED_SAMPLES:
        print(f"reference job: median {statistics.median(SPEED_SAMPLES):.4f} s over "
              f"{len(SPEED_SAMPLES)} samples (nominal {calib.NOMINAL_S} s)")
    print(json.dumps({"correct": check.failed == 0, "attempted": check.attempted,
                      "failed": check.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
