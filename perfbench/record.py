"""Pin the benchmark's reference outputs and record its baseline.

    python3 perfbench/record.py digests    # rewrites perfbench/digests.json
    python3 perfbench/record.py baseline   # rewrites perfbench/baseline.json

``digests`` runs every CLI input a seed can pick and the first requests of
the seed-0 session, and pins the SHA-256 of each output.  Run it
only on a commit whose outputs are known good: the benchmark then fails any
later commit whose output bytes differ.

``baseline`` runs each workload with seed 0, untraced and traced, and writes
the measured metrics and the traced breakdown together with the workload
reasons, the layer -> end-to-end mapping, the predictions for the planned
changes and the known capability limits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import run
import spec

PIN_REQUESTS = 1000  # a 30 s run serves about 350


def pin_digests() -> None:
    check = run.Checker()
    cli = {}
    for workload in ("reciprocity", "enumeration"):
        argvs = {}
        for pair in spec.CW_PAIRS if workload == "reciprocity" else spec.AUX_PLACES:
            rng = _Fixed(pair)
            for name, argv in spec.cli_commands(workload, rng):
                argvs[" ".join(argv)] = (name, argv)
        for key, (name, argv) in sorted(argvs.items()):
            c = run.run_child([run.PY, "-m", "carlitz", *argv], "pin")
            check.cli(name, argv, c, "pin")
            cli[key] = run.sha256(c.out)
            print(f"{c.wall:7.2f}s {key}")
    _, result, _ = run.session_child(argparse.Namespace(seed=0), ["--count", str(PIN_REQUESTS)])
    check.session(result)
    session = result["digests"]
    if check.failed:
        raise SystemExit("refusing to pin failing outputs:\n" + "\n".join(check.errors))
    doc = {"cli": cli, "session": dict(sorted(session.items()))}
    (run.HERE / "digests.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"pinned {len(cli)} CLI outputs and {len(session)} session results")


class _Fixed:
    """Stands in for the seeded generator: always picks the given input."""

    def __init__(self, value):
        self.value = value

    def choice(self, _options):
        return self.value

    def shuffle(self, _seq):
        pass


def run_benchmark(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [run.PY, str(run.HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "30", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: benchmark reports incorrect output\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def capability_limits() -> list[dict]:
    out = []
    for limit in spec.CAPABILITY_LIMITS:
        c = run.run_child([run.PY, "-m", "carlitz", *limit["command"].split()], "limit")
        out.append(dict(limit, observed_exit=c.rc, observed_stderr=run.stderr_tail("limit")))
    return out


def record_baseline() -> None:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip()
    doc = {
        "source_commit": commit,
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "seed": 0,
        "seconds": 30,
        "workloads": spec.WORKLOADS,
        "end_to_end": {},
        "per_layer": {},
        "breakdown": {},
        "layer_to_end_to_end": {name: moves for name, _u, _b, _s, moves in spec.PER_LAYER},
        "predictions": spec.PREDICTIONS,
        "capability_limits": capability_limits(),
    }
    for workload in spec.WORKLOADS:
        doc["end_to_end"][workload] = run_benchmark(workload, 0)
        doc["per_layer"][workload] = run_benchmark(workload, 1)
        summary = json.loads((run.WORK / "trace" / f"{workload}-0" / "summary.json").read_text())
        doc["breakdown"][workload] = {k: summary[k] for k in
                                      ("self_share", "folded_share", "absent", "present")}
        print(workload, json.dumps(doc["end_to_end"][workload]))
    (run.HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")


def main() -> int:
    run.WORK.mkdir(parents=True, exist_ok=True)
    run.prewarm_bytecode()
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what == "digests":
        pin_digests()
    elif what == "baseline":
        record_baseline()
    else:
        sys.stderr.write(__doc__)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
