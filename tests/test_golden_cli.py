"""Golden CLI corpus: every output byte of a fixed set of runs is pinned.

Each entry of ``golden_cli.json`` holds an argv, the exit code of
``cli.main(argv)`` run in-process, and the SHA-256 of its stdout and stderr
(and of the written file, for ``--out``).  Any change to any output byte,
a JSON key order or a CSV separator included, fails the test.

Usage errors are pinned only where the program words the message itself;
argparse's own messages change between Python versions and are checked by
``test_cli.test_usage_errors_exit_2`` instead.

Regenerate the pins (and say which pin changed and why in CHANGES.md) with
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from carlitz.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_cli.json")
OUT = "{out}"  # replaced by a temporary file path

THETA = ["--pi", "T^2+T+1", "--S", "inf", "--T", "T"]

INVOCATIONS = [
    ["phi", "--q", "2", "--a", "T^2+T"],
    ["phi", "--q", "3", "--a", "T^2+2"],
    ["phi", "--q", "4", "--a", "T^2+1"],
    ["phi", "--q", "2", "--a", "T^3+1", "--out", OUT],
    ["torsion", "--q", "2", "--pi", "T", "--n", "2"],
    ["torsion", "--q", "3", "--pi", "T+1", "--n", "1"],
    ["minpoly", "--q", "2", "--pi", "T^2+T+1", "--n", "1"],
    ["minpoly", "--q", "9", "--pi", "T", "--n", "1"],
    ["exp", "--q", "2", "--prec", "9"],
    ["exp", "--q", "4", "--prec", "20"],
    ["exp", "--q", "9", "--prec", "12"],
    ["log", "--q", "2", "--prec", "14"],
    ["log", "--q", "4", "--prec", "20"],
    ["factorial", "--q", "3", "--n", "5"],
    ["bc", "--q", "2", "--n", "16"],
    ["bc", "--q", "3", "--n", "10", "--format", "csv"],
    ["bc", "--q", "4", "--n", "8"],
    ["bc", "--q", "9", "--n", "10"],
    ["zetaneg", "--q", "3", "--k", "12"],
    ["zetaneg", "--q", "2", "--k", "8", "--format", "csv"],
    ["zetapos", "--q", "2", "--k", "2", "--dmax", "2", "--prec", "6"],
    ["zetapos", "--q", "3", "--k", "2", "--dmax", "1", "--prec", "4"],
    ["zetavadic", "--q", "3", "--pi", "T", "--k", "3"],
    ["zetavadic", "--q", "2", "--pi", "T^2+T+1", "--k", "3"],
    ["stickelberger", "--q", "2", "--level", "1", "--udeg", "12"] + THETA,
    ["stickelberger", "--q", "3", "--pi", "T", "--level", "2", "--S", "inf",
     "--S", "T+1", "--T", "T+2", "--udeg", "9"],
    # an auxiliary place of degree 2, and two places applied in turn
    ["stickelberger", "--q", "2", "--pi", "T", "--level", "2", "--S", "inf",
     "--T", "T^2+T+1", "--udeg", "10"],
    ["stickelberger", "--q", "3", "--pi", "T^2+1", "--level", "1", "--S",
     "inf", "--T", "T", "--T", "T+1", "--udeg", "10"],
    ["project", "--q", "2", "--level", "2", "--m", "1"] + THETA,
    ["charval", "--q", "2", "--level", "1", "--order", "3", "--gen", "T=1"]
    + THETA,
    ["colemancheck", "--q", "2"],
    ["colemancheck", "--q", "7", "--pi", "T", "--trials", "2"],
    ["colemancheck", "--q", "4", "--pi", "T", "--trials", "2"],
    ["colemancheck", "--q", "2", "--pi", "T^3+T+1", "--trials", "2"],
    ["colemancheck", "--q", "3", "--pi", "T^2+1", "--trials", "2"],
    # the torsion norm at Q = 5, and at Q = 25 through a degree-2 pi, so
    # past deg p = Q on the reduction path
    ["colemancheck", "--q", "5", "--pi", "T", "--trials", "3"],
    ["colemancheck", "--q", "5", "--pi", "T^2+2", "--trials", "2"],
    # deep runs: the norms at Q = q >= 27, the high-degree Henrici
    # inversion and the F_{p^m}[T] loops
    ["colemancheck", "--q", "27", "--pi", "T"],
    ["colemancheck", "--q", "31", "--pi", "T"],
    ["colemancheck", "--q", "32", "--pi", "T"],
    ["colemancheck", "--q", "64", "--pi", "T"],
    # the first pinned prime above 31, with three trials
    ["colemancheck", "--q", "53", "--pi", "T", "--trials", "3"],
    ["bc", "--q", "2", "--n", "96"],
    ["cwverify", "--q", "3", "--a", "T", "--b", "1", "--kmax", "96"],
    ["cwverify", "--q", "4", "--a", "T", "--b", "1", "--kmax", "96"],
    ["bc", "--q", "9", "--n", "60"],
    ["exp", "--q", "8", "--prec", "200"],
    # the series loops over F_q(T) with nested denominators
    ["cwverify", "--q", "5", "--a", "T", "--b", "1", "--kmax", "128"],
    ["cwverify", "--q", "2", "--a", "T", "--b", "T+1", "--kmax", "64"],
    ["bc", "--q", "7", "--n", "200"],
    ["log", "--q", "3", "--prec", "81"],
    # Coates-Wiles rows over F_9(T) on the Poly kernel, with gcd(a, b) = T,
    # with an index of degree 2, and for a constant unit (dlog 0)
    ["cwverify", "--q", "9", "--a", "T", "--b", "1", "--kmax", "40"],
    ["cwverify", "--q", "2", "--a", "T^2", "--b", "T", "--kmax", "24"],
    ["cwverify", "--q", "3", "--a", "T^2+1", "--b", "T+2", "--kmax", "24"],
    ["cwverify", "--q", "3", "--a", "2", "--b", "1", "--kmax", "12"],
    ["cwverify", "--q", "2", "--a", "T", "--b", "1", "--kmax", "8"],
    ["cwverify", "--q", "2", "--a", "T", "--b", "T+1", "--kmax", "12"],
    ["cwverify", "--q", "3", "--a", "T", "--b", "T+1", "--kmax", "8"],
    ["cwverify", "--q", "4", "--a", "T", "--b", "T+1", "--kmax", "6"],
    ["okada", "--q", "2", "--pi", "T^3+T+1"],
    ["okada", "--q", "3", "--pi", "T^3+2*T+1", "--format", "csv"],
    ["selftest", "--q", "2"],
    ["selftest", "--q", "3"],
    ["selftest", "--q", "5"],
    # exit 2: usage errors worded by the program
    ["bc", "--q", "2", "--n", "-1"],
    ["bc", "--q", "6", "--n", "2"],
    ["phi", "--q", "2", "--a", "T+%"],
    ["phi", "--q", "2", "--a", "T", "--format", "csv"],
    ["stickelberger", "--q", "2", "--pi", "T^2+T+1", "--level", "1",
     "--T", "T"],
    ["project", "--q", "2", "--level", "1", "--m", "2"] + THETA,
    ["stickelberger", "--q", "4", "--pi", "T", "--level", "1", "--S", "inf",
     "--T", "T+1"],
    ["minpoly", "--q", "2", "--pi", "T^2+1", "--n", "1"],
    ["stickelberger", "--q", "2", "--pi", "T^2+T+1", "--level", "1", "--S",
     "inf", "--udeg", "12"],
    ["colemancheck", "--q", "2", "--pi", "0"],
    ["colemancheck", "--q", "2", "--trials", "-1"],
    ["zetaneg", "--q", "3", "--k", "0"],
    # exit 3: the theta series fails its tail check at too small a --udeg
    ["stickelberger", "--q", "2", "--level", "1", "--udeg", "3"] + THETA,
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_one(argv: list[str], tmpdir: str) -> dict:
    out_path = os.path.join(tmpdir, "out.txt")
    real = [out_path if a == OUT else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(real)
    pin = {"argv": argv, "exit": rc, "stdout": _sha(out.getvalue()),
           "stderr": _sha(err.getvalue())}
    if OUT in argv:
        with open(out_path) as fh:
            pin["file"] = _sha(fh.read())
        os.remove(out_path)
    return pin


def test_golden_cli(tmp_path):
    with open(GOLDEN) as fh:
        pins = json.load(fh)
    assert [p["argv"] for p in pins] == INVOCATIONS
    for pin in pins:
        assert run_one(pin["argv"], str(tmp_path)) == pin, pin["argv"]


def regenerate() -> None:
    """Rewrite the pins; name on stderr each argv whose pin is new or
    changed, so that a diff adding pins shows that no old pin moved."""
    old = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as fh:
            old = {json.dumps(p["argv"]): p for p in json.load(fh)}
    with tempfile.TemporaryDirectory() as tmpdir:
        pins = [run_one(argv, tmpdir) for argv in INVOCATIONS]
    with open(GOLDEN, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(p) for p in pins) + "\n]\n")
    for pin in pins:
        was = old.get(json.dumps(pin["argv"]))
        if was != pin:
            print(f"{'changed' if was else 'added'}: "
                  f"{' '.join(pin['argv'])}", file=sys.stderr)
    print(f"wrote {len(pins)} pins to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
