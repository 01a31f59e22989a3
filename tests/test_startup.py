"""The CLI's import footprint.

Every `python -m carlitz` run pays for the modules `carlitz.cli` imports,
and a stdlib module without cached bytecode is compiled from source on
each run.  `dataclasses` alone pulls in inspect, ast, dis and tokenize;
`typing` is larger still, and `random` loads `_sha512` and `bisect`.
Run under `python -S` so that no `site` hook preloads modules and hides
what the package itself imports.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing",
         "random")

PROBE = """
import json, sys
before = set(sys.modules)
import carlitz.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_import_skips_heavy_stdlib_modules():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded = set(json.loads(out))
    assert "carlitz.cli" in loaded
    assert loaded.isdisjoint(HEAVY), sorted(loaded.intersection(HEAVY))
