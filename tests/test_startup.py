"""The CLI's import footprint.

Every `python -m carlitz` run pays for the modules `carlitz.cli` imports,
and a stdlib module without cached bytecode is compiled from source on
each run.  `dataclasses` alone pulls in inspect, ast, dis and tokenize;
`typing` is larger still, and `random` loads `_sha512` and `bisect`.
Nor may the import build a field (a field's tables are built with the
field) or fill the torsion-norm cache.
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
from carlitz import cyclo
from carlitz.fq import Fq
print(json.dumps({"loaded": sorted(set(sys.modules) - before),
                  "fields": Fq.get.cache_info().currsize,
                  "norms": cyclo._norm_poly.cache_info().currsize}))
"""


def test_cli_import_skips_heavy_stdlib_modules():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    probe = json.loads(out)
    loaded = set(probe["loaded"])
    assert "carlitz.cli" in loaded
    assert loaded.isdisjoint(HEAVY), sorted(loaded.intersection(HEAVY))
    # no field, and so no field's tables, is built at import
    assert probe["fields"] == 0
    # nor is a torsion norm computed, and so memoized, at import
    assert probe["norms"] == 0
