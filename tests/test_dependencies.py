"""The package runs on the standard library alone."""

import json
import os
import subprocess
import sys

import repro

IMPORT_EVERYTHING = """
import importlib, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
print(json.dumps(sorted({name.partition(".")[0] for name in sys.modules})))
"""


def test_every_module_imports_only_the_standard_library():
    # A fresh interpreter without ``site``: nothing is loaded but what the
    # imports themselves pull in.
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    completed = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_EVERYTHING, source_root],
        capture_output=True, text=True, check=True)
    loaded = json.loads(completed.stdout)
    allowed = set(sys.stdlib_module_names) | {"repro", "__main__"}
    assert [name for name in loaded if name not in allowed] == []
