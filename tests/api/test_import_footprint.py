"""A deployment loads only the layers it runs.

``import repro`` brings in the language, the engine, the in-memory runtime
and the memory store.  The TCP transport (asyncio, ssl, sockets), its
framing, the gossip overlay and SQLite load when something names them:
``system().transport("tcp")``, ``system().storage("sqlite", ...)``, or a
package name that resolves from its module on first use
(:mod:`repro.lazy`).
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parent.parent)

#: Modules an in-memory deployment's process never loads.
ON_DEMAND = (
    "asyncio", "ssl", "socket", "selectors", "sqlite3",
    "repro.net.tcp", "repro.net.framing", "repro.store.sqlite",
    "repro.net.frames", "repro.net.gossip", "repro.net.membership",
    "repro.net.node", "repro.net.sim",
)

PACKAGES = ("repro.api", "repro.net", "repro.store")


def fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter and return the JSON it prints."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def test_importing_the_packages_loads_no_layer_on_demand():
    report = fresh(f"""
import json, sys
before = set(sys.modules)
import repro, repro.api, repro.store, repro.net.events
loaded = set(sys.modules) - before
print(json.dumps({{
    "loaded": sorted(loaded & set({ON_DEMAND!r})),
    "undirected": {{name: sorted(set(sys.modules[name].__all__) - set(dir(sys.modules[name])))
                    for name in {PACKAGES!r}}},
}}))
""")
    assert report["loaded"] == []
    # dir() lists every exported name before any of them is first read
    assert report["undirected"] == {name: [] for name in PACKAGES}


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_is_its_modules_own_object(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        value = getattr(module, name)
        home = getattr(value, "__module__", None)
        if home is not None and home.startswith("repro."):
            assert value is getattr(sys.modules[home], name), f"{package}.{name}"
        else:
            assert any(vars(other).get(name) is value for key, other in sys.modules.items()
                       if key.startswith(package + ".")), f"{package}.{name}"
        assert name in dir(module)


def test_an_unknown_name_is_still_an_attribute_error():
    for package in PACKAGES:
        with pytest.raises(AttributeError, match="no attribute 'Nothing'"):
            getattr(importlib.import_module(package), "Nothing")


def test_a_durable_build_loads_sqlite(tmp_path):
    report = fresh(f"""
import json, sys
from repro.api import system
deployment = system().storage("sqlite", path={str(tmp_path)!r}).peer("a").build()
loaded = sorted(name for name in ("sqlite3", "repro.store.sqlite") if name in sys.modules)
deployment.close()
print(json.dumps({{"loaded": loaded}}))
""")
    assert report["loaded"] == ["repro.store.sqlite", "sqlite3"]
