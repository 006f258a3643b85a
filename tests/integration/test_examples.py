"""Each example prints exactly its pinned ``examples/<name>.out``, under
more than one hash seed: a set iterated into the output would show here.

The pinned files are the default (memory) backend's output: the SQLite
backend's statistics order some bodies differently, which moves the
``substitutions_explored`` total, so the examples run without a backend
override whatever the suite itself runs under."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES = ("quickstart", "personal_data_hub", "wepic_demo")


@pytest.mark.parametrize("seed", ("0", "1"))
@pytest.mark.parametrize("example", EXAMPLES)
def test_example_prints_its_pinned_output(example, seed):
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
    env.pop("REPRO_STORE_BACKEND", None)
    run = subprocess.run([sys.executable, str(ROOT / "examples" / f"{example}.py")],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (ROOT / "examples" / f"{example}.out").read_text()
