"""Each example prints exactly its pinned ``examples/<name>.out``, under
more than one hash seed: a set iterated into the output would show here.
It prints it again when run a second time in the same interpreter: an id
drawn from a process-wide counter would show there.

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


#: Runs the example named on its command line twice in this interpreter and
#: prints the second run's output after the first's, split by a marker.
TWICE = """
import contextlib, io, runpy, sys
for run in range(2):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        runpy.run_path(sys.argv[1], run_name="__main__")
    print(buffer.getvalue(), end="" if run else "\\f")
"""


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_prints_the_same_twice_in_one_interpreter(example):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("REPRO_STORE_BACKEND", None)
    run = subprocess.run([sys.executable, "-c", TWICE, str(ROOT / "examples" / f"{example}.py")],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    first, second = run.stdout.split("\f")
    assert first and second == first
