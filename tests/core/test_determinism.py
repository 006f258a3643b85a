"""A seeded run does the same work in every process.

Delete-and-rederive probes each over-deleted fact for a surviving
derivation and stops at the first one it meets, so the work of a delete
depends on the order the over-deleted set iterates in.  That order is a
function of the facts' hashes: under a fixed ``PYTHONHASHSEED`` two
processes must count the same substitutions.
"""

import os
import subprocess
import sys

import repro

SOURCE = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Chains with forward shortcuts (most pairs derive several ways) joined by
#: bridges, then every bridge deleted again: each delete over-deletes the
#: pairs it carried and probes them in the over-deleted set's order.
SCENARIO = """
from repro.core.engine import WebdamLogEngine
from repro.core.facts import Fact

engine = WebdamLogEngine("hub", storage="memory")
engine.load_program('''
collection extensional persistent edge@hub(src, dst);
collection extensional persistent bridge@hub(src, dst);
collection intensional reach@hub(src, dst);
rule reach@hub($x, $y) :- edge@hub($x, $y);
rule reach@hub($x, $y) :- bridge@hub($x, $y);
rule reach@hub($x, $z) :- reach@hub($x, $y), edge@hub($y, $z);
rule reach@hub($x, $z) :- reach@hub($x, $y), bridge@hub($y, $z);
''')
for chain in range(4):
    for index in range(9):
        engine.insert_fact(Fact("edge", "hub", (f"c{chain}n{index}", f"c{chain}n{index + 1}")))
        if index % 3 == 0 and index + 3 < 10:
            engine.insert_fact(Fact("edge", "hub", (f"c{chain}n{index}", f"c{chain}n{index + 3}")))
bridges = [(f"c{a}n{k}", f"c{b}n{l}") for a in (0, 1) for b in (2, 3)
           for k, l in ((5, 2), (7, 1), (9, 4))]
for bridge in bridges:
    engine.insert_fact(Fact("bridge", "hub", bridge))
engine.run_to_quiescence()
work = []
for bridge in bridges:
    before = engine.metrics["core", "substitutions_explored"]
    engine.delete_fact(Fact("bridge", "hub", bridge))
    engine.run_to_quiescence()
    work.append(engine.metrics["core", "substitutions_explored"] - before)
print(engine.metrics["core", "stages_rederive"], work)
"""


def _run_in_fresh_process() -> str:
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, (SOURCE, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", SCENARIO], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_delete_and_rederive_counts_the_same_substitutions_in_every_process():
    first, second = _run_in_fresh_process(), _run_in_fresh_process()
    assert first.startswith("12 ")          # every delete took the DRed path
    assert first == second
