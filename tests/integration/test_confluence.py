"""Fixpoint confluence under adversarial in-memory delivery.

Webdamlog's insert-only fragment is confluent: whatever order (or how
often) messages arrive, the fixpoint is the same set of facts.  These
tests drive the same program through a lockstep baseline and through
adversarial transports — reordered, duplicated, jittered delivery — and
require bit-identical snapshots.

Message *loss* is confluent too: any fault makes the in-memory transport
withdraw its exactly-once promise, so the peers replicate causally and
anti-entropy repairs what was dropped.
"""

import pytest

from repro.api import system
from repro.runtime.inmemory import InMemoryTransport

PROGRAM_ALICE = '''
collection extensional persistent src@alice(item);
rule mid@bob($x) :- src@alice($x);
'''

PROGRAM_BOB = '''
collection extensional persistent mid@bob(item);
rule sink@carol($x) :- mid@bob($x);
'''

PROGRAM_CAROL = '''
collection extensional persistent sink@carol(item);
rule echo@alice($x) :- sink@carol($x);
'''

ITEMS = tuple(f"item{i}" for i in range(12))


def run(transport):
    deployment = (system().transport(transport)
                  .peer("alice").program(PROGRAM_ALICE)
                  .peer("bob").program(PROGRAM_BOB)
                  .peer("carol").program(PROGRAM_CAROL)
                  .build())
    # insert one item per converge cycle so every item crosses the wire in
    # its own messages (a single batch would give the adversary only three
    # deltas to reorder/drop)
    for item in ITEMS:
        deployment.peer("alice").insert(f'src@alice("{item}")')
        assert deployment.converge(max_steps=400).converged
    return deployment.snapshot()


@pytest.fixture(scope="module")
def baseline():
    return run(InMemoryTransport())


def test_baseline_pushes_facts_through_the_chain(baseline):
    assert {f.values[0] for f in baseline["carol"]["sink@carol"]} == set(ITEMS)
    assert {f.values[0] for f in baseline["alice"]["echo@alice"]} == set(ITEMS)


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_reordered_delivery_is_confluent(baseline, seed):
    transport = InMemoryTransport(shuffle_seed=seed)
    assert run(transport) == baseline


@pytest.mark.parametrize("seed", [2, 9])
def test_duplicated_delivery_is_confluent(baseline, seed):
    transport = InMemoryTransport(duplicate_probability=0.5, seed=seed)
    snapshot = run(transport)
    assert snapshot == baseline
    assert transport.stats.messages_delivered > transport.stats.messages_sent


@pytest.mark.parametrize("seed", [3, 13])
def test_jittered_latency_is_confluent(baseline, seed):
    transport = InMemoryTransport(latency=1, latency_jitter=4, seed=seed)
    assert run(transport) == baseline


@pytest.mark.parametrize("seed", [4, 21])
def test_all_adversaries_combined_are_confluent(baseline, seed):
    transport = InMemoryTransport(latency=1, latency_jitter=3,
                                  duplicate_probability=0.3,
                                  shuffle_seed=seed, seed=seed)
    assert run(transport) == baseline


@pytest.mark.parametrize("seed", [5, 17])
def test_lossy_delivery_is_confluent(baseline, seed):
    transport = InMemoryTransport(drop_probability=0.5, seed=seed)
    assert run(transport) == baseline
    assert transport.stats.messages_dropped > 0
