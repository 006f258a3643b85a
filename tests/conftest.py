"""Shared fixtures of the test suite."""

from __future__ import annotations

import pytest

from repro.core.engine import WebdamLogEngine
from repro.runtime.system import WebdamLogSystem
from repro.wepic.scenario import build_demo_scenario


@pytest.fixture
def engine() -> WebdamLogEngine:
    """A bare engine for the peer ``alice``."""
    return WebdamLogEngine("alice")


@pytest.fixture
def two_peer_system() -> WebdamLogSystem:
    """A two-peer system (alice, bob) with default settings."""
    system = WebdamLogSystem()
    system.add_peer("alice")
    system.add_peer("bob")
    return system


@pytest.fixture
def demo_scenario():
    """The paper's three-peer demo scenario with 2 pictures per attendee."""
    return build_demo_scenario(pictures_per_attendee=2)


@pytest.fixture
def controlled_scenario():
    """The demo scenario with control of delegation enabled (pending queues)."""
    return build_demo_scenario(pictures_per_attendee=2, control_delegation=True)

