"""Fixtures shared by the test modules."""

import pytest

from boolfn import verify


@pytest.fixture
def workers_at_once(monkeypatch):
    """Sweeps with ``jobs > 1`` start their workers at once, with no solo
    phase, so that a population small enough for a test reaches them."""
    monkeypatch.setattr(verify, "SOLO_SWEEP_S", 0)
