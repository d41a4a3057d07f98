import os

import pytest


@pytest.fixture
def eight_cpus(monkeypatch):
    """Let --jobs fork up to eight workers, whatever this machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
