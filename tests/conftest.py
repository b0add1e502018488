import pytest

from quadexp import pipeline


@pytest.fixture
def serial_searches(monkeypatch):
    """Run each case's J-value tasks in this process, as on one CPU, so
    that a spy or stub patched in here sees every call: in a worker process
    its records would stay there."""
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
