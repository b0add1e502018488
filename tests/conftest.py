import pytest

from quadexp import pipeline


@pytest.fixture
def serial_searches(monkeypatch):
    """Run each case's relation searches in this process, as a range's pool
    workers do, so that a spy or stub patched in here sees every call: in a
    worker process its records would stay there, and a local stub cannot be
    sent to one."""
    monkeypatch.setattr(pipeline, "_pool_searches", False)
