"""Fixtures shared by the test modules."""

import pytest

from fbmlab import concentration


@pytest.fixture
def workers(monkeypatch):
    """set_workers(count): shared_pass runs on `count` workers, whatever the
    machine's CPUs, with a helper pool of its own (the module's pool is sized
    once, on first use), shut down when the test ends."""
    original = concentration._helpers

    def shut_down():
        pool = concentration._helpers
        if pool is not None and pool is not original:
            pool.shutdown(wait=True)

    def set_workers(count):
        shut_down()
        monkeypatch.setattr(concentration, "WORKERS", count)
        monkeypatch.setattr(concentration, "_helpers", None)

    yield set_workers
    shut_down()
