"""Shared fixtures."""

import signal

import pytest


@pytest.fixture
def helper_deadline():
    """Fail a test whose sweep waits on its helper processes for 60 s, rather than hang the run.

    A forked helper inherits the handler but not the pending alarm.
    """
    def expire(signum, frame):
        raise TimeoutError("the sweep waited on its helpers for 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
