"""Checks that apply to every test."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """A test must join every thread it starts: set-up's chunk threads are
    joined before the call that started them returns."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads still running after the test: {left}"
