"""Shared fixtures of the package tests."""

import signal

import pytest

GUARD_S = 10  # wall-clock limit of a test that uses ``wall_clock_guard``


@pytest.fixture
def wall_clock_guard():
    """Fail the test, instead of hanging the suite, if it runs past GUARD_S
    seconds; for regression tests of inputs that once made the code loop."""
    def expire(signum, frame):
        pytest.fail(f"still running after {GUARD_S} s: the code under test "
                    f"does not terminate", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(GUARD_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
