import os
import signal
import sys

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

# the one hypothesis profile: no deadline, since a draw's time depends on the
# host; each test sets its own max_examples
settings.register_profile("ssurb", deadline=None)
settings.load_profile("ssurb")

TEST_SECONDS = 120  # a test's wall-clock limit, set-up and tear-down included; the slowest takes seconds


class Overrun(BaseException):
    """A test still running after TEST_SECONDS. A BaseException, so that no
    code under test, hypothesis's shrinker included, takes it for a failure
    to retry; pytest reports it as a failure of the test, or an error in the
    fixture it was waiting in."""


def _overrun(signum, frame):
    raise Overrun(f"still running after {TEST_SECONDS} s")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    # a SIGALRM timer interrupts even a wait on worker processes; pytest's
    # faulthandler_timeout would only dump the tracebacks. A test that sets
    # its own ITIMER_REAL (the sampler's) runs unbounded from then on.
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
