"""A watchdog for every test: one that runs longer than HANG_SECONDS (the
slowest takes a few seconds) stops the run with exit code 1 and the line it
hangs at. A walk that never meets its stopping condition, such as a
continued fraction with a broken recurrence, then fails instead of hanging.
It needs SIGALRM, so on Windows there is no watchdog."""

import signal

import pytest

HANG_SECONDS = 30


def _hung(signum, frame):
    pytest.exit(f"a test ran longer than {HANG_SECONDS} s, at {frame.f_code.co_filename}:{frame.f_lineno}",
                returncode=1)


@pytest.fixture(autouse=True)
def _watchdog():
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(HANG_SECONDS)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
