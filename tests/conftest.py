import signal
import time
from contextlib import contextmanager

import pytest

# Each test fails past this many seconds instead of stalling the run; the
# slowest test takes under 10 s.
TEST_ALARM_S = 120


class _Expired(Exception):
    pass


@contextmanager
def _deadline(seconds):
    """Fail with TimeoutError instead of hanging past ``seconds``.

    Blocks nest: the alarm of an enclosing block (such as the per-test one)
    is armed again on exit with the time it has left.
    """
    def expire(signum, frame):
        raise _Expired(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)  # time left on the enclosing alarm
    start = time.monotonic()
    try:
        yield
    except _Expired:
        # a fresh exception: pytest cannot render some frames a signal interrupts
        raise TimeoutError(f"no result within {seconds} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer:
            signal.setitimer(signal.ITIMER_REAL, max(outer - (time.monotonic() - start), 0.001))


@pytest.fixture(autouse=True)
def _test_alarm():
    """Every test runs under a TEST_ALARM_S deadline."""
    with _deadline(TEST_ALARM_S):
        yield


@pytest.fixture
def deadline():
    """``with deadline(s):`` turns a hang of the block into a failure."""
    return _deadline
