import signal
from contextlib import contextmanager

import pytest


class _Expired(Exception):
    pass


@contextmanager
def _deadline(seconds):
    """Fail with TimeoutError instead of hanging past ``seconds``."""
    def expire(signum, frame):
        raise _Expired

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    except _Expired:
        # a fresh exception: pytest cannot render some frames a signal interrupts
        raise TimeoutError(f"no result within {seconds} s") from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def deadline():
    """``with deadline(s):`` turns a hang of the block into a failure."""
    return _deadline
