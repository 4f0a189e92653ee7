"""The per-test alarm and the ``deadline`` blocks that nest inside it."""

import signal
import time

import pytest


def alarm_left():
    return signal.getitimer(signal.ITIMER_REAL)[0]


def test_every_test_runs_under_an_alarm():
    assert 60 < alarm_left() <= 120


def test_deadline_rearms_the_test_alarm(deadline):
    before, handler = alarm_left(), signal.getsignal(signal.SIGALRM)
    with deadline(5):
        assert 0 < alarm_left() <= 5
    assert before - 1 < alarm_left() <= before
    assert signal.getsignal(signal.SIGALRM) is handler


def test_enclosing_deadline_fires_after_a_nested_block(deadline):
    with pytest.raises(TimeoutError, match="within 1 s"):
        with deadline(1):
            with deadline(5):
                pass
            time.sleep(5)
