import os
import signal
import time

import pytest

from phonassess.errors import PhonassessError
from phonassess.parallel import ordered_map


@pytest.fixture
def deadline():
    """Fail the test, instead of hanging, if the pool has not returned in 60 s."""
    def expire(*_):
        raise TimeoutError("ordered_map did not return")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def slow_square(x):
    time.sleep(0.05 * (4 - x))  # earlier items finish later
    return x * x


def fail_odd(x):
    if x == 1:
        time.sleep(0.3)  # the first failure in input order is the last to happen
    if x % 2:
        raise ValueError(f"item {x}")
    return x


def pid(_):
    return os.getpid()


def die_on_two(x):
    if x == 2:
        os._exit(3)
    return x


def test_results_keep_input_order(deadline):
    assert ordered_map(slow_square, range(5), workers=2) == [0, 1, 4, 9, 16]


def test_first_failing_item_in_input_order_raises(deadline):
    with pytest.raises(ValueError, match="item 1"):
        ordered_map(fail_odd, [0, 1, 2, 3], workers=2)
    with pytest.raises(ValueError, match="item 1"):
        ordered_map(fail_odd, [0, 1, 2, 3], workers=1)


def test_one_worker_forks_nothing(deadline):
    assert ordered_map(pid, range(4), workers=1) == [os.getpid()] * 4
    assert ordered_map(pid, [0], workers=2) == [os.getpid()]
    assert os.getpid() not in ordered_map(pid, range(4), workers=2)


def test_dead_worker_is_phonassess_error(deadline):
    with pytest.raises(PhonassessError, match="worker process died"):
        ordered_map(die_on_two, range(4), workers=2)
