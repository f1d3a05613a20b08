import random
import signal
import threading

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "knotrho",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("knotrho")

TEST_TIMEOUT_S = 120  # the slowest test takes about 3 s


@pytest.fixture(autouse=True)
def _fail_hung_test():
    """Fail a test that runs past TEST_TIMEOUT_S, with the traceback of
    where it was, so a hang fails the suite instead of stalling it.  Needs
    SIGALRM (POSIX) and the main thread."""
    if not hasattr(signal, "setitimer") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran past {TEST_TIMEOUT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng():
    return random.Random(20240817)
