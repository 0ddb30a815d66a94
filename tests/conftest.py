"""A hang guard for the whole suite, and a timer for tests that compare speeds.

A test still running after ``HANG_LIMIT_S`` seconds dumps every thread's
traceback to stderr and ends the test process, so a loop that never ends
(a flip count one too high in the run loop's flip draw, say) fails the run
with a traceback instead of stalling it.
"""

import faulthandler
import math
import os
import sys
import time

import pytest

# Above the slowest test's own limit: c6 is allowed 600 s.
HANG_LIMIT_S = 900

_STDERR = pytest.StashKey[object]()


def pytest_configure(config):
    # A copy of stderr taken before any test runs: pytest captures fd 2 while
    # a test runs, and a dump written there would be lost with the process.
    config.stash[_STDERR] = os.fdopen(os.dup(sys.stderr.fileno()), "w")


def pytest_unconfigure(config):
    config.stash[_STDERR].close()


@pytest.fixture(autouse=True)
def hang_guard(request):
    faulthandler.dump_traceback_later(HANG_LIMIT_S, exit=True, file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def best_times():
    """Time zero-argument callables in turn, ``repeats`` rounds, and return
    each one's fastest seconds.  A test bounds the ratio of two such times
    taken in one process, which holds on a slow or busy machine where an
    absolute bound would not."""

    def measure(*runs, repeats=3):
        best = [math.inf] * len(runs)
        for _ in range(repeats):
            for i, run in enumerate(runs):
                start = time.perf_counter()
                run()
                best[i] = min(best[i], time.perf_counter() - start)
        return best

    return measure
