"""A hang guard for the whole suite.

A test still running after ``HANG_LIMIT_S`` seconds dumps every thread's
traceback to stderr and ends the test process, so a loop that never ends
(a flip count one too high in ``flip_sampler``, say) fails the run with a
traceback instead of stalling it.
"""

import faulthandler
import os
import sys

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
