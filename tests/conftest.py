"""Suite-wide settings and fixtures.

Property tests run under one fixed hypothesis profile: derandomized, so a
run repeats the same examples; no deadline, because host speed drifts
from run to run; and a bounded example count. The cli_child fixture runs
a subcommand in a child process, optionally narrowed to one core, which
is how the CLI tests vary the real pool size. The matern_calls fixture
counts correlation fills wherever in the package they come from, and the
traced_peak fixture measures a call's peak of traced allocations.
"""

import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import settings

import krigesense
from krigesense.kernel import matern_correlation

settings.register_profile("krigesense", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("krigesense")

# the child narrows its own CPU mask, if asked, before anything sizes a pool
_CHILD = """
import os, sys
if sys.argv[1]:
    os.sched_setaffinity(0, {int(sys.argv[1])})
from krigesense.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.fixture
def cli_child():
    """run(flags, one_core) runs `krigesense <flags>` in a child process and
    returns its exit code. With one_core the child first narrows its own
    CPU mask to the lowest core of this process's mask, so its classifier
    pool has one worker; otherwise it keeps this process's mask."""
    src = os.path.dirname(os.path.dirname(krigesense.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    lowest = str(min(os.sched_getaffinity(0)))

    def run(flags, one_core: bool) -> int:
        argv = [sys.executable, "-c", _CHILD, lowest if one_core else "",
                *flags]
        return subprocess.run(argv, env=env, timeout=600).returncode

    return run


@pytest.fixture
def matern_calls(monkeypatch):
    """The positional arguments of every matern_correlation call for the
    rest of the test, at every krigesense module binding of it, so a
    second fill shows wherever it came from."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return matern_correlation(*args, **kwargs)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("krigesense")
                and getattr(module, "matern_correlation", None)
                is matern_correlation):
            monkeypatch.setattr(module, "matern_correlation", counted)
    return calls


def _traced_peak(call) -> int:
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """peak(call) runs call() once untraced, so lazy set-up and caches are
    paid, then once more under tracemalloc, and returns that run's peak of
    traced allocations in bytes (numpy's arrays are traced)."""
    return _traced_peak
