import multiprocessing
import os
import sys
from pathlib import Path

import pytest

# run BLAS on one thread, as the CLI does (cli.py); a value set outside wins.
# This must come before anything imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

sys.path.insert(0, str(Path(__file__).parent))


class StartedProcesses(list):
    """The multiprocessing processes started during a test, in start order."""

    def assert_joined(self, exitcodes):
        """Every process exited with `exitcodes` and was joined, and none is left."""
        for process in self:
            # joining reaps a child, after which waitpid no longer knows it;
            # a child that exited unjoined is still there to reap
            with pytest.raises(ChildProcessError):
                os.waitpid(process.pid, os.WNOHANG)
        assert [process.exitcode for process in self] == list(exitcodes)
        assert multiprocessing.active_children() == []


@pytest.fixture
def started_processes(monkeypatch):
    """A StartedProcesses list of every process started during the test."""
    started = StartedProcesses()
    start = multiprocessing.process.BaseProcess.start

    def recording(process):
        started.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording)
    return started
