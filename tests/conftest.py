import os
from pathlib import Path

import pytest

import ledger_views
import uswsim

SRC = str(Path(uswsim.__file__).resolve().parent.parent)


@pytest.fixture(scope="session", autouse=True)
def subprocesses_import_this_uswsim():
    """Put the uswsim under test first on the path of every child process,
    so `python -m uswsim.cli` runs it whether or not PYTHONPATH names it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture
def recorder():
    """A ``MessageRecorder`` that keeps every message sent during the test."""
    with ledger_views.MessageRecorder() as recording:
        yield recording
