import os

import pytest

import _gate


@pytest.fixture(autouse=True)
def no_child_left_unreaped():
    """Every test reaps each process it starts, forked scan workers included."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion, after the normal output."""
    if not _gate.RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, ok, description in _gate.RESULTS:
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number} [{verdict}]: {description}")
