"""Shared pytest plumbing: the acceptance-criteria result banner and a guard
against child processes a test leaves behind."""

import os

import pytest

from anonpipe import parallel

_ACCEPTANCE_LINES: list[str] = []


def record_criterion(name: str, ok: bool) -> None:
    _ACCEPTANCE_LINES.append(f"[{'PASS' if ok else 'FAIL'}] {name}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_leftover_child_process():
    """Fail a test that leaves a child process behind, running or unreaped.

    The map workers live as long as their pool, so each test starts without
    one and the pool's own shutdown must have reaped its workers by the end."""
    parallel.shutdown()
    yield
    parallel.shutdown()
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind ({pid or 'still running'})")
