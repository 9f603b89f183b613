"""Line reach: a pytest plugin that fails the session when a line of
``src/taskalloc`` that some test could run was run by none.

    PYTHONPATH=src:tests python -m pytest -q -p line_reach

A ``sys.settrace`` tracer records every line run in the package's files,
from before the package is imported to the end of the session.  A line is
executable when the compiled module attributes bytecode to it.  Lines no
test can reach are listed in ``ALLOWED``, keyed by file and stripped source
text (not line number), each with its reason; an entry that matches no
unreached line is stale and fails the session too.  It runs outside the
tier-1 suite, since tracing makes the suite two to three times slower.
"""

import os
import sys
import threading

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "taskalloc")

ALLOWED = {
    ("constraints.py", "..."):
        "body of the abstract IndependenceSystem.is_independent",
    ("solvers.py", "raise NotImplementedError"):
        "abstract method of AllocationScenario; every scenario overrides it",
}

reached: set = set()
# Per code object of the package, its lines not reached yet.  Once none is
# left its frames are no longer traced, so hot code runs at full speed and
# the suite's wall-time tests keep their margins.
pending: dict = {}


def _local(frame, event, arg):
    if event == "line":
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        pending[frame.f_code].discard(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    if not code.co_filename.startswith(PACKAGE):
        return None
    if code not in pending:
        pending[code] = {line for _start, _end, line in code.co_lines() if line is not None}
    _local(frame, "line", arg)  # the line the frame starts or resumes at
    return _local if pending[code] else None


def _executable(code) -> set:
    lines = {line for _start, _end, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable(const)
    return lines


def pytest_configure(config):
    if "taskalloc" in sys.modules:
        raise pytest.UsageError("line_reach: taskalloc was imported before tracing began")
    threading.settrace(_global)
    sys.settrace(_global)


def _stop():
    sys.settrace(None)
    threading.settrace(None)


# The acceptance criteria time DGBA against the auction, and the tracer's
# cost per call would decide those timings.  They run last, untraced, and
# only the rest of the suite counts towards reach.
def _timed(item) -> bool:
    return item.path.name == "test_acceptance.py"


def pytest_collection_modifyitems(items):
    items.sort(key=_timed)


def pytest_runtest_setup(item):
    if _timed(item):
        _stop()


def pytest_sessionfinish(session, exitstatus):
    _stop()
    unreached, used = [], set()
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as source:
            text = source.read()
        lines = text.splitlines()
        for line in sorted(_executable(compile(text, path, "exec"))):
            key = (name, lines[line - 1].strip())
            if (path, line) in reached:
                continue
            if key in ALLOWED:
                used.add(key)
            else:
                unreached.append(f"{name}:{line}: {key[1]}")
    stale = [f"{name}: {text!r}" for name, text in ALLOWED if (name, text) not in used]
    writer = session.config.get_terminal_writer()
    writer.line(f"line reach: {len(unreached)} unreached src/ lines, {len(stale)} stale "
                f"allowlist entries")
    for entry in unreached + stale:
        writer.line(f"  {entry}")
    if (unreached or stale) and session.exitstatus == 0:
        session.exitstatus = 1
