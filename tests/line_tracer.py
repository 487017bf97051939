"""Opt-in pytest plugin: the lines of `src/` that a run never reached.

    PYTHONPATH=src:tests python -m pytest -p line_tracer [--unreached FILE]

Not a test module, so never collected.  It traces every thread from the
start of the run (`sys.settrace`, `threading.settrace`) and at its end
writes, one `path:line` per line, each line of a code object under `src/`
that never ran: to FILE, or else to the terminal.  Code run in a
subprocess (the CLI subprocess tests, the demos) is not seen.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
_ran: set[tuple[str, int]] = set()


def _line(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(SRC) else None


def _lines(code, top: bool) -> set[int]:
    # a function's first line (its `def` or decorator) runs in the enclosing code
    own = {line for _, _, line in code.co_lines() if line}
    own -= set() if top else {code.co_firstlineno}
    return own.union(*(_lines(c, False) for c in code.co_consts if hasattr(c, "co_lines")))


def pytest_addoption(parser):
    parser.addoption("--unreached", metavar="FILE", help="write the unreached lines of src/ here")


def pytest_configure(config):
    sys.settrace(_call)
    threading.settrace(_call)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)
    out = []
    for path in sorted(Path(SRC).rglob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        out += [f"{path.relative_to(ROOT)}:{line}"
                for line in sorted(_lines(code, True)) if (str(path), line) not in _ran]
    text = "\n".join(out) + "\n"
    if config.getoption("unreached"):
        Path(config.getoption("unreached")).write_text(text)
    else:
        sys.stdout.write(text)
