"""List the `raise` statements in src/ that the tier-1 tests never run.

    python3 scripts/raise_coverage.py

Runs the tier-1 suite (`python -m pytest -q`) from the root of a checkout
under a line tracer, then prints one line per `raise` statement under
src/crossmodel that no test reached, and their count. It exits 1 when
that count is above the number in raise_coverage_limit.txt beside this
script, or when the suite fails; lower the number when tests reach more
of them.

The tracer is stdlib only (`sys.settrace`, and `threading.settrace` for
threads). It is loaded through a `sitecustomize` module on PYTHONPATH, so
the CLI stages that tests run as subprocesses are traced too; each
process writes the lines it ran when it exits, also through `os._exit`,
in which a stage's forked readers end. A statement counts as run when any
bytecode of its first line ran. Tracing makes the suite about half again
as slow.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "crossmodel"
LIMIT = Path(__file__).with_name("raise_coverage_limit.txt")

# Imported at the start of every traced process. It records the lines run in
# files under RAISE_COVERAGE_SRC and writes them to RAISE_COVERAGE_OUT at exit,
# or before os._exit, which runs no exit handler; in the pytest process it is
# also a plugin.
SITECUSTOMIZE = '''
import atexit, json, os, sys, threading

_src = os.environ.get("RAISE_COVERAGE_SRC", "")
_out = os.environ.get("RAISE_COVERAGE_OUT", "")
_lines = {}


def _local(frame, event, arg):
    if event == "line":
        _lines[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(_src):
        return None
    _lines.setdefault(name, set())
    return _local


def _dump():
    sys.settrace(None)
    dump = f"{os.getpid()}-{os.urandom(4).hex()}.json"  # a later process may reuse the pid
    with open(os.path.join(_out, dump), "w", encoding="utf-8") as fh:
        json.dump({name: sorted(lines) for name, lines in _lines.items()}, fh)


def _dump_and_exit(status, _exit=os._exit):
    _dump()
    _exit(status)


def pytest_runtest_setup(item):
    """Re-arms the tracer before each test. Python turns a thread's tracing
    off when its trace function fails, as on a RecursionError raised when it
    is called from a deeply nested parse."""
    if _src and _out and sys.gettrace() is None:
        sys.settrace(_global)


if _src and _out:
    atexit.register(_dump)
    os._exit = _dump_and_exit
    sys.settrace(_global)
    threading.settrace(_global)
'''


def raise_lines() -> dict[Path, list[int]]:
    """The first line of every `raise` statement, per source file."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        lines = sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise))
        if lines:
            found[path] = lines
    return found


def traced_run(work: Path, argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """(the exit code of `argv` run from the checkout's root, the lines under
    src/crossmodel that it ran per file, over every process it started)."""
    hook_dir, out_dir = work / "hook", work / "lines"
    hook_dir.mkdir()
    out_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(SITECUSTOMIZE, encoding="utf-8")
    paths = [str(hook_dir), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p),
           "RAISE_COVERAGE_SRC": str(SRC), "RAISE_COVERAGE_OUT": str(out_dir)}
    code = subprocess.run(argv, cwd=ROOT, env=env).returncode
    ran: dict[str, set[int]] = {}
    for dump in out_dir.glob("*.json"):
        for name, lines in json.loads(dump.read_text(encoding="utf-8")).items():
            ran.setdefault(name, set()).update(lines)
    return code, ran


def main() -> int:
    limit = int(LIMIT.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as work:
        code, ran = traced_run(Path(work), [sys.executable, "-m", "pytest", "-q", "-p",
                                            "no:cacheprovider", "-p", "sitecustomize"])
    total = unreached = 0
    for path, lines in raise_lines().items():
        text = path.read_text(encoding="utf-8").splitlines()
        for lineno in lines:
            total += 1
            if lineno not in ran.get(str(path), ()):
                unreached += 1
                print(f"{path.relative_to(ROOT)}:{lineno}: {text[lineno - 1].strip()}")
    print(f"{unreached} of {total} raise statements never ran (limit {limit})")
    if code != 0:
        print(f"the test suite failed (pytest exit {code})", file=sys.stderr)
        return 1
    return 1 if unreached > limit else 0


if __name__ == "__main__":
    sys.exit(main())
