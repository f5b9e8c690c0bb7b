"""scripts/raise_coverage.py counts every raise statement a traced run reaches."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location(
        "raise_coverage", ROOT / "scripts" / "raise_coverage.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_raise_reached_only_in_a_forked_child_that_ends_in_os_exit_counts(tmp_path):
    """A stage's forked readers end in os._exit, which runs no exit handler;
    the lines they ran are written all the same."""
    cov = load_script()
    routing = cov.SRC / "routing.py"
    text = routing.read_text(encoding="utf-8").splitlines()
    [line] = [n for n in cov.raise_lines()[routing] if "budget must be in [0, 1], got {budget}"
              in text[n - 1]]
    code = ("import os\n"
            "from crossmodel.routing import calibrate_threshold\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    try:\n"
            "        calibrate_threshold([1.0], 2.0)\n"
            "    finally:\n"
            "        os._exit(0)\n"
            "os.waitpid(pid, 0)\n")
    status, ran = cov.traced_run(tmp_path, [sys.executable, "-c", code])
    assert status == 0
    assert line in ran[str(routing)]
    # the parent, which never calls it, reports its own lines too
    assert len(list((tmp_path / "lines").glob("*.json"))) == 2
