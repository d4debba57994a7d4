"""The CLI as users run it: a fresh interpreter per call."""

import fcntl
import os
import subprocess
import sys
from pathlib import Path

from qcenum import cli

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
ENTRY = "from qcenum.cli import entry; entry()"


def test_import_loads_no_slow_stdlib_modules():
    # dataclasses pulls in inspect (and with it ast, dis and tokenize); random
    # is only needed by the sampled oracle checks
    code = "import sys, qcenum.cli; print(*sorted(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=ENV, capture_output=True, text=True, check=True
    )
    loaded = set(proc.stdout.split())
    assert "qcenum.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "random"}


def test_closed_stdout_ends_quietly():
    """`qcenum enumerate ... | head -c 5` gets no traceback."""
    argv = "enumerate --q 2 --n 120 --zeros 1,3,5 --format csv".split()
    read_fd, write_fd = os.pipe()
    # one page of pipe buffer: the 16 kB of output cannot all land in the
    # pipe before the reader closes it
    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-S", "-c", ENTRY, *argv], env=ENV, stdout=write_fd, stderr=subprocess.PIPE
    )
    os.close(write_fd)
    head = os.read(read_fd, 5)
    os.close(read_fd)
    _, err = proc.communicate(timeout=120)
    assert head == b"index"
    assert err == b""
    assert proc.returncode == cli.EXIT_STDOUT_CLOSED
