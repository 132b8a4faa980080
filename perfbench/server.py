"""Lifecycle of the ``python -m repro serve`` process under test.

The server runs in its own session (process group) so that it and the
``repro-analysis-worker`` processes it forks can be stopped together:
SIGTERM to the group, then SIGKILL to whatever is left, and a wait
until every member has ended.  Back-to-back runs on a 2-CPU host must
not pile up workers.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.service import ServiceClient

#: Worker processes of the service under test.
WORKERS = 2
#: Longest wait for the server to start or to stop.
TIMEOUT = 60.0


class Server:
    """One ``repro serve`` process on an ephemeral loopback port."""

    def __init__(self, root: Path, log: Path):
        self.root = root
        self.log = log
        self.proc: subprocess.Popen | None = None
        self.url: str | None = None

    def start(self) -> float:
        """Start the server; return seconds from spawn until ``/health``
        answers."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        env["PYTHONUNBUFFERED"] = "1"
        with open(self.log, "ab") as log:
            start = time.monotonic()
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
                 "--port", "0", "--workers", str(WORKERS)],
                cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=log,
                start_new_session=True,
            )
        line = self._read_line(start + TIMEOUT)
        match = re.search(r"listening on (http://\S+)", line)
        if match is None:
            raise RuntimeError(f"unexpected server banner: {line!r}")
        self.url = match.group(1)
        client = ServiceClient(self.url, timeout=TIMEOUT)
        while True:
            try:
                client.health()
                return time.monotonic() - start
            except OSError:
                if time.monotonic() > start + TIMEOUT:
                    raise
                time.sleep(0.002)

    def _read_line(self, deadline: float) -> str:
        out = self.proc.stdout
        chunks = b""
        while not chunks.endswith(b"\n"):
            wait = deadline - time.monotonic()
            if wait <= 0 or self.proc.poll() is not None:
                raise RuntimeError(
                    f"server did not start (see {self.log}): {chunks!r}")
            ready, _, _ = select.select([out], [], [], wait)
            if ready:
                chunk = os.read(out.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(f"server exited (see {self.log})")
                chunks += chunk
        return chunks.decode("utf-8", "replace")

    def stop(self) -> None:
        """SIGTERM the server's process group, SIGKILL what is left,
        and wait until every member has ended."""
        if self.proc is None:
            return
        group = self.proc.pid
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(group, sig)
            except ProcessLookupError:
                break
            if _wait_ended(self.proc, group, 10.0):
                break
        self.proc.wait(timeout=TIMEOUT)
        self.proc.stdout.close()
        left = group_members(group)
        self.proc = None
        if left:
            raise RuntimeError(f"server processes still running: {left}")


def _wait_ended(proc, group: int, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        proc.poll()  # reap the server itself
        if not group_members(group):
            return True
        time.sleep(0.01)
    return False


def group_members(group: int) -> list[int]:
    """Live (non-zombie) processes of a process group."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[2]) == group and fields[0] != "Z":
            members.append(int(entry.name))
    return members
