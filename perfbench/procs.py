"""Child processes that cannot outlive a run or hang it.

Each child runs in its own session (so in its own process group together
with everything it spawns), is reaped with ``wait4`` to read the resource
usage of its whole waited-for tree, and is killed as a group on every exit
path.  Standard output is read line by line on a thread, with the monotonic
time each line arrived; standard error goes to a file whose tail is
reported when something goes wrong.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from typing import List, Optional, Sequence, Tuple


class ChildFailed(RuntimeError):
    """A child exited badly or overran its time limit."""


class Child:
    """One spawned process group with timestamped output lines."""

    def __init__(self, argv: Sequence[str], env: dict, stderr_path: str):
        self.argv = list(argv)
        self.stderr_path = stderr_path
        self.lines: List[Tuple[float, str]] = []
        self._line_ready = threading.Condition()
        self.exit_time: Optional[float] = None
        self.returncode: Optional[int] = None
        self.rusage = None
        self._exited = threading.Event()
        self._stderr = open(stderr_path, "wb")
        self.spawn_time = time.perf_counter()
        self.process = subprocess.Popen(
            self.argv,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            start_new_session=True,
        )
        self.pgid = self.process.pid
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self._waiter = threading.Thread(target=self._wait, daemon=True)
        self._waiter.start()

    def _read(self) -> None:
        for raw in self.process.stdout:
            stamp = time.perf_counter()
            with self._line_ready:
                self.lines.append((stamp, raw.decode("utf-8", "replace").rstrip("\n")))
                self._line_ready.notify_all()
        with self._line_ready:
            self._line_ready.notify_all()

    def _wait(self) -> None:
        _, status, usage = os.wait4(self.process.pid, 0)
        self.exit_time = time.perf_counter()
        self.rusage = usage
        self.returncode = os.waitstatus_to_exitcode(status)
        # Popen must not try to reap the pid again.
        self.process.returncode = self.returncode
        self._exited.set()
        with self._line_ready:
            self._line_ready.notify_all()

    def wait_line(self, predicate, deadline: float) -> Tuple[float, str]:
        """The first output line matching ``predicate``; raises on exit or timeout."""
        seen = 0
        with self._line_ready:
            while True:
                while seen < len(self.lines):
                    stamp, line = self.lines[seen]
                    seen += 1
                    if predicate(line):
                        return stamp, line
                if self._exited.is_set() and not self._reader.is_alive():
                    raise ChildFailed(f"exited with {self.returncode} before the expected line")
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise ChildFailed("timed out waiting for output")
                self._line_ready.wait(min(remaining, 0.5))

    def wait_exit(self, deadline: float) -> None:
        """Wait for the child to exit; raises on a non-zero code or timeout."""
        if not self._exited.wait(max(0.0, deadline - time.perf_counter())):
            raise ChildFailed("timed out")
        self._reader.join(timeout=5)
        if self.returncode != 0:
            raise ChildFailed(f"exited with code {self.returncode}")

    def interrupt(self, grace_s: float = 15.0) -> None:
        """SIGINT the child (a graceful stop), then kill the group after ``grace_s``."""
        if not self._exited.is_set():
            try:
                os.kill(self.process.pid, signal.SIGINT)
            except ProcessLookupError:
                pass
            self._exited.wait(grace_s)
        self.kill()

    def kill(self) -> None:
        """Kill the whole process group and reap the child."""
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self._exited.wait(10)
        self._reader.join(timeout=5)
        # Grandchildren were reparented on the group kill; wait until none is left.
        end = time.perf_counter() + 5
        while time.perf_counter() < end:
            try:
                os.killpg(self.pgid, 0)
            except (ProcessLookupError, PermissionError):
                break
            time.sleep(0.02)
        if not self._stderr.closed:
            self._stderr.close()
        if self.process.stdout is not None:
            self.process.stdout.close()

    @property
    def cpu_s(self) -> float:
        """User plus system CPU of the child and every descendant it waited for."""
        return self.rusage.ru_utime + self.rusage.ru_stime

    @property
    def peak_rss_mb(self) -> float:
        """Largest resident set among the child and its waited-for descendants."""
        return self.rusage.ru_maxrss / 1024.0

    def stderr_tail(self, lines: int = 20) -> str:
        if not self._stderr.closed:
            self._stderr.flush()
        try:
            with open(self.stderr_path, "rb") as handle:
                text = handle.read().decode("utf-8", "replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])
