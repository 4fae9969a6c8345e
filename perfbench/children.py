"""Run one child process at a time, timed from spawn to exit.

Every child is reaped with ``os.wait4`` so its own peak RSS is known. A
child that outlives its timeout, or whose wait is interrupted because the
benchmark is stopping, is killed and reaped before the error propagates, so
the benchmark never leaves a process behind.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

CHILD_TIMEOUT_S = 120.0


class ChildTimeout(Exception):
    pass


@contextmanager
def _alarm(seconds: float):
    def _expire(signum, frame):
        raise ChildTimeout(f"child still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def child_env(src: Path) -> dict[str, str]:
    """The caller's environment with ``src`` first on PYTHONPATH.

    ``MYETRENDS_FORMAT`` is dropped so every command prints the format its
    flags ask for.
    """
    env = dict(os.environ)
    env.pop("MYETRENDS_FORMAT", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")
    return env


@dataclass
class ChildResult:
    seconds: float
    returncode: int
    maxrss_kb: int
    stdout: str
    stderr: str


def _reap(proc: subprocess.Popen, timeout: float):
    try:
        with _alarm(timeout):
            _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # timeout, or the benchmark itself is stopping
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_child(argv: list[str], cwd: Path, env: dict[str, str], scratch: Path,
              timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run ``argv`` to completion; output goes through files, not pipes."""
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, cwd=cwd, env=env)
        usage = _reap(proc, timeout)
        seconds = time.perf_counter() - t0
    return ChildResult(
        seconds=seconds,
        returncode=proc.returncode,
        maxrss_kb=usage.ru_maxrss,
        stdout=out_path.read_text(encoding="utf-8"),
        stderr=err_path.read_text(encoding="utf-8"),
    )


def time_until_ready(argv: list[str], cwd: Path, env: dict[str, str], scratch: Path,
                     timeout: float = CHILD_TIMEOUT_S) -> float:
    """Seconds from spawning ``argv`` until it prints ``ready``; then reap it."""
    with open(scratch / "setup.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=err, cwd=cwd, env=env)
        try:
            with _alarm(timeout):
                line = proc.stdout.readline()
                seconds = time.perf_counter() - t0
                rest = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            _reap(proc, timeout)
    if line.strip() != b"ready" or proc.returncode != 0:
        detail = (scratch / "setup.err").read_text(encoding="utf-8")[-2000:]
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {line!r} {rest!r}\n{detail}")
    return seconds
