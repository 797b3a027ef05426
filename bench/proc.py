"""Start a process in its own session and make sure it and its children end."""

from __future__ import annotations

import os
import signal
import subprocess
import time


class ProcessTimeout(RuntimeError):
    pass


def run_process(cmd, env, timeout, cwd=None):
    """Run ``cmd``; returns (exit code, stdout bytes, stderr bytes, wall seconds).

    On timeout the whole process group is killed and reaped before
    ``ProcessTimeout`` is raised, so no worker outlives the call.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd,
        env=env,
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        proc.communicate()
        raise ProcessTimeout(f"{cmd[1] if len(cmd) > 1 else cmd[0]} exceeded {timeout:.0f} s")
    except BaseException:
        _kill_group(proc)
        proc.communicate()
        raise
    wall = time.perf_counter() - start
    # pool workers left behind by a crashed parent would keep the group alive
    _kill_group(proc)
    return proc.returncode, out, err, wall


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
