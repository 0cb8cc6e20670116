"""Small process that starts the CLI children and reports their cost.

A child's peak RSS as ``wait4`` reports it includes the peak RSS of the
process that forked it, so children forked from the benchmark (which holds
the generated data and numpy) would all read as large as the benchmark.
``run.py`` starts this process before it imports numpy and has it start every
child instead. One JSON request per stdin line:
``{"argv": [...], "stderr": path, "timeout": seconds}``; one JSON reply per
line: ``{"status": exit code, "elapsed": s, "maxrss_kb": n, "timed_out": b}``.
The process exits when stdin closes. ``Spawner`` is the benchmark's side.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path


def run(argv: list[str], stderr_path: str, timeout: float) -> dict:
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        killed = []

        def kill(signum, frame) -> None:
            killed.append(True)
            proc.kill()

        # an interval timer rather than a thread: wait4 resumes after the handler
        signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "status": proc.returncode,
        "elapsed": elapsed,
        "maxrss_kb": usage.ru_maxrss,
        "timed_out": bool(killed),
    }


class Spawner:
    """Starts this file as a helper process and runs children through it."""

    def __init__(self, env: dict[str, str], cwd: Path, stderr_path: Path, deadline: float):
        self.stderr_path = stderr_path
        self.deadline = deadline  # perf_counter time by which every child must end
        self.proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=cwd,
            text=True,
        )

    def python(self, *args: str) -> tuple[dict, str]:
        """Run ``python args...``; the helper's reply and the child's stderr."""
        timeout = max(1.0, self.deadline - time.perf_counter())
        argv = [sys.executable, *args]
        request = {"argv": argv, "stderr": str(self.stderr_path), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawn helper exited")
        return json.loads(line), self.stderr_path.read_text(encoding="utf-8", errors="replace")

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stderr"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
