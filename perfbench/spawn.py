"""Run one command and report its wall time, exit status and peak RSS.

Usage: ``python3 -I -S spawn.py TIMEOUT_S STDOUT STDERR -- COMMAND...``

Prints one JSON object on standard output.  Linux charges a child's
``ru_maxrss`` with the peak RSS of the process it was spawned from, so the
benchmark measures the command from this small process rather than from its
own, larger one.  The command is killed after ``TIMEOUT_S`` seconds.
"""

import json
import os
import signal
import sys
from time import perf_counter


def main() -> int:
    timeout_s, stdout, stderr, dash, *command = sys.argv[1:]
    if dash != "--" or not command:
        print(__doc__, file=sys.stderr)
        return 2
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644),
    ]
    timed_out = False
    start = perf_counter()
    pid = os.posix_spawnp(command[0], command, os.environ, file_actions=actions)

    def kill(signum, frame):
        nonlocal timed_out
        timed_out = True
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
    _, status, usage = os.wait4(pid, 0)
    wall_s = perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    print(
        json.dumps(
            {
                "wall_s": wall_s,
                "exit_code": os.waitstatus_to_exitcode(status),
                "timed_out": timed_out,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
