"""Start and time the benchmark's child processes from a process that stays small.

Linux counts the resident memory of the spawning process into a child's
ru_maxrss (the image it had before exec), so a child started by the
benchmark itself would report the benchmark's own peak, which grows with
the reports it checks. Started from here, a child reports at least this
process's few MB and otherwise its own peak.

Run as `python3 -I -S spawner.py`. Reads one JSON request per line,
{"argv": [...], "stdout": path, "stderr": path}, runs it to exit with stdin
from /dev/null, and answers one JSON line, {"wall_s", "cpu_s", "rss_kb",
"returncode"}, wall time counted from spawn to exit. Exits at end of input.
"""

import json
import os
import sys
import time


def main() -> None:
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        request = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, request["stdout"], write, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"], write, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(request["argv"][0], request["argv"], os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        reply = {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss,
            "returncode": os.waitstatus_to_exitcode(status),
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
