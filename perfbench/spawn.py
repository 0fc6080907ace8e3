"""Job launcher for run.py, kept in a small process of its own.

A child's ru_maxrss starts from the resident size of the process that
forked it, and run.py grows when it parses large reports, so jobs are
started from here instead.  Reads one JSON request per line on stdin;
for each it writes the child's pid, then its wall time, exit code and
peak RSS, as JSON lines on stdout.  Exits at the end of its input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"],
                                    env=request["env"],
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            print(json.dumps({"pid": proc.pid}), flush=True)
            timer = threading.Timer(request["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall": wall, "code": proc.returncode,
                          "rss_mb": usage.ru_maxrss / 1024.0}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
