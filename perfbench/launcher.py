"""Run one command; print its wall time, exit code and peak RSS as one JSON line.

    python3 perfbench/launcher.py <log> <command...>

The command's stdout and stderr are appended to ``<log>``.  The benchmark
starts every child through this small process because Linux carries the
RSS high-water mark of the process that starts a child into the child's
own rusage: started straight from the harness, which holds numpy and the
calibration arrays, a child smaller than the harness would report the
harness's peak.  This process imports neither.
"""

import json
import os
import subprocess
import sys
import time


def main(argv) -> int:
    log_path, command = argv[0], argv[1:]
    start = time.perf_counter()
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(command, stdout=log, stderr=log)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    print(json.dumps({"wall": wall, "code": os.waitstatus_to_exitcode(status),
                      "rss_mb": usage.ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
