"""Runs the benchmark's command lines from a small process.

A child's peak RSS as ``wait4`` reports it starts from the resident size of
the process that forked it.  The benchmark imports numpy for its checks, so
children it forked itself would all report at least its size.  It starts
this process first, while still small, and sends it one JSON list (the
command) per line on stdin, with the output and error paths; each reply is
one JSON line with the exit code, wall time, CPU time and peak RSS.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for request in sys.stdin:
        cmd, out_path, err_path = json.loads(request)
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "wall": wall,
                 "cpu": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
