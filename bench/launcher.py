"""Spawns the benchmark's commands and reports what each one used.

    python3 -S bench/launcher.py

Reads one JSON request per stdin line, ``{"argv": [...], "log": path,
"timeout": seconds}``, runs the command to completion with its stderr
appended to ``log``, and answers with one JSON line ``{"code", "wall_s",
"cpu_s", "maxrss_bytes"}``. It exits when stdin closes.

Linux charges a spawned process with the peak RSS of the memory image it
replaced at exec, that is, of the process that spawned it. ``run.py``
grows as it checks outputs, so commands are spawned from this small, steady
process instead; their reported peak RSS is then their own.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def run(argv, log, timeout):
    with open(log, "ab") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_bytes": usage.ru_maxrss * 1024,
    }


def main():
    for line in sys.stdin:
        req = json.loads(line)
        reply = run(req["argv"], req["log"], max(0.0, req["timeout"]))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
