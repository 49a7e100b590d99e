"""Start the benchmark's processes from a small process of its own.

Reads one JSON request per line on stdin ({"argv", "cwd", "env", "out",
"err", "timeout_s"}), runs it to completion, and answers one JSON line
{"returncode", "spawn", "wall", "max_rss_kb"} on stdout. Exits at end of
input.

Linux carries the parent's RSS high-water mark into a child's ru_maxrss
across exec, so a child started by the benchmark process itself, which
holds the generated inputs, would report at least that process's peak.
Started from here, the floor is this small interpreter instead.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main():
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
            spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                    stdout=out, stderr=err)
        killer = threading.Timer(req["timeout_s"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.clock_gettime(time.CLOCK_MONOTONIC) - spawn
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
        print(json.dumps({"returncode": proc.returncode, "spawn": spawn, "wall": wall,
                          "max_rss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
