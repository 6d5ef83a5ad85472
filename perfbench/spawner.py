"""Start benchmark children on request and report each child's own rusage.

A child's ru_maxrss starts at the peak RSS of the process it was forked
from.  The harness's peak grows with the outputs it parses, so it would
leak into every child's figure; this small process does the forking
instead and never holds more than a request line.

Protocol, one JSON object per line: requests on stdin,
{"argv", "cwd", "stdout", "stderr", "timeout"}; replies on stdout,
{"code", "seconds", "maxrss_kb"}.  The process ends at end of input.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        killer = threading.Timer(req["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "seconds": seconds,
            "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    # Let a terminated spawner stop its running child on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
