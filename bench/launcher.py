"""Start commands one at a time and report each one's wall time and rusage.

    python3 bench/launcher.py

``run.py`` starts this process before it generates anything and sends it
one JSON request per line on standard input: ``argv``, ``cwd``, ``env``
and ``timeout`` (seconds).  For each, the command runs with its standard
output and error in the files ``stdout`` and ``stderr`` of ``cwd``, and is
killed if it outlives the timeout.  The answer is one JSON line: ``wall``
(seconds from spawn until ``wait4`` returns), ``status`` (exit code) and
``maxrss_kb``.  The process ends when its standard input closes.

It exists for ``ru_maxrss``: on Linux a child's peak resident size starts
at its parent's peak when it was spawned.  Started from ``run.py``, which
holds the generated documents, every call would report at least that
process's memory; this process holds nothing but itself.
"""

import json
import os
import signal
import subprocess
import sys
import time


def run(argv: list[str], cwd: str, env: dict[str, str], timeout: float) -> dict:
    with open(os.path.join(cwd, "stdout"), "wb") as out, \
            open(os.path.join(cwd, "stderr"), "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        signal.signal(signal.SIGALRM, lambda *_: child.kill())
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "status": child.returncode, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
