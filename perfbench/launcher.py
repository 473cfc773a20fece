"""Starts one CLI invocation at a time and reports the wait4 usage of its process tree.

A process's peak RSS starts at the peak of the process that forked it. The
benchmark holds a corpus and the oracle's expected outputs in memory, so the
invocations are forked from this small process instead, and each one's peak
RSS is its own.

Protocol: one JSON request per line on stdin, with keys argv, env, cwd,
stdout, stderr (file paths) and probe; one JSON reply per line on stdout,
with keys code, wall, cpu, rss_kb and workers. With probe set, /proc is
polled while the invocation runs to count its worker processes. The
launcher exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time

PROBE_INTERVAL_S = 0.02


def worker_pids(pid: int) -> set:
    """Child processes of `pid` doing work (a multiprocessing resource tracker is not)."""
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
            if int(stat[stat.rindex(b")") + 2:].split()[1]) != pid:
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                if b"resource_tracker" in handle.read():
                    continue
        except (OSError, ValueError):
            continue  # the process ended while we looked
        found.add(int(entry))
    return found


def run(request: dict) -> dict:
    workers = set()
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        began = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err,
                                env=request["env"], cwd=request["cwd"])
        while True:
            done, status, usage = os.wait4(proc.pid, os.WNOHANG if request["probe"] else 0)
            if done:
                break
            workers |= worker_pids(proc.pid)
            time.sleep(PROBE_INTERVAL_S)
        wall = time.perf_counter() - began
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss, "workers": max(1, len(workers))}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
