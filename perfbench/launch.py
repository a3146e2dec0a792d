"""Run one command; record its wall time, exit code and peak resident set.

Usage: python3 launch.py STATS_FILE TIMEOUT_S -- command [args...]

Linux carries the high-water RSS of the image a child was forked from over
its exec, so a child of the benchmark process (which holds numpy, scipy and
large reference tables) would report at least the benchmark's own peak.
This launcher imports nothing heavy, so the peak that os.wait4 reports for
its child is the command's own.  stdin/stdout/stderr pass through; the
command is killed after TIMEOUT_S seconds and always waited for.
"""
import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    stats_path, timeout, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        raise SystemExit("usage: launch.py STATS_FILE TIMEOUT_S -- command [args...]")
    start = time.monotonic()
    proc = subprocess.Popen(argv)
    killer = threading.Timer(float(timeout), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stats_path, "w") as fh:
        json.dump({"spawned": start, "wall_s": end - start,
                   "rss_kb": usage.ru_maxrss, "exit": proc.returncode}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
