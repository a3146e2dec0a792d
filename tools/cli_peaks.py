"""Wall time and peak resident set of one boltlab CLI command, run from two source trees.

    python3 tools/cli_peaks.py PARENT_TREE CHANGE_TREE -- <boltlab args>

for example, from a directory that holds an m=20 key and bolt,

    python3 tools/cli_peaks.py ../parent . -- lightning verify --key wkey.json \\
        --bolt wbolt.json --strategy circuit --seed 1

Each run is a fresh ``python3 -m boltlab.cli`` process with the tree's ``src/``
on PYTHONPATH and BLAS at one thread (``cli_regress.THREAD_ENV``), started by
``perfbench/launch.py``, so the peak it records is the command's own and not
this script's.  Each side runs RUNS = 7 times, and the sides alternate, the
parent first on even runs.  The command runs in the current directory, which
both sides share: its file names are relative to it, and a command that writes
a file writes it on every run.  Its stdout and stderr are discarded.  For each
side the script prints the wall time and peak RSS as min, median and max, and
the exit codes seen; it exits 1 when the two sides' exit codes differ.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from cli_regress import THREAD_ENV

LAUNCH = Path(__file__).resolve().parent.parent / "perfbench" / "launch.py"
SIDES = ("parent", "change")
RUNS = 7


def run_once(tree: Path, args: list, stats: Path) -> dict:
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(tree / "src")}
    subprocess.run([sys.executable, str(LAUNCH), str(stats), "600", "--",
                    sys.executable, "-m", "boltlab.cli", *args],
                   env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
    return json.loads(stats.read_text())


def spread(values: list) -> str:
    return f"min {min(values):.3f} median {statistics.median(values):.3f} max {max(values):.3f}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        raise SystemExit("usage: cli_peaks.py PARENT_TREE CHANGE_TREE -- <boltlab args>")
    cut = argv.index("--")
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="source tree of the parent commit")
    ap.add_argument("change", type=Path, help="source tree of the change")
    args = ap.parse_args(argv[:cut])
    command = argv[cut + 1:]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(RUNS):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[side].append(run_once(trees[side], command, Path(tmp) / "stats.json"))
    print("boltlab " + " ".join(command))
    for side in SIDES:
        walls = [r["wall_s"] for r in runs[side]]
        peaks = [r["rss_kb"] / 1024 for r in runs[side]]
        codes = sorted({r["exit"] for r in runs[side]})
        print(f"{side:6}  wall_s {spread(walls)}  peak_rss_mib {spread(peaks)}  "
              f"exit {', '.join(map(str, codes))}")
    return int({r["exit"] for r in runs["parent"]} != {r["exit"] for r in runs["change"]})


if __name__ == "__main__":
    sys.exit(main())
