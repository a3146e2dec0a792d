"""Paired benchmark runs of two source trees, written as a BENCH_<label>.json file.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload lightning-wide \
        --seeds 11 12 13 14 15 --label wide-once [--out DIR] [--parent-rev REV] [--change-rev REV]

For each workload and seed it runs ``python3 perfbench/run.py --workload W
--seed S`` once from each tree, back to back, in a fresh process with the
tree as working directory; the side that runs first alternates from seed to
seed.  The last line of each run's output is its result object.  Every
end-to-end metric gets both sides' runs, min, quartiles, median and p90, the
number of pairs the change won, and the relative change of the median.  The
trees are only read, apart from what ``perfbench/run.py`` itself writes
under each tree's ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: {' '.join(cmd[1:])} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def summary(runs: list) -> dict:
    q1, median, q3, p90 = np.percentile(runs, [25, 50, 75, 90])
    out = {"runs": runs, "min": min(runs), "q1": q1, "median": median, "q3": q3, "p90": p90}
    return {k: [round(x, 6) for x in v] if k == "runs" else round(float(v), 6)
            for k, v in out.items()}


def revision(tree: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else tree.name


def bench_workload(trees: dict, workload: str, seeds: list, better: dict) -> dict:
    results = {side: [] for side in SIDES}
    first_side = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first_side.append(order[0])
        for side in order:
            results[side].append(run_once(trees[side], workload, seed))
            print(f"{workload} seed {seed} {side}: "
                  f"wall_s {results[side][-1]['metrics']['wall_s']['value']:.3f}", file=sys.stderr)
    metrics = {}
    for name, (unit, direction) in better.items():
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        sign = 1 if direction == "lower" else -1
        won = sum(sign * (c - p) < 0 for p, c in zip(runs["parent"], runs["change"]))
        entry = {"unit": unit, "better": direction}
        entry.update({side: summary(runs[side]) for side in SIDES})
        parent_median = entry["parent"]["median"]
        entry["change_better_pairs"] = won
        entry["median_change_rel"] = (
            round(entry["change"]["median"] / parent_median - 1, 4) if parent_median else None)
        metrics[name] = entry
    operations = {side: {"attempted": sum(r["attempted"] for r in results[side]),
                         "failed": sum(r["failed"] for r in results[side]),
                         "all_correct": all(r["correct"] for r in results[side])}
                  for side in SIDES}
    return {"seeds": seeds, "first_side": first_side, "pairs": len(seeds),
            "operations": operations, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="source tree of the parent commit")
    ap.add_argument("change", type=Path, help="source tree of the change")
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", type=Path, default=Path("."), help="directory for the BENCH file")
    for side in SIDES:
        ap.add_argument(f"--{side}-rev", help=f"what the {side} tree is (default: its git HEAD)")
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    args.out.mkdir(parents=True, exist_ok=True)  # before the runs, which a missing one would lose
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    doc = {
        "label": args.label,
        "command": "python3 perfbench/run.py --workload W --seed S",
        "parent": args.parent_rev or revision(trees["parent"]),
        "change": args.change_rev or revision(trees["change"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "thread_env": "perfbench sets OMP/OPENBLAS/MKL/NUMEXPR/VECLIB/BLIS_NUM_THREADS=1 "
                      "in each command's environment",
        "pairing": "one parent run and one change run per seed, back to back, alternating "
                   "which side runs first; first_side gives the side that ran first for each seed",
        "workloads": {w: bench_workload(trees, w, args.seeds, better) for w in args.workload},
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
