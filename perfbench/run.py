"""Benchmark of the boltlab CLI: end-to-end runs and a per-layer traced run.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  Each command of a workload runs in a fresh
process, ``python3 -m boltlab.cli ...`` with src/ on PYTHONPATH and the
BLAS/OpenMP thread variables set to 1 in the child environment only.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give every metric with
its unit.  A results file with the environment and every command's record
goes to perfbench/results/.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import reference  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Context, KnownFault  # noqa: E402

THREAD_VARS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}
SETUP_REPS = 3
RUN_LIMIT_S = 170.0  # every process is killed after this, so a run ends within 180 s

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("trials_per_s", "1/s"), ("peak_rss_mb", "MiB"),
]
PER_LAYER = [
    ("lightning.self_s", "s"), ("lightning.verify_registers", "count"),
    ("lightning.verify_attempts", "count"), ("lightning.verify_accepts", "count"),
    ("lightning.span_projections", "count"), ("lightning.distinct_registers", "count"),
    ("lightning.span_states_builds", "count"), ("lightning.span_states_hits", "count"),
    ("qsim.self_s", "s"), ("qsim.calls", "count"), ("qsim.statevector_builds", "count"),
    ("qsim.measure_calls", "count"), ("qsim.measure_posts", "count"),
    ("qsim.amp_bytes", "B"), ("qsim.max_amp_bytes", "B"), ("qsim.hadamard_all_s", "s"),
    ("qsim.state_dump_s", "s"), ("qsim.state_load_s", "s"),
    ("jsonio.dumps_s", "s"), ("jsonio.bytes_out", "B"),
    ("jsonio.loads_s", "s"), ("jsonio.bytes_in", "B"),
    ("extraction.self_s", "s"), ("extraction.plan_builds", "count"),
    ("extraction.plan_build_s", "s"), ("extraction.plan_hits", "count"),
    ("extraction.analyses", "count"), ("extraction.analysis_s", "s"),
    ("extraction.extract_calls", "count"), ("extraction.unextract_calls", "count"),
    ("gf2.self_s", "s"), ("gf2.rref_calls", "count"), ("gf2.solve_affine_calls", "count"),
    ("gf2.random_subspace_calls", "count"), ("gf2.all_subspaces_candidates", "count"),
    ("gf2.all_subspaces_found", "count"),
    ("bounds.self_s", "s"), ("bounds.gram_s", "s"), ("bounds.eigh_s", "s"),
    ("bounds.power_iterations", "count"), ("bounds.matrix_size", "count"),
    ("money.self_s", "s"), ("money.notes", "count"), ("money.verify_calls", "count"),
    ("mqhash.self_s", "s"), ("mqhash.digest_table_builds", "count"),
    ("mqhash.digest_table_s", "s"), ("mqhash.digest_table_hits", "count"),
    ("mqhash.eval_digest_calls", "count"),
    ("attacks.self_s", "s"), ("attacks.calls", "count"), ("attacks.tries", "count"),
    ("cli.cold_start_s", "s"), ("cli.commands", "count"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
]
MAXIMA = {"qsim.max_amp_bytes", "bounds.matrix_size"}


class SetupFailed(Exception):
    pass


def environment() -> dict:
    rev = None
    if (ROOT / ".git").exists():  # a plain copy of the tree has no revision
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_revision": rev,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "child_thread_env": THREAD_VARS,
    }


class Runner:
    """Spawns commands one at a time and records wall time and peak RSS."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "LF_QUBIT_CAP"}
        self.env.update(THREAD_VARS, PYTHONPATH=str(ROOT / "src"))

    def spawn(self, argv: list) -> dict:
        """Run argv through launch.py, which times it and reads its peak RSS."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise SetupFailed("run time limit reached")
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        stats_path = self.work / "stats.json"
        stats_path.unlink(missing_ok=True)
        launcher = [sys.executable, str(BENCH / "launch.py"), str(stats_path),
                    str(remaining), "--", *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            # own process group, so the backstop below also reaches the command
            proc = subprocess.Popen(launcher, stdout=out, stderr=err, env=self.env, cwd=ROOT,
                                    start_new_session=True)
            backstop = threading.Timer(remaining + 5, os.killpg, (proc.pid, signal.SIGKILL))
            backstop.start()
            try:
                proc.wait()
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            finally:
                backstop.cancel()
        if proc.returncode != 0 or not stats_path.exists():
            raise SetupFailed(f"launcher for {argv[2:]} exited {proc.returncode}")
        stats = json.loads(stats_path.read_text())
        return {
            "exit": stats["exit"],
            "spawned": stats["spawned"],
            "wall_s": stats["wall_s"],
            "rss_mb": stats["rss_kb"] / 1024.0,
            "stdout": out_path.read_bytes(),
            "stderr": err_path.read_bytes()[-2000:].decode(errors="replace"),
        }

    def cli(self, args: list, trace_prefix: Path | None = None, op_id: int = 0) -> dict:
        if trace_prefix is None:
            return self.spawn([sys.executable, "-m", "boltlab.cli", *args])
        return self.spawn([sys.executable, str(BENCH / "tracer.py"), str(trace_prefix),
                           str(op_id), "--", *args])


def run_setup(runner: Runner, wl, ctx: Context) -> list:
    """Set up SETUP_REPS times; returns the set-up times."""
    times, digests = [], None
    for _ in range(SETUP_REPS):
        total = 0.0
        for argv in [[sys.executable, "-c", "import boltlab.cli"]] + [
                [sys.executable, "-m", "boltlab.cli", *cmd.args] for cmd in wl.setup]:
            res = runner.spawn(argv)
            if res["exit"] != 0:
                raise SetupFailed(f"set-up command {argv[2:]} exited {res['exit']}: "
                                  f"{res['stderr']}")
            total += res["wall_s"]
        times.append(total)
        now = [hashlib.sha256(cmd.out.read_bytes()).hexdigest() for cmd in wl.setup]
        if digests is not None and now != digests:
            raise SetupFailed("set-up outputs differ between runs with the same flags")
        digests = now
    try:
        wl.prepare(ctx)
        for cmd in wl.setup:
            cmd.check(json.loads(cmd.out.read_text()), ctx)
    except (CheckFailed, KeyError, TypeError, ValueError) as exc:
        raise SetupFailed(f"set-up output check failed: {exc}") from exc
    return times


def check_report(cmd, report: bytes, ctx: Context) -> dict:
    try:
        doc = json.loads(report)
        cmd.check(doc, ctx)
        return {"status": "ok", "trials": cmd.trials(doc)}
    except KnownFault as exc:
        return {"status": "known_fault", "detail": str(exc)}
    except (CheckFailed, KeyError, TypeError, ValueError) as exc:
        return {"status": "failed", "detail": f"{type(exc).__name__}: {exc}"}


def run_round(runner: Runner, wl, ctx: Context, first: dict, trace_dir: Path | None) -> list:
    """One pass over the command list; checks each report as it arrives.

    `first` maps each command to its first report's digest and verdict.  A
    rerun must repeat those bytes and then keeps the verdict, since the
    checks are deterministic.
    """
    records = []
    for op_id, cmd in enumerate(wl.commands):
        prefix = trace_dir / f"op{op_id:02d}" if trace_dir else None
        # no file of an earlier round may stand in for this one's output
        for stale in (cmd.out, prefix and prefix.with_suffix(".json")):
            if stale:
                stale.unlink(missing_ok=True)
        res = runner.cli(cmd.args, prefix, op_id)
        rec = {"op": op_id, "args": [a.replace(str(runner.work), "<work>") for a in cmd.args],
               "exit": res["exit"], "wall_s": res["wall_s"], "rss_mb": res["rss_mb"],
               "trials": 0}
        report = cmd.out.read_bytes() if cmd.out and cmd.out.exists() else res["stdout"]
        digest = hashlib.sha256(report).hexdigest()
        if res["exit"] != 0:
            rec.update(status="failed", detail=f"exit {res['exit']}: {res['stderr']}")
        elif op_id not in first:
            first[op_id] = (digest, check_report(cmd, report, ctx))
            rec.update(first[op_id][1])
        elif first[op_id][0] == digest:
            rec.update(first[op_id][1])
        else:
            rec.update(status="failed",
                       detail="report bytes differ from an earlier run with the same flags")
        if prefix is not None:
            summary_path = prefix.with_suffix(".json")
            if summary_path.exists():
                summary = json.loads(summary_path.read_text())
                rec["trace"] = summary["metrics"]
                rec["cold_start_s"] = summary["imported"] - res["spawned"]
            else:
                rec.update(status="failed", detail="the traced command wrote no trace",
                           trace={}, cold_start_s=0.0)
        records.append(rec)
    return records


def end_to_end(setup_times: list, rounds: list) -> dict:
    """Per-command medians over the rounds, which damp the bursts of a shared host."""
    walls = [statistics.median(rnd[op]["wall_s"] for rnd in rounds) for op in range(len(rounds[0]))]
    trial_walls = [w for w, rec in zip(walls, rounds[0]) if rec["trials"] > 0]
    trials = sum(rec["trials"] for rec in rounds[0])
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(walls),
        "trials_per_s": trials / sum(trial_walls) if trial_walls else 0.0,
        "peak_rss_mb": max(rec["rss_mb"] for rnd in rounds for rec in rnd),
    }


def per_layer(plain: list, traced: list) -> dict:
    """Counts from the first traced round, times as medians over traced rounds."""
    def round_value(rnd, name):
        if name == "cli.cold_start_s":
            return sum(rec["cold_start_s"] for rec in rnd)
        if name == "cli.commands":
            return len(rnd)
        if name == "trace.overhead_s":
            return sum(rec["wall_s"] for rec in rnd) - sum(rec["wall_s"] for rec in plain)
        values = [rec["trace"].get(name, 0) for rec in rnd]
        return max(values) if name in MAXIMA else sum(values)

    out = {}
    for name, unit in PER_LAYER:
        if unit == "s":
            out[name] = statistics.median(round_value(rnd, name) for rnd in traced)
        else:
            out[name] = round_value(traced[0], name)
    return out


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(16) % (1 << 31)]
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH, prefix="work-") as tmp:
        work = Path(tmp)
        wl = WORKLOADS[name](work, seeds)
        runner = Runner(work, started + RUN_LIMIT_S)
        ctx = Context(work)
        setup_times = run_setup(runner, wl, ctx)
        first: dict = {}
        rounds, traced = [], []
        trace_dir = results_dir / f"trace-{name}-seed{seed}" if trace else None
        if trace_dir:
            trace_dir.mkdir(exist_ok=True)
        measure_start = time.monotonic()
        while True:
            round_start = time.monotonic()
            if trace and rounds:
                traced.append(run_round(runner, wl, ctx, first, trace_dir))
            else:
                rounds.append(run_round(runner, wl, ctx, first, None))
            now = time.monotonic()
            # every run reruns each command with the same flags at least once
            min_rounds = 2 if trace else wl.min_rounds
            enough = len(rounds) + len(traced) >= min_rounds and now - measure_start >= seconds
            if enough or now + (now - round_start) > started + RUN_LIMIT_S - 10:
                break
    ops = [rec for rnd in rounds + traced for rec in rnd]
    failed = [rec for rec in ops if rec["status"] != "ok"]
    metrics = per_layer(rounds[0], traced) if trace else end_to_end(setup_times, rounds)
    units = dict(PER_LAYER if trace else END_TO_END)
    result = {
        "correct": not any(rec["status"] == "failed" for rec in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(), "setup_s_runs": setup_times,
        "rounds": rounds, "traced_rounds": traced, "result": result,
    }
    out = results_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    return result


def print_result(name: str, result: dict):
    for metric, m in result["metrics"].items():
        print(f"{name:18s} {metric:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"{name:18s} attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    if not result["correct"]:
        print(f"{name:18s} the failed checks are listed in perfbench/results/")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "boltlab" / "cli.py").is_file():
        print(f"boltlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference.self_test()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except SetupFailed as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print_result(name, result)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else name + "."
        combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
