"""The benchmark's traced mode still installs against the program.

``perfbench/tracer.py`` wraps the public functions and methods it finds in
every layer; a change to those layers can leave it counting nothing, or
failing, without any other test noticing.  This runs one traced command
(about half a second) and reads ``perfbench/`` only.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GAME = ["lightning", "game", "--n", "2", "--m", "12", "--key-seed", "7", "--seed", "1",
        "--storm", "cheat-duplicate", "--strategy", "circuit", "--trials", "3"]


def test_traced_run_reports_the_same_bytes_and_counts_the_layers(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OMP_NUM_THREADS": "1"}
    prefix = tmp_path / "trace"
    traced = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(prefix), "0", "--", *GAME],
        env=env, capture_output=True, text=True, cwd=tmp_path)
    plain = subprocess.run([sys.executable, "-m", "boltlab.cli", *GAME],
                           env=env, capture_output=True, text=True, cwd=tmp_path)
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout and json.loads(plain.stdout)["trials"] == 3
    metrics = json.loads((tmp_path / "trace.json").read_text())["metrics"]
    assert metrics["lightning.verify_registers"] > 0
    assert metrics["extraction.analyses"] > 0
