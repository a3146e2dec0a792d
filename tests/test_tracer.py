"""The benchmark's traced mode still installs against the program.

``perfbench/tracer.py`` wraps the public functions and methods it finds in
every layer; a change to those layers can leave it counting nothing, or
failing, without any other test noticing.  This runs traced commands of the
lightning and money layers (about half a second each) and reads
``perfbench/`` only.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GAME = ["lightning", "game", "--n", "2", "--m", "12", "--key-seed", "7", "--seed", "1",
        "--storm", "cheat-duplicate", "--strategy", "circuit", "--trials", "3"]


def _traced_and_plain(tmp_path, argv) -> tuple:
    """(stdout, the traced run's metrics) of argv run traced and untraced in tmp_path, after
    checking that both exit 0 and write the same stdout."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OMP_NUM_THREADS": "1"}
    prefix = tmp_path / "trace"
    traced = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(prefix), "0", "--", *argv],
        env=env, capture_output=True, text=True, cwd=tmp_path)
    plain = subprocess.run([sys.executable, "-m", "boltlab.cli", *argv],
                           env=env, capture_output=True, text=True, cwd=tmp_path)
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    return plain.stdout, json.loads((tmp_path / "trace.json").read_text())["metrics"]


def test_traced_run_reports_the_same_bytes_and_counts_the_layers(tmp_path):
    out, metrics = _traced_and_plain(tmp_path, GAME)
    assert json.loads(out)["trials"] == 3
    assert metrics["lightning.verify_registers"] > 0
    assert metrics["extraction.analyses"] > 0
    assert metrics["extraction.unextract_calls"] > 0


def test_traced_money_runs_report_the_same_bytes_and_count_the_verifier(tmp_path):
    note = tmp_path / "note.json"
    _, metrics = _traced_and_plain(tmp_path, ["money", "gen", "--n", "8", "--seed", "2",
                                              "--out", str(note)])
    assert metrics["money.notes"] == 1 and json.loads(note.read_text())["n"] == 8
    out, metrics = _traced_and_plain(tmp_path, ["money", "verify", "--note", str(note)])
    assert json.loads(out)["sampled_accept"] is True
    assert metrics["money.verify_calls"] >= 1
    out, metrics = _traced_and_plain(tmp_path, ["money", "counterfeit", "--n", "4",
                                                "--trials", "50"])
    assert json.loads(out)["trials"] == 50 and metrics["money.self_s"] > 0
