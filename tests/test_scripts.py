"""Smoke tests of the scripts in scripts/, run as fresh processes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )


def test_convergence_study():
    proc = run_script("convergence_study.py", "--ks", "2,5", "--nodes", "200", "--t-points", "21")
    assert proc.returncode == 0, proc.stderr
    assert "monotone tail: True" in proc.stdout


def test_density_profile(tmp_path):
    out = tmp_path / "density.csv"
    proc = run_script("density_profile.py", "--n", "5", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert all(float(row["rel_err"]) < 1e-10 for row in rows)
