"""Golden-results ledger: the README CLI examples and a variable-p case, rerun.

Each file tests/golden/<case>.json holds the command line of one case, the
commit it was recorded at, the numbers the package printed there (every
float round-trips, so all 17 significant digits are kept) and, where
tests/oracles.py has a closed form for them, the oracle values next to
them.  The test reruns each case through ``cli.main`` and compares every
number with a tolerance per quantity, relative to max(|value|, floor):

* eigenvalues, poles and ac nodes 1e-11 (floor 1, for a root at 0), m and
  the classify limits B, D and d_tau 1e-11: the root refinement stops at
  widths near 1e-14 relative, so 1e-11 leaves room only for rounding;
* ac densities 1e-10: one quotient of endpoint states, a few roundings;
* point masses 1e-8: the ledger was recorded with a central-difference
  residue (h = 1e-5 (1 + |lambda|)), accurate to about that; the
  complex-step residue that replaced it moves them by up to 2e-9;
* expand sup errors 1e-6: each is the maximum of a sum over thousands of
  terms with quadratures at 1e-11.

Labels, booleans and counts must match exactly.  A golden value may change
only if the new value is at least as close to its oracle or, where there is
none, with the reason given in CHANGES.md.  ``python tests/test_golden.py``
writes the files that do not exist yet; it never overwrites one.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the oracles module

import oracles  # noqa: E402

from slspectra import cli  # noqa: E402

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parents[1]
MID = str(ROOT / "configs" / "middle_third.ini")
LINEAR_P = str(ROOT / "configs" / "linear_p.ini")
EXPAND_SCHEDULE = "2:-500,0;5:-1250,0;10:-2500,0"

CASES = {
    "eig_free_sqrt": ["eig", "--tau", "sqrt", "--range", "0,1000"],
    "eig_free_c0": ["eig", "--tau", "constant:0", "--range=-1,50"],
    "mfun_free_sqrt_minus1": ["mfun", "--tau", "sqrt", "--lambda", "-1"],
    "mfun_free_sqrt_4_1i": ["mfun", "--tau", "sqrt", "--lambda", "4,1"],
    "spectral_free_sqrt": ["spectral", "--tau", "sqrt", "--window=-50,100", "--nodes", "600"],
    "expand_free_sqrt": ["expand", "--tau", "sqrt", "--y", "quartic", "--schedule",
                         EXPAND_SCHEDULE, "--window=-10000,16000"],
    "classify_constant": ["classify", "--tau", "constant:0.7"],
    "classify_infinity": ["classify", "--tau", "infinity"],
    "classify_sqrt": ["classify", "--tau", "sqrt"],
    "classify_mobius": ["classify", "--tau", "mobius:2,-1,3,0.5"],
    "eig_mid_c0": ["--config", MID, "eig", "--tau", "constant:0", "--range=-1,500"],
    "spectral_mid_sqrt": ["--config", MID, "spectral", "--tau", "sqrt", "--window=-50,400",
                          "--nodes", "600"],
    "eig_linear_p_c0": ["--config", LINEAR_P, "eig", "--tau", "constant:0", "--range=-5,600"],
    "spectral_linear_p_c0": ["--config", LINEAR_P, "spectral", "--tau", "constant:0",
                             "--window=-5,600"],
}

# quantity -> (relative tolerance, floor of the scale)
TOLERANCES = {
    "eigenvalues": (1e-11, 1.0),
    "poles": (1e-11, 1.0),
    "ac_nodes": (1e-11, 1.0),
    "m": (1e-11, 0.0),
    "B": (1e-11, 1.0),
    "D": (1e-11, 1.0),
    "d_tau": (1e-11, 1.0),
    "density": (1e-10, 0.0),
    "masses": (1e-8, 0.0),
    "sup_errors": (1e-6, 0.0),
}


def _column(path: Path, name: str) -> list[float]:
    with path.open(newline="") as fh:
        return [float(row[name]) for row in csv.DictReader(fh)]


def run_case(argv: list[str], out: Path) -> dict:
    """Run one case through the CLI and collect the numbers it produced."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--out", str(out)] + argv)
    assert code == 0, argv
    command = argv[argv.index("--config") + 2] if "--config" in argv else argv[0]
    if command == "eig":
        return {"eigenvalues": _column(out / "eig.csv", "lambda")}
    if command == "mfun":
        return {"m": [float(v) for v in json.loads((out / "mfun.json").read_text())["m"]]}
    if command == "spectral":
        return {
            "poles": _column(out / "spectral_masses.csv", "s"),
            "masses": _column(out / "spectral_masses.csv", "jump"),
            "ac_nodes": _column(out / "spectral_ac.csv", "u"),
            "density": _column(out / "spectral_ac.csv", "rho"),
        }
    if command == "expand":
        doc = json.loads((out / "expand.json").read_text())
        return {
            "sup_errors": [float(t["sup_error"]) for t in doc["truncations"]],
            "monotone_tail": doc["monotone_tail"],
        }
    doc = json.loads((out / "classify.json").read_text())
    return {k: doc[k] for k in ("class", "eta", "B", "moment_finite", "D", "d_tau")}


def _oracle(case: str, values: dict) -> dict:
    """Independent values from tests/oracles.py, where a closed form exists."""
    if case == "eig_free_sqrt":
        return {"eigenvalues": oracles.sqrt_poles_free(len(values["eigenvalues"]))}
    if case == "eig_free_c0":
        return {"eigenvalues": oracles.neumann_eigs_free(len(values["eigenvalues"]))}
    if case.startswith("mfun_"):
        lam = {"mfun_free_sqrt_minus1": -1.0 + 0j, "mfun_free_sqrt_4_1i": 4.0 + 1j}[case]
        m = oracles.m_sqrt_free(lam)
        return {"m": [m.real, m.imag]}
    if case == "spectral_free_sqrt":
        poles = oracles.sqrt_poles_free(len(values["poles"]))
        return {
            "poles": poles,
            "masses": [oracles.SQRT_JUMP_FREE] * len(poles),
            "density": [oracles.density_sqrt_free(u) if u < 0.0 else 0.0
                        for u in values["ac_nodes"]],
        }
    if case == "eig_mid_c0":
        return {"eigenvalues": oracles.midthird_eigs_closed(500.0)}
    if case == "eig_linear_p_c0":
        return {"eigenvalues": oracles.linear_p_eigs(600.0)}
    if case == "spectral_linear_p_c0":
        poles = oracles.linear_p_eigs(600.0)
        return {"poles": poles, "masses": [oracles.linear_p_mass(lam) for lam in poles]}
    return {}


def _stored(argv: list[str]) -> list[str]:
    """argv as a golden file records it: config paths relative to the repo."""
    return [str(Path(a).relative_to(ROOT)) if a in (MID, LINEAR_P) else a for a in argv]


def _deviation(name: str, got, want) -> float:
    """Largest deviation of got from want, in units of the quantity's tolerance."""
    tol, floor = TOLERANCES[name]
    if name == "m":
        got, want = complex(*got), complex(*want)
        return abs(got - want) / (tol * max(abs(want), floor))
    got, want = np.atleast_1d(np.asarray(got, float)), np.atleast_1d(np.asarray(want, float))
    if got.shape != want.shape:
        return math.inf
    scale = tol * np.maximum(np.abs(want), floor)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(got == want, 0.0, np.abs(got - want) / scale)
    return float(np.max(ratio, initial=0.0))


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, tmp_path):
    doc = json.loads((GOLDEN / f"{case}.json").read_text())
    assert doc["argv"] == _stored(CASES[case])
    got = run_case(CASES[case], tmp_path)
    assert sorted(got) == sorted(doc["values"])
    for name, want in doc["values"].items():
        if name in TOLERANCES and want is not None:
            assert _deviation(name, got[name], want) <= 1.0, name
        else:
            assert got[name] == want, name


def _write_missing() -> None:
    """Record every case that has no golden file yet."""
    import tempfile

    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                            text=True, cwd=Path(__file__).parent).stdout.strip()
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        path = GOLDEN / f"{case}.json"
        if path.exists():
            continue
        with tempfile.TemporaryDirectory() as tmp:
            values = run_case(argv, Path(tmp))
        doc = {
            "argv": _stored(argv),
            "commit": commit,
            "values": values,
            "oracle": _oracle(case, values),
        }
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    _write_missing()
