"""Command-line interface: output formats, artifacts, exit codes."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from slspectra.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run(tmp_path, *argv):
    return main(["--out", str(tmp_path), *argv])


class TestEig:
    def test_sqrt_poles_table(self, tmp_path, capsys):
        assert run(tmp_path, "eig", "--tau", "sqrt", "--range", "0,100") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,lambda"
        got = [float(line.split(",")[1]) for line in lines[1:]]
        assert got == pytest.approx(oracles.sqrt_poles_free(3), rel=1e-9)
        csv_lines = (tmp_path / "eig.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "k,lambda"
        assert len(csv_lines) == 4

    def test_negative_range_needs_equals_form(self, tmp_path, capsys):
        assert run(tmp_path, "eig", "--tau", "constant:0", "--range=-1,50") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        got = [float(line.split(",")[1]) for line in lines[1:]]
        assert got == pytest.approx([0.0, math.pi**2, 4 * math.pi**2], abs=1e-8)

    def test_empty_range_exit_code(self, tmp_path, capsys):
        assert run(tmp_path, "eig", "--tau", "sqrt", "--range", "5,5") == 2
        assert "error:" in capsys.readouterr().err

    def test_range_beyond_scan_cap_exit_code(self, tmp_path, capsys):
        assert run(tmp_path, "eig", "--tau", "sqrt", "--range", "0,1e12") == 2
        assert "widest range allowed" in capsys.readouterr().err

    def test_deterministic_artifacts(self, tmp_path, capsys):
        run(tmp_path / "a", "eig", "--tau", "sqrt", "--range", "0,200")
        run(tmp_path / "b", "eig", "--tau", "sqrt", "--range", "0,200")
        capsys.readouterr()
        a = (tmp_path / "a" / "eig.csv").read_bytes()
        b = (tmp_path / "b" / "eig.csv").read_bytes()
        assert a == b

    def test_config_file_loading(self, tmp_path, capsys):
        cfg = CONFIG_DIR / "middle_third.ini"
        code = run(
            tmp_path, "--config", str(cfg), "eig", "--tau", "constant:0",
            "--range=-1,100",
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        got = [float(line.split(",")[1]) for line in lines[1:]]
        want = [s for s in oracles.midthird_eigs_closed(100.0)]
        assert got == pytest.approx(want, abs=1e-7)

    def test_missing_config_exit_code(self, tmp_path, capsys):
        code = run(tmp_path, "--config", str(tmp_path / "nope.ini"), "eig",
                   "--tau", "sqrt", "--range", "0,10")
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_tau_exit_code(self, tmp_path, capsys):
        assert run(tmp_path, "eig", "--tau", "cot", "--range", "0,10") == 2
        assert "error:" in capsys.readouterr().err


class TestMfun:
    def test_reference_value(self, tmp_path, capsys):
        assert run(tmp_path, "mfun", "--tau", "sqrt", "--lambda", "-1") == 0
        line = capsys.readouterr().out.strip().splitlines()[0]
        assert line.startswith("m = ")
        re_s, im_s = line[4:].rstrip("i").split(" + ")
        assert float(re_s) == pytest.approx(math.tanh(2.0), rel=1e-12)
        assert float(im_s) == pytest.approx(1.0 / math.cosh(2.0), rel=1e-12)
        doc = json.loads((tmp_path / "mfun.json").read_text())
        assert float(doc["m"][0]) == pytest.approx(math.tanh(2.0), rel=1e-12)

    def test_trace_artifact(self, tmp_path, capsys):
        code = run(tmp_path, "mfun", "--tau", "sqrt", "--lambda", "4,1", "--trace")
        assert code == 0
        capsys.readouterr()
        lines = (tmp_path / "mfun_trace.csv").read_text().strip().splitlines()
        assert lines[0] == "t,re_y,im_y,re_y1,im_y1"
        assert len(lines) == 202
        first = [float(x) for x in lines[1].split(",")]
        assert first == pytest.approx([0.0, 1.0, 0.0, 0.0, 0.0], abs=1e-14)

    def test_ode_tol_flag_uses_integrator(self, tmp_path, capsys):
        code = run(tmp_path, "--ode-tol", "1e-6", "mfun", "--tau", "sqrt",
                   "--lambda", "2j")
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[0]
        re_s, im_s = line[4:].rstrip("i").split(" + ")
        want = oracles.m_sqrt_free(2j)
        assert complex(float(re_s), float(im_s)) == pytest.approx(want, rel=1e-5)


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "--tau", "constant:nan"),
            ("eig", "--tau", "constant:inf", "--range", "0,10"),
            ("mfun", "--tau", "sqrt", "--lambda", "nan"),
            ("mfun", "--tau", "sqrt", "--lambda", "inf"),
            ("classify", "--tau", "mobius:nan,0,0,1"),
        ],
    )
    def test_usage_error(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv) == 2
        assert "finite" in capsys.readouterr().err


class TestSpectral:
    def test_gap_window_empty(self, tmp_path, capsys):
        code = run(tmp_path, "spectral", "--tau", "constant:0",
                   "--window", "12,35", "--nodes", "32")
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["masses"] == []
        assert all(abs(float(r)) < 1e-12 for _, r in doc["ac"])
        on_disk = json.loads((tmp_path / "spectral.json").read_text())
        assert on_disk["masses"] == []
        assert (tmp_path / "spectral_ac.csv").exists()
        assert (tmp_path / "spectral_masses.csv").exists()

    def test_sqrt_masses_json(self, tmp_path, capsys):
        code = run(tmp_path, "spectral", "--tau", "sqrt",
                   "--window=-10,40", "--nodes", "32")
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        locs = [float(s) for s, _ in doc["masses"]]
        jumps = [float(j) for _, j in doc["masses"]]
        assert locs == pytest.approx(oracles.sqrt_poles_free(2), rel=1e-8)
        assert jumps == pytest.approx([2.0, 2.0], abs=1e-6)


class TestExpand:
    def test_profile_artifacts(self, tmp_path, capsys):
        code = run(
            tmp_path, "expand", "--tau", "constant:0", "--y", "cospi",
            "--schedule", "1:-1,1;3:-10,50", "--window=-10,50",
            "--nodes", "32", "--t-points", "11",
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["truncations"]) == 2
        sups = [float(tr["sup_error"]) for tr in doc["truncations"]]
        # cos(pi t) is the second eigenfunction: one mode is not enough,
        # three modes reproduce it to quadrature accuracy
        assert sups[0] > 0.5
        assert sups[1] < 1e-8
        for i in range(2):
            table = (tmp_path / f"expand_trunc{i}.csv").read_text().splitlines()
            assert table[0] == "t,y_true,y_reconstructed,abs_error"
            assert len(table) == 12
            # the tables and expand.json come from the same reconstruction
            abs_error = [float(line.split(",")[3]) for line in table[1:]]
            assert max(abs_error) == sups[i]

    @pytest.mark.parametrize("t_points", ["0", "-3"])
    def test_empty_t_grid_exit_code(self, tmp_path, capsys, t_points):
        code = run(tmp_path, "expand", "--tau", "constant:0", "--y", "cospi",
                   "--schedule", "1:-1,1", "--window=-10,50", "--nodes", "32",
                   f"--t-points={t_points}")
        assert code == 2
        assert "t grid" in capsys.readouterr().err

    def test_unknown_builtin_y(self, tmp_path, capsys):
        code = run(tmp_path, "expand", "--tau", "constant:0", "--y", "bogus",
                   "--schedule", "1:-1,1", "--window=-1,1")
        assert code == 2
        assert "builtins" in capsys.readouterr().err


class TestClassify:
    def test_sqrt_is_bc3(self, tmp_path, capsys):
        assert run(tmp_path, "classify", "--tau", "sqrt") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["class"] == "bc3"
        assert doc["moment_finite"] is False
        assert doc["eta"] in ("full-range", "graph", "zero")
        assert set(doc) == {"class", "d_tau", "eta", "B", "moment_finite", "D", "tau"}

    def test_robin_constant(self, tmp_path, capsys):
        assert run(tmp_path, "classify", "--tau", "constant:0.7") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["class"] == "bc2"
        assert doc["d_tau"] == pytest.approx(0.7, abs=1e-12)

    def test_infinity_skips_asymptotics(self, tmp_path, capsys):
        assert run(tmp_path, "classify", "--tau", "infinity") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["class"] == "bc1"
        assert doc["B"] is None and doc["moment_finite"] is None


class TestManifest:
    def test_manifest_contents(self, tmp_path, capsys):
        run(tmp_path, "eig", "--tau", "sqrt", "--range", "0,100")
        capsys.readouterr()
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["command"].startswith("slspectra ")
        assert "eig" in doc["command"].split()
        assert doc["tool_version"] == "0.1.0"
        assert len(doc["config_hash"]) == 64
        assert int(doc["config_hash"], 16) >= 0
        assert "T" in doc["timestamp"]
        assert any(name.endswith("eig.csv") for name in doc["outputs"])

    def test_hash_tracks_config(self, tmp_path, capsys):
        run(tmp_path / "a", "eig", "--tau", "sqrt", "--range", "0,100")
        run(tmp_path / "b", "--config", str(CONFIG_DIR / "free_unit.ini"),
            "eig", "--tau", "sqrt", "--range", "0,100")
        capsys.readouterr()
        h_a = json.loads((tmp_path / "a" / "manifest.json").read_text())["config_hash"]
        h_b = json.loads((tmp_path / "b" / "manifest.json").read_text())["config_hash"]
        assert h_a != h_b


class TestVerifyExample:
    def test_capped_schedule_fails_criterion(self, tmp_path, capsys):
        # k_max=1 starves the mixed expansion; exactly that criterion fails
        code = run(tmp_path, "verify-example", "--k-max", "1")
        out = capsys.readouterr().out
        assert code == 1
        assert "VERIFICATION FAILED" in out
        fails = [l for l in out.splitlines() if l.startswith("FAIL")]
        assert len(fails) == 1
        assert "mixed" in fails[0]
        assert (tmp_path / "verify.txt").read_text().count("\n") == 9


@pytest.mark.skipif(shutil.which("slspectra") is None,
                    reason="console script not on PATH")
def test_console_script_help():
    proc = subprocess.run(
        ["slspectra", "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    for name in ("eig", "mfun", "spectral", "expand", "classify", "verify-example"):
        assert name in proc.stdout
