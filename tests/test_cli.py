"""Command-line interface: output formats, artifacts, exit codes."""

import inspect
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from slspectra import QuadConfig, cli, propagator, verify
from slspectra.cli import main
from slspectra.propagator import solve_ivp

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

    def test_infinite_range_exit_code(self, tmp_path, capsys):
        assert run(tmp_path, "eig", "--tau", "constant:0", "--range=-inf,10") == 2
        assert "must be finite" in capsys.readouterr().err

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

    def test_ode_tol_flag_uses_integrator(self, tmp_path, capsys, monkeypatch):
        # the config key selects DOP853; --ode-tol sets its tolerance
        config = tmp_path / "rk.ini"
        text = (CONFIG_DIR / "free_unit.ini").read_text()
        config.write_text(text + "\n[quadrature]\nclosed_form_pieces = false\n")
        runs = []
        monkeypatch.setattr(propagator, "solve_ivp",
                            lambda *a, **kw: runs.append(kw["rtol"]) or solve_ivp(*a, **kw))
        code = run(tmp_path, "--config", str(config), "--ode-tol", "1e-6", "mfun", "--tau",
                   "sqrt", "--lambda", "2j")
        assert code == 0
        assert runs and set(runs) == {1e-6}
        line = capsys.readouterr().out.strip().splitlines()[0]
        re_s, im_s = line[4:].rstrip("i").split(" + ")
        want = oracles.m_sqrt_free(2j)
        assert complex(float(re_s), float(im_s)) == pytest.approx(want, rel=1e-5)

    @pytest.mark.parametrize("flags", [[], ["--ode-tol", "1e-9"], ["--quad-tol", "1e-8"],
                                       ["--ode-tol", "1e-9", "--quad-tol", "1e-8"]])
    def test_tolerance_flags_match_verify(self, monkeypatch, flags):
        # the flags map onto one QuadConfig, which keeps the fast engines, and
        # the verification suite takes --quad-tol alone
        args = cli.build_parser().parse_args([*flags, "eig", "--tau", "sqrt", "--range", "0,1"])
        problem, _ = cli._load_problem(args)
        quad = {"abs_tol": 1e-8, "rel_tol": 1e-8} if "--quad-tol" in flags else {}
        ode = {"ode_tol": 1e-9} if "--ode-tol" in flags else {}
        assert problem.quad == QuadConfig(**quad, **ode)
        assert problem.quad.closed_form_pieces is True

        class Built(Exception):
            pass

        def built(quad):
            raise Built(quad)

        monkeypatch.setattr(verify, "free_problem", built)
        with pytest.raises(Built) as exc:
            verify.run_all(quad_tol=args.quad_tol)
        assert exc.value.args[0] == QuadConfig(**quad)
        assert list(inspect.signature(verify.run_all).parameters) == ["k_max", "quad_tol"]

    @pytest.mark.parametrize("argv", [
        ["eig", "--tau", "sqrt", "--range", "0,1000"],
        ["--config", str(CONFIG_DIR / "linear_p.ini"), "eig", "--tau", "constant:0",
         "--range", "0,1000"],
    ], ids=["free-sqrt", "linear-p"])
    def test_ode_tol_keeps_the_engine(self, tmp_path, capsys, argv):
        # --ode-tol at its default value changes no byte: it sets a tolerance,
        # and the engine stays closed form (free) or CPM (linear p)
        outs = []
        for out, flags in ((tmp_path / "a", []), (tmp_path / "b", ["--ode-tol", "1e-11"])):
            assert run(out, *flags, *argv) == 0
            outs.append((capsys.readouterr().out, (out / "eig.csv").read_bytes()))
        assert outs[0] == outs[1]
        assert outs[0][0].count("\n") == 11


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


def _reference_table(header, rows):
    """A table rendered row by row: _fmt for a float cell, str for any other."""
    lines = [",".join(header)]
    lines += [",".join(cli._fmt(x) if isinstance(x, float) else str(x) for x in row)
              for row in rows]
    return "\n".join(lines) + "\n"


def _recording(monkeypatch, name):
    """Replace cli.<name> by a wrapper that keeps each return value."""
    results = []
    fn = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a, **k: results.append(fn(*a, **k)) or results[-1])
    return results


class TestWriterBytes:
    """Each number is formatted once, and the artifacts carry the bytes that
    json.dumps and a row-by-row _fmt rendering of the same values give."""

    @pytest.mark.parametrize("tau, window, masses", [("constant:0", "12,35", 0),
                                                     ("sqrt", "-10,40", 2)])
    def test_spectral_artifacts(self, tmp_path, capsys, monkeypatch, tau, window, masses):
        built = _recording(monkeypatch, "build_spectral_function")
        assert run(tmp_path, "spectral", "--tau", tau, f"--window={window}", "--nodes", "32") == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert len(doc["masses"]) == masses
        assert out == json.dumps(doc) + "\n"
        assert (tmp_path / "spectral.json").read_text() == json.dumps(doc, indent=2) + "\n"
        sigma = built[0]
        assert doc["ac"] == [[cli._fmt(u), cli._fmt(r)]
                             for u, r in zip(sigma.ac_grid, sigma.ac_density)]
        assert doc["masses"] == [[cli._fmt(s), cli._fmt(j)] for s, j in sigma.point_masses]
        ac_rows = zip(sigma.ac_grid.tolist(), sigma.ac_density.tolist())
        assert (tmp_path / "spectral_ac.csv").read_text() == _reference_table(["u", "rho"], ac_rows)
        assert (tmp_path / "spectral_masses.csv").read_text() == _reference_table(
            ["s", "jump"], sigma.point_masses)

    @pytest.mark.parametrize("masses", [[], [(-0.0, 1e-17), (math.inf, -math.inf)]])
    def test_spectral_json_special_values(self, masses):
        values = [-0.0, 1e-17, math.inf, -math.inf, math.nan, 5e-324, -1.7976931348623157e308]
        ac = cli._col(values), cli._col(values[::-1])
        mass_cols = tuple(cli._col(c) for c in zip(*masses)) if masses else ([], [])
        window = cli._fmt(-0.0), cli._fmt(1e-17)
        doc = {"ac": [list(p) for p in zip(*ac)], "masses": [list(p) for p in zip(*mass_cols)],
               "window": list(window)}
        assert ac[0][:3] == ["-0", "1.0000000000000001e-17", "inf"]
        for indent in (False, True):
            want = json.dumps(doc, indent=2 if indent else None)
            assert cli._spectral_json(ac, mass_cols, window, indent) == want
        empty = {"ac": [], "masses": [], "window": list(window)}
        for indent in (False, True):
            assert cli._spectral_json(([], []), ([], []), window, indent) == json.dumps(
                empty, indent=2 if indent else None)

    def test_eig_table(self, tmp_path, capsys, monkeypatch):
        found = _recording(monkeypatch, "find_eigenvalues")
        assert run(tmp_path, "eig", "--tau", "sqrt", "--range", "0,1000") == 0
        want = _reference_table(["k", "lambda"], enumerate(found[0], 1))
        assert (tmp_path / "eig.csv").read_text() == want
        assert capsys.readouterr().out == want

    def test_mfun_trace_table(self, tmp_path, capsys, monkeypatch):
        traj = _recording(monkeypatch, "fundamental_trajectory")
        assert run(tmp_path, "mfun", "--tau", "sqrt", "--lambda", "4,-1", "--trace") == 0
        capsys.readouterr()
        ts = np.linspace(0.0, 1.0, 201)
        y, y1 = traj[0].eval(ts)
        rows = [(t, v.real, v.imag, w.real, w.imag)
                for t, v, w in zip(ts.tolist(), y.tolist(), y1.tolist())]
        assert (tmp_path / "mfun_trace.csv").read_text() == _reference_table(
            ["t", "re_y", "im_y", "re_y1", "im_y1"], rows)

    def test_expand_tables(self, tmp_path, capsys, monkeypatch):
        reports = _recording(monkeypatch, "uniform_convergence_profile")
        assert run(tmp_path, "expand", "--tau", "constant:0", "--y", "quartic",
                   "--schedule", "1:-1,1;3:-10,50", "--window=-10,50",
                   "--nodes", "32", "--t-points", "11") == 0
        capsys.readouterr()
        t = np.linspace(0.0, 1.0, 11)
        y = cli._BUILTIN_Y["quartic"](t)
        for i, vals in enumerate(reports[0].values):
            rows = zip(t, y, vals.real, np.abs(vals - y))
            assert (tmp_path / f"expand_trunc{i}.csv").read_text() == _reference_table(
                ["t", "y_true", "y_reconstructed", "abs_error"], rows)


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

    def test_ode_tol_refused(self, tmp_path, capsys):
        # both problems propagate in closed form: the flag could only loosen
        # the Wronskian bound
        assert run(tmp_path, "--ode-tol", "1", "verify-example") == 2
        assert "takes no --ode-tol" in capsys.readouterr().err


@pytest.mark.skipif(shutil.which("slspectra") is None,
                    reason="console script not on PATH")
def test_console_script_help():
    proc = subprocess.run(
        ["slspectra", "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    for name in ("eig", "mfun", "spectral", "expand", "classify", "verify-example"):
        assert name in proc.stdout


# Closed-form, CPM and Magnus propagation, the eigenvalue search, spectral
# assembly and the transform run without scipy; a table rule and the DOP853
# reference engine load it when they are used.
SCIPY_FREE = """
import sys
from dataclasses import replace
import numpy as np
import slspectra, slspectra.cli
from slspectra import (build_spectral_function, constant, constant_coefficient_problem,
                       find_eigenvalues, fourier_transform, load_problem, loads_problem,
                       phi_at, sqrt_param)

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

for prob in (constant_coefficient_problem(), load_problem(sys.argv[1])):
    find_eigenvalues(prob, constant(0.0), (-1.0, 50.0))
    sigma = build_spectral_function(prob, sqrt_param(), (-10.0, 50.0), ac_nodes=20)
    fourier_transform(prob, lambda t: np.exp(-t), sigma)
print(scipy_modules())
table = loads_problem(sys.argv[2])
rk = replace(table, quad=replace(table.quad, closed_form_pieces=False))
print(abs(phi_at(table, 37.0, 1.0).y - phi_at(rk, 37.0, 1.0).y) < 1e-8, bool(scipy_modules()))
"""


def test_scipy_loaded_only_on_demand():
    from test_propagator import TABLE_INI

    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE, str(CONFIG_DIR / "linear_p.ini"), TABLE_INI],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True True"]


def test_verify_loaded_only_on_demand():
    # the verification suite is imported by verify-example alone
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, slspectra.cli; print('slspectra.verify' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
