"""The three benchmark workloads: inputs from a seed, the package calls, the checks.

Each workload has three sides:

* ``inputs(seed)`` runs in the driver process and draws the only values the
  seed may change: window and range endpoints, jittered by a few percent so
  the scan grid phase and the ac node placement move.  Every draw stays
  between the same two reference eigenvalues, so the amount of work is the
  same for every seed.
* ``setup`` and ``solve`` run in a fresh sample process and call only the
  ``slspectra`` CLI and names in ``slspectra.__all__``.  ``setup`` is the
  import-and-config part that ``setup_s`` times; ``solve`` is what
  ``solve_s`` times.  A workload with several steps runs each step in its
  own process, the way a CLI user runs one command after another.
* ``check`` runs in the driver process against ``reference``, which does
  not import the package.  It returns one ``Check`` per compared quantity.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

# Tolerances of the reference comparisons.  They sit far above today's
# agreement (recorded in baseline.json) and well below the package's own
# acceptance tolerances, so a faster method has room but a wrong one fails.
TOL_EIG = 1e-8  # relative, eigenvalues and poles
TOL_JUMP = 1e-5  # relative, point masses
TOL_DENSITY = 1e-8  # relative, ac density
TOL_EXPAND = 1e-8  # absolute, reconstructed values and sup errors (|y| <= 1)
TOL_PARSEVAL = 1e-8  # absolute, Parseval defect
ABS_TOL = 1e-11  # the package's default quadrature abs_tol
TOL_DEAD_ZONE = 10.0 * ABS_TOL  # absolute, transform of a dead-zone function

EXPAND_SCHEDULE = "2:-500,0;5:-1250,0;10:-2500,0"

VARCOEF_INI = """\
[interval]
a = 0.0
b = 1.0
alpha = -pi/2

[coefficients.p]
pieces =
    0.0, 1.0, poly:1.0,0.5

[coefficients.q]
pieces =
    0.0, 1.0, constant:0.0

[coefficients.delta]
pieces =
    0.0, 1.0, constant:1.0
"""


@dataclass
class Check:
    """One reference comparison: the worst deviation against its tolerance."""

    name: str
    deviation: float
    tol: float
    count: int = 1  # located eigenvalues/masses covered by this comparison

    @property
    def ratio(self) -> float:
        return self.deviation / self.tol if math.isfinite(self.deviation) else math.inf


def _jitter(rng: np.random.Generator, value: float, share: float) -> float:
    return float(value * (1.0 + rng.uniform(-share, share)))


def _rel_dev(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    if got.size == 0:
        return 0.0
    return float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))


def _count_check(name: str, got: int, want: int) -> Check:
    return Check(name, 0.0 if got == want else math.inf, 1.0)


def _located_checks(name: str, got_locs, want_locs, got_jumps, want_jumps) -> list[Check]:
    """Count, location and jump checks for a list of eigenvalues/poles."""
    n = len(want_locs)
    checks = [_count_check(f"{name}.count", len(got_locs), n)]
    if len(got_locs) != n:
        return checks
    checks.append(Check(f"{name}.location", _rel_dev(got_locs, want_locs), TOL_EIG, n))
    got_j, want_j = np.asarray(got_jumps, dtype=float), np.asarray(want_jumps, dtype=float)
    dev = float(np.max(np.abs(got_j / want_j - 1.0))) if n else 0.0
    checks.append(Check(f"{name}.jump", dev, TOL_JUMP, n))
    return checks


def _density_dev(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    if got.size == 0:
        return 0.0
    return float(np.max(np.abs(got - want) / np.maximum(want, 1e-300)))


def _require_clear(roots, points, share: float) -> None:
    """Endpoints are drawn between the same reference eigenvalues for every
    seed; raise if a draw came closer to one than the given share."""
    for r in roots:
        for p in points:
            if abs(r - p) <= share * (1.0 + abs(p)):
                raise RuntimeError(f"endpoint {p} lies within {share:.1%} of eigenvalue {r}")


def _read_table(path: Path) -> dict[str, np.ndarray]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = list(zip(*body)) if body else [()] * len(header)
    return {h: np.array([float(v) for v in col]) for h, col in zip(header, cols)}


def _run_cli(argv: list[str], out: Path) -> tuple[bool, int]:
    """One CLI invocation with stdout captured; (ok, bytes written)."""
    from slspectra import cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = cli.main(["--out", str(out)] + argv)
    written = len(sink.getvalue().encode()) + sum(p.stat().st_size for p in out.iterdir())
    return code == 0, written


# ---------------------------------------------------------------------------


class ExpandFree:
    """CLI `spectral`, then CLI `expand`, on the built-in free problem."""

    name = "expand-free"
    steps = 2

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        window = (_jitter(rng, -10000.0, 0.02), _jitter(rng, 16000.0, 0.015))
        _require_clear(ref.free_poles(0.0, 1e5), window, 0.005)
        return {"window": window, "nodes": 1200, "y": "quartic", "schedule": EXPAND_SCHEDULE}

    def setup(self, S, inputs: dict):
        import slspectra.cli  # noqa: F401  (the CLI module is part of set-up)

        return S.constant_coefficient_problem()

    def solve(self, S, step: int, inputs: dict, state, out: Path) -> tuple[dict, list, int]:
        lo, hi = inputs["window"]
        win = f"--window={lo!r},{hi!r}"
        if step == 0:
            argv = ["spectral", "--tau", "sqrt", win, "--nodes", str(inputs["nodes"])]
        else:
            argv = ["expand", "--tau", "sqrt", "--y", inputs["y"],
                    "--schedule", inputs["schedule"], win, "--nodes", str(inputs["nodes"])]
        cli_out = out / f"cli{step}"
        cli_out.mkdir()
        ok, written = _run_cli(argv, cli_out)
        return {}, [(f"cli.{argv[0]}", ok)], written

    def check(self, inputs: dict, outputs: list[dict], out: Path) -> list[Check]:
        lo, hi = inputs["window"]
        masses = _read_table(out / "cli0" / "spectral_masses.csv")
        poles = ref.free_poles(lo, hi)
        checks = _located_checks("masses", masses["s"], poles, masses["jump"],
                                 [ref.FREE_JUMP] * len(poles))
        ac = _read_table(out / "cli0" / "spectral_ac.csv")
        u, rho = ac["u"], ac["rho"]
        rho_ref = ref.free_density(u)
        checks.append(Check("ac_density", _density_dev(rho, rho_ref), TOL_DENSITY))

        # Cells are uniform in xi = sign(u) sqrt|u| with the nodes at their
        # midpoints; the width on each side of 0 is the smallest node gap
        # (nodes next to a point mass are dropped, leaving wider gaps).
        xi = np.sign(u) * np.sqrt(np.abs(u))
        widths = np.zeros_like(u)
        for side in (xi < 0.0, xi > 0.0):
            if np.count_nonzero(side) >= 2:
                h = float(np.min(np.diff(xi[side])))
                lo_e, hi_e = xi[side] - 0.5 * h, xi[side] + 0.5 * h
                widths[side] = hi_e * np.abs(hi_e) - lo_e * np.abs(lo_e)

        def y(t):
            return (1.0 - t * t) ** 2

        doc = json.loads((out / "cli1" / "expand.json").read_text())
        for i, entry in enumerate(inputs["schedule"].split(";")):
            k_s, _, win_s = entry.partition(":")
            k_max = int(k_s)
            w_lo, w_hi = (float(v) for v in win_s.split(","))
            tab = _read_table(out / "cli1" / f"expand_trunc{i}.csv")
            t = tab["t"]
            y_rec = np.zeros_like(t)
            for lam in poles[:k_max]:
                y_rec += ref.FREE_JUMP * ref.free_hat(y, lam) * ref.free_phi(t, lam)
            for j in np.nonzero((u >= w_lo) & (u <= w_hi) & (rho_ref > 0.0))[0]:
                w = rho_ref[j] * widths[j]
                y_rec += w * ref.free_hat(y, float(u[j])) * ref.free_phi(t, float(u[j]))
            dev = max(
                float(np.max(np.abs(tab["y_reconstructed"] - y_rec))),
                float(np.max(np.abs(tab["y_true"] - y(t)))),
                float(np.max(np.abs(tab["abs_error"] - np.abs(y_rec - y(t))))),
                abs(float(doc["truncations"][i]["sup_error"]) - float(np.max(np.abs(y_rec - y(t))))),
            )
            checks.append(Check(f"expand.trunc{i}", dev, TOL_EXPAND))
        return checks


class EigVarcoef:
    """find_eigenvalues and point_mass on p = 1 + t/2 (DOP853 propagation)."""

    name = "eig-varcoef"
    steps = 1

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        lam_range = (_jitter(rng, -20.0, 0.5), _jitter(rng, 1100.0, 0.04))
        _require_clear(ref.varcoef_eigenvalues(-100.0, 1300.0), lam_range, 0.005)
        return {"config": VARCOEF_INI, "tau": "constant:0", "range": lam_range}

    def setup(self, S, inputs: dict):
        return S.loads_problem(inputs["config"]), S.parse_tau(inputs["tau"])

    def solve(self, S, step: int, inputs: dict, state, out: Path) -> tuple[dict, list, int]:
        problem, tau = state
        eigs = S.find_eigenvalues(problem, tau, tuple(inputs["range"]))
        masses, ops = [], [("find_eigenvalues", True)]
        for lam in eigs:
            try:
                masses.append(S.point_mass(problem, tau, lam))
                ops.append(("point_mass", True))
            except S.SLSpectraError:
                masses.append(math.nan)
                ops.append(("point_mass", False))
        return {"eigenvalues": eigs, "masses": masses}, ops, 0

    def check(self, inputs: dict, outputs: list[dict], out: Path) -> list[Check]:
        lo, hi = inputs["range"]
        want = ref.varcoef_eigenvalues(lo, hi)
        got = outputs[0]
        return _located_checks("eigenvalues", got["eigenvalues"], want, got["masses"],
                               [ref.varcoef_mass(lam) for lam in want])


def _dead_zone(t):
    t = np.asarray(t, dtype=float)
    inside = (t > 1.0 / 3.0) & (t < 2.0 / 3.0)
    return np.where(inside, np.sin(3.0 * math.pi * (t - 1.0 / 3.0)) ** 2, 0.0)


def _smooth(t):
    return np.asarray(t, dtype=float)


class SpectralMidthird:
    """Spectral function, eigenvalues, masses and transforms on the
    middle-third (degenerate weight) problem: many cheap closed-form
    propagations."""

    name = "spectral-midthird"
    steps = 1

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        window = (_jitter(rng, -5000.0, 0.03), _jitter(rng, 99000.0, 0.015))
        eig_range = (_jitter(rng, -1.0, 0.5), _jitter(rng, 99000.0, 0.015))
        _require_clear(ref.midthird_sqrt_poles(0.0, 1.1e5), window, 0.005)
        _require_clear(ref.midthird_eigenvalues(-2.0, 1.1e5), eig_range, 0.005)
        return {"config": "configs/middle_third.ini", "window": window, "nodes": 4000,
                "range": eig_range}

    def setup(self, S, inputs: dict):
        return S.load_problem(inputs["config"]), S.parse_tau("sqrt"), S.parse_tau("constant:0")

    def solve(self, S, step: int, inputs: dict, state, out: Path) -> tuple[dict, list, int]:
        problem, tau_sqrt, tau0 = state
        sigma = S.build_spectral_function(problem, tau_sqrt, tuple(inputs["window"]),
                                          ac_nodes=inputs["nodes"])
        ops = [("build_spectral_function", True)]
        eigs = S.find_eigenvalues(problem, tau0, tuple(inputs["range"]))
        ops.append(("find_eigenvalues", True))
        masses = []
        for lam in eigs:
            try:
                masses.append(S.point_mass(problem, tau0, lam))
                ops.append(("point_mass", True))
            except S.SLSpectraError:
                masses.append(math.nan)
                ops.append(("point_mass", False))
        located = [(lam, m) for lam, m in zip(eigs, masses) if m > 0.0]
        pp = S.pure_point_spectral(located, tuple(inputs["range"]))
        dead = S.fourier_transform(problem, _dead_zone, pp)
        ops.append(("fourier_transform", True))
        defect = S.parseval_defect(problem, pp, _smooth,
                                   S.Truncation(k_max=len(located), ac_window=(0.0, 0.0)))
        ops.append(("parseval_defect", True))
        return {
            "ac_u": sigma.ac_grid.tolist(),
            "ac_density": sigma.ac_density.tolist(),
            "poles": [s for s, _ in sigma.point_masses],
            "pole_jumps": [j for _, j in sigma.point_masses],
            "eigenvalues": eigs,
            "masses": masses,
            "dead_zone_max": max((abs(v) for _, v in dead.mass_values), default=0.0),
            "parseval_defect": defect,
        }, ops, 0

    def check(self, inputs: dict, outputs: list[dict], out: Path) -> list[Check]:
        got = outputs[0]
        w_lo, w_hi = inputs["window"]
        poles = ref.midthird_sqrt_poles(w_lo, w_hi)
        checks = _located_checks("sqrt_poles", got["poles"], poles, got["pole_jumps"],
                                 [ref.midthird_sqrt_mass(lam) for lam in poles])
        u = np.asarray(got["ac_u"])
        want_rho = np.array([ref.midthird_sqrt_density(float(x)) for x in u])
        checks.append(Check("ac_density", _density_dev(got["ac_density"], want_rho), TOL_DENSITY))

        lo, hi = inputs["range"]
        eigs = ref.midthird_eigenvalues(lo, hi)
        masses = [ref.midthird_mass_tau0(lam) for lam in eigs]
        checks += _located_checks("eigenvalues", got["eigenvalues"], eigs, got["masses"], masses)
        checks.append(Check("dead_zone", float(got["dead_zone_max"]), TOL_DEAD_ZONE))

        norm_sq = sum(ref.gauss(lambda t: _smooth(t) ** 2, a, b) for a, b in ((0.0, 1 / 3), (2 / 3, 1.0)))
        t_norm = sum(m * ref.midthird_hat(lam, _smooth) ** 2 for lam, m in zip(eigs, masses))
        want_defect = abs(t_norm - norm_sq) / norm_sq
        checks.append(Check("parseval_defect", abs(float(got["parseval_defect"]) - want_defect),
                            TOL_PARSEVAL))
        return checks


WORKLOADS = {w.name: w for w in (ExpandFree(), EigVarcoef(), SpectralMidthird())}
