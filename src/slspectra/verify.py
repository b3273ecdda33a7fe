"""End-to-end verification of the built-in reference problems.

Nine numbered checks exercise the whole pipeline (propagation, m-function,
Stieltjes inversion, transforms, classification) against closed forms and an
internal shooting oracle.  ``run_all`` executes them in order and each check
reports one CriterionResult; the CLI ``verify-example`` command prints one
line per check and exits 0 iff all pass.

Degradation knobs, used by the failure-path tests:

* ``k_max``     -- caps the truncation schedule of the mixed-expansion check;
  ``k_max=1`` makes it fail.
* ``quad_tol``  -- sets the quadrature absolute/relative tolerances.

There is no ODE tolerance knob: both problems have constant pieces only,
which propagate in closed form, so it would reach nothing but the
Wronskian bound of check 8, fixed at 100 times the default ode_tol.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import SLSpectraError
from .nevanlinna import BoundaryParam, classify_bc, constant, infinity, mobius, sqrt_param
from .problem import (
    ConstantRule,
    Piece,
    PiecewiseCoefficient,
    QuadConfig,
    SLProblem,
    constant_coefficient_problem,
    delta_inner,
)
from .propagator import fundamental_trajectory
from .spectral import (
    _point_masses,
    build_spectral_function,
    find_eigenvalues,
    m_function,
    pure_point_spectral,
    spectral_density,
    stieltjes_cdf,
)
from .transform import (
    Truncation,
    eigen_expansion,
    fourier_transform,
    parseval_defect,
    uniform_convergence_profile,
)

_SEED = 20260823


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


def free_problem(quad: QuadConfig = QuadConfig()) -> SLProblem:
    """p = q-free unit-weight problem on [0,1], alpha = -pi/2."""
    return constant_coefficient_problem(quad=quad)


def middle_third_problem(quad: QuadConfig = QuadConfig()) -> SLProblem:
    """Unit p, zero q, weight vanishing on the middle third of [0,1]."""
    third = 1.0 / 3.0
    const3 = lambda v0, v1, v2: PiecewiseCoefficient(
        pieces=(
            Piece(0.0, third, ConstantRule(v0)),
            Piece(third, 2 * third, ConstantRule(v1)),
            Piece(2 * third, 1.0, ConstantRule(v2)),
        )
    )
    return SLProblem(
        a=0.0,
        b=1.0,
        alpha=-math.pi / 2,
        p=const3(1.0, 1.0, 1.0),
        q=const3(0.0, 0.0, 0.0),
        delta=const3(1.0, 0.0, 1.0),
        quad=quad,
    )


# closed forms for the free problem (phi = cos(rt), r = sqrt(lam))


def _m_sqrt_closed(lam: complex) -> complex:
    r = np.sqrt(complex(lam))
    return (np.sin(r) - np.cos(r)) / (r * (np.cos(r) + np.sin(r)))


def _density_sqrt_closed(u: float) -> float:
    w = math.sqrt(-u)
    return 2.0 / (math.pi * w * (math.exp(2.0 * w) + math.exp(-2.0 * w)))


def _sqrt_poles(n: int) -> list[float]:
    return [math.pi**2 * (k - 0.25) ** 2 for k in range(1, n + 1)]


# internal shooting oracle for the middle-third problem: fixed-step RK4 on
# y'' = -lam Delta y, a method independent of the transfer-matrix propagator


def _shoot_midthird(lam, n_steps: int = 3000):
    """y'(1) for the shot started at (1, 0); lam a float, or an array whose
    entries are shot side by side with the same arithmetic."""
    per = n_steps // 3
    y, v = (1.0, 0.0) if np.ndim(lam) == 0 else (np.ones(np.shape(lam)), np.zeros(np.shape(lam)))
    for t0, t1, dval in ((0.0, 1 / 3, 1.0), (1 / 3, 2 / 3, 0.0), (2 / 3, 1.0, 1.0)):
        c = -lam * dval
        h = (t1 - t0) / per
        for _ in range(per):
            k1y, k1v = v, c * y
            k2y, k2v = v + 0.5 * h * k1v, c * (y + 0.5 * h * k1y)
            k3y, k3v = v + 0.5 * h * k2v, c * (y + 0.5 * h * k2y)
            k4y, k4v = v + h * k3v, c * (y + h * k3y)
            y += (h / 6.0) * (k1y + 2 * k2y + 2 * k3y + k4y)
            v += (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
    return v


def _shoot_midthird_eigs(n: int, lam_hi: float) -> list[float]:
    from scipy.optimize import brentq

    grid = np.linspace(-1.0, lam_hi, max(64, int(2 * lam_hi)))
    vals = _shoot_midthird(grid)
    roots: list[float] = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(brentq(_shoot_midthird, float(grid[i]), float(grid[i + 1]), rtol=1e-14))
    return sorted(roots)[:n]


# ---------------------------------------------------------------------------
# the nine checks


def criterion_eigenvalues(free: SLProblem) -> CriterionResult:
    """Poles of the square-root parameter in [0, 1000] vs pi^2 (k-1/4)^2."""
    t0 = time.perf_counter()
    eigs = find_eigenvalues(free, sqrt_param(), (0.0, 1000.0), max_count=20)
    dt = time.perf_counter() - t0
    expected = _sqrt_poles(10)
    ok = len(eigs) == 10
    worst = 0.0
    if ok:
        worst = max(abs(e - x) / abs(x) for e, x in zip(eigs, expected))
        ok = worst <= 1e-8 and dt <= 10.0
    return CriterionResult(
        "eigenvalues",
        ok,
        f"{len(eigs)} poles in [0,1000], max rel err {worst:.2e}",
    )


def criterion_point_masses(free: SLProblem) -> CriterionResult:
    """Jumps at the first three poles equal 2 (dual-route cross-checked)."""
    worst = float(np.max(np.abs(_point_masses(free, sqrt_param(), _sqrt_poles(3)) - 2.0)))
    return CriterionResult(
        "point-masses",
        worst <= 1e-4,
        f"max |jump - 2| = {worst:.2e} at the first 3 poles (residue vs eps-limit agreed)",
    )


def criterion_density(free: SLProblem) -> CriterionResult:
    """Continuous density on the negative axis vs the closed form."""
    worst = 0.0
    for u in (-0.25, -1.0, -4.0, -16.0):
        d = spectral_density(free, sqrt_param(), u)
        ref = _density_sqrt_closed(u)
        worst = max(worst, abs(d - ref) / ref)
    return CriterionResult(
        "ac-density", worst <= 1e-5, f"max rel err {worst:.2e} at u in {{-1/4,-1,-4,-16}}"
    )


def criterion_m_oracle(free: SLProblem) -> CriterionResult:
    """Propagated m vs closed form at 100 random lambda off the real axis."""
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    count = 0
    while count < 100:
        lam = complex(rng.uniform(-100, 100), rng.uniform(-100, 100))
        if abs(lam.imag) < 0.1 or abs(lam) > 100.0:
            continue
        count += 1
        m = m_function(free, sqrt_param(), lam)
        ref = _m_sqrt_closed(lam)
        worst = max(worst, abs(m - ref) / abs(ref))
    return CriterionResult(
        "m-oracle", worst <= 1e-8, f"max rel err {worst:.2e} over 100 sampled lambda"
    )


def criterion_mixed_expansion(free: SLProblem, k_max: int | None = None) -> CriterionResult:
    """Mixed point + ac expansion of (1-t^2)^2 for the square-root parameter."""
    ks = [2, 5, 10, 20, 40]
    if k_max is not None:
        ks = sorted({min(k, int(k_max)) for k in ks})
    sigma = build_spectral_function(free, sqrt_param(), (-10_000.0, 16_000.0), ac_nodes=2000)
    y = lambda t: (1.0 - np.asarray(t, dtype=float) ** 2) ** 2
    yhat = fourier_transform(free, y, sigma)
    schedule = [Truncation(k, (-250.0 * k, 0.0)) for k in ks]
    rep = uniform_convergence_profile(
        free, sigma, yhat, y, schedule, np.linspace(0.0, 1.0, 101)
    )
    sups = [s for _, s in rep.truncations]
    monotone = all(b <= a for a, b in zip(sups[:-1], sups[1:]))
    ok = monotone and sups[-1] <= 1e-3
    return CriterionResult(
        "mixed-expansion",
        ok,
        f"sup errors {['%.2e' % s for s in sups]} (k_max schedule {ks}), "
        f"monotone={monotone}, final<=1e-3: {sups[-1] <= 1e-3}",
    )


def criterion_orthogonal_expansion(free: SLProblem) -> CriterionResult:
    """Constant-tau (orthogonal) case: reproduction and Parseval."""
    tau = constant(0.0)
    eigs = find_eigenvalues(free, tau, (-1.0, 2.52e4), max_count=51)
    if len(eigs) < 51:
        return CriterionResult(
            "orthogonal-expansion", False, f"only {len(eigs)} eigenvalues located"
        )
    masses = zip(eigs, _point_masses(free, tau, eigs).tolist())
    sigma = pure_point_spectral(masses, (-1.0, 2.6e4))
    t_grid = np.linspace(0.0, 1.0, 33)

    worst_rep = 0.0
    for k in range(1, 6):
        v_k = lambda t, k=k: math.sqrt(2.0) * np.cos(k * math.pi * np.asarray(t, dtype=float))
        vhat = fourier_transform(free, v_k, sigma)
        rep = uniform_convergence_profile(
            free, sigma, vhat, v_k, [Truncation(51, (-1.0, 0.0))], t_grid
        )
        worst_rep = max(worst_rep, rep.truncations[0][1])

    defect = parseval_defect(
        free, sigma, lambda t: np.asarray(t, dtype=float) ** 2, Truncation(51, (-1.0, 0.0))
    )
    ok = worst_rep <= 1e-6 and defect <= 1e-4
    return CriterionResult(
        "orthogonal-expansion",
        ok,
        f"reproduction sup err {worst_rep:.2e} (v_1..v_5), "
        f"Parseval defect {defect:.2e} for t^2 at K=50",
    )


def criterion_degenerate_weight(mid: SLProblem) -> CriterionResult:
    """Middle-third weight: shooting oracle, Parseval, dead-zone annihilation."""
    tau = constant(0.0)
    eigs = find_eigenvalues(mid, tau, (-1.0, 150.0), max_count=4)
    oracle = _shoot_midthird_eigs(4, 150.0)
    ok_a = len(eigs) == 4 and all(
        abs(e - o) <= 1e-6 * (1.0 + abs(o)) for e, o in zip(eigs, oracle)
    )
    worst_a = max(
        (abs(e - o) / (1.0 + abs(o)) for e, o in zip(eigs, oracle)), default=math.inf
    )

    modes = eigen_expansion(mid, tau, lambda t: np.ones_like(np.asarray(t, dtype=float)), K=50)
    norm_sq = delta_inner(mid, lambda t: np.ones_like(np.asarray(t, dtype=float)),
                          lambda t: np.ones_like(np.asarray(t, dtype=float))).real
    defect = abs(norm_sq - sum(m.coefficient**2 for m in modes)) / norm_sq
    ok_b = defect <= 1e-3

    def dead(t):
        t = np.asarray(t, dtype=float)
        inside = (t > 1 / 3) & (t < 2 / 3)
        return np.where(inside, np.sin(3 * math.pi * (t - 1 / 3)) ** 2, 0.0)

    masses = zip(eigs, _point_masses(mid, tau, eigs).tolist())
    sigma = pure_point_spectral(masses, (-1.0, 150.0))
    dhat = fourier_transform(mid, dead, sigma)
    worst_c = max((abs(v) for _, v in dhat.mass_values), default=math.inf)
    tol_c = 10.0 * mid.quad.abs_tol
    ok_c = worst_c <= tol_c and dhat.source_norm_sq <= tol_c
    return CriterionResult(
        "degenerate-weight",
        ok_a and ok_b and ok_c,
        f"eigs vs shooting oracle rel {worst_a:.2e}; Parseval defect {defect:.2e} "
        f"for y=1 at K=50; dead-zone max |yhat| {worst_c:.2e}",
    )


def criterion_nevanlinna(free: SLProblem, mid: SLProblem) -> CriterionResult:
    """Herglotz positivity/symmetry of m, cdf monotonicity, Wronskian."""
    taus: list[tuple[str, BoundaryParam]] = [
        ("constant:0.7", constant(0.7)),
        ("infinity", infinity()),
        ("sqrt", sqrt_param()),
        ("lambda", mobius(1.0, 0.0, 0.0, 1.0)),
    ]
    mods = np.logspace(-2, 2, 10)
    args = np.array([1, 2, 3, 4, 5]) * math.pi / 6.0
    lams = [m * complex(math.cos(a), math.sin(a)) for m in mods for a in args]

    worst_pos = 0.0
    worst_sym = 0.0
    for prob in (free, mid):
        for _, tau in taus:
            for lam in lams:
                m_val = m_function(prob, tau, lam)
                worst_pos = max(worst_pos, -m_val.imag)
                m_conj = m_function(prob, tau, lam.conjugate())
                worst_sym = max(worst_sym, abs(m_conj - m_val.conjugate()))
    ok_m = worst_pos <= 1e-8 and worst_sym <= 1e-8

    builds = [
        (free, sqrt_param(), (-50.0, 100.0)),
        (free, constant(0.0), (-10.0, 50.0)),
        (free, infinity(), (0.0, 30.0)),
        (mid, constant(0.0), (-5.0, 130.0)),
    ]
    ok_cdf = True
    for prob, tau, window in builds:
        sigma = build_spectral_function(prob, tau, window, ac_nodes=64)
        grid = np.linspace(window[0] + 1e-9, window[1] - 1e-9, 200)
        cdf = np.array([stieltjes_cdf(sigma, float(s)) for s in grid])
        ok_cdf = ok_cdf and bool(np.all(np.diff(cdf) >= -1e-12))

    rng = np.random.default_rng(_SEED)
    worst_w = 0.0
    for prob in (free, mid):
        ts = np.linspace(prob.a, prob.b, 50)
        for _ in range(20):
            lam = complex(rng.uniform(-20, 120), rng.uniform(-5, 5))
            (py, py1), (sy, sy1) = (fundamental_trajectory(prob, lam, w).eval(ts)
                                    for w in ("phi", "psi"))
            worst_w = max(worst_w, float(np.max(np.abs(py * sy1 - py1 * sy - 1.0))))
    tol_w = 100.0 * QuadConfig().ode_tol
    ok_w = worst_w <= tol_w
    return CriterionResult(
        "nevanlinna-invariants",
        ok_m and ok_cdf and ok_w,
        f"min Im m >= {-worst_pos:.1e}, symmetry dev {worst_sym:.1e}, "
        f"cdf monotone: {ok_cdf}, |W-1| max {worst_w:.1e} (tol {tol_w:.1e})",
    )


def criterion_classifier() -> CriterionResult:
    """tau -> boundary-condition class truth table."""
    rows = []
    bc = classify_bc(mobius(1.0, 0.0, 0.0, 1.0))
    rows.append(bc.label == "bc1")
    bc = classify_bc(constant(0.7))
    rows.append(bc.label == "bc2" and abs(bc.d_tau - 0.7) <= 1e-12)
    bc = classify_bc(sqrt_param())
    rows.append(bc.label == "bc3")
    bc = classify_bc(infinity())
    rows.append(bc.label == "bc1")
    return CriterionResult(
        "classifier",
        all(rows),
        "lambda->bc1, constant:0.7->bc2(D=0.7), sqrt->bc3, infinity->bc1: "
        + ("all exact" if all(rows) else f"violations at positions {rows}"),
    )


def run_all(k_max: int | None = None, quad_tol: float | None = None) -> list[CriterionResult]:
    quad = QuadConfig().with_tolerances(None, quad_tol)
    free = free_problem(quad)
    mid = middle_third_problem(quad)
    checks = [
        lambda: criterion_eigenvalues(free),
        lambda: criterion_point_masses(free),
        lambda: criterion_density(free),
        lambda: criterion_m_oracle(free),
        lambda: criterion_mixed_expansion(free, k_max=k_max),
        lambda: criterion_orthogonal_expansion(free),
        lambda: criterion_degenerate_weight(mid),
        lambda: criterion_nevanlinna(free, mid),
        lambda: criterion_classifier(),
    ]
    names = [
        "eigenvalues",
        "point-masses",
        "ac-density",
        "m-oracle",
        "mixed-expansion",
        "orthogonal-expansion",
        "degenerate-weight",
        "nevanlinna-invariants",
        "classifier",
    ]
    out: list[CriterionResult] = []
    for name, check in zip(names, checks):
        try:
            out.append(check())
        except (SLSpectraError, ValueError) as exc:
            out.append(CriterionResult(name, False, f"raised {type(exc).__name__}: {exc}"))
    return out
