"""Acceptance criteria for the reference problems, one test per criterion.

Each test recomputes its quantities through the public API and checks them
against closed forms or the independent shooting oracle in oracles.py, at
the tolerance stated in the criterion.  One PASS/FAIL line is printed per
criterion; the final test requires the built-in verification suite to agree.
"""

import math
import time

import numpy as np
import pytest

import oracles
from slspectra import (
    Truncation,
    build_spectral_function,
    classify_bc,
    constant,
    eigen_expansion,
    find_eigenvalues,
    fourier_transform,
    infinity,
    inverse_transform,
    m_function,
    mobius,
    parse_tau,
    parseval_defect,
    point_mass,
    pure_point_spectral,
    spectral_density,
    sqrt_param,
    stieltjes_cdf,
    uniform_convergence_profile,
    wronskian,
)
from slspectra import verify

SEED = 20260823
C0 = constant(0.0)
SQRT = sqrt_param()


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def test_criterion_1_eigenvalue_inventory(free):
    t0 = time.perf_counter()
    got = find_eigenvalues(free, SQRT, (0.0, 1000.0))
    elapsed = time.perf_counter() - t0
    want = oracles.sqrt_poles_free(10)
    rel = max(abs(g - w) / w for g, w in zip(got, want)) if len(got) == 10 else math.inf
    ok = len(got) == 10 and rel <= 1e-8 and elapsed <= 10.0
    report(
        "criterion-1 eigenvalue-inventory",
        ok,
        f"{len(got)} poles, max rel err {rel:.2e}, {elapsed:.2f} s",
    )
    assert len(got) == 10
    assert rel <= 1e-8
    assert elapsed <= 10.0


def test_criterion_2_point_masses(free):
    eps = np.array([1e-3, 5e-4, 2.5e-4])
    worst_abs = 0.0
    worst_route = 0.0
    for a_k in oracles.sqrt_poles_free(10):
        jump = point_mass(free, SQRT, a_k)
        worst_abs = max(worst_abs, abs(jump - oracles.SQRT_JUMP_FREE))
        w = np.array(
            [e * m_function(free, SQRT, complex(a_k, e)).imag for e in eps]
        )
        coef = np.polynomial.polynomial.polyfit(eps**2, w, 2)
        worst_route = max(worst_route, abs(coef[0] - jump) / jump)
    ok = worst_abs <= 1e-4 and worst_route <= 1e-3
    report(
        "criterion-2 point-masses",
        ok,
        f"max |jump-2| {worst_abs:.2e}, dual-route rel dev {worst_route:.2e}",
    )
    assert worst_abs <= 1e-4
    assert worst_route <= 1e-3


def test_criterion_3_ac_density(free):
    worst = 0.0
    for u in (-0.25, -1.0, -4.0, -16.0):
        got = spectral_density(free, SQRT, u)
        want = oracles.density_sqrt_free(u)
        worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-5
    report("criterion-3 ac-density", ok, f"max rel err {worst:.2e} at 4 points")
    assert worst <= 1e-5


def test_criterion_4_m_function_oracle(free):
    rng = np.random.default_rng(SEED)
    lams = []
    while len(lams) < 100:
        lam = complex(rng.uniform(-100, 100), rng.uniform(-100, 100))
        if abs(lam.imag) >= 0.1 and abs(lam) <= 100.0:
            lams.append(lam)
    worst = 0.0
    for lam in lams:
        got = m_function(free, SQRT, lam)
        want = oracles.m_sqrt_free(lam)
        worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-8
    report("criterion-4 m-function", ok, f"max rel err {worst:.2e} at 100 points")
    assert worst <= 1e-8


def test_criterion_5_mixed_expansion(free):
    quartic = lambda t: (1.0 - np.asarray(t) ** 2) ** 2
    sigma = build_spectral_function(free, SQRT, (-10000.0, 16000.0), ac_nodes=2000)
    yhat = fourier_transform(free, quartic, sigma)
    ks = (2, 5, 10, 20, 40)
    schedule = [Truncation(k, (-250.0 * k, 0.0)) for k in ks]
    rep = uniform_convergence_profile(
        free, sigma, yhat, quartic, schedule, np.linspace(0.0, 1.0, 101)
    )
    sups = [s for _, s in rep.truncations]
    non_increasing = all(b <= a for a, b in zip(sups[:-1], sups[1:]))
    ok = sups[-1] <= 1e-3 and non_increasing
    report(
        "criterion-5 mixed-expansion",
        ok,
        "sups " + " -> ".join(f"{s:.2e}" for s in sups) + f", final <= 1e-3: {ok}",
    )
    assert sups[-1] <= 1e-3
    assert non_increasing


def test_criterion_6_orthogonal_expansion(free):
    eigs = find_eigenvalues(free, C0, (-1.0, 2.52e4))
    assert len(eigs) == 51
    sigma = pure_point_spectral(
        [(lam, point_mass(free, C0, lam)) for lam in eigs], (-1.0, 2.52e4)
    )
    t_grid = np.linspace(0.0, 1.0, 33)
    tr = Truncation(51, (-1.0, 0.0))
    worst = 0.0
    for k in range(1, 6):
        vk = lambda t, _k=k: math.sqrt(2.0) * np.cos(_k * math.pi * np.asarray(t))
        yhat = fourier_transform(free, vk, sigma)
        recon = np.array(
            [inverse_transform(free, sigma, yhat, float(t), tr).value.real
             for t in t_grid]
        )
        worst = max(worst, float(np.max(np.abs(recon - vk(t_grid)))))
    defect = parseval_defect(free, sigma, lambda t: np.asarray(t) ** 2, tr)
    ok = worst <= 1e-6 and defect <= 1e-4
    report(
        "criterion-6 orthogonal-expansion",
        ok,
        f"sup reproduction err {worst:.2e} (v1..v5), parseval defect {defect:.2e}",
    )
    assert worst <= 1e-6
    assert defect <= 1e-4


def test_criterion_7_degenerate_weight(mid):
    got = find_eigenvalues(mid, C0, (-1.0, 200.0))[:4]
    want = oracles.midthird_eigs_shooting(4)
    rel = max(abs(g - w) / (1.0 + abs(w)) for g, w in zip(got, want))
    ok_a = len(got) == 4 and rel <= 1e-6

    modes = eigen_expansion(mid, C0, lambda t: np.ones_like(np.asarray(t)), 50)
    coeff_sq = sum(m.coefficient**2 for m in modes)
    defect = abs(coeff_sq - 2.0 / 3.0) / (2.0 / 3.0)
    ok_b = defect <= 1e-3

    sigma = build_spectral_function(mid, C0, (-5.0, 130.0), ac_nodes=32)

    def bump(t):
        t = np.asarray(t)
        inside = (t > 1.0 / 3.0) & (t < 2.0 / 3.0)
        return np.where(inside, np.sin(3.0 * math.pi * (t - 1.0 / 3.0)) ** 2, 0.0)

    yhat = fourier_transform(mid, bump, sigma)
    dead = max((abs(v) for _, v in yhat.mass_values), default=0.0)
    tol_dead = 10.0 * mid.quad.abs_tol
    ok_c = dead <= tol_dead and yhat.source_norm_sq == 0.0

    ok = ok_a and ok_b and ok_c
    report(
        "criterion-7 degenerate-weight",
        ok,
        f"eigs vs shooting rel {rel:.2e}, parseval defect {defect:.2e}, "
        f"dead-zone transform {dead:.1e} (tol {tol_dead:.1e})",
    )
    assert ok_a
    assert ok_b
    assert ok_c


def test_criterion_8_herglotz_invariants(free, mid):
    taus = (constant(0.7), infinity(), SQRT, mobius(1.0, 0.0, 0.0, 1.0))
    mods = np.logspace(-2, 2, 10)
    args = np.array([1, 2, 3, 4, 5]) * math.pi / 6.0
    lams = [m * complex(math.cos(a), math.sin(a)) for m in mods for a in args]
    worst_pos = 0.0
    worst_sym = 0.0
    for prob in (free, mid):
        for tau in taus:
            for lam in lams:
                m_val = m_function(prob, tau, lam)
                worst_pos = max(worst_pos, -m_val.imag)
                m_conj = m_function(prob, tau, lam.conjugate())
                worst_sym = max(worst_sym, abs(m_conj - m_val.conjugate()))
    ok_m = worst_pos <= 1e-8 and worst_sym <= 1e-8

    builds = [
        (free, SQRT, (-50.0, 100.0)),
        (free, C0, (-10.0, 50.0)),
        (free, infinity(), (0.0, 30.0)),
        (mid, C0, (-5.0, 130.0)),
    ]
    ok_cdf = True
    for prob, tau, window in builds:
        sigma = build_spectral_function(prob, tau, window, ac_nodes=64)
        grid = np.linspace(window[0] + 1e-9, window[1] - 1e-9, 200)
        cdf = np.array([stieltjes_cdf(sigma, float(s)) for s in grid])
        ok_cdf = ok_cdf and bool(np.all(np.diff(cdf) >= -1e-12))

    rng = np.random.default_rng(SEED)
    worst_w = 0.0
    for prob in (free, mid):
        for _ in range(20):
            lam = complex(rng.uniform(-20, 120), rng.uniform(-5, 5))
            for t in np.linspace(prob.a, prob.b, 50):
                worst_w = max(worst_w, abs(wronskian(prob, lam, float(t)) - 1.0))
    tol_w = 100.0 * free.quad.ode_tol

    ok = ok_m and ok_cdf and worst_w <= tol_w
    report(
        "criterion-8 herglotz-invariants",
        ok,
        f"min Im m {-worst_pos:.1e}, symmetry {worst_sym:.1e}, "
        f"cdf monotone {ok_cdf}, |W-1| {worst_w:.1e} (tol {tol_w:.1e})",
    )
    assert ok_m
    assert ok_cdf
    assert worst_w <= tol_w


def test_criterion_9_classifier():
    rows = [
        ("mobius:1,0,0,1", "bc1", None),
        ("constant:0.7", "bc2", 0.7),
        ("sqrt", "bc3", None),
        ("infinity", "bc1", None),
    ]
    ok = True
    for spec, label, d in rows:
        bc = classify_bc(parse_tau(spec))
        ok = ok and bc.label == label
        if d is not None:
            ok = ok and abs(bc.d_tau - d) <= 1e-12
    report(
        "criterion-9 classifier",
        ok,
        "lambda->bc1, constant->bc2(D=theta), sqrt->bc3, infinity->bc1",
    )
    for spec, label, d in rows:
        bc = classify_bc(parse_tau(spec))
        assert bc.label == label, spec
        if d is not None:
            assert abs(bc.d_tau - d) <= 1e-12


def test_builtin_verification_suite_agrees():
    results = verify.run_all()
    for r in results:
        report(r.name, r.passed, r.detail)
    assert len(results) == 9
    assert all(r.passed for r in results)


def test_eigenvalue_criterion_detail_is_reproducible(free):
    # the detail line carries no wall time, so two runs print the same bytes
    first, second = (verify.criterion_eigenvalues(free) for _ in range(2))
    assert first.passed and second.passed
    assert first.detail == second.detail
