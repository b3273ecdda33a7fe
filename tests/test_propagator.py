"""Fundamental-solution propagation and its conservation laws."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from slspectra import (
    ConfigError,
    PropagationError,
    QuadConfig,
    StateVec,
    constant,
    constant_coefficient_problem,
    find_eigenvalues,
    loads_problem,
    m_function,
    phi_at,
    point_mass,
    propagate,
    psi_at,
    sqrt_param,
    wronskian,
)
from slspectra import propagator

LINEAR_P_INI = """
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

# every coefficient varies, so the commutator term of the Magnus step is live
POLY_INI = """
[interval]
a = 0.0
b = 1.0
alpha = -pi/2

[coefficients.p]
pieces =
    0.0, 1.0, poly:1.0,0.5

[coefficients.q]
pieces =
    0.0, 1.0, poly:0.0,2.0

[coefficients.delta]
pieces =
    0.0, 1.0, poly:1.0,1.0
"""

# a closed-form piece followed by a spline piece, with a weight jump
TABLE_INI = """
[interval]
a = 0.0
b = 1.0
alpha = 0.3

[coefficients.p]
pieces =
    0.0, 0.5, constant:1.0
    0.5, 1.0, table:3:0.5 1.0; 0.625 1.2; 0.75 1.1; 0.875 1.4; 1.0 1.3

[coefficients.q]
pieces =
    0.0, 1.0, constant:0.0

[coefficients.delta]
pieces =
    0.0, 0.5, constant:1.0
    0.5, 1.0, constant:2.0
"""


def rk_variant(problem, ode_tol=1e-11):
    """Same problem but forced through the adaptive integrator."""
    return replace(
        problem, quad=replace(problem.quad, closed_form_pieces=False, ode_tol=ode_tol)
    )


class TestTrajectoryContract:
    def test_zero_energy_constant_solution(self, free):
        traj = propagate(free, 0.0, StateVec(1.0, 0.0))
        for t in (0.0, 0.3, 1.0):
            sv = traj.state_at(t)
            assert sv.y == pytest.approx(1.0, abs=1e-14)
            assert sv.y1 == pytest.approx(0.0, abs=1e-14)

    def test_nodes_cover_interval(self, free):
        traj = propagate(free, 4.0, StateVec(1.0, 0.0))
        ts = [t for t, _ in traj.nodes]
        assert ts[0] == free.a and ts[-1] == free.b
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_tuple_init_accepted(self, free):
        traj = propagate(free, 2.0, (1.0, 0.0))
        assert isinstance(traj.state_at(0.5), StateVec)

    def test_cosine_closed_form(self, free):
        lam = 7.3
        traj = propagate(free, lam, StateVec(1.0, 0.0))
        r = math.sqrt(lam)
        for t in np.linspace(0, 1, 9):
            sv = traj.state_at(float(t))
            assert sv.y.real == pytest.approx(math.cos(r * t), abs=1e-12)
            assert sv.y1.real == pytest.approx(-r * math.sin(r * t), abs=1e-12)

    def test_dead_zone_solution_is_affine(self, mid):
        # where the weight vanishes (and q = 0) the equation reads y'' = 0
        traj = propagate(mid, 5.0 + 2.0j, StateVec(1.0, 0.0))
        t0, t1 = 0.35, 0.63
        s0, s1 = traj.state_at(t0), traj.state_at(t1)
        mid_t = 0.5 * (t0 + t1)
        expected = s0.y + s0.y1 * (mid_t - t0)
        assert traj.state_at(mid_t).y == pytest.approx(expected, rel=1e-12)
        assert s1.y1 == pytest.approx(s0.y1, rel=1e-12)


class TestFundamentalSolutions:
    def test_phi_initial_values(self, free):
        sv = phi_at(free, 3.7 + 0.4j, 0.0)
        assert sv.y == pytest.approx(1.0)  # -sin(-pi/2)
        assert sv.y1 == pytest.approx(0.0, abs=1e-15)

    def test_phi_alpha_zero_initial_values(self):
        prob = constant_coefficient_problem(alpha=0.0)
        sv = phi_at(prob, 1.0, 0.0)
        assert sv.y == pytest.approx(0.0, abs=1e-15)
        assert sv.y1 == pytest.approx(1.0)

    def test_phi_at_first_pole(self, free):
        lam = 9.0 * math.pi**2 / 16.0
        sv = phi_at(free, lam, 1.0)
        assert sv.y.real == pytest.approx(-math.sqrt(2) / 2, rel=1e-12)
        assert sv.y1.real == pytest.approx(-3 * math.pi * math.sqrt(2) / 8, rel=1e-12)

    def test_psi_initial_values(self, free):
        sv = psi_at(free, 2.2, 0.0)
        assert sv.y == pytest.approx(0.0, abs=1e-15)
        assert sv.y1 == pytest.approx(1.0)

    def test_psi_closed_form(self, free):
        lam = 11.0
        r = math.sqrt(lam)
        sv = psi_at(free, lam, 1.0)
        assert sv.y.real == pytest.approx(math.sin(r) / r, rel=1e-12)
        assert sv.y1.real == pytest.approx(math.cos(r), rel=1e-12)

    def test_psi_zero_energy_limit(self, free):
        sv = psi_at(free, 0.0, 0.7)
        assert sv.y.real == pytest.approx(0.7, rel=1e-12)
        assert sv.y1.real == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("lam,t", [(0.0, 0.0), (4.0, 1.0), (1j, 1.0)])
    def test_wronskian_examples(self, free, lam, t):
        assert wronskian(free, lam, t) == pytest.approx(1.0, abs=1e-10)

    def test_closed_form_overflow_is_typed_error(self):
        # cosh(1000) overflows: a typed error, and no numpy warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PropagationError):
                m_function(constant_coefficient_problem(), sqrt_param(), -1e6 + 1j)


class TestConservation:
    @settings(max_examples=30, deadline=None)
    @given(re=st.floats(-20, 120), im=st.floats(-5, 5))
    def test_wronskian_conserved(self, free, mid, re, im):
        lam = complex(re, im)
        for prob in (free, mid):
            for t in np.linspace(0, 1, 7):
                assert abs(wronskian(prob, lam, float(t)) - 1.0) <= 100 * prob.quad.ode_tol

    @settings(max_examples=15, deadline=None)
    @given(lam=st.floats(-30, 120))
    def test_real_lambda_gives_real_solutions(self, mid, lam):
        sv = phi_at(mid, lam, 0.8)
        assert abs(sv.y.imag) <= 100 * mid.quad.ode_tol
        assert abs(sv.y1.imag) <= 100 * mid.quad.ode_tol

    @settings(max_examples=15, deadline=None)
    @given(re=st.floats(-20, 40), im=st.floats(0.1, 5))
    def test_conjugate_symmetry(self, free, re, im):
        lam = complex(re, im)
        sv = phi_at(free, lam, 1.0)
        sv_c = phi_at(free, lam.conjugate(), 1.0)
        assert sv_c.y == pytest.approx(sv.y.conjugate(), abs=1e-10)
        assert sv_c.y1 == pytest.approx(sv.y1.conjugate(), abs=1e-10)


class TestAdaptiveIntegrator:
    """The Runge-Kutta path, exercised with closed-form pieces disabled."""

    def test_matches_exact_path(self, free):
        rk = rk_variant(free)
        lam = 10.0 + 3.0j
        sv_rk = phi_at(rk, lam, 1.0)
        sv_ex = phi_at(free, lam, 1.0)
        assert sv_rk.y == pytest.approx(sv_ex.y, rel=1e-9)
        assert sv_rk.y1 == pytest.approx(sv_ex.y1, rel=1e-9)

    def test_halving_tolerance_halves_error(self, free):
        lam, t = 10.0, 1.0
        ref = complex(math.cos(math.sqrt(lam) * t))
        errs = []
        for tol in (1e-5, 5e-6):
            sv = phi_at(rk_variant(free, ode_tol=tol), lam, t)
            errs.append(abs(sv.y - ref))
        assert errs[1] <= errs[0] / 2.0

    def test_wronskian_tracks_tolerance(self, mid):
        rk = rk_variant(mid, ode_tol=1e-7)
        lam = 25.0 + 1.0j
        for t in np.linspace(0, 1, 11):
            assert abs(wronskian(rk, lam, float(t)) - 1.0) <= 100 * 1e-7

    def test_coarse_tolerance_degrades_accuracy(self, free):
        # the ode_tol knob must actually bite once the exact path is off
        lam = 40.0
        ref = complex(math.cos(math.sqrt(lam)))
        err_coarse = abs(phi_at(rk_variant(free, ode_tol=1e-2), lam, 1.0).y - ref)
        err_fine = abs(phi_at(rk_variant(free, ode_tol=1e-11), lam, 1.0).y - ref)
        assert err_fine < 1e-9
        assert err_coarse > 1e-8


@pytest.fixture(scope="module")
def poly():
    return loads_problem(POLY_INI)


@pytest.fixture(scope="module")
def table():
    return loads_problem(TABLE_INI)


def _transfer(problem, lam):
    """Endpoint transfer matrix, columns propagated from (1, 0) and (0, 1)."""
    cols = [propagate(problem, lam, init).endpoint for init in ((1.0, 0.0), (0.0, 1.0))]
    return np.array([[cols[0].y, cols[1].y], [cols[0].y1, cols[1].y1]])


class TestMagnusEngine:
    """Variable-coefficient pieces, checked against the DOP853 reference."""

    LAMBDAS = [-300.0, 0.0, 37.0, 1e4, -1e4, 1e4j, 500.0 + 3.0j, -2e3 - 50.0j]

    def test_variable_pieces_avoid_dop853(self, poly, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("DOP853 ran on the fast path")

        monkeypatch.setattr(propagator, "solve_ivp", refuse)
        propagate(poly, 250.0 + 1.0j, (1.0, 0.0))

    @pytest.mark.parametrize("name", ["poly", "table"])
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_matches_reference_engine(self, request, name, lam):
        prob = request.getfixturevalue(name)
        ref = rk_variant(prob, ode_tol=1e-12)
        ts = np.linspace(0.0, 1.0, 13)
        init = (-math.sin(prob.alpha), math.cos(prob.alpha))
        fast, slow = propagate(prob, lam, init), propagate(ref, lam, init)
        y, y1 = fast.eval(ts)
        z, z1 = slow.eval(ts)
        # componentwise errors relative to each component's size on [a, b]
        assert np.max(np.abs(y - z)) <= 1e-9 * np.max(np.abs(z))
        assert np.max(np.abs(y1 - z1)) <= 1e-9 * np.max(np.abs(z1))
        end, end_ref = fast.endpoint, slow.endpoint
        assert abs(end.y - end_ref.y) <= 1e-9 * np.max(np.abs(z))
        assert abs(end.y1 - end_ref.y1) <= 1e-9 * np.max(np.abs(z1))

    @pytest.mark.parametrize("name", ["poly", "table"])
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_unit_determinant(self, request, name, lam):
        T = _transfer(request.getfixturevalue(name), lam)
        scale = abs(T[0, 0] * T[1, 1]) + abs(T[0, 1] * T[1, 0])
        assert abs(T[0, 0] * T[1, 1] - T[0, 1] * T[1, 0] - 1.0) <= 1e-12 * scale

    @pytest.mark.parametrize("lam", [0.0, 37.0, 1e4, 500.0 + 3.0j, -300.0])
    def test_wronskian_to_rounding(self, poly, lam):
        ts = np.linspace(0.0, 1.0, 17)
        phi = propagator.fundamental_trajectory(poly, lam, "phi")
        psi = propagator.fundamental_trajectory(poly, lam, "psi")
        py, py1 = phi.eval(ts)
        sy, sy1 = psi.eval(ts)
        scale = np.abs(py * sy1) + np.abs(py1 * sy)
        assert np.all(np.abs(py * sy1 - py1 * sy - 1.0) <= 1e-12 * scale)

    def test_coarse_tolerance_degrades_accuracy(self, poly):
        # ode_tol sets the Magnus step count: a coarse value must cost accuracy
        lam = 40.0
        ref = propagate(rk_variant(poly, ode_tol=1e-12), lam, (1.0, 0.0)).endpoint
        errs = []
        for tol in (1e-2, 1e-11):
            prob = replace(poly, quad=replace(poly.quad, ode_tol=tol))
            errs.append(abs(propagate(prob, lam, (1.0, 0.0)).endpoint.y1 - ref.y1))
        assert errs[1] < 1e-10
        assert errs[0] > 1e-7

    def test_step_exponential_across_series_cut(self):
        # cosh(s) and sinh(s)/s for s^2 = x, on both sides of the switch to
        # the Taylor series and on both signs of x
        x = np.array([0.0, 1e-8, -1e-8, 9.99e-4, -9.99e-4, 1.001e-3, -1.001e-3, 0.5, -4.0])
        for arr in (x, x * (1.0 + 0.5j)):
            C, S = propagator._cosh_sinhc(arr)
            r = np.sqrt(arr.astype(complex))
            r_safe = np.where(r == 0.0, 1.0, r)
            S_ref = np.where(r == 0.0, 1.0, np.sinh(r_safe) / r_safe)
            assert np.iscomplexobj(C) == np.iscomplexobj(arr)
            assert np.allclose(C, np.cosh(r), rtol=1e-14, atol=0.0)
            assert np.allclose(S, S_ref, rtol=1e-14, atol=0.0)

    def test_step_budget_exhaustion_falls_back_to_reference(self, poly, monkeypatch):
        lam = 1e4
        want = propagate(rk_variant(poly), lam, (1.0, 0.0)).endpoint
        monkeypatch.setattr(propagator, "_MAGNUS_MAX_STEPS", 64)
        propagator._magnus_transfer.cache_clear()
        try:
            traj = propagate(poly, lam, (1.0, 0.0))
        finally:
            propagator._magnus_transfer.cache_clear()
        assert traj.endpoint.y == pytest.approx(want.y, rel=1e-9)
        assert traj.endpoint.y1 == pytest.approx(want.y1, rel=1e-9)
        assert len(traj.nodes) > 2  # DOP853 step nodes, not a Magnus segment


def _per_lambda_endpoints(problem, lams):
    """[[phi, psi], [phi^[1], psi^[1]]] at b, one cached trajectory per lambda."""
    out = []
    for lam in lams:
        traj = (propagator.fundamental_trajectory(problem, lam, w) for w in ("phi", "psi"))
        ph, ps = (t.endpoint for t in traj)
        out.append([[ph.y, ps.y], [ph.y1, ps.y1]])
    return np.array(out)


class TestEndpointStates:
    """The lambda-batched endpoint kernel against per-lambda trajectories."""

    LAMBDAS = TestMagnusEngine.LAMBDAS
    REAL = [lam for lam in LAMBDAS if not isinstance(lam, complex)]

    @pytest.mark.parametrize("name", ["free", "mid", "poly", "table"])
    def test_matches_fundamental_trajectory(self, request, name):
        prob = request.getfixturevalue(name)
        for lams in (self.LAMBDAS, self.REAL):
            got = propagator.endpoint_states(prob, lams)
            want = _per_lambda_endpoints(prob, lams)
            assert got.shape == (len(lams), 2, 2)
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
        assert not np.iscomplexobj(got)  # real lambda stay in real arithmetic

    def test_reference_engine_when_closed_forms_are_off(self, poly):
        rk = rk_variant(poly, ode_tol=1e-12)
        lams = [37.0, 500.0 + 3.0j]
        got = propagator.endpoint_states(rk, lams)
        np.testing.assert_array_equal(got, _per_lambda_endpoints(rk, lams))
        fast = propagator.endpoint_states(poly, lams)
        assert np.all(np.abs(got - fast) <= 1e-9 * np.maximum(1.0, np.abs(got)))

    def test_step_budget_exhaustion_falls_back_to_reference(self, poly, monkeypatch):
        dop853 = []
        solve_ivp = propagator.solve_ivp
        monkeypatch.setattr(
            propagator, "solve_ivp", lambda *a, **k: dop853.append(1) or solve_ivp(*a, **k)
        )
        monkeypatch.setattr(propagator, "_MAGNUS_MAX_STEPS", 64)
        propagator._magnus_transfer.cache_clear()
        propagator.clear_cache()
        try:
            got = propagator.endpoint_states(poly, [37.0, 1e4])
        finally:
            propagator._magnus_transfer.cache_clear()
            propagator.clear_cache()
        assert dop853
        want = _per_lambda_endpoints(rk_variant(poly, ode_tol=1e-12), [37.0, 1e4])
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))

    def test_overflow_is_typed_error(self, free):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PropagationError):
                propagator.endpoint_states(free, [1.0, -1e6 + 1j])


def _magnus_transfer_per_lambda(rules, t0, t1, lam, tol):
    """(n, T) or None: one lambda at a time, on 1-D step arrays (the loop the
    batched transfers replace)."""
    A, B0, B1, _, _ = propagator._magnus_samples(rules, t0, t1, propagator._MAGNUS_MIN_STEPS)
    osc = float(np.sum(np.sqrt(np.abs(A * (B0 - lam * B1))))) / math.pi
    n = propagator._MAGNUS_MIN_STEPS
    while n < propagator._MAGNUS_STEPS_PER_OSC * osc and n < propagator._MAGNUS_MAX_STEPS:
        n *= 2

    def product(n):
        a, b, c, d = propagator._magnus_steps(propagator._magnus_samples(rules, t0, t1, n), lam)
        while a.size > 1:
            a, b, c, d = propagator._mul(
                (a[1::2], b[1::2], c[1::2], d[1::2]), (a[::2], b[::2], c[::2], d[::2])
            )
        return np.array([[a[0], b[0]], [c[0], d[0]]])

    with np.errstate(all="ignore"):
        T = product(n)
        while 2 * n <= propagator._MAGNUS_MAX_STEPS:
            n *= 2
            T2 = product(n)
            if np.max(np.abs(T2 - T)) / 15.0 <= tol * max(1.0, float(np.max(np.abs(T2)))):
                return n, T2
            T = T2
    return None


def _variable_piece(problem):
    pieces = propagator._pieces(problem)
    return next((t0, t1, rules) for t0, t1, rules, const in pieces if not const)


class TestMagnusTransfers:
    """The lambda-batched Magnus transfers against the one-lambda loop."""

    LAMBDAS = TestMagnusEngine.LAMBDAS
    REAL = TestEndpointStates.REAL
    WIDE = list(np.linspace(-2e3, 2e4, 240))  # many start-step groups

    @pytest.mark.parametrize("name", ["poly", "table"])
    def test_equal_to_one_lambda_loop(self, request, name):
        prob = request.getfixturevalue(name)
        t0, t1, rules = _variable_piece(prob)
        tol = max(prob.quad.ode_tol, propagator._MIN_RTOL)
        for lams in (self.LAMBDAS, self.REAL, self.WIDE):
            lams = np.array(lams)
            n, T, spent = propagator._magnus_transfers(rules, t0, t1, lams, tol)
            assert T.shape == (lams.size, 2, 2) and not np.any(spent)
            assert np.iscomplexobj(T) == np.iscomplexobj(lams)
            for i, lam in enumerate(lams.tolist()):
                want_n, want_T = _magnus_transfer_per_lambda(rules, t0, t1, lam, tol)
                assert n[i] == want_n
                np.testing.assert_array_equal(T[i], want_T)
                propagator._magnus_transfer.cache_clear()
                one_n, one_T = propagator._magnus_transfer(rules, t0, t1, lam, tol)
                assert one_n == want_n
                np.testing.assert_array_equal(one_T, want_T)
        # the wide batch spans several start-step groups, and some group has
        # more rows than one step array holds
        start = propagator._start_steps(rules, t0, t1, lams)
        groups, rows = np.unique(start, return_counts=True)
        assert groups.size >= 3
        assert np.any(rows > propagator._MAGNUS_BATCH // groups)

    def test_step_budget_mask(self, poly, monkeypatch):
        t0, t1, rules = _variable_piece(poly)
        monkeypatch.setattr(propagator, "_MAGNUS_MAX_STEPS", 64)
        propagator._magnus_transfer.cache_clear()
        try:
            n, T, spent = propagator._magnus_transfers(rules, t0, t1, np.array([37.0, 1e4]), 1e-6)
            assert propagator._magnus_transfer(rules, t0, t1, 1e4, 1e-6) is None
        finally:
            propagator._magnus_transfer.cache_clear()
        np.testing.assert_array_equal(spent, [False, True])
        want_n, want_T = _magnus_transfer_per_lambda(rules, t0, t1, 37.0, 1e-6)
        assert n[0] == want_n <= 64 and n[1] == 0
        np.testing.assert_array_equal(T[0], want_T)

    def test_overflow_is_typed_error(self, poly):
        t0, t1, rules = _variable_piece(poly)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PropagationError):
                propagator._magnus_transfers(rules, t0, t1, np.array([1.0, -1e6 + 1j]), 1e-11)


def test_fundamental_trajectory_rejects_unknown_solution(free):
    with pytest.raises(ConfigError):
        propagator.fundamental_trajectory(free, 1.0, "chi")


class TestLinearP:
    """p = 1 + t/2 with tau = 0 against the Bessel closed form."""

    @pytest.fixture(scope="class")
    def linear_p(self):
        return loads_problem(LINEAR_P_INI)

    def test_eigenvalues_and_masses(self, linear_p):
        want = oracles.linear_p_eigs(600.0)
        got = find_eigenvalues(linear_p, constant(0.0), (-5.0, 600.0))
        assert len(got) == len(want) == 8
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-10, abs=1e-10)
        for lam in want:
            jump = point_mass(linear_p, constant(0.0), lam)
            assert jump == pytest.approx(oracles.linear_p_mass(lam), rel=1e-6)


class TestStateVec:
    def test_rejects_non_finite(self):
        with pytest.raises(Exception):
            StateVec(float("nan"), 0.0)

    def test_oracle_agreement_complex_lambda(self, free):
        lam = -3.0 + 2.0j
        y_ref, y1_ref = oracles.phi_free(lam, 0.6)
        sv = phi_at(free, lam, 0.6)
        assert sv.y == pytest.approx(y_ref, rel=1e-12)
        assert sv.y1 == pytest.approx(y1_ref, rel=1e-12)
