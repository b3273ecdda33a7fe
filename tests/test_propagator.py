"""Fundamental-solution propagation and its conservation laws."""

import math
import warnings
from dataclasses import replace
from pathlib import Path

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
    load_problem,
    loads_problem,
    m_function,
    phi_at,
    point_mass,
    propagate,
    psi_at,
    sqrt_param,
    wronskian,
)
from slspectra import propagator, spectral, transform
from test_transform import POLY_P_INI

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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

# LINEAR_P_INI with p read from a cubic spline through nine samples of
# 1 + t/2, which it reproduces exactly: the Magnus engine on the Bessel problem
LINEAR_TABLE_INI = LINEAR_P_INI.replace(
    "poly:1.0,0.5", "table:3:" + "; ".join(f"{k / 8} {1.0 + k / 16}" for k in range(9))
)

# every coefficient varies, so every term of the CPM corrections is live
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

# as POLY_INI, with a weight that vanishes at t = 0: the CPM segment does not
# take the piece, so it runs the Magnus engine
VANISHING_INI = POLY_INI.replace("0.0, 1.0, poly:1.0,1.0", "0.0, 1.0, poly:0.0,2.0")

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

# p = 1 + t/2 (CPM), q a cubic spline through five samples
KNOT_INI = """
[interval]
a = 0.0
b = 1.0
alpha = 0.3

[coefficients.p]
pieces =
    0.0, 1.0, poly:1.0,0.5

[coefficients.q]
pieces =
    0.0, 1.0, table:3:0.0 0.0; 0.25 1.0; 0.5 -0.5; 0.75 2.0; 1.0 0.3

[coefficients.delta]
pieces =
    0.0, 1.0, constant:1.0

[quadrature]
ode_tol = 1e-12
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


@pytest.fixture(scope="module")
def vanishing():
    return loads_problem(VANISHING_INI)


@pytest.fixture(scope="module")
def linear_p():
    return loads_problem(LINEAR_P_INI)


@pytest.fixture(scope="module")
def two_poly():
    """Two poly pieces of p, which jumps at t = 0.37."""
    return loads_problem(POLY_P_INI)


VARIABLE = ["poly", "table", "vanishing", "linear_p", "two_poly"]


def _transfer(problem, lam):
    """Endpoint transfer matrix, columns propagated from (1, 0) and (0, 1)."""
    cols = [propagate(problem, lam, init).endpoint for init in ((1.0, 0.0), (0.0, 1.0))]
    return np.array([[cols[0].y, cols[1].y], [cols[0].y1, cols[1].y1]])


class TestMagnusEngine:
    """Variable-coefficient pieces, checked against the DOP853 reference: the
    CPM segment (poly, linear_p, two_poly) and the Magnus engine (table,
    vanishing).  The lambda lie on both sides of the reference potentials of
    the CPM steps, so Z changes sign, and two carry the imaginary parts of the
    complex-step residue and of the smallest epsilon of the spectral limits."""

    LAMBDAS = [-300.0, 0.0, 37.0, 1e4, -1e4, 1e4j, 500.0 + 3.0j, -2e3 - 50.0j,
               0.5, 37.0 + 1e-20 * 38.0j, 600.0 + 1j * float(spectral._EPS[0])]

    def test_variable_pieces_avoid_dop853(self, vanishing, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("DOP853 ran on the fast path")

        monkeypatch.setattr(propagator, "solve_ivp", refuse)
        propagate(vanishing, 250.0 + 1.0j, (1.0, 0.0))

    @pytest.mark.parametrize("name", ["poly", "table", "vanishing"])
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

    @pytest.mark.parametrize("name", ["linear_p", "poly", "two_poly"])
    def test_cpm_matches_reference_engine(self, request, name):
        # with q = 0 the quasi-derivative of phi vanishes at lambda = 0, so the
        # states at b are compared entrywise on the scale max(1, |state|) and
        # the rows inside the pieces on their own scale
        prob = request.getfixturevalue(name)
        assert any(isinstance(seg, propagator._CPMSegment)
                   for seg in propagator._walk(prob, np.array([1.0]), np.eye(2)))
        ref = rk_variant(prob, ode_tol=1e-12)
        got, want = (propagator.endpoint_states(p, self.LAMBDAS) for p in (prob, ref))
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))
        real = [lam for lam in self.LAMBDAS if not isinstance(lam, complex)]
        t = np.linspace(0.0, 1.0, 29)[1:-1]
        got, want = (propagator.phi_rows(p, real, t) for p in (prob, ref))
        assert np.all(np.abs(got - want) <= 1e-9 * np.max(np.abs(want), axis=1, keepdims=True))

    def test_reference_restarts_at_table_knots(self):
        # q is a not-a-knot cubic spline, whose one interior knot is 0.5: one
        # DOP853 run across it differed from CPM by 8.2e-11, and by 5.3e-12
        # with q split into two pieces there, as with a smooth q
        prob = loads_problem(KNOT_INI)
        ref = rk_variant(prob, ode_tol=1e-12)
        lams = [-300.0, -10.0, 0.0, 1.0, 50.0, 500.0, 2000.0, 1e4]
        got, want = (propagator.endpoint_states(p, lams) for p in (prob, ref))
        assert np.all(np.abs(got - want) <= 1e-11 * np.maximum(1.0, np.abs(got)))
        (seg,) = propagator._walk(ref, np.array(lams), np.eye(2))
        assert seg._edges == [0.0, 0.5, 1.0]
        t = np.linspace(0.0, 1.0, 41)  # rows on both sides of the knot and on it
        got, want = (propagator.phi_rows(p, lams, t) for p in (prob, ref))
        assert np.all(np.abs(got - want) <= 1e-10 * np.max(np.abs(want), axis=1, keepdims=True))

    @pytest.mark.parametrize("name", VARIABLE)
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_unit_determinant(self, request, name, lam):
        T = _transfer(request.getfixturevalue(name), lam)
        scale = abs(T[0, 0] * T[1, 1]) + abs(T[0, 1] * T[1, 0])
        assert abs(T[0, 0] * T[1, 1] - T[0, 1] * T[1, 0] - 1.0) <= 1e-12 * scale

    @pytest.mark.parametrize("lam", [0.0, 37.0, 1e4, 500.0 + 3.0j, -300.0])
    def test_wronskian_to_rounding(self, poly, vanishing, lam):
        ts = np.linspace(0.0, 1.0, 17)
        for prob in (poly, vanishing):  # CPM, Magnus
            phi = propagator.fundamental_trajectory(prob, lam, "phi")
            psi = propagator.fundamental_trajectory(prob, lam, "psi")
            py, py1 = phi.eval(ts)
            sy, sy1 = psi.eval(ts)
            scale = np.abs(py * sy1) + np.abs(py1 * sy)
            assert np.all(np.abs(py * sy1 - py1 * sy - 1.0) <= 1e-12 * scale)

    def test_coarse_tolerance_degrades_accuracy(self, vanishing):
        # ode_tol sets the Magnus step count: a coarse value must cost accuracy
        lam = 40.0
        ref = propagate(rk_variant(vanishing, ode_tol=1e-12), lam, (1.0, 0.0)).endpoint
        errs = []
        for tol in (1e-2, 1e-11):
            prob = replace(vanishing, quad=replace(vanishing.quad, ode_tol=tol))
            errs.append(abs(propagate(prob, lam, (1.0, 0.0)).endpoint.y1 - ref.y1))
        assert errs[1] < 1e-10
        assert errs[0] > 100.0 * errs[1]

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

    def test_step_exponential_at_exact_zero(self):
        # where every small s^2 is exactly 0 (Delta = q = 0 on a piece) the
        # series is not evaluated; its value there is exactly 1
        for x in (np.array([0.0, -0.0, 0.5, -4.0]), np.array([0.0, -0.0, 0.5, -4.0]) * (1.0 - 2.0j),
                  np.array([complex(-0.0, -0.0), complex(0.0, -0.0), 3.0 - 1e-5j])):
            C, S = propagator._cosh_sinhc(x)
            z = x[:2]
            np.testing.assert_array_equal(C[:2], 1.0 + z * (1 / 2 + z * (1 / 24 + z / 720)))
            np.testing.assert_array_equal(S[:2], 1.0 + z * (1 / 6 + z * (1 / 120 + z / 5040)))
            assert not np.signbit(np.imag(C[:2])).any() and not np.signbit(np.imag(S[:2])).any()

    def test_step_cap_is_typed_error(self, vanishing, monkeypatch):
        # a lambda past the step cap raises and names the reference engine;
        # DOP853 never runs in its place
        monkeypatch.setattr(propagator, "_MAGNUS_MAX_STEPS", 64)
        monkeypatch.setattr(propagator, "solve_ivp", _refuse)
        propagator.clear_cache()
        with pytest.raises(PropagationError, match="closed_form_pieces = false"):
            propagate(vanishing, 1e4, (1.0, 0.0))

    def test_step_cap_cli_exit_code(self, tmp_path, monkeypatch, capsys):
        from slspectra import cli

        config = tmp_path / "vanishing.ini"
        config.write_text(VANISHING_INI)
        monkeypatch.setattr(propagator, "_MAGNUS_MAX_STEPS", 64)
        argv = ["--config", str(config), "--out", str(tmp_path), "mfun", "--tau", "constant:0"]
        assert cli.main([*argv, "--lambda", "1e4"]) == 3
        assert "closed_form_pieces = false" in capsys.readouterr().err
        assert cli.main([*argv, "--lambda", "2"]) == 0


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

    def test_step_cap_is_typed_error(self, vanishing, monkeypatch):
        monkeypatch.setattr(propagator, "_MAGNUS_MAX_STEPS", 64)
        monkeypatch.setattr(propagator, "solve_ivp", _refuse)
        with pytest.raises(PropagationError, match="closed_form_pieces = false"):
            propagator.endpoint_states(vanishing, [1e4])

    def test_overflow_is_typed_error(self, free):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PropagationError):
                propagator.endpoint_states(free, [1.0, -1e6 + 1j])


def _per_lambda_rows(problem, lams, t):
    """phi(t_j, lambda_k), one cached trajectory per lambda."""
    rows = [propagator.fundamental_trajectory(problem, lam, "phi").eval(t)[0] for lam in lams]
    return np.array(rows).reshape(len(lams), len(t))


class TestPhiRows:
    """The lambda-blocked phi rows against per-lambda trajectories."""

    LAMBDAS = [-1e4, -300.0, -1e-3, 0.0, 2e-6, 37.0, 1e4]  # q - lambda Delta of both signs

    @pytest.fixture(scope="class")
    def middle_third(self):
        return load_problem(CONFIGS / "middle_third.ini")

    def _assert_matches(self, problem, lams, t):
        got = propagator.phi_rows(problem, lams, t)
        want = _per_lambda_rows(problem, lams, t)
        assert got.shape == (len(lams), len(t)) and not np.iscomplexobj(got)
        assert np.all(np.abs(got - want) <= 1e-13 * np.max(np.abs(want), axis=1, keepdims=True))

    @pytest.mark.parametrize("name", ["free", "middle_third"])
    def test_matches_fundamental_trajectory(self, request, name):
        prob = request.getfixturevalue(name)
        if name == "middle_third":  # a Delta = 0 piece, walked in closed form
            deltas = [rules[2].value for _, _, rules, _ in propagator._pieces(prob)]
            assert deltas == [1.0, 0.0, 1.0]
        rng = np.random.default_rng(5)
        t = np.concatenate([prob.breakpoints, rng.uniform(prob.a, prob.b, 40)])  # a, 1/3, 2/3, b
        self._assert_matches(prob, self.LAMBDAS, t)

    def test_blocks_of_uneven_size(self, middle_third, monkeypatch):
        # transform._phi_blocks is the one place that splits lambda into blocks
        t = np.linspace(0.0, 1.0, 11)
        monkeypatch.setattr(transform, "_ROW_BATCH", 3 * t.size)
        blocks = list(transform._phi_blocks(middle_third, np.array(self.LAMBDAS), t))
        assert [(blk.start, rows.shape[0]) for blk, rows in blocks] == [(0, 3), (3, 3), (6, 1)]
        got = np.concatenate([rows for _, rows in blocks])
        want = _per_lambda_rows(middle_third, self.LAMBDAS, t)
        assert np.all(np.abs(got - want) <= 1e-13 * np.max(np.abs(want), axis=1, keepdims=True))

    @pytest.mark.parametrize("name", ["free", "middle_third"])
    def test_row_at_b_is_the_endpoint_state(self, request, name):
        # one walk: phi at b from the rows equals the endpoint kernel's phi(b)
        prob = request.getfixturevalue(name)
        rows = propagator.phi_rows(prob, self.LAMBDAS, [prob.b])
        np.testing.assert_array_equal(
            rows[:, 0], propagator.endpoint_states(prob, self.LAMBDAS)[:, 0, 0]
        )

    def test_empty_axes_keep_their_shape(self, free):
        assert propagator.phi_rows(free, [], np.linspace(0.0, 1.0, 4)).shape == (0, 4)
        assert propagator.phi_rows(free, [1.0, 2.0, 3.0], []).shape == (3, 0)

    @pytest.mark.parametrize("name", ["poly", "rk"])
    def test_other_problems_take_the_per_lambda_rows(self, request, free, name):
        prob = rk_variant(free) if name == "rk" else request.getfixturevalue(name)
        t = np.linspace(0.0, 1.0, 9)
        got = propagator.phi_rows(prob, [-300.0, 37.0], t)
        np.testing.assert_array_equal(got, _per_lambda_rows(prob, [-300.0, 37.0], t).real)

    def test_point_outside_interval_rejected(self, free):
        with pytest.raises(PropagationError):
            propagator.phi_rows(free, [1.0], [0.5, 1.1])


def _panel_grids(problem, lams):
    """The transform's two shared grids for lams as (sets, t, c), with random
    complex weights c, so the sums cancel nothing by symmetry."""
    rng = np.random.default_rng(11)
    grids = transform._shared_grids(problem, np.array([min(lams), max(lams)]))
    return [(sets, t, rng.normal(size=t.size) + 1j * rng.normal(size=t.size))
            for t, _, sets in grids]


class TestPhiSums:
    """phi_sums, the per-segment reduction, against phi_rows times the weights."""

    LAMBDAS = [-1e4, -300.0, -1e-3, 0.0, 1e-9, 2e-6, 37.0, 1e4]  # series branch at 0, 1e-9

    @pytest.mark.parametrize(
        "name", ["free", "mid", "linear_p", "table", "rk", "poly", "two_poly", "vanishing"]
    )
    @pytest.mark.parametrize("squared", [False, True])
    def test_matches_rows_times_weights(self, request, name, squared):
        if name == "linear_p":
            prob = load_problem(CONFIGS / "linear_p.ini")  # CPM default
        elif name == "rk":
            prob = rk_variant(request.getfixturevalue("mid"))  # DOP853 default
        else:
            prob = request.getfixturevalue(name)
        lams = self.LAMBDAS if name != "rk" else [-300.0, 0.0, 1e-9, 37.0]
        grids = _panel_grids(prob, lams)
        got = propagator.phi_sums(prob, lams, [(sets, c) for sets, _, c in grids], squared)
        assert got.shape == (2, len(lams))
        for g, (_, t, c) in enumerate(grids):
            rows = propagator.phi_rows(prob, lams, t) ** (2 if squared else 1)
            assert np.all(np.abs(got[g] - rows @ c) <= 1e-12 * (np.abs(rows) @ np.abs(c)))

    @pytest.mark.parametrize("name", ["free", "mid", "table"])
    def test_blocks_match_one_block(self, request, name, monkeypatch):
        prob = request.getfixturevalue(name)
        grids = [(sets, c) for sets, _, c in _panel_grids(prob, self.LAMBDAS)]
        whole = propagator.phi_sums(prob, self.LAMBDAS, grids, False)
        for batch in (1, 20, 50):
            monkeypatch.setattr(propagator, "_ROW_BATCH", batch)
            got = propagator.phi_sums(prob, self.LAMBDAS, grids, False)
            assert np.all(np.abs(got - whole) <= 1e-14 * np.maximum(1.0, np.abs(whole)))

    def test_one_sol_per_piece_for_all_grids(self, vanishing, monkeypatch):
        # the default reduce builds the node states of a CPM or Magnus piece
        # once, not once per grid
        for prob, engine in ((load_problem(CONFIGS / "linear_p.ini"), propagator._CPMSegment),
                             (vanishing, propagator._MagnusSegment)):
            grids = [(sets, c) for sets, _, c in _panel_grids(prob, self.LAMBDAS)]
            calls = []
            sol = engine.sol
            monkeypatch.setattr(engine, "sol", lambda seg, t: calls.append(t.size) or sol(seg, t))
            propagator.phi_sums(prob, self.LAMBDAS, grids, False)
            assert calls == [sum(c.size for _, c in grids)]

    @pytest.mark.parametrize("name", ["linear_p", "poly", "two_poly"])
    @pytest.mark.parametrize("squared", [False, True])
    def test_cpm_matches_reference_engine(self, request, name, squared):
        # the CPM sums against those of DOP853 (closed_form_pieces = false)
        prob = request.getfixturevalue(name)
        lams = [-300.0, 0.0, 0.5, 37.0, 600.0]
        grids = _panel_grids(prob, lams)
        got = propagator.phi_sums(prob, lams, [(sets, c) for sets, _, c in grids], squared)
        ref = rk_variant(prob, ode_tol=1e-12)
        want = propagator.phi_sums(ref, lams, [(sets, c) for sets, _, c in grids], squared)
        for g, (_, t, c) in enumerate(grids):
            rows = propagator.phi_rows(ref, lams, t) ** (2 if squared else 1)
            assert np.all(np.abs(got[g] - want[g]) <= 1e-9 * (np.abs(rows) @ np.abs(c)))

    def test_overflow_refused(self, free):
        grids = [(sets, c) for sets, _, c in _panel_grids(free, [1.0, -1e6])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PropagationError):
                propagator.phi_sums(free, [1.0, -1e6], grids, False)


class TestMidStates:
    """_ExactSegment.mid_states, the states at uniform panel midpoints from a
    step by each offset off every B-th midpoint, against sol at each one."""

    LAMBDAS = np.array([-1e4, -300.0, -1e-3, 0.0, 1e-9, 37.0, 1e4])

    @staticmethod
    def _segments(problem):
        inits = np.array(propagator._init(problem.alpha, "phi"))[:, None]
        walk = propagator._walk(problem, TestMidStates.LAMBDAS, inits)
        assert all(isinstance(seg, propagator._ExactSegment) for seg in walk)
        return walk

    @pytest.mark.parametrize("M", [1, 2, 9, 10, 49, 50])
    @pytest.mark.parametrize("name", ["free", "mid"])
    def test_matches_sol(self, request, monkeypatch, name, M):
        monkeypatch.setattr(propagator, "_MID_SAVED_MIN", 1)  # wherever it saves a closed form
        sols = []
        sol = propagator._ExactSegment.sol
        monkeypatch.setattr(propagator._ExactSegment, "sol",
                            lambda seg, t: sols.append(t.size) or sol(seg, t))
        for seg in self._segments(request.getfixturevalue(name)):
            half = 0.5 * (seg.t1 - seg.t0) / M
            mids = seg.t0 + half * (2.0 * np.arange(M) + 1.0)
            got = seg.mid_states(mids)
            want = sol(seg, mids)
            assert got.shape == want.shape
            scale = np.max(np.abs(want), axis=-1, keepdims=True)
            assert np.all(np.abs(got - want) <= 1e-13 * scale)
        assert sols == ([M] * len(sols) if M <= 2 else [])  # 1 and 2 save nothing

    def test_non_uniform_midpoints_go_to_sol(self, free, monkeypatch):
        monkeypatch.setattr(propagator, "_MID_SAVED_MIN", 1)
        seg = self._segments(free)[0]
        mids = (np.arange(49) + 0.5) / 49
        mids[20] += 1e-9
        np.testing.assert_array_equal(seg.mid_states(mids), seg.sol(mids))

    def test_small_sets_go_to_sol(self, free):
        seg = self._segments(free)[0]
        mids = (np.arange(49) + 0.5) / 49  # 7 lambda save 7 (49 - 14) < _MID_SAVED_MIN
        np.testing.assert_array_equal(seg.mid_states(mids), seg.sol(mids))


def test_equal_problems_hash_equal_and_share_the_piece_cache():
    one, two = (load_problem(CONFIGS / "middle_third.ini") for _ in range(2))
    assert one == two and one is not two and hash(one) == hash(two)
    assert hash(one) == hash((one.a, one.b, one.alpha, one.p, one.q, one.delta, one.quad))
    other = replace(one, alpha=0.3)
    assert other != one and hash(other) != hash(one)
    propagator._pieces(one)
    hits = propagator._pieces.cache_info().hits
    assert propagator._pieces(two) is propagator._pieces(one)
    assert propagator._pieces.cache_info().hits == hits + 2


def _refuse(*args, **kwargs):
    raise AssertionError("the walk took a per-lambda or DOP853 path")


class TestWalkOracles:
    """The walk against closed forms that do not share its arithmetic."""

    LAMBDAS = TestPhiRows.LAMBDAS

    def test_free_states_at_b_and_rows(self, free):
        t = np.linspace(0.0, 1.0, 41)
        got = propagator.endpoint_states(free, self.LAMBDAS)
        want = np.array([np.array([oracles.phi_free(lam, 1.0), oracles.psi_free(lam, 1.0)]).T
                         for lam in self.LAMBDAS]).real
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        rows = propagator.phi_rows(free, self.LAMBDAS, t)
        want = np.array([[oracles.phi_free(lam, s)[0].real for s in t] for lam in self.LAMBDAS])
        assert np.all(np.abs(rows - want) <= 1e-12 * np.max(np.abs(want), axis=1, keepdims=True))

    def test_linear_p_rows_inside_the_variable_piece(self, monkeypatch):
        prob = load_problem(CONFIGS / "linear_p.ini")
        assert not propagator._pieces(prob)[0][3]  # one variable piece
        monkeypatch.setattr(propagator, "solve_ivp", _refuse)
        monkeypatch.setattr(propagator, "fundamental_trajectory", _refuse)
        lams = [0.5, 37.0, 600.0, 1e4]
        t = np.linspace(0.0, 1.0, 29)[1:-1]
        got = propagator.phi_rows(prob, lams, t)
        want = np.array([[oracles.linear_p_phi(s, lam) for s in t] for lam in lams])
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    def test_reference_engine_on_the_middle_third(self, mid):
        rk = rk_variant(mid)
        lams = [-300.0, -1.0, 0.0, 37.0, 400.0]
        t = np.linspace(0.0, 1.0, 25)
        ends = propagator.endpoint_states(rk, lams)
        rows = propagator.phi_rows(rk, lams, t)
        for k, lam in enumerate(lams):
            want = np.array([oracles.midthird_state(lam, 1.0, init)
                             for init in ((1.0, 0.0), (0.0, 1.0))]).T
            assert np.max(np.abs(ends[k] - want.real)) <= 1e-9 * np.max(np.abs(want))
            want = np.array([oracles.midthird_state(lam, s)[0].real for s in t])
            assert np.max(np.abs(rows[k] - want)) <= 1e-9 * np.max(np.abs(want))


class TestOneWalk:
    """Every propagation is the one walk: batches, budgets and point sets."""

    def test_mixed_step_budget_batch(self, vanishing, monkeypatch):
        # 37 needs at most 128 steps at ode_tol 1e-11, 1e4 more: a batch
        # holding 1e4 raises for the whole batch, with no DOP853 run, and 37
        # alone is unchanged by the cap
        t = np.linspace(0.0, 1.0, 9)
        ends_37 = propagator.endpoint_states(vanishing, [37.0])
        rows_37 = propagator.phi_rows(vanishing, [37.0], t)
        monkeypatch.setattr(propagator, "_MAGNUS_MAX_STEPS", 128)
        monkeypatch.setattr(propagator, "solve_ivp", _refuse)
        for read in (lambda lams: propagator.endpoint_states(vanishing, lams),
                     lambda lams: propagator.phi_rows(vanishing, lams, t)):
            with pytest.raises(PropagationError, match="lambda=10000"):
                read([37.0, 1e4])
        np.testing.assert_array_equal(propagator.endpoint_states(vanishing, [37.0]), ends_37)
        np.testing.assert_array_equal(propagator.phi_rows(vanishing, [37.0], t), rows_37)

    @pytest.mark.parametrize("name", ["free", "mid"])
    def test_pointwise_and_batched_eval_agree(self, request, name):
        prob = request.getfixturevalue(name)
        t = np.linspace(prob.a, prob.b, 2000)
        for lam in (4.0 + 1.0j, 37.0):
            traj = propagator.fundamental_trajectory(prob, lam, "phi")
            y, y1 = traj.eval(t)
            points = [traj.state_at(s) for s in t.tolist()]
            np.testing.assert_array_equal(y, [sv.y for sv in points])
            np.testing.assert_array_equal(y1, [sv.y1 for sv in points])

    def test_reference_runs_are_reused(self, free, monkeypatch):
        # the endpoint walk's DOP853 runs serve later rows and trajectories
        rk = rk_variant(free, ode_tol=1e-9)
        runs = []
        solve_ivp = propagator.solve_ivp
        monkeypatch.setattr(
            propagator, "solve_ivp", lambda *a, **k: runs.append(1) or solve_ivp(*a, **k)
        )
        propagator.clear_cache()
        try:
            propagator.endpoint_states(rk, [3.0, 40.0])
            assert len(runs) == 4  # one per (lambda, column)
            propagator.phi_rows(rk, [3.0, 40.0], np.linspace(0.0, 1.0, 5))
            propagator.fundamental_trajectory(rk, 40.0, "psi").eval(0.5)
            assert len(runs) == 4
        finally:
            propagator.clear_cache()


def _magnus_transfer_per_lambda(rules, t0, t1, lam, tol):
    """(n, T) or None: one lambda at a time, on 1-D step arrays (the loop the
    batched transfers replace)."""
    _, (A, *_), (B0, B1, *_) = propagator._magnus_samples(
        rules, t0, t1, propagator._MAGNUS_MIN_STEPS
    )
    osc = float(np.sum(np.sqrt(np.abs(A * (B0 + lam * B1))))) / math.pi
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
            if np.max(np.abs(T2 - T)) / 63.0 <= tol * max(1.0, float(np.max(np.abs(T2)))):
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
            n, T = propagator._magnus_transfers(rules, t0, t1, lams, tol)
            assert T.shape == (lams.size, 2, 2)
            assert np.iscomplexobj(T) == np.iscomplexobj(lams)
            for i, lam in enumerate(lams.tolist()):
                want_n, want_T = _magnus_transfer_per_lambda(rules, t0, t1, lam, tol)
                assert n[i] == want_n
                np.testing.assert_array_equal(T[i], want_T)
                one_n, one_T = propagator._magnus_transfers(rules, t0, t1, np.array([lam]), tol)
                assert one_n[0] == want_n
                np.testing.assert_array_equal(one_T[0], want_T)
        # the wide batch spans several start-step groups, and some group has
        # more rows than one step array holds
        start = propagator._start_steps(rules, t0, t1, lams)
        groups, rows = np.unique(start, return_counts=True)
        assert groups.size >= 3
        assert np.any(rows > propagator._MAGNUS_BATCH // groups)

    def test_step_cap_raises(self, poly, monkeypatch):
        t0, t1, rules = _variable_piece(poly)
        monkeypatch.setattr(propagator, "_MAGNUS_MAX_STEPS", 64)
        # 1e4 starts at the cap, with no level left for the estimate; 37
        # starts at 16 steps and at tol 1e-11 needs 128
        for lams, tol, lam in (([37.0, 1e4], 1e-6, "10000"), ([1e4], 1e-6, "10000"),
                               ([37.0], 1e-11, "37")):
            with pytest.raises(PropagationError, match=f"pass 64 at lambda={lam}"):
                propagator._magnus_transfers(rules, t0, t1, np.array(lams), tol)
        n, T = propagator._magnus_transfers(rules, t0, t1, np.array([37.0]), 1e-6)
        want_n, want_T = _magnus_transfer_per_lambda(rules, t0, t1, 37.0, 1e-6)
        assert n[0] == want_n <= 64
        np.testing.assert_array_equal(T[0], want_T)

    def test_overflow_is_typed_error(self, poly):
        t0, t1, rules = _variable_piece(poly)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PropagationError):
                propagator._magnus_transfers(rules, t0, t1, np.array([1.0, -1e6 + 1j]), 1e-11)


class TestSixthOrderMagnus:
    """Guards on the order and the reach of the Magnus step."""

    @pytest.fixture(scope="class")
    def linear_p(self):
        return loads_problem(LINEAR_P_INI)

    @pytest.mark.parametrize("name", ["poly", "table"])
    def test_measured_order(self, request, name):
        # a wrong coefficient can still converge at order 4 under step doubling
        t0, t1, rules = _variable_piece(request.getfixturevalue(name))
        lam = np.array([500.0])
        ref = propagator._products(propagator._magnus_samples(rules, t0, t1, 1 << 15), lam)
        errs = [
            np.max(np.abs(propagator._products(propagator._magnus_samples(rules, t0, t1, n), lam)
                          - ref))
            for n in (32, 64, 128)
        ]
        orders = [math.log2(e0 / e1) for e0, e1 in zip(errs, errs[1:])]
        assert min(orders) >= 5.5, orders

    @pytest.mark.parametrize("lam", [1e4, 1e6, 3e7])
    def test_large_lambda_matches_bessel_closed_form(self, linear_p, lam):
        # DOP853 at ode_tol 1e-12 takes 6 s at 1e6 and more beyond; the
        # closed form is exact and instant
        got = propagator.endpoint_states(linear_p, [lam])[0]
        want = oracles.linear_p_endpoints(lam)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", ["poly", "linear_p"])
    def test_no_fallback_at_3e7(self, request, name, monkeypatch):
        prob = request.getfixturevalue(name)
        t0, t1, rules = _variable_piece(prob)
        tol = max(prob.quad.ode_tol, propagator._MIN_RTOL)
        n, _ = propagator._magnus_transfers(rules, t0, t1, np.array([1e4, 1e6, 3e7]), tol)
        assert np.all(n <= 1 << 15)

        def refuse(*args, **kwargs):
            raise AssertionError("DOP853 ran on the fast path")

        monkeypatch.setattr(propagator, "solve_ivp", refuse)
        propagator.clear_cache()  # a cached DOP853 trajectory would hide a fallback
        assert np.isfinite(propagator.endpoint_states(prob, [3e7])).all()

    def test_exact_table_spline_at_1e9(self, monkeypatch):
        # 2^18 Magnus steps, well below the step cap, and no DOP853 run
        prob = loads_problem(LINEAR_TABLE_INI)
        segment = propagator._walk(prob, np.array([1.0]), np.eye(2))[0]
        assert isinstance(segment, propagator._MagnusSegment)
        monkeypatch.setattr(propagator, "solve_ivp", _refuse)
        propagator.clear_cache()
        got = propagator.endpoint_states(prob, [1e9])[0]
        want = oracles.linear_p_endpoints(1e9)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    def test_large_levels_not_cached(self, table, monkeypatch):
        # a level above _MAGNUS_CACHED_STEPS is built on each use and then
        # freed; the smaller ones are built once
        t0, t1, rules = _variable_piece(table)
        built = []
        parts = propagator._magnus_parts
        monkeypatch.setattr(propagator, "_magnus_parts",
                            lambda r, left, h: built.append(left.size) or parts(r, left, h))
        propagator._cached_levels.cache_clear()
        big, small = 2 * propagator._MAGNUS_CACHED_STEPS, 64
        for n in (big, big, small, small):
            propagator._magnus_samples(rules, t0, t1, n)
        assert built == [big, big, small]


class TestConstantPerturbation:
    """The CPM segment: which pieces it takes, one lambda-free mesh per piece
    at every lambda, and its eta functions."""

    @pytest.mark.parametrize("lam", [1e4, 1e6, 1e7, 1e8, 1e9])
    def test_large_lambda_without_dop853(self, lam, monkeypatch):
        # with the Magnus engine, 1e9 ran out of steps and two DOP853 runs
        # took 61 s; the tolerance is that of the Bessel test above
        prob = load_problem(CONFIGS / "linear_p.ini")
        monkeypatch.setattr(propagator, "solve_ivp", _refuse)
        propagator.clear_cache()
        got = propagator.endpoint_states(prob, [lam])[0]
        want = oracles.linear_p_endpoints(lam)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    def test_one_mesh_for_every_lambda(self, linear_p):
        # no more steps at 1e7 than at 1e4: the same cached mesh
        meshes = [propagator._walk(linear_p, np.array([lam]), np.eye(2))[0]._mesh
                  for lam in (1e4, 1e7)]
        assert meshes[0] is meshes[1]
        t0, t1, rules, _ = propagator._pieces(linear_p)[0]
        tol = max(linear_p.quad.ode_tol, propagator._MIN_RTOL)
        assert propagator._cpm_mesh(rules, t0, t1, tol) is meshes[0]
        assert meshes[0].n <= 4

    @pytest.mark.parametrize("name,engine", [
        ("linear_p", "_CPMSegment"), ("poly", "_CPMSegment"), ("two_poly", "_CPMSegment"),
        ("vanishing", "_MagnusSegment"), ("table", "_MagnusSegment"),
    ])
    def test_engine_from_the_rules(self, request, name, engine):
        # CPM where p and Delta are constant or poly with p Delta > 0 on the
        # closed piece; Magnus where Delta vanishes at a point or p is a table
        prob = request.getfixturevalue(name)
        segments = propagator._walk(prob, np.array([1.0]), np.eye(2))
        kinds = {type(seg).__name__ for seg, (*_, const) in zip(segments, propagator._pieces(prob))
                 if not const}
        assert kinds == {engine}
        rk = propagator._walk(rk_variant(prob), np.array([1.0]), np.eye(2))
        assert {type(seg).__name__ for seg in rk} == {"_ReferenceSegment"}

    def test_corrections_to_fourth_order(self):
        # one step in s with a polynomial perturbation W: three corrections
        # leave an error of order W^4, measured against DOP853 at 1e-13
        from scipy.integrate import solve_ivp

        zeta, shape = -20.0, np.array([0.3, -1.0, 0.5, 2.0, -1.5, 0.4, 0.2])
        errs = []
        for eps in (0.2, 0.1):
            w = eps * shape
            T = propagator._cpm_tables(w[:, None])[..., 0]
            eta = propagator._eta(np.array([zeta]), T.shape[1] - 2)[:, 0]
            got = T.sum(axis=2) @ eta  # u, v, u_s, v_s at s = 1
            got[2] += zeta * eta[1]
            rhs = lambda s, y: (y[1], (zeta + np.polynomial.polynomial.polyval(s, w)) * y[0])
            (u, u_s), (v, v_s) = (solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=1e-13,
                                            atol=1e-15).y[:, -1] for y0 in ((1.0, 0.0), (0.0, 1.0)))
            errs.append(np.max(np.abs(got - [u, v, u_s, v_s])))
        assert errs[1] <= 1e-10 and errs[0] / errs[1] >= 12.0, errs

    def test_eta_against_spherical_bessel(self):
        # eta_m(-x^2) = j_m(x) / x^m and eta_m(x^2) = i_m(x) / x^m, on both
        # sides of the switch between the series and the upward recursion
        from scipy.special import spherical_in, spherical_jn

        M = 8
        x = np.array([1e-3, 0.5, 3.0, 8.9, 9.1, 30.0])
        for sign, bessel in ((-1.0, spherical_jn), (1.0, spherical_in)):
            eta = propagator._eta(sign * x * x, M)
            np.testing.assert_allclose(eta[0], np.cos(x) if sign < 0 else np.cosh(x), rtol=1e-14)
            for m in range(M + 1):
                np.testing.assert_allclose(eta[m + 1], bessel(m, x) / x**m, rtol=1e-12)


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
