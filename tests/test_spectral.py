"""Weyl m-function, density routes, eigenvalue scan, and spectral assembly."""

import cmath
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from scipy.optimize import brentq as scipy_brentq
from slspectra import loads_problem, spectral
from slspectra.propagator import endpoint_states, fundamental_trajectory
from slspectra import (
    ConfigError,
    CrossCheckError,
    DoubleRootError,
    PoleContaminatedError,
    PoleProximityError,
    WindowError,
    BoundaryParam,
    build_spectral_function,
    constant,
    find_eigenvalues,
    infinity,
    m_function,
    mobius,
    parse_tau,
    point_mass,
    pure_point_spectral,
    spectral_density,
    sqrt_param,
    stieltjes_cdf,
)

C0 = constant(0.0)
SQRT = sqrt_param()


def _tau_pair(tau, lam):
    """(tau1, tau2) at one lam from one scalar closure call: fn off the real
    axis, boundary_fn on it."""
    if tau.kind != "analytic":
        return (complex(tau.theta), 1.0 + 0j) if tau.kind == "constant" else (1.0 + 0j, 0j)
    t1, t2 = tau.fn(lam) if lam.imag else tau.boundary_fn(lam.real)
    return complex(t1), complex(t2)


def _opaque(lam):
    """The pair (i lambda, 1), with no boundary values."""
    lam = np.asarray(lam)
    return np.stack([1.0j * lam, np.ones_like(lam)])


class TestMFunction:
    def test_sqrt_at_minus_one(self, free):
        # closed form collapses to tanh 2 + i sech 2 at lambda = -1
        m = m_function(free, SQRT, -1.0 + 0.0j)
        want = complex(math.tanh(2.0), 1.0 / math.cosh(2.0))
        assert m == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("lam", [2.0j, -3.0 + 0.5j, 40.0 + 7.0j, 1e-2 + 1e-2j])
    def test_sqrt_matches_oracle(self, free, lam):
        assert m_function(free, SQRT, lam) == pytest.approx(
            oracles.m_sqrt_free(lam), rel=1e-12
        )

    def test_const0_simple_pole_at_zero(self, free):
        # m + 1/lam is regular at 0; the finite part sums the tail jumps
        # sum_k 2/(k pi)^2 = 1/3
        lam = 1e-3j
        assert abs(m_function(free, C0, lam) + 1.0 / lam - 1.0 / 3.0) < 1e-4

    def test_real_pole_guarded(self, free):
        with pytest.raises(PoleProximityError):
            m_function(free, SQRT, complex(oracles.sqrt_poles_free(1)[0], 0.0))

    def test_herglotz_sign(self, free):
        for lam in (0.3 + 1.0j, -5.0 + 0.2j, 90.0 + 3.0j):
            assert m_function(free, SQRT, lam).imag > 0.0


class TestDensity:
    @pytest.mark.parametrize("u", [-0.25, -1.0, -4.0, -16.0])
    def test_boundary_route(self, free, u):
        got = spectral_density(free, SQRT, u, method="boundary")
        assert got == pytest.approx(oracles.density_sqrt_free(u), rel=1e-10)

    def test_extrapolation_route_agrees(self, free):
        a = spectral_density(free, SQRT, -1.0, method="boundary")
        b = spectral_density(free, SQRT, -1.0, method="extrapolation")
        assert b == pytest.approx(a, rel=1e-6)

    def test_extrapolation_contaminated_near_pole(self, free):
        u = oracles.sqrt_poles_free(1)[0] + 1e-3
        with pytest.raises(PoleContaminatedError):
            spectral_density(free, SQRT, u, method="extrapolation")

    def test_gap_density_vanishes(self, free):
        # spectrum on the positive axis is pure point for this parameter
        assert spectral_density(free, SQRT, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_constant_tau_has_no_ac_part(self, free):
        assert spectral_density(free, C0, -5.0) == pytest.approx(0.0, abs=1e-12)

    def test_unknown_method(self, free):
        with pytest.raises(ConfigError):
            spectral_density(free, SQRT, -1.0, method="midpoint")


class TestEigenvalues:
    def test_const0_inventory(self, free):
        got = find_eigenvalues(free, C0, (-1.0, 50.0))
        assert got == pytest.approx([0.0, math.pi**2, 4.0 * math.pi**2], abs=1e-9)

    def test_const0_count_to_100(self, free):
        got = find_eigenvalues(free, C0, (0.0, 100.0))
        want = [(k * math.pi) ** 2 for k in range(4)]
        assert got == pytest.approx(want, abs=1e-8)

    def test_sqrt_poles_to_1000(self, free):
        got = find_eigenvalues(free, SQRT, (0.0, 1000.0))
        want = oracles.sqrt_poles_free(len(got))
        assert len(got) == 10
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_degenerate_weight_inventory(self, mid):
        got = find_eigenvalues(mid, C0, (-1.0, 3000.0))
        want = [s for s in oracles.midthird_eigs_closed(3000.0)]
        assert len(got) == len(want)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-9)

    def test_close_pair_resolved(self, mid):
        # pairs straddling (3 k pi)^2 approach each other like 36/lam in
        # gap over spacing; a fixed-step scan that skips the dip loses one
        lo, hi = 6.0e4, 7.8e4
        got = find_eigenvalues(mid, C0, (lo, hi))
        want = [s for s in oracles.midthird_eigs_closed(hi) if s >= lo]
        assert len(got) == len(want)
        np.testing.assert_allclose(got, want, rtol=1e-9)

    # The members of a pair lie 18/sqrt(lambda) apart in s, so from lambda ~
    # 1.4e8 on pairs share base cells that show no sign change; the turn of
    # (D, N) across such a cell still counts two.
    def test_pairs_above_the_dip_limit(self, mid):
        got = find_eigenvalues(mid, C0, (1.4e8, 1.6e8))
        want = [lam for lam in oracles.midthird_eigs_closed(1.6e8) if lam >= 1.4e8]
        assert len(got) == len(want) == 174
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_every_pair_to_1e9(self, mid):
        got = find_eigenvalues(mid, C0, (-1.0, 1e9))
        want = oracles.midthird_eigs_closed(1e9)
        assert len(got) == len(want) == 6712
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize(
        "tau,coefs,interval,count",
        [("constant:3", (0.0, 3.0, 0.0, 1.0), (-1.0, 1e9), 6711),
         ("mobius:1,0,-1,2", (1.0, 0.0, -1.0, 2.0), (2.2e9, 2.3e9), 224)],
        ids=["constant-3", "mobius"],
    )
    def test_pairs_of_other_tau(self, mid, tau, coefs, interval, count):
        got = find_eigenvalues(mid, parse_tau(tau), interval)
        want = oracles.mobius_poles_midthird(*coefs, *interval)
        assert len(got) == len(want) == count
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_large_constant_tau(self, free):
        # the scan divides by |tau|, however large: a constant tau has no
        # pole, so nothing flips
        theta = 2e6
        got = find_eigenvalues(free, constant(theta), (-1e4, 200.0))
        want = oracles._roots_in_s(
            lambda u: theta * math.cos(math.sqrt(u)) + math.sqrt(u) * math.sin(math.sqrt(u)),
            1e-6, 200.0, 2000,
        )
        assert len(got) == len(want) == 5
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_empty_interval_rejected(self, free):
        with pytest.raises(ConfigError):
            find_eigenvalues(free, C0, (5.0, 5.0))

    @pytest.mark.parametrize("interval", [(-math.inf, 10.0), (0.0, math.inf), (-math.inf, math.inf)])
    def test_infinite_interval_rejected(self, free, interval):
        # a typed refusal, not the OverflowError of counting the scan nodes
        with pytest.raises(ConfigError, match="must be finite"):
            find_eigenvalues(free, C0, interval)

    def test_max_count_truncates(self, free):
        got = find_eigenvalues(free, C0, (-1.0, 1000.0), max_count=2)
        assert got == pytest.approx([0.0, math.pi**2], abs=1e-8)

    def test_analytic_tau_needs_boundary_values(self, free):
        opaque = BoundaryParam(kind="analytic", fn=_opaque)
        with pytest.raises(ValueError):
            find_eigenvalues(free, opaque, (0.0, 10.0))

    def test_argument_errors_are_config_errors(self, free):
        opaque = BoundaryParam(kind="analytic", fn=_opaque)
        with pytest.raises(ConfigError):
            find_eigenvalues(free, opaque, (0.0, 10.0))
        with pytest.raises(ConfigError):
            m_function(free, opaque, 2.0)
        with pytest.raises(ConfigError):
            point_mass(free, SQRT, -1.0)  # tau+(-1) = i is not real

    def test_scan_beyond_node_cap_refused(self, free, monkeypatch):
        # one scan node per pi/6 in sqrt(u): [0, 1e12] would need ~1.9e6
        def refuse(*args):
            raise AssertionError("propagated before refusing the range")

        monkeypatch.setattr(spectral, "endpoint_states", refuse)
        with pytest.raises(ConfigError, match="widest range allowed from 0 is") as exc:
            find_eigenvalues(free, SQRT, (0.0, 1e12))
        widest = float(str(exc.value).rsplit(", ", 1)[1].rstrip("]"))
        cap = spectral._SCAN_NODES
        assert (math.sqrt(widest) + 2 * math.pi / 6) / (math.pi / 6) + 1 <= cap

    # Above lambda ~ 2.2e9 one ulp of lambda (4.8e-7) is comparable to any
    # fixed small eps, so the pole test must not read m at lambda_k + i eps.
    HIGH = (2.2e9, 2.3e9)

    @pytest.mark.parametrize(
        "name,tau,den",
        [("free", "mobius:1,0,-1,2",
          lambda lams: oracles.mobius_den_free_array(1.0, 0.0, -1.0, 2.0, lams)),
         ("mid", "sqrt", oracles.sqrt_den_midthird_array)],
        ids=["free-mobius", "mid-sqrt"],
    )
    def test_high_window_poles_match_closed_form(self, request, name, tau, den):
        prob = request.getfixturevalue(name)
        got = np.array(find_eigenvalues(prob, parse_tau(tau), self.HIGH))
        # the cells of a 1e6-node grid in sqrt(lambda) where the closed-form
        # D changes sign, one per pole (poles lie >= 2.3 apart in sqrt(lambda))
        left, right = oracles.sign_change_cells(den, *self.HIGH, 10**6)
        assert got.size == left.size == {"free": 335, "mid": 224}[name]
        assert np.all((left <= got) & (got <= right))

    def test_high_window_free_sqrt_poles(self, free):
        k = np.arange(14900, 15300)
        want = math.pi**2 * (k - 0.25) ** 2  # tau = sqrt(lambda) poles, tan r = -1
        want = want[(want >= self.HIGH[0]) & (want <= self.HIGH[1])]
        got = find_eigenvalues(free, SQRT, self.HIGH)
        assert len(got) == want.size == 335
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_pole_test_at_branch_point_and_poles(self, free):
        assert not spectral._is_pole(free, SQRT, 0.0)
        assert all(spectral._is_pole(free, SQRT, lam) for lam in oracles.sqrt_poles_free(3))

    @pytest.mark.filterwarnings("error")
    def test_large_scan_values_leak_no_warning(self, mid):
        # the scan values reach ~1e289 at lambda = -1e6, so brackets compare signs
        got = find_eigenvalues(mid, C0, (-1e6, 10.0))
        assert len(got) == 1 and abs(got[0]) < 1e-15


class TestPointMass:
    def test_sqrt_first_jump(self, free):
        a1 = oracles.sqrt_poles_free(1)[0]
        assert point_mass(free, SQRT, a1) == pytest.approx(
            oracles.SQRT_JUMP_FREE, abs=1e-8
        )

    @pytest.mark.parametrize(
        "lam_k,phi_norm_sq",
        [(0.0, 1.0), (math.pi**2, 0.5), (4.0 * math.pi**2, 0.5)],
    )
    def test_const0_jump_norm_duality(self, free, lam_k, phi_norm_sq):
        # jump at an eigenvalue is the reciprocal squared weight-norm of
        # the eigenfunction normalized at the left endpoint
        jump = point_mass(free, C0, lam_k)
        assert jump * phi_norm_sq == pytest.approx(1.0, rel=1e-6)

    def test_degenerate_weight_jump_at_zero(self, mid):
        # constant eigenfunction, weight mass 2/3, so the jump is 3/2
        assert point_mass(mid, C0, 0.0) == pytest.approx(1.5, rel=1e-8)

    def test_non_pole_rejected(self, free):
        with pytest.raises(CrossCheckError):
            point_mass(free, SQRT, 1.0)


@pytest.fixture(scope="module")
def sigma_sqrt(free):
    return build_spectral_function(free, SQRT, (-50.0, 100.0), ac_nodes=400)


class TestBuildSpectralFunction:
    def test_sqrt_masses(self, sigma_sqrt):
        locs = [s for s, _ in sigma_sqrt.point_masses]
        jumps = [j for _, j in sigma_sqrt.point_masses]
        np.testing.assert_allclose(locs, oracles.sqrt_poles_free(3), rtol=1e-9)
        np.testing.assert_allclose(jumps, [2.0, 2.0, 2.0], atol=1e-6)

    def test_sqrt_ac_density(self, sigma_sqrt):
        grid = np.asarray(sigma_sqrt.ac_grid)
        dens = np.asarray(sigma_sqrt.ac_density)
        neg = grid < -1e-6
        want = np.array([oracles.density_sqrt_free(u) for u in grid[neg]])
        np.testing.assert_allclose(dens[neg], want, rtol=1e-8)
        assert np.all(np.abs(dens[~neg]) < 1e-12)

    def test_const0_is_pure_point(self, free):
        sig = build_spectral_function(free, C0, (-10.0, 50.0), ac_nodes=64)
        assert np.all(np.abs(np.asarray(sig.ac_density)) < 1e-12)
        masses = dict(
            (round(s, 6), j) for s, j in ((s, j) for s, j in sig.point_masses)
        )
        want = {
            0.0: 1.0,
            round(math.pi**2, 6): 2.0,
            round(4 * math.pi**2, 6): 2.0,
        }
        assert set(masses) == set(want)
        for key, jump in want.items():
            assert masses[key] == pytest.approx(jump, abs=1e-6)

    def test_gap_window_is_empty(self, free):
        sig = build_spectral_function(free, C0, (12.0, 35.0), ac_nodes=32)
        assert sig.point_masses == ()
        assert np.all(np.abs(np.asarray(sig.ac_density)) < 1e-12)

    def test_degenerate_weight_masses(self, mid):
        sig = build_spectral_function(mid, C0, (-5.0, 130.0), ac_nodes=32)
        locs = [s for s, _ in sig.point_masses]
        want = [s for s in oracles.midthird_eigs_closed(130.0)]
        np.testing.assert_allclose(locs, want, rtol=1e-8, atol=1e-8)
        assert sig.point_masses[0][1] == pytest.approx(1.5, rel=1e-6)

    def test_bad_window_rejected(self, free):
        with pytest.raises(ConfigError):
            build_spectral_function(free, SQRT, (10.0, -10.0))
        with pytest.raises(ConfigError):
            build_spectral_function(free, SQRT, (0.0, math.inf))

    def test_tau_without_boundary_values_refused(self, free):
        # there is no extrapolation route: the pole search needs tau+(u)
        with pytest.raises(ConfigError, match="needs boundary values"):
            build_spectral_function(free, SQRT_FN_ONLY, (-50.0, 100.0), ac_nodes=32)

    def test_pure_point_constructor(self):
        sig = pure_point_spectral([(4.0, 0.5), (1.0, 2.0)], (0.0, 9.0))
        assert sig.point_masses == ((1.0, 2.0), (4.0, 0.5))
        assert stieltjes_cdf(sig, 5.0) == pytest.approx(2.5)


class TestStieltjesCdf:
    def test_zero_normalization(self, sigma_sqrt):
        assert stieltjes_cdf(sigma_sqrt, 0.0) == 0.0

    def test_step_past_first_pole(self, sigma_sqrt):
        a1 = oracles.sqrt_poles_free(1)[0]
        assert stieltjes_cdf(sigma_sqrt, a1 + 0.5) == pytest.approx(2.0, abs=1e-6)

    def test_left_continuity_at_jump(self, sigma_sqrt):
        # at sigma's own jump s1, which lies within rounding of the oracle pole
        a1 = oracles.sqrt_poles_free(1)[0]
        s1 = sigma_sqrt.point_masses[0][0]
        assert abs(s1 - a1) <= 1e-15 * a1
        assert stieltjes_cdf(sigma_sqrt, s1) == 0.0
        assert stieltjes_cdf(sigma_sqrt, np.nextafter(s1, math.inf)) == pytest.approx(
            2.0, abs=1e-6
        )

    def test_negative_tail_mass(self, sigma_sqrt):
        # int_{-W}^0 density du = -(2/pi) arctan(tanh sqrt(W)) -> -1/2
        want = -(2.0 / math.pi) * math.atan(math.tanh(math.sqrt(50.0)))
        assert stieltjes_cdf(sigma_sqrt, -50.0) == pytest.approx(want, abs=1e-8)

    def test_outside_window_rejected(self, sigma_sqrt):
        with pytest.raises(WindowError):
            stieltjes_cdf(sigma_sqrt, 101.0)

    @settings(max_examples=40, deadline=None)
    @given(
        s1=st.floats(min_value=-50.0, max_value=100.0),
        s2=st.floats(min_value=-50.0, max_value=100.0),
    )
    def test_monotone(self, sigma_sqrt, s1, s2):
        lo, hi = sorted((s1, s2))
        assert stieltjes_cdf(sigma_sqrt, hi) - stieltjes_cdf(sigma_sqrt, lo) >= -1e-12


# Per-lambda reference routes for the batched consumers of endpoint_states:
# one pair of trajectories per lambda and scalar arithmetic.


def _endpoints(problem, lam):
    return tuple(fundamental_trajectory(problem, lam, w).endpoint for w in ("phi", "psi"))


def _scan_values_per_lambda(problem, tau, us):
    den, num, valid = np.zeros(len(us)), np.zeros(len(us)), np.zeros(len(us), dtype=bool)
    for i, u in enumerate(us):
        t1, t2 = _tau_pair(tau, complex(u))
        w = t1 * t2.conjugate()
        if abs(w.imag) > 1e-12 * (1.0 + abs(w)):
            continue
        ph, ps = _endpoints(problem, float(u))
        scale = max(abs(t1), abs(t2))
        den[i] = (ph.y.real * t1.real - ph.y1.real * t2.real) / scale
        num[i] = (ps.y.real * t1.real - ps.y1.real * t2.real) / scale
        valid[i] = True
    return den, num, valid


def _quotient_per_lambda(problem, lams, t):
    out = []
    for lam, t1, t2 in zip(lams, *t):
        ph, ps = _endpoints(problem, complex(lam))
        out.append((ps.y * t1 - ps.y1 * t2, ph.y * t1 - ph.y1 * t2))
    return np.array(out, dtype=complex).reshape(-1, 2).T


def _m_values_per_lambda(problem, tau, lams):
    out = []
    for lam in lams:
        lam = complex(lam)
        ph, ps = _endpoints(problem, lam)
        t1, t2 = _tau_pair(tau, lam)
        num, den = ps.y * t1 - ps.y1 * t2, ph.y * t1 - ph.y1 * t2
        if abs(den) <= spectral._POLE_GUARD * abs(num):
            raise PoleProximityError(f"pole at {lam}")
        out.append(num / den)
    return np.array(out)


def _density_boundary_per_lambda(problem, us, t):
    # the pairs t come from _tau_array, which TestTauArray checks per lambda
    out = []
    for u, t1, t2 in zip(us, *map(list, t)):
        ph, _ = _endpoints(problem, float(u))
        den, im_t = ph.y * t1 - ph.y1 * t2, (t1 * t2.conjugate()).imag
        if abs(den) < 1e-10 * (abs(ph.y) + abs(ph.y1)) * (abs(t1) + abs(t2)):
            raise PoleContaminatedError(f"pole near {u}")
        out.append(0.0 if im_t == 0.0 else im_t / (math.pi * abs(den) ** 2))
    return np.array(out)


def _winding_per_lambda(problem, tau, lam0):
    h, v = 1e-2 * (1.0 + abs(lam0)), 1e-2
    corners = [complex(lam0 - h, -v), complex(lam0 + h, -v), complex(lam0 + h, v),
               complex(lam0 - h, v), complex(lam0 - h, -v)]
    samples = []
    for z0, z1 in zip(corners[:-1], corners[1:]):
        for frac in np.linspace(0.0, 1.0, 50, endpoint=False):
            z = z0 + (z1 - z0) * frac
            t1, t2 = _tau_pair(tau, z)
            ph, _ = _endpoints(problem, z)
            samples.append(ph.y * t1 - ph.y1 * t2)
    total = sum(math.atan2((w1 / w0).imag, (w1 / w0).real)
                for w0, w1 in zip(samples, samples[1:] + samples[:1]))
    return round(total / (2 * math.pi)) >= 1


@pytest.fixture
def per_lambda(monkeypatch):
    """Route the spectral module through the per-lambda oracles."""

    def install():
        monkeypatch.setattr(spectral, "_scan_values", _scan_values_per_lambda)
        monkeypatch.setattr(spectral, "_quotient", _quotient_per_lambda)
        monkeypatch.setattr(spectral, "_m_values", _m_values_per_lambda)
        monkeypatch.setattr(spectral, "_density_boundary", _density_boundary_per_lambda)

    return install


def _rel(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)), initial=0.0))


MOBIUS = mobius(1.0, 2.0, 0.0, 1.0)  # lambda + 2


class TestBatchedMatchesPerLambda:
    """Each batched consumer of the endpoint kernel against its per-lambda route,
    at the drift bounds: eigenvalues and m 1e-13, densities 1e-12, masses 1e-8."""

    CASES = [("mid", "c0", (-1.0, 3000.0)), ("free", "sqrt", (0.0, 1000.0)),
             ("mid", "sqrt", (-50.0, 2000.0)), ("mid", "infinity", (-1.0, 3000.0))]
    TAUS = {"c0": C0, "sqrt": SQRT, "infinity": BoundaryParam(kind="infinity")}

    @pytest.mark.parametrize("name,tau,interval", CASES)
    def test_scan_eigenvalues_and_masses(self, request, per_lambda, name, tau, interval):
        prob, tau = request.getfixturevalue(name), self.TAUS[tau]
        s = np.linspace(-10.0, 60.0, 301)
        us = s * np.abs(s)
        den, num, valid = spectral._scan_values(prob, tau, us)
        eigs = find_eigenvalues(prob, tau, interval)
        masses = [point_mass(prob, tau, lam) for lam in eigs]
        per_lambda()
        want_den, want_num, want_valid = spectral._scan_values(prob, tau, us)
        np.testing.assert_array_equal(valid, want_valid)
        for got, want, w in ((den, want_den, 0), (num, want_num, 1)):
            ends = [_endpoints(prob, u)[w] for u in us]
            scale = [max(abs(e.y), abs(e.y1)) for e in ends]
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, scale))
        want_eigs = find_eigenvalues(prob, tau, interval)
        assert len(eigs) == len(want_eigs) > 3
        assert _rel(eigs, want_eigs) <= 1e-13
        want_masses = [point_mass(prob, tau, lam) for lam in want_eigs]
        assert float(np.max(np.abs(np.array(masses) / want_masses - 1.0))) <= 1e-8

    def test_spectral_function(self, mid, per_lambda):
        sig = build_spectral_function(mid, SQRT, (-2000.0, 3000.0), ac_nodes=300)
        per_lambda()
        want = build_spectral_function(mid, SQRT, (-2000.0, 3000.0), ac_nodes=300)
        np.testing.assert_array_equal(sig.ac_grid, want.ac_grid)
        assert np.count_nonzero(want.ac_density) > 100
        dens_dev = np.abs(sig.ac_density - want.ac_density) / np.maximum(want.ac_density, 1e-300)
        assert float(np.max(dens_dev)) <= 1e-12
        got_poles, got_jumps = zip(*sig.point_masses)
        want_poles, want_jumps = zip(*want.point_masses)
        assert _rel(got_poles, want_poles) <= 1e-13
        assert float(np.max(np.abs(np.array(got_jumps) / want_jumps - 1.0))) <= 1e-8

    def test_extrapolated_density(self, free, per_lambda):
        us = (-1.0, -7.5, -30.0)
        got = [spectral_density(free, SQRT, u, method="extrapolation") for u in us]
        per_lambda()
        want = [spectral_density(free, SQRT, u, method="extrapolation") for u in us]
        assert float(np.max(np.abs(np.array(got) / want - 1.0))) <= 1e-12

    @pytest.mark.parametrize("name", ["free", "mid"])
    def test_m_function(self, request, name):
        prob = request.getfixturevalue(name)
        lams = [2.0j, -3.0 + 0.5j, 40.0 + 7.0j, 1e-2 + 1e-2j, -1.0, 1e3 + 1j, -500.0 + 2.0j]
        for tau in (SQRT, C0, self.TAUS["infinity"], MOBIUS):
            want = _m_values_per_lambda(prob, tau, lams)
            assert _rel(spectral._m_values(prob, tau, lams), want) <= 1e-13
            assert _rel([m_function(prob, tau, lam) for lam in lams], want) <= 1e-13

    def test_winding(self, free):
        pole = oracles.sqrt_poles_free(2)[1]
        for lam0 in (pole, pole + 3.0):
            assert spectral._winding_confirms(free, SQRT, lam0) == _winding_per_lambda(
                free, SQRT, lam0
            )
        assert spectral._winding_confirms(free, SQRT, pole)


# p = 1 + t/2, so every scan evaluation runs the CPM transfer of a variable piece
VARCOEF_INI = """
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


@pytest.fixture(scope="module")
def varcoef():
    return loads_problem(VARCOEF_INI)


@pytest.fixture
def refinements(monkeypatch):
    """Record the arguments and roots of every chandrupatla call."""
    calls = []
    refine = spectral.chandrupatla

    def recording(*args, **kwargs):
        roots = refine(*args, **kwargs)
        calls.append((args, kwargs, roots))
        return roots

    monkeypatch.setattr(spectral, "chandrupatla", recording)
    return calls


class TestBracketRefinement:
    """The batched bracket refinement of find_eigenvalues against scipy's brentq."""

    CASES = [("free", SQRT, (0.0, 1000.0)), ("mid", C0, (-1.0, 3000.0)),
             ("mid", SQRT, (-50.0, 2000.0)), ("varcoef", C0, (-20.0, 1100.0))]

    @pytest.mark.parametrize(
        "name,tau,interval", CASES, ids=["free-sqrt", "mid-c0", "mid-sqrt", "poly-c0"]
    )
    def test_every_bracket_matches_brentq(self, request, refinements, name, tau, interval):
        prob = request.getfixturevalue(name)
        find_eigenvalues(prob, tau, interval)
        (args, kwargs, roots), = refinements
        f, x1, x2 = args[:3]
        assert x1.size > 3
        # every bracket is refined in lambda, the bracket around the
        # eigenvalue 0 of tau = 0 too
        assert np.count_nonzero((x1 <= 0.0) & (x2 >= 0.0)) == (tau is C0)
        for a, b, x in zip(x1, x2, roots):
            g = lambda x: float(f(np.array([x]))[0])
            want = scipy_brentq(g, a, b, xtol=1e-300, rtol=1e-15)
            assert abs(x - want) <= 2e-15 * (1.0 + abs(want))

    def test_roots_far_inside_the_stopping_width(self, free):
        # the stopping width is 2e-12 + 4e-14 |lambda|, about 4e-14 relative
        # at lambda ~ 1e5; the secant zero of the last bracket is at rounding
        got = np.array(find_eigenvalues(free, C0, (1.0, 1e5)))
        want = (np.pi * np.arange(1, got.size + 1)) ** 2
        assert got.size == 100
        assert float(np.max(np.abs(got / want - 1.0))) <= 4e-15

    def test_one_bracket_call_shape(self):
        root = spectral.brentq(math.cos, 0.0, 3.0, rtol=1e-14)
        assert root == pytest.approx(math.pi / 2, abs=3e-12)
        assert spectral.brentq(lambda x: x - 1.0, 1.0, 2.0) == 1.0
        with pytest.raises(ConfigError):
            spectral.brentq(math.cos, 0.0, 1.0)

    def test_root_at_zero_stops_at_lambda_width(self, varcoef, refinements):
        # in s the scan function is ~ s|s| at the root at 0 and brentq
        # bisects rounding noise down to a width of 4e-24 in lambda; in
        # lambda it is analytic and the bracket converges in a few steps
        find_eigenvalues(varcoef, C0, (-20.0, 1100.0))
        (args, kwargs, roots), = refinements
        f, x1, x2, f1, f2, *rest = args
        i = int(np.flatnonzero((x1 <= 0.0) & (x2 >= 0.0))[0])
        ours = []
        counted = lambda x: ours.append(x.size) or f(x)
        root = spectral.chandrupatla(counted, x1[i], x2[i], f1[i], f2[i], *rest, **kwargs)[0]
        assert len(ours) <= 8
        # the true eigenvalue is 0; the computed D has its root at rounding level
        assert root == roots[i]
        assert abs(root) <= 1e-15

    def test_varcoef_endpoint_calls_halved(self, varcoef, monkeypatch):
        calls = []
        endpoint_states = spectral.endpoint_states
        monkeypatch.setattr(
            spectral, "endpoint_states", lambda *a: calls.append(1) or endpoint_states(*a)
        )
        eigs = find_eigenvalues(varcoef, C0, (-20.0, 1100.0))
        assert len(eigs) == 10
        assert len(calls) < 105 / 2  # one scan plus one brentq call per evaluation before

    def test_bracket_turning_invalid_raises(self, free, monkeypatch):
        scan_values, refine = spectral._scan_values, spectral.chandrupatla
        refining = []

        def invalid_once_refining(problem, tau, us):
            den, num, valid = scan_values(problem, tau, us)
            return den, num, valid & (not refining)

        monkeypatch.setattr(spectral, "_scan_values", invalid_once_refining)
        monkeypatch.setattr(
            spectral, "chandrupatla", lambda *a, **k: refining.append(1) or refine(*a, **k)
        )
        with pytest.raises(PoleProximityError):
            find_eigenvalues(free, C0, (0.0, 100.0))


def _cell_zeros(lo, hi):
    """Zeros of D strictly inside the cell between the nodes lo, hi = (D, N):
    the marks pi/2 + j pi strictly between the angle of (D, N) at lo and
    that angle plus the turn mod 2 pi (a turn within _PHASE_ERR_CAP of 2 pi
    is a step back in rounding; a zero of D at hi ends on its mark)."""
    start = math.atan2(lo[1], lo[0])
    turn = (math.atan2(hi[1], hi[0]) - start) % (2.0 * math.pi)
    if turn > 2.0 * math.pi - spectral._PHASE_ERR_CAP:
        turn = 0.0
    end = start + turn
    if hi[0] == 0.0:
        end = math.pi / 2 + round((end - math.pi / 2) / math.pi) * math.pi
    return sum(start < math.pi / 2 + j * math.pi < end for j in range(-2, 4))


def _scan_segment_loops(problem, tau, s_nodes):
    """_scan_segment with a Python loop over the cells, each counted by
    _cell_zeros and halved depth first, one _scan_values call per midpoint."""
    roots, brackets = [], []

    def values(s):
        den, num, valid = spectral._scan_values(problem, tau, np.array([s * abs(s)]))
        if valid[0] and den[0] == 0.0:
            roots.append(spectral._u_of(s))
        return (den[0], num[0]) if valid[0] else None

    def cell(s0, s1, v0, v1):
        count = _cell_zeros(v0, v1)
        if count == 1:
            brackets.append((s0, s1, v0[0], v1[0]))
        elif count > 1:
            mid = 0.5 * (s0 + s1)
            if not s0 < mid < s1:
                raise DoubleRootError(f"two zeros at {spectral._u_of(mid):.8g}")
            vm = values(mid)
            if vm is not None:
                cell(s0, mid, v0, vm)
                cell(mid, s1, vm, v1)

    ends = [values(float(s)) for s in s_nodes]
    for s0, s1, v0, v1 in zip(s_nodes[:-1], s_nodes[1:], ends[:-1], ends[1:]):
        if v0 is not None and v1 is not None:
            cell(float(s0), float(s1), v0, v1)
    return roots, brackets


def _rational_scan(zeros, valid=lambda s: np.ones(s.shape, bool)):
    """A _scan_values whose m = N/D = -sum 1/(s - r) over the given zeros r
    of D, with s = sign(u) sqrt|u|: m increases between its poles, so the
    angle of (D, N) turns as the package's does."""

    def scan_values(problem, tau, us):
        s = np.sign(us) * np.sqrt(np.abs(us))
        terms = s[:, None] - np.array(zeros)
        num = -sum(np.prod(np.delete(terms, i, axis=1), axis=1) for i in range(len(zeros)))
        return np.prod(terms, axis=1), num, valid(s)

    return scan_values


class TestScanSegment:
    """_scan_segment's batched count and halving against the cell loops."""

    CASES = [("free", SQRT, (0.0, 1000.0)), ("mid", C0, (-1.0, 3000.0)),
             ("mid", C0, (6.0e4, 7.8e4)), ("varcoef", C0, (-20.0, 1100.0)),
             ("mid", C0, (1.4e8, 1.6e8))]

    @pytest.mark.parametrize(
        "name,tau,interval", CASES,
        ids=["free-sqrt", "mid-c0", "mid-close-pairs", "poly-c0", "mid-high-pairs"],
    )
    def test_roots_and_brackets_equal_the_loops(self, request, monkeypatch, name, tau, interval):
        prob = request.getfixturevalue(name)
        calls = []
        scan = spectral._scan_segment
        monkeypatch.setattr(
            spectral, "_scan_segment", lambda *a: calls.append(a[2]) or scan(*a)
        )
        find_eigenvalues(prob, tau, interval)
        monkeypatch.undo()
        got = spectral._scan_segment(prob, tau, calls[0])
        want = _scan_segment_loops(prob, tau, calls[0])
        # the loops go depth first, the batches breadth first: same finds, other order
        assert [sorted(x) for x in got] == [sorted(x) for x in want] and len(got[1]) > 3

    # zeros of D: -3.2 among invalid nodes (s <= -3), pairs in the
    # neighbouring cells [-2.5, -2] and [-2, -1.5], -1 and 1 on nodes, one in
    # [0, 0.5] and a pair in [2, 2.5]; the nodes are -4, -3.5, ..., 4
    ZEROS = [-3.2, -2.4, -2.3, -1.9, -1.6, -1.0, 0.4, 1.0, 2.1, 2.2]

    @pytest.mark.parametrize("hole", [None, 2.25], ids=["all-valid", "invalid-midpoint"])
    def test_counts_of_a_known_angle(self, free, monkeypatch, hole):
        valid = lambda s: (s > -3.0) & (s != hole)  # noqa: E731
        monkeypatch.setattr(spectral, "_scan_values", _rational_scan(self.ZEROS, valid))
        s_nodes = np.linspace(-4.0, 4.0, 17)
        roots, brackets = spectral._scan_segment(free, C0, s_nodes)
        assert sorted(roots) == [-1.0, 1.0]
        inside = [[lo < r < hi for r in self.ZEROS] for lo, hi, _, _ in sorted(brackets)]
        assert all(sum(row) == 1 for row in inside)
        found = [r for r, *hits in zip(self.ZEROS, *inside) if any(hits)]
        # the midpoint 2.25 of the pair's cell is invalid, so the cell goes
        assert found == [-2.4, -2.3, -1.9, -1.6, 0.4] + [2.1, 2.2] * (hole is None)
        want = _scan_segment_loops(free, C0, s_nodes)
        assert [sorted(x) for x in (roots, brackets)] == [sorted(x) for x in want]

    def test_two_zeros_within_rounding(self, free, monkeypatch):
        # D = (s - f1)(s - f2) + ulp^2/8 on the adjacent floats f1 < f2 has
        # both zeros strictly between them, with N = -(2 s - f1 - f2)
        f1 = 3.1
        f2 = math.nextafter(f1, 4.0)
        delta = (f2 - f1) ** 2 / 8.0

        def scan_values(problem, tau, us):
            s = np.sign(us) * np.sqrt(np.abs(us))
            return (s - f1) * (s - f2) + delta, -(2.0 * s - f1 - f2), np.ones(s.shape, bool)

        monkeypatch.setattr(spectral, "_scan_values", scan_values)
        s_nodes = np.linspace(-4.0, 4.0, 17)
        # the count from the signs; the loops' lifted angle sits within
        # rounding of a mark here, so they are not asked
        with pytest.raises(DoubleRootError, match="within rounding of lambda=9.61"):
            spectral._scan_segment(free, C0, s_nodes)


class TestTauArray:
    """_tau_array against the per-lambda pairs it batches."""

    REAL = np.array([-40.0, -1.0, 0.0, 0.5, 2.0, 900.0])
    COMPLEX = np.array([-40.0 + 1e-3j, 0.5 - 2.0j, 3.0 + 0.0j, 1e4j])
    TAUS = [constant(2.5), C0, BoundaryParam(kind="infinity"), SQRT, mobius(1.0, 0.0, -1.0, 2.0)]

    @pytest.mark.parametrize("tau", TAUS, ids=["constant", "zero", "infinity", "sqrt", "mobius"])
    def test_matches_per_lambda_values(self, tau):
        # real, mixed, empty, and all non-real in one and two dimensions
        off_axis = self.COMPLEX[self.COMPLEX.imag != 0.0]
        for lams in (self.REAL, self.COMPLEX, self.REAL[:0], off_axis, off_axis[[0, 1, 2, 0]].reshape(2, 2)):
            t = spectral._tau_array(tau, lams)
            want = [_tau_pair(tau, complex(lam)) for lam in lams.ravel()]
            np.testing.assert_array_equal(t.reshape(2, -1).T, np.reshape(want, (-1, 2)))
            assert t.dtype == complex and t.shape == (2, *lams.shape)


# Per-lambda oracles of the batched spectral assembly: point_mass as it was
# before the masses of a window became one batch, with the residue restated
# for the complex step (one _quotient call at lambda_k + i h) and the
# eps-limit for the cached quadratic projection, and the per-node
# extrapolated density.


def _point_mass_per_lambda(problem, tau, lam_k):
    lam_k = float(lam_k)
    eps = spectral._EPS
    h = spectral._COMPLEX_STEP * (1.0 + abs(lam_k))
    z = np.array([lam_k + 1j * h])
    t = spectral._tau_array(tau, z)
    # a real tau+ makes Im(tau1 conj(tau2)) odd in h: halving h halves it
    w0, w1 = (complex(a * b.conjugate()).imag for a, b in spectral._tau_array(
        tau, np.array([lam_k + 1j * h, lam_k + 0.5j * h])).T)
    if abs(w0 - 2.0 * w1) > 1e-3 * abs(w0):
        raise ConfigError(f"tau+({lam_k}) is not real; no real pole possible here")
    num, den = spectral._quotient(problem, z, t)
    d_prime = float(den[0].imag) / h
    if d_prime == 0.0:
        raise CrossCheckError(f"D'({lam_k}) = 0: not a simple pole")
    jump_res = -float(num[0].real) / d_prime
    w = eps * spectral._m_values(problem, tau, lam_k + 1j * eps).imag
    # the cached projection of the batch (checked against Polynomial.fit in
    # test_eps_limit_matches_polynomial_fit), so the eps-limit of a non-pole,
    # which is rounding noise, prints the same digits
    jump_lim = float(spectral._quadratic_fits(eps**2, w[None, :])[1][0])
    if jump_res <= 0.0:
        raise CrossCheckError(f"residue jump {jump_res:.6g} at lambda={lam_k} is not positive")
    if abs(jump_res - jump_lim) > 1e-3 * abs(jump_res):
        raise CrossCheckError(
            f"jump cross-check failed at lambda={lam_k}: "
            f"residue {jump_res:.10g} vs eps-limit {jump_lim:.10g}"
        )
    return jump_res


def _density_extrapolation_per_node(problem, tau, u):
    eps = spectral._EPS
    vals = spectral._m_values(problem, tau, u + 1j * eps).imag
    fit = np.polynomial.Polynomial.fit(eps, vals, deg=2)
    res = max(abs(float(fit(e)) - v) for e, v in zip(eps, vals))
    if res > 1e-8 * (1.0 + float(np.max(np.abs(vals)))):
        raise PoleContaminatedError(f"no convergence at u={u}")
    out = float(fit(0.0)) / math.pi
    if out < 0.0:
        if out > -1e-8:
            return 0.0
        raise PoleContaminatedError(f"negative extrapolant at u={u}")
    return out


SQRT_FN_ONLY = BoundaryParam(kind="analytic", fn=SQRT.fn, name="sqrt-fn-only")


class TestBatchedAssembly:
    """_point_masses, the pole test and the batched extrapolated density
    against the per-lambda oracles above."""

    CASES = [("free", "sqrt", (0.0, 1000.0)), ("mid", "c0", (-1.0, 3000.0)),
             ("mid", "sqrt", (-50.0, 2000.0)), ("varcoef", "c0", (-20.0, 1100.0))]

    @pytest.mark.parametrize("name,tau,interval", CASES)
    def test_jumps_equal_per_lambda(self, request, name, tau, interval):
        prob, tau = request.getfixturevalue(name), {"sqrt": SQRT, "c0": C0}[tau]
        eigs = find_eigenvalues(prob, tau, interval)
        assert len(eigs) > 3
        want = [_point_mass_per_lambda(prob, tau, lam) for lam in eigs]
        np.testing.assert_array_equal(spectral._point_masses(prob, tau, eigs), want)
        np.testing.assert_array_equal([point_mass(prob, tau, lam) for lam in eigs], want)

    def test_fixed_eps_are_the_old_schedule_tail(self, free):
        # eps_j = 0.1 * 2^-j for j = 0..12 was the default schedule, and both
        # eps-limits read its six smallest entries
        schedule = np.array([0.1 * 2.0 ** (-j) for j in range(13)])
        np.testing.assert_array_equal(spectral._EPS, schedule[-6:])
        eigs = find_eigenvalues(free, C0, (-1.0, 1000.0))
        assert len(eigs) == 11
        want = [_point_mass_per_lambda(free, C0, lam) for lam in eigs]
        np.testing.assert_array_equal(spectral._point_masses(free, C0, eigs), want)

    def test_eps_limit_matches_polynomial_fit(self, free, mid):
        eps = spectral._EPS
        rows = []
        for prob, tau, lams in ((free, SQRT, oracles.sqrt_poles_free(4)),
                                (mid, C0, find_eigenvalues(mid, C0, (-1.0, 500.0)))):
            for lam in lams:
                rows.append(eps * spectral._m_values(prob, tau, lam + 1j * eps).imag)
        rows.append(np.array([1.0, -2.0, 0.5, 3.0, 1e-3, 7.0]))  # no quadratic at all
        rows = np.array(rows)
        fits, at_zero = spectral._quadratic_fits(eps**2, rows)
        for row, fit, zero in zip(rows, fits, at_zero):
            want = np.polynomial.Polynomial.fit(eps**2, row, deg=2)
            scale = np.max(np.abs(row))
            assert abs(zero - want(0.0)) <= 1e-12 * scale
            assert np.max(np.abs(fit - want(eps**2))) <= 1e-12 * scale

    def test_empty_batch(self, free):
        assert spectral._point_masses(free, SQRT, []).shape == (0,)

    @pytest.mark.parametrize("lam", [-1.0, 1.0, 0.5])
    def test_one_lambda_failures_unchanged(self, free, lam):
        with pytest.raises((ConfigError, CrossCheckError)) as want:
            _point_mass_per_lambda(free, SQRT, lam)
        with pytest.raises(want.type, match="^" + re.escape(str(want.value)) + "$"):
            point_mass(free, SQRT, lam)

    @staticmethod
    def _patch(monkeypatch, edit):
        """Route spectral._quotient through edit(lams, (N, D))."""
        orig = spectral._quotient
        monkeypatch.setattr(
            spectral, "_quotient",
            lambda prob, lams, t: edit(np.asarray(lams), orig(prob, lams, t)),
        )

    @pytest.mark.filterwarnings("error")
    def test_typed_failures_from_the_batch(self, free, monkeypatch):
        eigs = oracles.neumann_eigs_free(5)[1:]  # pi^2, (2 pi)^2, ...
        with pytest.raises(ConfigError, match="not real"):
            spectral._point_masses(free, SQRT, oracles.sqrt_poles_free(2) + [-1.0])

        def near(lams, k, step):  # the complex step (Im < 1e-10) or the eps samples of eigs[k]
            return (np.abs(lams.real - eigs[k]) < 1.0) & ((lams.imag < 1e-10) == step)

        def flat_den(lams, nd):  # Im D(lambda_2 + i h) = 0, so D'(lambda_2) = 0
            num, den = nd
            return num, np.where(near(lams, 2, True), den.real + 0j, den)

        self._patch(monkeypatch, flat_den)
        with pytest.raises(CrossCheckError, match=re.escape(f"D'({eigs[2]}) = 0")):
            spectral._point_masses(free, C0, eigs)
        monkeypatch.undo()

        def flip_residue(lams, nd):  # residue of lambda_1 negative
            num, den = nd
            return np.where(near(lams, 1, True), -num, num), den

        self._patch(monkeypatch, flip_residue)
        with pytest.raises(CrossCheckError, match="is not positive"):
            spectral._point_masses(free, C0, eigs)
        # the lowest failing lambda wins: lambda_1 fails before lambda_2 does
        self._patch(monkeypatch, flat_den)
        with pytest.raises(CrossCheckError, match=f"residue jump .* at lambda={eigs[1]} "):
            spectral._point_masses(free, C0, eigs)
        monkeypatch.undo()

        def at_pole(lams, nd):  # D = 0 at lambda_3 + i eps
            num, den = nd
            return num, np.where(near(lams, 3, False), 0.0, den)

        self._patch(monkeypatch, at_pole)
        with pytest.raises(PoleProximityError, match=f"lambda=\\({eigs[3]}\\+"):
            spectral._point_masses(free, C0, eigs)
        monkeypatch.undo()

        def skew(lams, nd):  # eps * Im m of lambda_0 off by 1 %
            num, den = nd
            return np.where(near(lams, 0, False), 1.01 * num, num), den

        self._patch(monkeypatch, skew)
        with pytest.raises(CrossCheckError, match=f"cross-check failed at lambda={eigs[0]}"):
            spectral._point_masses(free, C0, eigs)

    def test_pole_probes_equal_per_root(self, mid, monkeypatch):
        # the search tests all its roots in one _poles call; each verdict is
        # _is_pole's for that root alone, and the search keeps the passes
        calls = []
        poles = spectral._poles
        monkeypatch.setattr(
            spectral, "_poles", lambda p, t, roots: calls.append(list(roots)) or poles(p, t, roots)
        )
        eigs = find_eigenvalues(mid, SQRT, (-50.0, 2000.0))
        (roots,) = calls
        assert eigs == [r for r in roots if spectral._is_pole(mid, SQRT, r)]
        roots += [0.0, 1e-3, 7.5]  # the branch point of sqrt and two non-roots
        got = poles(mid, SQRT, roots).tolist()
        assert got == [spectral._is_pole(mid, SQRT, r) for r in roots]
        assert sum(got) >= 5 and not all(got)

    def test_assembly_endpoint_calls_fixed(self, free, monkeypatch):
        """Outside the scan, build_spectral_function makes one endpoint_states
        call for the pole test, one for the point masses and one for the
        density, however many poles the window holds.  Before the batches
        it made 3 per pole plus 1: 10 on the README window (3 poles) and 31
        on [-50, 1000] (10 poles); with the central difference, the masses
        took two calls."""
        calls, scanning = [], []
        endpoint_states, scan_values = spectral.endpoint_states, spectral._scan_values

        def scan(*args):
            scanning.append(1)
            try:
                return scan_values(*args)
            finally:
                scanning.pop()

        def count(*args):
            if not scanning:
                calls.append(1)
            return endpoint_states(*args)

        monkeypatch.setattr(spectral, "_scan_values", scan)
        monkeypatch.setattr(spectral, "endpoint_states", count)
        for window, poles in (((-50.0, 100.0), 3), ((-50.0, 1000.0), 10)):
            calls.clear()
            sigma = build_spectral_function(free, SQRT, window, ac_nodes=600)
            assert len(sigma.point_masses) == poles
            assert len(calls) == 3

    def test_extrapolated_densities_match_per_node(self, free, mid):
        for prob, us in ((free, np.linspace(-60.0, -0.5, 23)), (mid, np.linspace(-40.0, -1.0, 9))):
            got = spectral._extrapolated_densities(prob, SQRT_FN_ONLY, us)
            want = np.array([_density_extrapolation_per_node(prob, SQRT_FN_ONLY, u) for u in us])
            assert np.all(want > 0.0)
            assert float(np.max(np.abs(got / want - 1.0))) <= 1e-12
            assert [spectral_density(prob, SQRT_FN_ONLY, u) for u in us[:3]] == pytest.approx(
                want[:3], rel=1e-12
            )

    def test_extrapolated_density_near_a_pole_raises(self, free):
        a1 = oracles.sqrt_poles_free(1)[0]
        with pytest.raises(PoleContaminatedError, match=f"u={a1 + 1e-4}"):
            spectral._extrapolated_densities(free, SQRT_FN_ONLY, [-1.0, a1 + 1e-4, a1])


# the free problem again, with p = 1 read off a spline table: every
# propagation runs the Magnus transfer of a variable piece
FREE_TABLE_INI = """
[interval]
a = 0.0
b = 1.0
alpha = -pi/2

[coefficients.p]
pieces =
    0.0, 1.0, table:3:0.0 1.0; 0.25 1.0; 0.5 1.0; 0.75 1.0; 1.0 1.0

[coefficients.q]
pieces =
    0.0, 1.0, constant:0.0

[coefficients.delta]
pieces =
    0.0, 1.0, constant:1.0
"""


def _central_difference_mass(problem, tau, lam_k, h):
    """-N/D' at lambda_k with D' = (D(lambda_k + h) - D(lambda_k - h)) / 2h."""
    us = np.array([lam_k, lam_k + h, lam_k - h])
    num, den = spectral._quotient(problem, us, spectral._tau_array(tau, us).real)
    return -num[0] / ((den[1] - den[2]) / (2.0 * h))


class TestComplexStepResidue:
    """The residue -N/D' with D' = Im D(lambda_k + i h) / h against a central
    difference and against closed-form jumps."""

    @pytest.mark.parametrize("name,tau,interval", TestBatchedAssembly.CASES)
    def test_within_central_difference_truncation(self, request, name, tau, interval):
        # the central difference at h = 1e-5 (1 + |lambda|) errs by c h^2, so
        # its values at h and 2h differ by 3 c h^2: the complex step lies
        # within 1.5 times that truncation error of the value at h
        prob, tau = request.getfixturevalue(name), {"sqrt": SQRT, "c0": C0}[tau]
        eigs = find_eigenvalues(prob, tau, interval)
        for lam, jump in zip(eigs, spectral._point_masses(prob, tau, eigs)):
            h = 1e-5 * (1.0 + abs(lam))
            at_h, at_2h = (_central_difference_mass(prob, tau, lam, x) for x in (h, 2.0 * h))
            assert abs(jump - at_h) <= 0.5 * abs(at_2h - at_h)

    def _check(self, prob, tau, interval, jump_of, count):
        eigs = find_eigenvalues(prob, tau, interval)
        assert len(eigs) == count
        want = [jump_of(lam) for lam in eigs]
        got = spectral._point_masses(prob, tau, eigs)
        assert float(np.max(np.abs(got / want - 1.0))) <= 1e-10

    def test_free_sqrt_jump_two(self, free):
        self._check(free, SQRT, (0.0, 3000.0), lambda lam: oracles.SQRT_JUMP_FREE, 17)

    def test_middle_third_tau0(self, mid):
        self._check(
            mid, C0, (-1.0, 3000.0),
            lambda lam: 1.5 if abs(lam) < 1e-12 else oracles.midthird_mass_tau0(lam), 12,
        )

    def test_linear_p(self, varcoef):
        self._check(
            varcoef, C0, (-20.0, 1100.0),
            lambda lam: oracles.linear_p_mass(lam if abs(lam) > 1e-12 else 0.0), 10,
        )

    def test_table_config(self):
        table = loads_problem(FREE_TABLE_INI)
        self._check(table, C0, (-1.0, 1000.0), lambda lam: 1.0 if lam < 1.0 else 2.0, 11)

    def test_reference_integrator(self, varcoef):
        # closed_form_pieces = false: the complex lambda go through DOP853
        rk = replace(varcoef, quad=replace(varcoef.quad, closed_form_pieces=False))
        self._check(
            rk, C0, (-20.0, 120.0),
            lambda lam: oracles.linear_p_mass(lam if abs(lam) > 1e-12 else 0.0), 4,
        )


class TestBatchInvariance:
    """A one-lambda call gives the bits of its entry in a batch, on each of
    the four engines: point_mass against _point_masses, m_function against
    _m_values, _is_pole against _poles."""

    @pytest.fixture(params=["closed-form", "cpm", "magnus", "dop853"])
    def engine(self, request, mid, varcoef):
        if request.param == "closed-form":
            return mid, (-1.0, 3000.0)
        if request.param == "cpm":  # p = 1 + t/2, as in configs/linear_p.ini
            return varcoef, (-20.0, 1100.0)
        if request.param == "magnus":
            return loads_problem(FREE_TABLE_INI), (-1.0, 1000.0)
        return replace(varcoef, quad=replace(varcoef.quad, closed_form_pieces=False)), (-20.0, 120.0)

    def test_point_mass(self, engine):
        prob, interval = engine
        roots = find_eigenvalues(prob, C0, interval)
        assert len(roots) >= 4
        spectral._root_sets.clear()  # so each point_mass makes its one-pole call
        batch = spectral._point_masses(prob, C0, roots)
        np.testing.assert_array_equal([point_mass(prob, C0, lam) for lam in roots], batch)

    @pytest.mark.parametrize("tau", [C0, SQRT], ids=["c0", "sqrt"])
    def test_m_function(self, engine, tau):
        # a real lambda walks in real arithmetic, so real ones form their own
        # batch (in a complex batch they take complex steps)
        prob, (lo, hi) = engine
        for lams in (np.linspace(lo, hi, 5) + 0.5j, [3.0 + 40.0j, -7.0 - 2.0j], [2.5, 0.3]):
            batch = spectral._m_values(prob, tau, lams)
            np.testing.assert_array_equal([m_function(prob, tau, lam) for lam in lams], batch)

    # most relative change, against a state's largest entry, of a real lambda
    # moved into a batch with complex ones; measured on 9 evenly spaced and 60
    # random lambda of each engine's range: 7.2e-16 closed form, 7.7e-16 CPM,
    # 2.1e-14 Magnus (1.7e-13 at lambda near 5e3), 0 DOP853
    MIXED_BOUND = {"closed-form": 4e-15, "cpm": 4e-15, "magnus": 1e-13, "dop853": 4e-15}

    def test_endpoint_states_mixed_batch(self, engine, request):
        # a batch holding a complex lambda walks every lambda in complex
        # arithmetic; its real lambda keep a zero imaginary part and the real
        # walk's states to within rounding
        prob, (lo, hi) = engine
        reals = np.linspace(lo, hi, 9)
        want = endpoint_states(prob, reals)
        got = endpoint_states(prob, np.concatenate([[3.0 + 40.0j, -7.0 - 2.0j], reals]))[2:]
        assert want.dtype.kind == "f" and got.dtype.kind == "c"
        assert not np.count_nonzero(got.imag)
        err = np.abs(got - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
        assert err.max() <= self.MIXED_BOUND[request.node.callspec.params["engine"]]

    @pytest.mark.parametrize("tau", [C0, SQRT], ids=["c0", "sqrt"])
    def test_is_pole(self, engine, tau):
        prob, interval = engine
        roots = find_eigenvalues(prob, C0, interval)
        candidates = np.concatenate([roots, [-0.5, 0.5 * (roots[1] + roots[2])]])
        batch = spectral._poles(prob, tau, candidates)
        assert [spectral._is_pole(prob, tau, lam) for lam in candidates] == batch.tolist()


def _outcome(call):
    """call()'s value, or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:  # the outcome is compared, not raised
        return type(exc), str(exc)


class TestRootSetMemo:
    """point_mass on the roots of find_eigenvalues reads one batch of the
    whole root set; every outcome is the one-pole call's."""

    TAUS = {"c0": C0, "infinity": infinity(), "sqrt": SQRT, "mobius": parse_tau("mobius:1,0,-1,2")}

    @pytest.fixture(params=["closed-form-free", "closed-form-mid", "cpm", "magnus", "dop853"])
    def engine(self, request, free, mid, varcoef):
        return {
            "closed-form-free": lambda: (free, (-3.0, 1000.0)),
            "closed-form-mid": lambda: (mid, (-50.0, 2000.0)),
            "cpm": lambda: (varcoef, (-20.0, 1100.0)),
            "magnus": lambda: (loads_problem(FREE_TABLE_INI), (-3.0, 1000.0)),
            "dop853": lambda: (
                replace(varcoef, quad=replace(varcoef.quad, closed_form_pieces=False)), (-20.0, 120.0)
            ),
        }[request.param]()

    @pytest.mark.parametrize("tau", list(TAUS))
    def test_masses_equal_the_one_pole_calls(self, engine, tau, cleared_root_sets):
        prob, interval = engine
        tau = self.TAUS[tau]
        roots = find_eigenvalues(prob, tau, interval)
        assert len(roots) >= 2
        got = [_outcome(lambda: point_mass(prob, tau, lam)) for lam in roots]
        assert isinstance(cleared_root_sets[id(prob), id(tau)][3], np.ndarray)
        cleared_root_sets.clear()
        want = [_outcome(lambda: point_mass(prob, tau, lam)) for lam in roots]
        assert got == want
        assert all(isinstance(m, float) and m > 0.0 for m in want)

    def test_one_endpoint_call_for_the_masses(self, mid, monkeypatch, cleared_root_sets):
        roots = find_eigenvalues(mid, C0, (-1.0, 99000.0))
        assert len(roots) == 68
        calls = []
        endpoint_states = spectral.endpoint_states
        monkeypatch.setattr(spectral, "endpoint_states",
                            lambda *args: calls.append(1) or endpoint_states(*args))
        masses = [point_mass(mid, C0, lam) for lam in roots]
        masses += [point_mass(mid, C0, lam) for lam in roots[::-1]][::-1]
        assert len(calls) == 1
        np.testing.assert_array_equal(masses, 2 * list(spectral._point_masses(mid, C0, roots)))

    def test_failing_root_raises_its_own_error(self, free, monkeypatch, cleared_root_sets):
        roots = find_eigenvalues(free, C0, (-1.0, 250.0))  # 0, pi^2, ..., (5 pi)^2
        assert len(roots) == 6
        ok = [point_mass(free, C0, lam) for lam in roots[:3]]  # one batch of all six
        find_eigenvalues(free, C0, (-1.0, 250.0))  # a new record: no masses yet

        def flip_residue(lams, nd):  # as in test_typed_failures_from_the_batch
            num, den = nd
            step = (np.abs(lams.real - roots[2]) < 1.0) & (lams.imag < 1e-10)
            return np.where(step, -num, num), den

        TestBatchedAssembly._patch(monkeypatch, flip_residue)
        batches = []
        point_masses = spectral._point_masses
        monkeypatch.setattr(spectral, "_point_masses",
                            lambda p, t, lams: batches.append(len(lams)) or point_masses(p, t, lams))
        order = [3, 2, 0, 5, 2, 1, 4]
        got = [_outcome(lambda: point_mass(free, C0, roots[k])) for k in order]
        # the batch of six raised once; then each root makes its one-pole call
        assert batches == [6] + [1] * len(order)
        want = [_outcome(lambda: float(point_masses(free, C0, [roots[k]])[0])) for k in order]
        assert got == want
        assert got[1][0] is CrossCheckError and "is not positive" in got[1][1]
        assert got[2] == ok[0] and got[5] == ok[1]

    def test_caller_edits_its_list(self, mid, cleared_root_sets):
        # the record keeps its own copy of the roots, so an edit of the
        # returned list does not shift the kept masses
        roots = find_eigenvalues(mid, C0, (-1.0, 3000.0))
        want = list(spectral._point_masses(mid, C0, roots))
        assert point_mass(mid, C0, roots[0]) == want[0]  # the batch of the set
        roots.insert(0, -0.5)  # no eigenvalue: its one-pole call raises
        got = [_outcome(lambda: point_mass(mid, C0, lam)) for lam in roots]
        assert got[0][0] is CrossCheckError
        assert got[1:] == want

    def test_other_inputs_take_the_one_pole_call(self, mid, monkeypatch, cleared_root_sets):
        roots = find_eigenvalues(mid, C0, (-1.0, 500.0))
        batches = []
        point_masses = spectral._point_masses
        monkeypatch.setattr(spectral, "_point_masses",
                            lambda p, t, lams: batches.append(len(lams)) or point_masses(p, t, lams))
        lam = roots[1]
        near = float(np.nextafter(lam, np.inf))
        calls = [
            (mid, C0, near),  # not bit-equal to a root
            (mid, constant(0.0), lam),  # an equal tau, but another object
            (replace(mid), C0, lam),  # an equal problem, but another object
            (mid, C0, np.float32(lam)),  # not a float
        ]
        got = [_outcome(lambda: point_mass(*args)) for args in calls]
        assert batches == [1] * len(calls)
        assert isinstance(got[0], float)
        assert got[1] == got[2] == point_mass(mid, C0, lam) and batches[-1] == len(roots)

    def test_last_eight_sets_kept(self, free, cleared_root_sets):
        taus = [constant(float(theta)) for theta in range(10)]
        for tau in taus:
            find_eigenvalues(free, tau, (-1.0, 50.0))
        assert list(cleared_root_sets) == [(id(free), id(tau)) for tau in taus[2:]]
        find_eigenvalues(free, taus[2], (-1.0, 60.0))  # the newest set of a pair goes last
        assert list(cleared_root_sets)[-1] == (id(free), id(taus[2]))
        assert len(cleared_root_sets) == 8


def test_density_of_infinity(free):
    # tau = (1, 0): Im m(u + i0) = 0 off the poles, and D = phi(1) =
    # cos(sqrt(u)) vanishes at the Dirichlet eigenvalue pi^2/4
    for u in (1.0, 10.0):
        assert spectral_density(free, infinity(), u) == 0.0
    with pytest.raises(PoleContaminatedError, match="boundary denominator vanishes"):
        spectral_density(free, infinity(), math.pi**2 / 4.0)


class TestMobiusScan:
    """A real Mobius tau scans as any analytic tau, past its own pole; the
    poles and jumps match the closed forms."""

    @pytest.mark.parametrize(
        "coefs,window",
        [((2.0, -1.0, 3.0, 0.5), (-50.0, 500.0)), ((1.0, 0.0, -1.0, 2.0), (-3.0, 40.0)),
         # |tau+| is above 1e6 (1 + |u|) on the whole window or on most of
         # it, far from any pole of tau: no node is dropped for its size
         ((1.0, 1e7, 0.0, 1.0), (-3.0, 400.0)), ((1e7, 0.0, 0.0, 1.0), (-3.0, 400.0)),
         # the tau of (1, 0, -1, 2): a constant factor of the pair moves nothing
         ((1e5, 0.0, -1e5, 2e5), (-3.0, 40.0))],
    )
    def test_free_problem(self, free, coefs, window):
        sigma = build_spectral_function(free, mobius(*coefs), window, ac_nodes=200)
        want = oracles.mobius_poles_free(*coefs, *window)
        got = [s for s, _ in sigma.point_masses]
        assert len(got) == len(want) >= 3
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        for s, jump in sigma.point_masses:
            if abs(s) > 1e-12:
                assert jump == pytest.approx(oracles.mobius_mass_free(*coefs, s), rel=1e-10)
        assert sigma.ac_density.size == 0 or not np.any(sigma.ac_density)

    def test_middle_third(self, mid):
        coefs, window = (1.0, 0.0, -1.0, 2.0), (0.5, 3000.0)
        sigma = build_spectral_function(mid, mobius(*coefs), window, ac_nodes=200)
        want = oracles.mobius_poles_midthird(*coefs, *window)
        got = [s for s, _ in sigma.point_masses]
        assert len(got) == len(want) >= 10
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_scan_values_across_the_tau_pole(self, free):
        # tau = u / (2 - u) is the pair (u, 2 - u): (D, N) over max(u, |2 -
        # u|), continuous across the pole; a node at it reads (phi, psi)
        tau = mobius(1.0, 0.0, -1.0, 2.0)
        us = np.concatenate([np.linspace(1.0, 3.0, 9), 2.0 + np.array([-1e-9, -1e-7, 1e-7, 1e-9])])
        den, num, valid = spectral._scan_values(free, tau, us)
        assert np.all(valid)
        r, b = np.sqrt(us), 2.0 - us
        scale = np.maximum(np.abs(b), us)
        np.testing.assert_allclose(den, (us * np.cos(r) + b * r * np.sin(r)) / scale, rtol=1e-13)
        np.testing.assert_allclose(num, (us * np.sin(r) / r - b * np.cos(r)) / scale, rtol=1e-13)

    @pytest.mark.parametrize("scale", [1.0, 1e5])
    def test_pole_of_tau_at_a_dirichlet_eigenvalue(self, free, scale):
        # tau = u / (pi^2/4 - u) has its pole where phi(1) = cos(pi/2)
        # vanishes: D = phi u - phi^[1] (pi^2/4 - u) has a zero there, a
        # point mass 2/3 of m, whatever constant factor the pair carries
        lam0 = math.pi**2 / 4.0
        coefs = (scale, 0.0, -scale, scale * lam0)
        tau = mobius(*coefs)
        got = find_eigenvalues(free, tau, (-3.0, 40.0))
        want = oracles.mobius_poles_free(*coefs, -3.0, 40.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        k = int(np.argmin(np.abs(np.array(got) - lam0)))
        assert got[k] == pytest.approx(lam0, rel=1e-12)
        mass = point_mass(free, tau, got[k])
        assert abs(mass - oracles.mobius_mass_free(*coefs, got[k])) <= 1e-10
        assert mass == pytest.approx(2.0 / 3.0, rel=1e-10)


def _pole_tau(p: float, scale: float = 1.0) -> BoundaryParam:
    """tau = lambda - 1/(lambda - p): analytic, not Mobius, with a real pole
    at p, as the pair scale (lambda^2 - p lambda - 1, lambda - p)."""

    def pair(lam):
        lam = np.asarray(lam)
        return scale * np.stack([lam * lam - p * lam - 1.0, lam - p])

    return BoundaryParam(kind="analytic", fn=pair, boundary_fn=pair, name=f"pole-at-{p:g}")


class TestTauPoleScan:
    """A pole of tau is a zero of tau2, across which the scan's pair stays
    continuous: the search finds every eigenvalue beside it."""

    @pytest.mark.parametrize("interval,n", [((-3.0, 40.0), 4), ((3.0, 40.0), 2)])
    def test_free_problem(self, free, interval, n):
        # (3, 40): the scan's one-step margin reaches the pole at 2
        got = find_eigenvalues(free, _pole_tau(2.0), interval)
        want = oracles.pole_tau_poles_free(2.0, *interval)
        assert len(got) == len(want) == n
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        masses = spectral._point_masses(free, _pole_tau(2.0), got)
        np.testing.assert_allclose(masses, [oracles.pole_tau_mass_free(2.0, lam) for lam in got],
                                   rtol=1e-10)

    def test_free_values(self, free):
        tau = _pole_tau(2.0)
        got = find_eigenvalues(free, tau, (-3.0, 40.0))
        np.testing.assert_allclose(got, [-0.2322169, 2.0762812, 4.2676041, 24.1428031],
                                   atol=1e-7)
        np.testing.assert_allclose([point_mass(free, tau, lam) for lam in got],
                                   [0.387, 0.290, 1.496, 1.923], atol=1e-3)

    def test_middle_third(self, mid):
        got = find_eigenvalues(mid, _pole_tau(2.0), (0.0, 1e5))
        want = oracles.pole_tau_poles_midthird(2.0, 0.0, 1e5)
        assert len(got) == len(want) >= 60
        np.testing.assert_allclose(got, want, rtol=1e-11)

    @pytest.mark.parametrize("name,oracle,n", [
        ("free", oracles.pole_tau_poles_free, 2), ("mid", oracles.pole_tau_poles_midthird, 1)],
        ids=["free", "mid"])
    def test_far_above_the_tau_cap(self, request, name, oracle, n):
        # tau+ ~ lambda = 1e6 on the whole range, above the absolute cap
        # |tau+| <= 1e6 the scan once had; its nodes stay valid
        got = find_eigenvalues(request.getfixturevalue(name), _pole_tau(2.0), (1e6, 1.01e6))
        want = oracle(2.0, 1e6, 1.01e6)
        assert len(got) == len(want) == n
        np.testing.assert_allclose(got, want, rtol=1e-13)

    @pytest.mark.parametrize("p,interval,scale", [
        *((p, iv, 1.0) for p in (30.0, 100.0, 1e3, 1e4, 3e4)
          for iv in ((p - 5e3, p + 5e3), (1.0, p + 5e3))),
        (1e6, (1e6 - 5e3, 1e6 + 5e3), 1.0),
        # the same tau: a constant factor of the pair does not move the
        # pole test of the root near p + 1/p, where tau is steep
        *((1e4, (5e3, 1.5e4), scale) for scale in (1e-3, 1e3, 1e6))])
    def test_root_just_above_the_pole(self, free, p, interval, scale):
        # D has a zero near p + 1/p, within 1e-4 of the pole for p = 1e4,
        # in the scan cell that holds the pole
        got = find_eigenvalues(free, _pole_tau(p, scale), interval)
        want = oracles.pole_tau_poles_free(p, *interval)
        assert len(got) == len(want)
        assert any(p < lam < p + 2.0 / p for lam in want)
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_scan_node_at_the_pole(self, free):
        # tau = lambda - 1/lambda is the pair (-1, 0) at the node s = 0, a
        # node like any other
        s = np.linspace(-3.0, 3.0, 13)
        assert 0.0 in s
        roots, brackets = spectral._scan_segment(free, _pole_tau(0.0), s)
        want = oracles.pole_tau_poles_free(0.0, -9.0, 9.0)
        assert roots == [] and len(brackets) == len(want) == 3
        for (s_lo, s_hi, _, _), lam in zip(brackets, want):
            assert s_lo * abs(s_lo) < lam < s_hi * abs(s_hi)


class TestTauArrayClosures:
    """One closure call per batch: the pair contract of BoundaryParam."""

    def test_mobius_pole_mixed_batch(self):
        tau = mobius(1.0, 0.0, -1.0, 2.0)  # c u + d = 0 at u = 2
        lams = np.array([[2.0, 2.0 + 1e-3j, -40.0], [1e4j, 2.0 - 5.0j, 0.5]])
        t = spectral._tau_array(tau, lams)
        want = [_tau_pair(tau, complex(lam)) for lam in lams.ravel()]
        np.testing.assert_array_equal(t.reshape(2, -1).T, np.reshape(want, (-1, 2)))
        assert t[1, 0, 0] == 0.0 and np.count_nonzero(t[1] == 0.0) == 1

    def test_scalar_only_closure_refused(self, free):
        tau = BoundaryParam(kind="analytic", fn=lambda lam: cmath.sqrt(lam), name="scalar")
        for lams in ([1j], [1j, 2.0 + 1j]):
            with pytest.raises(ConfigError, match="elementwise"):
                spectral._tau_array(tau, np.array(lams))
        with pytest.raises(ConfigError):
            m_function(free, tau, 1j)
        constant_one = BoundaryParam(kind="analytic", fn=lambda lam: 1j, name="one")
        with pytest.raises(ConfigError, match="elementwise"):
            spectral._tau_array(constant_one, np.array([1j, 2j]))

    def test_one_value_closure_refused(self, free):
        # the one-value form of tau, which the pair replaced
        tau = BoundaryParam(kind="analytic", fn=lambda lam: np.sqrt(np.asarray(lam, complex)),
                            name="one-value")
        for lams in (np.array([1j, 2.0 + 1j]), np.array([[1j, 2j], [3j, 4j]])):
            with pytest.raises(ConfigError, match=r"pair \(tau1, tau2\)"):
                spectral._tau_array(tau, lams)
        with pytest.raises(ConfigError, match=r"pair \(tau1, tau2\)"):
            m_function(free, tau, 1j)

    def test_non_finite_pair_refused(self, free):
        # a pole hidden in tau1 instead of a zero of tau2
        def pair(lam):
            lam = np.asarray(lam)
            with np.errstate(divide="ignore"):
                return np.stack([lam - 1.0 / (lam - 2.0), np.ones_like(lam)])

        tau = BoundaryParam(kind="analytic", fn=pair, boundary_fn=pair, name="hidden-pole")
        with pytest.raises(ConfigError, match="non-finite pair"):
            spectral._tau_array(tau, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ConfigError, match="zero of tau2"):
            tau.boundary_value(2.0)


class TestPhaseGuard:
    """m is refused where the phase sqrt|lambda| ell at b has no accurate digit."""

    @pytest.mark.parametrize("lam", [1e300, -1e300, 1e300j, 3e19 + 1j])
    def test_refused(self, free, lam):
        with pytest.raises(ConfigError, match="phase at b would carry a rounding error"):
            m_function(free, SQRT, lam)

    @pytest.mark.parametrize("tau", ["constant:0", "infinity", "sqrt", "mobius:1,0,-1,2"])
    @pytest.mark.parametrize("lam", [math.inf, -math.inf, 1e300, -1e300])
    def test_point_mass_refused(self, free, tau, lam):
        # refused before the complex step: h = 1e-20 (1 + |lam|) and the pair
        # at lam + i h overflowed into a RuntimeWarning
        with pytest.raises(ConfigError, match="phase at b would carry a rounding error"):
            point_mass(free, parse_tau(tau), lam)

    @pytest.mark.parametrize("tau", ["constant:0", "infinity", "sqrt", "mobius:1,0,-1,2"])
    @pytest.mark.parametrize("lam", [math.inf, -math.inf, complex(math.inf, 1.0), complex(-math.inf, 1.0)])
    def test_infinite_lambda_refused_before_tau(self, free, tau, lam):
        # the Moebius pair at inf + i overflowed into a RuntimeWarning, and
        # sqrt's non-finite pair was blamed on the closure
        tau = parse_tau(tau)
        for call in (lambda: m_function(free, tau, lam),
                     lambda: spectral_density(free, tau, lam.real, method="extrapolation")):
            with pytest.raises(ConfigError, match="phase at b would carry a rounding error"):
                call()

    @pytest.mark.parametrize("tau", ["constant:0", "infinity", "sqrt", "mobius:1,0,-1,2"])
    @pytest.mark.parametrize("call", ["point_mass", "m_function", "spectral_density"])
    def test_nan_refused(self, free, tau, call):
        # NaN passed the cap test (NaN > cap is False): the walk overflowed
        # for constant:0 and infinity, and sqrt's and mobius's pair at NaN
        # was blamed on the closure
        tau, nan = parse_tau(tau), math.nan
        run = {"point_mass": lambda: point_mass(free, tau, nan),
               "m_function": lambda: m_function(free, tau, complex(nan, 1.0)),
               "spectral_density": lambda: spectral_density(free, tau, nan)}[call]
        with pytest.raises(ConfigError, match="not finite or too large: the phase at b"):
            run()

    def test_below_cap_allowed(self, free):
        assert np.isfinite(m_function(free, C0, 1e18 + 1j))

    def test_cli_exit_code(self, tmp_path, capsys):
        from slspectra import cli

        code = cli.main(["--out", str(tmp_path), "mfun", "--tau", "sqrt", "--lambda", "1e300"])
        assert code == 2
        assert "phase at b" in capsys.readouterr().err
