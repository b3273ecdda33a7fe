"""Generalized Fourier transform, truncated inverse, Parseval, class F."""

import math

import numpy as np
import pytest

import oracles
from slspectra import (
    ConfigError,
    CrossCheckError,
    GridMismatchError,
    WindowError,
    Truncation,
    TransformedFn,
    build_spectral_function,
    constant,
    eigen_expansion,
    fourier_transform,
    inverse_transform,
    membership_in_F,
    parseval_defect,
    pure_point_spectral,
    sqrt_param,
    uniform_convergence_profile,
)
from slspectra.propagator import fundamental_trajectory
from slspectra.transform import _inverse_on_grid

C0 = constant(0.0)
SQRT = sqrt_param()


def quartic(t):
    return (1.0 - t**2) ** 2


def quartic_y1(t):
    return -4.0 * t * (1.0 - t**2)


def quartic_f(t):
    return 4.0 - 12.0 * t**2


@pytest.fixture(scope="module")
def sigma_wide(free):
    # 40 point masses plus the full decaying ac tail
    return build_spectral_function(free, SQRT, (-2500.0, 1.6e4), ac_nodes=800)


@pytest.fixture(scope="module")
def sigma_pp(free):
    return build_spectral_function(free, C0, (-10.0, 50.0), ac_nodes=32)


def term_by_term(problem, sigma, yhat, tr):
    """Oracle: the terms (phi(., s_k), w_k, yhat(s_k)) of the truncated sum,
    listed one by one from the fundamental solutions."""
    lo, hi = tr.ac_window
    terms = [
        (s, jump, hv)
        for (s, jump), (_, hv) in zip(sigma.point_masses[: tr.k_max], yhat.mass_values)
    ]
    for j, u in enumerate(sigma.ac_grid):
        if lo <= u <= hi:
            w = sigma.ac_density[j] * (sigma.cell_hi[j] - sigma.cell_lo[j])
            terms.append((float(u), w, yhat.ac_values[j]))
    return [(fundamental_trajectory(problem, s, "phi"), w, hv) for s, w, hv in terms]


class TestFourierTransform:
    def test_constant_source_at_first_mass(self, free, sigma_wide):
        yhat = fourier_transform(free, lambda t: np.ones_like(t), sigma_wide)
        assert yhat.mass_values[0][1] == pytest.approx(
            oracles.YHAT_ONE_A1, rel=1e-12
        )
        assert yhat.source_norm_sq == pytest.approx(1.0, rel=1e-12)

    def test_cross_term_not_orthogonal(self, free, sigma_wide):
        # phi(., a_1) and phi(., a_2) are not Delta-orthogonal: the overlap
        # integral is 1/(5 pi), and the transform of one sees the other
        r2 = math.sqrt(oracles.sqrt_poles_free(2)[1])
        yhat = fourier_transform(free, lambda t: np.cos(r2 * t), sigma_wide)
        assert yhat.mass_values[0][1] == pytest.approx(
            oracles.CROSS_A1_A2, rel=1e-10
        )

    def test_dead_zone_source_transforms_to_zero(self, mid):
        sig = build_spectral_function(mid, C0, (-5.0, 130.0), ac_nodes=32)

        def bump(t):
            t = np.asarray(t)
            inside = (t > 1.0 / 3.0) & (t < 2.0 / 3.0)
            return np.where(inside, np.sin(3.0 * math.pi * (t - 1.0 / 3.0)) ** 2, 0.0)

        yhat = fourier_transform(mid, bump, sig)
        assert yhat.source_norm_sq == 0.0
        assert all(abs(v) < 1e-12 for _, v in yhat.mass_values)
        assert parseval_defect(mid, sig, bump, Truncation(10, (-5.0, 130.0))) < 1e-20

    def test_misaligned_grid_rejected(self, free, sigma_wide, sigma_pp):
        yhat = fourier_transform(free, quartic, sigma_wide)
        with pytest.raises(GridMismatchError):
            inverse_transform(free, sigma_pp, yhat, 0.5, Truncation(3, (-5.0, 5.0)))

    def test_transform_shape_validation(self):
        with pytest.raises(ConfigError):
            TransformedFn(
                ac_u=np.zeros(3),
                ac_values=np.zeros(4, dtype=complex),
                mass_values=(),
                source_norm_sq=0.0,
            )
        with pytest.raises(ConfigError):
            TransformedFn(
                ac_u=np.zeros(3),
                ac_values=np.zeros(3, dtype=complex),
                mass_values=(),
                source_norm_sq=-1.0,
            )


class TestInverseTransform:
    def test_quartic_reproduced(self, free, sigma_wide):
        yhat = fourier_transform(free, quartic, sigma_wide)
        tr = Truncation(40, (-2500.0, 0.0))
        for t in (0.0, 0.5, 0.9):
            got = inverse_transform(free, sigma_wide, yhat, t, tr)
            assert got.value.real == pytest.approx(quartic(t), abs=2e-5)
            assert abs(got.value.imag) < 1e-12
            assert got.abs_bound >= abs(got.value) - 1e-12

    def test_single_mode_reproduced_exactly(self, free, sigma_pp):
        y = lambda t: np.cos(2.0 * math.pi * t)
        yhat = fourier_transform(free, y, sigma_pp)
        tr = Truncation(3, (-10.0, 50.0))
        for t in (0.0, 0.3, 0.8):
            got = inverse_transform(free, sigma_pp, yhat, t, tr)
            assert got.value.real == pytest.approx(float(y(t)), abs=1e-9)

    def test_zero_data_inverts_to_zero(self, free, sigma_pp):
        yhat = fourier_transform(free, lambda t: np.zeros_like(t), sigma_pp)
        got = inverse_transform(free, sigma_pp, yhat, 0.4, Truncation(3, (-10.0, 50.0)))
        assert got.value == 0.0
        assert got.abs_bound == 0.0

    def test_empty_truncation_is_zero(self, free, sigma_pp):
        yhat = fourier_transform(free, quartic, sigma_pp)
        got = inverse_transform(free, sigma_pp, yhat, 0.4, Truncation(0, (0.0, 0.0)))
        assert got == (0.0, 0.0)
        assert parseval_defect(free, sigma_pp, quartic, Truncation(0, (0.0, 0.0))) == 1.0

    def test_window_outside_sigma_rejected(self, free, sigma_pp):
        yhat = fourier_transform(free, quartic, sigma_pp)
        with pytest.raises(WindowError):
            inverse_transform(free, sigma_pp, yhat, 0.5, Truncation(3, (-100.0, 50.0)))

    def test_single_sum_matches_term_by_term_oracle(self, free, sigma_wide):
        yhat = fourier_transform(free, quartic, sigma_wide)
        t_grid = np.linspace(0.0, 1.0, 11)
        schedule = [Truncation(k, (-250.0 * k, 0.0)) for k in (2, 5, 10)]
        profile = uniform_convergence_profile(
            free, sigma_wide, yhat, quartic, schedule, t_grid
        )
        for tr, profile_vals in zip(schedule, profile.values):
            terms = term_by_term(free, sigma_wide, yhat, tr)
            grid_vals, grid_bound = _inverse_on_grid(free, sigma_wide, yhat, t_grid, tr)
            assert np.array_equal(profile_vals, grid_vals)
            for j, t in enumerate(t_grid):
                parts = [
                    complex(traj.eval(np.array([t]))[0][0]) * w * hv
                    for traj, w, hv in terms
                ]
                want, want_bound = sum(parts), sum(abs(p) for p in parts)
                got = inverse_transform(free, sigma_wide, yhat, float(t), tr)
                assert abs(got.value - want) <= 1e-12
                assert abs(grid_vals[j] - want) <= 1e-12
                assert got.abs_bound == pytest.approx(want_bound, rel=1e-12)
                assert grid_bound[j] == pytest.approx(want_bound, rel=1e-12)
                assert got.abs_bound >= abs(got.value) - 1e-12
            t_norm = sum(w * abs(hv) ** 2 for _, w, hv in terms)
            want_defect = abs(t_norm - yhat.source_norm_sq) / yhat.source_norm_sq
            assert parseval_defect(free, sigma_wide, quartic, tr) == pytest.approx(
                want_defect, abs=1e-13
            )

    def test_bad_truncation_rejected(self):
        with pytest.raises(ConfigError):
            Truncation(-1, (0.0, 1.0))
        with pytest.raises(ConfigError):
            Truncation(3, (1.0, 0.0))


class TestParseval:
    def test_defect_shrinks_with_truncation(self, free, sigma_wide):
        defects = [
            parseval_defect(free, sigma_wide, quartic, tr)
            for tr in (
                Truncation(5, (-100.0, 0.0)),
                Truncation(10, (-500.0, 0.0)),
                Truncation(40, (-2500.0, 0.0)),
            )
        ]
        assert defects[0] > defects[1] > defects[2]
        assert defects[2] < 1e-6

    def test_pure_point_parseval(self, free, sigma_pp):
        # cos(2 pi t): norm 1/2, single jump contribution 2 * (1/2)^2
        y = lambda t: np.cos(2.0 * math.pi * t)
        assert parseval_defect(free, sigma_pp, y, Truncation(3, (-10.0, 50.0))) < 1e-8


class TestMembership:
    def test_quartic_in_class(self, free):
        rep = membership_in_F(free, SQRT, quartic, quartic_y1, quartic_f)
        assert rep.in_F
        assert all(ok for _, ok, _ in rep.checks)

    def test_left_bc_violation_detected(self, free):
        y = lambda t: (1.0 - t) ** 2
        y1 = lambda t: -2.0 * (1.0 - t)
        f = lambda t: -2.0 * np.ones_like(np.asarray(t))
        rep = membership_in_F(free, SQRT, y, y1, f)
        assert not rep.in_F
        failed = [name for name, ok, _ in rep.checks if not ok]
        assert failed == ["left_bc"]

    def test_robin_case(self, free):
        y = lambda t: np.cos(math.pi * np.asarray(t))
        y1 = lambda t: -math.pi * np.sin(math.pi * np.asarray(t))
        f = lambda t: math.pi**2 * np.cos(math.pi * np.asarray(t))
        rep = membership_in_F(free, C0, y, y1, f)
        assert rep.in_F

    def test_wrong_source_term_detected(self, free):
        rep = membership_in_F(
            free, SQRT, quartic, quartic_y1, lambda t: -quartic_f(t)
        )
        assert not rep.in_F
        assert [n for n, ok, _ in rep.checks if not ok] == ["equation_residual"]


class TestConvergenceProfile:
    def test_nested_schedule_required(self, free, sigma_pp):
        yhat = fourier_transform(free, quartic, sigma_pp)
        bad = [Truncation(3, (-10.0, 50.0)), Truncation(2, (-10.0, 50.0))]
        with pytest.raises(ConfigError):
            uniform_convergence_profile(
                free, sigma_pp, yhat, quartic, bad, np.linspace(0, 1, 11)
            )
        with pytest.raises(ConfigError):
            uniform_convergence_profile(
                free, sigma_pp, yhat, quartic, [], np.linspace(0, 1, 11)
            )
        with pytest.raises(ConfigError):
            uniform_convergence_profile(
                free, sigma_pp, yhat, quartic, bad[:1], np.linspace(0, 1, 0)
            )

    def test_quartic_profile_monotone(self, free, sigma_wide):
        yhat = fourier_transform(free, quartic, sigma_wide)
        schedule = [
            Truncation(k, (-50.0 * k, 0.0)) for k in (2, 5, 10, 20, 40)
        ]
        rep = uniform_convergence_profile(
            free, sigma_wide, yhat, quartic, schedule, np.linspace(0, 1, 41)
        )
        sups = [s for _, s in rep.truncations]
        assert rep.monotone_tail
        assert sups[-1] < 1e-3 < sups[0]

    def test_zero_function_profile(self, free, sigma_pp):
        zero = lambda t: np.zeros_like(np.asarray(t))
        yhat = fourier_transform(free, zero, sigma_pp)
        rep = uniform_convergence_profile(
            free,
            sigma_pp,
            yhat,
            zero,
            [Truncation(1, (-1.0, 1.0)), Truncation(3, (-10.0, 50.0))],
            np.linspace(0, 1, 11),
        )
        assert all(s == 0.0 for _, s in rep.truncations)
        assert rep.monotone_tail


class TestEigenExpansion:
    def test_single_mode_coefficients(self, free):
        modes = eigen_expansion(free, C0, lambda t: np.cos(2.0 * math.pi * t), 3)
        assert [m.lam for m in modes] == pytest.approx(
            [0.0, math.pi**2, 4.0 * math.pi**2], abs=1e-8
        )
        assert [m.coefficient for m in modes] == pytest.approx(
            [0.0, 0.0, 1.0 / math.sqrt(2.0)], abs=1e-9
        )

    def test_zero_source(self, free):
        modes = eigen_expansion(free, C0, lambda t: np.zeros_like(t), 2)
        assert all(abs(m.coefficient) < 1e-12 for m in modes)

    def test_degenerate_weight_coefficients(self, mid):
        modes = eigen_expansion(mid, C0, lambda t: np.ones_like(t), 4)
        got = [m.coefficient for m in modes]
        want = oracles.midthird_coefficients_shooting([m.lam for m in modes])
        assert got == pytest.approx(want, abs=1e-4)
        assert got[0] == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-9)

    def test_needs_orthogonal_parameter(self, free):
        with pytest.raises(ConfigError):
            eigen_expansion(free, SQRT, lambda t: np.ones_like(t), 2)
        with pytest.raises(ConfigError):
            eigen_expansion(free, C0, lambda t: np.ones_like(t), 0)

    def test_mode_values_normalized(self, mid):
        # squared Delta-norm of each mode's sample vector is 1 by Simpson
        modes = eigen_expansion(mid, C0, lambda t: np.ones_like(t), 2,
                                t_grid=np.linspace(0.0, 1.0, 301))
        ts = np.linspace(0.0, 1.0, 301)
        live = (ts <= 1.0 / 3.0) | (ts >= 2.0 / 3.0)
        for mode in modes:
            nrm = np.trapezoid(np.where(live, mode.values**2, 0.0), ts)
            assert nrm == pytest.approx(1.0, abs=5e-3)
