"""Generalized Fourier transform, truncated inverse, Parseval, class F."""

import math
import warnings

import numpy as np
import pytest

import oracles
from slspectra import (
    ConfigError,
    CrossCheckError,
    GridMismatchError,
    PropagationError,
    WindowError,
    Truncation,
    TransformedFn,
    build_spectral_function,
    constant,
    constant_coefficient_problem,
    delta_inner,
    delta_norm,
    eigen_expansion,
    fourier_transform,
    infinity,
    inverse_transform,
    loads_problem,
    membership_in_F,
    parseval_defect,
    pure_point_spectral,
    sqrt_param,
    uniform_convergence_profile,
)
from slspectra import propagator, transform
from slspectra.propagator import fundamental_trajectory, phi_rows
from slspectra.transform import EigenMode, _hat_at, _inverse_on_grid

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


POLY_P_INI = """
[interval]
a = 0.0
b = 1.0
alpha = -pi/2

[coefficients.p]
pieces =
    0.0, 0.37, poly:1.0,0.5
    0.37, 1.0, poly:2.0,0.5

[coefficients.q]
pieces =
    0.0, 1.0, constant:0.0

[coefficients.delta]
pieces =
    0.0, 1.0, constant:1.0
"""


@pytest.fixture
def hat_calls(monkeypatch):
    """Counts the adaptive fallbacks of fourier_transform."""
    calls = []

    def counting(problem, y, s):
        calls.append(s)
        return _hat_at(problem, y, s)

    monkeypatch.setattr(transform, "_hat_at", counting)
    return calls


def assert_matches_adaptive(problem, y, sigma, yhat):
    """Oracle: every node against the adaptive rule, the source norm
    against delta_inner, within abs_tol + rel_tol |yhat|."""
    quad = problem.quad
    nodes = list(sigma.ac_grid) + [s for s, _ in sigma.point_masses]
    got = list(yhat.ac_values) + [v for _, v in yhat.mass_values]
    assert len(nodes) == len(got) > 0
    for s, v in zip(nodes, got):
        want = _hat_at(problem, y, s)
        assert abs(v - want) <= quad.abs_tol + quad.rel_tol * abs(want), s
    want = delta_inner(problem, y, y).real
    assert abs(yhat.source_norm_sq - want) <= quad.abs_tol + quad.rel_tol * want


class TestSharedGrid:
    def test_criterion_5_sources(self, free, sigma_wide, hat_calls):
        r2 = math.sqrt(oracles.sqrt_poles_free(2)[1])
        for y in (quartic, lambda t: np.cos(r2 * t)):
            yhat = fourier_transform(free, y, sigma_wide)
            assert hat_calls == []  # smooth y: no adaptive fallback
            assert_matches_adaptive(free, y, sigma_wide, yhat)

    def test_degenerate_weight(self, mid, hat_calls):
        sig = build_spectral_function(mid, C0, (-5.0, 130.0), ac_nodes=32)
        yhat = fourier_transform(mid, lambda t: t, sig)
        assert hat_calls == []
        assert_matches_adaptive(mid, lambda t: t, sig, yhat)

    def test_variable_p_with_jump(self, hat_calls):
        # CPM segments, and a kink of phi inside the single Delta piece
        problem = loads_problem(POLY_P_INI)
        sig = build_spectral_function(problem, SQRT, (-200.0, 2000.0), ac_nodes=24)
        yhat = fourier_transform(problem, quartic, sig)
        assert hat_calls == []
        assert_matches_adaptive(problem, quartic, sig, yhat)

    def test_grid_covers_support_only_and_is_capped(self, mid):
        # panel counts: ceil(1 + 10 (1/3) / pi) = 3 and ceil(4.5) = 5 per live third
        (t1, w1, _), (t2, w2, _) = transform._shared_grids(mid, np.array([-1.0, 100.0]))
        assert (t1.size, t2.size) == (2 * 21 * 3, 2 * 21 * 5)
        for t, w in ((t1, w1), (t2, w2)):
            assert not np.any((t > 1.0 / 3.0) & (t < 2.0 / 3.0))
            assert w.sum() == pytest.approx(2.0 / 3.0, rel=1e-14)
        (t1, _, _), (t2, _, _) = transform._shared_grids(mid, np.array([0.0, 1e300]))
        cap = transform._MAX_PANELS
        assert (t1.size, t2.size) == (2 * 21 * cap, 2 * 21 * math.ceil(1.5 * cap))

    def test_kink_falls_back_to_adaptive(self, free, sigma_pp, hat_calls):
        y = lambda t: np.abs(t - 0.3)
        yhat = fourier_transform(free, y, sigma_pp)
        assert len(hat_calls) > 0
        assert_matches_adaptive(free, y, sigma_pp, yhat)

    @pytest.mark.parametrize("name", ["free", "mid"])
    def test_constant_pieces_form_no_phi_rows(self, request, name, monkeypatch):
        problem = request.getfixturevalue(name)
        sig = build_spectral_function(problem, SQRT, (-50.0, 900.0), ac_nodes=24)
        want = fourier_transform(problem, quartic, sig)
        lams = np.array([s for s, _ in sig.point_masses])
        norms = transform._phi_norms_sq(problem, lams)
        calls = []
        monkeypatch.setattr(transform, "phi_rows", lambda *a: calls.append(a))
        monkeypatch.setattr(propagator, "phi_rows", lambda *a: calls.append(a))
        monkeypatch.setattr(propagator.Trajectory, "eval", lambda *a: calls.append(a))
        got = fourier_transform(problem, quartic, sig)
        np.testing.assert_array_equal(got.ac_values, want.ac_values)
        assert got.mass_values == want.mass_values
        np.testing.assert_array_equal(transform._phi_norms_sq(problem, lams), norms)
        assert calls == []

    @pytest.mark.parametrize("name", ["free", "mid", "linear_p"])
    def test_small_row_batch_changes_only_rounding(self, request, name, monkeypatch):
        problem = request.getfixturevalue(name)
        sig = build_spectral_function(problem, SQRT, (-50.0, 900.0), ac_nodes=24)
        lams = np.array([s for s, _ in sig.point_masses])
        want = fourier_transform(problem, quartic, sig), transform._phi_norms_sq(problem, lams)
        monkeypatch.setattr(propagator, "_ROW_BATCH", 50)
        got = fourier_transform(problem, quartic, sig), transform._phi_norms_sq(problem, lams)
        for g, w in ((got[0].ac_values, want[0].ac_values), (got[1], want[1]),
                     ([v for _, v in got[0].mass_values], [v for _, v in want[0].mass_values])):
            np.testing.assert_allclose(g, w, rtol=1e-13, atol=1e-15)
        assert got[0].source_norm_sq == want[0].source_norm_sq

    @pytest.mark.parametrize("lam", [-1e6, -5e5, -3e5])
    def test_overflow_refused_as_on_the_per_lambda_path(self, free, lam):
        # at -5e5 phi(b) is still finite, but phi^[1](b) overflows
        sig = pure_point_spectral([(lam, 1.0)], (lam - 1.0, 1.0))
        yhat = TransformedFn(np.array([]), np.array([], complex), ((lam, 1.0),), 1.0)
        t = np.linspace(0.0, 1.0, 5)
        inverse = lambda: _inverse_on_grid(free, sig, yhat, t, [Truncation(1, (0.0, 0.0))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if lam <= -5e5:
                for call in (lambda: fundamental_trajectory(free, lam, "phi"),
                             lambda: fourier_transform(free, quartic, sig), inverse):
                    with pytest.raises(PropagationError):
                        call()
                return
            hat = fourier_transform(free, quartic, sig).mass_values[0][1]
            assert hat == pytest.approx(_hat_at(free, quartic, lam), rel=1e-10)
            (values,), (bound,) = inverse()
            phi = fundamental_trajectory(free, lam, "phi").eval(t)[0]
        assert np.all(np.isfinite(values)) and np.max(np.abs(values)) > 1e200
        np.testing.assert_allclose(values, phi, rtol=1e-13)
        np.testing.assert_allclose(bound, np.abs(phi), rtol=1e-13)


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
            (grid_vals,), (grid_bound,) = _inverse_on_grid(free, sigma_wide, yhat, t_grid, [tr])
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
                assert abs(profile_vals[j] - want) <= 1e-12
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

    @pytest.mark.parametrize("batch", [None, 7 * 41])
    def test_rows_walked_once(self, free, sigma_wide, monkeypatch, batch):
        # nested truncations share their nodes: the profile walks the phi rows
        # of the widest truncation once, not those of every truncation, and
        # each truncation's values stay bit for bit those of a call with it
        # alone, also when its nodes fall in several blocks of 7
        if batch is not None:
            monkeypatch.setattr(transform, "_ROW_BATCH", batch)
        yhat = fourier_transform(free, quartic, sigma_wide)
        schedule = [Truncation(k, (-250.0 * k, 0.0)) for k in (2, 5, 10)]
        rows = []
        monkeypatch.setattr(
            transform, "phi_rows", lambda p, lams, t: rows.append(len(lams)) or phi_rows(p, lams, t)
        )
        rep = uniform_convergence_profile(
            free, sigma_wide, yhat, quartic, schedule, np.linspace(0, 1, 41)
        )
        widest = transform._terms(sigma_wide, yhat, schedule[-1])[0]
        assert sum(rows) == widest.size
        terms = [transform._terms(sigma_wide, yhat, tr)[0].size for tr in schedule]
        assert terms[0] < terms[1] < terms[2] == widest.size
        for tr, vals in zip(schedule, rep.values):
            (want,), _ = _inverse_on_grid(free, sigma_wide, yhat, np.linspace(0, 1, 41), [tr])
            assert np.array_equal(vals, want)

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


@pytest.fixture(scope="module")
def linear_p():
    """p = 1 + t/2, so phi_rows takes per-lambda rows."""
    return loads_problem(LINEAR_P_INI)


def ones(t):
    return np.ones_like(np.asarray(t, dtype=float))


def modes_by_quadrature(problem, eigs, y, t_arr):
    """Oracle: the per-mode route, a dense trajectory and two adaptive
    quadratures per eigenvalue."""
    out = []
    for lam in eigs:
        traj = fundamental_trajectory(problem, lam, "phi")
        phi = lambda t, tr=traj: tr.eval(t)[0].real
        nrm = delta_norm(problem, phi)
        out.append(EigenMode(lam, delta_inner(problem, y, phi).real / nrm, phi(t_arr) / nrm))
    return out


def assert_same_modes(got, want):
    """Coefficients and values within 1e-12 relative to 1 + |value|."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.lam == w.lam
        assert abs(g.coefficient - w.coefficient) <= 1e-12 * (1.0 + abs(w.coefficient))
        assert np.all(np.abs(g.values - w.values) <= 1e-12 * (1.0 + np.abs(w.values)))


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

    def test_empty_t_grid_rejected(self, free):
        with pytest.raises(ConfigError, match="empty t grid"):
            eigen_expansion(free, C0, lambda t: np.ones_like(t), 2, t_grid=[])

    def test_too_few_eigenvalues_is_config_error(self):
        # Delta = 1e-6 puts lambda_1 = (pi/1e-3)^2 beyond the widest search
        tiny = constant_coefficient_problem(delta=1e-6)
        with pytest.raises(ConfigError, match="found only 1 eigenvalues"):
            eigen_expansion(tiny, C0, lambda t: np.ones_like(t), 2)

    def test_too_few_eigenvalues_names_the_searched_bound(self, monkeypatch):
        searched = []
        find = transform.find_eigenvalues

        def spy(problem, tau, interval, max_count=10000):
            searched.append(interval[1])
            return find(problem, tau, interval, max_count)

        monkeypatch.setattr(transform, "find_eigenvalues", spy)
        tiny = constant_coefficient_problem(delta=1e-6)
        with pytest.raises(ConfigError) as exc:
            eigen_expansion(tiny, C0, lambda t: np.ones_like(t), 2)
        assert len(searched) == 4
        assert f"below {searched[-1]:g}," in str(exc.value)

    def test_mode_values_normalized(self, mid):
        # squared Delta-norm of each mode's sample vector is 1 by Simpson
        modes = eigen_expansion(mid, C0, lambda t: np.ones_like(t), 2,
                                t_grid=np.linspace(0.0, 1.0, 301))
        ts = np.linspace(0.0, 1.0, 301)
        live = (ts <= 1.0 / 3.0) | (ts >= 2.0 / 3.0)
        for mode in modes:
            nrm = np.trapezoid(np.where(live, mode.values**2, 0.0), ts)
            assert nrm == pytest.approx(1.0, abs=5e-3)

    @pytest.mark.parametrize("name, tau, K", [
        ("free", C0, 20), ("free", infinity(), 10), ("mid", C0, 50), ("linear_p", C0, 8),
    ], ids=["free-0", "free-inf", "mid-0", "linear_p-0"])
    def test_matches_per_mode_quadrature(self, request, name, tau, K):
        problem = request.getfixturevalue(name)
        y = lambda t: np.exp(-t) + t**2
        t_arr = np.linspace(problem.a, problem.b, 33)
        modes = eigen_expansion(problem, tau, y, K)
        assert_same_modes(modes, modes_by_quadrature(problem, [m.lam for m in modes], y, t_arr))

    def test_one_transform_and_one_row_call(self, mid, monkeypatch):
        calls = []

        def spy(name):
            fn = getattr(transform, name)

            def wrapped(*args, **kwargs):
                calls.append((name, args))
                return fn(*args, **kwargs)

            monkeypatch.setattr(transform, name, wrapped)

        for name in ("delta_inner", "delta_norm", "fundamental_trajectory",
                     "fourier_transform", "phi_rows"):
            spy(name)
        eigen_expansion(mid, C0, ones, 50)
        t_grid = np.linspace(0.0, 1.0, 33)
        on_grid = [a for n, a in calls if n == "phi_rows" and np.array_equal(a[2], t_grid)]
        assert len(on_grid) == 1
        assert [n for n, _ in calls if n != "phi_rows"] == ["fourier_transform"]

    def test_failed_grid_check_falls_back_to_adaptive(self, mid, monkeypatch, hat_calls):
        want = eigen_expansion(mid, C0, ones, 50)
        assert hat_calls == []
        norm_calls = []
        norm = transform.delta_norm
        monkeypatch.setattr(
            transform, "delta_norm", lambda *a: norm_calls.append(a) or norm(*a)
        )
        monkeypatch.setattr(transform, "_MAX_PANELS", 1)
        got = eigen_expansion(mid, C0, ones, 50)
        assert len(norm_calls) > 0 and len(hat_calls) > 0
        assert_same_modes(got, want)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "route", ["Trajectory.eval", "phi_rows", "eigen_expansion", "uniform_convergence_profile"]
)
def test_non_finite_evaluation_point_refused(free, sigma_pp, route, bad):
    t = [0.5, bad]
    call = {
        "Trajectory.eval": lambda: fundamental_trajectory(free, 4.0, "phi").eval(t),
        "phi_rows": lambda: phi_rows(free, [4.0], t),
        "eigen_expansion": lambda: eigen_expansion(free, C0, ones, 2, t_grid=t),
        "uniform_convergence_profile": lambda: uniform_convergence_profile(
            free, sigma_pp, fourier_transform(free, ones, sigma_pp), ones,
            [Truncation(3, (-10.0, 50.0))], t,
        ),
    }[route]
    with pytest.raises(PropagationError, match=r"outside \[a, b\]"):
        call()
