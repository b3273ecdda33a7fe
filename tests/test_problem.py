"""Coefficient rules, problem validation, config parsing, weighted inner product."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from slspectra import (
    ConfigError,
    ConstantRule,
    Piece,
    PiecewiseCoefficient,
    PolyRule,
    QuadConfig,
    SLProblem,
    TableRule,
    constant_coefficient_problem,
    delta_inner,
    delta_norm,
    loads_problem,
    weight_support_measure,
)

FREE_INI = """
[interval]
a = 0.0
b = 1.0
alpha = -pi/2

[coefficients.p]
pieces =
    0.0, 1.0, constant:1.0

[coefficients.q]
pieces =
    0.0, 1.0, constant:0.0

[coefficients.delta]
pieces =
    0.0, 1.0, constant:1.0
"""

MID_INI = """
[interval]
a = 0.0
b = 1.0
alpha = -pi/2

[coefficients.p]
pieces =
    0.0, 1.0, constant:1.0

[coefficients.q]
pieces =
    0.0, 1.0, constant:0.0

[coefficients.delta]
pieces =
    0.0, 1/3, constant:1.0
    1/3, 2/3, constant:0.0
    2/3, 1.0, constant:1.0
"""


class TestRules:
    def test_constant_rule(self):
        r = ConstantRule(2.5)
        assert np.allclose(r(np.array([0.0, 0.3])), 2.5)
        assert not r.is_zero
        assert ConstantRule(0.0).is_zero

    def test_poly_rule_ascending_powers(self):
        r = PolyRule((1.0, 0.0, 3.0))  # 1 + 3 t^2
        assert r(np.array([2.0]))[0] == pytest.approx(13.0)

    def test_table_rule_interpolates_samples(self):
        ts = (0.0, 0.25, 0.5, 0.75, 1.0)
        vs = tuple(math.sin(t) for t in ts)
        r = TableRule(ts, vs, order=3)
        assert r(np.array([0.5]))[0] == pytest.approx(math.sin(0.5))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(points_t=(0.0, 1.0), points_v=(0.0, 1.0), order=6),
            dict(points_t=(0.0, 1.0), points_v=(0.0,), order=1),
            dict(points_t=(0.0, 0.5), points_v=(0.0, 1.0), order=3),
            dict(points_t=(0.0, 0.5, 0.4), points_v=(0.0, 1.0, 2.0), order=1),
        ],
    )
    def test_table_rule_rejects_bad_input(self, kwargs):
        with pytest.raises(ConfigError):
            TableRule(**kwargs)


class TestPiecewise:
    def test_breakpoints(self):
        coef = PiecewiseCoefficient(
            (Piece(0.0, 0.5, ConstantRule(1.0)), Piece(0.5, 1.0, ConstantRule(2.0)))
        )
        assert coef.breakpoints == (0.0, 0.5, 1.0)
        assert coef(0.25) == 1.0
        assert coef(0.75) == 2.0

    def test_gap_between_pieces_rejected(self):
        with pytest.raises(ConfigError, match="contiguous"):
            PiecewiseCoefficient(
                (Piece(0.0, 0.4, ConstantRule(1.0)), Piece(0.5, 1.0, ConstantRule(1.0)))
            )

    def test_empty_piece_rejected(self):
        with pytest.raises(ConfigError):
            Piece(0.5, 0.5, ConstantRule(1.0))


class TestValidation:
    def test_zero_p_piece_rejected(self):
        p = PiecewiseCoefficient(
            (Piece(0.0, 0.5, ConstantRule(1.0)), Piece(0.5, 1.0, ConstantRule(0.0)))
        )
        ones = PiecewiseCoefficient((Piece(0.0, 1.0, ConstantRule(1.0)),))
        with pytest.raises(ConfigError, match="1/p"):
            SLProblem(a=0.0, b=1.0, alpha=0.0, p=p, q=ones, delta=ones)

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError, match="negative"):
            constant_coefficient_problem(delta=-1.0)

    def test_trivial_weight_rejected(self):
        with pytest.raises(ConfigError, match="trivial"):
            constant_coefficient_problem(delta=0.0)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ConfigError):
            constant_coefficient_problem(a=1.0, b=1.0)

    def test_quad_config_validation(self):
        with pytest.raises(ConfigError):
            QuadConfig(abs_tol=-1.0)
        with pytest.raises(ConfigError):
            QuadConfig(max_subdivisions=2)


class TestConfig:
    def test_free_config_roundtrip(self):
        prob = loads_problem(FREE_INI)
        assert prob.a == 0.0 and prob.b == 1.0
        assert prob.alpha == pytest.approx(-math.pi / 2)
        assert prob.delta(0.5) == 1.0

    def test_middle_third_config(self):
        prob = loads_problem(MID_INI)
        assert weight_support_measure(prob) == pytest.approx(2.0 / 3.0)
        assert prob.delta(0.5) == 0.0
        assert prob.delta(0.9) == 1.0

    def test_trivial_weight_config_rejected(self):
        bad = MID_INI.replace("constant:1.0\n    1/3", "constant:0.0\n    1/3").replace(
            "2/3, 1.0, constant:1.0", "2/3, 1.0, constant:0.0"
        )
        with pytest.raises(ConfigError, match="trivial"):
            loads_problem(bad)

    def test_closed_form_pieces_flag_parsed(self):
        text = FREE_INI + "\n[quadrature]\nclosed_form_pieces = false\node_tol = 1e-9\n"
        prob = loads_problem(text)
        assert prob.quad.closed_form_pieces is False
        assert prob.quad.ode_tol == 1e-9

    def test_unknown_quadrature_key_rejected(self):
        text = FREE_INI + "\n[quadrature]\nstep_size = 0.1\n"
        with pytest.raises(ConfigError):
            loads_problem(text)

    def test_syntax_error_rejected(self):
        with pytest.raises(ConfigError):
            loads_problem("[interval\na = 0")

    def test_numeric_field_arithmetic(self):
        prob = loads_problem(FREE_INI.replace("alpha = -pi/2", "alpha = -(pi - 2*e/4)/(1+1)"))
        assert prob.alpha == pytest.approx(-(math.pi - math.e / 2) / 2, rel=1e-15)

    @pytest.mark.parametrize(
        "field",
        ["9**9**9", "2**10", "__import__('os')", "(1).real", "1j", "True", "abs(-1)", "1 if 1 else 0"],
    )
    def test_numeric_field_rejects_non_arithmetic(self, field):
        # power, names, calls and attribute access are refused before any
        # evaluation, so 9**9**9 fails at once instead of computing
        with pytest.raises(ConfigError, match="cannot parse"):
            loads_problem(FREE_INI.replace("a = 0.0", f"a = {field}"))

    def test_numeric_field_division_by_zero(self):
        with pytest.raises(ConfigError):
            loads_problem(FREE_INI.replace("a = 0.0", "a = 1/0"))


class TestDeltaInner:
    def test_cos_squared_value(self, free):
        # int_0^1 cos^2(3 pi t / 4) dt = 1/2 - 1/(3 pi)
        f = lambda t: np.cos(0.75 * math.pi * np.asarray(t, dtype=float))
        val = delta_inner(free, f, f)
        assert val.real == pytest.approx(oracles.INNER_COS_3PI4, rel=1e-10)
        assert abs(val.imag) < 1e-14

    def test_unit_functions(self, free):
        one = lambda t: np.ones_like(np.asarray(t, dtype=float))
        assert delta_inner(free, one, one).real == pytest.approx(1.0, rel=1e-12)

    def test_dead_zone_support_gives_zero(self, mid):
        # supported where the weight vanishes: the integral is exactly zero
        def f(t):
            t = np.asarray(t, dtype=float)
            return np.where((t > 1 / 3) & (t < 2 / 3), 1.0, 0.0)

        g = lambda t: np.ones_like(np.asarray(t, dtype=float))
        assert delta_inner(mid, f, g) == 0.0

    def test_conjugate_symmetry(self, free):
        f = lambda t: np.asarray(t, dtype=float) + 1j * np.asarray(t, dtype=float) ** 2
        g = lambda t: np.exp(1j * np.asarray(t, dtype=float))
        assert delta_inner(free, f, g) == pytest.approx(
            np.conjugate(delta_inner(free, g, f)), abs=1e-12
        )

    @settings(max_examples=25, deadline=None)
    @given(
        c=st.lists(st.floats(-2, 2), min_size=2, max_size=4),
        d=st.lists(st.floats(-2, 2), min_size=2, max_size=4),
        a=st.floats(-3, 3),
    )
    def test_linearity_in_first_argument(self, free, c, d, a):
        f = lambda t: np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), c)
        g = lambda t: np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), d)
        h = lambda t: np.cos(np.asarray(t, dtype=float))
        combo = lambda t: a * f(t) + g(t)
        lhs = delta_inner(free, combo, h)
        rhs = a * delta_inner(free, f, h) + delta_inner(free, g, h)
        scale = 1.0 + abs(lhs) + abs(rhs)
        assert abs(lhs - rhs) <= 10 * free.quad.rel_tol * scale

    @settings(max_examples=25, deadline=None)
    @given(c=st.lists(st.floats(-2, 2), min_size=1, max_size=4))
    def test_positive_semidefinite(self, mid, c):
        f = lambda t: np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), c)
        assert delta_inner(mid, f, f).real >= -1e-12


class TestSupportMeasure:
    def test_full_support(self, free):
        assert weight_support_measure(free) == 1.0

    def test_middle_third(self, mid):
        # structural sum of live piece lengths, not a quadrature result
        assert weight_support_measure(mid) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_norm_clamps_roundoff(self, mid):
        def f(t):
            t = np.asarray(t, dtype=float)
            return np.where((t > 1 / 3) & (t < 2 / 3), 1.0, 0.0)

        assert delta_norm(mid, f) == 0.0
