"""Boundary parameters: evaluation, asymptotics, eta relation, classification."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slspectra import (
    BCClass,
    BoundaryParam,
    ConfigError,
    EtaRelation,
    asymptotics,
    check_nevanlinna,
    classify_bc,
    constant,
    eta_relation,
    eval_param,
    infinity,
    mobius,
    parse_tau,
    sqrt_param,
)


def _pair_of(f):
    """The closure returning the pair (f(lambda), 1)."""

    def pair(lam):
        lam = np.asarray(lam)
        return np.stack([f(lam), np.ones_like(lam)])

    return pair


class TestEvalParam:
    def test_constant(self):
        assert eval_param(constant(3.0), 1j) == 3.0

    def test_sqrt_principal_branch(self):
        val = eval_param(sqrt_param(), 1j)
        assert val == pytest.approx(cmath.exp(1j * math.pi / 4))

    def test_infinity_flag(self):
        val = eval_param(infinity(), 2 + 1j)
        assert math.isinf(abs(val))

    def test_analytic_on_real_axis_rejected(self):
        with pytest.raises(ValueError):
            eval_param(mobius(1.0, 0.0, 0.0, 1.0), 2.0)


class TestAsymptotics:
    def test_constant_is_exact(self):
        asym = asymptotics(constant(0.3))
        assert asym.B == 0.0
        assert asym.moment_finite is True
        assert asym.D == 0.3

    def test_sqrt_has_infinite_moment(self):
        asym = asymptotics(sqrt_param())
        assert asym.B == 0.0
        assert asym.moment_finite is False

    def test_identity_has_unit_slope(self):
        asym = asymptotics(mobius(1.0, 0.0, 0.0, 1.0))
        assert asym.B == pytest.approx(1.0, rel=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(c=st.floats(0.1, 50), theta=st.floats(-10, 10))
    def test_linear_slope_detected(self, c, theta):
        tau = BoundaryParam(kind="analytic", fn=_pair_of(lambda lam: c * lam + theta))
        asym = asymptotics(tau)
        assert asym.B == pytest.approx(c, rel=1e-6)

    def test_infinity_has_no_asymptotics(self):
        with pytest.raises(ValueError):
            asymptotics(infinity())


class TestEtaRelation:
    def test_constant_graph(self):
        eta = eta_relation(constant(2.5))
        assert eta.case == "graph" and eta.d == 2.5

    def test_sqrt_zero(self):
        assert eta_relation(sqrt_param()).case == "zero"

    def test_identity_full(self):
        assert eta_relation(mobius(1.0, 0.0, 0.0, 1.0)).case == "full"

    def test_infinity_full(self):
        assert eta_relation(infinity()).case == "full"


class TestClassifier:
    @pytest.mark.parametrize(
        "tau,label",
        [
            (mobius(1.0, 0.0, 0.0, 1.0), "bc1"),
            (sqrt_param(), "bc3"),
            (infinity(), "bc1"),
        ],
    )
    def test_truth_table(self, tau, label):
        assert classify_bc(tau).label == label

    def test_constant_maps_to_robin(self):
        beta = 1.1
        bc = classify_bc(constant(-1.0 / math.tan(beta)))
        assert bc.label == "bc2"
        assert bc.d_tau == pytest.approx(-1.0 / math.tan(beta))

    def test_eta_and_class_stay_consistent(self):
        pairs = {"full": "bc1", "graph": "bc2", "zero": "bc3"}
        for tau in (constant(0.0), infinity(), sqrt_param(), mobius(2.0, 1.0, 0.0, 1.0)):
            assert classify_bc(tau).label == pairs[eta_relation(tau).case]


class TestNevanlinnaCheck:
    def test_constant_accepted(self):
        assert check_nevanlinna(constant(5.0), 50, 1e-9).ok

    def test_sqrt_accepted(self):
        assert check_nevanlinna(sqrt_param(), 50, 1e-9).ok

    def test_conjugate_rejected(self):
        bad = BoundaryParam(kind="analytic", fn=_pair_of(np.conj))
        report = check_nevanlinna(bad, 50, 1e-9)
        assert not report.ok
        assert report.worst_im > 1e-9
        assert report.worst_at.imag > 0


class TestParseTau:
    @pytest.mark.parametrize(
        "spec,kind",
        [
            ("constant:3.0", "constant"),
            ("infinity", "infinity"),
            ("sqrt", "analytic"),
            ("mobius:1,0,0,1", "analytic"),
        ],
    )
    def test_valid_specs(self, spec, kind):
        assert parse_tau(spec).kind == kind

    @pytest.mark.parametrize(
        "spec",
        ["", "constant:x", "mobius:1,2", "cot", "sqrt:2",
         "constant:nan", "constant:inf", "mobius:nan,0,0,1", "mobius:1,0,0,inf"],
    )
    def test_invalid_specs(self, spec):
        with pytest.raises(ConfigError):
            parse_tau(spec)

    def test_non_finite_values_rejected(self):
        # a NaN determinant compares false with 0 and used to pass the check
        with pytest.raises(ConfigError):
            mobius(math.nan, 0.0, 0.0, 1.0)
        for theta in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError):
                constant(theta)


class TestArgumentErrorsAreConfigErrors:
    """Each argument check of the module raises the typed ConfigError."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: BoundaryParam(kind="analytic", fn=_pair_of(lambda lam: lam)).boundary_value(1.0),
            lambda: eval_param(mobius(1.0, 0.0, 0.0, 1.0), 2.0),
            lambda: asymptotics(infinity()),
            lambda: EtaRelation(case="half"),
            lambda: EtaRelation(case="graph"),
            lambda: BCClass(label="bc4"),
            lambda: BCClass(label="bc2"),
            lambda: check_nevanlinna(sqrt_param(), n_samples=0),
        ],
        ids=["boundary_value", "eval_param", "asymptotics", "eta_case", "eta_slope",
             "bc_label", "bc2_slope", "n_samples"],
    )
    def test_raises_config_error(self, call):
        with pytest.raises(ConfigError):
            call()


class TestArrayClosures:
    """The built-in closures on arrays give the pairs (tau1, tau2) of the
    scalar formulas, and eval_param and boundary_value divide them with the
    bits of the one-value closures they replaced."""

    rng = np.random.default_rng(7)
    LAMS = (rng.standard_normal(4000) * 10.0 ** rng.integers(-6, 7, 4000)
            + 1j * rng.standard_normal(4000) * 10.0 ** rng.integers(-6, 7, 4000))
    US = np.concatenate([rng.standard_normal(500) * 1e3, [0.0, -0.0, 2.0, -1.0 / 6.0]])

    def test_sqrt(self):
        tau = sqrt_param()
        t1, t2 = tau.fn(self.LAMS)
        assert np.array_equal(t1, [cmath.sqrt(z) for z in map(complex, self.LAMS)])
        assert np.array_equal(t2, np.ones(self.LAMS.shape))
        want = [complex(math.sqrt(u)) if u >= 0.0 else 1j * math.sqrt(-u) for u in self.US]
        (got, ones) = tau.boundary_fn(self.US)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got.real),
                                                            np.signbit(np.real(want)))
        assert np.array_equal(ones, np.ones(self.US.shape))
        assert [eval_param(tau, z) for z in self.LAMS[:300]] == [cmath.sqrt(z) for z in
                                                                 map(complex, self.LAMS[:300])]
        assert [tau.boundary_value(u) for u in self.US] == want

    @pytest.mark.parametrize("coef", [(1.0, 2.0, 0.0, 1.0), (1.0, 0.0, -1.0, 2.0),
                                      (2.0, -1.0, 3.0, 0.5), (0.3, -7.0, 1e-3, 5.0)])
    def test_mobius(self, coef):
        a, b, c, d = coef
        tau = mobius(*coef)
        lams = list(map(complex, self.LAMS))
        want = [[a * z + b for z in lams], [c * z + d for z in lams]]
        assert np.array_equal(tau.fn(self.LAMS), want)
        assert np.array_equal(tau.boundary_fn(self.US), [a * self.US + b, c * self.US + d])
        # Python's division, as the one-value closure divided
        assert [eval_param(tau, z) for z in lams[:300]] == [(a * z + b) / (c * z + d)
                                                            for z in lams[:300]]
        want = [complex(math.inf) if c * u + d == 0.0 else complex((a * u + b) / (c * u + d))
                for u in self.US]
        assert [tau.boundary_value(u) for u in self.US] == want
        assert np.array_equal(tau.fn(complex(self.LAMS[0])), tau.fn(self.LAMS[:1])[:, 0])

    def test_infinity_at_a_pole(self):
        # tau2 = 0: the one-value closure's inf flag
        assert eval_param(infinity(), 1j) == mobius(1.0, 0.0, -1.0, 2.0).boundary_value(2.0)
        assert math.isinf(mobius(1.0, 0.0, -1.0, 2.0).boundary_value(2.0).real)

    def test_one_closure_call_per_batch(self):
        # asymptotics reads its K + 1 samples in one call, check_nevanlinna
        # its points and their mirrors in two
        sqrt, shapes = sqrt_param(), []

        def counted(lam):
            shapes.append(np.shape(lam))
            return sqrt.fn(lam)

        tau = BoundaryParam(kind="analytic", fn=counted, name="counted")
        assert asymptotics(tau, K=40) == asymptotics(sqrt, K=40)
        assert shapes == [(41,)]
        assert check_nevanlinna(tau) == check_nevanlinna(sqrt)
        assert shapes[1:] == [(210,), (210,)]

    def test_one_value_closure_refused(self):
        tau = BoundaryParam(kind="analytic", fn=lambda lam: lam)
        for call in (lambda: eval_param(tau, 1j), lambda: asymptotics(tau),
                     lambda: check_nevanlinna(tau, 4)):
            with pytest.raises(ConfigError, match=r"pair \(tau1, tau2\)"):
                call()
