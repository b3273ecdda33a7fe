"""Boundary parameters, their large-argument asymptotics and classification.

The right-endpoint boundary condition is encoded by a parameter tau that is
either a real constant, the point at infinity, or an analytic function
mapping the upper half-plane into its closure (a Nevanlinna function,
conjugate-symmetric across the real axis).  Three asymptotic functionals of
tau along the imaginary axis,

    B   = lim  tau(iy) / (iy)
    mom = lim  y * Im tau(iy)      (finite or infinite)
    D   = lim  tau(iy)             (exists when B = 0 and mom finite)

decide a scalar linear relation eta and with it the boundary-condition class
of the uniform-convergence function class:

    B != 0 or tau = infinity  ->  eta full range   ->  bc1:  y(b) = 0
    B = 0, mom finite         ->  eta graph of -D  ->  bc2:  y^[1](b) = D y(b)
    B = 0, mom infinite       ->  eta = {(0,0)}    ->  bc3:  y(b) = y^[1](b) = 0
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, UnresolvedAsymptoticsError

INF_FLAG = float("inf")

_B_TOL = 1e-10
_AGREE_TOL = 1e-8


@dataclass(frozen=True)
class BoundaryParam:
    """Right-endpoint boundary parameter.

    kind is one of "constant", "infinity", "analytic".  Analytic parameters
    carry an evaluation closure for non-real arguments and, when known, a
    boundary-value closure u -> tau(u + i0) used by density evaluation and
    real-axis pole search.

    Both closures work elementwise on numpy arrays: called with an array of
    lambda (complex for fn, real for boundary_fn) they return an array of
    the same shape, and called with a scalar they return a scalar.  The
    spectral routines call each closure once per batch of lambda, and a
    closure that cannot take an array makes them raise ConfigError.  A
    non-finite value stands for the point at infinity.
    """

    kind: str
    theta: float = 0.0
    fn: Callable[[complex], complex] | None = None
    boundary_fn: Callable[[float], complex] | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "infinity", "analytic"):
            raise ConfigError(f"unknown boundary parameter kind {self.kind!r}")
        if self.kind == "analytic" and self.fn is None:
            raise ConfigError("analytic parameter needs an evaluation closure")

    @property
    def has_boundary_values(self) -> bool:
        return self.kind in ("constant", "infinity") or self.boundary_fn is not None

    def boundary_value(self, u: float) -> complex:
        """tau(u + i0) on the real axis; inf flag for the infinite parameter."""
        if self.kind == "constant":
            return complex(self.theta)
        if self.kind == "infinity":
            return complex(INF_FLAG)
        if self.boundary_fn is None:
            raise ConfigError(f"parameter {self.name or 'analytic'} has no boundary values")
        return complex(self.boundary_fn(u))

    def label(self) -> str:
        if self.kind == "constant":
            return f"constant:{self.theta:.17g}"
        if self.kind == "infinity":
            return "infinity"
        return self.name or "analytic"


def constant(theta: float) -> BoundaryParam:
    """tau(lambda) = theta, a finite real constant (use infinity() for the
    Dirichlet-type parameter)."""
    if not math.isfinite(theta):
        raise ConfigError(f"constant parameter must be finite, got {theta!r}")
    return BoundaryParam(kind="constant", theta=float(theta))


def infinity() -> BoundaryParam:
    return BoundaryParam(kind="infinity")


def sqrt_param() -> BoundaryParam:
    """tau(lambda) = principal sqrt(lambda), Im sqrt >= 0 on the upper half-plane."""

    def fn(lam):
        return np.sqrt(np.asarray(lam, dtype=complex))  # the bits of cmath.sqrt

    def boundary(u):
        u = np.asarray(u, dtype=float)
        pos = u >= 0.0
        root = np.sqrt(np.where(pos, u, -u))
        out = np.empty(u.shape, complex)
        out.real, out.imag = np.where(pos, root, 0.0), np.where(pos, 0.0, root)
        return out[()]

    return BoundaryParam(kind="analytic", fn=fn, boundary_fn=boundary, name="sqrt")


def mobius(a: float, b: float, c: float, d: float) -> BoundaryParam:
    """tau(lambda) = (a lambda + b)/(c lambda + d); requires finite
    coefficients with a d - b c > 0."""
    if not all(math.isfinite(v) for v in (a, b, c, d)):
        raise ConfigError(f"mobius({a},{b},{c},{d}) needs finite coefficients")
    det = a * d - b * c
    if det <= 0.0:
        raise ConfigError(
            f"mobius({a},{b},{c},{d}) has ad-bc = {det:g} <= 0; not a Nevanlinna parameter"
        )

    def fn(lam):
        lam = np.asarray(lam, dtype=complex)
        return _cdiv(a * lam + b, c * lam + d)

    def boundary(u):
        u = np.asarray(u, dtype=float)
        den = c * u + d
        with np.errstate(divide="ignore"):
            return np.where(den == 0.0, INF_FLAG, (a * u + b) / den).astype(complex)[()]

    return BoundaryParam(
        kind="analytic", fn=fn, boundary_fn=boundary, name=f"mobius:{a:g},{b:g},{c:g},{d:g}"
    )


def _cdiv(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x / y elementwise by Smith's method in the order of Python's complex
    division, so an array of quotients has the bits of the scalar ones
    (numpy's own complex division multiplies by a reciprocal).  No y is 0:
    callers divide by c lambda + d off the real axis, and ad - bc > 0."""
    yr, yi = y.real, y.imag
    by_re = np.abs(yr) >= np.abs(yi)
    with np.errstate(divide="ignore", invalid="ignore"):  # the branch not taken
        ratio = np.where(by_re, yi / yr, yr / yi)
        denom = np.where(by_re, yr + yi * ratio, yr * ratio + yi)
        re = np.where(by_re, x.real + x.imag * ratio, x.real * ratio + x.imag) / denom
        im = np.where(by_re, x.imag - x.real * ratio, x.imag * ratio - x.real) / denom
    out = np.empty(re.shape, complex)
    out.real, out.imag = re, im
    return out[()]


def parse_tau(spec: str) -> BoundaryParam:
    """Parse a parameter spec: constant:3.0 | infinity | sqrt | mobius:a,b,c,d."""
    s = spec.strip().lower()
    head, _, rest = s.partition(":")
    if head == "constant":
        try:
            value = float(rest)
        except ValueError as exc:
            raise ConfigError(f"bad constant parameter {spec!r}") from exc
        return constant(value)
    if head == "infinity":
        if rest:
            raise ConfigError(f"infinity parameter takes no arguments, got {spec!r}")
        return infinity()
    if head == "sqrt":
        if rest:
            raise ConfigError(f"sqrt parameter takes no arguments, got {spec!r}")
        return sqrt_param()
    if head == "mobius":
        parts = rest.split(",")
        if len(parts) != 4:
            raise ConfigError(f"mobius parameter needs 4 coefficients, got {spec!r}")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise ConfigError(f"bad mobius coefficients in {spec!r}") from exc
        return mobius(*vals)
    raise ConfigError(f"unknown boundary parameter spec {spec!r}")


# ---------------------------------------------------------------------------
# evaluation


def eval_param(tau: BoundaryParam, lam: complex) -> complex:
    """tau at a spectral point; returns the inf flag for the infinite parameter."""
    if tau.kind == "constant":
        return complex(tau.theta)
    if tau.kind == "infinity":
        return complex(INF_FLAG)
    lam = complex(lam)
    if lam.imag == 0.0:
        raise ConfigError("analytic boundary parameter evaluated on the real axis")
    return complex(tau.fn(lam))


def _no_boundary_values(tau: BoundaryParam) -> ConfigError:
    return ConfigError(
        "real-axis evaluation needs boundary values tau+(u); "
        f"parameter {tau.label()} does not provide them"
    )


def _tau_value(tau: BoundaryParam, lam: complex):
    """tau(lam) for complex lam, or the boundary value tau+(u) for real lam.

    Non-finite values (the point at infinity) are normalized to INF_FLAG.
    """
    if tau.kind == "infinity":
        return INF_FLAG
    if tau.kind == "constant":
        return complex(tau.theta)
    if lam.imag != 0.0:
        v = eval_param(tau, lam)
    else:
        if not tau.has_boundary_values:
            raise _no_boundary_values(tau)
        v = tau.boundary_value(lam.real)
    v = complex(v)
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        return INF_FLAG
    return v


def _apply(tau: BoundaryParam, closure, x: np.ndarray) -> np.ndarray:
    """One of tau's closures on the whole array x (see BoundaryParam)."""
    try:
        out = np.asarray(closure(x), dtype=complex)
        if out.shape == x.shape:
            return out
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"parameter {tau.label()} does not evaluate arrays of lambda elementwise")


def _boundary_values(tau: BoundaryParam, u: np.ndarray) -> np.ndarray:
    """boundary_fn on the real array u, for an analytic tau that has it."""
    if not tau.has_boundary_values:
        raise _no_boundary_values(tau)
    return _apply(tau, tau.boundary_fn, np.real(u).astype(float))


def _tau_array(tau: BoundaryParam, lams):
    """tau at every lam as a complex array (0 where tau is infinite or not
    finite), and the mask of those values.  A constant or infinite tau needs
    no call; an analytic one takes one call of fn on the non-real lam and
    one of boundary_fn on the real ones."""
    lams = np.asarray(lams)
    if tau.kind == "constant":
        tv = np.empty(lams.shape, complex)
        tv.fill(tau.theta)
        return tv, np.zeros(lams.shape, bool)
    if tau.kind == "infinity":
        return np.zeros(lams.shape, complex), np.ones(lams.shape, bool)
    n_real = np.count_nonzero(real := np.imag(lams) == 0.0)
    if not lams.size:
        tv = np.empty(lams.shape, complex)
    elif n_real == lams.size:  # a batch of one kind takes one call on the whole array
        tv = _boundary_values(tau, lams)
    elif n_real == 0:
        tv = _apply(tau, tau.fn, lams.astype(complex))
    else:
        tv = np.empty(lams.shape, complex)
        tv[~real] = _apply(tau, tau.fn, lams[~real].astype(complex))
        tv[real] = _boundary_values(tau, lams[real])
    inf = ~np.isfinite(tv)
    if np.count_nonzero(inf):
        tv = np.where(inf, 0.0, tv)
    return tv, inf


# ---------------------------------------------------------------------------
# asymptotics along the imaginary axis


@dataclass(frozen=True)
class Asymptotics:
    """Limits of tau along iy.  B is None when only 'nonzero, unresolved value'
    could be established; moment_finite and D are None when B is nonzero
    (they do not enter the classification in that case)."""

    B: float | None
    moment_finite: bool | None
    D: float | None

    @property
    def b_nonzero(self) -> bool:
        return self.B is None or self.B > _B_TOL


def _limit_of(samples: np.ndarray) -> tuple[str, float]:
    """Classify the tail of a sample sequence.

    Returns (status, value) with status one of "converged", "zero",
    "infinite", "stuck".  Convergence means three successive samples agree to
    relative _AGREE_TOL; "zero" means a geometric decay of moduli; "infinite"
    a sustained geometric growth.
    """
    mods = np.abs(samples)
    n = len(samples)
    for k in range(2, n):
        a, b, c = samples[k - 2], samples[k - 1], samples[k]
        scale = max(abs(a), abs(b), abs(c), 1e-300)
        if abs(b - a) <= _AGREE_TOL * scale and abs(c - b) <= _AGREE_TOL * scale:
            return "converged", float(np.real(c))
    tail = mods[-12:]
    nonzero = tail > 0
    if not np.any(nonzero):
        return "converged", 0.0
    ratios = tail[1:] / np.maximum(tail[:-1], 1e-300)
    if np.all(ratios <= 0.95) and tail[-1] <= 1e-6 * max(mods[0], 1e-300):
        return "zero", 0.0
    if np.all(ratios >= 1.05) and tail[-1] >= 1e6 * max(mods[0], 1e-300):
        return "infinite", math.inf
    return "stuck", float(np.real(samples[-1]))


def asymptotics(
    tau: BoundaryParam,
    y0: float = 1.0,
    K: int = 40,
) -> Asymptotics:
    """Extract B, moment finiteness and D along the schedule y = y0 * 2^k.

    Constant parameters are exact without sampling.  The infinite parameter
    has no asymptotics of this form; callers classify it directly.
    """
    if tau.kind == "constant":
        return Asymptotics(B=0.0, moment_finite=True, D=tau.theta)
    if tau.kind == "infinity":
        raise ConfigError("asymptotics undefined for the infinite parameter")

    ys = y0 * np.exp2(np.arange(K + 1))
    tv = np.array([tau.fn(1j * y) for y in ys], dtype=complex)
    if not np.all(np.isfinite(tv)):
        raise UnresolvedAsymptoticsError("parameter evaluation not finite along iy")

    b_samples = tv / (1j * ys)
    status, b_val = _limit_of(b_samples)
    if status == "converged":
        if b_val < -1e-6 * max(1.0, abs(b_val)):
            raise UnresolvedAsymptoticsError(f"negative B limit {b_val:g}; not Nevanlinna")
        if abs(b_val) > _B_TOL:
            return Asymptotics(B=max(b_val, 0.0), moment_finite=None, D=None)
        b_resolved_zero = True
    elif status == "zero":
        b_resolved_zero = True
    elif status == "stuck" and np.min(np.abs(b_samples[-6:])) > _B_TOL and (
        np.max(np.abs(b_samples[-6:])) <= 1.5 * np.min(np.abs(b_samples[-6:]))
    ):
        # Modulus stabilized away from zero but the value keeps moving:
        # declare nonzero with unresolved value rather than guessing.
        return Asymptotics(B=None, moment_finite=None, D=None)
    else:
        raise UnresolvedAsymptoticsError(
            f"tau(iy)/(iy) did not stabilize; tail {b_samples[-5:]}"
        )
    assert b_resolved_zero

    mom_samples = ys * np.imag(tv)
    status, _ = _limit_of(mom_samples)
    if status == "infinite":
        return Asymptotics(B=0.0, moment_finite=False, D=None)
    if status in ("converged", "zero"):
        d_status, d_val = _limit_of(tv)
        if d_status in ("converged", "zero"):
            return Asymptotics(B=0.0, moment_finite=True, D=float(d_val))
        raise UnresolvedAsymptoticsError(f"tau(iy) did not stabilize; tail {tv[-5:]}")
    raise UnresolvedAsymptoticsError(
        f"y*Im tau(iy) neither converges nor diverges; tail {mom_samples[-5:]}"
    )


# ---------------------------------------------------------------------------
# eta relation and boundary-condition class


@dataclass(frozen=True)
class EtaRelation:
    """Scalar linear relation at the right endpoint.

    case "full" is the whole plane relation {0} + C, "graph" is
    {(h, -d h)}, "zero" is {(0, 0)}."""

    case: str
    d: float | None = None

    def __post_init__(self) -> None:
        if self.case not in ("full", "graph", "zero"):
            raise ConfigError(f"unknown eta case {self.case!r}")
        if self.case == "graph" and self.d is None:
            raise ConfigError("graph relation needs its slope")


@dataclass(frozen=True)
class BCClass:
    label: str
    d_tau: float | None = None

    def __post_init__(self) -> None:
        if self.label not in ("bc1", "bc2", "bc3"):
            raise ConfigError(f"unknown class {self.label!r}")
        if self.label == "bc2" and self.d_tau is None:
            raise ConfigError("bc2 requires a finite d_tau")


def eta_relation(tau: BoundaryParam) -> EtaRelation:
    if tau.kind == "constant":
        return EtaRelation(case="graph", d=tau.theta)
    if tau.kind == "infinity":
        return EtaRelation(case="full")
    asym = asymptotics(tau)
    if asym.b_nonzero:
        return EtaRelation(case="full")
    if asym.moment_finite:
        return EtaRelation(case="graph", d=asym.D)
    return EtaRelation(case="zero")


def classify_bc(tau: BoundaryParam) -> BCClass:
    """Boundary-condition class at b: bc1 y=0, bc2 y^[1]=D y, bc3 both 0."""
    eta = eta_relation(tau)
    if eta.case == "full":
        return BCClass(label="bc1")
    if eta.case == "graph":
        return BCClass(label="bc2", d_tau=eta.d)
    return BCClass(label="bc3")


# ---------------------------------------------------------------------------
# Nevanlinna validity check


@dataclass(frozen=True)
class NevanlinnaCheck:
    ok: bool
    worst_im: float
    worst_sym: float
    worst_at: complex


def check_nevanlinna(
    tau: BoundaryParam, n_samples: int = 200, tol_nev: float = 1e-9
) -> NevanlinnaCheck:
    """Sample Im tau >= -tol and conjugate symmetry on a log grid in C+.

    Constant and infinite parameters are valid by construction.
    """
    if n_samples < 1:
        raise ConfigError("n_samples must be at least 1")
    if tau.kind in ("constant", "infinity"):
        return NevanlinnaCheck(ok=True, worst_im=0.0, worst_sym=0.0, worst_at=1j)
    n_r = max(2, int(math.ceil(math.sqrt(n_samples))))
    n_a = max(2, int(math.ceil(n_samples / n_r)))
    radii = np.logspace(-2, 4, n_r)
    args = np.linspace(0.05 * math.pi, 0.95 * math.pi, n_a)
    worst_im = 0.0
    worst_sym = 0.0
    worst_at = 1j + 0.0
    for r in radii:
        for ang in args:
            lam = r * cmath.exp(1j * ang)
            val = complex(tau.fn(lam))
            mirror = complex(tau.fn(lam.conjugate()))
            if not (cmath.isfinite(val) and cmath.isfinite(mirror)):
                raise UnresolvedAsymptoticsError(f"parameter not finite at {lam}")
            neg_im = -val.imag
            sym = abs(mirror - val.conjugate())
            if neg_im > worst_im:
                worst_im, worst_at = neg_im, lam
            if sym > worst_sym:
                worst_sym = max(worst_sym, sym)
    ok = worst_im <= tol_nev and worst_sym <= tol_nev
    return NevanlinnaCheck(ok=ok, worst_im=worst_im, worst_sym=worst_sym, worst_at=worst_at)
