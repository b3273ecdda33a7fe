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

    Both closures return tau as a finite pair (tau1, tau2) with tau =
    tau1/tau2, stacked on a leading axis of length 2, so the boundary
    condition reads tau2 y^[1](b) = tau1 y(b) and the point at infinity is
    tau2 = 0.  A pole of tau must be a zero of tau2: a closure that lets
    tau1 grow through one breaks the contract, as a closure that is not
    Nevanlinna does.  Both work elementwise on numpy arrays: called with an
    array of lambda (complex for fn, real for boundary_fn) they return an
    array of shape (2, *lambda.shape), and called with a scalar one of
    shape (2,).  The spectral routines call each closure once per batch of
    lambda; a closure that cannot take an array, returns one value or
    returns a non-finite pair makes them raise ConfigError.
    """

    kind: str
    theta: float = 0.0
    fn: Callable[[complex], np.ndarray] | None = None
    boundary_fn: Callable[[float], np.ndarray] | None = None
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
        return _ratio(_apply(self, self.boundary_fn, u))

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
        lam = np.asarray(lam, dtype=complex)
        out = np.ones((2, *lam.shape), complex)
        out[0] = np.sqrt(lam)  # the bits of cmath.sqrt
        return out

    def boundary(u):
        u = np.asarray(u, dtype=float)
        pos = u >= 0.0
        root = np.sqrt(np.where(pos, u, -u))
        out = np.zeros((2, *u.shape), complex)
        out.real[0], out.imag[0] = np.where(pos, root, 0.0), np.where(pos, 0.0, root)
        out.real[1] = 1.0
        return out

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

    def pair(lam):  # on and off the real axis
        lam = np.asarray(lam)
        return np.stack([a * lam + b, c * lam + d])

    return BoundaryParam(
        kind="analytic", fn=pair, boundary_fn=pair, name=f"mobius:{a:g},{b:g},{c:g},{d:g}"
    )


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
    return _ratio(_apply(tau, tau.fn, lam))


def _ratio(pair) -> complex:
    """tau = tau1/tau2 of one pair, by Python's complex division; the inf
    flag where tau2 = 0."""
    t1, t2 = complex(pair[0]), complex(pair[1])
    return complex(INF_FLAG) if t2 == 0.0 else t1 / t2


def _no_boundary_values(tau: BoundaryParam) -> ConfigError:
    return ConfigError(
        "real-axis evaluation needs boundary values tau+(u); "
        f"parameter {tau.label()} does not provide them"
    )


def _apply(tau: BoundaryParam, closure, x) -> np.ndarray:
    """One of tau's closures on the whole array (or scalar) x: the pair
    (tau1, tau2) on a leading axis of length 2 (see BoundaryParam)."""
    try:
        out = np.asarray(closure(x), dtype=complex)
    except (TypeError, ValueError):
        out = None
    if out is None or out.shape != (2, *np.shape(x)):
        raise ConfigError(
            f"parameter {tau.label()} does not evaluate arrays of lambda elementwise "
            "as a pair (tau1, tau2) on a leading axis of length 2"
        )
    if not np.isfinite(out).all():
        raise ConfigError(
            f"parameter {tau.label()} returned a non-finite pair (tau1, tau2); "
            "a pole of tau must be a zero of tau2"
        )
    return out


def _boundary_values(tau: BoundaryParam, u: np.ndarray) -> np.ndarray:
    """boundary_fn on the real array u, for an analytic tau that has it."""
    if not tau.has_boundary_values:
        raise _no_boundary_values(tau)
    return _apply(tau, tau.boundary_fn, np.real(u).astype(float))


def _tau_array(tau: BoundaryParam, lams) -> np.ndarray:
    """tau at every lam as the pair (tau1, tau2), a complex array of shape
    (2, *lams.shape): (theta, 1) for a constant, (1, 0) for infinity.  A
    constant or infinite tau needs no call; an analytic one takes one call
    of fn on the non-real lam and one of boundary_fn on the real ones."""
    lams = np.asarray(lams)
    out = np.zeros((2, *lams.shape), complex)
    if tau.kind != "analytic":
        out[0], out[1] = (tau.theta, 1.0) if tau.kind == "constant" else (1.0, 0.0)
        return out
    n_real = np.count_nonzero(real := np.imag(lams) == 0.0)
    if not lams.size:
        return out
    if n_real == lams.size:  # a batch of one kind takes one call on the whole array
        return _boundary_values(tau, lams)
    if n_real == 0:
        return _apply(tau, tau.fn, lams.astype(complex))
    out[:, ~real] = _apply(tau, tau.fn, lams[~real].astype(complex))
    out[:, real] = _boundary_values(tau, lams[real])
    return out


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
    tv = np.array([_ratio(pair) for pair in _apply(tau, tau.fn, 1j * ys).T])
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
    lams = np.array([r * cmath.exp(1j * ang) for r in radii for ang in args])
    pairs = _apply(tau, tau.fn, lams).T, _apply(tau, tau.fn, lams.conj()).T
    for lam, at, at_mirror in zip(lams.tolist(), *pairs):
        val, mirror = _ratio(at), _ratio(at_mirror)
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
