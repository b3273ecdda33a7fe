"""m-function, Stieltjes inversion and spectral-function assembly.

The central object is the Weyl-type quotient

    m_tau(lambda) = (psi(b,lambda) tau1(lambda) - psi^[1](b,lambda) tau2(lambda))
                    / (phi(b,lambda) tau1(lambda) - phi^[1](b,lambda) tau2(lambda))

with tau = tau1/tau2 carried as the finite pair (tau1, tau2) of
nevanlinna._tau_array (tau = infinity is (1, 0) and gives psi(b)/phi(b)).
m_tau is a Nevanlinna function; its boundary behaviour on the real axis
encodes a non-decreasing spectral function sigma:

* density of the absolutely continuous part: rho(u) = (1/pi) lim Im
  m(u + i eps);
* point masses at real poles lambda_k of m, with jump -N(lambda_k) /
  D'(lambda_k) for m = N/D.

Two inversion routes are kept deliberately separate.  The boundary route
evaluates tau's own boundary values tau+(u) and uses the exact identity
Im m(u+i0) = Im(tau1 conj(tau2)) / |phi(b,u) tau1 - phi^[1](b,u) tau2|^2,
valid for real coefficient problems where phi(b,u) is real.  The
extrapolation route samples Im m(u + i eps) at the six fixed eps of _EPS
and extrapolates polynomially to eps = 0.  Point masses are similarly computed by residue
and by the eps-limit of eps * Im m, and the two must agree; the residue
takes D' from a complex step, Im D(lambda_k + i h) / h, which has no
cancellation, so N, D' and the eps samples all come off one walk of
complex lambda.  The same step is the eigenvalue search's only pole test:
a zero of D is a pole of m iff tau+ is real there and -N/D' > 0.

Everything takes lambda in batches, with one call of endpoint_states and one
of each tau closure per batch; endpoint_states reads phi and psi at b off
the one lambda-batched walk of the pieces in slspectra.propagator, which
takes each batch whole.  The eigenvalue search makes one call for its scan
grid, one per halving level and one per refinement step.  Outside it,
build_spectral_function makes one such call for the pole test of all
roots (_poles), one for all point masses (_point_masses) and one for the
density.  point_mass at a root of one of the last 8 find_eigenvalues calls
on the same (problem, tau) objects (keyed by ids) makes one for all roots of
that call, which pays off when most are asked, and keeps the masses; a batch
walks and checks each lambda alone: every mass has its one-pole call's bits.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigError,
    CrossCheckError,
    DoubleRootError,
    PoleContaminatedError,
    PoleProximityError,
    WindowError,
)
from .nevanlinna import BoundaryParam, _tau_array
from .problem import SLProblem
from .propagator import endpoint_states
from .quadrature import piecewise_integrate
# brentq is not called here; it stays importable as spectral.brentq
from .roots import brentq, chandrupatla  # noqa: F401

_POLE_GUARD = 1e-14  # |D| below this fraction of |N| counts as "at a pole"
_EXCLUSION = 1e-3  # ac nodes keep |u - s_k| >= _EXCLUSION * (1 + |s_k|)
_SCAN_NODES = 200_000  # most nodes find_eigenvalues lays on its scan grid
_ROOT_XTOL, _ROOT_RTOL = 2e-12, 1e-14  # eigenvalue brackets: width <= 2e-12 + 4e-14 |lambda|
_PHASE_ERR_CAP = 1e-6  # most rounding error, in rad, of the phase at b and of the scan angle
_COMPLEX_STEP = 1e-20  # D'(lambda) = Im D(lambda + i h) / h with h = 1e-20 (1 + |lambda|)
_EPS = 0.1 * 2.0 ** -np.arange(7.0, 13.0)  # the eps of both eps-limits: 0.1 * 2^-j, j = 7..12


def _phase_checked(problem: SLProblem, lams):
    """lams, refused if the phase at b of one, about sqrt|lam| ell, has a
    rounding error sqrt|lam| ell 2^-52 above _PHASE_ERR_CAP (an infinite or
    NaN lam too); each walk checks its lams once.  With ell = 1 |lam| may
    reach about 2e19; the scan's node cap keeps it below sqrt|lam| ell = 1e5."""
    top = float(np.abs(lams).max(initial=0.0))  # NaN if one lam is NaN
    if not math.sqrt(top) * _ell(problem) * 2.0**-52 <= _PHASE_ERR_CAP:
        raise ConfigError(
            f"|lambda| = {top:.3g} is not finite or too large: the phase at b would "
            f"carry a rounding error above {_PHASE_ERR_CAP:g} rad"
        )
    return lams


def _quotient(problem: SLProblem, lams, t):
    """N = psi tau1 - psi^[1] tau2 and D = phi tau1 - phi^[1] tau2 at b for
    every lam, phase-checked by the caller, from the pairs t of _tau_array."""
    y, y1 = endpoint_states(problem, lams).transpose(1, 2, 0)  # columns phi, psi
    den, num = y * t[0] - y1 * t[1]
    return num, den


def _complex_tau(t, rtol: float) -> np.ndarray:
    """Where tau = tau1/tau2 is not real: |Im tau| > rtol (1 + |tau|)
    multiplied through by |tau2|^2, |Im(tau1 conj(tau2))| > rtol |tau2|
    (|tau2| + |tau1|), so a pole of tau needs no division and a constant
    factor of the pair does not move it."""
    a, b = np.abs(t)
    return np.abs((t[0] * t[1].conj()).imag) > rtol * b * (b + a)


def _pole_error(lam, den) -> PoleProximityError:
    return PoleProximityError(
        f"m-function denominator vanishes at lambda={complex(lam)} (|D|={abs(den):.3e})"
    )


def _m_values(problem: SLProblem, tau: BoundaryParam, lams) -> np.ndarray:
    """m_tau at every lam in lams; raises PoleProximityError if one is at a pole."""
    lams = np.asarray(lams, dtype=complex)
    num, den = _quotient(problem, _phase_checked(problem, lams), _tau_array(tau, lams))
    at_pole = np.abs(den) <= _POLE_GUARD * np.abs(num)
    if np.count_nonzero(at_pole):
        i = int(np.argmax(at_pole))
        raise _pole_error(lams[i], den[i])
    return num / den


def m_function(problem: SLProblem, tau: BoundaryParam, lam: complex) -> complex:
    """Weyl-type m-function at lam; raises PoleProximityError at poles."""
    return complex(_m_values(problem, tau, [complex(lam)])[0])


# ---------------------------------------------------------------------------
# Stieltjes inversion: density


def _density_boundary(problem: SLProblem, us: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(1/pi) Im m(u+i0) = Im(tau1 conj(tau2)) / (pi |D|^2) at every u from
    tau's boundary values t = _tau_array(tau, us); exact in eps.  D is
    refused where it is below 1e-10 of its bound (|phi| + |phi^[1]|) (|tau1|
    + |tau2|), which for tau = infinity, D = phi, compares phi with phi^[1]."""
    (ph, _), (ph1, _) = endpoint_states(problem, _phase_checked(problem, us)).transpose(1, 2, 0)
    den = ph * t[0] - ph1 * t[1]
    pole = np.abs(den) < 1e-10 * (np.abs(ph) + np.abs(ph1)) * (np.abs(t[0]) + np.abs(t[1]))
    if np.count_nonzero(pole):
        raise PoleContaminatedError(
            f"boundary denominator vanishes at u={us[pole][0]}: point mass nearby"
        )
    im = (t[0] * t[1].conj()).imag  # |tau2|^2 Im tau
    return np.where(im == 0.0, 0.0, im / (math.pi * np.abs(den) ** 2))


@lru_cache(maxsize=8)
def _quadratic_projection(x: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(H, w) of the least-squares quadratic through samples at x: H @ y are
    its values at x and w @ y its value at 0.  x is mapped onto [-1, 1]
    first, as Polynomial.fit maps it."""
    x = np.array(x)
    off, scl = np.polynomial.polyutils.mapparms((x.min(), x.max()), (-1.0, 1.0))
    V = np.vander(off + scl * x, 3, increasing=True)
    pinv = np.linalg.pinv(V)
    return V @ pinv, np.array([1.0, off, off * off]) @ pinv


def _quadratic_fits(x: np.ndarray, ys: np.ndarray):
    """Polynomial.fit(x, y, 2) of every row y of ys, by the projection cached
    per x: values at x and 0."""
    H, w = _quadratic_projection(tuple(x.tolist()))
    return ys @ H.T, ys @ w


_EPS2 = tuple((_EPS**2).tolist())  # the x of the eps-limit of eps Im m at a pole


def _extrapolated_densities(problem: SLProblem, tau: BoundaryParam, us) -> np.ndarray:
    """(1/pi) lim Im m(u + i eps) at every u, by a quadratic in eps through
    the six eps of _EPS, from one m evaluation of every u + i eps.  The
    first failing u raises the error of its own fit."""
    us = np.asarray(us, dtype=float)
    vals = _m_values(problem, tau, (us[:, None] + 1j * _EPS).ravel()).imag.reshape(-1, _EPS.size)
    fits, at_zero = _quadratic_fits(_EPS, vals)
    # Im m is analytic in eps off the poles, so the quadratic tracks the tail
    # samples to ~1e-11 relative; a nearby pole's Lorentzian bump (or its
    # 1/eps growth) leaves residuals many orders larger.
    diverged = np.max(np.abs(fits - vals), axis=1) > 1e-8 * (1.0 + np.max(np.abs(vals), axis=1))
    out = at_zero / math.pi
    bad = np.flatnonzero(diverged | (out <= -1e-8))
    if bad.size:
        i, u = bad[0], float(us[bad[0]])
        raise PoleContaminatedError(
            f"eps-extrapolation of Im m does not converge at u={u}: point mass nearby"
            if diverged[i]
            else f"negative density extrapolant {out[i]:.3e} at u={u}; limit contaminated"
        )
    return np.maximum(out, 0.0)


def spectral_density(
    problem: SLProblem,
    tau: BoundaryParam,
    u: float,
    method: str = "auto",
) -> float:
    """Density sigma'(u) = (1/pi) lim Im m(u + i eps).

    method "boundary" uses tau's boundary values and is exact in eps;
    "extrapolation" fits a quadratic in eps through the six eps of _EPS;
    "auto" prefers the boundary route when tau supports it.
    """
    us = _phase_checked(problem, np.array([float(u)]))  # before tau reads it
    if method == "auto":
        method = "boundary" if tau.has_boundary_values else "extrapolation"
    if method == "boundary":
        return float(_density_boundary(problem, us, _tau_array(tau, us))[0])
    if method == "extrapolation":
        return float(_extrapolated_densities(problem, tau, us)[0])
    raise ConfigError(f"unknown density method {method!r}")


# ---------------------------------------------------------------------------
# eigenvalues (real poles of m)


@lru_cache(maxsize=32)
def _ell(problem: SLProblem) -> float:
    """int sqrt(Delta/p): sets the asymptotic eigenvalue spacing pi/ell in
    sqrt(lambda)."""

    def f(t):
        d = problem.delta(t)
        p = problem.p(t)
        return np.sqrt(np.maximum(d, 0.0) / np.abs(p))

    return float(
        piecewise_integrate(
            f, problem.breakpoints, abs_tol=1e-9, rel_tol=1e-9, max_subdivisions=40
        ).real
    )


def _scan_values(problem: SLProblem, tau: BoundaryParam, us):
    """(D, N, valid) at the real points us, both divided by max(|tau1|,
    |tau2|): one positive scale, which bounds the scan through large tau
    and keeps the angle of (D, N).  Nodes where tau+ is genuinely complex
    (ac spectrum) are invalid.  A pole of tau is a zero of tau2, across
    which the scaled pair stays continuous."""
    us = np.asarray(us, dtype=float)
    t = _tau_array(tau, us)
    valid = ~_complex_tau(t, 1e-12)
    out = np.zeros((2, us.size))
    if np.any(valid):
        t, uv = t[:, valid].real, _phase_checked(problem, us[valid])
        out[:, valid] = np.array(_quotient(problem, uv, t)) / np.maximum(*np.abs(t))
    return out[1], out[0], valid


def _scan_value(problem: SLProblem, tau: BoundaryParam, u: float):
    """(value, valid) of the scan function at one real u.  The package
    itself scans and refines in batches; perfbench/tracer.py counts calls to
    this name as scan evaluations."""
    den, _, valid = _scan_values(problem, tau, [u])
    return float(den[0]), bool(valid[0])


def _s_of(u: float) -> float:
    return math.copysign(math.sqrt(abs(u)), u)


def _u_of(s: float) -> float:
    return s * abs(s)


def _complex_step(problem: SLProblem, tau: BoundaryParam, lams, eps=()):
    """One _quotient call at z = lambda_k + i h, h = 1e-20 (1 + |lambda_k|),
    and at every lambda_k + i eps: (z, N, D, D' = Im D(z[:, 0]) / h, and the
    mask of lambda_k where tau+ is not real).  For a real tau+, Im(tau1
    conj(tau2)) at lambda_k + i h is h W + O(h^3), W the Wronskian of the
    pair, however large W is; so tau is also read at lambda_k + i h/2 (in
    the same closure call, but not walked), and the mask marks where
    halving h does not halve it to 1e-3.  A constant factor of the pair
    does not move that test.  lambda_k (not z) is phase-checked first."""
    h = _COMPLEX_STEP * (1.0 + np.abs(_phase_checked(problem, lams)))
    im = np.empty((lams.size, 2 + len(eps)))
    im[:, 0], im[:, 1:-1], im[:, -1] = h, eps, 0.5 * h
    z = lams[:, None] + 1j * im
    t = _tau_array(tau, z)
    complex_tv = np.zeros(lams.size, bool)
    if np.count_nonzero(t.imag):  # else the pair is real, as for a constant tau
        w = (t[0] * t[1].conj()).imag
        complex_tv = np.abs(w[:, 0] - 2.0 * w[:, -1]) > 1e-3 * np.abs(w[:, 0])
    z = z[:, :-1]
    num, den = _quotient(problem, z.ravel(), t[:, :, :-1].reshape(2, -1))
    num, den = num.reshape(z.shape), den.reshape(z.shape)
    return z, num, den, den[:, 0].imag / h, complex_tv


def _poles(problem: SLProblem, tau: BoundaryParam, roots) -> np.ndarray:
    """Which real zeros of D are poles of m: tau+ real and -N/D' > 0, the
    checks of _point_masses, from one complex-step walk.  A branch point of
    tau fails the first: sqrt(i h/2) is sqrt(h/2) off the axis, not half of
    sqrt(h)."""
    _, num, _, d_prime, complex_tv = _complex_step(problem, tau, np.asarray(roots, dtype=float))
    return ~complex_tv & (np.sign(num[:, 0].real) * np.sign(d_prime) < 0.0)


def _is_pole(problem: SLProblem, tau: BoundaryParam, lam0: float) -> bool:
    """_poles for one root."""
    return bool(_poles(problem, tau, [lam0])[0])


def _winding_confirms(problem: SLProblem, tau: BoundaryParam, lam0: float) -> bool:
    """Winding number of D(lambda) on a rectangle around lam0 (argument
    principle; D must be analytic there).  The rectangle's half-width
    1e-2 (1 + |lam0|) grows like lambda while the spacing of the poles grows
    like sqrt(lambda) (2 pi sqrt(lambda) / ell), so at large lambda it holds
    many poles: about 150 at lambda = 2.2e9 on the free problem, where it
    answers True between poles too.  No package path calls it; it stays
    because perfbench/tracer.py counts calls to this name."""
    h, v = 1e-2 * (1.0 + abs(lam0)), 1e-2
    c = np.array([complex(lam0 + x, y) for x, y in ((-h, -v), (h, -v), (h, v), (-h, v), (-h, -v))])
    z = (c[:-1, None] + (c[1:] - c[:-1])[:, None] * np.linspace(0.0, 1.0, 50, endpoint=False)).ravel()
    _, samples = _quotient(problem, _phase_checked(problem, z), _tau_array(tau, z))
    q = np.roll(samples, -1) / samples
    total = float(np.sum(np.arctan2(q.imag, q.real)))
    return round(total / (2 * math.pi)) >= 1


def _scan_segment(problem: SLProblem, tau: BoundaryParam, s_nodes: np.ndarray):
    """(roots, brackets) of the scan function on the given s nodes: the
    zeros at a node, and every cell holding one zero as (s_lo, s_hi, D_lo,
    D_hi) for find_eigenvalues to refine.

    A cell between valid nodes counts its zeros from the turn of (D, N).
    m = N/D increases between its poles, so theta = atan2(N, D) only
    increases, by pi from one zero of D to the next.  The pair of
    _scan_values is continuous where tau2 crosses 0, so this holds through
    a pole of tau too (a real tau1/tau2 also increases between its poles).
    h counts the zeros of D, the marks theta = -pi/2 and pi/2, in (-pi,
    theta], exactly from the signs; a turn in [0, 2 pi) passes h1 - h0 of
    them, two more where it wraps past pi, and a step back within
    _PHASE_ERR_CAP is a turn of 0 in rounding.  So the count is exact while
    a cell turns less than 2 pi, and a near-tangent pair with no sign
    change counts 2.  Cells holding two are halved in s until each holds
    one, all of one level in one _scan_values call; a cell with an invalid
    midpoint is dropped, and two zeros still together at rounding width
    raise DoubleRootError.
    """
    roots, brackets, mid = [], [], np.asarray(s_nodes, dtype=float)
    lo = hi = None
    while True:
        nodes = np.stack([mid, *_scan_values(problem, tau, _u_of(mid))])
        roots += _u_of(mid[(nodes[3] != 0.0) & (nodes[1] == 0.0)]).tolist()
        if lo is None:  # the first level: the cells between the s nodes
            lo, hi = nodes[:, :-1], nodes[:, 1:]
        else:
            lo, hi = np.concatenate([lo, nodes], axis=1), np.concatenate([nodes, hi], axis=1)
        (_, d0, n0, v0), (_, d1, n1, v1) = lo, hi
        h0, h1 = (np.where(d > 0.0, 1, 2 * (n >= 0.0) + ((d == 0.0) & (n < 0.0)))
                  for d, n in ((d0, n0), (d1, n1)))
        wrap = (h1 < h0) | ((h1 == h0) & (np.arctan2(n1, d1) < np.arctan2(n0, d0) - _PHASE_ERR_CAP))
        count = np.where(v0 * v1 != 0.0, h1 - h0 + 2 * wrap - (d1 == 0.0), 0)
        brackets += zip(*(x[count == 1].tolist() for x in (lo[0], hi[0], d0, d1)))
        lo, hi = lo[:, count > 1], hi[:, count > 1]
        if not lo.size:
            return roots, brackets
        mid = 0.5 * (lo[0] + hi[0])
        if np.any(pair := (mid <= lo[0]) | (mid >= hi[0])):
            at = _u_of(float(mid[np.argmax(pair)]))
            raise DoubleRootError(f"two zeros of D within rounding of lambda={at:.8g}")


def find_eigenvalues(
    problem: SLProblem,
    tau: BoundaryParam,
    interval: tuple[float, float],
    max_count: int = 10000,
) -> list[float]:
    """Real poles of m_tau in [lo, hi], ascending.

    A scan in the variable s = sign(u) sqrt|u| brackets each zero of the
    (rescaled) denominator, counted from the turn of (D, N) (_scan_segment);
    chandrupatla refines all
    brackets together in lambda = s|s|, where the scan function is analytic
    (in s it is ~ s|s| at s = 0), with one _scan_values call per iteration.
    A bracket stops at width 2e-12 + 4e-14 |lambda|.  For an analytic tau
    a root is kept iff it passes _poles: tau+ real there and -N/D' > 0,
    from one complex-step walk of all roots.  The last 8 root sets are kept,
    under the ids of (problem, tau), for point_mass to batch their masses."""
    lo, hi = float(interval[0]), float(interval[1])
    if not (lo < hi and math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"search interval [{lo}, {hi}] must be finite and not empty")
    if max_count < 1:
        raise ConfigError("max_count must be >= 1")
    step = math.pi / (6.0 * max(_ell(problem), 0.1))
    # one step of margin, so a root at an interval end lies inside a cell;
    # margin finds are dropped below
    s_lo, s_hi = _s_of(lo) - step, _s_of(hi) + step
    n = int(math.ceil((s_hi - s_lo) / step)) + 1
    if n > _SCAN_NODES:
        # a wider step would pass the root spacing and miss roots unnoticed
        widest = _u_of(_s_of(lo) + (_SCAN_NODES - 4) * step)
        raise ConfigError(
            f"eigenvalue scan over [{lo:g}, {hi:g}] needs {n} nodes, more than "
            f"{_SCAN_NODES}; the widest range allowed from {lo:g} is [{lo:g}, {widest:g}]"
        )
    s_grid = np.linspace(s_lo, s_hi, max(n, 8))
    roots, brackets = _scan_segment(problem, tau, s_grid)
    if brackets:
        s1, s2, f1, f2 = np.array(brackets).T

        def f(lams: np.ndarray) -> np.ndarray:
            den, _, valid = _scan_values(problem, tau, lams)
            if not np.all(valid):
                raise PoleProximityError(
                    f"scan function invalid inside bracket at lambda={lams[~valid][0]}"
                )
            return den

        found = chandrupatla(f, _u_of(s1), _u_of(s2), f1, f2, _ROOT_XTOL, _ROOT_RTOL, maxiter=200)
        roots += found.tolist()

    roots = np.sort(roots)
    roots = roots[(roots >= lo - 1e-12 * (1.0 + abs(lo))) & (roots <= hi + 1e-12 * (1.0 + abs(hi)))]
    if tau.kind == "analytic" and roots.size:
        roots = roots[_poles(problem, tau, roots)]
    roots = roots[:max_count].tolist()
    _root_sets.pop(key := (id(problem), id(tau)), None)  # the newest set goes last
    _root_sets[key] = [problem, tau, tuple(roots), None]  # the caller may edit its list
    if len(_root_sets) > _ROOT_SETS:
        del _root_sets[next(iter(_root_sets))]
    return roots


# ---------------------------------------------------------------------------
# point masses

# (id(problem), id(tau)) -> [problem, tau, roots (ascending), masses], which pins
# both ids; masses is None until point_mass asks, False if the batch raised.
_root_sets: dict = {}
_ROOT_SETS = 8


@np.errstate(divide="ignore", invalid="ignore")
def _jumps(num, den, d_prime):
    """(jump_res, jump_lim, crossed) of _point_masses from the N and D of
    _complex_step: the residue -N/D', the eps-limit of eps Im m and where
    they differ by more than 1e-3 jump_res.  Where D' = 0 or D = 0 at an eps
    sample they are not read: the caller reports those lambda_k."""
    jump_res = -num[:, 0].real / d_prime
    # eps * Im m = sigma_k + c1 eps^2 + c2 eps^4 near a simple pole in a gap
    jump_lim = (_EPS * (num[:, 1:] / den[:, 1:]).imag) @ _quadratic_projection(_EPS2)[1]
    return jump_res, jump_lim, np.abs(jump_res - jump_lim) > 1e-3 * jump_res


def _point_masses(problem: SLProblem, tau: BoundaryParam, lams) -> np.ndarray:
    """point_mass at every lambda_k in lams, from one _complex_step walk of
    every lambda_k + i h and lambda_k + i eps.  The first failing lambda_k
    raises what point_mass raises for it alone (a tau+ that is not real
    raises ConfigError for the whole batch)."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if lams.size == 0:
        return np.zeros(0)
    z, num, den, d_prime, complex_tv = _complex_step(problem, tau, lams, _EPS)
    if np.count_nonzero(complex_tv):
        raise ConfigError(f"tau+({lams[complex_tv][0]}) is not real; no real pole possible here")
    at_pole = np.abs(den[:, 1:]) <= _POLE_GUARD * np.abs(num[:, 1:])
    jump_res, jump_lim, crossed = _jumps(num, den, d_prime)
    bad = (d_prime == 0.0) | (jump_res <= 0.0) | crossed
    if np.count_nonzero(at_pole):
        bad |= at_pole.any(axis=1)
    if np.count_nonzero(bad):
        i = int(np.argmax(bad))
        lam_k = float(lams[i])
        if d_prime[i] == 0.0:
            raise CrossCheckError(f"D'({lam_k}) = 0: not a simple pole")
        if at_pole[i].any():
            j = int(np.argmax(at_pole[i])) + 1
            raise _pole_error(z[i, j], den[i, j])
        if jump_res[i] <= 0.0:
            raise CrossCheckError(
                f"residue jump {jump_res[i]:.6g} at lambda={lam_k} is not positive"
            )
        raise CrossCheckError(
            f"jump cross-check failed at lambda={lam_k}: "
            f"residue {jump_res[i]:.10g} vs eps-limit {jump_lim[i]:.10g}"
        )
    return jump_res


def point_mass(
    problem: SLProblem,
    tau: BoundaryParam,
    lambda_k: float,
) -> float:
    """Jump of sigma at a located simple pole lambda_k.

    Computed two independent ways and cross-checked to rel. 1e-3:
    (a) residue -N(lambda_k)/D'(lambda_k) by a complex step: with
        h = 1e-20 (1 + |lambda_k|), N = Re N(lambda_k + i h) and
        D' = Im D(lambda_k + i h) / h, both exact to O(h^2) and free of
        cancellation (Squire & Trapp, SIAM Rev. 40, 1998);
    (b) limit of eps * Im m(lambda_k + i eps), a quadratic in eps^2 through
        the six eps of _EPS.
    Returns (a).  Checks run in the order D' = 0, pole proximity, residue
    <= 0, cross-check.  At a lambda_k bit-equal to a root of one of the
    last 8 find_eigenvalues calls on these (problem, tau) objects, the mass
    comes from one _point_masses batch of all that call's roots, run on the
    first such call (so one mass of a wide set costs them all); it has the
    bits of the one-pole call, which any other lambda_k makes, as each root
    does if its batch raised.
    """
    rec = _root_sets.get((id(problem), id(tau)))
    roots = rec[2] if rec and isinstance(lambda_k, float) else []
    k = bisect_left(roots, lambda_k)
    if k < len(roots) and roots[k].hex() == lambda_k.hex():  # a bit-equal root
        if rec[3] is None:
            try:
                rec[3] = _point_masses(problem, tau, roots)
            except Exception:  # each root now raises its own error, if it has one
                rec[3] = False
        if rec[3] is not False:
            return float(rec[3][k])
    return float(_point_masses(problem, tau, [lambda_k])[0])


# ---------------------------------------------------------------------------
# spectral function assembly


@dataclass(frozen=True, eq=False)
class SpectralFunction:
    """Spectral function: ac density on a cell grid plus point masses.

    ac_grid nodes sit at cell midpoints in the variable xi = sign(u)
    sqrt|u| (the substitution that tames the 1/sqrt|u| edge of the example
    density); cell_lo/cell_hi are the corresponding exact cell edges in u,
    so integrals against the ac part are sums rho_j * f(u_j) * (hi_j -
    lo_j).  Cumulative convention: sigma left-continuous with sigma(0)=0.
    """

    ac_grid: np.ndarray
    ac_density: np.ndarray
    cell_lo: np.ndarray
    cell_hi: np.ndarray
    point_masses: tuple[tuple[float, float], ...]
    window: tuple[float, float]

    def __post_init__(self) -> None:
        grid = np.asarray(self.ac_grid, dtype=float)
        dens = np.asarray(self.ac_density, dtype=float)
        lo = np.asarray(self.cell_lo, dtype=float)
        hi = np.asarray(self.cell_hi, dtype=float)
        for name, arr in (("ac_density", dens), ("cell_lo", lo), ("cell_hi", hi)):
            if arr.shape != grid.shape:
                raise ConfigError(f"{name} must align with ac_grid")
        if grid.size and np.any(np.diff(grid) <= 0):
            raise ConfigError("ac_grid nodes must be strictly increasing")
        if np.any(dens < 0):
            raise ConfigError("ac density must be non-negative")
        if grid.size and (np.any(lo > grid) or np.any(hi < grid) or np.any(lo >= hi)):
            raise ConfigError("cells must contain their nodes")
        s_min, s_max = self.window
        if not (np.isfinite(s_min) and np.isfinite(s_max) and s_min < s_max):
            raise ConfigError("window must be a finite ordered pair")
        last = None
        for s_k, sig_k in self.point_masses:
            if sig_k <= 0:
                raise ConfigError(f"point mass at {s_k} must be positive")
            if last is not None and s_k <= last:
                raise ConfigError("point masses must be sorted by location")
            last = s_k
        object.__setattr__(self, "ac_grid", grid)
        object.__setattr__(self, "ac_density", dens)
        object.__setattr__(self, "cell_lo", lo)
        object.__setattr__(self, "cell_hi", hi)

    def ac_measure(self, x1: float, x2: float) -> float:
        """Integral of the density over [x1, x2), cellwise with pro-rated
        partial cells."""
        if x2 <= x1 or self.ac_grid.size == 0:
            return 0.0
        width = np.clip(
            np.minimum(self.cell_hi, x2) - np.maximum(self.cell_lo, x1), 0.0, None
        )
        return float(np.dot(self.ac_density, width))


def pure_point_spectral(
    masses, window: tuple[float, float]
) -> SpectralFunction:
    """Spectral function with no ac part (orthogonal / constant-tau case)."""
    empty = np.array([])
    return SpectralFunction(
        ac_grid=empty,
        ac_density=empty.copy(),
        cell_lo=empty.copy(),
        cell_hi=empty.copy(),
        point_masses=tuple(sorted((float(s), float(j)) for s, j in masses)),
        window=(float(window[0]), float(window[1])),
    )


def _xi_edges(s_min: float, s_max: float, ac_nodes: int) -> np.ndarray:
    """Cell edges uniform in xi = sign(u) sqrt|u|, anchored at 0 when the
    window straddles it."""
    x0, x1 = _s_of(s_min), _s_of(s_max)
    if x0 < 0.0 < x1:
        n_neg = int(round(ac_nodes * (-x0) / (x1 - x0)))
        n_neg = min(max(n_neg, 4), ac_nodes - 4)
        neg = np.linspace(x0, 0.0, n_neg + 1)
        pos = np.linspace(0.0, x1, ac_nodes - n_neg + 1)
        return np.concatenate([neg, pos[1:]])
    return np.linspace(x0, x1, ac_nodes + 1)


def build_spectral_function(
    problem: SLProblem,
    tau: BoundaryParam,
    window: tuple[float, float],
    ac_nodes: int = 600,
) -> SpectralFunction:
    """Assemble sigma on the window: locate poles, extract jumps, lay an ac
    grid avoiding pole neighbourhoods and fill densities."""
    s_min, s_max = float(window[0]), float(window[1])
    if not (np.isfinite(s_min) and np.isfinite(s_max) and s_min < s_max):
        raise ConfigError("window must be a finite ordered pair")
    if ac_nodes < 16:
        raise ConfigError("ac_nodes must be >= 16")
    eigs = find_eigenvalues(problem, tau, (s_min, s_max))
    masses = tuple(zip(eigs, _point_masses(problem, tau, eigs).tolist()))

    edges = _xi_edges(s_min, s_max, ac_nodes)
    nodes = _u_of(0.5 * (edges[:-1] + edges[1:]))
    lo, hi = _u_of(edges[:-1]), _u_of(edges[1:])
    keep = np.ones(nodes.size, dtype=bool)
    for s_k, _ in masses:
        keep &= np.abs(nodes - s_k) >= _EXCLUSION * (1.0 + abs(s_k))
    nodes, lo, hi = nodes[keep], lo[keep], hi[keep]

    dens = np.zeros(nodes.size)
    # real boundary value: Im m(u+i0) = 0 exactly off the poles, and pole
    # neighbourhoods are already excluded above
    t = _tau_array(tau, nodes)
    need = _complex_tau(t, 1e-14)
    if np.any(need):
        dens[need] = _density_boundary(problem, nodes[need], t[:, need])
    return SpectralFunction(
        ac_grid=nodes,
        ac_density=dens,
        cell_lo=lo,
        cell_hi=hi,
        point_masses=masses,
        window=(s_min, s_max),
    )


def stieltjes_cdf(sigma: SpectralFunction, s: float) -> float:
    """Left-continuous cumulative sigma(s) with sigma(0) = 0.

    For s > 0: density over [0, s) plus jumps at 0 <= s_k < s.  For s < 0:
    minus the measure of [s, 0), so the jump at s itself is included (left
    continuity holds on both sides with this convention)."""
    s = float(s)
    s_min, s_max = sigma.window
    tol = 1e-12 * (1.0 + abs(s))
    if s < s_min - tol or s > s_max + tol:
        raise WindowError(f"{s} outside spectral window [{s_min}, {s_max}]")
    if s == 0.0:
        return 0.0
    if s > 0.0:
        jumps = sum(j for s_k, j in sigma.point_masses if 0.0 <= s_k < s)
        return sigma.ac_measure(0.0, s) + jumps
    jumps = sum(j for s_k, j in sigma.point_masses if s <= s_k < 0.0)
    return -(sigma.ac_measure(s, 0.0) + jumps)
