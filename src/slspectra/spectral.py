"""m-function, Stieltjes inversion and spectral-function assembly.

The central object is the Weyl-type quotient

    m_tau(lambda) = (psi(b,lambda) tau(lambda) - psi^[1](b,lambda))
                    / (phi(b,lambda) tau(lambda) - phi^[1](b,lambda))

(tau = Infinity gives psi(b)/phi(b)).  m_tau is a Nevanlinna function; its
boundary behaviour on the real axis encodes a non-decreasing spectral
function sigma:

* density of the absolutely continuous part: rho(u) = (1/pi) lim Im
  m(u + i eps);
* point masses at real poles lambda_k of m, with jump -N(lambda_k) /
  D'(lambda_k) for m = N/D.

Two inversion routes are kept deliberately separate.  The boundary route
evaluates tau's own boundary values tau+(u) and uses the exact identity
Im m(u+i0) = Im tau+(u) / |phi(b,u) tau+(u) - phi^[1](b,u)|^2, valid for
real coefficient problems where phi(b,u) is real.  The extrapolation route
samples Im m(u + i eps) along a decreasing eps schedule and extrapolates
polynomially to eps = 0.  Point masses are similarly computed by residue
and by the eps-limit of eps * Im m, and the two must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    CrossCheckError,
    DoubleRootError,
    PoleContaminatedError,
    PoleProximityError,
    WindowError,
)
from .nevanlinna import INF_FLAG, BoundaryParam, eval_param
from .problem import SLProblem
from .propagator import endpoint_states
from .quadrature import piecewise_integrate
# brentq is not called here; it stays importable as spectral.brentq
from .roots import brentq, chandrupatla  # noqa: F401

_POLE_GUARD = 1e-14  # |D| below this fraction of |N| counts as "at a pole"
_EXCLUSION = 1e-3  # ac nodes keep |u - s_k| >= _EXCLUSION * (1 + |s_k|)
_SCAN_NODES = 200_000  # most nodes find_eigenvalues lays on its scan grid
_ROOT_XTOL, _ROOT_RTOL = 2e-12, 1e-14  # eigenvalue brackets in s: width <= 2e-12 + 4e-14 |s|
_ROOT_LTOL = 1e-15  # ... or width in lambda <= 1e-15 (1 + |lambda|)


def default_eps_schedule() -> tuple[float, ...]:
    """eps_j = 0.1 * 2^-j for j = 0..12."""
    return tuple(0.1 * 2.0 ** (-j) for j in range(13))


def _check_schedule(eps_schedule) -> np.ndarray:
    eps = np.asarray(
        list(eps_schedule) if eps_schedule is not None else default_eps_schedule(),
        dtype=float,
    )
    if eps.size < 3:
        raise ConfigError("eps schedule needs at least 3 entries")
    if np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
        raise ConfigError("eps schedule must be positive and strictly decreasing")
    return eps


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
            raise ConfigError(
                "real-axis evaluation needs boundary values tau+(u); "
                f"parameter {tau.label()} does not provide them"
            )
        v = tau.boundary_value(lam.real)
    v = complex(v)
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        return INF_FLAG
    return v


def _tau_array(tau: BoundaryParam, lams):
    """tau at every lam as a complex array (0 where tau is infinite), and the
    mask of the infinite values; a constant or infinite tau needs no per-lam
    call."""
    shape = np.shape(lams)
    if tau.kind == "constant":
        return np.full(shape, complex(tau.theta)), np.zeros(shape, bool)
    if tau.kind == "infinity":
        return np.zeros(shape, complex), np.ones(shape, bool)
    tvs = [_tau_value(tau, complex(lam)) for lam in lams]
    inf = np.array([tv is INF_FLAG for tv in tvs], dtype=bool)
    return np.array([0.0 if tv is INF_FLAG else tv for tv in tvs], dtype=complex), inf


def _quotient(problem: SLProblem, lams, tv, inf):
    """N = psi tau - psi^[1] and D = phi tau - phi^[1] at b for every lam, from
    tau values tv; N = psi and D = phi where inf marks tau = infinity."""
    (ph, ps), (ph1, ps1) = endpoint_states(problem, lams).transpose(1, 2, 0)
    return np.where(inf, ps, ps * tv - ps1), np.where(inf, ph, ph * tv - ph1)


def _m_values(problem: SLProblem, tau: BoundaryParam, lams) -> np.ndarray:
    """m_tau at every lam in lams; raises PoleProximityError if one is at a pole."""
    lams = np.asarray(lams, dtype=complex)
    num, den = _quotient(problem, lams, *_tau_array(tau, lams))
    at_pole = np.abs(den) <= _POLE_GUARD * np.abs(num)
    if np.any(at_pole):
        i = int(np.argmax(at_pole))
        raise PoleProximityError(
            f"m-function denominator vanishes at lambda={complex(lams[i])} "
            f"(|D|={abs(den[i]):.3e})"
        )
    return num / den


def m_function(problem: SLProblem, tau: BoundaryParam, lam: complex) -> complex:
    """Weyl-type m-function at lam; raises PoleProximityError at poles."""
    return complex(_m_values(problem, tau, [complex(lam)])[0])


# ---------------------------------------------------------------------------
# Stieltjes inversion: density


def _density_boundary(problem: SLProblem, tau: BoundaryParam, us) -> np.ndarray:
    """(1/pi) Im m(u+i0) at every u from tau's boundary values; exact in eps."""
    us = np.asarray(us, dtype=float)
    tv, inf = _tau_array(tau, us)
    (ph, _), (ph1, _) = endpoint_states(problem, us).transpose(1, 2, 0)
    den = np.where(inf, ph, ph * tv - ph1)
    scale = np.where(
        inf, np.abs(ph) + np.abs(ph1), np.maximum(np.maximum(np.abs(ph * tv), np.abs(ph1)), 1e-300)
    )
    pole = np.abs(den) < 1e-10 * scale
    if np.any(pole):
        raise PoleContaminatedError(
            f"boundary denominator vanishes at u={us[pole][0]}: point mass nearby"
        )
    return np.where(tv.imag == 0.0, 0.0, tv.imag / (math.pi * np.abs(den) ** 2))


def _density_extrapolation(
    problem: SLProblem, tau: BoundaryParam, u: float, eps: np.ndarray
) -> float:
    vals = _m_values(problem, tau, u + 1j * eps).imag
    k = min(6, eps.size)
    fit = np.polynomial.Polynomial.fit(eps[-k:], vals[-k:], deg=2)
    # Im m is analytic in eps off the poles, so the quadratic tracks the tail
    # samples to ~1e-11 relative; a nearby pole's Lorentzian bump (or its
    # 1/eps growth) leaves residuals many orders larger.
    res = max(abs(float(fit(e)) - v) for e, v in zip(eps[-k:], vals[-k:]))
    if res > 1e-8 * (1.0 + float(np.max(np.abs(vals[-k:])))):
        raise PoleContaminatedError(
            f"eps-extrapolation of Im m does not converge at u={u}: "
            "point mass nearby"
        )
    out = float(fit(0.0)) / math.pi
    if out < 0.0:
        if out > -1e-8:
            return 0.0
        raise PoleContaminatedError(
            f"negative density extrapolant {out:.3e} at u={u}; limit contaminated"
        )
    return out


def spectral_density(
    problem: SLProblem,
    tau: BoundaryParam,
    u: float,
    eps_schedule=None,
    method: str = "auto",
) -> float:
    """Density sigma'(u) = (1/pi) lim Im m(u + i eps).

    method "boundary" uses tau's boundary values and is exact in eps;
    "extrapolation" fits a quadratic in eps over the schedule's smallest
    entries; "auto" prefers the boundary route when tau supports it.
    """
    u = float(u)
    eps = _check_schedule(eps_schedule)
    if method == "auto":
        method = "boundary" if tau.has_boundary_values else "extrapolation"
    if method == "boundary":
        return float(_density_boundary(problem, tau, [u])[0])
    if method == "extrapolation":
        return _density_extrapolation(problem, tau, u, eps)
    raise ConfigError(f"unknown density method {method!r}")


# ---------------------------------------------------------------------------
# eigenvalues (real poles of m)


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
    """(values, valid) of the rescaled denominator at the real points us.

    Rescaling by max(1,|tau+|) keeps the scan bounded through large tau
    without flipping signs.  Nodes where tau+ is genuinely complex (ac
    spectrum) or near a tau pole are flagged invalid: no real m-pole there,
    and no propagation either.
    """
    us = np.asarray(us, dtype=float)
    tv, inf = _tau_array(tau, us)
    valid = inf | ((np.abs(tv.imag) <= 1e-12 * (1.0 + np.abs(tv))) & (np.abs(tv.real) <= 1e6))
    vals = np.zeros(us.size)
    if np.any(valid):
        tr, inf = tv.real[valid], inf[valid]
        _, den = _quotient(problem, us[valid], tr, inf)
        vals[valid] = den / np.where(inf, 1.0, np.maximum(1.0, np.abs(tr)))
    return vals, valid


def _scan_value(problem: SLProblem, tau: BoundaryParam, u: float):
    """(value, valid) of the scan function at one real u.  The package
    itself scans and refines in batches; perfbench/tracer.py counts calls to
    this name as scan evaluations."""
    vals, valid = _scan_values(problem, tau, [u])
    return float(vals[0]), bool(valid[0])


def _s_of(u: float) -> float:
    return math.copysign(math.sqrt(abs(u)), u)


def _u_of(s: float) -> float:
    return s * abs(s)


def _is_pole(problem: SLProblem, tau: BoundaryParam, lam0: float) -> bool:
    """Probe whether a zero of the denominator is a pole of m or a branch
    point: eps * Im m(lam0 + i eps) is eps-independent at a simple pole and
    ~ sqrt(eps) at a square-root branch point."""
    eps = np.array([1e-6, 4e-6])
    w1, w2 = eps * _m_values(problem, tau, lam0 + 1j * eps).imag
    if w1 <= 0.0:
        return False
    ratio = w2 / w1
    if abs(ratio - 1.0) <= 0.25:
        return True
    if ratio >= 1.6:
        return False
    return _winding_confirms(problem, tau, lam0)


def _winding_confirms(problem: SLProblem, tau: BoundaryParam, lam0: float) -> bool:
    """Fallback pole confirmation: winding number of D(lambda) on a small
    rectangle around lam0 (argument principle; assumes D analytic there,
    i.e. the rectangle must avoid tau's branch cut)."""
    h = 1e-2 * (1.0 + abs(lam0))
    v = 1e-2
    corners = [
        complex(lam0 - h, -v),
        complex(lam0 + h, -v),
        complex(lam0 + h, v),
        complex(lam0 - h, v),
        complex(lam0 - h, -v),
    ]
    z = np.array([
        z0 + (z1 - z0) * frac
        for z0, z1 in zip(corners[:-1], corners[1:])
        for frac in np.linspace(0.0, 1.0, 50, endpoint=False)
    ])
    _, samples = _quotient(problem, z, *_tau_array(tau, z))
    q = np.roll(samples, -1) / samples
    total = float(np.sum(np.arctan2(q.imag, q.real)))
    return round(total / (2 * math.pi)) >= 1


def _scan_segment(
    problem: SLProblem,
    tau: BoundaryParam,
    s_nodes: np.ndarray,
    depth: int,
    roots: list[float],
    brackets: list[tuple[float, float, float, float]],
) -> None:
    """Roots of the scan function on the given s nodes: zeros at a node go
    to roots, sign changes to brackets as (s_lo, s_hi, value_lo, value_hi)
    for find_eigenvalues to refine.

    Degenerating weights produce near-tangent eigenvalue pairs whose gap
    shrinks with lambda; at the base resolution such a pair is just an
    interior dip of |f| with no sign change, and whether three wide-spaced
    samples reveal the notch depends on grid phase.  So every interior
    same-sign dip triple is subdivided unconditionally until the depth
    budget runs out, and the brackets of every depth are collected.  A dip
    that survives the full depth at rounding level is a suspected double
    root and is an error, never merged.
    """
    n = s_nodes.size
    vals, valid = _scan_values(problem, tau, s_nodes * np.abs(s_nodes))
    for i in range(n - 1):
        if not (valid[i] and valid[i + 1]):
            continue
        if vals[i] == 0.0:
            roots.append(_u_of(float(s_nodes[i])))
            continue
        if vals[i] * vals[i + 1] < 0.0:
            brackets.append((float(s_nodes[i]), float(s_nodes[i + 1]), vals[i], vals[i + 1]))
    if valid[-1] and vals[-1] == 0.0:
        roots.append(_u_of(float(s_nodes[-1])))

    for i in range(1, n - 1):
        if not (valid[i - 1] and valid[i] and valid[i + 1]):
            continue
        trip = vals[i - 1 : i + 2]
        if np.any(trip == 0.0) or len(set(np.sign(trip))) != 1:
            continue
        if not (abs(vals[i]) <= abs(vals[i - 1]) and abs(vals[i]) <= abs(vals[i + 1])):
            continue
        if depth == 0:
            local = max(abs(vals[i - 1]), abs(vals[i + 1]))
            if abs(vals[i]) < 1e-9 * local:
                raise DoubleRootError(
                    f"denominator nearly vanishes without sign change near "
                    f"lambda={_u_of(float(s_nodes[i])):.8g}"
                )
            continue
        sub = np.linspace(float(s_nodes[i - 1]), float(s_nodes[i + 1]), 17)
        _scan_segment(problem, tau, sub, depth - 1, roots, brackets)


def find_eigenvalues(
    problem: SLProblem,
    tau: BoundaryParam,
    interval: tuple[float, float],
    max_count: int = 10000,
) -> list[float]:
    """Real poles of m_tau in [lo, hi], ascending.

    A scan in the variable s = sign(u) sqrt|u| brackets the sign changes of
    the (rescaled) denominator (_scan_segment), and chandrupatla refines all
    brackets together, with one _scan_values call per iteration.  A bracket
    stops at width 2e-12 + 4e-14 |s|, or at width 1e-15 (1 + |lambda|) in
    lambda, which ends the refinement of a root at lambda = 0 where the
    tolerance in s is far below rounding."""
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ConfigError(f"empty search interval [{lo}, {hi}]")
    if max_count < 1:
        raise ConfigError("max_count must be >= 1")
    if tau.kind == "analytic" and not tau.has_boundary_values:
        raise ConfigError(
            "real pole search needs boundary values tau+(u); "
            f"parameter {tau.label()} does not provide them"
        )
    step = math.pi / (6.0 * max(_ell(problem), 0.1))
    # one extra step of margin so a dip sitting on an interval edge still
    # has both triple neighbours; margin finds are dropped below
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
    roots: list[float] = []
    brackets: list[tuple[float, float, float, float]] = []
    _scan_segment(problem, tau, s_grid, 3, roots, brackets)
    if brackets:

        def f(s: np.ndarray) -> np.ndarray:
            vals, valid = _scan_values(problem, tau, _u_of(s))
            if not np.all(valid):
                raise PoleProximityError(
                    f"scan function invalid inside bracket at s={s[~valid][0]}"
                )
            return vals

        def converged(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
            u1 = _u_of(s1)
            return np.abs(_u_of(s2) - u1) <= _ROOT_LTOL * (1.0 + np.abs(u1))

        s_roots = chandrupatla(
            f, *np.array(brackets).T, _ROOT_XTOL, _ROOT_RTOL, maxiter=200, converged=converged
        )
        roots += _u_of(s_roots).tolist()

    if tau.kind == "analytic":
        roots = [r for r in roots if _is_pole(problem, tau, r)]
    roots = [
        r
        for r in roots
        if lo - 1e-12 * (1.0 + abs(lo)) <= r <= hi + 1e-12 * (1.0 + abs(hi))
    ]
    roots.sort()
    out: list[float] = []
    for r in roots:
        if out and r - out[-1] <= 1e-8 * (1.0 + abs(out[-1])):
            continue
        out.append(r)
        if len(out) >= max_count:
            break
    return out


# ---------------------------------------------------------------------------
# point masses


def _num_den(problem: SLProblem, tau: BoundaryParam, us):
    """N and D of m = N/D at the real points us, as real arrays."""
    us = np.asarray(us, dtype=float)
    tv, inf = _tau_array(tau, us)
    complex_tv = ~inf & (np.abs(tv.imag) > 1e-12 * (1.0 + np.abs(tv)))
    if np.any(complex_tv):
        raise ConfigError(f"tau+({us[complex_tv][0]}) is not real; no real pole possible here")
    return _quotient(problem, us, tv.real, inf)


def point_mass(
    problem: SLProblem,
    tau: BoundaryParam,
    lambda_k: float,
    eps_schedule=None,
) -> float:
    """Jump of sigma at a located simple pole lambda_k.

    Computed two independent ways and cross-checked to rel. 1e-3:
    (a) residue -N(lambda_k)/D'(lambda_k), D' by central difference;
    (b) limit of eps * Im m(lambda_k + i eps), extrapolated in eps^2.
    Returns (a).
    """
    lam_k = float(lambda_k)
    eps = _check_schedule(eps_schedule)

    h = 1e-5 * (1.0 + abs(lam_k))
    num, den = _num_den(problem, tau, [lam_k, lam_k + h, lam_k - h])
    d_prime = float(den[1] - den[2]) / (2.0 * h)
    if d_prime == 0.0:
        raise CrossCheckError(f"D'({lam_k}) = 0: not a simple pole")
    jump_res = -float(num[0]) / d_prime

    w = eps * _m_values(problem, tau, lam_k + 1j * eps).imag
    k = min(6, eps.size)
    # eps * Im m = sigma_k + c1 eps^2 + c2 eps^4 near a simple pole in a gap
    fit = np.polynomial.Polynomial.fit(eps[-k:] ** 2, w[-k:], deg=2)
    jump_lim = float(fit(0.0))

    if jump_res <= 0.0:
        raise CrossCheckError(
            f"residue jump {jump_res:.6g} at lambda={lam_k} is not positive"
        )
    if abs(jump_res - jump_lim) > 1e-3 * abs(jump_res):
        raise CrossCheckError(
            f"jump cross-check failed at lambda={lam_k}: "
            f"residue {jump_res:.10g} vs eps-limit {jump_lim:.10g}"
        )
    return jump_res


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

    @property
    def mass_locations(self) -> np.ndarray:
        return np.array([s for s, _ in self.point_masses])

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
    eps_schedule=None,
) -> SpectralFunction:
    """Assemble sigma on the window: locate poles, extract jumps, lay an ac
    grid avoiding pole neighbourhoods and fill densities."""
    s_min, s_max = float(window[0]), float(window[1])
    if not (np.isfinite(s_min) and np.isfinite(s_max) and s_min < s_max):
        raise ConfigError("window must be a finite ordered pair")
    if ac_nodes < 16:
        raise ConfigError("ac_nodes must be >= 16")
    eigs = find_eigenvalues(problem, tau, (s_min, s_max))
    masses = tuple(
        (lam_k, point_mass(problem, tau, lam_k, eps_schedule)) for lam_k in eigs
    )

    edges = _xi_edges(s_min, s_max, ac_nodes)
    xi_mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = np.array([_u_of(float(x)) for x in xi_mid])
    lo = np.array([_u_of(float(x)) for x in edges[:-1]])
    hi = np.array([_u_of(float(x)) for x in edges[1:]])
    keep = np.ones(nodes.size, dtype=bool)
    for s_k, _ in masses:
        keep &= np.abs(nodes - s_k) >= _EXCLUSION * (1.0 + abs(s_k))
    nodes, lo, hi = nodes[keep], lo[keep], hi[keep]

    dens = np.zeros(nodes.size)
    orthogonal = tau.kind in ("constant", "infinity")
    if not orthogonal and tau.has_boundary_values:
        tv, inf = _tau_array(tau, nodes)
        # real boundary value: Im m(u+i0) = 0 exactly off the poles, and pole
        # neighbourhoods are already excluded above
        need = ~inf & (np.abs(tv.imag) > 1e-14 * (1.0 + np.abs(tv)))
        if np.any(need):
            _check_schedule(eps_schedule)
            dens[need] = _density_boundary(problem, tau, nodes[need])
    elif not orthogonal:
        for i, u in enumerate(nodes):
            dens[i] = spectral_density(problem, tau, float(u), eps_schedule)
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
