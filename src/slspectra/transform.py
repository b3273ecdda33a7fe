"""Generalized Fourier transform against a spectral function.

The transform of y is yhat(s) = int_a^b phi(t,s) Delta(t) y(t) dt, sampled
at a SpectralFunction's ac nodes and point masses.  The inverse, its
bound and the Parseval norm all come from one truncated spectral sum

    y_N(t) = sum_k phi(t, s_k) w_k yhat(s_k)

whose terms are the first k_max point masses s_k with their jumps w_k,
then the ac nodes u_j inside the window [lo, hi] with weights
w_j = rho(u_j) (cell_hi_j - cell_lo_j); the ac integral is thus evaluated
on the spectral function's own cells, whose nodes are midpoints in the
variable xi = sign(u) sqrt|u|, so the integrable 1/sqrt|u| edge of the
density never needs a function value at u = 0.  The error bound is
pointwise, sum_k |phi(t, s_k) w_k yhat(s_k)|, and the truncated Parseval
norm is sum_k w_k |yhat(s_k)|^2.

Membership in the uniform-convergence class F checks the left boundary
condition, the tau-dependent right condition (bc1/bc2/bc3) and the
representability l[y] = Delta f_y; for y in F the inverse converges
absolutely and uniformly, which uniform_convergence_profile measures over
a documented truncation schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, CrossCheckError, GridMismatchError, WindowError
from .nevanlinna import BoundaryParam, classify_bc
from .problem import SLProblem, delta_inner, delta_norm
from .propagator import fundamental_trajectory
from .spectral import (
    SpectralFunction,
    _ell,
    find_eigenvalues,
    point_mass,
    pure_point_spectral,
)

_ZERO_NORM = 1e-30  # below this, treat ||y||^2_Delta as zero


@dataclass(frozen=True)
class Truncation:
    """Explicit truncation: first k_max point masses, ac window [lo, hi]."""

    k_max: int
    ac_window: tuple[float, float]

    def __post_init__(self) -> None:
        if self.k_max < 0:
            raise ConfigError("k_max must be >= 0")
        lo, hi = self.ac_window
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
            raise ConfigError("ac_window must be a finite ordered pair")


@dataclass(frozen=True, eq=False)
class TransformedFn:
    """Samples of yhat aligned with one SpectralFunction's grid."""

    ac_u: np.ndarray
    ac_values: np.ndarray
    mass_values: tuple[tuple[float, complex], ...]
    source_norm_sq: float

    def __post_init__(self) -> None:
        if self.ac_u.shape != self.ac_values.shape:
            raise ConfigError("ac_values must align with ac_u")
        if self.source_norm_sq < 0:
            raise ConfigError("source_norm_sq must be >= 0")


class InverseResult(NamedTuple):
    value: complex
    abs_bound: float


class MembershipReport(NamedTuple):
    in_F: bool
    checks: tuple[tuple[str, bool, float], ...]


class ConvergenceReport(NamedTuple):
    truncations: tuple[tuple[str, float], ...]
    monotone_tail: bool
    values: tuple[np.ndarray, ...] = ()  # the truncated inverse on t_grid, per truncation


class EigenMode(NamedTuple):
    lam: float
    coefficient: float
    values: np.ndarray


def _as_vectorized(y: Callable) -> Callable[[np.ndarray], np.ndarray]:
    probe = np.array([0.0, 0.5])
    try:
        out = np.asarray(y(probe))
        if out.shape == probe.shape:
            return y
    except Exception:
        pass
    return np.vectorize(y)


def _phi_values(problem: SLProblem, s: float, t_arr: np.ndarray) -> np.ndarray:
    return fundamental_trajectory(problem, float(s), "phi").eval(t_arr)[0]


def _hat_at(problem: SLProblem, y: Callable, s: float) -> complex:
    traj = fundamental_trajectory(problem, float(s), "phi")

    def phi(t: np.ndarray) -> np.ndarray:
        return np.conjugate(traj.eval(t)[0])  # conj undone inside delta_inner

    return delta_inner(problem, y, phi)


def fourier_transform(
    problem: SLProblem, y: Callable, sigma: SpectralFunction
) -> TransformedFn:
    """yhat at every ac node and point mass of sigma, by piece-aware
    quadrature of phi(.,s) Delta y."""
    yv = _as_vectorized(y)
    ac_vals = np.array(
        [_hat_at(problem, yv, u) for u in sigma.ac_grid], dtype=complex
    )
    mass_vals = tuple(
        (s_k, _hat_at(problem, yv, s_k)) for s_k, _ in sigma.point_masses
    )
    norm_sq = max(delta_inner(problem, yv, yv).real, 0.0)
    return TransformedFn(
        ac_u=sigma.ac_grid.copy(),
        ac_values=ac_vals,
        mass_values=mass_vals,
        source_norm_sq=norm_sq,
    )


def _terms(
    sigma: SpectralFunction, yhat: TransformedFn, truncation: Truncation
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes s_k, sigma-weights w_k and yhat(s_k) of the truncated sum.

    The terms are the first k_max point masses with their jumps, then the ac
    nodes inside the window with weight density x cell width; terms of zero
    weight are dropped."""
    if not np.array_equal(yhat.ac_u, sigma.ac_grid):
        raise GridMismatchError("transform ac grid does not match the spectral function")
    if tuple(s for s, _ in yhat.mass_values) != tuple(s for s, _ in sigma.point_masses):
        raise GridMismatchError("transform masses do not match the spectral function")
    lo, hi = truncation.ac_window
    s_min, s_max = sigma.window
    tol = 1e-12 * (1.0 + max(abs(s_min), abs(s_max)))
    if lo < s_min - tol or hi > s_max + tol:
        raise WindowError(
            f"truncation window [{lo}, {hi}] exceeds spectral window "
            f"[{s_min}, {s_max}]"
        )
    masses = sigma.point_masses[: truncation.k_max]
    sel = (sigma.ac_grid >= lo) & (sigma.ac_grid <= hi)
    ac_weights = sigma.ac_density * (sigma.cell_hi - sigma.cell_lo)
    nodes = np.concatenate([[s for s, _ in masses], sigma.ac_grid[sel]])
    weights = np.concatenate([[jump for _, jump in masses], ac_weights[sel]])
    values = np.concatenate(
        [[v for _, v in yhat.mass_values[: truncation.k_max]], yhat.ac_values[sel]]
    )
    keep = weights != 0.0
    return nodes[keep], weights[keep], values[keep]


def _inverse_on_grid(
    problem: SLProblem,
    sigma: SpectralFunction,
    yhat: TransformedFn,
    t_arr: np.ndarray,
    truncation: Truncation,
) -> tuple[np.ndarray, np.ndarray]:
    """The truncated sum c @ Phi on a t grid, with Phi[k, j] = phi(t_j, s_k)
    and c = w * yhat; returns (values, pointwise bound |c| @ |Phi|)."""
    nodes, weights, values = _terms(sigma, yhat, truncation)
    c = weights * values
    phi = np.array([_phi_values(problem, s, t_arr) for s in nodes])
    phi = phi.reshape(nodes.size, t_arr.size)  # keeps the shape when no term is left
    return c @ phi, np.abs(c) @ np.abs(phi)


def inverse_transform(
    problem: SLProblem,
    sigma: SpectralFunction,
    yhat: TransformedFn,
    t: float,
    truncation: Truncation,
) -> InverseResult:
    """Truncated inverse sum_k phi(t, s_k) w_k yhat(s_k) at one point.

    The bound sum_k |phi(t, s_k) w_k yhat(s_k)| is pointwise at t, so it
    dominates every partial sum of the expansion at that t."""
    values, bounds = _inverse_on_grid(problem, sigma, yhat, np.array([float(t)]), truncation)
    return InverseResult(value=complex(values[0]), abs_bound=float(bounds[0]))


def parseval_defect(
    problem: SLProblem,
    sigma: SpectralFunction,
    y: Callable,
    truncation: Truncation,
) -> float:
    """Relative defect of the Parseval equality over the truncation.

    For ||y||_Delta = 0 the absolute transformed norm is returned (the
    relative form is meaningless on ker pi_Delta)."""
    yhat = fourier_transform(problem, y, sigma)
    _, weights, values = _terms(sigma, yhat, truncation)
    t_norm = float(np.dot(weights, np.abs(values) ** 2))
    if yhat.source_norm_sq <= _ZERO_NORM:
        return t_norm
    return abs(t_norm - yhat.source_norm_sq) / yhat.source_norm_sq


# ---------------------------------------------------------------------------
# membership in the uniform-convergence class F


def membership_in_F(
    problem: SLProblem,
    tau: BoundaryParam,
    y: Callable,
    y1: Callable,
    f_y: Callable,
    tol_bc: float = 1e-8,
    tol_res: float | None = None,
) -> MembershipReport:
    """Check the boundary conditions and l[y] = Delta f_y representability.

    y1 is the caller's quasi-derivative p y' (supplied, not differentiated
    here, so boundary residuals are not polluted by numerical
    differentiation); the equation residual uses central differences of y1
    piecewise in the interior.
    """
    yv, y1v, fv = _as_vectorized(y), _as_vectorized(y1), _as_vectorized(f_y)
    a, b = problem.a, problem.b
    checks: list[tuple[str, bool, float]] = []

    r_left = abs(
        math.cos(problem.alpha) * complex(yv(np.array([a]))[0])
        + math.sin(problem.alpha) * complex(y1v(np.array([a]))[0])
    )
    checks.append(("left_bc", r_left <= tol_bc, float(r_left)))

    bc = classify_bc(tau)
    yb = complex(yv(np.array([b]))[0])
    y1b = complex(y1v(np.array([b]))[0])
    if bc.label == "bc1":
        r = abs(yb)
        checks.append(("right_bc_value", r <= tol_bc, float(r)))
    elif bc.label == "bc2":
        r = abs(y1b - bc.d_tau * yb)
        checks.append(("right_bc_robin", r <= tol_bc * (1.0 + abs(yb)), float(r)))
    else:
        r1, r2 = abs(yb), abs(y1b)
        checks.append(("right_bc_value", r1 <= tol_bc, float(r1)))
        checks.append(("right_bc_quasi_derivative", r2 <= tol_bc, float(r2)))

    if tol_res is None:
        tol_res = 1e-6 * (1.0 + delta_norm(problem, fv))
    worst = 0.0
    for t0, t1 in zip(problem.breakpoints[:-1], problem.breakpoints[1:]):
        h = 1e-5 * (t1 - t0)
        ts = np.linspace(t0 + 3 * h, t1 - 3 * h, 33)
        y1_prime = (y1v(ts + h) - y1v(ts - h)) / (2.0 * h)
        resid = (-y1_prime + problem.q(ts) * yv(ts)) - problem.delta(ts) * fv(ts)
        worst = max(worst, float(np.max(np.abs(resid))))
    checks.append(("equation_residual", worst <= tol_res, worst))

    return MembershipReport(
        in_F=all(ok for _, ok, _ in checks), checks=tuple(checks)
    )


# ---------------------------------------------------------------------------
# convergence diagnostics and eigenfunction expansion


def uniform_convergence_profile(
    problem: SLProblem,
    sigma: SpectralFunction,
    yhat: TransformedFn,
    y_true: Callable,
    schedule: list[Truncation],
    t_grid,
) -> ConvergenceReport:
    """Sup-error of the truncated inverse against y_true over a nested
    truncation schedule; the report also carries the reconstructed values."""
    if not schedule:
        raise ConfigError("empty truncation schedule")
    for prev, cur in zip(schedule[:-1], schedule[1:]):
        nested = (
            cur.k_max >= prev.k_max
            and cur.ac_window[0] <= prev.ac_window[0]
            and cur.ac_window[1] >= prev.ac_window[1]
        )
        if not nested:
            raise ConfigError("truncation schedule must be nested")
    t_arr = np.asarray(list(t_grid), dtype=float)
    if t_arr.size == 0:
        raise ConfigError("empty t grid")
    y_ref = np.asarray(_as_vectorized(y_true)(t_arr))
    rows = []
    values = []
    for tr in schedule:
        vals, _ = _inverse_on_grid(problem, sigma, yhat, t_arr, tr)
        sup = float(np.max(np.abs(vals - y_ref)))
        lo, hi = tr.ac_window
        rows.append((f"k_max={tr.k_max}, ac_window=[{lo:g},{hi:g}]", sup))
        values.append(vals)
    sups = [s for _, s in rows]
    tail = sups[-3:]
    monotone = all(b <= a for a, b in zip(tail[:-1], tail[1:]))
    return ConvergenceReport(
        truncations=tuple(rows), monotone_tail=monotone, values=tuple(values)
    )


def eigen_expansion(
    problem: SLProblem,
    tau: BoundaryParam,
    y: Callable,
    K: int,
    t_grid=None,
) -> list[EigenMode]:
    """First K modes of the orthogonal (constant or infinite tau) expansion.

    v_k = phi(., lambda_k)/||phi||_Delta; coefficients are (y, v_k)_Delta.
    Internally cross-checked against inverse_transform with the pure-point
    spectral function whose jumps come from the residue route: the two
    agree iff sigma_k = 1/||phi(., lambda_k)||^2_Delta numerically.
    """
    if tau.kind not in ("constant", "infinity"):
        raise ConfigError(
            "eigen_expansion needs an orthogonal spectral function "
            "(constant real tau or infinity)"
        )
    if K < 1:
        raise ConfigError("K must be >= 1")
    t_arr = (
        np.linspace(problem.a, problem.b, 33)
        if t_grid is None
        else np.asarray(list(t_grid), dtype=float)
    )
    yv = _as_vectorized(y)

    ell = max(_ell(problem), 0.1)
    bps = np.asarray(problem.breakpoints)
    mids = 0.5 * (bps[:-1] + bps[1:])
    q_scale = 1.0 + float(np.max(np.abs(problem.q(mids))))
    lo = -10.0 * q_scale
    hi = 1.3 * ((K + 2) * math.pi / ell) ** 2 + 10.0
    eigs: list[float] = []
    for _ in range(4):
        eigs = find_eigenvalues(problem, tau, (lo, hi), max_count=K)
        if len(eigs) >= K:
            break
        hi *= 2.0
    if len(eigs) < K:
        raise ValueError(f"found only {len(eigs)} eigenvalues below {hi:g}, need {K}")

    modes: list[EigenMode] = []
    for lam_k in eigs:
        traj = fundamental_trajectory(problem, lam_k, "phi")

        def phi_fn(t: np.ndarray, _tr=traj) -> np.ndarray:
            return _tr.eval(t)[0].real

        nrm = delta_norm(problem, phi_fn)
        if nrm <= 0:
            raise CrossCheckError(f"eigenfunction at {lam_k} has zero Delta-norm")
        coeff = delta_inner(problem, yv, phi_fn).real / nrm
        modes.append(EigenMode(lam=lam_k, coefficient=coeff, values=phi_fn(t_arr) / nrm))

    recon = np.zeros(t_arr.shape)
    for mode in modes:
        recon = recon + mode.coefficient * mode.values

    window = (min(lo, eigs[0] - 1.0), max(hi, eigs[-1] + 1.0))
    sigma_pp = pure_point_spectral(
        [(lam_k, point_mass(problem, tau, lam_k)) for lam_k in eigs], window
    )
    yhat = fourier_transform(problem, yv, sigma_pp)
    alt, _ = _inverse_on_grid(
        problem, sigma_pp, yhat, t_arr, Truncation(k_max=K, ac_window=(0.0, 0.0))
    )
    scale = 1.0 + float(np.max(np.abs(recon)))
    diff = float(np.max(np.abs(alt.real - recon)))
    if diff > 1e-6 * scale:
        raise CrossCheckError(
            f"eigen expansion disagrees with pure-point inverse transform: "
            f"sup diff {diff:.3e}"
        )
    return modes
