"""Generalized Fourier transform against a spectral function.

The transform of y is yhat(s) = int_a^b phi(t,s) Delta(t) y(t) dt, sampled
at a SpectralFunction's ac nodes and point masses.  All nodes share one
composite Gauss-Legendre grid on the support of Delta, split at every
coefficient breakpoint and sized by the largest local wave number over the
nodes.  A second grid with 1.5x the panels checks each node; the finer value
is kept when the two agree within the problem's quadrature tolerances, and
a node that fails is recomputed by the adaptive rule of quadrature.py, which
raises QuadratureError rather than return a degraded value.  The source norm
||y||^2_Delta comes from the same grids with the same check.  Both sides
use one matrix Phi[k, j] = phi(t_j, s_k) from propagator.phi_rows, a block
of nodes at a time.  The inverse, its bound and the Parseval norm all come
from one truncated spectral sum

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
from .propagator import _ROW_BATCH, fundamental_trajectory, phi_rows
from .quadrature import _w_high, _x_high
from .spectral import (
    SpectralFunction,
    _ell,
    _point_masses,
    find_eigenvalues,
    pure_point_spectral,
)

_ZERO_NORM = 1e-30  # below this, treat ||y||^2_Delta as zero
_MAX_PANELS = 4096  # per subinterval; bounds the grid for extreme nodes


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


def _phi_blocks(problem: SLProblem, s: np.ndarray, t: np.ndarray):
    """(slice, rows) over the nodes s: phi_rows on t of at most _ROW_BATCH
    entries at a time, so no caller holds the whole matrix."""
    n = max(1, _ROW_BATCH // max(1, t.size))
    for i in range(0, s.size, n):
        yield slice(i, i + n), phi_rows(problem, s[i : i + n], t)


def _hat_at(problem: SLProblem, y: Callable, s: float) -> complex:
    traj = fundamental_trajectory(problem, float(s), "phi")

    def phi(t: np.ndarray) -> np.ndarray:
        return np.conjugate(traj.eval(t)[0])  # conj undone inside delta_inner

    return delta_inner(problem, y, phi)


def _shared_grids(
    problem: SLProblem, s_ext: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Nodes t and weights w * Delta(t) of two composite Gauss-Legendre rules
    on the support of Delta, with m and ceil(1.5 m) panels per subinterval.

    The subintervals are the Delta-support pieces split at every breakpoint,
    since phi kinks where p, q or Delta jump.  m = ceil(1 + k len / pi), with
    k the largest local wave (or e-folding) number sqrt(|q - s Delta| / |p|)
    over nine probe points and the extreme nodes s_ext; |q - s Delta| is
    convex in s, so the extremes bound k for every node in between."""
    bps = np.asarray(problem.breakpoints)
    grids: tuple[list, list] = ([], [])
    for piece in problem.delta.pieces:
        if piece.rule.is_zero:
            continue
        inner = bps[(bps > piece.t0) & (bps < piece.t1)]
        edges = np.concatenate([[piece.t0], inner, [piece.t1]])
        for t0, t1 in zip(edges[:-1], edges[1:]):
            probe = np.linspace(t0, t1, 9)[:, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                k2 = np.abs(problem.q(probe) - s_ext * piece.rule(probe)) / np.abs(
                    problem.p(probe)
                )
                m = 1.0 + math.sqrt(float(np.max(k2))) * (t1 - t0) / math.pi
            m = math.ceil(m) if m < _MAX_PANELS else _MAX_PANELS  # nan/inf: cap
            for parts, panels in zip(grids, (m, math.ceil(1.5 * m))):
                half = 0.5 * (t1 - t0) / panels
                mids = t0 + half * (2.0 * np.arange(panels) + 1.0)
                t = (mids[:, None] + half * _x_high).ravel()
                parts.append((t, np.tile(half * _w_high, panels) * piece.rule(t)))
    return tuple(
        tuple(np.concatenate(arrs) for arrs in zip(*parts)) for parts in grids
    )


def fourier_transform(
    problem: SLProblem, y: Callable, sigma: SpectralFunction
) -> TransformedFn:
    """yhat at every ac node and point mass of sigma, and ||y||^2_Delta.

    All nodes share two composite Gauss-Legendre grids on the support of
    Delta (see _shared_grids), the second with 1.5x the panels of the first.
    phi(., s) of a block of nodes on both grids together is reduced at once
    to the dot products with w Delta y; the 1.5x value is kept when the two
    agree within max(abs_tol, rel_tol |yhat|) of problem.quad.
    A node that fails this check, such as one whose y kinks inside a piece,
    is recomputed by the adaptive rule (_hat_at), which raises
    QuadratureError if it cannot converge; the source norm falls back to
    delta_inner in the same way.  So no value degrades silently."""
    yv = _as_vectorized(y)
    masses = [s for s, _ in sigma.point_masses]
    nodes = np.concatenate([sigma.ac_grid, masses])
    s_ext = np.array([nodes.min(), nodes.max()]) if nodes.size else np.zeros(1)
    (t1, w1), (t2, w2) = _shared_grids(problem, s_ext)
    t_all = np.concatenate([t1, t2])
    y_all = np.asarray(yv(t_all))
    c1, c2 = w1 * y_all[: t1.size], w2 * y_all[t1.size :]
    abs_tol, rel_tol = problem.quad.abs_tol, problem.quad.rel_tol

    def checked(coarse, fine, adaptive: Callable[[], complex]) -> complex:
        if abs(coarse - fine) <= max(abs_tol, rel_tol * abs(fine)):
            return complex(fine)
        return complex(adaptive())

    coarse, fine = np.empty((2, nodes.size), complex)
    for blk, rows in _phi_blocks(problem, nodes, t_all):
        coarse[blk], fine[blk] = rows[:, : t1.size] @ c1, rows[:, t1.size :] @ c2
    hats = [
        checked(c, f, lambda s=s: _hat_at(problem, yv, s))
        for s, c, f in zip(nodes, coarse, fine)
    ]
    y_sq = np.abs(y_all) ** 2
    norm_sq = checked(
        w1 @ y_sq[: t1.size], w2 @ y_sq[t1.size :], lambda: delta_inner(problem, yv, yv)
    )
    n_ac = sigma.ac_grid.size
    return TransformedFn(
        ac_u=sigma.ac_grid.copy(),
        ac_values=np.array(hats[:n_ac], dtype=complex),
        mass_values=tuple(zip(masses, hats[n_ac:])),
        source_norm_sq=max(norm_sq.real, 0.0),
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
    total, bound = np.zeros(t_arr.size, complex), np.zeros(t_arr.size)
    for blk, rows in _phi_blocks(problem, nodes, t_arr):
        total += c[blk] @ rows
        bound += np.abs(c[blk]) @ np.abs(rows)
    return total, bound


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
    if t_arr.size == 0:
        raise ConfigError("empty t grid")
    yv = _as_vectorized(y)

    ell = max(_ell(problem), 0.1)
    bps = np.asarray(problem.breakpoints)
    mids = 0.5 * (bps[:-1] + bps[1:])
    q_scale = 1.0 + float(np.max(np.abs(problem.q(mids))))
    lo = -10.0 * q_scale
    hi = 1.3 * ((K + 2) * math.pi / ell) ** 2 + 10.0
    eigs = find_eigenvalues(problem, tau, (lo, hi), max_count=K)
    for _ in range(3):
        if len(eigs) >= K:
            break
        hi *= 2.0
        eigs = find_eigenvalues(problem, tau, (lo, hi), max_count=K)
    if len(eigs) < K:
        raise ConfigError(f"found only {len(eigs)} eigenvalues below {hi:g}, need {K}")

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
    sigma_pp = pure_point_spectral(zip(eigs, _point_masses(problem, tau, eigs).tolist()), window)
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
