"""Piece-aware adaptive quadrature for vectorized integrands.

Integrals of coefficient data are always split at piece boundaries first and
each piece is then refined adaptively with an embedded Gauss-Legendre pair
(n and 2n+1 points share no nodes, the difference serves as the error
estimate, in the manner of Gauss-Kronrod error control).  Integrands receive
a numpy array of abscissae and must return an array of values, which keeps
dense-output evaluation of ODE trajectories cheap.

The Fourier transform evaluates all its nodes on one shared composite grid
built from the 21-point rule below (transform._shared_grids); this adaptive
rule is that transform's per-node fallback and its test oracle, and it
serves the weighted inner product delta_inner.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureError

_GL_LOW = 10
_GL_HIGH = 21

_x_low, _w_low = np.polynomial.legendre.leggauss(_GL_LOW)
_x_high, _w_high = np.polynomial.legendre.leggauss(_GL_HIGH)


def _panel(fn: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> tuple[complex, float]:
    """Integral estimate and error estimate for one panel."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    f_low = np.asarray(fn(mid + half * _x_low))
    f_high = np.asarray(fn(mid + half * _x_high))
    i_low = half * np.sum(_w_low * f_low)
    i_high = half * np.sum(_w_high * f_high)
    return i_high, abs(i_high - i_low)


def adaptive_integrate(
    fn: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    abs_tol: float,
    rel_tol: float,
    max_subdivisions: int,
) -> complex:
    """Adaptively integrate fn over [a, b] by panel bisection.

    max_subdivisions bounds the bisection depth; exceeding it raises
    QuadratureError rather than returning a silently degraded value.
    """
    if a == b:
        return 0.0
    # Depth-first worklist of (a, b, estimate, error, depth).
    est, err = _panel(fn, a, b)
    work = [(a, b, est, err, 0)]
    total = 0.0 + 0.0j
    total_err = 0.0
    # Coarse scale for the relative test; updated as panels settle.
    scale = abs(est)
    while work:
        pa, pb, pest, perr, depth = work.pop()
        tol_here = max(abs_tol, rel_tol * max(scale, abs(total))) * (pb - pa) / (b - a)
        if perr <= tol_here or perr <= abs_tol:
            total += pest
            total_err += perr
            scale = max(scale, abs(total))
            continue
        if depth >= max_subdivisions:
            raise QuadratureError(
                f"quadrature did not converge on [{pa:.6g}, {pb:.6g}] "
                f"(error {perr:.3g}, depth {depth})"
            )
        pm = 0.5 * (pa + pb)
        est_l, err_l = _panel(fn, pa, pm)
        est_r, err_r = _panel(fn, pm, pb)
        work.append((pa, pm, est_l, err_l, depth + 1))
        work.append((pm, pb, est_r, err_r, depth + 1))
    if not np.isfinite(total_err) or not np.isfinite(abs(total)):
        raise QuadratureError("non-finite quadrature result")
    if np.iscomplexobj(total) and abs(np.imag(total)) == 0.0:
        return float(np.real(total))
    return total


def piecewise_integrate(
    fn: Callable[[np.ndarray], np.ndarray],
    breakpoints: Sequence[float],
    abs_tol: float,
    rel_tol: float,
    max_subdivisions: int,
) -> complex:
    """Integrate fn over consecutive [breakpoints[i], breakpoints[i+1]] panels.

    Subdivision at the listed boundaries is mandatory, never straddled.
    """
    total = 0.0 + 0.0j
    for t0, t1 in zip(breakpoints[:-1], breakpoints[1:]):
        total += adaptive_integrate(fn, float(t0), float(t1), abs_tol, rel_tol, max_subdivisions)
    if abs(np.imag(total)) == 0.0:
        return float(np.real(total))
    return complex(total)
