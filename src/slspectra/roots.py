"""Bracketed root refinement, many brackets at a time.

chandrupatla refines an array of sign-change brackets together, calling
the function once per iteration on the new points of all live brackets, so
a caller whose function is cheaper per point in batches (the eigenvalue
scan of slspectra.spectral) pays one batch per iteration.  brentq is its
one-bracket call, with the call shape of scipy.optimize.brentq.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, SLSpectraError


def chandrupatla(f, x1, x2, f1, f2, xtol: float, rtol: float, maxiter: int, converged=None):
    """Roots of f in the brackets [x1[i], x2[i]], all refined together by
    Chandrupatla's method (Adv. Eng. Softw. 28, 1997).

    f maps an array of points to an array of values, and is called once per
    iteration on the new points of the brackets still live; f1 and f2 are
    the values at the bracket ends, of opposite signs.  A step is inverse
    quadratic interpolation through the last three points where they are
    close enough to linear, and bisection otherwise; a bracket that has not
    halved over two iterations bisects, so no bracket is slower than about
    twice plain bisection.  A bracket stops when f vanishes at an end, when
    its width is at most xtol + 4 rtol |x| (x the end with the smaller |f|),
    or when converged(x1, x2) holds.  Its root is then the zero of the
    secant through its ends, which lies inside it and, on the last, nearly
    linear bracket, is far closer to the root than either end.
    """
    x1, x2, f1, f2 = (np.array(v, dtype=float, ndmin=1) for v in (x1, x2, f1, f2))
    root = np.full(x1.shape, np.nan)
    live = np.arange(x1.size)
    t = np.full(x1.shape, 0.5)
    older, old = np.full(x1.shape, np.inf), np.abs(x2 - x1)  # widths two and one steps back
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(maxiter):
            xt = x1 + t * (x2 - x1)
            ft = f(xt)
            # x1 becomes the new point, x2 the end of opposite sign, x3 the end dropped
            same = np.sign(ft) == np.sign(f1)
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            x1, f1 = xt, ft
            best = np.abs(f1) < np.abs(f2)
            xm, fm = np.where(best, x1, x2), np.where(best, f1, f2)
            dx = np.abs(x2 - x1)
            tol = 0.5 * xtol + 2.0 * rtol * np.abs(xm)
            done = (fm == 0.0) | (dx <= 2.0 * tol)
            if converged is not None:
                done |= converged(x1, x2)
            secant = x1 - f1 * (x2 - x1) / (f2 - f1)
            root[live[done]] = np.where(fm == 0.0, xm, secant)[done]
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi) & (dx <= 0.5 * older)
            alpha = (x3 - x1) / (x2 - x1)
            t_iqi = f1 / (f2 - f1) * f3 / (f2 - f3) + alpha * f1 / (f3 - f1) * f2 / (f3 - f2)
            tl = tol / dx
            t = np.clip(np.where(iqi, t_iqi, 0.5), tl, 1.0 - tl)
            older, old = old, dx
            keep = ~done
            if not np.any(keep):
                return root
            live, x1, x2, f1, f2, t, older, old = (
                a[keep] for a in (live, x1, x2, f1, f2, t, older, old)
            )
    raise SLSpectraError(f"bracket refinement did not converge in {maxiter} iterations")


def brentq(
    f, a: float, b: float, xtol: float = 2e-12, rtol: float = 4 * np.finfo(float).eps,
    maxiter: int = 100,
) -> float:
    """Root of the scalar function f in [a, b], by chandrupatla on the one
    bracket; the call shape of scipy.optimize.brentq."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise ConfigError(f"f(a) and f(b) must have different signs, got {fa!r} and {fb!r}")
    roots = chandrupatla(lambda x: np.array([f(float(x[0]))]), a, b, fa, fb, xtol, rtol, maxiter)
    return float(roots[0])
