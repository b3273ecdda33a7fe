"""Independent oracles for the two reference problems.

Everything here is derived by hand or by a deliberately different numerical
method (fixed-step RK4 shooting instead of transfer matrices / adaptive RK),
so agreement with the package is meaningful.  Nothing in this file imports
slspectra.

Reference problems, all on [0, 1] with alpha = -pi/2 (so the normalized
solution phi has phi(0) = 1, phi^[1](0) = 0):

  * free problem: p = 1, q = 0, Delta = 1
  * middle-third problem: p = 1, q = 0, Delta = 1 on [0,1/3] u [2/3,1],
    Delta = 0 on (1/3, 2/3)
  * linear-p problem: p = 1 + t/2, q = 0, Delta = 1 (Bessel closed form)
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy import special
from scipy.optimize import brentq

# ---------------------------------------------------------------------------
# free problem, closed forms
#
# phi(t, lam) = cos(r t),  phi^[1](t, lam) = -r sin(r t),   r = sqrt(lam)
# psi(t, lam) = sin(r t)/r,  psi^[1](t, lam) = cos(r t)
# (principal branch; all expressions are even in r, so the branch cancels)


def phi_free(lam: complex, t: float) -> tuple[complex, complex]:
    r = cmath.sqrt(lam)
    return cmath.cos(r * t), -r * cmath.sin(r * t)


def psi_free(lam: complex, t: float) -> tuple[complex, complex]:
    r = cmath.sqrt(lam)
    if abs(r) < 1e-8:
        # sin(rt)/r -> t as lam -> 0
        return complex(t), cmath.cos(r * t)
    return cmath.sin(r * t) / r, cmath.cos(r * t)


def m_sqrt_free(lam: complex) -> complex:
    """m for the free problem with the square-root boundary parameter.

    m = (sin r - cos r) / (r (cos r + sin r)), r the principal sqrt(lam).
    Odd in r only through tau = r itself, so the principal branch matters
    here (Im r >= 0 off the positive axis).
    """
    r = cmath.sqrt(lam)
    return (cmath.sin(r) - cmath.cos(r)) / (r * (cmath.cos(r) + cmath.sin(r)))


def density_sqrt_free(u: float) -> float:
    """Spectral density of the square-root parameter on the negative axis:
    2 / (pi sqrt(-u) (e^{2 sqrt(-u)} + e^{-2 sqrt(-u)}))."""
    if u >= 0.0:
        raise ValueError("closed-form density holds for u < 0")
    w = math.sqrt(-u)
    return 2.0 / (math.pi * w * (math.exp(2.0 * w) + math.exp(-2.0 * w)))


def sqrt_poles_free(n: int) -> list[float]:
    """Poles a_k = pi^2 (k - 1/4)^2, k = 1..n (tan r = -1 with r > 0)."""
    return [math.pi**2 * (k - 0.25) ** 2 for k in range(1, n + 1)]


SQRT_JUMP_FREE = 2.0  # every point mass of the square-root parameter

# tau = constant 0: poles of -cos r/(r sin r) at r = k pi
def neumann_eigs_free(n: int) -> list[float]:
    return [(k * math.pi) ** 2 for k in range(n)]


# tau = infinity: poles of (sin r / r)/cos r at r = (k + 1/2) pi
def dirichlet_eigs_free(n: int) -> list[float]:
    return [((k + 0.5) * math.pi) ** 2 for k in range(n)]


# hand-computed integrals used by the transform tests
INNER_COS_3PI4 = 0.5 - 1.0 / (3.0 * math.pi)  # int_0^1 cos^2(3 pi t/4) dt
CROSS_A1_A2 = 1.0 / (5.0 * math.pi)  # int_0^1 cos(3 pi t/4) cos(7 pi t/4) dt
YHAT_ONE_A1 = 2.0 * math.sqrt(2.0) / (3.0 * math.pi)  # int_0^1 cos(3 pi t/4) dt


# ---------------------------------------------------------------------------
# middle-third problem, closed-form eigenvalue inventory (tau = constant 0)
#
# Propagating phi piece by piece gives
#   phi^[1](1, lam) = -r sin(r/3) [2 cos(r/3) - (r/3) sin(r/3)],  r = sqrt(lam)
# so the eigenvalues are lam = 0, lam = (3 k pi)^2, and the roots of
# tan(r/3) = 6/r (one in each window (3 k pi, 3 k pi + 3 pi/2)).


def midthird_eigs_closed(lam_max: float) -> list[float]:
    out = [0.0]
    r_max = math.sqrt(lam_max)
    k = 1
    while 3.0 * k * math.pi <= r_max:
        out.append((3.0 * k * math.pi) ** 2)
        k += 1

    def g(r: float) -> float:
        return math.tan(r / 3.0) - 6.0 / r

    k = 0
    while 3.0 * k * math.pi <= r_max:
        lo = 3.0 * k * math.pi + 1e-9
        hi = 3.0 * k * math.pi + 1.5 * math.pi - 1e-9
        r = brentq(g, lo, hi, rtol=1e-15)
        if r <= r_max:
            out.append(r * r)
        k += 1
    return sorted(out)


# ---------------------------------------------------------------------------
# middle-third problem, shooting oracle (method independent of the package:
# fixed-step classical RK4 on y'' = -lam Delta y, piece by piece)

_MID_PIECES = ((0.0, 1.0 / 3.0, 1.0), (1.0 / 3.0, 2.0 / 3.0, 0.0), (2.0 / 3.0, 1.0, 1.0))


def _rk4_piece(y, v, lam, dval, h, n):
    """n RK4 steps of y' = v, v' = -lam*dval*y; y, v may be numpy arrays."""
    c = -lam * dval
    for _ in range(n):
        k1y, k1v = v, c * y
        k2y, k2v = v + 0.5 * h * k1v, c * (y + 0.5 * h * k1y)
        k3y, k3v = v + 0.5 * h * k2v, c * (y + 0.5 * h * k2y)
        k4y, k4v = v + h * k3v, c * (y + h * k3y)
        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return y, v


def shoot_midthird(lam, n_steps: int = 3000):
    """Endpoint state (y(1), y'(1)) of the shot started from (1, 0).

    lam may be a float or a numpy array (vectorized shooting).
    """
    per = n_steps // 3
    y = np.ones_like(np.asarray(lam, dtype=float)) if np.ndim(lam) else 1.0
    v = np.zeros_like(np.asarray(lam, dtype=float)) if np.ndim(lam) else 0.0
    for t0, t1, dval in _MID_PIECES:
        h = (t1 - t0) / per
        y, v = _rk4_piece(y, v, lam, dval, h, per)
    return y, v


def midthird_eigs_shooting(n: int, lam_hi: float = 200.0, n_steps: int = 3000) -> list[float]:
    """First n eigenvalues of the middle-third problem (tau = constant 0) by
    bisecting sign changes of y'(1) on a scan grid, shot with RK4."""
    grid = np.linspace(-1.0, lam_hi, max(64, int(lam_hi * 2)))
    _, vp = shoot_midthird(grid, n_steps)

    def g(lam: float) -> float:
        return shoot_midthird(float(lam), n_steps)[1]

    roots: list[float] = []
    for i in range(len(grid) - 1):
        if vp[i] == 0.0:
            roots.append(float(grid[i]))
        elif vp[i] * vp[i + 1] < 0.0:
            roots.append(brentq(g, float(grid[i]), float(grid[i + 1]), rtol=1e-14))
    roots.sort()
    return roots[:n]


def midthird_eigenfunction(lam: float, n_per_piece: int = 400):
    """Shot eigenfunction on a uniform grid per piece: (t_nodes, y_values)."""
    ts: list[float] = []
    ys: list[float] = []
    y, v = 1.0, 0.0
    for t0, t1, dval in _MID_PIECES:
        h = (t1 - t0) / n_per_piece
        for j in range(n_per_piece):
            ts.append(t0 + j * h)
            ys.append(y)
            y, v = _rk4_piece(y, v, lam, dval, h, 1)
    ts.append(1.0)
    ys.append(y)
    return np.asarray(ts), np.asarray(ys)


def midthird_coefficients_shooting(eigs: list[float], n_per_piece: int = 400) -> list[float]:
    """Expansion coefficients of y == 1 in the shot eigenbasis.

    c_k = (1, v_k)_Delta with v_k the Delta-normalized shot eigenfunction;
    integrals by trapezoid rule on the two live pieces only (Delta = 0 between).
    """
    out = []
    for lam in eigs:
        ts, ys = midthird_eigenfunction(lam, n_per_piece)
        live = (ts <= 1.0 / 3.0 + 1e-12) | (ts >= 2.0 / 3.0 - 1e-12)
        norm_sq = 0.0
        proj = 0.0
        for lo, hi in ((0.0, 1.0 / 3.0), (2.0 / 3.0, 1.0)):
            sel = live & (ts >= lo - 1e-12) & (ts <= hi + 1e-12)
            tt, yy = ts[sel], ys[sel]
            norm_sq += float(np.trapezoid(yy * yy, tt))
            proj += float(np.trapezoid(yy, tt))
        out.append(proj / math.sqrt(norm_sq))
    return out


# ---------------------------------------------------------------------------
# linear-p problem, closed forms via Bessel functions (tau = constant 0)
#
# With x = 1 + t/2 the equation -(x y')' = lam y reads x y_xx + y_x + 4 lam y
# = 0, Bessel's equation of order 0 in z = 4 sqrt(lam x).  So for lam > 0
# phi = C0(z) / C0(z0) with C_nu = Y1(z0) J_nu - J1(z0) Y_nu, which has
# phi^[1](0) ~ C1(z0) = 0; z0 = 4 sqrt(lam), z1 = 4 sqrt(1.5 lam).  The
# eigenvalues are lam = 0 (phi == 1) and the roots of C1(z1) = 0, and since
# int z C0^2 dz = z^2 (C0^2 + C1^2) / 2 and dt = z dz / (4 lam),
# ||phi||^2 = [z^2 (C0^2 + C1^2) / 2]_{z0}^{z1} / (4 lam C0(z0)^2).


def _linear_p_c(lam: float, nu: int, z: float) -> float:
    z0 = 4.0 * math.sqrt(lam)
    jn, yn = (special.j0, special.y0) if nu == 0 else (special.j1, special.y1)
    return float(special.y1(z0) * jn(z) - special.j1(z0) * yn(z))


def linear_p_eigs(lam_max: float) -> list[float]:
    """Eigenvalues in [0, lam_max] of the linear-p problem with tau = 0."""

    def g(r: float) -> float:  # C1(z1) as a function of r = sqrt(lam)
        return _linear_p_c(r * r, 1, 4.0 * math.sqrt(1.5) * r)

    rs = np.arange(1e-3, math.sqrt(lam_max) + 0.01, 0.01)
    vals = [g(float(r)) for r in rs]
    out = [0.0]
    for r0, r1, v0, v1 in zip(rs[:-1], rs[1:], vals[:-1], vals[1:]):
        if v0 * v1 < 0.0:
            r = brentq(g, float(r0), float(r1), xtol=1e-300, rtol=1e-15)
            if r * r <= lam_max:
                out.append(r * r)
    return out


def linear_p_mass(lam: float) -> float:
    """Spectral jump 1 / ||phi||^2 at an eigenvalue of the linear-p problem."""
    if lam == 0.0:
        return 1.0  # phi == 1 on [0, 1]
    z0, z1 = 4.0 * math.sqrt(lam), 4.0 * math.sqrt(1.5 * lam)

    def prim(z: float) -> float:
        return 0.5 * z * z * (_linear_p_c(lam, 0, z) ** 2 + _linear_p_c(lam, 1, z) ** 2)

    norm_sq = (prim(z1) - prim(z0)) / (4.0 * lam * _linear_p_c(lam, 0, z0) ** 2)
    return 1.0 / norm_sq
