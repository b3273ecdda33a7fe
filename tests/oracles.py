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


def _roots_in_s(g, lo: float, hi: float, n: int) -> list[float]:
    """Roots of the real function g in [lo, hi]: scipy brentq on the sign
    changes of g over n nodes uniform in s = sign(u) sqrt|u|."""
    s_of = lambda u: math.copysign(math.sqrt(abs(u)), u)
    us = [s * abs(s) for s in np.linspace(s_of(lo), s_of(hi), n)]
    vals = [g(u) for u in us]
    return [
        brentq(g, u0, u1, rtol=1e-15)
        for u0, u1, v0, v1 in zip(us[:-1], us[1:], vals[:-1], vals[1:])
        if v0 * v1 < 0.0
    ]


# tau = (a lam + b)/(c lam + d): m = N/D with, scaled by c lam + d,
#   D = (a lam + b) cos r + (c lam + d) r sin r,
#   N = (a lam + b) sin(r)/r - (c lam + d) cos r,
# both entire in lam.  W(phi, psi) = 1 and ad - bc > 0 leave D no zero
# shared with N, so the poles of m are the zeros of D, the jump at one is
# -N/D', and the factor c lam + d cancels from it.


def mobius_poles_free(a: float, b: float, c: float, d: float, lo: float, hi: float) -> list[float]:
    def den(u: float) -> float:
        r = cmath.sqrt(u)
        return ((a * u + b) * cmath.cos(r) + (c * u + d) * r * cmath.sin(r)).real

    return _roots_in_s(den, lo, hi, 20000)


def mobius_mass_free(a: float, b: float, c: float, d: float, lam: float) -> float:
    """Jump -N/D' at a pole lam != 0 of the free problem's m, with
    dD/dlam = a cos r - (a lam + b) sin(r)/(2r) + c r sin r
              + (c lam + d) (sin r + r cos r)/(2r)."""
    r = cmath.sqrt(lam)
    cos, sin = cmath.cos(r), cmath.sin(r)
    num = (a * lam + b) * sin / r - (c * lam + d) * cos
    d_den = (a * cos - (a * lam + b) * sin / (2 * r) + c * r * sin
             + (c * lam + d) * (sin + r * cos) / (2 * r))
    return (-num / d_den).real


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


def midthird_state(lam: complex, t: float, init=(1.0, 0.0)) -> tuple[complex, complex]:
    """(y(t), y'(t)) of the middle-third problem started from init at 0, piece
    by piece in closed form: y0 cos(r s) + y'0 sin(r s)/r on the live thirds
    (r = sqrt(lam)) and the line y0 + y'0 s across the dead one."""

    def live(y, v, s):
        r = cmath.sqrt(lam)
        c, sn = cmath.cos(r * s), (cmath.sin(r * s) / r if r != 0 else s)
        return y * c + v * sn, -lam * y * sn + v * c

    third = 1.0 / 3.0
    y, v = init
    if t <= third:
        return live(y, v, t)
    y, v = live(y, v, third)
    if t <= 2.0 * third:
        return y + v * (t - third), v
    return live(y + v * third, v, t - 2.0 * third)


def midthird_mass_tau0(lam: float) -> float:
    """Jump 1 / ||phi||^2_Delta at an eigenvalue lam > 0 of the tau = 0
    problem, integrated in closed form over the two live thirds, where
    phi = y cos(r s) + y' sin(r s)/r with s the distance from the third's
    start:  int_0^{1/3} phi^2 = y^2 (1/6 + sin(2r/3)/(4r))
    + (y'/r)^2 (1/6 - sin(2r/3)/(4r)) + (y y'/r^2) sin^2(r/3)."""
    r = math.sqrt(lam)
    half = math.sin(2.0 * r / 3.0) / (4.0 * r)
    even, odd = 1.0 / 6.0 + half, 1.0 / 6.0 - half
    cross = math.sin(r / 3.0) ** 2 / (r * r)
    norm_sq = even  # first third: y = 1, y' = 0
    y, v = (x.real for x in midthird_state(lam, 2.0 / 3.0))
    norm_sq += y * y * even + (v / r) ** 2 * odd + y * v * cross
    return 1.0 / norm_sq


# ---------------------------------------------------------------------------
# vectorised closed-form denominators for lam > 0, where r = sqrt(lam) is
# real and every expression stays real; their zeros are the poles of m


def mobius_den_free_array(a: float, b: float, c: float, d: float, lams) -> np.ndarray:
    """(a lam + b) cos r + (c lam + d) r sin r, the free problem's D for
    tau = (a lam + b)/(c lam + d), scaled by c lam + d, at every lam > 0."""
    lams = np.asarray(lams, dtype=float)
    r = np.sqrt(lams)
    return (a * lams + b) * np.cos(r) + (c * lams + d) * r * np.sin(r)


def sqrt_den_midthird_array(lams) -> np.ndarray:
    """r phi(1) - phi'(1) of the middle-third problem, D for tau = sqrt, at
    every lam > 0: phi = cos(r t) on the first third, a line across the
    dead one, then y cos(r s) + y' sin(r s)/r on the last (as in
    midthird_state)."""
    r = np.sqrt(np.asarray(lams, dtype=float))
    c, s = np.cos(r / 3.0), np.sin(r / 3.0)
    y, v = c, -r * s  # at t = 1/3
    y = y + v / 3.0  # at t = 2/3
    return r * (y * c + v * s / r) - (-r * y * s + v * c)


def mobius_den_midthird_array(a: float, b: float, c: float, d: float, x) -> np.ndarray:
    """(a lam + b) phi(1) - (c lam + d) phi'(1) of the middle-third problem at
    lam = 9 x^2, x >= 0, with phi(1) = cos 2x - x sin x cos x and phi'(1) =
    -3x sin x (2 cos x - x sin x), the pieces of midthird_state multiplied out."""
    x = np.asarray(x, dtype=float)
    lam, sn, cs = 9.0 * x * x, np.sin(x), np.cos(x)
    y, v = cs * cs - sn * sn - x * sn * cs, -3.0 * x * sn * (2.0 * cs - x * sn)
    return (a * lam + b) * y - (c * lam + d) * v


def mobius_poles_midthird(
    a: float, b: float, c: float, d: float, lo: float, hi: float
) -> list[float]:
    """Poles in [lo, hi], lam > 0, of the middle-third m for tau = (a lam +
    b)/(c lam + d): the zeros of mobius_den_midthird_array, one period
    k pi +- pi/2 of x = sqrt(lam)/3 at a time.  With t = tan x the
    denominator times 1 + t^2 is A + x (6B - A) t - (A + 3 x^2 B) t^2 (A = a
    lam + b, B = c lam + d): a quadratic in t whose coefficients hardly move
    across a period, so its vertex x_v separates the two zeros of a pair near
    k pi however close they are.  The period's brackets are its cells
    between x_v and 64 uniform nodes, bisected together to rounding width."""
    k = np.arange(int(math.sqrt(max(lo, 0.0)) / (3 * math.pi)),
                  int(math.sqrt(max(hi, 0.0)) / (3 * math.pi)) + 2)
    xv = k * math.pi
    for _ in range(2):  # the vertex, with the coefficients at the last guess
        A, B = a * 9.0 * xv * xv + b, c * 9.0 * xv * xv + d
        q = 2.0 * (A + 3.0 * xv * xv * B)
        xv = k * math.pi + np.arctan(np.divide(xv * (6.0 * B - A), q, out=np.zeros_like(q),
                                               where=q != 0.0))
    offsets = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 65)
    x = np.sort(np.column_stack([k[:, None] * math.pi + offsets, xv]), axis=1)
    x = np.maximum(x, 0.0)
    f = mobius_den_midthird_array(a, b, c, d, x)
    g, i = np.nonzero(np.sign(f[:, :-1]) * np.sign(f[:, 1:]) < 0.0)
    x0, x1, f0 = x[g, i], x[g, i + 1], f[g, i]
    for _ in range(80):  # a bracket of width pi/64 halves to one ulp in at most 60 steps
        xm = 0.5 * (x0 + x1)
        left = np.sign(mobius_den_midthird_array(a, b, c, d, xm)) == np.sign(f0)
        x0, x1 = np.where(left, xm, x0), np.where(left, x1, xm)
    roots = np.sort(9.0 * (0.5 * (x0 + x1)) ** 2)
    return roots[(roots >= lo) & (roots <= hi)].tolist()


def sign_change_cells(den, lo: float, hi: float, n: int, chunk: int = 1 << 18):
    """(left, right) edges in lam of the cells of an n-node grid uniform in
    r = sqrt(lam) over [lo, hi] (0 < lo < hi) where den changes sign,
    evaluated chunk by chunk so memory stays small."""
    rs = np.linspace(math.sqrt(lo), math.sqrt(hi), n)
    left, right = [], []
    for i in range(0, n - 1, chunk):
        r = rs[i : i + chunk + 1]
        sign = np.sign(den(r * r))
        k = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)
        left.append(r[k] ** 2)
        right.append(r[k + 1] ** 2)
    return np.concatenate(left), np.concatenate(right)


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


def linear_p_endpoints(lam: float) -> np.ndarray:
    """[[phi, psi], [phi^[1], psi^[1]]] at b = 1 of the linear-p problem, lam > 0.

    phi = C0(z) / C0(z0) and phi^[1] = p phi' = -(z/4) C1(z) / C0(z0), since
    dz/dt = sqrt(lam / p) and C0' = -C1.  psi = -2 pi S0(z) with
    S_nu = Y0(z0) J_nu - J0(z0) Y_nu, so psi(0) = 0, and psi^[1] =
    (pi z / 2) S1(z), which is 1 at z0 by the Wronskian J1 Y0 - J0 Y1 = 2/(pi z).
    """
    z0, z1 = 4.0 * math.sqrt(lam), 4.0 * math.sqrt(1.5 * lam)
    c00 = _linear_p_c(lam, 0, z0)
    s0 = float(special.y0(z0) * special.j0(z1) - special.j0(z0) * special.y0(z1))
    s1 = float(special.y0(z0) * special.j1(z1) - special.j0(z0) * special.y1(z1))
    return np.array([
        [_linear_p_c(lam, 0, z1) / c00, -2.0 * math.pi * s0],
        [-0.25 * z1 * _linear_p_c(lam, 1, z1) / c00, 0.5 * math.pi * z1 * s1],
    ])


def linear_p_phi(t: float, lam: float) -> float:
    """phi(t) of the linear-p problem, lam > 0: C0(4 sqrt(lam p(t))) / C0(z0)
    with p(t) = 1 + t/2."""
    z = 4.0 * math.sqrt(lam * (1.0 + 0.5 * t))
    return _linear_p_c(lam, 0, z) / _linear_p_c(lam, 0, 4.0 * math.sqrt(lam))


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
