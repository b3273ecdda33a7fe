"""Closed-form references for the benchmark workloads.

Nothing here imports slspectra: every value the benchmark checks the
package against is derived from the problem's own closed form.

* free problem (p = 1, q = 0, Delta = 1 on [0, 1], alpha = -pi/2) with
  tau = sqrt: poles pi^2 (k - 1/4)^2 with jump 2, density
  1 / (pi r cosh 2r) at u = -r^2, and yhat by 400-point Gauss-Legendre;
* p = 1 + t/2, q = 0, Delta = 1, tau = 0: with x = 1 + t/2 the equation is
  Bessel's of order 0 in z = 4 sqrt(lambda x), so the eigenvalues are 0 and
  the roots of J1(z0) Y1(z1) - J1(z1) Y1(z0), and the masses follow from
  int z C0^2 dz = z^2 (C0^2 + C1^2) / 2;
* middle-third weight (Delta = 1, 0, 1 on the thirds, p = 1, q = 0): a
  product of three 2x2 transfer matrices.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy import special
from scipy.optimize import brentq

_GL_X, _GL_W = np.polynomial.legendre.leggauss(400)


def gauss(fn, a: float, b: float) -> float:
    """400-point Gauss-Legendre integral of a vectorized fn over [a, b]."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    return float(half * np.dot(_GL_W, fn(mid + half * _GL_X)))


def _roots(fn, x_lo: float, x_hi: float, step: float) -> list[float]:
    """Sign-change roots of fn on a grid of the given step, refined by brentq."""
    xs = np.linspace(x_lo, x_hi, int(math.ceil((x_hi - x_lo) / step)) + 1)
    vals = [fn(float(x)) for x in xs]
    out = []
    for x0, x1, v0, v1 in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        if v0 == 0.0:
            out.append(float(x0))
        elif v0 * v1 < 0.0:
            out.append(brentq(fn, float(x0), float(x1), xtol=1e-300, rtol=1e-15, maxiter=500))
    return out


# ---------------------------------------------------------------------------
# free problem, tau = sqrt

FREE_JUMP = 2.0


def free_poles(lo: float, hi: float) -> list[float]:
    out = []
    k = 1
    while True:
        lam = (math.pi * (k - 0.25)) ** 2
        if lam > hi:
            return out
        if lam >= lo:
            out.append(lam)
        k += 1


def free_density(u: np.ndarray) -> np.ndarray:
    """sigma'(u): 1 / (pi r cosh 2r) at u = -r^2 < 0, zero for u > 0."""
    u = np.asarray(u, dtype=float)
    r = np.sqrt(np.maximum(-u, 0.0))
    with np.errstate(divide="ignore"):
        # 1/cosh(2r) = 2 e^{-2r} / (1 + e^{-4r}) never overflows
        neg = 2.0 * np.exp(-2.0 * r) / (1.0 + np.exp(-4.0 * r)) / (math.pi * r)
    return np.where(u < 0.0, neg, 0.0)


def free_phi(t: np.ndarray, u: float) -> np.ndarray:
    if u >= 0.0:
        return np.cos(math.sqrt(u) * t)
    return np.cosh(math.sqrt(-u) * t)


def free_hat(y, u: float) -> float:
    """yhat(u) = int_0^1 phi(t, u) y(t) dt."""
    return gauss(lambda t: free_phi(t, u) * y(t), 0.0, 1.0)


# ---------------------------------------------------------------------------
# p = 1 + t/2, tau = 0


def _bessel_det(lam: float) -> float:
    z0, z1 = 4.0 * math.sqrt(lam), 4.0 * math.sqrt(1.5 * lam)
    return float(special.j1(z0) * special.y1(z1) - special.j1(z1) * special.y1(z0))


def varcoef_eigenvalues(lo: float, hi: float) -> list[float]:
    """Eigenvalues of the p = 1 + t/2 Neumann problem in [lo, hi]."""
    s_roots = _roots(lambda s: _bessel_det(s * s), 1e-3, math.sqrt(hi), 0.01)
    lams = [0.0] + [s * s for s in s_roots]
    return [lam for lam in lams if lo <= lam <= hi]


def varcoef_mass(lam: float) -> float:
    """Jump 1 / ||phi||^2 of the spectral function at an eigenvalue."""
    if lam == 0.0:
        return 1.0
    z0, z1 = 4.0 * math.sqrt(lam), 4.0 * math.sqrt(1.5 * lam)
    a, b = special.y1(z0), -special.j1(z0)  # C = a J + b Y has C1(z0) = 0

    def prim(z):
        c0 = a * special.j0(z) + b * special.y0(z)
        c1 = a * special.j1(z) + b * special.y1(z)
        return 0.5 * z * z * (c0 * c0 + c1 * c1)

    c_at_0 = a * special.j0(z0) + b * special.y0(z0)  # phi(0) = 1 normalization
    norm_sq = (prim(z1) - prim(z0)) / (4.0 * lam * c_at_0 * c_at_0)
    return float(1.0 / norm_sq)


# ---------------------------------------------------------------------------
# middle-third weight

_THIRD = 1.0 / 3.0


def _transfer(lam: complex, length: float, weight: float) -> np.ndarray:
    """Transfer matrix of -(y')' = lam * weight * y across one piece."""
    if weight == 0.0 or lam == 0:
        return np.array([[1.0, length], [0.0, 1.0]], dtype=complex)
    s = cmath.sqrt(lam)
    c, sn = cmath.cos(s * length), cmath.sin(s * length)
    return np.array([[c, sn / s], [-s * sn, c]], dtype=complex)


def midthird_state(lam: complex, init=(1.0, 0.0)) -> np.ndarray:
    """(y(1), y'(1)) from (y(0), y'(0)) = init; phi has init (1, 0)."""
    m = (
        _transfer(lam, _THIRD, 1.0)
        @ _transfer(lam, _THIRD, 0.0)
        @ _transfer(lam, _THIRD, 1.0)
    )
    return m @ np.asarray(init, dtype=complex)


def midthird_eigenvalues(lo: float, hi: float) -> list[float]:
    """Eigenvalues for tau = 0, i.e. phi'(1) = 0.

    phi'(1) = -s sin(x) (2 cos x - x sin x) with s = sqrt(lam), x = s/3, so
    the roots are lam = 9 x^2 for x = k pi (k >= 0) and for the single root
    of x tan x = 2 in each (n pi, n pi + pi/2); these near-tangent pairs are
    what the scan must resolve.
    """
    x_max = math.sqrt(max(hi, 0.0)) / 3.0
    xs = [k * math.pi for k in range(int(x_max / math.pi) + 1)]
    n = 0
    while n * math.pi < x_max:
        g = lambda x: 2.0 * math.cos(x) - x * math.sin(x)  # noqa: E731
        xs.append(brentq(g, n * math.pi, n * math.pi + 0.5 * math.pi, xtol=1e-300, rtol=1e-15))
        n += 1
    lams = sorted(9.0 * x * x for x in xs)
    return [lam for lam in lams if lo <= lam <= hi]


def _midthird_phi_pieces(lam: float):
    """phi(., lam) for lam >= 0 on the two weighted thirds, as (t0, t1, fn)."""
    s = math.sqrt(lam)
    dead = _transfer(lam, _THIRD, 0.0) @ _transfer(lam, _THIRD, 1.0)
    y_a, y1_a = (dead @ np.array([1.0, 0.0], dtype=complex)).real

    def first(t):
        return np.cos(s * t)

    def last(t):
        tau = t - 2.0 * _THIRD
        if s == 0.0:
            return y_a + y1_a * tau
        return y_a * np.cos(s * tau) + y1_a * np.sin(s * tau) / s

    return ((0.0, _THIRD, first), (2.0 * _THIRD, 1.0, last))


def midthird_hat(lam: float, y) -> float:
    """int phi(t, lam) y(t) Delta(t) dt over the two weighted thirds."""
    return sum(gauss(lambda t, f=f: f(t) * y(t), a, b) for a, b, f in _midthird_phi_pieces(lam))


def midthird_mass_tau0(lam: float) -> float:
    """Jump 1 / ||phi||^2_Delta at an eigenvalue of the tau = 0 problem."""
    return 1.0 / sum(gauss(lambda t, f=f: f(t) ** 2, a, b) for a, b, f in _midthird_phi_pieces(lam))


def _sqrt_den(lam: complex) -> complex:
    """D(lam) = phi(1) tau - phi'(1) with tau = principal sqrt(lam)."""
    y, y1 = midthird_state(lam)
    return y * cmath.sqrt(lam) - y1


def midthird_sqrt_poles(lo: float, hi: float) -> list[float]:
    """Real poles of m for tau = sqrt: roots of D on lam > 0 (lam = 0 is a
    branch point, and lam < 0 carries the ac spectrum)."""
    x_max = math.sqrt(max(hi, 0.0)) / 3.0

    def d_of_x(x: float) -> float:
        return _sqrt_den(9.0 * x * x).real / x

    xs = _roots(d_of_x, 1e-3, x_max, 0.01)
    return [lam for lam in (9.0 * x * x for x in xs) if lo <= lam <= hi]


def midthird_sqrt_mass(lam: float) -> float:
    """Residue jump -N(lam)/D'(lam), D' by complex-step differentiation."""
    y_psi, y1_psi = midthird_state(lam, init=(0.0, 1.0))
    num = (y_psi * math.sqrt(lam) - y1_psi).real
    h = 1e-20 * (1.0 + lam)
    d_prime = _sqrt_den(complex(lam, h)).imag / h
    return float(-num / d_prime)


def midthird_sqrt_density(u: float) -> float:
    """(1/pi) Im m(u + i0): Im tau / |phi(1) tau - phi'(1)|^2 on u < 0."""
    if u >= 0.0:
        return 0.0
    tv = 1j * math.sqrt(-u)
    y, y1 = midthird_state(u)
    return float(tv.imag / (math.pi * abs(y * tv - y1) ** 2))
