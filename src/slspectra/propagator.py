"""Propagation of fundamental solutions across the interval.

The second-order expression -(p y')' + q y = lambda Delta y is integrated as
the first-order system in (y, y^[1]) with the quasi-derivative y^[1] = p y':

    y'     = y^[1] / p
    y^[1]' = (q - lambda Delta) y

One walk, _walk, carries initial columns (phi and psi, or the data given
to propagate) from a to b for a whole batch of lambda.  It leaves one
segment per piece, so steps never straddle a discontinuity of p, q or
Delta.  A segment holds the batch's states at the piece's ends, sol(t),
the states at points t inside it, and reduce, sums of c y(t) (or of
c y(t)^2) over panels of points inside it.  The rules of a piece choose
its kind; there are four:

* _ExactSegment, where p, q and Delta are constant: the transfer is
  exp(hA) = cosh(s) I + sinh(s)/s hA with A = [[0, 1/p], [q - lambda Delta,
  0]] and s^2 = h^2 (q - lambda Delta) / p, exact to rounding with det = 1.
  One elementwise pass gives the ends of all constant pieces; sol(t) is one
  partial step from the piece's start, and reduce a step to each panel
  midpoint and a partial step by each panel offset.
* _CPMSegment, where p and Delta are constant: or poly: rules with
  p Delta > 0 on the closed piece (q may be any rule): constant-perturbation
  steps (Ixaru 2000; Ledoux, Van Daele & Vanden Berghe 2005) in the
  Liouville variable x = int sqrt(Delta / p) dt, where u = (p Delta)^(1/4) y
  solves -u'' + Q u = lambda u.  A step is the closed-form transfer for the
  mean Qbar of Q on it plus three perturbation corrections for a Legendre
  fit of Q - Qbar, sums of lambda-free polynomials times the functions
  eta_m(Z), Z = (Qbar - lambda) h^2, which are entire in lambda.  The mesh
  is uniform in t, built once per (piece, ode_tol) on first use and the
  same for every lambda; its error falls as lambda grows.  sol(t) is one
  partial step from the mesh node below t.
* _MagnusSegment, on the other variable pieces (a table: rule for p or
  Delta, or a Delta that vanishes on the piece): n uniform steps of the
  sixth-order, three-point Gauss Magnus method (Blanes, Casas & Ros 2000),
  each the exponential of a traceless 2x2 matrix, so det = 1 too.  Its
  entries are polynomials in lambda with lambda-free coefficients cached
  per (piece, n); n doubles until the Richardson estimate |T_2n - T_n| / 63
  meets quad.ode_tol, for the whole batch in one _magnus_transfers call;
  a lambda that needs more than _MAGNUS_MAX_STEPS steps raises
  PropagationError.  sol(t) is one partial step from the mesh node below t.
* _ReferenceSegment: DOP853, adaptive Runge-Kutta of order 8(5,3) with
  dense output, one run per (lambda, column), restarted at the interior
  knots of table: rules; the runs live as long as the walk's segment.  It
  covers every piece when quad.closed_form_pieces = False (the INI key,
  not a tolerance, sets that), and nothing else: it is the oracle of the
  other three.  scipy is imported on its first use.

Complex lambda propagate a complex state; real ones stay real.  A
Trajectory holds the segments of a walk.  endpoint_states reads phi, psi
and their quasi-derivatives at b, all that slspectra.spectral needs;
phi_rows reads phi at points t for the inverse transform, phi_sums reduces
phi or phi^2 on panel grids for the forward one; propagate and
fundamental_trajectory are the walk of one lambda.  No lambda-dependent
result outlives its walk: a second call at the same lambda walks again.

The two fundamental solutions are fixed by the left boundary angle alpha:

    phi(a) = -sin(alpha),  phi^[1](a) = cos(alpha)
    psi(a) = -cos(alpha),  psi^[1](a) = -sin(alpha)

so their Wronskian phi psi^[1] - phi^[1] psi is identically 1.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import ConfigError, PropagationError
from .problem import ConstantRule, PolyRule, SLProblem, TableRule
from .quadrature import _w_high, _x_high

_MIN_RTOL = 2.5e-14  # DOP853 rejects tolerances at rounding level


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call: only the
    reference engine needs scipy."""
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


@dataclass(frozen=True)
class StateVec:
    """Solution value and quasi-derivative y^[1] = p y' at one point."""

    y: complex
    y1: complex

    def __post_init__(self) -> None:
        for v in (self.y, self.y1):
            if not (np.isfinite(complex(v).real) and np.isfinite(complex(v).imag)):
                raise PropagationError(f"non-finite state component {v!r}")


# Three-point Gauss Magnus step (Blanes, Casas & Ros 2000): nodes at
# h (1/2 - sqrt(15)/10, 1/2, 1/2 + sqrt(15)/10).
_GAUSS_OFF = math.sqrt(15.0) / 10.0
_MAGNUS_MIN_STEPS = 8
_MAGNUS_MAX_STEPS = 1 << 20  # beyond this a Magnus piece raises PropagationError
_MAGNUS_CACHED_STEPS = 1 << 16  # larger Magnus sample levels are not cached
_MAGNUS_STEPS_PER_OSC = 4  # starting steps per half-oscillation
_EXPM_SERIES_CUT = 1e-3  # |s^2| below this: Taylor series for cosh s, sinh(s)/s
_MAGNUS_BATCH = 1 << 13  # most rows x steps in one batched step array
_ROW_BATCH = 1 << 15  # most lambda x t (or panel) entries of phi held at once
_UNIFORM_ULPS = 16  # most ulps a midpoint may move in _ExactSegment.mid_states
_MID_SAVED_MIN = 2048  # fewer closed-form entries saved do not pay for mid_states' step


def _pmul(x, y):
    """Product of two polynomials in lambda, as ascending coefficient lists."""
    out = [0.0] * max(len(x) + len(y) - 1, 0)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            out[i + j] = out[i + j] + xi * yj
    return out


def _padd(x, y, c=1.0):
    """x + c y of polynomials in lambda, as ascending coefficient lists."""
    out = list(x) + [0.0] * (len(y) - len(x))
    for i, yi in enumerate(y):
        out[i] = out[i] + c * yi
    return out


def _lin(*terms):
    """sum c X over the (c, X) in terms, X = (D, A, B) with polynomial entries."""
    out = ([], [], [])
    for c, X in terms:
        out = tuple(_padd(o, x, c) for o, x in zip(out, X))
    return out


def _comm(X, Y):
    """The commutator [X, Y] of traceless X = [[D, A], [B, -D]] given as
    (D, A, B): (A1 B2 - A2 B1, 2 (D1 A2 - A1 D2), 2 (B1 D2 - D1 B2))."""
    (D1, A1, B1), (D2, A2, B2) = X, Y
    return (
        _padd(_pmul(A1, B2), _pmul(A2, B1), -1.0),
        _padd(_pmul([2.0], _pmul(D1, A2)), _pmul(A1, D2), -2.0),
        _padd(_pmul([2.0], _pmul(B1, D2)), _pmul(D1, B2), -2.0),
    )


def _magnus_parts(rules, left: np.ndarray, h):
    """Coefficients of the Magnus exponents Omega = [[D, A], [B, -D]] of the
    steps [left, left + h] as polynomials in lambda, (D, A, B) with D and A
    quadratic and B cubic, each an ascending tuple of arrays.

    The generator at the three nodes is X_i = [[0, 1/p], [q - lambda Delta, 0]],
    and with a1 = h X_2, a2 = sqrt(15) h/3 (X_3 - X_1),
    a3 = 10 h/3 (X_3 - 2 X_2 + X_1), C1 = [a1, a2] and
    C2 = -[a1, 2 a3 + C1]/60 the exponent is
    Omega = a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2]/240.
    """
    p_rule, q_rule, d_rule = rules
    nodes = np.concatenate([left + h * (0.5 - _GAUSS_OFF), left + 0.5 * h,
                            left + h * (0.5 + _GAUSS_OFF)])
    m = left.size
    a = (1.0 / p_rule(nodes)).reshape(3, m)
    q = q_rule(nodes).reshape(3, m)
    d = d_rule(nodes).reshape(3, m)
    X1, X2, X3 = (([], [a[i]], [q[i], -d[i]]) for i in range(3))
    a1 = _lin((h, X2))
    a2 = _lin((math.sqrt(15.0) / 3.0 * h, X3), (-math.sqrt(15.0) / 3.0 * h, X1))
    a3 = _lin((10.0 / 3.0 * h, X3), (-20.0 / 3.0 * h, X2), (10.0 / 3.0 * h, X1))
    C1 = _comm(a1, a2)
    C2 = _lin((-1 / 60, _comm(a1, _lin((2, a3), (1, C1)))))
    W = _comm(_lin((-20, a1), (-1, a3), (1, C1)), _lin((1, a2), (1, C2)))
    return tuple(tuple(c) for c in _lin((1, a1), (1 / 12, a3), (1 / 240, W)))


def _sample_level(rules, t0: float, t1: float, n: int):
    """_magnus_parts on n uniform steps of [t0, t1], read-only."""
    h = (t1 - t0) / n
    parts = _magnus_parts(rules, t0 + h * np.arange(n), h)
    for comp in parts:
        for arr in comp:
            arr.setflags(write=False)  # shared by every caller of the cache
    return parts


_cached_levels = lru_cache(maxsize=64)(_sample_level)  # a 2^16-step level holds 5.3 MB


def _magnus_samples(rules, t0: float, t1: float, n: int):
    """_sample_level, cached per (piece, n) up to _MAGNUS_CACHED_STEPS steps.
    A larger level (84 MB at 2^20 steps) is built on each use, so none stays
    in memory for the life of the process."""
    return (_cached_levels if n <= _MAGNUS_CACHED_STEPS else _sample_level)(rules, t0, t1, n)


def _cosh_sinhc(x):
    """cosh(s) and sinh(s)/s elementwise, with s^2 = x an array; real x stays real."""
    ax = np.abs(x)
    small = ax < _EXPM_SERIES_CUT
    any_small = np.count_nonzero(small)
    complex_x = x.dtype.kind == "c"
    r = np.sqrt(x if complex_x else ax)
    if any_small:
        np.putmask(r, small, 1.0)
    if complex_x or not np.count_nonzero(x < 0.0):
        C, S = np.cosh(r), np.sinh(r)
    elif not np.count_nonzero(pos := x > 0.0):  # s = i r
        C, S = np.cos(r), np.sin(r)
    else:
        rp, rn = np.where(pos, r, 0.0), np.where(pos, 0.0, r)
        C = np.where(pos, np.cosh(rp), np.cos(rn))
        S = np.where(pos, np.sinh(rp), np.sin(rn))
    S = S / r
    if any_small:  # the series only where it is used
        xs = x[small]
        if np.count_nonzero(xs):
            C[small] = 1.0 + xs * (1 / 2 + xs * (1 / 24 + xs / 720))
            S[small] = 1.0 + xs * (1 / 6 + xs * (1 / 120 + xs / 5040))
        else:  # x = 0 (Delta = q = 0 on the piece): the series is exactly 1
            C[small] = S[small] = 1.0
    return C, S


def _closed_form(c, tau):
    """cosh(s) and tau sinh(s)/s with s^2 = c tau^2: the entries of the
    closed-form transfer over a length tau of a piece where
    c = (q - lambda Delta) / p."""
    C, S = _cosh_sinhc(c * tau * tau)
    return C, S * tau


def _horner(coeffs, lam):
    """The polynomial with ascending coefficients coeffs at lam."""
    out = coeffs[-1]
    for c in coeffs[-2::-1]:
        out = out * lam + c
    return out


def _magnus_steps(parts, lam):
    """Step matrices exp(Omega) as component arrays (e00, e01, e10, e11).

    Omega is traceless, so exp(Omega) = cosh(s) I + sinh(s)/s Omega with
    s^2 = -det Omega = D^2 + A B.
    """
    D, A, B = (_horner(c, lam) for c in parts)
    C, S = _cosh_sinhc(D * D + A * B)
    SD = S * D
    return C + SD, S * A, S * B, C - SD


def _mul(L, R):
    """Elementwise 2x2 matrix products L @ R of component arrays."""
    a1, b1, c1, d1 = L
    a0, b0, c0, d0 = R
    return a1 * a0 + b1 * c0, a1 * b0 + b1 * d0, c1 * a0 + d1 * c0, c1 * b0 + d1 * d0


def _chain(E):
    """E[..., n-1] @ ... @ E[..., 0] of step components E by pairwise
    reduction along the last axis; n is a power of two."""
    while E[0].shape[-1] > 1:
        E = _mul([e[..., 1::2] for e in E], [e[..., ::2] for e in E])
    return [e[..., 0] for e in E]


def _prefix(E) -> None:
    """E[..., k] becomes E[..., k] @ ... @ E[..., 0], in place, in
    log2(n) passes of _mul."""
    n, k = E[0].shape[-1], 1
    while k < n:
        for e, prod in zip(E, _mul([e[..., k:] for e in E], [e[..., :-k] for e in E])):
            e[..., k:] = prod
        k *= 2


def _products(parts, lams: np.ndarray) -> np.ndarray:
    """E[n-1] @ ... @ E[0] of the steps in parts for every lambda, as
    components of shape (4, len(lams)), by pairwise reduction along the step
    axis; n is a power of two.  A step array holds at most _MAGNUS_BATCH
    entries, so lambda are taken in chunks of rows."""
    rows = max(1, _MAGNUS_BATCH // parts[0][0].size)
    out = np.empty((4, lams.size), lams.dtype)
    for i in range(0, lams.size, rows):
        out[:, i : i + rows] = _chain(_magnus_steps(parts, lams[i : i + rows, None]))
    return out


def _start_steps(rules, t0: float, t1: float, lams: np.ndarray) -> np.ndarray:
    """Per lambda, the smallest power of two above _MAGNUS_STEPS_PER_OSC
    times the piece's oscillation count int sqrt|lambda Delta - q| / p / pi,
    read off the lambda-free A and the linear part of B on the coarsest
    sample level, and at most _MAGNUS_MAX_STEPS."""
    _, (A, *_), (B0, B1, *_) = _magnus_samples(rules, t0, t1, _MAGNUS_MIN_STEPS)
    osc = np.sum(np.sqrt(np.abs(A * (B0 + lams[:, None] * B1))), axis=1) / math.pi
    n = np.full(lams.shape, _MAGNUS_MIN_STEPS)
    while np.any(grow := (n < _MAGNUS_STEPS_PER_OSC * osc) & (n < _MAGNUS_MAX_STEPS)):
        n[grow] *= 2
    return n


def _step_cap_error(t0: float, t1: float, lam) -> PropagationError:
    return PropagationError(
        f"Magnus steps on [{t0:.6g}, {t1:.6g}] would pass {_MAGNUS_MAX_STEPS} at "
        f"lambda={lam}; [quadrature] closed_form_pieces = false runs the DOP853 reference engine"
    )


def _magnus_transfers(rules, t0: float, t1: float, lams: np.ndarray, tol: float):
    """(n, T) for every lambda in lams: the transfer matrix T[i] over [t0, t1]
    on n[i] steps, with n[i] doubled until the Richardson estimate
    |T_2n - T_n| / 63 <= tol max(1, |T_2n|).  A lambda for which that takes
    more than _MAGNUS_MAX_STEPS steps, and overflow, raise PropagationError.

    lambda sharing a starting step count go through the doublings as one
    (rows, n) step array on the _magnus_samples levels, and only the rows
    that have not converged go on to the next doubling.
    """
    n_out = np.zeros(lams.shape, int)
    T_out = np.zeros((4, lams.size), lams.dtype)
    start = _start_steps(rules, t0, t1, lams)
    if np.any(full := start == _MAGNUS_MAX_STEPS):  # no level is left for the estimate
        raise _step_cap_error(t0, t1, lams[full][0])
    with np.errstate(all="ignore"):
        for n in np.unique(start).tolist():
            idx = np.flatnonzero(start == n)
            T = _products(_magnus_samples(rules, t0, t1, n), lams[idx])
            while idx.size:
                bad = ~np.isfinite(T).all(axis=0)
                if np.any(bad):
                    raise PropagationError(
                        f"non-finite transfer matrix on [{t0:.6g}, {t1:.6g}], "
                        f"lambda={lams[idx[bad][0]]}; solution overflow"
                    )
                if 2 * n > _MAGNUS_MAX_STEPS:
                    raise _step_cap_error(t0, t1, lams[idx[0]])
                n *= 2
                T2 = _products(_magnus_samples(rules, t0, t1, n), lams[idx])
                err = np.max(np.abs(T2 - T), axis=0) / 63.0  # 2^6 - 1, sixth order
                done = err <= tol * np.maximum(1.0, np.max(np.abs(T2), axis=0))
                n_out[idx[done]] = n
                T_out[:, idx[done]] = T2[:, done]
                idx, T = idx[~done], T2[:, ~done]
    return n_out, T_out.T.reshape(-1, 2, 2)


# Constant-perturbation (CPM) steps, after Ixaru (J. Comput. Appl. Math. 125,
# 2000) and MATSLISE (Ledoux, Van Daele & Vanden Berghe, ACM TOMS 31, 2005),
# in the Liouville variable x = int sqrt(Delta / p) dt, where u = m y with
# m = (p Delta)^(1/4) solves -u'' + Q u = lambda u, Q = q / Delta + m_xx / m.
_CPM_DEGREE = 6  # Legendre degree of the fit of Q - Qbar on a step
_CPM_ORDER = 3  # perturbation corrections kept
_CPM_MAX_STEPS = 1 << 10  # a piece that needs more keeps Magnus
# (Qbar - lambda) h^2 per step at which the mesh test compares two meshes: a
# step's error peaks near -50 to -150, where its oscillation meets the first
# Legendre term the fit leaves out, and falls beyond
_CPM_PROBES = np.array([0.0, -4.0, -16.0, -49.0, -100.0, -196.0, -400.0])
# P_n(2s - 1), the Legendre polynomials on [0, 1], in powers of s: row k, column n
_SHIFTED_LEGENDRE = np.array([[(-1) ** (n + k) * math.comb(n, k) * math.comb(n + k, k)
                               for n in range(_CPM_DEGREE + 1)]
                              for k in range(_CPM_DEGREE + 1)], dtype=float)


@lru_cache(maxsize=64)
def _derivatives(rule) -> tuple:
    """Ascending power coefficients of a constant or poly rule and of its
    first two derivatives."""
    c = np.atleast_1d(np.asarray(rule.coeffs if isinstance(rule, PolyRule) else rule.value,
                                 dtype=float))
    out = tuple(P.polyder(c, k) for k in range(3))
    for c in out:
        c.setflags(write=False)  # shared by every caller of the cache
    return out


def _cpm_takes(rules, t0: float, t1: float) -> bool:
    """True where p and Delta are constant or poly rules with p Delta > 0 on
    the closed piece: its minimum over t0, t1 and the real critical points
    between them is positive."""
    p_rule, _, d_rule = rules
    if not all(isinstance(r, (ConstantRule, PolyRule)) for r in (p_rule, d_rule)):
        return False
    f = P.polymul(_derivatives(p_rule)[0], _derivatives(d_rule)[0])
    crit = [r.real for r in P.polyroots(P.polyder(f)) if t0 < r.real < t1]
    return bool(np.min(P.polyval(np.array([t0, t1, *crit]), f)) > 0.0)


def _dx_dt(rules, t):
    """g = dx/dt = sqrt(Delta / p) at t."""
    p_rule, _, d_rule = rules
    return np.sqrt(d_rule(t) / p_rule(t))


def _values(rules, t):
    """p, p', p'' and Delta, Delta', Delta'' at t, with w = f'/f for f = p Delta."""
    p_rule, _, d_rule = rules
    (p, p1, p2), (d, d1, d2) = ([P.polyval(t, c) for c in _derivatives(rule)]
                                for rule in (p_rule, d_rule))
    return (p, p1, p2), (d, d1, d2), (p1 * d + p * d1) / (p * d)


def _liouville(rules, t):
    """m = (p Delta)^(1/4) and m_x = dm/dx = (dt/dx) m f' / (4 f) at t, for
    constant or poly p and Delta."""
    (p, _, _), (d, _, _), w = _values(rules, t)
    m = np.sqrt(np.sqrt(p * d))
    return m, np.sqrt(p / d) * m * w / 4.0


def _potential(rules, t):
    """Q = q / Delta + m_xx / m at t, with m_xx / m = (p / Delta) ((p'/p -
    Delta'/Delta) f' / (8 f) + f'' / (4 f) - 3 f'^2 / (16 f^2))."""
    (p, p1, p2), (d, d1, d2), w = _values(rules, t)
    f2 = (p2 * d + 2.0 * p1 * d1 + p * d2) / (p * d)  # f'' / f
    return rules[1](t) / d + (p / d) * ((p1 / p - d1 / d) * w / 8.0 + f2 / 4.0 - 3.0 * w * w / 16.0)


def _dx(rules, a, b):
    """x(b) - x(a) = int_a^b g dt by the 21-point Gauss rule."""
    half = 0.5 * (b - a)
    return half * (_dx_dt(rules, (a + half)[..., None] + half[..., None] * _x_high) @ _w_high)


def _sder2(a):
    """d^2/ds^2 of polynomials in s, coefficient rows ascending (columns apart)."""
    k = np.arange(2.0, len(a))[:, None]
    return a[2:] * (k * (k - 1.0)) if len(a) > 2 else np.zeros_like(a[:1])


def _cpm_correction(src_xi, src) -> list:
    """F_0, F_1, ... of one perturbation correction p = sum_m F_m(s)
    s^(2m+1) eta_m(Z) on a step scaled to s in [0, 1], where p'' = (Qbar -
    lambda) h^2 p + W p_prev with p(0) = p'(0) = 0 and the source W p_prev =
    src_xi eta_-1 + sum_m src[m] s^(2m+1) eta_m (Ixaru 2000): F_0 = 1/2
    int_0^s src_xi and F_m = s^-m / 2 int_0^s s^(m-1) (src[m-1] - F_(m-1)'').
    Each is an array of ascending coefficients in s, a column per step."""
    F = [np.vstack([np.zeros_like(src_xi[:1]),
                    src_xi / (2.0 * np.arange(1.0, len(src_xi) + 1.0))[:, None]])]
    m = 1
    while m <= len(src) or len(F[-1]) > 2:  # beyond, every F_m is zero
        a = -_sder2(F[-1])
        if m <= len(src):
            b = src[m - 1]
            a, b = (a, b) if len(a) >= len(b) else (b, a)
            a = a.copy()
            a[: len(b)] += b
        F.append(a / (2.0 * (np.arange(len(a)) + m))[:, None])
        m += 1
    return F


def _cpm_tables(W) -> np.ndarray:
    """Polynomial tables T, shape (4, M + 2, J, steps), of the step entries
    (u, v, u_s, v_s) in s = (x - x_k) / h for the scaled perturbation W(s) =
    h^2 (Q - Qbar) (ascending rows, a column per step): entry e is sum_m
    T[e, m + 1](s) eta_m(Z), Z = (Qbar - lambda) h^2 s^2, m = -1 ... M, and
    u_s has (Qbar - lambda) h^2 s eta_0 besides.  Zeroth order u = eta_-1,
    v = s eta_0, v_s = eta_-1; each correction p = sum_m F_m s^(2m+1) eta_m
    adds p_s = F_0 eta_-1 + sum_m (F_m' + s F_(m+1)) s^(2m+1) eta_m.  The
    corrections of u (source W eta_-1) and of v (source W s eta_0) run as
    the two halves of one set of columns."""
    n = W.shape[1]
    zero = np.zeros_like(W)
    src_xi, src, WW = np.hstack([W, zero]), [np.hstack([zero, W])], np.hstack([W, W])
    orders = []
    for _ in range(_CPM_ORDER):
        F = _cpm_correction(src_xi, src)
        orders.append(F)
        src_xi, src = np.zeros_like(WW[:1]), []
        for Fm in F:  # W F_m
            out = np.zeros((len(Fm) + len(W) - 1, 2 * n))
            for j, wj in enumerate(WW):
                out[j : j + len(Fm)] += Fm * wj
            src.append(out)
    M = max(len(F) for F in orders) - 1
    J = max(2 * m + 2 + len(Fm) for F in orders for m, Fm in enumerate(F))
    T = np.zeros((2, M + 2, J, 2 * n))  # (p, p_s) of the u and v columns
    for F in orders:
        T[1, 0, : len(F[0])] += F[0]
        for m, Fm in enumerate(F):
            T[0, m + 1, 2 * m + 1 : 2 * m + 1 + len(Fm)] += Fm
            T[1, m + 1, 2 * m + 1 : 2 * m + len(Fm)] += Fm[1:] * np.arange(1.0, len(Fm))[:, None]
            if m + 1 < len(F):
                T[1, m + 1, 2 * m + 2 : 2 * m + 2 + len(F[m + 1])] += F[m + 1]
    T = np.concatenate([T[..., :n], T[..., n:]])  # u, u_s, v, v_s
    T = T[[0, 2, 1, 3]]
    T[0, 0, 0] += 1.0  # zeroth order
    T[1, 1, 1] += 1.0
    T[3, 0, 0] += 1.0
    return T


@lru_cache(maxsize=8)
def _eta_series(M: int) -> np.ndarray:
    """Power-series coefficients, shape (K, 2, 1), of eta_(M-1) and eta_M:
    eta_m(Z) = sum_k c_k Z^k with c_0 = 1 / (2m + 1)!! and c_(k+1) = c_k /
    (2 (k + 1) (2k + 2m + 3)), cut where c_K (M + 1)^(2K) < 1e-17 c_0."""
    c = [[1.0 / math.prod(range(1, 2 * m + 2, 2)) for m in (M - 1, M)]]
    while c[-1][0] * (M + 1) ** (2 * len(c)) >= 1e-17 * c[0][0]:
        k = len(c) - 1
        c.append([ck / (2.0 * (k + 1) * (2 * k + 2 * m + 3)) for ck, m in zip(c[-1], (M - 1, M))])
    return np.array(c)[:, :, None]


def _eta(Z: np.ndarray, M: int) -> np.ndarray:
    """eta_-1(Z), ..., eta_M(Z) stacked on a new first axis, M >= 2: eta_-1 =
    cosh sqrt(Z), eta_0 = sinh sqrt(Z) / sqrt(Z) and eta_m = (eta_(m-2) -
    (2m - 1) eta_(m-1)) / Z.  The recursion runs upward where |Z| > (M + 1)^2
    and elsewhere downward from the power series of eta_M and eta_(M-1), the
    stable direction on each side.  Each is entire in Z, so a complex step in
    lambda stays a complex step."""
    out = np.empty((M + 2,) + Z.shape, Z.dtype)
    out[0], out[1] = _cosh_sinhc(Z)
    up = np.abs(Z) > (M + 1) ** 2
    if np.any(up):
        z = Z[up]
        e = [out[0][up], out[1][up]]
        for m in range(1, M + 1):
            e.append((e[m - 1] - (2 * m - 1) * e[m]) / z)
        out[2:, up] = e[2:]
    if not np.all(up):
        z = Z[~up]
        series = _eta_series(M)
        e = series[-1] * z
        for c in series[-2:0:-1]:  # Horner, elementwise, so no batch changes a digit
            e = (e + c) * z
        e = list(e + series[0])  # eta_(M-1), eta_M
        for m in range(M, 2, -1):  # e[0], e[1] = eta_(m-1), eta_m
            e.insert(0, z * e[1] + (2 * m - 1) * e[0])
        out[2:, ~up] = e
    return out


class _CPMMesh:
    """n uniform steps of the piece [t0, t1] in t: per step its length h in
    x, its reference potential qbar (the mean of Q in x) and the tables of
    _cpm_tables for the Legendre fit of degree _CPM_DEGREE to Q - qbar, with
    the v row scaled by h and the u' row by 1/h, so that the entries act on
    (u, u'), and the maps into = (y, y^[1]) -> (u, u') at t0 and out = its
    inverse at t1."""

    def __init__(self, rules, t0: float, t1: float, n: int):
        self.rules, self.n, self.k = rules, n, np.arange(n)
        self.t = np.linspace(t0, t1, n + 1)
        left = self.t[:-1, None]
        half = 0.5 * (self.t[1:, None] - left)
        tau = left + half * (1.0 + _x_high)  # Gauss nodes of each step in t
        w = half * _w_high * _dx_dt(rules, tau)  # their weights in x
        self.h = np.sum(w, axis=1)
        s = _dx(rules, left, tau) / self.h[:, None]
        legendre = (s[..., None] ** np.arange(_CPM_DEGREE + 1)) @ _SHIFTED_LEGENDRE
        norm = (2.0 * np.arange(_CPM_DEGREE + 1) + 1.0) / self.h[:, None]
        V = np.einsum("kg,kgn->kn", w * _potential(rules, tau), legendre) * norm
        self.qbar = V[:, 0]
        self.tables = _cpm_tables(self.h**2 * (_SHIFTED_LEGENDRE[:, 1:] @ V[:, 1:].T))
        self.tables[1] *= self.h
        self.tables[2] /= self.h
        self.full = self.tables.sum(axis=2)  # the tables at s = 1
        for arr in (self.t, self.h, self.qbar, self.tables, self.full):
            arr.setflags(write=False)  # _cpm_mesh shares the mesh with every caller
        (m0, m1), (mx0, mx1) = _liouville(rules, np.array([t0, t1]))
        self.into, self.out = (m0, 0.0, mx0, 1.0 / m0), (1.0 / m1, 0.0, -mx1, m1)

    @cached_property
    def reference(self):
        """The steps at lambda = 0, the right factors of each level of their
        pairwise product, and that product on (y, y^[1])."""
        C = S0 = self.steps(np.zeros(1))
        levels = []
        while C[0].shape[-1] > 1:
            levels.append([e[..., ::2] for e in C])
            C = _mul([e[..., 1::2] for e in C], [e[..., ::2] for e in C])
        return S0, levels, _mul(self.out, _mul([e[..., 0] for e in C], self.into))

    def steps(self, lams: np.ndarray, k=None, delta=None):
        """Transfers on (u, u') over [x_k, x_k + delta] (every full step by
        default) for every lambda, as components of shape (4, len(lams),
        len(k)).  Every sum is elementwise, so a lambda's steps do not depend
        on the batch it came in."""
        if k is None:
            k, delta, K = self.k, self.h, self.full
        else:
            s, T = delta / self.h[k], self.tables[..., k]
            K = T[:, :, -1]
            for j in range(T.shape[2] - 2, -1, -1):
                K = K * s + T[:, :, j]
        c = self.qbar[k] - lams[:, None]
        eta = _eta(c * delta * delta, K.shape[1] - 2)
        E = K[:, 0, None] * eta[0]
        for m in range(1, K.shape[1]):
            E += K[:, m, None] * eta[m]
        E[2] += c * delta * eta[1]
        return E


@lru_cache(maxsize=32)  # a 128-step mesh holds about 1.3 MB
def _cpm_mesh(rules, t0: float, t1: float, tol: float):
    """The lambda-free mesh of the CPM segment on a piece, or None where the
    segment does not take it (_cpm_takes) or no mesh of at most
    _CPM_MAX_STEPS steps passes: the mesh of 2n steps for the first n = 1, 2,
    4, ... whose transfers at the _CPM_PROBES differ from those on 2n steps
    by at most tol max(1, |T|).  The error of the 2n steps is far below
    that, and it falls as lambda grows."""
    if not _cpm_takes(rules, t0, t1):
        return None
    mesh = _CPMMesh(rules, t0, t1, 1)
    with np.errstate(all="ignore"):
        while mesh.n < _CPM_MAX_STEPS:
            fine = _CPMMesh(rules, t0, t1, 2 * mesh.n)
            lams = np.mean(mesh.qbar) - _CPM_PROBES / np.mean(mesh.h) ** 2
            T, T2 = (np.array(_chain(m.steps(lams))) for m in (mesh, fine))
            scale = np.maximum(1.0, np.max(np.abs(T2), axis=0))
            if np.all(np.max(np.abs(T - T2), axis=0) <= tol * scale):
                return fine
            mesh = fine
    return None


def _apply(M, state):
    """The 2x2 matrices M = (m00, m01, m10, m11), as component arrays,
    applied to state = (y, y^[1])."""
    a, b, c, d = M
    y, y1 = state
    return np.array([a * y + b * y1, c * y + d * y1])


def _exact_step(state, p, coef, C, S):
    """The closed-form transfer [[C, S/p], [coef S, C]] applied to state =
    (y, y^[1]): (y C + (y^[1]/p) S, (y coef) S + y^[1] C), one array, in
    five passes over the batch."""
    out = state * C
    part = np.empty_like(out)
    np.divide(state[1], p, out=part[0])
    np.multiply(state[0], coef, out=part[1])
    part *= S
    out += part
    return out


class _Segment:
    """States start and end, shape (2, columns, lambdas), at the ends of one
    piece [t0, t1]; sol(t) of shape (2, columns, lambdas, len(t)); reduce, per
    panel set (mids, x, c), sum c[p, i] y(mids[p] + x[i]) (or y^2) of shape
    (len(sets), columns, lambdas)."""

    def reduce(self, sets, squared: bool) -> np.ndarray:
        """sol(t) once on the points of all sets, its rows times each c."""
        y = self.sol(np.concatenate([(mids[:, None] + x).ravel() for mids, x, _ in sets]))[0]
        y = y * y if squared else y
        split = np.cumsum([c.size for _, _, c in sets])[:-1]
        return np.array([r @ c.ravel() for r, (_, _, c) in zip(np.split(y, split, axis=-1), sets)])


class _ExactSegment(_Segment):
    """Closed-form transfer across one constant-coefficient piece, with
    coef = q - lambda Delta; C and S are _closed_form over the whole piece,
    and sol(t) takes one partial step from the piece's start."""

    def __init__(self, t0: float, t1: float, start: np.ndarray, p, coef, C, S):
        self.t0, self.t1, self.start = t0, t1, start
        self._p, self._coef = p, coef
        self.end = _exact_step(start, p, coef, C, S)

    def sol(self, t: np.ndarray) -> np.ndarray:
        coef = self._coef[..., None]
        C, S = _closed_form(coef / self._p, t - self.t0)
        return _exact_step(self.start[..., None], self._p, coef, C, S)

    def mid_states(self, mids: np.ndarray) -> np.ndarray:
        """sol(mids) for M panel midpoints.  With B = ceil(sqrt(M)), the state at
        m_(aB+b) is taken at m_(aB) + b d, d = (m_(M-1) - m_0) / (M - 1): one
        _closed_form for the A = ceil(M/B) anchors and the B offsets, and one
        broadcast step, instead of one _closed_form per midpoint.  Midpoints go
        to sol when that saves fewer than _MID_SAVED_MIN closed-form entries, or
        when they are not uniform: a point taken more than _UNIFORM_ULPS off."""
        M = mids.size
        B = math.isqrt(M - 1) + 1
        A = -(-M // B)
        if self._coef.size * (M - A - B) < _MID_SAVED_MIN:
            return self.sol(mids)
        anchors, offsets = mids[::B], (mids[-1] - mids[0]) / (M - 1) * np.arange(B)
        taken = (anchors[:, None] + offsets).ravel()[:M]
        if np.max(np.abs(taken - mids)) > _UNIFORM_ULPS * np.spacing(np.max(np.abs(mids))):
            return self.sol(mids)
        coef = self._coef[..., None]
        C, S = _closed_form(coef / self._p, np.concatenate([anchors - self.t0, offsets]))
        y = _exact_step(self.start[..., None], self._p, coef, C[:, :A], S[:, :A])
        y = _exact_step(y[..., None], self._p, coef[..., None], C[:, None, A:], S[:, None, A:])
        return y.reshape(*y.shape[:-2], -1)[..., :M]

    def reduce(self, sets, squared: bool) -> np.ndarray:
        """exp((m + x) A) = exp(x A) exp(m A): y = C Y + S Z with (Y, Z) = (y,
        y^[1]/p) at the midpoints and (C, S) the steps by the offsets, so sums
        over x are matmuls; cancelling terms lose up to exp(2|s|) in rounding."""
        out = []
        for mids, x, c in sets:
            (Y, Z), (C, S) = self.mid_states(mids), _closed_form(self._coef[..., None] / self._p, x)
            Z = Z / self._p
            terms = ([(Y * Y, C * C), (2 * Y * Z, C * S), (Z * Z, S * S)] if squared
                     else [(Y, C), (Z, S)])
            out.append(sum(np.sum(V * (F @ c.T), axis=-1) for V, F in terms))
        return np.array(out)


class _MagnusSegment(_Segment):
    """Magnus transfers across one variable piece from one _magnus_transfers
    batch.  The n + 1 mesh-node states of a lambda, which sol(t) steps from,
    come from a prefix product on first use; only the last lambda's are kept,
    so endpoint-only walks never build them and a batch holds one mesh at a
    time."""

    def __init__(self, t0, t1, start, rules, lams, rtol):
        self.t0, self.t1, self.start = t0, t1, start
        self._rules, self._lams = rules, lams
        self._n, T = _magnus_transfers(rules, t0, t1, lams, rtol)
        self.end = _apply(T.transpose(1, 2, 0).reshape(4, 1, -1), start)
        self._nodes = (None, None)

    def _node_states(self, i: int) -> np.ndarray:
        """States of lambda i at the mesh nodes, shape (2, columns, n + 1)."""
        if self._nodes[0] != i:
            n = self._n[i]
            E = _magnus_steps(_magnus_samples(self._rules, self.t0, self.t1, n), self._lams[i])
            _prefix(E)
            y0 = self.start[:, :, i, None]
            self._nodes = (i, np.concatenate([y0, _apply(E, y0)], axis=2))
        return self._nodes[1]

    def sol(self, t: np.ndarray) -> np.ndarray:
        out = np.empty(self.start.shape + t.shape, self.start.dtype)
        for n in np.unique(self._n).tolist():
            h = (self.t1 - self.t0) / n
            k = np.clip(np.floor((t - self.t0) / h).astype(int), 0, n - 1)
            left = self.t0 + h * k
            parts = _magnus_parts(self._rules, left, t - left)
            for i in np.flatnonzero(self._n == n).tolist():
                E = np.array(_magnus_steps(parts, self._lams[i]))[:, None]
                out[:, :, i] = _apply(E, self._node_states(i)[:, :, k])
        return out


class _CPMSegment(_Segment):
    """CPM transfers across one variable piece on its lambda-free _cpm_mesh:
    (u, u') = (m y, y^[1] / m + m_x y) at t0, one product of the mesh's steps
    for the whole batch, and y = u / m, y^[1] = m u' - m_x u at t1 (both maps
    have determinant 1).  The product on (y, y^[1]) is its value at lambda = 0
    (the mesh's reference) plus the rest, the corner of the product of the
    block steps [[S, S - S(0)], [0, S(0)]] mapped out: near lambda = 0, where
    y^[1] is small against m_x y, the rounding of the first part is the same
    for every lambda, and the second keeps its relative accuracy.  The node
    states, which sol(t) takes one partial step from, come from one prefix
    product on first use."""

    def __init__(self, t0, t1, start, mesh: _CPMMesh, lams):
        self.t0, self.t1, self.start = t0, t1, start
        self._mesh, self._lams = mesh, lams
        S0, levels, ref_end = mesh.reference
        A = self._steps = mesh.steps(lams)
        B = [e - e0 for e, e0 in zip(A, S0)]
        for C0 in levels:
            (A1, A0), (B1, B0) = ([[e[..., 1::2] for e in X], [e[..., ::2] for e in X]]
                                  for X in (A, B))
            B = [x + y for x, y in zip(_mul(A1, B0), _mul(B1, C0))]
            A = _mul(A1, A0)
        X = _mul(mesh.out, _mul([e[..., 0] for e in B], mesh.into))
        self.end = _apply([r + x for r, x in zip(ref_end, X)], start)
        self._u0 = _apply(mesh.into, start)
        self._nodes = None

    def sol(self, t: np.ndarray) -> np.ndarray:
        mesh = self._mesh
        if self._nodes is None:
            E = [e.copy() for e in self._steps]
            _prefix(E)
            u0 = self._u0[..., None]
            self._nodes = np.concatenate([u0, _apply(E, u0)], axis=-1)
        k = np.clip(np.searchsorted(mesh.t, t, side="right") - 1, 0, mesh.n - 1)
        E = mesh.steps(self._lams, k, _dx(mesh.rules, mesh.t[k], t))
        m, mx = _liouville(mesh.rules, t)
        return _apply((1.0 / m, 0.0, -mx, m), _apply(E, self._nodes[..., k]))


def _piece_rhs(p_rule, q_rule, d_rule, lam):
    """Right-hand side closure for one piece; constants get a fast path."""
    if (
        isinstance(p_rule, ConstantRule)
        and isinstance(q_rule, ConstantRule)
        and isinstance(d_rule, ConstantRule)
    ):
        inv_p = 1.0 / p_rule.value
        coef = q_rule.value - lam * d_rule.value

        def rhs(t, y):
            return (y[1] * inv_p, coef * y[0])

        return rhs

    def rhs(t, y):
        ta = np.array([t])
        return (y[1] / p_rule(ta)[0], (q_rule(ta)[0] - lam * d_rule(ta)[0]) * y[0])

    return rhs


class _ReferenceSegment(_Segment):
    """DOP853 across one piece, one dense run per (column, lambda), in real
    arithmetic for a real lambda and start state, restarted at the interior
    knots of the piece's table: rules, where the spline's derivatives jump.
    The runs are kept in the segment, so sol(t) reads any number of points
    from them; a non-finite start state raises PropagationError before any
    run."""

    def __init__(self, t0, t1, start, rules, lams, rtol, atol):
        self.t0, self.t1, self.start = t0, t1, start
        knots = {x for r in rules if isinstance(r, TableRule) for x in r.knots}
        self._edges = [t0, *sorted(x for x in knots if t0 < x < t1), t1]
        self.end = np.empty_like(start)
        self._runs = {}
        for j, i in np.ndindex(start.shape[1:]):
            lam, y0 = lams[i].item(), start[:, j, i]
            if not np.isfinite(y0).all():
                raise PropagationError(
                    f"non-finite state at t={t0:.6g}, lambda={lam}; solution overflow"
                )
            if lam.imag == 0.0 and not np.any(np.imag(y0)):
                lam, y0 = lam.real, y0.real
            runs = self._runs[j, i] = []
            for a, b in zip(self._edges[:-1], self._edges[1:]):
                run = solve_ivp(_piece_rhs(*rules, lam), (a, b), y0, method="DOP853",
                                rtol=rtol, atol=atol[j], dense_output=True)
                if not run.success:
                    raise PropagationError(
                        f"integration failed on [{a:.6g}, {b:.6g}] at lambda={lam}: "
                        f"{run.message}"
                    )
                runs.append(run)
                y0 = run.y[:, -1]
            self.end[:, j, i] = runs[-1].y[:, -1]

    def sol(self, t: np.ndarray) -> np.ndarray:
        out = np.empty(self.start.shape + t.shape, self.start.dtype)
        part = np.clip(np.searchsorted(self._edges, t, side="right") - 1, 0, len(self._edges) - 2)
        for (j, i), runs in self._runs.items():
            for k in np.unique(part).tolist():
                out[:, j, i, part == k] = runs[k].sol(t[part == k])
        return out


@lru_cache(maxsize=32)
def _pieces(problem: SLProblem):
    """(t0, t1, (p, q, Delta) rules, all constant?) of every piece, cached per
    problem."""
    bps = problem.breakpoints
    out = []
    for t0, t1 in zip(bps[:-1], bps[1:]):
        mid = np.array([0.5 * (t0 + t1)])
        coefs = (problem.p, problem.q, problem.delta)
        rules = tuple(c.pieces[int(c.piece_index(mid)[0])].rule for c in coefs)
        out.append((t0, t1, rules, all(isinstance(r, ConstantRule) for r in rules)))
    return tuple(out)


@lru_cache(maxsize=64)
def _constants(problem: SLProblem, dtype) -> tuple:
    """h, p, q and Delta of the constant pieces in order, each of shape
    (pieces, 1), and p of each piece as a 0-d array: the lambda-free inputs
    of their closed forms, built once per problem and dtype beside _pieces.
    They take the batch's dtype, so no operation with them casts; a float
    cast to complex is v + 0i, the same operand either way."""
    const = [(t1 - t0, *(r.value for r in rules)) for t0, t1, rules, c in _pieces(problem) if c]
    out = np.array(const, dtype).reshape(-1, 4, 1).transpose(1, 0, 2)
    out.setflags(write=False)  # shared by every walk of the problem
    return (*out, tuple(out[1, k, 0, ...] for k in range(len(const))))


@np.errstate(all="ignore")  # overflow is caught at b
def _walk(problem: SLProblem, lams: np.ndarray, inits: np.ndarray) -> list:
    """The segments, one per piece, of the walk of the module docstring: the
    initial columns inits, shape (2, columns), carried from a to b for every
    lambda in lams.  A non-finite state stays non-finite on every later
    piece and never enters DOP853, so one check at b raises
    PropagationError for exactly the lambda that overflow."""
    exact = problem.quad.closed_form_pieces
    rtol = max(problem.quad.ode_tol, _MIN_RTOL)
    state = np.empty(inits.shape + lams.shape, np.result_type(inits, lams))
    state[...] = inits[..., None]
    segments = []
    h, p, q, d, p_pieces = _constants(problem, lams.dtype)
    if exact and p_pieces:  # else no piece takes a closed form
        coef = q - lams * d
        closed = zip(p_pieces, coef, *_closed_form(coef / p, h))
    for t0, t1, rules, constant in _pieces(problem):
        if exact and constant:
            seg = _ExactSegment(t0, t1, state, *next(closed))
        elif exact and (mesh := _cpm_mesh(rules, t0, t1, rtol)) is not None:
            seg = _CPMSegment(t0, t1, state, mesh, lams)
        elif exact:
            seg = _MagnusSegment(t0, t1, state, rules, lams, rtol)
        else:
            atol = [1e-3 * rtol * max(1.0, abs(y), abs(y1)) for y, y1 in inits.T.tolist()]
            seg = _ReferenceSegment(t0, t1, state, rules, lams, rtol, atol)
        segments.append(seg)
        state = seg.end
    if np.count_nonzero(np.isfinite(state)) < state.size:
        bad = ~np.isfinite(state).all(axis=(0, 1))
        raise PropagationError(
            f"non-finite state at t={problem.b:.6g}, lambda={lams[bad][0]}; solution overflow"
        )
    return segments


def _locate(problem: SLProblem, ends: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """The points t clipped to [a, b] and the piece of each, given the inner
    piece ends (a piece owns its start); PropagationError outside [a, b]."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    a, b = problem.a, problem.b
    tol = 1e-9 * (1.0 + abs(b - a))
    if not np.all((t_arr >= a - tol) & (t_arr <= b + tol)):  # so is NaN
        raise PropagationError("evaluation point outside [a, b]")
    t_arr = np.clip(t_arr, a, b)
    return t_arr, np.searchsorted(ends, t_arr, side="right")


class Trajectory:
    """The segments of one walk over [a, b]: per piece an _ExactSegment,
    _CPMSegment, _MagnusSegment or _ReferenceSegment, chosen by the piece's
    rules and quad.closed_form_pieces alone, never per lambda.  eval
    dispatches points to the owning segments; for a batch (lam an array) it
    returns arrays of shape (columns, lambdas, len(t)), for one solution (lam
    a scalar, from propagate) complex arrays of shape (len(t),), and
    state_at and endpoint read that solution."""

    def __init__(self, problem: SLProblem, lam, segments: list):
        self.problem = problem
        self.lam = lam
        self._segments = segments
        self._seg_ends = np.array([seg.t1 for seg in segments[:-1]])

    @np.errstate(all="ignore")
    def eval(self, t: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
        """Values (y, y^[1]) at the query points, as arrays."""
        t_arr, idx = _locate(self.problem, self._seg_ends, t)
        start = self._segments[0].start
        out = np.empty(start.shape + t_arr.shape, start.dtype)
        for i, seg in enumerate(self._segments):
            sel = idx == i
            if not (n := np.count_nonzero(sel)):
                continue
            if n == sel.size:  # one piece holds every point: no gather
                out = seg.sol(t_arr)
            else:
                out[0][..., sel], out[1][..., sel] = seg.sol(t_arr[sel])
        y, y1 = out
        return (y, y1) if np.ndim(self.lam) else (y[0, 0].astype(complex), y1[0, 0].astype(complex))

    def state_at(self, t: float) -> StateVec:
        y, y1 = self.eval(t)
        return StateVec(complex(y[0]), complex(y1[0]))

    @property
    def endpoint(self) -> StateVec:
        y, y1 = self._segments[-1].end[:, 0, 0]
        return StateVec(complex(y), complex(y1))


def propagate(
    problem: SLProblem,
    lam: complex,
    init: StateVec | tuple[complex, complex],
) -> Trajectory:
    """Integrate from a to b with initial data (y(a), y^[1](a)): the walk of
    the one lambda, in real arithmetic when lambda and the data are real."""
    lam = complex(lam)
    init = np.array([init.y, init.y1] if isinstance(init, StateVec) else init, dtype=complex)
    lams = np.array([lam])
    if lam.imag == 0.0 and not np.any(init.imag):
        lams, init = lams.real, init.real
    return Trajectory(problem, lam, _walk(problem, lams, init[:, None]))


# ---------------------------------------------------------------------------
# fundamental solutions


def _init(alpha: float, which: str) -> tuple[float, float]:
    """(y(a), y^[1](a)) of phi or psi."""
    if which == "phi":
        return (-math.sin(alpha), math.cos(alpha))
    return (-math.cos(alpha), -math.sin(alpha))


_cache = types.SimpleNamespace(hits=0, misses=0)  # read by perfbench/tracer.py; nothing is kept


def fundamental_trajectory(problem: SLProblem, lam: complex, which: str) -> Trajectory:
    """The trajectory of phi or psi at the given spectral parameter: one
    walk per call, whose .eval(t) serves any number of points t."""
    if which not in ("phi", "psi"):
        raise ConfigError("which must be 'phi' or 'psi'")
    return propagate(problem, lam, _init(problem.alpha, which))


def endpoint_states(problem: SLProblem, lams) -> np.ndarray:
    """[[phi, psi], [phi^[1], psi^[1]]] at b for every lambda in lams, shape
    (len(lams), 2, 2); real when every lambda is real.  A batch holding a
    complex lambda walks every lambda in complex arithmetic, so a real one
    in it may differ from its real walk by rounding (up to 1e-13 of its
    largest entry seen, on Magnus pieces).  Overflow raises PropagationError."""
    lams = np.atleast_1d(np.asarray(lams))
    if lams.dtype.kind == "c" and not np.count_nonzero(lams.imag):
        lams = lams.real
    lams = lams.astype(complex if lams.dtype.kind == "c" else float, copy=False)
    return _walk(problem, lams, _fundamental_inits(problem.alpha))[-1].end.transpose(2, 0, 1)


@lru_cache(maxsize=32)
def _fundamental_inits(alpha: float) -> np.ndarray:
    """The columns of phi and psi at a, shape (2, 2)."""
    out = np.array([_init(alpha, "phi"), _init(alpha, "psi")]).T
    out.setflags(write=False)  # shared by every endpoint_states call
    return out


def phi_rows(problem: SLProblem, lams, t) -> np.ndarray:
    """phi(t_j, lambda_k) for real lambda, as a (len(lams), len(t)) array,
    read off the walk's Trajectory at the points t.  Overflow raises
    PropagationError."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    inits = np.array(_init(problem.alpha, "phi"))[:, None]
    return Trajectory(problem, lams, _walk(problem, lams, inits)).eval(t)[0][0]


def phi_sums(problem: SLProblem, lams, grids, squared: bool) -> np.ndarray:
    """sum_j c_j phi(t_j, lambda_k) (or phi^2) over each grid (sets, c) for
    real lambda, shape (len(grids), len(lams)); sets are panel sets (mids, x),
    each inside one piece, with points t_j = mids[p] + x[i] in order.  One walk
    per block of lambda (about _ROW_BATCH entries per array), one reduce per piece."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    pieces = _pieces(problem)
    ends = np.array([t1 for _, t1, _, _ in pieces[:-1]])
    jobs = {}  # piece -> [(grid, (mids, x, c))]
    for g, (sets, c) in enumerate(grids):
        cs = np.split(c, np.cumsum([mids.size * x.size for mids, x in sets])[:-1])
        for (mids, x), ci in zip(sets, cs):
            k = int(np.searchsorted(ends, mids[0], side="right"))
            jobs.setdefault(k, []).append((g, (mids, x, ci.reshape(mids.size, x.size))))
    width = sum(max(c.shape) if problem.quad.closed_form_pieces and pieces[k][3] else c.size
                for k, js in jobs.items() for _, (*_, c) in js)
    n = max(1, _ROW_BATCH // max(width, len(pieces)))
    out = np.zeros((len(grids), lams.size), np.result_type(float, *(c for _, c in grids)))
    for i in range(0, lams.size, n):
        segments = _walk(problem, lams[i : i + n], np.array(_init(problem.alpha, "phi"))[:, None])
        with np.errstate(all="ignore"):
            for k, js in jobs.items():
                gs, ks = zip(*js)
                np.add.at(out[:, i : i + n], list(gs), segments[k].reduce(ks, squared)[:, 0])
    return out


def phi_at(problem: SLProblem, lam: complex, t: float) -> StateVec:
    """phi and its quasi-derivative at t: one walk per call; for many
    points, call .eval(t) on one fundamental_trajectory."""
    return fundamental_trajectory(problem, lam, "phi").state_at(t)


def psi_at(problem: SLProblem, lam: complex, t: float) -> StateVec:
    """psi and its quasi-derivative at t: one walk per call; for many
    points, call .eval(t) on one fundamental_trajectory."""
    return fundamental_trajectory(problem, lam, "psi").state_at(t)


def wronskian(problem: SLProblem, lam: complex, t: float) -> complex:
    """phi(t) psi^[1](t) - phi^[1](t) psi(t); identically 1 for exact
    solutions.  Two walks per call, one of phi and one of psi."""
    ph = phi_at(problem, lam, t)
    ps = psi_at(problem, lam, t)
    return ph.y * ps.y1 - ph.y1 * ps.y
