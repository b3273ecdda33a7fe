"""Propagation of fundamental solutions across the interval.

The second-order expression -(p y')' + q y = lambda Delta y is integrated as
the first-order system in (y, y^[1]) with the quasi-derivative y^[1] = p y':

    y'     = y^[1] / p
    y^[1]' = (q - lambda Delta) y

Steps never straddle coefficient piece boundaries: each piece is integrated
as its own segment and the solver restarts at the boundary, so
discontinuities in p, q or Delta never sit inside a step.

Three engines cover the pieces:

* Closed form.  On a piece of length h where p, q and Delta are constant the
  generator A = [[0, 1/p], [q - lambda Delta, 0]] does not vary, and the
  transfer matrix is exp(hA) = cosh(s) I + sinh(s)/s hA with
  s^2 = h^2 (q - lambda Delta) / p, evaluated by _cosh_sinhc.  It is exact
  to rounding, has det = 1, so the Wronskian holds identically, and costs
  microseconds, which keeps dense spectral sweeps cheap.
* Magnus.  Every other piece takes n uniform steps of the sixth-order,
  three-point Gauss Magnus method (Blanes, Casas & Ros 2000).  Each step is
  the exponential of a traceless 2x2 matrix, by the same formula, so the
  transfer matrix has det = 1 and the Wronskian holds to rounding.  The
  exponent's entries are polynomials in lambda whose coefficients, built
  from the coefficient samples at the Gauss nodes, do not depend on lambda
  and are cached per (piece, n); n is doubled until the Richardson estimate
  |T_2n - T_n| / 63 meets quad.ode_tol.  _magnus_transfers does this for a
  whole batch of lambda: those with the same starting n share one
  (rows, n) step array, reduced pairwise along the step axis, and only the
  rows not yet converged are doubled again.
* DOP853, the reference engine: an adaptive embedded Runge-Kutta method of
  order 8(5,3) with dense output.  It runs on every piece when
  quad.closed_form_pieces = False (the CLI's --ode-tol sets that), and
  serves as the test oracle for the two fast engines.  It also takes over a
  variable piece whose Magnus step count would pass _MAGNUS_MAX_STEPS, which
  for p = 1 + t/2, q = 2t, Delta = 1 + t at ode_tol = 1e-11 happens beyond
  |lambda| ~ 2e8 (16384 steps at 1e7).  scipy is imported on its first use.

Complex spectral parameters propagate a complex state; real parameters stay
in real arithmetic.

One walk, _walk, carries the initial columns (phi, or phi and psi) from a to
b for a whole batch of lambda: the closed-form steps to the ends of all
constant pieces in one elementwise pass, one Magnus batch per variable
piece, and y at any points t in constant pieces by one partial step from
the state at the piece's start.  endpoint_states reads phi, psi and their
quasi-derivatives at b off it, which is all slspectra.spectral needs;
phi_rows reads phi at the points t, for the transform and its inverse.  The
walk takes the batch it is given: slspectra.transform splits the nodes of a
transform into blocks.  The cached dense Trajectory of
fundamental_trajectory serves the other callers that need solutions inside
[a, b] (mfun --trace, phi_at/psi_at, the adaptive fallback of the
transform), and is the walk's per-lambda fallback: on the reference engine,
for points t in a variable piece, and past the Magnus step budget.

The two fundamental solutions are fixed by the left boundary angle alpha:

    phi(a) = -sin(alpha),  phi^[1](a) = cos(alpha)
    psi(a) = -cos(alpha),  psi^[1](a) = -sin(alpha)

so their Wronskian phi psi^[1] - phi^[1] psi is identically 1.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, PropagationError
from .problem import ConstantRule, SLProblem

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


class _ExactSegment:
    """Closed-form transfer across one constant-coefficient piece.

    Mimics the relevant surface of a solve_ivp result: .t, .y and .sol().
    """

    def __init__(self, t0: float, t1: float, y0: np.ndarray, p: float, coef):
        self.t0 = t0
        self.t1 = t1
        self._y0 = y0
        self._p = p
        self._coef = coef  # q - lambda * Delta on the piece
        self._c = coef / p
        end = self.sol(np.array([t1]))[:, 0]
        self.t = np.array([t0, t1])
        self.y = np.stack([y0, end], axis=1)

    def sol(self, t_arr: np.ndarray) -> np.ndarray:
        C, S = _closed_form(self._c, np.asarray(t_arr, dtype=float) - self.t0)
        y0, y10 = self._y0
        return np.stack([y0 * C + (y10 / self._p) * S, y0 * self._coef * S + y10 * C])


# Three-point Gauss Magnus step (Blanes, Casas & Ros 2000): nodes at
# h (1/2 - sqrt(15)/10, 1/2, 1/2 + sqrt(15)/10).
_GAUSS_OFF = math.sqrt(15.0) / 10.0
_MAGNUS_MIN_STEPS = 8
_MAGNUS_MAX_STEPS = 1 << 16  # beyond this the piece falls back to DOP853
_MAGNUS_STEPS_PER_OSC = 4  # starting steps per half-oscillation
_EXPM_SERIES_CUT = 1e-3  # |s^2| below this: Taylor series for cosh s, sinh(s)/s
_MAGNUS_BATCH = 1 << 13  # most rows x steps in one batched step array


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


@lru_cache(maxsize=64)  # a 2^16-step level holds 5.2 MB
def _magnus_samples(rules, t0: float, t1: float, n: int):
    """_magnus_parts on n uniform steps of [t0, t1], cached per (piece, n)."""
    h = (t1 - t0) / n
    parts = _magnus_parts(rules, t0 + h * np.arange(n), h)
    for comp in parts:
        for arr in comp:
            arr.setflags(write=False)  # shared by every caller of the cache
    return parts


def _cosh_sinhc(x):
    """cosh(s) and sinh(s)/s elementwise, with s^2 = x an array; real x stays real."""
    ax = np.abs(x)
    small = ax < _EXPM_SERIES_CUT
    if np.iscomplexobj(x):
        r = np.sqrt(np.where(small, 1.0, x))
        C, S = np.cosh(r), np.sinh(r)
    else:
        r = np.sqrt(np.where(small, 1.0, ax))
        if np.all(x <= 0.0):
            C, S = np.cos(r), np.sin(r)
        elif np.all(x >= 0.0):
            C, S = np.cosh(r), np.sinh(r)
        else:
            pos = x > 0.0
            rp, rn = np.where(pos, r, 0.0), np.where(pos, 0.0, r)
            C = np.where(pos, np.cosh(rp), np.cos(rn))
            S = np.where(pos, np.sinh(rp), np.sin(rn))
    S = S / r
    if np.any(small):  # the series only where it is used
        xs = x[small]
        C[small] = 1.0 + xs * (1 / 2 + xs * (1 / 24 + xs / 720))
        S[small] = 1.0 + xs * (1 / 6 + xs * (1 / 120 + xs / 5040))
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


def _products(parts, lams: np.ndarray) -> np.ndarray:
    """E[n-1] @ ... @ E[0] of the steps in parts for every lambda, as
    components of shape (4, len(lams)), by pairwise reduction along the step
    axis; n is a power of two.  A step array holds at most _MAGNUS_BATCH
    entries, so lambda are taken in chunks of rows."""
    rows = max(1, _MAGNUS_BATCH // parts[0][0].size)
    out = np.empty((4, lams.size), lams.dtype)
    for i in range(0, lams.size, rows):
        E = _magnus_steps(parts, lams[i : i + rows, None])
        while E[0].shape[1] > 1:
            E = _mul([e[:, 1::2] for e in E], [e[:, ::2] for e in E])
        out[:, i : i + rows] = [e[:, 0] for e in E]
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


def _magnus_transfers(rules, t0: float, t1: float, lams: np.ndarray, tol: float):
    """(n, T, spent) for every lambda in lams: the transfer matrix T[i] over
    [t0, t1] on n[i] steps, with n[i] doubled until the Richardson estimate
    |T_2n - T_n| / 63 <= tol max(1, |T_2n|).  spent marks the lambda for
    which that takes more than _MAGNUS_MAX_STEPS steps; their n is 0 and
    their T is zero.  Overflow raises PropagationError.

    lambda sharing a starting step count go through the doublings as one
    (rows, n) step array on the cached _magnus_samples, and only the rows
    that have not converged go on to the next doubling.
    """
    n_out = np.zeros(lams.shape, int)
    T_out = np.zeros((4, lams.size), lams.dtype)
    spent = np.zeros(lams.shape, bool)
    start = _start_steps(rules, t0, t1, lams)
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
                    spent[idx] = True
                    break
                n *= 2
                T2 = _products(_magnus_samples(rules, t0, t1, n), lams[idx])
                err = np.max(np.abs(T2 - T), axis=0) / 63.0  # 2^6 - 1, sixth order
                done = err <= tol * np.maximum(1.0, np.max(np.abs(T2), axis=0))
                n_out[idx[done]] = n
                T_out[:, idx[done]] = T2[:, done]
                idx, T = idx[~done], T2[:, ~done]
    return n_out, T_out.T.reshape(-1, 2, 2), spent


@lru_cache(maxsize=16)
def _magnus_transfer(rules, t0: float, t1: float, lam, tol: float):
    """(n, T) of _magnus_transfers for the one lambda, or None when its step
    budget ran out.

    Cached because phi and psi ask for the same transfer one after the other.
    """
    n, T, spent = _magnus_transfers(rules, t0, t1, np.array([lam]), tol)
    if spent[0]:
        return None
    T = T[0]
    T.setflags(write=False)
    return int(n[0]), T


class _MagnusSegment:
    """Sixth-order Magnus transfer across one variable-coefficient piece.

    Holds only its endpoint states; the states at the n + 1 mesh nodes are
    built on the first sol() call and kept, so endpoint-only callers never
    hold mesh-sized arrays.
    """

    def __init__(self, t0: float, t1: float, y0: np.ndarray, rules, lam, n: int, T):
        self.t0 = t0
        self.t1 = t1
        self._y0 = y0
        self._rules = rules
        self._lam = lam
        self._nodes = None
        self.n = n
        self.t = np.array([t0, t1])
        self.y = np.stack([y0, T @ y0], axis=1)

    def _node_states(self) -> np.ndarray:
        """States at the mesh nodes, shape (2, n + 1), by a prefix product."""
        if self._nodes is None:
            parts = _magnus_samples(self._rules, self.t0, self.t1, self.n)
            with np.errstate(all="ignore"):
                E = _magnus_steps(parts, self._lam)
                k = 1
                while k < self.n:
                    for e, prod in zip(E, _mul([e[k:] for e in E], [e[:-k] for e in E])):
                        e[k:] = prod
                    k *= 2
            a, b, c, d = E
            y, y1 = self._y0
            self._nodes = np.concatenate(
                [self._y0[:, None], np.stack([a * y + b * y1, c * y + d * y1])], axis=1
            )
        return self._nodes

    def sol(self, t_arr: np.ndarray) -> np.ndarray:
        """States at t_arr: one partial Magnus step from the mesh node below."""
        t = np.asarray(t_arr, dtype=float)
        y, y1 = self._node_states()
        h = (self.t1 - self.t0) / self.n
        k = np.clip(np.floor((t - self.t0) / h).astype(int), 0, self.n - 1)
        left = self.t0 + h * k
        with np.errstate(all="ignore"):
            a, b, c, d = _magnus_steps(_magnus_parts(self._rules, left, t - left), self._lam)
        return np.stack([a * y[k] + b * y1[k], c * y[k] + d * y1[k]])


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
    """Dense solution of one propagation over [a, b].

    Holds one segment per coefficient piece; evaluation dispatches query
    points to the owning segment, and the step nodes and the endpoint are
    read off the segments' .t and .y when asked for.
    """

    def __init__(self, problem: SLProblem, lam: complex, segments: list):
        self.problem = problem
        self.lam = lam
        self._segments = segments
        self._seg_ends = np.array([seg.t[-1] for seg in segments[:-1]])

    def eval(self, t: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
        """Values (y, y^[1]) at the query points, as arrays."""
        t_arr, idx = _locate(self.problem, self._seg_ends, t)
        y = np.empty(t_arr.shape, dtype=complex)
        y1 = np.empty(t_arr.shape, dtype=complex)
        for i, seg in enumerate(self._segments):
            mask = idx == i
            if np.any(mask):
                vals = seg.sol(t_arr[mask])
                y[mask] = vals[0]
                y1[mask] = vals[1]
        return y, y1

    def state_at(self, t: float) -> StateVec:
        y, y1 = self.eval(t)
        return StateVec(complex(y[0]), complex(y1[0]))

    @property
    def nodes(self) -> tuple[tuple[float, StateVec], ...]:
        """(t, state) at a and at the step nodes of every segment, up to b."""
        first = self._segments[0]
        pts = [(first.t[0], first.y[:, 0])]
        pts += [(seg.t[k], seg.y[:, k]) for seg in self._segments for k in range(1, seg.t.size)]
        return tuple((float(t), StateVec(complex(y[0]), complex(y[1]))) for t, y in pts)

    @property
    def endpoint(self) -> StateVec:
        y, y1 = self._segments[-1].y[:, -1]
        return StateVec(complex(y), complex(y1))


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


def propagate(
    problem: SLProblem,
    lam: complex,
    init: StateVec | tuple[complex, complex],
) -> Trajectory:
    """Integrate from a to b with initial data (y(a), y^[1](a))."""
    lam = complex(lam)
    if isinstance(init, StateVec):
        init = (init.y, init.y1)
    is_real = lam.imag == 0.0 and complex(init[0]).imag == 0.0 and complex(init[1]).imag == 0.0
    if is_real:
        state = np.array([complex(init[0]).real, complex(init[1]).real], dtype=float)
        lam_eff: complex | float = lam.real
    else:
        state = np.array([complex(init[0]), complex(init[1])], dtype=complex)
        lam_eff = lam
    rtol = max(problem.quad.ode_tol, _MIN_RTOL)
    atol = 1e-3 * rtol * max(1.0, float(np.max(np.abs(state))))
    use_exact = problem.quad.closed_form_pieces

    segments = []
    # overflow at large |lambda| leaves a non-finite state, which the check
    # below turns into a PropagationError
    with np.errstate(over="ignore", invalid="ignore"):
        for t0, t1, rules, constant in _pieces(problem):
            if use_exact and constant:
                p, q, d = (r.value for r in rules)
                seg = _ExactSegment(t0, t1, state, p, q - lam_eff * d)
            elif use_exact and (magnus := _magnus_transfer(rules, t0, t1, lam_eff, rtol)):
                seg = _MagnusSegment(t0, t1, state, rules, lam_eff, *magnus)
            else:
                # the reference engine, and the fallback for Magnus step budgets
                # exhausted at very large |lambda|
                rhs = _piece_rhs(*rules, lam_eff)
                seg = solve_ivp(
                    rhs,
                    (t0, t1),
                    state,
                    method="DOP853",
                    rtol=rtol,
                    atol=atol,
                    dense_output=True,
                )
                if not seg.success:
                    raise PropagationError(
                        f"integration failed on [{t0:.6g}, {t1:.6g}] at lambda={lam}: {seg.message}"
                    )
            if not np.all(np.isfinite(np.abs(seg.y[:, -1]))):
                raise PropagationError(
                    f"non-finite state at t={t1:.6g}, lambda={lam}; solution overflow"
                )
            segments.append(seg)
            state = seg.y[:, -1]
    return Trajectory(problem, lam, segments)


# ---------------------------------------------------------------------------
# fundamental solutions, cached


def _init(alpha: float, which: str) -> tuple[float, float]:
    """(y(a), y^[1](a)) of phi or psi."""
    if which == "phi":
        return (-math.sin(alpha), math.cos(alpha))
    return (-math.cos(alpha), -math.sin(alpha))


class _TrajectoryCache:
    """Bounded LRU of fundamental-solution trajectories."""

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            return self._data[key]
        self.misses += 1
        return None

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0


_cache = _TrajectoryCache()


def clear_cache() -> None:
    _cache.clear()


def fundamental_trajectory(problem: SLProblem, lam: complex, which: str) -> Trajectory:
    """Cached trajectory of phi or psi at the given spectral parameter."""
    if which not in ("phi", "psi"):
        raise ConfigError("which must be 'phi' or 'psi'")
    lam = complex(lam)
    key = (problem, lam.real, lam.imag, which)
    traj = _cache.get(key)
    if traj is None:
        traj = propagate(problem, lam, _init(problem.alpha, which))
        _cache.put(key, traj)
    return traj


def _walk(problem: SLProblem, lams: np.ndarray, which: tuple[str, ...], t=None):
    """States (y, y^[1]) at b, shape (2, len(which), len(lams)), and y at the
    points t, shape (len(which), len(lams), len(t)), of the fundamental
    solutions named in which ("phi", "psi") for every lambda in lams, by the
    one walk of the module docstring.  Its steps are the expressions of
    _ExactSegment, so the values match the per-lambda trajectories to
    rounding.  A non-finite state stays non-finite on every later piece, so
    one check at b raises PropagationError for exactly the lambda propagate
    refuses.
    """
    pieces = _pieces(problem)
    if t is None:
        t, idx = np.empty(0), np.empty(0, int)
    else:
        t, idx = _locate(problem, np.array([t1 for _, t1, _, _ in pieces[:-1]]), t)
    hit = set(idx.tolist())  # the pieces that hold points t
    batched = problem.quad.closed_form_pieces and all(pieces[k][3] for k in hit)
    fallback = np.full(lams.shape, not batched)
    rtol = max(problem.quad.ode_tol, _MIN_RTOL)
    inits = np.array([_init(problem.alpha, w) for w in which])
    y, y1 = inits.T[..., None] * np.ones_like(lams)
    rows = np.empty((len(which), lams.size, t.size), lams.dtype)
    with np.errstate(all="ignore"):  # overflow is caught at b
        const = [(t1 - t0, *(r.value for r in rules)) for t0, t1, rules, c in pieces if c]
        h, p, q, d = np.array(const).reshape(-1, 4, 1).transpose(1, 0, 2)
        coef = q - lams * d
        closed = zip(p, coef, *_closed_form(coef / p, h))
        for k, (t0, t1, rules, constant) in enumerate(pieces if batched else ()):
            if constant:
                p, coef, C, S = next(closed)
                if k in hit:
                    sel = idx == k
                    Ct, St = _closed_form(coef[:, None] / p, t[sel] - t0)
                    rows[..., sel] = y[..., None] * Ct + (y1[..., None] / p) * St
                y, y1 = y * C + (y1 / p) * S, y * coef * S + y1 * C
            else:  # lambda already falling back keep a stale state until the loop below
                run = np.flatnonzero(~fallback)
                _, T, spent = _magnus_transfers(rules, t0, t1, lams[run], rtol)
                fallback[run[spent]] = True  # the step budget ran out
                (t00, t01), (t10, t11) = T.transpose(1, 2, 0)
                u, v = y[:, run], y1[:, run]
                y[:, run], y1[:, run] = t00 * u + t01 * v, t10 * u + t11 * v
    ends = np.array([y, y1])
    real = np.real if ends.dtype == float else np.asarray
    for i in np.flatnonzero(fallback):
        for j, w in enumerate(which):
            traj = fundamental_trajectory(problem, lams[i], w)
            end = traj.endpoint
            ends[:, j, i] = real([end.y, end.y1])
            rows[j, i] = real(traj.eval(t)[0])
    if not np.isfinite(ends).all():
        bad = ~np.isfinite(ends).all(axis=(0, 1))
        raise PropagationError(
            f"non-finite state at t={problem.b:.6g}, lambda={lams[bad][0]}; solution overflow"
        )
    return ends, rows


def endpoint_states(problem: SLProblem, lams) -> np.ndarray:
    """[[phi, psi], [phi^[1], psi^[1]]] at b for every lambda in lams, shape
    (len(lams), 2, 2); real when every lambda is real.  Overflow raises
    PropagationError."""
    lams = np.atleast_1d(np.asarray(lams))
    if np.iscomplexobj(lams) and np.all(lams.imag == 0.0):
        lams = lams.real
    lams = lams.astype(complex if np.iscomplexobj(lams) else float)
    return _walk(problem, lams, ("phi", "psi"))[0].transpose(2, 0, 1)


def phi_rows(problem: SLProblem, lams, t) -> np.ndarray:
    """phi(t_j, lambda_k) for real lambda, as a (len(lams), len(t)) array,
    read off _walk at the points t; points t in a variable piece take
    fundamental_trajectory's rows.  Overflow raises PropagationError."""
    return _walk(problem, np.atleast_1d(np.asarray(lams, dtype=float)), ("phi",), t)[1][0]


def phi_at(problem: SLProblem, lam: complex, t: float) -> StateVec:
    """phi and its quasi-derivative at t."""
    return fundamental_trajectory(problem, lam, "phi").state_at(t)


def psi_at(problem: SLProblem, lam: complex, t: float) -> StateVec:
    """psi and its quasi-derivative at t."""
    return fundamental_trajectory(problem, lam, "psi").state_at(t)


def wronskian(problem: SLProblem, lam: complex, t: float) -> complex:
    """phi(t) psi^[1](t) - phi^[1](t) psi(t); identically 1 for exact solutions."""
    ph = phi_at(problem, lam, t)
    ps = psi_at(problem, lam, t)
    return ph.y * ps.y1 - ph.y1 * ps.y
