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
c y(t)^2) over panels of points inside it.  There are three kinds:

* _ExactSegment, where p, q and Delta are constant: the transfer is
  exp(hA) = cosh(s) I + sinh(s)/s hA with A = [[0, 1/p], [q - lambda Delta,
  0]] and s^2 = h^2 (q - lambda Delta) / p, exact to rounding with det = 1.
  One elementwise pass gives the ends of all constant pieces; sol(t) is one
  partial step from the piece's start, and reduce a step to each panel
  midpoint and a partial step by each panel offset.
* _MagnusSegment, on every other piece: n uniform steps of the sixth-order,
  three-point Gauss Magnus method (Blanes, Casas & Ros 2000), each the
  exponential of a traceless 2x2 matrix, so det = 1 too.  Its entries are
  polynomials in lambda with lambda-free coefficients cached per (piece,
  n); n doubles until the Richardson estimate |T_2n - T_n| / 63 meets
  quad.ode_tol, for the whole batch in one _magnus_transfers call.  sol(t)
  is one partial step from the mesh node below t.
* _ReferenceSegment: DOP853, adaptive Runge-Kutta of order 8(5,3) with
  dense output, one run per (lambda, column), kept in _cache.  It covers
  every piece when quad.closed_form_pieces = False (the CLI's --ode-tol
  sets that) and the lambda whose Magnus step count would pass
  _MAGNUS_MAX_STEPS (beyond |lambda| ~ 2e8 for p = 1 + t/2, q = 2t,
  Delta = 1 + t at ode_tol = 1e-11), and is the oracle of the other two.
  scipy is imported on its first use.

Complex lambda propagate a complex state; real ones stay real.  A
Trajectory holds the segments of a walk.  endpoint_states reads phi, psi
and their quasi-derivatives at b, all that slspectra.spectral needs;
phi_rows reads phi at points t for the inverse transform, phi_sums reduces
phi or phi^2 on panel grids for the forward one; propagate and the cached
fundamental_trajectory are the walk of one lambda.

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


# Three-point Gauss Magnus step (Blanes, Casas & Ros 2000): nodes at
# h (1/2 - sqrt(15)/10, 1/2, 1/2 + sqrt(15)/10).
_GAUSS_OFF = math.sqrt(15.0) / 10.0
_MAGNUS_MIN_STEPS = 8
_MAGNUS_MAX_STEPS = 1 << 16  # beyond this the piece falls back to DOP853
_MAGNUS_STEPS_PER_OSC = 4  # starting steps per half-oscillation
_EXPM_SERIES_CUT = 1e-3  # |s^2| below this: Taylor series for cosh s, sinh(s)/s
_MAGNUS_BATCH = 1 << 13  # most rows x steps in one batched step array
_ROW_BATCH = 1 << 15  # most lambda x t (or panel) entries of phi held at once


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


def _apply(M, state):
    """The 2x2 matrices M = (m00, m01, m10, m11), as component arrays,
    applied to state = (y, y^[1])."""
    a, b, c, d = M
    y, y1 = state
    return np.array([a * y + b * y1, c * y + d * y1])


def _exact_step(state, p, coef, C, S):
    """The closed-form transfer [[C, S/p], [coef S, C]] applied to state."""
    y, y1 = state
    return y * C + (y1 / p) * S, y * coef * S + y1 * C


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
        self.end = np.array(_exact_step(start, p, coef, C, S))

    def sol(self, t: np.ndarray) -> np.ndarray:
        coef = self._coef[..., None]
        C, S = _closed_form(coef / self._p, t - self.t0)
        return _exact_step(self.start[..., None], self._p, coef, C, S)

    def reduce(self, sets, squared: bool) -> np.ndarray:
        """exp((m + x) A) = exp(x A) exp(m A): y = C Y + S Z with (Y, Z) = (y,
        y^[1]/p) at the midpoints and (C, S) the steps by the offsets, so sums
        over x are matmuls; cancelling terms lose up to exp(2|s|) in rounding."""
        out = []
        for mids, x, c in sets:
            (Y, Z), (C, S) = self.sol(mids), _closed_form(self._coef[..., None] / self._p, x)
            Z = Z / self._p
            terms = ([(Y * Y, C * C), (2 * Y * Z, C * S), (Z * Z, S * S)] if squared
                     else [(Y, C), (Z, S)])
            out.append(sum(np.sum(V * (F @ c.T), axis=-1) for V, F in terms))
        return np.array(out)


class _MagnusSegment(_Segment):
    """Magnus transfers across one variable piece from one _magnus_transfers
    batch; the lambda whose step budget ran out go to a _ReferenceSegment.
    The n + 1 mesh-node states of a lambda, which sol(t) steps from, come
    from a prefix product on first use; only the last lambda's are kept, so
    endpoint-only walks never build them and a batch holds one mesh at a time."""

    def __init__(self, t0, t1, start, rules, lams, rtol, atol, key):
        self.t0, self.t1, self.start = t0, t1, start
        self._rules, self._lams = rules, lams
        self._n, T, self._spent = _magnus_transfers(rules, t0, t1, lams, rtol)
        self.end = _apply(T.transpose(1, 2, 0).reshape(4, 1, -1), start)
        self._ref = None
        if np.any(spent := self._spent):
            sub = (start[:, :, spent], rules, lams[spent])
            self._ref = _ReferenceSegment(t0, t1, *sub, rtol, atol, key)
            self.end[:, :, spent] = self._ref.end
        self._nodes = (None, None)

    def _node_states(self, i: int) -> np.ndarray:
        """States of lambda i at the mesh nodes, shape (2, columns, n + 1)."""
        if self._nodes[0] != i:
            n = self._n[i]
            E = _magnus_steps(_magnus_samples(self._rules, self.t0, self.t1, n), self._lams[i])
            k = 1
            while k < n:
                for e, prod in zip(E, _mul([e[k:] for e in E], [e[:-k] for e in E])):
                    e[k:] = prod
                k *= 2
            y0 = self.start[:, :, i, None]
            self._nodes = (i, np.concatenate([y0, _apply(E, y0)], axis=2))
        return self._nodes[1]

    def sol(self, t: np.ndarray) -> np.ndarray:
        out = np.empty(self.start.shape + t.shape, self.start.dtype)
        for n in np.unique(self._n[~self._spent]).tolist():
            h = (self.t1 - self.t0) / n
            k = np.clip(np.floor((t - self.t0) / h).astype(int), 0, n - 1)
            left = self.t0 + h * k
            parts = _magnus_parts(self._rules, left, t - left)
            for i in np.flatnonzero(self._n == n).tolist():
                E = np.array(_magnus_steps(parts, self._lams[i]))[:, None]
                out[:, :, i] = _apply(E, self._node_states(i)[:, :, k])
        if self._ref is not None:
            out[:, :, self._spent] = self._ref.sol(t)
        return out


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
    arithmetic for a real lambda and start state.  The runs are kept in _cache
    under key, lambda, start state and atol, so later walks reuse them; a
    non-finite start state raises PropagationError before any run."""

    def __init__(self, t0, t1, start, rules, lams, rtol, atol, key):
        self.t0, self.t1, self.start = t0, t1, start
        self.end = np.empty_like(start)
        self._runs = np.empty(start.shape[1:], object)
        for j, i in np.ndindex(self._runs.shape):
            lam, y0 = lams[i].item(), start[:, j, i]
            if not np.isfinite(y0).all():
                raise PropagationError(
                    f"non-finite state at t={t0:.6g}, lambda={lam}; solution overflow"
                )
            if lam.imag == 0.0 and not np.any(np.imag(y0)):
                lam, y0 = lam.real, y0.real
            run_key = (*key, lam, tuple(y0.tolist()), atol[j])
            run = _cache.get(run_key)
            if run is None:
                run = solve_ivp(_piece_rhs(*rules, lam), (t0, t1), y0, method="DOP853",
                                rtol=rtol, atol=atol[j], dense_output=True)
                if not run.success:
                    raise PropagationError(
                        f"integration failed on [{t0:.6g}, {t1:.6g}] at lambda={lam}: {run.message}"
                    )
                _cache.put(run_key, run)
            self._runs[j, i] = run
            self.end[:, j, i] = run.y[:, -1]

    def sol(self, t: np.ndarray) -> np.ndarray:
        out = np.empty(self.start.shape + t.shape, self.start.dtype)
        for j, i in np.ndindex(self._runs.shape):
            out[:, j, i] = self._runs[j, i].sol(t)
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


def _walk(problem: SLProblem, lams: np.ndarray, inits: np.ndarray) -> list:
    """The segments, one per piece, of the walk of the module docstring: the
    initial columns inits, shape (2, columns), carried from a to b for every
    lambda in lams.  A non-finite state stays non-finite on every later
    piece and never enters DOP853, so one check at b raises
    PropagationError for exactly the lambda that overflow."""
    pieces = _pieces(problem)
    exact = problem.quad.closed_form_pieces
    rtol = max(problem.quad.ode_tol, _MIN_RTOL)
    atol = [1e-3 * rtol * max(1.0, abs(y), abs(y1)) for y, y1 in inits.T.tolist()]
    state = inits[..., None] * np.ones_like(lams)
    segments = []
    with np.errstate(all="ignore"):  # overflow is caught at b
        const = [(t1 - t0, *(r.value for r in rules)) for t0, t1, rules, c in pieces if c]
        h, p, q, d = np.array(const).reshape(-1, 4, 1, 1).transpose(1, 0, 2, 3)
        coef = q - lams * d
        closed = zip(p, coef, *_closed_form(coef / p, h))
        for k, (t0, t1, rules, constant) in enumerate(pieces):
            if exact and constant:
                seg = _ExactSegment(t0, t1, state, *next(closed))
            else:
                engine = _MagnusSegment if exact else _ReferenceSegment
                seg = engine(t0, t1, state, rules, lams, rtol, atol, (problem, k))
            segments.append(seg)
            state = seg.end
    if not np.isfinite(state).all():
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
    _MagnusSegment or _ReferenceSegment, with no per-lambda fallback.  eval
    dispatches points to the owning segments; for a batch (lam an array) it
    returns arrays of shape (columns, lambdas, len(t)), for one solution (lam
    a scalar, from propagate) complex arrays of shape (len(t),), and
    state_at and endpoint read that solution."""

    def __init__(self, problem: SLProblem, lam, segments: list):
        self.problem = problem
        self.lam = lam
        self._segments = segments
        self._seg_ends = np.array([seg.t1 for seg in segments[:-1]])

    def eval(self, t: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
        """Values (y, y^[1]) at the query points, as arrays."""
        t_arr, idx = _locate(self.problem, self._seg_ends, t)
        start = self._segments[0].start
        out = np.empty(start.shape + t_arr.shape, start.dtype)
        with np.errstate(all="ignore"):
            for i, seg in enumerate(self._segments):
                sel = idx == i
                if sel.size and sel.all():  # one piece holds every point: no gather
                    out = seg.sol(t_arr)
                elif sel.any():
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
# fundamental solutions, cached


def _init(alpha: float, which: str) -> tuple[float, float]:
    """(y(a), y^[1](a)) of phi or psi."""
    if which == "phi":
        return (-math.sin(alpha), math.cos(alpha))
    return (-math.cos(alpha), -math.sin(alpha))


class _TrajectoryCache:
    """Bounded LRU of fundamental-solution trajectories and DOP853 runs."""

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


def endpoint_states(problem: SLProblem, lams) -> np.ndarray:
    """[[phi, psi], [phi^[1], psi^[1]]] at b for every lambda in lams, shape
    (len(lams), 2, 2); real when every lambda is real.  Overflow raises
    PropagationError."""
    lams = np.atleast_1d(np.asarray(lams))
    if np.iscomplexobj(lams) and np.all(lams.imag == 0.0):
        lams = lams.real
    lams = lams.astype(complex if np.iscomplexobj(lams) else float)
    inits = np.array([_init(problem.alpha, "phi"), _init(problem.alpha, "psi")]).T
    return _walk(problem, lams, inits)[-1].end.transpose(2, 0, 1)


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
