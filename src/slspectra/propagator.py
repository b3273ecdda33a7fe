"""Propagation of fundamental solutions across the interval.

The second-order expression -(p y')' + q y = lambda Delta y is integrated as
the first-order system in (y, y^[1]) with the quasi-derivative y^[1] = p y':

    y'     = y^[1] / p
    y^[1]' = (q - lambda Delta) y

Steps never straddle coefficient piece boundaries: each piece is integrated
as its own segment and the solver restarts at the boundary, so
discontinuities in p, q or Delta never sit inside a step.

Three engines share the segment contract (.t, .y and .sol()):

* Closed form.  Pieces on which p, q and Delta are all constant are solved
  by the 2x2 transfer matrix [[C, S/p], [(q - lambda Delta) S, C]] with
  C = cosh(w tau), S = sinh(w tau)/w, w^2 = (q - lambda Delta)/p.  This is
  exact to rounding, preserves the Wronskian identically (det = C^2 - w^2 S^2
  = 1) and costs microseconds, which keeps dense spectral sweeps cheap.
* Magnus.  Every other piece takes n uniform steps of the fourth-order,
  two-point Gauss Magnus method (Iserles & Norsett 1999).  Each step is the
  exponential of a traceless 2x2 matrix, so the transfer matrix has det = 1
  and the Wronskian holds to rounding.  The coefficient samples at the Gauss
  nodes do not depend on lambda and are cached per (piece, n); n is doubled
  until the Richardson estimate |T_2n - T_n| / 15 meets quad.ode_tol.
* DOP853, the reference engine: an adaptive embedded Runge-Kutta method of
  order 8(5,3) with dense output.  It runs on every piece when
  quad.closed_form_pieces = False (the CLI's --ode-tol sets that), and
  serves as the test oracle for the two fast engines.  It also takes over a
  variable piece whose Magnus step count would pass _MAGNUS_MAX_STEPS, which
  for p = 1 + t/2 happens beyond |lambda| ~ 1e7.

Complex spectral parameters propagate a complex state; real parameters stay
in real arithmetic.

The two fundamental solutions are fixed by the left boundary angle alpha:

    phi(a) = -sin(alpha),  phi^[1](a) = cos(alpha)
    psi(a) = -cos(alpha),  psi^[1](a) = -sin(alpha)

so their Wronskian phi psi^[1] - phi^[1] psi is identically 1.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp

from .errors import PropagationError
from .problem import ConstantRule, SLProblem

_MIN_RTOL = 2.5e-14  # DOP853 rejects tolerances at rounding level
_SERIES_CUT = 1e-6  # |w|*tau below this: use the series for sinh(w tau)/w


@dataclass(frozen=True)
class StateVec:
    """Solution value and quasi-derivative y^[1] = p y' at one point."""

    y: complex
    y1: complex

    def __post_init__(self) -> None:
        for v in (self.y, self.y1):
            if not (np.isfinite(complex(v).real) and np.isfinite(complex(v).imag)):
                raise PropagationError(f"non-finite state component {v!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.y, self.y1])


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

    def _cs(self, tau: np.ndarray):
        c = self._c
        scale = math.sqrt(abs(c)) * float(np.max(tau, initial=0.0))
        if scale < _SERIES_CUT:
            x = c * tau * tau
            C = 1.0 + x / 2.0 + x * x / 24.0
            S = tau * (1.0 + x / 6.0 + x * x / 120.0)
            return C, S
        if isinstance(c, complex):
            w = np.sqrt(complex(c))
            wt = w * tau
            return np.cosh(wt), np.sinh(wt) / w
        if c > 0:
            w = math.sqrt(c)
            wt = w * tau
            return np.cosh(wt), np.sinh(wt) / w
        om = math.sqrt(-c)
        ot = om * tau
        return np.cos(ot), np.sin(ot) / om

    def sol(self, t_arr: np.ndarray) -> np.ndarray:
        tau = np.asarray(t_arr, dtype=float) - self.t0
        C, S = self._cs(tau)
        y0, y10 = self._y0
        return np.stack([y0 * C + (y10 / self._p) * S, y0 * self._coef * S + y10 * C])


# Two-point Gauss Magnus step: nodes at h (1/2 -+ sqrt(3)/6), commutator
# weight sqrt(3)/12 h^2.
_GAUSS_OFF = math.sqrt(3.0) / 6.0
_MAGNUS_COMM = math.sqrt(3.0) / 12.0
_MAGNUS_MIN_STEPS = 8
_MAGNUS_MAX_STEPS = 1 << 16  # beyond this the piece falls back to DOP853
_MAGNUS_STEPS_PER_OSC = 4  # starting steps per half-oscillation
_EXPM_SERIES_CUT = 1e-3  # |s^2| below this: Taylor series for cosh s, sinh(s)/s


def _magnus_parts(rules, left: np.ndarray, h):
    """lambda-independent parts (A, B0, B1, D0, D1) of the Magnus exponents
    Omega = [[D, A], [B, -D]] of the steps [left, left + h], where
    B = B0 - lambda B1 and D = D0 - lambda D1."""
    p_rule, q_rule, d_rule = rules
    nodes = np.concatenate([left + h * (0.5 - _GAUSS_OFF), left + h * (0.5 + _GAUSS_OFF)])
    m = left.size
    a = 1.0 / p_rule(nodes)
    q = q_rule(nodes)
    d = d_rule(nodes)
    a1, a2, q1, q2, d1, d2 = a[:m], a[m:], q[:m], q[m:], d[:m], d[m:]
    c = _MAGNUS_COMM * h * h
    return (
        0.5 * h * (a1 + a2),
        0.5 * h * (q1 + q2),
        0.5 * h * (d1 + d2),
        c * (a2 * q1 - a1 * q2),
        c * (a2 * d1 - a1 * d2),
    )


@lru_cache(maxsize=64)  # a 2^16-step level holds 2.6 MB
def _magnus_samples(rules, t0: float, t1: float, n: int):
    """_magnus_parts on n uniform steps of [t0, t1], cached per (piece, n)."""
    h = (t1 - t0) / n
    parts = _magnus_parts(rules, t0 + h * np.arange(n), h)
    for arr in parts:
        arr.setflags(write=False)  # shared by every caller of the cache
    return parts


def _cosh_sinhc(x):
    """cosh(s) and sinh(s)/s elementwise, with s^2 = x; real x stays real."""
    small = np.abs(x) < _EXPM_SERIES_CUT
    if np.iscomplexobj(x):
        r = np.sqrt(np.where(small, 1.0, x))
        C, S = np.cosh(r), np.sinh(r)
    else:
        r = np.sqrt(np.where(small, 1.0, np.abs(x)))
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
    if np.any(small):
        C = np.where(small, 1.0 + x * (1 / 2 + x * (1 / 24 + x / 720)), C)
        S = np.where(small, 1.0 + x * (1 / 6 + x * (1 / 120 + x / 5040)), S)
    return C, S


def _magnus_steps(parts, lam):
    """Step matrices exp(Omega) as component arrays (e00, e01, e10, e11).

    Omega is traceless, so exp(Omega) = cosh(s) I + sinh(s)/s Omega with
    s^2 = -det Omega = D^2 + A B.
    """
    A, B0, B1, D0, D1 = parts
    B = B0 - lam * B1
    D = D0 - lam * D1
    C, S = _cosh_sinhc(D * D + A * B)
    SD = S * D
    return C + SD, S * A, S * B, C - SD


def _mul(L, R):
    """Elementwise 2x2 matrix products L @ R of component arrays."""
    a1, b1, c1, d1 = L
    a0, b0, c0, d0 = R
    return a1 * a0 + b1 * c0, a1 * b0 + b1 * d0, c1 * a0 + d1 * c0, c1 * b0 + d1 * d0


def _product(E) -> np.ndarray:
    """E[n-1] @ ... @ E[0] by pairwise reduction; n is a power of two."""
    a, b, c, d = E
    while a.size > 1:
        a, b, c, d = _mul((a[1::2], b[1::2], c[1::2], d[1::2]), (a[::2], b[::2], c[::2], d[::2]))
    return np.array([[a[0], b[0]], [c[0], d[0]]])


def _start_steps(rules, t0: float, t1: float, lam) -> int:
    """Smallest power of two above _MAGNUS_STEPS_PER_OSC times the piece's
    oscillation count int sqrt|lambda Delta - q| / p / pi, read off the
    coarsest sample level."""
    A, B0, B1, _, _ = _magnus_samples(rules, t0, t1, _MAGNUS_MIN_STEPS)
    osc = float(np.sum(np.sqrt(np.abs(A * (B0 - lam * B1))))) / math.pi
    n = _MAGNUS_MIN_STEPS
    while n < _MAGNUS_STEPS_PER_OSC * osc and n < _MAGNUS_MAX_STEPS:
        n *= 2
    return n


@lru_cache(maxsize=16)
def _magnus_transfer(rules, t0: float, t1: float, lam, tol: float):
    """(n, T): the transfer matrix T over [t0, t1] on n steps, with n doubled
    until the Richardson estimate |T_2n - T_n| / 15 <= tol max(1, |T_2n|).
    None when that takes more than _MAGNUS_MAX_STEPS steps.

    Cached because phi and psi ask for the same transfer one after the other.
    """
    n = _start_steps(rules, t0, t1, lam)
    with np.errstate(all="ignore"):
        T = _product(_magnus_steps(_magnus_samples(rules, t0, t1, n), lam))
        while True:
            if not np.all(np.isfinite(T)):
                raise PropagationError(
                    f"non-finite transfer matrix on [{t0:.6g}, {t1:.6g}], "
                    f"lambda={lam}; solution overflow"
                )
            if 2 * n > _MAGNUS_MAX_STEPS:
                return None
            n *= 2
            T2 = _product(_magnus_steps(_magnus_samples(rules, t0, t1, n), lam))
            if np.max(np.abs(T2 - T)) / 15.0 <= tol * max(1.0, float(np.max(np.abs(T2)))):
                T2.setflags(write=False)
                return n, T2
            T = T2


class _MagnusSegment:
    """Fourth-order Magnus transfer across one variable-coefficient piece.

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


class Trajectory:
    """Dense solution of one propagation over [a, b].

    Holds one segment per coefficient piece plus the accepted step nodes;
    evaluation dispatches query points to the owning segment.
    """

    def __init__(
        self,
        problem: SLProblem,
        lam: complex,
        segments: list,
        seg_bounds: list[tuple[float, float]],
        nodes: list[tuple[float, StateVec]],
    ):
        self.problem = problem
        self.lam = lam
        self._segments = segments
        self._seg_bounds = seg_bounds
        self._seg_ends = np.array([b for _, b in seg_bounds[:-1]])
        self.nodes: tuple[tuple[float, StateVec], ...] = tuple(nodes)

    def eval(self, t: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
        """Values (y, y^[1]) at the query points, as arrays."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        a, b = self.problem.a, self.problem.b
        tol = 1e-9 * (1.0 + abs(b - a))
        if np.any(t_arr < a - tol) or np.any(t_arr > b + tol):
            raise PropagationError("evaluation point outside [a, b]")
        t_arr = np.clip(t_arr, a, b)
        idx = np.searchsorted(self._seg_ends, t_arr, side="right")
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
    def endpoint(self) -> StateVec:
        return self.nodes[-1][1]


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


def _rules_on(problem: SLProblem, t0: float, t1: float):
    mid = np.array([0.5 * (t0 + t1)])
    rules = []
    for coef in (problem.p, problem.q, problem.delta):
        i = int(coef.piece_index(mid)[0])
        rules.append(coef.pieces[i].rule)
    return rules


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
    seg_bounds = []
    nodes: list[tuple[float, StateVec]] = [
        (problem.a, StateVec(complex(state[0]), complex(state[1])))
    ]
    bps = problem.breakpoints
    # overflow at large |lambda| leaves a non-finite state, which the check
    # below turns into a PropagationError
    with np.errstate(over="ignore", invalid="ignore"):
        for t0, t1 in zip(bps[:-1], bps[1:]):
            p_rule, q_rule, d_rule = _rules_on(problem, t0, t1)
            if (
                use_exact
                and isinstance(p_rule, ConstantRule)
                and isinstance(q_rule, ConstantRule)
                and isinstance(d_rule, ConstantRule)
            ):
                seg = _ExactSegment(
                    t0, t1, state, p_rule.value, q_rule.value - lam_eff * d_rule.value
                )
            elif use_exact and (
                magnus := _magnus_transfer((p_rule, q_rule, d_rule), t0, t1, lam_eff, rtol)
            ):
                seg = _MagnusSegment(t0, t1, state, (p_rule, q_rule, d_rule), lam_eff, *magnus)
            else:
                # the reference engine, and the fallback for Magnus step budgets
                # exhausted at very large |lambda|
                rhs = _piece_rhs(p_rule, q_rule, d_rule, lam_eff)
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
            seg_bounds.append((t0, t1))
            for k in range(1, seg.t.size):
                nodes.append(
                    (float(seg.t[k]), StateVec(complex(seg.y[0, k]), complex(seg.y[1, k])))
                )
            state = seg.y[:, -1]
    return Trajectory(problem, lam, segments, seg_bounds, nodes)


# ---------------------------------------------------------------------------
# fundamental solutions, cached


def _phi_init(alpha: float) -> tuple[float, float]:
    return (-math.sin(alpha), math.cos(alpha))


def _psi_init(alpha: float) -> tuple[float, float]:
    return (-math.cos(alpha), -math.sin(alpha))


class _TrajectoryCache:
    """Bounded LRU of fundamental-solution trajectories, thread safe."""

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return self._data[key]
            self.misses += 1
            return None

    def put(self, key, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0


_cache = _TrajectoryCache()


def clear_cache() -> None:
    _cache.clear()


def fundamental_trajectory(problem: SLProblem, lam: complex, which: str) -> Trajectory:
    """Cached trajectory of phi or psi at the given spectral parameter."""
    if which not in ("phi", "psi"):
        raise ValueError("which must be 'phi' or 'psi'")
    lam = complex(lam)
    key = (problem, lam.real, lam.imag, which)
    traj = _cache.get(key)
    if traj is None:
        init = _phi_init(problem.alpha) if which == "phi" else _psi_init(problem.alpha)
        traj = propagate(problem, lam, init)
        _cache.put(key, traj)
    return traj


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
