"""Problem definition: piecewise coefficients, validation, weighted inner product.

A problem is the differential expression -(p y')' + q y = lambda Delta y on a
finite interval [a, b] together with the left boundary angle alpha.  The
weight Delta is only required to be non-negative; it may vanish identically
on subintervals, and the inner product, transforms and spectral data all live
on the support of Delta.

Coefficients are piecewise: each piece carries a rule (constant, polynomial
in t, or an interpolated table) on a subinterval, and the pieces tile [a, b].
All structural operations (support measure, quadrature splitting, propagation
restarts) work directly off this representation.
"""

from __future__ import annotations

import ast
import configparser
import math
import operator
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, QuadratureError
from .quadrature import piecewise_integrate

_MAX_TABLE_ORDER = 5


# ---------------------------------------------------------------------------
# piece rules


@dataclass(frozen=True)
class ConstantRule:
    value: float

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(t, dtype=float), self.value)

    @property
    def is_zero(self) -> bool:
        return self.value == 0.0


@dataclass(frozen=True)
class PolyRule:
    """Polynomial in t with coefficients in ascending powers."""

    coeffs: tuple[float, ...]

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), self.coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.coeffs)


@dataclass(frozen=True)
class TableRule:
    """Spline through tabulated (t, value) samples, interpolation order <= 5."""

    points_t: tuple[float, ...]
    points_v: tuple[float, ...]
    order: int = 3
    _spline: object = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 1 <= self.order <= _MAX_TABLE_ORDER:
            raise ConfigError(f"table interpolation order must be in [1, {_MAX_TABLE_ORDER}]")
        if len(self.points_t) != len(self.points_v):
            raise ConfigError("table abscissae and values differ in length")
        if len(self.points_t) < self.order + 1:
            raise ConfigError("table needs at least order+1 samples")
        if any(b <= a for a, b in zip(self.points_t, self.points_t[1:])):
            raise ConfigError("table abscissae must be strictly increasing")
        from scipy.interpolate import make_interp_spline  # only table rules need scipy

        spline = make_interp_spline(self.points_t, self.points_v, k=self.order)
        object.__setattr__(self, "_spline", spline)

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return self._spline(np.asarray(t, dtype=float))

    @property
    def is_zero(self) -> bool:
        return all(v == 0.0 for v in self.points_v)

    @property
    def knots(self) -> tuple[float, ...]:
        """The spline's distinct knots; its derivatives may jump at the inner ones."""
        return tuple(np.unique(self._spline.t).tolist())


Rule = ConstantRule | PolyRule | TableRule


@dataclass(frozen=True)
class Piece:
    t0: float
    t1: float
    rule: Rule

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t0) and math.isfinite(self.t1)):
            raise ConfigError("piece endpoints must be finite")
        if self.t1 <= self.t0:
            raise ConfigError(f"piece [{self.t0}, {self.t1}] has non-positive length")


@dataclass(frozen=True)
class PiecewiseCoefficient:
    """A coefficient function given by contiguous pieces tiling [a, b]."""

    pieces: tuple[Piece, ...]

    def __post_init__(self) -> None:
        if not self.pieces:
            raise ConfigError("coefficient needs at least one piece")
        for left, right in zip(self.pieces, self.pieces[1:]):
            gap = abs(right.t0 - left.t1)
            if gap > 1e-12 * (1.0 + abs(left.t1)):
                raise ConfigError(
                    f"pieces are not contiguous at t={left.t1} (next starts {right.t0})"
                )

    @property
    def t0(self) -> float:
        return self.pieces[0].t0

    @property
    def t1(self) -> float:
        return self.pieces[-1].t1

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return (self.t0,) + tuple(p.t1 for p in self.pieces)

    def piece_index(self, t: np.ndarray) -> np.ndarray:
        inner = np.array([p.t1 for p in self.pieces[:-1]])
        return np.searchsorted(inner, np.asarray(t, dtype=float), side="right")

    def __call__(self, t: np.ndarray | float) -> np.ndarray | float:
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty_like(t_arr)
        idx = self.piece_index(t_arr)
        for i, piece in enumerate(self.pieces):
            mask = idx == i
            if np.any(mask):
                out[mask] = piece.rule(t_arr[mask])
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return float(out[0])
        return out


def constant_coefficient(a: float, b: float, value: float) -> PiecewiseCoefficient:
    return PiecewiseCoefficient((Piece(a, b, ConstantRule(value)),))


# ---------------------------------------------------------------------------
# problem


@dataclass(frozen=True)
class QuadConfig:
    """Quadrature and propagation tolerances.

    closed_form_pieces enables the fast propagation engines: the exact
    transfer matrix on pieces where p, q and Delta are all constant,
    constant-perturbation steps on a lambda-free mesh where p and Delta are
    constant or polynomial with p Delta > 0, and error-controlled Magnus
    steps on the other pieces.  Disable it to select the reference engine,
    the adaptive Runge-Kutta integrator DOP853, on every piece (mainly
    useful for convergence studies and as a test oracle).  ode_tol is the
    relative tolerance of the CPM mesh test and of the Magnus and DOP853
    engines.
    """

    abs_tol: float = 1e-11
    rel_tol: float = 1e-10
    max_subdivisions: int = 64
    ode_tol: float = 1e-11
    closed_form_pieces: bool = True

    def __post_init__(self) -> None:
        if self.abs_tol <= 0 or self.rel_tol <= 0 or self.ode_tol <= 0:
            raise ConfigError("quadrature and ODE tolerances must be positive")
        if self.max_subdivisions < 8:
            raise ConfigError("max_subdivisions must be at least 8")

    def with_tolerances(self, ode_tol: float | None, quad_tol: float | None) -> QuadConfig:
        """This config under the --ode-tol and --quad-tol flags: ode_tol also
        selects the reference engine (closed_form_pieces = False), and
        quad_tol sets both abs_tol and rel_tol.  None leaves a field as is."""
        kwargs: dict = {}
        if ode_tol is not None:
            kwargs.update(ode_tol=float(ode_tol), closed_form_pieces=False)
        if quad_tol is not None:
            kwargs.update(abs_tol=float(quad_tol), rel_tol=float(quad_tol))
        return replace(self, **kwargs) if kwargs else self


@dataclass(frozen=True)
class SLProblem:
    """Validated Sturm-Liouville problem with semi-definite weight."""

    a: float
    b: float
    alpha: float
    p: PiecewiseCoefficient
    q: PiecewiseCoefficient
    delta: PiecewiseCoefficient
    quad: QuadConfig = QuadConfig()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise ConfigError("interval must be finite with a < b")
        if not math.isfinite(self.alpha):
            raise ConfigError("alpha must be finite")
        for name, coef in (("p", self.p), ("q", self.q), ("delta", self.delta)):
            if abs(coef.t0 - self.a) > 1e-12 * (1 + abs(self.a)) or abs(
                coef.t1 - self.b
            ) > 1e-12 * (1 + abs(self.b)):
                raise ConfigError(f"{name} pieces do not tile [{self.a}, {self.b}]")
        for piece in self.p.pieces:
            if piece.rule.is_zero:
                raise ConfigError(
                    f"p vanishes identically on [{piece.t0}, {piece.t1}]; 1/p is not integrable"
                )
        # Non-negativity of the weight, sampled densely on every piece.
        for piece in self.delta.pieces:
            ts = np.linspace(piece.t0, piece.t1, 65)
            vals = piece.rule(ts)
            scale = max(1.0, float(np.max(np.abs(vals))))
            if float(np.min(vals)) < -1e-12 * scale:
                raise ConfigError(
                    f"weight is negative near t={ts[int(np.argmin(vals))]:.6g}"
                )
        if weight_support_measure(self) <= 0.0:
            raise ConfigError("weight vanishes identically; the problem is trivial")
        # Finite-quadrature integrability checks on |1/p|, |q|, |Delta|.
        checks: list[tuple[str, Callable[[np.ndarray], np.ndarray], PiecewiseCoefficient]] = [
            ("1/p", lambda t: np.abs(1.0 / self.p(t)), self.p),
            ("q", lambda t: np.abs(self.q(t)), self.q),
            ("delta", lambda t: np.abs(self.delta(t)), self.delta),
        ]
        for name, fn, coef in checks:
            try:
                val = piecewise_integrate(
                    fn, coef.breakpoints, 1e-8, 1e-6, self.quad.max_subdivisions
                )
            except QuadratureError as exc:
                raise ConfigError(f"|{name}| is not finitely integrable: {exc}") from exc
            if not np.isfinite(abs(val)):
                raise ConfigError(f"|{name}| integrates to a non-finite value")
        object.__setattr__(self, "_hash", hash(tuple(getattr(self, f.name) for f in fields(self))))

    def __hash__(self) -> int:  # field-wise, computed once: every cache keys on it
        return self._hash

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Union of all coefficient piece boundaries, ascending."""
        pts = sorted(set(self.p.breakpoints) | set(self.q.breakpoints) | set(self.delta.breakpoints))
        merged = [pts[0]]
        for t in pts[1:]:
            if t - merged[-1] > 1e-12 * (1.0 + abs(t)):
                merged.append(t)
        merged[0] = self.a
        merged[-1] = self.b
        return tuple(merged)


def constant_coefficient_problem(
    a: float = 0.0,
    b: float = 1.0,
    alpha: float = -math.pi / 2,
    p: float = 1.0,
    q: float = 0.0,
    delta: float = 1.0,
    quad: QuadConfig = QuadConfig(),
) -> SLProblem:
    """Problem with constant p, q, Delta on a single piece."""
    return SLProblem(
        a=a,
        b=b,
        alpha=alpha,
        p=constant_coefficient(a, b, p),
        q=constant_coefficient(a, b, q),
        delta=constant_coefficient(a, b, delta),
        quad=quad,
    )


# ---------------------------------------------------------------------------
# weighted inner product and support measure


def delta_inner(
    problem: SLProblem,
    f: Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
) -> complex:
    """Weighted inner product int_a^b f(t) conj(g(t)) Delta(t) dt.

    Pieces where Delta vanishes identically contribute nothing and are
    skipped, so functions need only be defined up to values on the support.
    """
    total = 0.0 + 0.0j
    for piece in problem.delta.pieces:
        if piece.rule.is_zero:
            continue
        rule = piece.rule

        def integrand(t: np.ndarray, _rule=rule) -> np.ndarray:
            return np.asarray(f(t)) * np.conjugate(np.asarray(g(t))) * _rule(t)

        total += piecewise_integrate(
            integrand,
            (piece.t0, piece.t1),
            problem.quad.abs_tol,
            problem.quad.rel_tol,
            problem.quad.max_subdivisions,
        )
    return complex(total)


def delta_norm(problem: SLProblem, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Weighted L2 norm; small negative roundoff is clamped at zero."""
    val = delta_inner(problem, f, f).real
    return math.sqrt(max(val, 0.0))


def weight_support_measure(problem: SLProblem) -> float:
    """Lebesgue measure of the set where Delta does not vanish identically.

    Computed exactly from the piecewise representation: the sum of lengths of
    pieces whose rule is not the zero rule.
    """
    return float(
        sum(p.t1 - p.t0 for p in problem.delta.pieces if not p.rule.is_zero)
    )


# ---------------------------------------------------------------------------
# config loading

_NUM_NAMES = {"pi": math.pi, "e": math.e}
_NUM_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
}


def _num_eval(node: ast.AST) -> float:
    """Numbers, + - * /, unary minus, parentheses, pi and e; nothing else."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id in _NUM_NAMES:
        return _NUM_NAMES[node.id]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        val = _num_eval(node.operand)
        return -val if isinstance(node.op, ast.USub) else val
    if isinstance(node, ast.BinOp) and type(node.op) in _NUM_BINOPS:
        return _NUM_BINOPS[type(node.op)](_num_eval(node.left), _num_eval(node.right))
    raise ValueError(f"unsupported expression {ast.dump(node)}")


def _num(text: str, where: str) -> float:
    """Parse a numeric config field; allows pi, e and + - * / arithmetic."""
    s = text.strip()
    if not s:
        raise ConfigError(f"{where}: empty numeric field")
    try:
        val = _num_eval(ast.parse(s, mode="eval").body)
    except (SyntaxError, ValueError, ArithmeticError, RecursionError) as exc:
        raise ConfigError(f"{where}: cannot parse number {text!r}") from exc
    if not math.isfinite(val):
        raise ConfigError(f"{where}: non-finite value {text!r}")
    return val


def _parse_rule(text: str, where: str) -> Rule:
    head, _, rest = text.strip().partition(":")
    kind = head.strip().lower()
    if kind == "constant":
        return ConstantRule(_num(rest, where))
    if kind == "poly":
        coeffs = tuple(_num(c, where) for c in rest.split(","))
        if not coeffs:
            raise ConfigError(f"{where}: poly rule needs coefficients")
        return PolyRule(coeffs)
    if kind == "table":
        order_text, _, samples_text = rest.partition(":")
        try:
            order = int(order_text)
        except ValueError as exc:
            raise ConfigError(f"{where}: bad table order {order_text!r}") from exc
        ts, vs = [], []
        for sample in samples_text.split(";"):
            sample = sample.strip()
            if not sample:
                continue
            parts = sample.split()
            if len(parts) != 2:
                raise ConfigError(f"{where}: table sample {sample!r} is not 't value'")
            ts.append(_num(parts[0], where))
            vs.append(_num(parts[1], where))
        return TableRule(tuple(ts), tuple(vs), order)
    raise ConfigError(f"{where}: unknown rule kind {kind!r}")


def _parse_pieces(raw: str, where: str) -> PiecewiseCoefficient:
    pieces = []
    for line in raw.splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split(",", 2)
        if len(parts) != 3:
            raise ConfigError(f"{where}: piece line {line!r} is not 't0, t1, rule'")
        t0 = _num(parts[0], where)
        t1 = _num(parts[1], where)
        rule = _parse_rule(parts[2], where)
        pieces.append(Piece(t0, t1, rule))
    if not pieces:
        raise ConfigError(f"{where}: no pieces given")
    return PiecewiseCoefficient(tuple(pieces))


def loads_problem(text: str) -> SLProblem:
    """Parse a problem from config text (see load_problem for the format)."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    if "interval" not in parser:
        raise ConfigError("missing [interval] section")
    interval = parser["interval"]
    for key in ("a", "b", "alpha"):
        if key not in interval:
            raise ConfigError(f"[interval] missing key {key!r}")
    a = _num(interval["a"], "[interval] a")
    b = _num(interval["b"], "[interval] b")
    alpha = _num(interval["alpha"], "[interval] alpha")

    coefficients = {}
    for name in ("p", "q", "delta"):
        section = f"coefficients.{name}"
        if section not in parser:
            raise ConfigError(f"missing [{section}] section")
        if "pieces" not in parser[section]:
            raise ConfigError(f"[{section}] missing key 'pieces'")
        coefficients[name] = _parse_pieces(parser[section]["pieces"], f"[{section}]")

    quad_kwargs = {}
    if "quadrature" in parser:
        qsec = parser["quadrature"]
        for key in ("abs_tol", "rel_tol", "ode_tol"):
            if key in qsec:
                quad_kwargs[key] = _num(qsec[key], f"[quadrature] {key}")
        if "max_subdivisions" in qsec:
            try:
                quad_kwargs["max_subdivisions"] = int(qsec["max_subdivisions"])
            except ValueError as exc:
                raise ConfigError("[quadrature] max_subdivisions must be an integer") from exc
        if "closed_form_pieces" in qsec:
            raw = qsec["closed_form_pieces"].strip().lower()
            if raw in ("true", "1", "yes", "on"):
                quad_kwargs["closed_form_pieces"] = True
            elif raw in ("false", "0", "no", "off"):
                quad_kwargs["closed_form_pieces"] = False
            else:
                raise ConfigError("[quadrature] closed_form_pieces must be a boolean")
        unknown = set(qsec) - {
            "abs_tol",
            "rel_tol",
            "ode_tol",
            "max_subdivisions",
            "closed_form_pieces",
        }
        if unknown:
            raise ConfigError(f"[quadrature] unknown keys: {sorted(unknown)}")

    return SLProblem(
        a=a,
        b=b,
        alpha=alpha,
        p=coefficients["p"],
        q=coefficients["q"],
        delta=coefficients["delta"],
        quad=QuadConfig(**quad_kwargs),
    )


def load_problem(path: str) -> SLProblem:
    """Load a problem from an INI config file.

    Format:

        [interval]
        a = 0.0
        b = 1.0
        alpha = -pi/2

        [coefficients.p]
        pieces =
            0.0, 1.0, constant:1.0

        [coefficients.q]
        pieces =
            0.0, 1.0, constant:0.0

        [coefficients.delta]
        pieces =
            0.0, 1/3, constant:1.0
            1/3, 2/3, constant:0.0
            2/3, 1.0, constant:1.0

        [quadrature]
        abs_tol = 1e-11
        rel_tol = 1e-10
        max_subdivisions = 64
        ode_tol = 1e-11

    Rules are `constant:v`, `poly:c0,c1,...` (ascending powers of t) or
    `table:order:t0 v0; t1 v1; ...`.  Numeric fields accept pi and basic
    arithmetic, e.g. `alpha = -pi/2`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return loads_problem(text)
