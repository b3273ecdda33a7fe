"""Command-line surface for the library.

Subcommands: eig, mfun, spectral, expand, classify, verify-example.
Global flags: --config PATH (problem INI; default is the built-in free
problem on [0,1]), --out DIR (artifact directory), --ode-tol, --quad-tol.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 numerical failure.  Numeric tables are comma-separated with a
header row and 17 significant digits, so identical inputs give
byte-identical tables; every run writes a manifest.json next to its
outputs.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, GridMismatchError, SLSpectraError, WindowError
from .nevanlinna import asymptotics, classify_bc, eta_relation, parse_tau
from .problem import QuadConfig, SLProblem, constant_coefficient_problem, loads_problem
from .propagator import fundamental_trajectory
from .spectral import build_spectral_function, find_eigenvalues, m_function
from .transform import Truncation, fourier_transform, uniform_convergence_profile

TOOL_VERSION = "0.1.0"


def _fmt(x: float) -> str:
    return "%.17g" % x


def _col(values) -> list[str]:
    """A column of floats, each formatted once by _fmt."""
    return list(map(_fmt, np.asarray(values, dtype=float).tolist()))


# json.dumps of the spectral document, compact and with indent=2, from _fmt
# text, which needs no JSON escaping: (document, window, (pair list open,
# between pairs, inside a pair, close)).  An empty pair list is "[]".
_SPECTRAL_JSON = {
    False: ('{"ac": %s, "masses": %s, "window": %s}', '["%s", "%s"]',
            ('[["', '"], ["', '", "', '"]]')),
    True: ('{\n  "ac": %s,\n  "masses": %s,\n  "window": %s\n}', '[\n    "%s",\n    "%s"\n  ]',
           ('[\n    [\n      "', '"\n    ],\n    [\n      "', '",\n      "', '"\n    ]\n  ]')),
}


def _spectral_json(ac, masses, window, indent: bool) -> str:
    """The spectral document {"ac": [[u, rho], ...], "masses": [[s, jump], ...],
    "window": [lo, hi]} as json.dumps writes it, from _fmt columns ac = (u, rho)
    and masses = (s, jump) and the _fmt pair window."""
    doc, win, (open_, between, inside, close) = _SPECTRAL_JSON[indent]

    def pairs(a, b):
        return open_ + between.join(map(inside.join, zip(a, b))) + close if a else "[]"

    return doc % (pairs(*ac), pairs(*masses), win % window)


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{what} must be 'lo,hi', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"bad {what} {text!r}") from exc
    return lo, hi


def _parse_lambda(text: str) -> complex:
    try:
        if "," in text:
            re_s, im_s = text.split(",", 1)
            lam = complex(float(re_s), float(im_s))
        else:
            lam = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"bad lambda {text!r} (use 're', 're,im' or 're+imj')") from exc
    if not cmath.isfinite(lam):
        raise ConfigError(f"lambda must be finite, got {text!r}")
    return lam


def _parse_schedule(text: str) -> list[Truncation]:
    out = []
    for entry in text.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        k_s, _, win_s = entry.partition(":")
        try:
            k = int(k_s)
        except ValueError as exc:
            raise ConfigError(f"bad truncation entry {entry!r}") from exc
        out.append(Truncation(k_max=k, ac_window=_parse_pair(win_s, "ac window")))
    if not out:
        raise ConfigError("empty truncation schedule")
    return out


_BUILTIN_Y: dict[str, Callable] = {
    "one": lambda t: np.ones_like(np.asarray(t, dtype=float)),
    "t": lambda t: np.asarray(t, dtype=float),
    "t2": lambda t: np.asarray(t, dtype=float) ** 2,
    "quartic": lambda t: (1.0 - np.asarray(t, dtype=float) ** 2) ** 2,
    "cospi": lambda t: np.cos(math.pi * np.asarray(t, dtype=float)),
}


def _builtin_y(name: str) -> Callable:
    if name not in _BUILTIN_Y:
        raise ConfigError(
            f"unknown function {name!r}; builtins: {', '.join(sorted(_BUILTIN_Y))}"
        )
    return _BUILTIN_Y[name]


def _load_problem(args) -> tuple[SLProblem, str]:
    """Problem from --config or the built-in free problem; returns the raw
    config text too (for hashing)."""
    if args.config:
        text = Path(args.config).read_text()
        problem = loads_problem(text)
    else:
        text = ""
        problem = constant_coefficient_problem()
    quad = problem.quad.with_tolerances(args.ode_tol, args.quad_tol)
    if quad is not problem.quad:
        problem = replace(problem, quad=quad)
    return problem, text


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(args, config_text: str, outputs: list[Path]) -> None:
    h = hashlib.sha256()
    h.update(config_text.encode())
    payload = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out", "argv")
    }
    h.update(repr(payload).encode())
    manifest = {
        "command": "slspectra " + " ".join(getattr(args, "argv", []) or [args.cmd]),
        "config_hash": h.hexdigest(),
        "tool_version": TOOL_VERSION,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": [str(p) for p in outputs],
    }
    path = _out_dir(args) / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")


def _write_table(path: Path, header: list[str], columns: Sequence[list[str]]) -> str:
    """Write the header row and the rows of the formatted columns; returns the text."""
    text = "\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n"
    path.write_text(text)
    return text


# ---------------------------------------------------------------------------
# subcommands


def cmd_eig(args) -> int:
    problem, cfg = _load_problem(args)
    tau = parse_tau(args.tau)
    lo, hi = _parse_pair(args.range, "range")
    eigs = find_eigenvalues(problem, tau, (lo, hi), max_count=args.max_count)
    out = _out_dir(args) / "eig.csv"
    ks = list(map(str, range(1, len(eigs) + 1)))
    print(_write_table(out, ["k", "lambda"], [ks, _col(eigs)]), end="")
    _write_manifest(args, cfg, [out])
    return 0


def cmd_mfun(args) -> int:
    problem, cfg = _load_problem(args)
    tau = parse_tau(args.tau)
    lam = _parse_lambda(getattr(args, "lam"))
    m = m_function(problem, tau, lam)
    print(f"m = {_fmt(m.real)} + {_fmt(m.imag)}i")
    outputs = []
    out = _out_dir(args) / "mfun.json"
    out.write_text(
        json.dumps(
            {
                "lambda": [_fmt(lam.real), _fmt(lam.imag)],
                "m": [_fmt(m.real), _fmt(m.imag)],
                "tau": args.tau,
            },
            indent=2,
        )
        + "\n"
    )
    outputs.append(out)
    if args.trace:
        ts = np.linspace(problem.a, problem.b, 201)
        y, y1 = fundamental_trajectory(problem, lam, "phi").eval(ts)
        columns = [_col(v) for v in (ts, y.real, y.imag, y1.real, y1.imag)]
        trace_path = _out_dir(args) / "mfun_trace.csv"
        _write_table(trace_path, ["t", "re_y", "im_y", "re_y1", "im_y1"], columns)
        print(f"trace written to {trace_path}")
        outputs.append(trace_path)
    _write_manifest(args, cfg, outputs)
    return 0


def cmd_spectral(args) -> int:
    problem, cfg = _load_problem(args)
    tau = parse_tau(args.tau)
    window = _parse_pair(args.window, "window")
    sigma = build_spectral_function(problem, tau, window, ac_nodes=args.nodes)
    ac = _col(sigma.ac_grid), _col(sigma.ac_density)
    s, jump = np.array(sigma.point_masses, dtype=float).reshape(-1, 2).T
    masses = _col(s), _col(jump)
    window = _fmt(window[0]), _fmt(window[1])
    print(_spectral_json(ac, masses, window, indent=False))
    out = _out_dir(args)
    j_path = out / "spectral.json"
    j_path.write_text(_spectral_json(ac, masses, window, indent=True) + "\n")
    ac_path = out / "spectral_ac.csv"
    _write_table(ac_path, ["u", "rho"], ac)
    m_path = out / "spectral_masses.csv"
    _write_table(m_path, ["s", "jump"], masses)
    _write_manifest(args, cfg, [j_path, ac_path, m_path])
    return 0


def cmd_expand(args) -> int:
    problem, cfg = _load_problem(args)
    tau = parse_tau(args.tau)
    y = _builtin_y(args.y)
    schedule = _parse_schedule(args.schedule)
    window = _parse_pair(args.window, "window")
    sigma = build_spectral_function(problem, tau, window, ac_nodes=args.nodes)
    yhat = fourier_transform(problem, y, sigma)
    # a negative count gives the same ConfigError as an empty grid
    t_grid = np.linspace(problem.a, problem.b, max(args.t_points, 0))
    rep = uniform_convergence_profile(problem, sigma, yhat, y, schedule, t_grid)
    doc = {
        "truncations": [
            {"description": d, "sup_error": _fmt(s)} for d, s in rep.truncations
        ],
        "monotone_tail": rep.monotone_tail,
    }
    print(json.dumps(doc, indent=2))
    out = _out_dir(args)
    outputs = [out / "expand.json"]
    outputs[0].write_text(json.dumps(doc, indent=2) + "\n")
    y_ref = np.asarray(y(t_grid), dtype=float)
    t_col, y_col = _col(t_grid), _col(y_ref)
    for i, vals in enumerate(rep.values):
        path = out / f"expand_trunc{i}.csv"
        columns = [t_col, y_col, _col(vals.real), _col(np.abs(vals - y_ref))]
        _write_table(path, ["t", "y_true", "y_reconstructed", "abs_error"], columns)
        outputs.append(path)
    _write_manifest(args, cfg, outputs)
    return 0


def cmd_classify(args) -> int:
    tau = parse_tau(args.tau)
    bc = classify_bc(tau)
    eta = eta_relation(tau)
    doc = {
        "class": bc.label,
        "d_tau": bc.d_tau,
        "eta": {"full": "full-range", "graph": "graph", "zero": "zero"}[eta.case],
        "B": None,
        "moment_finite": None,
        "D": None,
        "tau": args.tau,
    }
    if tau.kind != "infinity":
        asym = asymptotics(tau)
        doc["B"] = asym.B
        doc["moment_finite"] = asym.moment_finite
        doc["D"] = asym.D
    print(json.dumps(doc, indent=2))
    out = _out_dir(args) / "classify.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    _write_manifest(args, "", [out])
    return 0


def cmd_verify_example(args) -> int:
    from . import verify  # only this command needs it

    results = verify.run_all(
        ode_tol=args.ode_tol,
        k_max=args.k_max,
        quad_tol=args.quad_tol,
    )
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
        print(lines[-1])
    ok = all(r.passed for r in results)
    print(f"{'all criteria passed' if ok else 'VERIFICATION FAILED'}")
    out = _out_dir(args) / "verify.txt"
    out.write_text("\n".join(lines) + "\n")
    _write_manifest(args, "", [out])
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slspectra",
        description="Spectral functions and eigenfunction transforms for "
        "Sturm-Liouville problems with semi-definite weight.",
    )
    parser.add_argument("--config", help="problem INI file (default: built-in free problem)")
    parser.add_argument("--out", default="slspectra-out", help="artifact directory")
    parser.add_argument("--ode-tol", type=float, dest="ode_tol",
                        help="propagation tolerance; selects the DOP853 reference engine")
    parser.add_argument("--quad-tol", type=float, dest="quad_tol", help="quadrature tolerance")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("eig", help="eigenvalues (real poles of m) in a range")
    p.add_argument("--tau", required=True, help="constant:θ | infinity | sqrt | mobius:a,b,c,d")
    p.add_argument("--range", required=True, help="search range 'lo,hi'")
    p.add_argument("--max-count", type=int, default=10000, dest="max_count")
    p.set_defaults(func=cmd_eig)

    p = sub.add_parser("mfun", help="evaluate the m-function at one lambda")
    p.add_argument("--tau", required=True)
    p.add_argument("--lambda", required=True, dest="lam", help="'re', 're,im' or 're+imj'")
    p.add_argument("--trace", action="store_true", help="dump the phi trajectory table")
    p.set_defaults(func=cmd_mfun)

    p = sub.add_parser("spectral", help="assemble the spectral function on a window")
    p.add_argument("--tau", required=True)
    p.add_argument("--window", required=True, help="'lo,hi'")
    p.add_argument("--nodes", type=int, default=600, help="ac grid nodes")
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("expand", help="truncated inverse-transform convergence study")
    p.add_argument("--tau", required=True)
    p.add_argument("--y", required=True, help=f"builtin function: {', '.join(sorted(_BUILTIN_Y))}")
    p.add_argument("--schedule", required=True, help="'k:lo,hi;k:lo,hi;...' truncations")
    p.add_argument("--window", required=True, help="spectral window 'lo,hi'")
    p.add_argument("--nodes", type=int, default=600)
    p.add_argument("--t-points", type=int, default=101, dest="t_points")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("classify", help="boundary-condition class of a parameter")
    p.add_argument("--tau", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify-example", help="run the built-in verification suite")
    p.add_argument("--k-max", type=int, dest="k_max",
                   help="cap the mixed-expansion truncation schedule")
    p.set_defaults(func=cmd_verify_example)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        return args.func(args)
    except (ConfigError, WindowError, GridMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SLSpectraError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
