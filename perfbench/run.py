"""slspectra benchmark: one command, three reference-checked workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The package is imported from
``src`` of that checkout; nothing is installed or built.

Workloads (see workloads.py and BENCHMARK.json for why each exists):
``expand-free``, ``eig-varcoef`` and ``spectral-midthird``.  The seed only
jitters window and range endpoints by a few percent.

Each sample runs in fresh processes, one at a time (a closed loop with one
client): one process per step, so the package's trajectory cache starts
empty as it does for a CLI user, BLAS and OpenMP run one thread, and CLI
artifacts go to a per-sample temporary directory.  Samples repeat until
``--seconds`` have passed and at least three have run.  After each sample
the driver process compares the outputs with the closed forms in
reference.py; a deviation above its tolerance fails the sample.

``--trace 0`` reports the end-to-end metrics:

* ``solve_s``: median wall time of the workload's package calls per sample;
* ``setup_s``: median time from process start to ready (``import slspectra``
  plus loading and validating the problem config), over every process;
* ``peak_rss_mb``: median over samples of the largest resident set of the
  sample's processes;
* ``accuracy_margin``: 1 - err_ratio, where err_ratio is the worst deviation
  from the reference divided by its tolerance, over all samples;
* ``ok_frac``: 1 - failed/attempted operations.

``--trace 1`` alternates traced and untraced samples and reports the
per-layer metrics of tracer.py: counts (which must repeat exactly between
traced samples) and self times (medians), plus the tracing overhead.  The
spans go to ``perfbench/out/trace/<workload>/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every operation matched its reference, 1 when one did not, and 2 when
the benchmark could not run at all (then no JSON line is printed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_SAMPLES = 3
MIN_TRACED = 2
RUN_CAP_S = 120  # no new sample starts after this
HARD_LIMIT_S = 170  # a step still running then is killed, so a run ends within 180 s


@dataclass
class Sample:
    traced: bool
    solve_s: float = 0.0
    setups: list = field(default_factory=list)
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    err_ratio: float = 0.0
    worst_check: str = ""
    raw: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    checks: list = field(default_factory=list)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_sample(workload, inputs: dict, traced: bool, sample_id: str, env: dict,
               trace_dir: Path | None, deadline: float) -> Sample:
    sample = Sample(traced=traced)
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    d = Path(tempfile.mkdtemp(prefix="sample-", dir=tmp))
    try:
        results = []
        for step in range(workload.steps):
            spec = {"workload": workload.name, "step": step, "inputs": inputs,
                    "dir": str(d), "trace": traced, "sample_id": sample_id}
            spec_path = d / f"spec-{step}.json"
            spec_path.write_text(json.dumps(spec))
            # CLOCK_MONOTONIC is system-wide: the child subtracts this reading
            cmd = [sys.executable, str(HERE / "sample.py"), str(spec_path), str(time.monotonic_ns())]
            try:
                proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                      timeout=max(deadline - time.monotonic(), 1.0))
                stderr = proc.stderr
            except subprocess.TimeoutExpired:
                stderr = f"step {step} still running {HARD_LIMIT_S} s into the run"
            res_path = d / f"result-{step}.json"
            res = json.loads(res_path.read_text()) if res_path.exists() else {"ok": False, "error": stderr}
            results.append(res)
            if not res["ok"]:
                sample.attempted += 1
                sample.failed += 1
                sample.err_ratio = math.inf
                sample.errors.append((res.get("error") or "step failed").strip().splitlines()[-1])
                return sample
            sample.setups.append(res["setup_s"])
            sample.solve_s += res["solve_s"]
            sample.rss_mb = max(sample.rss_mb, res["rss_mb"])
            sample.attempted += len(res["ops"])
            sample.failed += sum(1 for _, ok in res["ops"] if not ok)
            if traced:
                sample.raw.append(res["raw"])
                if trace_dir is not None:
                    shutil.copy(d / f"spans-{step}.npz", trace_dir / f"spans-{sample_id}-{step}.npz")
        try:
            checks = workload.check(inputs, [r["outputs"] for r in results], d)
        except Exception as exc:  # a missing or malformed artifact fails the sample
            sample.attempted += 1
            sample.failed += 1
            sample.err_ratio = math.inf
            sample.errors.append(f"check raised {exc!r}")
            return sample
        sample.checks = checks
        for c in checks:
            sample.attempted += c.count
            if not c.ratio <= 1.0:
                sample.failed += c.count
                sample.errors.append(f"{c.name}: deviation {c.deviation:.3e} > tol {c.tol:.1e}")
            if not c.ratio <= sample.err_ratio:
                sample.err_ratio, sample.worst_check = c.ratio, c.name
        return sample
    finally:
        shutil.rmtree(d, ignore_errors=True)


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {statistics.median(values):.4f} q1 {q1:.4f} q3 {q3:.4f} n={len(values)}"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(samples: list[Sample]) -> dict:
    solve = [s.solve_s for s in samples]
    setups = [x for s in samples for x in s.setups]
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    err_ratio = max(s.err_ratio for s in samples)
    return {
        "solve_s": _metric(statistics.median(solve), "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(statistics.median(s.rss_mb for s in samples), "MB"),
        "accuracy_margin": _metric(1.0 - err_ratio, "ratio"),
        "ok_frac": _metric(1.0 - failed / attempted, "ratio"),
    }


def per_layer(traced: list[Sample], untraced: list[Sample]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced samples and the names whose counts
    differ between them (which must be none)."""
    import tracer

    merged = [tracer.merge_raw(s.raw) for s in traced]
    per_sample = [tracer.metrics(m) for m in merged]
    out, unstable = {}, []
    for name, first in per_sample[0].items():
        if first["unit"] == "s":
            out[name] = dict(first, value=statistics.median(m[name]["value"] for m in per_sample))
        else:
            out[name] = first
            if any(m[name]["value"] != first["value"] for m in per_sample[1:]):
                unstable.append(name)
    traced_solve = statistics.median(s.solve_s for s in traced)
    out["trace.solve_s"] = _metric(traced_solve, "s")
    out["trace.overhead_s"] = _metric(traced_solve - statistics.median(s.solve_s for s in untraced), "s")
    spans = [m["spans"] for m in merged]
    out["trace.spans"] = _metric(spans[0], "count")
    if len(set(spans)) != 1:
        unstable.append("trace.spans")
    return out, unstable


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "slspectra" / "__init__.py").is_file():
        print(f"error: no slspectra package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import numpy
    import scipy

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    env = _child_env()
    warm = subprocess.run([sys.executable, "-c", "import slspectra.cli"], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if warm.returncode != 0:
        print(f"error: cannot import slspectra from {ROOT / 'src'}:\n{warm.stderr}", file=sys.stderr)
        return 2

    print(f"# python {platform.python_version()} numpy {numpy.__version__} "
          f"scipy {scipy.__version__} nproc {os.cpu_count()}")
    print(f"# workload {workload.name} seed {args.seed} inputs {json.dumps(inputs)[:300]}")
    trace_dir = None
    if args.trace:
        trace_dir = OUT / "trace" / workload.name
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)

    samples: list[Sample] = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        traced = [s for s in samples if s.traced]
        untraced = [s for s in samples if not s.traced]
        enough = len(untraced) >= (1 if args.trace else MIN_SAMPLES) and (
            not args.trace or len(traced) >= MIN_TRACED)
        if (elapsed >= args.seconds and enough) or elapsed >= RUN_CAP_S:
            break
        want_trace = bool(args.trace) and len(traced) <= len(untraced)
        sid = f"{workload.name}-{args.seed}-{len(samples)}"
        s = run_sample(workload, inputs, want_trace, sid, env, trace_dir, start + HARD_LIMIT_S)
        samples.append(s)
        print(f"# sample {sid} {'traced' if s.traced else 'untraced'} solve_s {s.solve_s:.4f} "
              f"setup_s {','.join(f'{x:.4f}' for x in s.setups)} rss_mb {s.rss_mb:.1f} "
              f"ops {s.attempted} failed {s.failed} err_ratio {s.err_ratio:.3e} ({s.worst_check})")
        if len(samples) == 1:
            for c in s.checks:
                print(f"#   check {c.name}: deviation {c.deviation:.3e} tol {c.tol:.1e}")
        for err in s.errors:
            print(f"#   {err}")
        if s.failed:
            break

    traced = [s for s in samples if s.traced]
    untraced = [s for s in samples if not s.traced]
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    correct = failed == 0 and bool(untraced) and (not args.trace or bool(traced))
    if correct and args.trace:
        metrics, unstable = per_layer(traced, untraced)
        if unstable:
            correct = False
            print(f"# counts differ between traced samples: {', '.join(unstable)}")
        absent = sorted({a for s in traced for r in s.raw for a in r["absent"]})
        print(f"# absent targets: {', '.join(absent) or 'none'}")
        (trace_dir / "summary.json").write_text(json.dumps(
            {"workload": workload.name, "seed": args.seed, "inputs": inputs,
             "absent": absent, "metrics": metrics}, indent=1))
    elif correct:
        metrics = end_to_end(untraced)
        print(f"# solve_s {_quartiles([s.solve_s for s in untraced])}")
        print(f"# setup_s {_quartiles([x for s in untraced for x in s.setups])}")
        print(f"# err_ratio {max(s.err_ratio for s in untraced):.3e} failed_frac {failed / attempted:.3e}")
    else:
        metrics = {}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
