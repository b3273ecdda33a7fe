"""One step of one benchmark sample, in a fresh process.

Run by run.py as ``python3 perfbench/sample.py SPEC.json T0_NS`` from the
root of the checkout, with ``src`` on PYTHONPATH.  The spec names the
workload, the step, the generated inputs, the sample directory and whether
to trace.  T0_NS is the driver's CLOCK_MONOTONIC reading just before it
started this process, so that set-up time counts from process start.  The
step writes ``result-<step>.json`` (and, when traced, ``spans-<step>.npz``)
into the sample directory.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path


def main(spec_path: str, t0_ns: int) -> int:
    spec = json.loads(Path(spec_path).read_text())
    out = Path(spec["dir"])
    step = spec["step"]
    result = {"ok": False}
    try:
        import resource

        import slspectra as S

        src = Path("src").resolve()
        if Path(S.__file__).resolve().parent.parent != src:
            raise RuntimeError(f"slspectra imported from {S.__file__}, not from {src}")
        import workloads

        workload = workloads.WORKLOADS[spec["workload"]]
        tracer = None
        if spec["trace"]:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        state = workload.setup(S, spec["inputs"])
        setup_s = (time.monotonic_ns() - t0_ns) * 1e-9

        t0 = time.perf_counter()
        outputs, ops, cli_bytes = workload.solve(S, step, spec["inputs"], state, out)
        solve_s = time.perf_counter() - t0

        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = {
            "ok": True,
            "setup_s": setup_s,
            "solve_s": solve_s,
            "rss_mb": rss_mb,
            "ops": ops,
            "outputs": outputs,
        }
        if tracer is not None:
            raw = tracer.raw(sys.modules["slspectra.propagator"])
            raw["counters"]["cli.bytes_written"] = cli_bytes
            result["raw"] = raw
            tracer.dump(out / f"spans-{step}.npz", f"{spec['sample_id']}/{step}")
    except Exception:
        # reported by the driver as a failed operation of this sample
        result = {"ok": False, "error": traceback.format_exc()}
    (out / f"result-{step}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], int(sys.argv[2])))
