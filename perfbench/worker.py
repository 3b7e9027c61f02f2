"""One repetition of one workload, in a fresh process.

Set-up is timed from the parent's clock reading taken just before this
process was spawned (``--t0``, CLOCK_MONOTONIC, shared by all processes)
to the end of input generation, so it includes interpreter start and
``import polarmin``.  Modes: ``setup`` stops there; ``run`` also times the
workload and checks its outputs; ``trace`` does the same with the layer
hooks installed.  The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads


def _blas_names() -> dict:
    import numpy
    import scipy

    out = {}
    for mod in (numpy, scipy):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            out[mod.__name__] = f"{blas.get('name')} {blas.get('version')}"
        except (TypeError, KeyError, AttributeError):
            out[mod.__name__] = None
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "run", "trace"])
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()

    import numpy
    import polarmin
    import scipy

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, work)
    wl.prepare()
    result = {"setup_s": time.monotonic() - args.t0, "polarmin_file": polarmin.__file__}

    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            import spans

            tracer = spans.Tracer(args.run_id)
            tracer.install()
        error = None
        t = time.perf_counter()
        try:
            wl.run()
        except Exception:
            error = traceback.format_exc()
        wall = time.perf_counter() - t
        if tracer is not None:
            tracer.enabled = False
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        size = "smoke" if args.smoke else "full"
        ref = json.loads(workloads.REFERENCES.read_text())[size][args.workload]
        try:
            attempted, failures = wl.check(ref)
        except Exception as exc:  # an output the gate cannot read is a failure
            attempted, failures = 1, [f"check raised {exc!r}"]
        failed = len(failures)
        if error is not None:
            failures.insert(0, "raised: " + error.strip().splitlines()[-1])
            failed = attempted
        result.update(
            wall_s=wall,
            peak_rss_mb=rss_kib / 1024.0,
            attempted=attempted,
            failed=min(failed, attempted),
            failures=failures,
            manifest_sha256=wl.manifest_digest(),
            versions={
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "blas": _blas_names(),
            },
        )
        if tracer is not None:
            layers = spans.layer_metrics(tracer)
            result.update(
                layers=layers,
                counters={k: layers[k] for k in spans.COUNTERS},
                missing_hooks=tracer.missing,
            )
            trace_dir = Path(args.result).parent / "traces"
            trace_dir.mkdir(exist_ok=True)
            tracer.dump(trace_dir / f"{args.run_id}.jsonl", {"wall_s": wall})
        if error is not None:
            print(error, file=sys.stderr)

    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
