"""polarmin benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload sweep_p --seed 0 --seconds 20 --trace 0

Run from the repository root.  Every repetition of the workload runs in a
fresh process (so caches start cold and set-up is paid each time) with the
BLAS thread count fixed to 1, importing polarmin from ``src/``.

``--trace 0`` runs a few set-up-only processes, then repeats the workload
until ``--seconds`` have passed (at least once) and reports the medians of
the end-to-end metrics.  ``--trace 1`` alternates traced and untraced
repetitions (at least two traced) and reports the per-layer metrics, the
tracing overhead, and fails the run unless the work counters of all traced
repetitions are identical.  ``--smoke`` runs every workload at a reduced
size.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  No system-level
noise control is used: no CPU pinning, cache dropping or cgroup changes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

WORK = Path(".perfbench_work")
DIGESTS = WORK / "manifest_digests.json"
MIN_SETUPS = 5  # set-up samples per run; set-up-only processes make up the rest
RUN_LIMIT_S = 165.0  # a run must end within 180 s
BLAS_THREADS = "1"


def _worker_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
    return env


class Runner:
    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.env = _worker_env(root)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0
        self.errors: list[str] = []

    def spawn(self, mode: str) -> dict | None:
        a = self.args
        run_id = f"{a.workload}.seed{a.seed}.{os.getpid()}.{self.count}.{mode}"
        self.count += 1
        rep_dir = WORK / run_id
        result = WORK / f"{run_id}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
            "--seed", str(a.seed), "--mode", mode, "--work", str(rep_dir),
            "--result", str(result), "--run-id", run_id,
        ] + (["--smoke"] if a.smoke else [])
        out = None
        try:
            proc = subprocess.run(
                cmd + ["--t0", repr(time.monotonic())],
                env=self.env,
                stdout=sys.stderr,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
            if proc.returncode == 0:
                out = json.loads(result.read_text())
            else:
                self.errors.append(f"{mode} process exited with {proc.returncode}")
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode} process killed at the {RUN_LIMIT_S:.0f} s run limit")
        except (OSError, ValueError) as exc:
            self.errors.append(f"{mode} process left no result: {exc}")
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)
            result.unlink(missing_ok=True)
        if out is not None and not Path(out["polarmin_file"]).resolve().is_relative_to(
            self.root / "src"
        ):
            self.errors.append(f"polarmin imported from {out['polarmin_file']}, not src/")
        return out

    def repeat(self, modes, min_reps: int) -> list:
        """Spawn ``modes`` in turn, cycling, until --seconds have passed and
        at least ``min_reps`` ran; stop early rather than pass the run limit."""
        begin = time.monotonic()
        reps = []
        last = 0.0
        while len(reps) < min_reps or time.monotonic() - begin < self.args.seconds:
            if reps and time.monotonic() + last > self.deadline:
                break
            t = time.monotonic()
            mode = modes[len(reps) % len(modes)]
            reps.append((mode, self.spawn(mode)))
            last = time.monotonic() - t
        return reps


def _median(values):
    if any(v is None for v in values):
        return None
    if all(v == values[0] for v in values):
        return values[0]
    return statistics.median(values)


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _check_digests(key_base: str, reps: list, failures: list) -> None:
    """Byte-identical manifests: across this run's repetitions, and against
    any earlier run of the same sources, workload and seed in this checkout."""
    digests = {r["manifest_sha256"] for r in reps if r.get("manifest_sha256")}
    if not digests:
        return
    try:
        known = json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        known = {}
    if key_base in known:
        digests.add(known[key_base])
    if len(digests) > 1:
        failures.append(f"sweep manifests differ between runs at one seed ({key_base})")
    else:
        known[key_base] = digests.pop()
        tmp = DIGESTS.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, sort_keys=True, indent=1) + "\n")
        tmp.replace(DIGESTS)


def _environment(root: Path, load_start, reps) -> dict:
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    versions = next((r["versions"] for r in reps if r), {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "blas": versions.get("blas"),
        "blas_threads": int(BLAS_THREADS),
        "git_commit": commit,
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "noise_control": "none (no CPU pinning, cache dropping or cgroup changes)",
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="polarmin benchmark")
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced sizes, for the benchmark's tests")
    args = ap.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "polarmin" / "__init__.py").is_file():
        print("perfbench: no polarmin sources under src/; run from the repository root",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    load_start = os.getloadavg()
    runner = Runner(args, root)

    setups = []
    if args.trace:
        reps = runner.repeat(["trace", "run"], min_reps=3)
    else:
        reps = runner.repeat(["run"], min_reps=1)
        setups = [runner.spawn("setup") for _ in range(MIN_SETUPS - len(reps))]
    done = [r for _, r in reps if r is not None]
    traced = [r for m, r in reps if m == "trace" and r is not None]
    plain = [r for m, r in reps if m == "run" and r is not None]
    if not plain or (args.trace and not traced):
        print("perfbench: no repetition completed: " + "; ".join(runner.errors), file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in done)
    failed = sum(r["failed"] for r in done)
    failures = [f for r in done for f in r["failures"]]
    # checks across repetitions; each failure counts as one more failed operation
    run_failures = list(runner.errors)
    size = "smoke" if args.smoke else "full"
    _check_digests(f"{_source_digest(root)}/{args.workload}/{size}/seed{args.seed}", done, run_failures)

    wall = statistics.median(r["wall_s"] for r in plain)
    if args.trace:
        counters = [r["counters"] for r in traced]
        if any(c != counters[0] for c in counters):
            run_failures.append(f"work counters differ between traced runs: {counters}")
        layers = {k: _median([r["layers"][k] for r in traced]) for k in spans.LAYER_METRICS}
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        layers["trace.overhead_s"] = traced_wall - wall
        units = {k: u for k, (u, _) in spans.LAYER_METRICS.items()} | {"trace.overhead_s": "s"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        summary = (f"traced wall_s={traced_wall:.4f} s untraced wall_s={wall:.4f} s "
                   f"overhead={traced_wall - wall:.4f} s ({len(traced)}+{len(plain)} runs)")
    else:
        setup_vals = [r["setup_s"] for r in setups + done if r is not None]
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_vals), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain), "unit": "MiB"},
        }
        summary = " ".join(f"{k}={m['value']:.4f} {m['unit']}" for k, m in metrics.items())
        summary += f" ({len(plain)} runs, {len(setup_vals)} set-ups)"
    failed = min(attempted, failed + len(run_failures))
    print(f"{args.workload}: {summary} fail_frac={failed}/{attempted}={failed / attempted:g} ratio")
    if args.trace:
        for k, m in metrics.items():
            print(f"  {k} = {m['value']} {m['unit']}")
        missing = sorted({m for r in traced for m in r["missing_hooks"]})
        if missing:
            print("  missing hooks (their metrics are null): " + ", ".join(missing))
    for f in failures + run_failures:
        print("  FAILED: " + f)
    print("perfbench-env " + json.dumps(_environment(root, load_start, done), sort_keys=True))
    print(json.dumps({
        "correct": not (failures or run_failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
